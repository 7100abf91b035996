"""The prompted graph's normalization, the dense block matrix of the tests'
reference, and the learnable edge/gate parameters."""

import warnings

import numpy as np
import pytest
from composed_reference import block_adjacency, cross_slice_masks, slice_offsets, tsum
from gradcheck import grad_check

from epicast.prompts import build_prompted_graph, init_prompts
from epicast.tensor import _sigmoid, constant, mul


def test_init_values_w3():
    p = init_prompts(3)
    assert p.w_forward.data == 1.0
    assert p.w_backward.data == 0.5
    np.testing.assert_array_equal(p.gamma.data, [1.0, 1.0, 1.0])
    assert all(not q.frozen for q in p.parameters())


def test_init_values_w7():
    p = init_prompts(7)
    assert p.gamma.data.shape == (7,)
    np.testing.assert_array_equal(p.gamma.data, np.ones(7))


def test_init_rejects_bad_window():
    with pytest.raises(ValueError):
        init_prompts(0)


def test_single_slice_window_has_no_cross_edges():
    p = init_prompts(1)
    A = np.arange(9, dtype=float).reshape(1, 3, 3)
    np.testing.assert_array_equal(block_adjacency(A, p).data, A[0])


def test_block_matrix_structure():
    w, n = 3, 5
    p = init_prompts(w)
    rng = np.random.default_rng(0)
    A = rng.uniform(0, 1, size=(w, n, n))
    block = block_adjacency(A, p).data
    assert block.shape == (w * n, w * n)
    # within-slice blocks are the original adjacencies
    for k in range(w):
        np.testing.assert_array_equal(block[k * n : (k + 1) * n, k * n : (k + 1) * n], A[k])
    # exactly 2*(w-1)*n cross-slice entries, drawn from the two shared scalars
    off = block.copy()
    for k in range(w):
        off[k * n : (k + 1) * n, k * n : (k + 1) * n] = 0.0
    assert (off != 0).sum() == 2 * (w - 1) * n
    fwd = [off[(k - 1) * n + i, k * n + i] for k in range(1, w) for i in range(n)]
    bwd = [off[k * n + i, (k - 1) * n + i] for k in range(1, w) for i in range(n)]
    assert set(fwd) == {1.0}
    assert set(bwd) == {0.5}


def test_zero_adjacency_leaves_only_prompt_entries():
    p = init_prompts(2)
    values = set(np.unique(block_adjacency(np.zeros((2, 4, 4)), p).data))
    assert values == {0.0, 0.5, 1.0}


def test_zeroed_prompts_give_block_diagonal():
    p = init_prompts(3)
    p.w_forward.data = np.array(0.0)
    p.w_backward.data = np.array(0.0)
    rng = np.random.default_rng(1)
    A = rng.uniform(0, 1, size=(3, 4, 4))
    block = block_adjacency(A, p).data
    for k in range(3):
        for j in range(3):
            if k != j:
                sub = block[k * 4 : (k + 1) * 4, j * 4 : (j + 1) * 4]
                assert (sub == 0).all()


def test_prompt_gradient_is_shared_across_edge_positions():
    # d(sum(C * block))/d(w_forward) must equal the sum of C over all forward
    # edge positions, since one scalar feeds them all
    w, n = 4, 3
    p = init_prompts(w)
    rng = np.random.default_rng(2)
    A = rng.uniform(0, 1, size=(w, n, n))
    C = rng.normal(size=(w * n, w * n))

    def loss():
        return tsum(mul(block_adjacency(A, p), constant(C)))

    report = grad_check(loss, [p.w_forward, p.w_backward])
    assert report.max_rel_error < 1e-7

    p.w_forward.zero_grad()
    p.w_backward.zero_grad()
    loss().backward()
    expected_fwd = sum(C[(k - 1) * n + i, k * n + i] for k in range(1, w) for i in range(n))
    assert float(p.w_forward.grad) == pytest.approx(expected_fwd)


@pytest.mark.parametrize("w, n", [(1, 3), (2, 1), (3, 4), (7, 5)])
def test_cross_slice_masks_match_loop_reference(w, n):
    fwd_ref = np.zeros((w * n, w * n))
    bwd_ref = np.zeros((w * n, w * n))
    for k in range(1, w):
        for i in range(n):
            fwd_ref[(k - 1) * n + i, k * n + i] = 1.0
            bwd_ref[k * n + i, (k - 1) * n + i] = 1.0
    fwd, bwd = cross_slice_masks(w, n)
    assert fwd.tobytes() == fwd_ref.tobytes() and bwd.tobytes() == bwd_ref.tobytes()


def test_slice_offsets():
    assert slice_offsets(np.zeros((2, 3, 3))) == [range(0, 3), range(3, 6)]


@pytest.mark.parametrize("w, n", [(1, 3), (2, 1), (3, 4), (7, 5)])
def test_normalization_is_the_dense_block_graphs_degree(w, n):
    """The closed-form scale is ``deg^-1/2`` of the self-looped dense block
    matrix's column sums (in-degrees), one per (slice, region) node."""
    p = init_prompts(w)
    p.w_forward.data, p.w_backward.data = np.array(0.7), np.array(1.3)
    A = np.random.default_rng(w * n).uniform(0, 1, size=(w, n, n))
    s = build_prompted_graph(A, p)
    assert s.shape == (w, n, 1)
    deg = (block_adjacency(A, p).data + np.eye(w * n)).sum(axis=0)
    np.testing.assert_allclose(s.reshape(-1), 1.0 / np.sqrt(deg), rtol=1e-14)


def test_mismatched_slices_rejected():
    p = init_prompts(3)
    with pytest.raises(ValueError):
        build_prompted_graph(np.zeros((2, 3, 3)), p)
    with pytest.raises(ValueError):
        build_prompted_graph(np.zeros((3, 3, 4)), p)


def test_summary_reports_raw_and_squashed():
    p = init_prompts(3)
    s = p.summary()
    assert s["forward_edge"] == 1.0
    assert s["backward_edge"] == 0.5
    assert s["gamma"] == [1.0, 1.0, 1.0]
    assert s["gate"] == pytest.approx([1 / (1 + np.exp(-1.0))] * 3)


def test_summary_gates_are_the_gates_the_blend_multiplies_by():
    """The reported gate is bitwise the tokenizer's ``_sigmoid(gamma)``, and a
    large negative gamma reports a gate of 0 without an overflow."""
    p = init_prompts(3)
    p.gamma.data = np.array([-0.7, -800.0, 40.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gates = p.summary()["gate"]
    assert np.array(gates).tobytes() == _sigmoid(p.gamma.data).tobytes()
    assert gates[1] == 0.0 and gates[2] == 1.0
