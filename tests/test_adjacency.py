"""The adjacency rule: every window the epidemic tokenizer reads in training,
validation and a forecast's context, and every adjacency row a forecast
generates, is bitwise the reference's thresholding of the dataset's mobility,
whatever the sign of the threshold and with all-zero rows and -0.0 flows in
the input."""

import datetime as dt

import numpy as np
import pytest
from composed_reference import thresholded_adjacency
from hypothesis import given, settings
from hypothesis import strategies as st

from epicast import branches
from epicast.backbone import BackboneConfig
from epicast.branches import patch_grid
from epicast.data import CaseTable, SplitSpec, build_dataset, split_dataset
from epicast.forecaster import ADJACENCY_MODES, forecast
from epicast.model import ModelConfig, build_model
from epicast.trainer import TrainConfig, training_loss, validation_loss


def _tables(rng, n, days):
    """Random counts, and random nonnegative flows with some all-zero rows and
    -0.0 in place of half the zeros."""
    flows = rng.uniform(0.0, 10.0, size=(days, n, n)) * (rng.random((days, n, n)) < 0.6)
    flows[rng.random((days, n)) < 0.2] = 0.0
    flows[(flows == 0) & (rng.random((days, n, n)) < 0.5)] = -0.0
    dates = [dt.date(2021, 1, 1) + dt.timedelta(days=t) for t in range(days)]
    regions = [f"R{i}" for i in range(n)]
    cases = CaseTable(dates, regions, rng.integers(0, 50, size=(days, n)))
    return cases, flows


def _windows(run):
    """The adjacency windows the epidemic tokenizer reads while `run()` runs."""
    seen = []
    original = branches.epi_tokenize

    def spy(X, A, *args, **kw):
        seen.append(A.copy())
        return original(X, A, *args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(branches, "epi_tokenize", spy)
        out = run()
    return seen, out


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=1, max_value=4),
    w=st.integers(min_value=1, max_value=3),
    extra=st.integers(min_value=0, max_value=2),
    epsilon=st.one_of(st.just(0.0), st.floats(-10.0, -1e-3), st.floats(1e-3, 10.0)),
    scale=st.booleans(),
    adjacency_mode=st.sampled_from(ADJACENCY_MODES),
)
@settings(max_examples=25, deadline=None)
def test_every_window_and_generated_row_is_the_thresholded_mobility(seed, n, w, extra, epsilon, scale, adjacency_mode):
    rng = np.random.default_rng(seed)
    cases, raw = _tables(rng, n, 5 * w + extra)
    ds = build_dataset(cases, raw, w=w, epsilon=epsilon, scale=scale)
    assert (ds.mask is None) == (epsilon <= 0)
    np.testing.assert_array_equal(ds.M, raw / ds.mob_scale)  # equal up to the sign of zero
    assert not np.signbit(ds.M).any()  # a -0.0 flow enters model space as 0.0
    reference = thresholded_adjacency(raw, ds.M, epsilon)

    splits = split_dataset(ds, SplitSpec(test_len=w, val_len=w))
    model = build_model(
        ModelConfig(n_regions=n, w=w, width=4, seed=seed % 5),
        BackboneConfig(mode="frozen-transformer", depth=1, width=4, heads=2, seed=1),
    )
    cfg = TrainConfig()
    for grid, run in (
        (patch_grid(splits.train.start, splits.train.stop, w), lambda: training_loss(model, ds, splits.train, cfg)),
        (patch_grid(0, splits.val.stop, w), lambda: validation_loss(model, ds, splits.val, cfg)),
    ):
        seen, _ = _windows(run)
        assert [A.tobytes() for A in seen] == [reference[s:e].tobytes() for s, e in grid]

    context_end = splits.test.start
    seen, res = _windows(lambda: forecast(model, ds, context_end, 2, adjacency_mode))
    context = patch_grid(0, context_end, w)
    assert [A.tobytes() for A in seen[: len(context)]] == [reference[s:e].tobytes() for s, e in context]
    generated = thresholded_adjacency(res.mobility, res.mobility, epsilon)
    assert res.adjacency.tobytes() == generated.tobytes()
