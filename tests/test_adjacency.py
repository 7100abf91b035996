"""The adjacency rule: every window the epidemic tokenizer reads in training,
validation and a forecast's context, and every adjacency row a forecast
generates, is bitwise the reference's thresholding of the dataset's mobility,
whatever the sign of the threshold and with all-zero rows and -0.0 flows in
the input.  A flow is an edge when its raw value, model-space mobility times
``mob_scale``, exceeds ``epsilon``: unscaled that is the raw flow itself, and
scaled it can differ from the raw flow's own comparison within rounding of
``epsilon``, where context and generated rows follow the one rule.  Neither
the dataset nor a forecast's rollout keeps a threshold mask, so a positive
``epsilon`` costs either of them no traced memory."""

import datetime as dt
import tracemalloc

import numpy as np
import pytest
from composed_reference import thresholded_adjacency
from hypothesis import given, settings
from hypothesis import strategies as st

from epicast import branches
from epicast.backbone import BackboneConfig
from epicast.branches import patch_grid
from epicast.data import CaseTable, SplitSpec, build_dataset, split_dataset, synth_sir_tables
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


def _assert_windows_follow(ds, reference, adjacency_mode, seed=0):
    """Training, validation and the context of a 2-step forecast tokenize
    `reference`'s windows, and the forecast's adjacency rows are its mobility
    thresholded alike."""
    w, n, epsilon = ds.w, ds.N, ds.epsilon
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
    np.testing.assert_array_equal(ds.M, raw / ds.mob_scale)  # equal up to the sign of zero
    assert not np.signbit(ds.M).any()  # a -0.0 flow enters model space as 0.0
    # unscaled, the raw flows are the rule's raw values; scaled, the rule reads them back from model space
    reference = thresholded_adjacency(ds.M * ds.mob_scale if scale else raw, ds.M, epsilon)
    _assert_windows_follow(ds, reference, adjacency_mode, seed)


@pytest.mark.parametrize("flow, epsilon", [(3.9, 3.9), (0.9, np.nextafter(0.9, 0.0))])
def test_a_scaled_flow_within_rounding_of_the_threshold_follows_the_one_rule(flow, epsilon):
    """Scaled by the largest flow, 10.0, the raw flow `flow` enters model space
    as ``flow / 10.0``, and times 10.0 that rounds to the other side of
    `epsilon`: 3.9 reads back as 3.9000000000000004, an edge at 3.9 that the
    raw comparison drops, and 0.9 as 0.8999999999999999, no edge at the float
    just below 0.9 where the raw comparison keeps one."""
    w, n, days = 2, 2, 10
    raw = np.full((days, n, n), 10.0)
    raw[:, 0, 1] = flow
    dates = [dt.date(2021, 1, 1) + dt.timedelta(days=t) for t in range(days)]
    cases = CaseTable(dates, ["R0", "R1"], np.arange(days * n).reshape(days, n) % 7)
    ds = build_dataset(cases, raw, w=w, epsilon=epsilon, scale=True)
    assert ds.mob_scale == 10.0
    reference = thresholded_adjacency(ds.M * ds.mob_scale, ds.M, epsilon)
    assert (reference[:, 0, 1] > 0).all() != (flow > epsilon)  # the raw rule gives the other answer
    _assert_windows_follow(ds, reference, "last")


def _peak_rise(run) -> int:
    """The most bytes held, as tracemalloc counts them, while `run()` runs,
    above what was held when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scale", [False, True])
def test_a_positive_epsilon_costs_build_dataset_no_memory(scale):
    """The dataset keeps no threshold mask, so at a positive epsilon
    `build_dataset` peaks within 4 KiB of its peak at epsilon 0; a (T, N, N)
    bool mask would add T * N**2 bytes, 135.5 KiB at (34, 120)."""
    cases, flows = synth_sir_tables(34, 120, rng_seed=1)
    epsilon = float(np.median(flows))
    assert 0 < epsilon < flows.max()
    build_dataset(cases, flows, w=7, epsilon=epsilon, scale=scale)  # the first call's imports are not traced
    at_zero, at_epsilon = (_peak_rise(lambda: build_dataset(cases, flows, w=7, epsilon=e, scale=scale))
                           for e in (0.0, epsilon))  # fmt: skip
    assert abs(at_epsilon - at_zero) <= 4096, (at_zero, at_epsilon)


def test_a_positive_epsilon_costs_a_forecast_no_memory():
    """The rollout thresholds each window's adjacency as it reads it and
    keeps no threshold mask, so an 8-step forecast at (34, 120, 7) from the
    whole series peaks at a positive epsilon within 4 KiB of its peak at
    epsilon 0.  An (end, N, N) bool mask history would add end * N**2 bytes,
    198.7 KiB here (end = 176)."""
    cases, flows = synth_sir_tables(34, 120, rng_seed=1)
    epsilon = float(np.median(flows))
    datasets = [build_dataset(cases, flows, w=7, epsilon=e, scale=True) for e in (0.0, epsilon)]
    model = build_model(
        ModelConfig(n_regions=34, w=7, width=8, seed=0),
        BackboneConfig(mode="frozen-transformer", depth=2, width=8, heads=2, seed=1),
    )
    forecast(model, datasets[1], 120, 8)  # the first call's caches and imports are not traced
    at_zero, at_epsilon = (_peak_rise(lambda: forecast(model, ds, 120, 8)) for ds in datasets)
    assert abs(at_epsilon - at_zero) <= 4096, (at_zero, at_epsilon)


def _forecast_peaks(n, w, context_ends):
    """The traced peak rise of an 8-step forecast from each of `context_ends`
    at (n, 120, w), by a small frozen transformer."""
    cases, flows = synth_sir_tables(n, 120, rng_seed=1)
    ds = build_dataset(cases, flows, w=w, scale=True)
    model = build_model(
        ModelConfig(n_regions=n, w=w, width=4, seed=0),
        BackboneConfig(mode="frozen-transformer", depth=1, width=4, heads=2, seed=1),
    )
    forecast(model, ds, context_ends[0], 8)  # the first call's caches and imports are not traced
    return [_peak_rise(lambda: forecast(model, ds, end, 8)) for end in context_ends]


def test_no_rollout_array_grows_with_the_context_times_n_squared():
    """The rollout reads its context's mobility from the dataset and keeps one
    flow matrix per generated patch, so at (34, 120, 7) moving the context end
    from day 64 to day 120 raises an 8-step forecast's peak by less than one
    (56, N, N) float64 array, 517,888 bytes: what grows is the features and
    the backbone's cache, by context * N (278,232 bytes measured).  A history
    that copies the context days adds that array on top (parent: 796,136)."""
    n = 34
    at_64, at_120 = _forecast_peaks(n, 7, (64, 120))
    assert at_120 - at_64 < 56 * n * n * 8, (at_64, at_120)


def test_an_8_step_forecast_at_england_size_keeps_no_context_flows():
    """At (129, 120, 3) from day 96 an 8-step forecast peaks at 4,528,728
    traced bytes; the bound is about 1.2 times that.  Copying the 96 context
    days of flows into an (end, N, N) history costs 12.8 MB more."""
    (peak,) = _forecast_peaks(129, 3, (96,))
    assert peak < 5_500_000, peak
