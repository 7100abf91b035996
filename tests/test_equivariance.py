"""Region-permutation equivariance: the model treats regions as exchangeable.

Tokens are per region, the backbone batches regions, and only the mobility
projector's first-layer rows and the mobility adapter's columns are indexed by
region.  So relabeling the regions of the case and mobility tables, with those
rows and columns permuted the same way, permutes the training loss's gradients
and every forecast, and leaves the loss and every other gradient unchanged.
Sums over the region axis then run in another order, so the match is to
rounding, not bitwise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epicast.backbone import MODES, BackboneConfig
from epicast.data import CaseTable, SplitSpec, build_dataset, split_dataset, synth_sir_tables
from epicast.forecaster import forecast
from epicast.model import ModelConfig, build_model
from epicast.trainer import TrainConfig, training_loss

RTOL = 1e-12
STEPS = 2


def _assert_close(got, want, scale=None):
    """Within RTOL of `scale`, by default the largest entry of `want`."""
    assert got.shape == want.shape
    scale = np.max(np.abs(want), initial=0.0) if scale is None else scale
    assert np.max(np.abs(got - want), initial=0.0) <= RTOL * scale


def _relabeled(cases: CaseTable, flows: np.ndarray, perm: np.ndarray):
    """The same table and flows with region i of the new order being region perm[i]."""
    names = [cases.regions[i] for i in perm]
    return (
        CaseTable(cases.dates, names, cases.counts[:, perm]),
        flows[:, perm][:, :, perm],
    )


def _region_views(model):
    """Each parameter paired with the function that permutes its region axis
    (None where it has none)."""
    views = {id(model.mob_proj.W1): lambda a, perm: a[perm], id(model.mob_adapter.b): lambda a, perm: a[perm]}
    views[id(model.mob_adapter.W)] = lambda a, perm: a[:, perm]
    return [(p, views.get(id(p))) for p in model.parameters()]


@given(
    n=st.integers(min_value=2, max_value=5),
    w=st.integers(min_value=1, max_value=3),
    patches=st.integers(min_value=3, max_value=7),
    mode=st.sampled_from(MODES),
    scale=st.booleans(),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_relabeling_regions_permutes_gradients_and_forecasts(n, w, patches, mode, scale, data):
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
    seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
    days = (patches + 2 + STEPS) * w
    cases, flows = synth_sir_tables(n, days, rng_seed=seed)
    results = []
    for tables in ((cases, flows), _relabeled(cases, flows, perm)):
        ds = build_dataset(*tables, w=w, scale=scale)
        model = build_model(
            ModelConfig(n_regions=n, w=w, width=8, seed=seed % 7),
            BackboneConfig(mode=mode, depth=2, width=8, heads=2, seed=seed % 5),
        )
        if results:  # the relabeled run's region-indexed weights, relabeled
            for p, view in _region_views(model):
                if view is not None:
                    p.data = np.ascontiguousarray(view(p.data, perm))
        loss = training_loss(model, ds, split_dataset(ds, SplitSpec(test_len=w, val_len=w)).train, TrainConfig())
        model.zero_grad()
        loss.backward()
        fc = forecast(model, ds, days - STEPS * w, STEPS)
        results.append((float(loss.data), _region_views(model), fc))
    (loss, params, fc), (loss_p, params_p, fc_p) = results
    assert abs(loss_p - loss) <= RTOL * abs(loss)
    # relative to the whole gradient: a gradient that cancels to zero (a bias
    # that a LayerNorm removes) is rounding noise of either order
    largest = max(np.max(np.abs(p.grad)) for p, _ in params if p.grad is not None)
    for (p, view), (p_p, _) in zip(params, params_p):
        assert p.name == p_p.name and (p.grad is None) == (p_p.grad is None)
        if p.grad is not None:
            _assert_close(p_p.grad, p.grad if view is None else view(p.grad, perm), largest)
    _assert_close(fc_p.cases, fc.cases[:, perm])
    for got, want in ((fc_p.mobility, fc.mobility), (fc_p.adjacency, fc.adjacency)):
        _assert_close(got, want[:, perm][:, :, perm])
