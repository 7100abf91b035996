"""Model assembly, parameter accounting, and checkpoints."""

import numpy as np
import pytest

from epicast.backbone import MODES, BackboneConfig, parameter_count
from epicast.branches import epi_token_sequence
from epicast.data import SplitSpec, split_dataset, synth_sir
from epicast.model import (
    EmptyModelError,
    ModelConfig,
    _branch_parameter_count,
    backbone_hash,
    build_model,
    count_params,
    load_checkpoint,
    save_checkpoint,
)
from epicast.serialize import CheckpointError, load_tensors, save_tensors
from epicast.trainer import TrainConfig, train


def _model(width=8, depth=2, mode="frozen-transformer", n=4, w=3, seed=0):
    mc = ModelConfig(n_regions=n, w=w, width=width, seed=seed)
    bc = BackboneConfig(mode=mode, depth=depth, width=width, heads=2, seed=seed + 1)
    return build_model(mc, bc)


def test_identity_backbone_all_trainable():
    model = _model(mode="identity")
    counts = count_params(model)
    assert counts.trainable == counts.total


def test_frozen_ratio_shrinks_with_backbone_size():
    small = count_params(_model(width=64, depth=2))
    big = count_params(_model(width=256, depth=4))
    assert small.trainable < small.total
    assert big.trainable / big.total < small.trainable / small.total


@pytest.mark.parametrize("mode", MODES)
def test_parameter_count_is_what_build_model_allocates(mode):
    mc = ModelConfig(n_regions=5, w=3, width=8, mob_hidden=6)
    bc = BackboneConfig(mode=mode, depth=2, width=8, heads=2, max_positions=7, ffn_mult=3)
    assert _branch_parameter_count(mc) + parameter_count(bc) == count_params(build_model(mc, bc)).total


def test_empty_model_ratio_is_an_error():
    model = _model(mode="identity")
    model.epi_proj.W1.data = np.zeros((0, 0))
    for part in (model.epi_proj, model.mob_proj, model.epi_adapter, model.mob_adapter, model.prompts):
        for p in part.parameters():
            p.data = np.zeros(0)
    with pytest.raises(EmptyModelError):
        count_params(model)


def test_trainable_partition_in_frozen_mode():
    model = _model()
    trainable = {p.name for p in model.trainable_parameters()}
    assert all(not name.startswith("backbone.") for name in trainable)
    frozen = {p.name for p in model.parameters() if p.frozen}
    assert all(name.startswith("backbone.") for name in frozen)
    assert len(trainable) + len(frozen) == len(model.parameters())


def test_build_model_deterministic():
    a, b = _model(seed=5), _model(seed=5)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.data.tobytes() == pb.data.tobytes()
    c = _model(seed=6)
    assert any(
        pa.data.tobytes() != pc.data.tobytes()
        for pa, pc in zip(a.parameters(), c.parameters())
        if not pa.frozen
    )


def test_checkpoint_round_trip(tmp_path):
    model = _model()
    model.prompts.gamma.data = np.array([0.3, -0.2, 1.7])
    path = tmp_path / "ckpt.bin"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.backbone.config == model.backbone.config
    for pa, pb in zip(model.parameters(), loaded.parameters()):
        assert pa.name == pb.name
        assert pa.data.tobytes() == pb.data.tobytes()
        assert pa.frozen == pb.frozen

    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(6, 4, 3))
    M = rng.uniform(0, 1, size=(6, 4, 4))
    grid = [(0, 3), (3, 6)]
    before = epi_token_sequence(model, X, M, None, grid).data
    after = epi_token_sequence(loaded, X, M, None, grid).data
    np.testing.assert_array_equal(before, after)


@pytest.mark.parametrize("scale", [False, True])
def test_checkpoint_round_trip_keeps_the_served_record(tmp_path, scale):
    ds = synth_sir(4, 24, rng_seed=1, w=3, scale=scale)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    model, _ = train(_model(), ds, splits.train, splits.val, TrainConfig(max_epochs=1))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(model, path)
    assert load_checkpoint(path).served == ds.served_space()


def test_an_untrained_model_round_trips_without_a_served_record(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(_model(), path)
    assert load_tensors(path)[1]["served"] is None
    assert load_checkpoint(path).served is None


@pytest.mark.parametrize("served", [[], "R000", 3, "missing"])
def test_a_sidecar_without_a_served_record_is_refused(tmp_path, served):
    # "missing" drops the key, as in every checkpoint written before served records
    path = tmp_path / "ckpt.bin"
    save_checkpoint(_model(), path)
    named, meta = load_tensors(path)
    del meta["served"]
    if served != "missing":
        meta["served"] = served
    save_tensors(named, path, meta=meta)
    with pytest.raises(CheckpointError, match="meta.served is missing or not an object; retrain"):
        load_checkpoint(path)


def _with_retired_adjacency_mode(path, value):
    """Rewrite a checkpoint's meta as older versions wrote it, with the forecast's
    adjacency source stored as a model_config key."""
    named, meta = load_tensors(path)
    meta["model_config"]["adjacency_mode"] = value
    save_tensors(named, path, meta=meta)


@pytest.mark.parametrize("value", ["window_average", "last", "historic"])
def test_checkpoint_with_another_retired_adjacency_mode_is_refused(tmp_path, value):
    # loading it as "predicted" would silently serve another forecast
    path = tmp_path / "ckpt.bin"
    save_checkpoint(_model(), path)
    _with_retired_adjacency_mode(path, value)
    with pytest.raises(CheckpointError, match="unexpected keyword argument 'adjacency_mode'"):
        load_checkpoint(path)


def test_model_config_has_no_adjacency_mode():
    with pytest.raises(TypeError, match="adjacency_mode"):
        ModelConfig(n_regions=4, adjacency_mode="predicted")


def test_checkpoint_bytes_deterministic(tmp_path):
    model = _model()
    save_checkpoint(model, tmp_path / "a.bin")
    save_checkpoint(model, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert (tmp_path / "a.bin.json").read_bytes() == (tmp_path / "b.bin.json").read_bytes()


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "missing.bin")


def test_backbone_hash_tracks_backbone_only():
    model = _model()
    h0 = backbone_hash(model)
    model.epi_proj.W1.data = model.epi_proj.W1.data + 1.0
    assert backbone_hash(model) == h0
    model.backbone.params["ln_f.g"].data = model.backbone.params["ln_f.g"].data * 2.0
    assert backbone_hash(model) != h0


def test_model_config_rejects_a_negative_seed():
    with pytest.raises(ValueError):
        ModelConfig(n_regions=4, seed=-1)


def test_width_mismatch_rejected():
    mc = ModelConfig(n_regions=4, w=3, width=8)
    bc = BackboneConfig(mode="frozen-transformer", depth=1, width=16, heads=2)
    with pytest.raises(ValueError):
        build_model(mc, bc)
