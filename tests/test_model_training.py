"""Model assembly, checkpointing, and the two training stages.

Uses a reduced world (12 labels, 24 images) so each training test stays
under a second; the desk-scale configuration is exercised by the
acceptance suite.
"""

import json
import traceback

import numpy as np
import pytest

from ovml.model import (
    BadCheckpoint,
    ModelConfig,
    encode,
    fixed_table,
    init_model,
    live_table,
    load_model,
    load_table,
    save_model,
    score_batch,
)
from ovml.synth import SynthConfig, build_world, sample
from ovml.tensor_io import directory_digest, write_tensor
from ovml.training import (
    FrozenViolation,
    NonFiniteLoss,
    TrainConfig,
    _stage1_params,
    run_stage1,
    run_stage2,
    train,
)

from test_io import assert_read_once, assert_writable_aligned, count_reads, reseal, rewrite_after_hashing

QUICK = TrainConfig(epochs_stage1=2, epochs_stage2=2, batch_size=8)


@pytest.fixture(scope="module")
def world():
    return build_world(12, 0.75, 0, SynthConfig())


@pytest.fixture(scope="module")
def dataset(world):
    return sample(world, 24, world.split.seen, seed=0, stream="sample.train")


def silent(record):
    pass


def test_init_model_is_seed_deterministic(world):
    a = init_model(3, world)
    b = init_model(3, world)
    c = init_model(4, world)
    for name, t in a.named_params().items():
        np.testing.assert_array_equal(t.data, b.named_params()[name].data)
    assert not np.array_equal(
        a.vit.patch_proj.data, c.vit.patch_proj.data
    )


def test_encode_and_score_shapes(world, dataset):
    model = init_model(0, world)
    emb = encode(model, dataset.images[0])
    assert emb.e_cls.shape == (1, world.config.embed_dim)
    assert emb.e_patch.shape == (world.config.n_patches, world.config.embed_dim)

    table = fixed_table(model)
    sm = score_batch(model, dataset.images[:5], table)
    assert sm.scores.shape == (5, 12)
    assert np.isfinite(sm.scores).all()
    assert sm.label_ids == world.split.all_ids


def test_fixed_table_snapshots_live_values(world):
    model = init_model(0, world)
    np.testing.assert_array_equal(
        fixed_table(model).matrix(), live_table(model).matrix()
    )
    assert not fixed_table(model).z.requires_grad


def test_save_load_round_trip(world, dataset, tmp_path):
    model = init_model(1, world, ModelConfig(k=2, head_mode="both"))
    table = fixed_table(model)
    save_model(tmp_path / "ck", model, table)

    back, back_table = load_model(tmp_path / "ck", world)
    for name, t in model.named_params().items():
        np.testing.assert_array_equal(t.data, back.named_params()[name].data)
    assert back.config == model.config
    np.testing.assert_array_equal(back_table.matrix(), table.matrix())

    a = score_batch(model, dataset.images[:4], table)
    b = score_batch(back, dataset.images[:4], back_table)
    np.testing.assert_array_equal(a.scores, b.scores)


def test_load_model_parses_the_bytes_its_check_hashed(world, tmp_path, monkeypatch):
    # a weight rewritten, same shape and finite, after the check hashed it: the checked values load
    model = init_model(1, world)
    save_model(tmp_path / "ck", model, fixed_table(model))
    weight = model.streams.global_w.data
    rewrite_after_hashing(monkeypatch, tmp_path / "ck" / "heads.global_w.mkt1", weight + 1.0)
    opened = count_reads(monkeypatch)
    back, _ = load_model(tmp_path / "ck", world)
    np.testing.assert_array_equal(back.streams.global_w.data, weight)
    assert_read_once(opened, tmp_path / "ck")
    for t in back.named_params().values():
        assert_writable_aligned(t.data)


def test_load_table_needs_no_world(world, tmp_path):
    model = init_model(1, world)
    save_model(tmp_path / "ck", model, fixed_table(model))
    table, cats = load_table(tmp_path / "ck")
    assert table.label_ids == world.split.all_ids
    assert cats == world.categories


def test_load_model_rejects_wrong_world(world, tmp_path):
    model = init_model(1, world)
    save_model(tmp_path / "ck", model, fixed_table(model))
    other = build_world(16, 0.75, 9, SynthConfig())
    with pytest.raises(BadCheckpoint):
        load_model(tmp_path / "ck", other)


def test_load_model_rejects_nonfinite_weights(world, tmp_path):
    model = init_model(1, world)
    save_model(tmp_path / "ck", model, fixed_table(model))
    bad = model.streams.global_w.data.copy()
    bad[0, 0] = np.inf
    write_tensor(tmp_path / "ck" / "heads.global_w.mkt1", bad)
    reseal(tmp_path / "ck")  # reach the finiteness check behind the digests
    with pytest.raises(BadCheckpoint, match="non-finite"):
        load_model(tmp_path / "ck", world)


def test_zero_epoch_training_preserves_initialization(world, dataset, tmp_path):
    model = init_model(2, world)
    save_model(tmp_path / "init_fixed", model, fixed_table(model))
    save_model(tmp_path / "init_tuned", model, fixed_table(model, provenance="tuned"))

    cfg = TrainConfig(epochs_stage1=0, epochs_stage2=0)
    paths = train(model, dataset, cfg, seed=2, out_dir=tmp_path / "run")
    assert directory_digest(paths["stage1"]) == directory_digest(tmp_path / "init_fixed")
    assert directory_digest(paths["stage2"]) == directory_digest(tmp_path / "init_tuned")


def test_lambda_zero_ignores_the_teacher(world, dataset):
    cfg = TrainConfig(lambda_distill=0.0, epochs_stage1=1, epochs_stage2=0, batch_size=8)
    a = init_model(5, world)
    run_stage1(a, dataset, cfg, seed=5, log=silent)

    scrambled = sample(world, 24, world.split.seen, seed=0, stream="sample.train")
    scrambled.teacher = scrambled.teacher[::-1].copy()
    b = init_model(5, world)
    run_stage1(b, scrambled, cfg, seed=5, log=silent)

    for name, t in a.named_params().items():
        np.testing.assert_array_equal(t.data, b.named_params()[name].data)


def test_lambda_positive_consults_the_teacher(world, dataset):
    cfg = TrainConfig(lambda_distill=1.0, epochs_stage1=1, epochs_stage2=0, batch_size=8)
    a = init_model(5, world)
    run_stage1(a, dataset, cfg, seed=5, log=silent)

    scrambled = sample(world, 24, world.split.seen, seed=0, stream="sample.train")
    scrambled.teacher = scrambled.teacher[::-1].copy()
    b = init_model(5, world)
    run_stage1(b, scrambled, cfg, seed=5, log=silent)

    assert not np.array_equal(a.streams.global_w.data, b.streams.global_w.data)


def test_stage1_param_selection_follows_head_mode(world):
    both = _stage1_params(init_model(0, world), TrainConfig(lambda_distill=0.0))
    assert any(".local_" in n for n in both) and any(".global_" in n for n in both)

    g_only = _stage1_params(
        init_model(0, world, ModelConfig(head_mode="global")), TrainConfig(lambda_distill=0.0)
    )
    assert not any(".local_" in n for n in g_only)

    l_only = _stage1_params(
        init_model(0, world, ModelConfig(head_mode="local")), TrainConfig(lambda_distill=0.0)
    )
    assert not any(".global_" in n for n in l_only)
    # distillation reads the global embedding, so lambda > 0 pulls the
    # global head back in even in local mode
    l_dist = _stage1_params(
        init_model(0, world, ModelConfig(head_mode="local")), TrainConfig(lambda_distill=0.5)
    )
    assert any(".global_" in n for n in l_dist)
    assert "prompt.context" not in both  # prompt trains only in stage 2


def test_stage1_updates_model_weights(world, dataset):
    model = init_model(6, world)
    before = model.vit.patch_proj.data.copy()
    run_stage1(model, dataset, QUICK, seed=6, log=silent)
    assert not np.array_equal(before, model.vit.patch_proj.data)


def test_stage2_moves_only_the_prompt(world, dataset):
    model = init_model(7, world)
    run_stage1(model, dataset, QUICK, seed=7, log=silent)
    frozen_before = {
        name: t.data.copy()
        for name, t in {**model.vit.named("vit"), **model.streams.named("heads")}.items()
    }
    surrogate_before = {n: t.data.copy() for n, t in model.surrogate.named().items()}
    prompt_before = model.prompt.data.copy()

    start, end = run_stage2(model, dataset, QUICK, seed=7, log=silent)

    for name, arr in frozen_before.items():
        np.testing.assert_array_equal(arr, model.named_params()[name].data)
    for name, arr in surrogate_before.items():
        np.testing.assert_array_equal(arr, model.surrogate.named()[name].data)
    assert not np.array_equal(prompt_before, model.prompt.data)
    assert end <= start  # tuning must not hurt the training objective
    assert start > 0.0


def test_stage2_detects_frozen_violation(world, dataset):
    model = init_model(7, world)

    def sabotage(record):
        model.streams.global_w.data[0, 0] += 1.0

    with pytest.raises(FrozenViolation):
        run_stage2(model, dataset, QUICK, seed=7, log=sabotage)


def test_huge_learning_rate_raises_nonfinite(world, dataset):
    model = init_model(8, world)
    cfg = TrainConfig(lr_stage1=1e150, epochs_stage1=3, epochs_stage2=0, batch_size=8)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteLoss):
        run_stage1(model, dataset, cfg, seed=8, log=silent)


def test_overflow_in_a_vit_block_stops_stage1_at_its_first_step(world, dataset):
    model = init_model(8, world)
    block = model.vit.blocks[0]
    block.mlp_b1.data[...] = 10.0  # gelu(10) = 10, so the block's MLP output overflows
    block.mlp_w2.data[...] = 1e308
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteLoss) as excinfo:
        run_stage1(model, dataset, QUICK, seed=8, log=silent)
    assert str(excinfo.value) == "stage 1 epoch 0 step 0: tensor holds NaN/Inf values"
    frames = [frame.name for frame in traceback.extract_tb(excinfo.value.__cause__.__traceback__)]
    assert frames[-3:] == ["encoder_block", "_result", "__init__"]


def test_train_writes_deterministic_artifacts(world, dataset, tmp_path):
    cfg = TrainConfig(epochs_stage1=1, epochs_stage2=1, batch_size=12)
    p1 = train(init_model(9, world), dataset, cfg, seed=9, out_dir=tmp_path / "a")
    p2 = train(init_model(9, world), dataset, cfg, seed=9, out_dir=tmp_path / "b")

    assert (tmp_path / "a" / "train_log.jsonl").read_bytes() == (
        tmp_path / "b" / "train_log.jsonl"
    ).read_bytes()
    assert directory_digest(p1["stage1"]) == directory_digest(p2["stage1"])
    assert directory_digest(p1["stage2"]) == directory_digest(p2["stage2"])
    assert directory_digest(p1["stage1"]) != directory_digest(p1["stage2"])
    # the digests the writes return are those a reader recomputes from disk
    assert p1["digests"] == {stage: directory_digest(p1[stage]) for stage in ("stage1", "stage2")}

    records = [json.loads(line) for line in (tmp_path / "a" / "train_log.jsonl").read_text().splitlines()]
    stages = {r["stage"] for r in records}
    assert stages == {1, 2}
    assert all("time" not in r and "timestamp" not in r for r in records)
    # stage-2 summary line records the full-dataset loss endpoints; at
    # this toy scale the loss may wobble at float precision, so the
    # strict non-increase requirement lives in the acceptance suite
    summary = [r for r in records if r.get("event") == "full_rank_loss"]
    assert len(summary) == 1
    assert summary[0]["end"] <= summary[0]["start"] + 1e-6


def test_lambda_zero_still_logs_distillation(world, dataset, tmp_path):
    cfg = TrainConfig(lambda_distill=0.0, epochs_stage1=1, epochs_stage2=0, batch_size=12)
    train(init_model(10, world), dataset, cfg, seed=10, out_dir=tmp_path / "r")
    records = [
        json.loads(line)
        for line in (tmp_path / "r" / "train_log.jsonl").read_text().splitlines()
    ]
    s1 = [r for r in records if r.get("stage") == 1]
    assert s1 and all(r["loss_dist"] is not None and r["loss_dist"] > 0 for r in s1)


def test_checkpoint_loads_back_into_equal_scores(world, dataset, tmp_path):
    model = init_model(11, world)
    run_stage1(model, dataset, QUICK, seed=11, log=silent)
    table = fixed_table(model)
    save_model(tmp_path / "ck", model, table)
    back, back_table = load_model(tmp_path / "ck", world)
    np.testing.assert_array_equal(
        score_batch(model, dataset.images[:6], table).scores,
        score_batch(back, dataset.images[:6], back_table).scores,
    )


def test_config_validation(world):
    with pytest.raises(ValueError):
        ModelConfig(head_mode="wide")
    with pytest.raises(ValueError):
        ModelConfig(k=0)
    with pytest.raises(ValueError):
        TrainConfig(lambda_distill=-0.5)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs_stage1=-1)
