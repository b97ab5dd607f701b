"""Release gate: ten checks, one test (and one pass/fail line) each.

The heavyweight checks share a session-scoped grid of trained models:
per seed, a stage-1-only run without distillation, a full two-stage run
with it, and single-head variants. Building the grid takes a few
minutes of CPU; every criterion then reads from it.
"""

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from ovml.cli import main
from ovml.gradcheck import run_suite
from ovml.heads import ScoreMatrix, score
from ovml.labels import LabelSplit, retrieval_accuracy
from ovml.metrics import GroundTruthMatrix, evaluate, mean_ap, per_class_ap, topk_prf
from ovml.model import ModelConfig, fixed_table, init_model, score_batch
from ovml.seeds import substream
from ovml.synth import build_world, sample
from ovml.training import TrainConfig, frozen_params, run_stage1, run_stage2

from test_heads import pair, table_of
from test_metrics import brute_force_ap, brute_force_prf, mats

SEEDS = (0, 1, 2)
K_EVAL = 3
STAGE1_EPOCHS = 30
STAGE2_EPOCHS = 8


def _silent(record):
    pass


def _param_hashes(model):
    """Digest of every tensor that stage 2 must not touch."""
    return {name: hashlib.sha256(t.data.tobytes()).hexdigest() for name, t in frozen_params(model).items()}


def _report(model, table, test_ds, mode):
    scores = score_batch(model, test_ds.images, table)
    gt = test_ds.ground_truth(table.label_ids)
    return evaluate(scores, gt, test_ds.world.split, mode, (K_EVAL,)), scores


@dataclass
class SeedOutcome:
    untrained_zsl: float
    zsl_lambda0: float
    zsl_lambda1: float
    stage1_seconds: float
    stage2_start: float
    stage2_end: float
    hashes_match: bool
    f1_both: float
    f1_global: float
    f1_local: float
    retrieval: float
    baseline: float
    scores_stage2: ScoreMatrix
    gt: GroundTruthMatrix
    split: LabelSplit


def _run_seed(seed: int) -> SeedOutcome:
    world = build_world(20, 0.8, seed)
    train_ds = sample(world, 600, world.split.seen, seed, stream="sample.train")
    test_ds = sample(world, 200, world.split.all_ids, seed, stream="sample.test")

    untrained = init_model(seed, world)
    untrained_rep, _ = _report(untrained, fixed_table(untrained), test_ds, "ZSL")

    t0 = time.perf_counter()
    m0 = init_model(seed, world)
    run_stage1(
        m0,
        train_ds,
        TrainConfig(lambda_distill=0.0, epochs_stage1=STAGE1_EPOCHS, epochs_stage2=0),
        seed,
        _silent,
    )
    zsl0, _ = _report(m0, fixed_table(m0), test_ds, "ZSL")

    m1 = init_model(seed, world)
    cfg1 = TrainConfig(
        lambda_distill=1.0, epochs_stage1=STAGE1_EPOCHS, epochs_stage2=STAGE2_EPOCHS
    )
    run_stage1(m1, train_ds, cfg1, seed, _silent)
    stage1_seconds = time.perf_counter() - t0
    zsl1, _ = _report(m1, fixed_table(m1), test_ds, "ZSL")

    hashes_before = _param_hashes(m1)
    start, end = run_stage2(m1, train_ds, cfg1, seed, _silent)
    hashes_match = _param_hashes(m1) == hashes_before

    tuned = fixed_table(m1, provenance="tuned")
    gzsl_both, scores_stage2 = _report(m1, tuned, test_ds, "GZSL")
    retrieval = retrieval_accuracy(tuned, m1.categories, topn=K_EVAL)

    d = len(world.split.all_ids)
    sizes = {lid: sum(1 for c in world.categories.values() if c == world.categories[lid])
             for lid in world.split.all_ids}
    baseline = float(np.mean([(sizes[lid] - 1) / (d - 1) for lid in world.split.all_ids]))

    single = {}
    for mode in ("global", "local"):
        m = init_model(seed, world, ModelConfig(head_mode=mode))
        run_stage1(m, train_ds, cfg1, seed, _silent)
        run_stage2(m, train_ds, cfg1, seed, _silent)
        rep, _ = _report(m, fixed_table(m, provenance="tuned"), test_ds, "GZSL")
        single[mode] = rep.prf_at_k[K_EVAL][2]

    return SeedOutcome(
        untrained_zsl=untrained_rep.map,
        zsl_lambda0=zsl0.map,
        zsl_lambda1=zsl1.map,
        stage1_seconds=stage1_seconds,
        stage2_start=start,
        stage2_end=end,
        hashes_match=hashes_match,
        f1_both=gzsl_both.prf_at_k[K_EVAL][2],
        f1_global=single["global"],
        f1_local=single["local"],
        retrieval=retrieval,
        baseline=baseline,
        scores_stage2=scores_stage2,
        gt=test_ds.ground_truth(),
        split=world.split,
    )


@pytest.fixture(scope="session")
def grid():
    return {seed: _run_seed(seed) for seed in SEEDS}


def test_criterion_01_worked_example_ap_values():
    s, g = mats()
    per_class, skipped = per_class_ap(s, g)
    assert skipped == []
    assert [round(a, 3) for a in per_class] == [0.75, 0.75, 0.806, 0.639]
    assert mean_ap(s, g) == pytest.approx(53 / 72, abs=1e-12)


def test_criterion_02_gradient_suite_covers_all_ops_under_budget():
    t0 = time.perf_counter()
    results = run_suite()
    elapsed = time.perf_counter() - t0
    names = {r.name for r in results}
    required = {
        "matmul", "softmax_rows", "layer_norm", "gelu", "topk_mean", "msa",
        "vit_forward", "two_stream", "score", "ranking_loss", "distill_loss",
        "text_surrogate_encode", "stage1_loss", "stage2_loss",
    }
    assert required <= names
    for r in results:
        assert r.ok, r.line()
        assert r.instances >= 20, r.line()
        assert r.worst <= 1e-4, r.line()
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_03_topk_with_full_k_is_mean_pooling():
    rng = substream(0, "acceptance.kfull")
    for _ in range(30):
        n, d, dim = int(rng.integers(2, 12)), int(rng.integers(1, 8)), int(rng.integers(2, 6))
        e_cls = rng.normal(0, 1, dim)
        e_patch = rng.normal(0, 1, (n, dim))
        z = rng.normal(0, 1, (d, dim))
        emb = pair(e_cls, e_patch)
        t = table_of(z)
        mean_pool = (e_patch @ z.T).mean(axis=0)
        np.testing.assert_allclose(
            score(emb, t, k=n, heads="local").data[0], mean_pool, atol=1e-12
        )
        np.testing.assert_allclose(
            score(emb, t, k=n, heads="both").data[0], z @ e_cls + mean_pool, atol=1e-12
        )


def test_criterion_04_metrics_match_brute_force_on_100_matrices():
    rng = substream(0, "acceptance.bruteforce")
    for _ in range(100):
        b = int(rng.integers(2, 51))
        d = int(rng.integers(2, 21))
        scores = rng.normal(0, 1, (b, d))
        y = rng.integers(0, 2, (b, d))
        y[int(rng.integers(0, b))] = 1  # keep every class evaluable
        s, g = mats(scores, y, ids=range(d))

        want_map = np.mean([brute_force_ap(scores[:, j], y[:, j]) for j in range(d)])
        assert mean_ap(s, g) == pytest.approx(want_map, abs=1e-10)

        k = int(rng.integers(1, d + 1))
        np.testing.assert_allclose(
            topk_prf(s, g, k), brute_force_prf(scores, y, k), atol=1e-10
        )


def test_criterion_05_distillation_lifts_zsl_map(grid):
    gaps = []
    for seed in SEEDS:
        o = grid[seed]
        assert o.zsl_lambda0 > o.untrained_zsl, (
            f"seed {seed}: lambda=0 mAP {o.zsl_lambda0:.4f} "
            f"not above untrained {o.untrained_zsl:.4f}"
        )
        assert o.zsl_lambda1 > o.untrained_zsl
        assert o.stage1_seconds < 300.0, f"seed {seed} took {o.stage1_seconds:.0f}s"
        gaps.append(o.zsl_lambda1 - o.zsl_lambda0)
    mean_gap = float(np.mean(gaps))
    assert mean_gap >= 0.02, f"distillation gap {mean_gap:.4f} below 2 points"


def test_criterion_06_stage2_freezes_weights_and_keeps_loss_down(grid):
    for seed in SEEDS:
        o = grid[seed]
        assert o.hashes_match, f"seed {seed}: a frozen parameter changed in stage 2"
        assert o.stage2_end <= o.stage2_start, (
            f"seed {seed}: ranking loss rose {o.stage2_start:.6f} -> {o.stage2_end:.6f}"
        )


def test_criterion_07_combined_heads_beat_single_heads(grid):
    f_both = float(np.mean([grid[s].f1_both for s in SEEDS]))
    f_global = float(np.mean([grid[s].f1_global for s in SEEDS]))
    f_local = float(np.mean([grid[s].f1_local for s in SEEDS]))
    for s in SEEDS:  # single-head runs evaluated successfully
        assert np.isfinite(grid[s].f1_global) and np.isfinite(grid[s].f1_local)
    assert f_both >= f_global, f"both {f_both:.4f} < global {f_global:.4f}"
    assert f_both >= f_local, f"both {f_both:.4f} < local {f_local:.4f}"


def test_criterion_08_zsl_ignores_seen_score_poisoning(grid):
    o = grid[0]
    clean = evaluate(o.scores_stage2, o.gt, o.split, "ZSL", (K_EVAL,))
    poisoned = o.scores_stage2.scores.copy()
    seen_cols = [o.scores_stage2.label_ids.index(lid) for lid in o.split.seen]
    poisoned[:, seen_cols] = 1e12
    poisoned[::2, seen_cols] = -1e12
    dirty = evaluate(
        ScoreMatrix(scores=poisoned, label_ids=o.scores_stage2.label_ids),
        o.gt, o.split, "ZSL", (K_EVAL,),
    )
    assert clean.to_json() == dirty.to_json()


def test_criterion_09_full_pipeline_is_byte_reproducible(tmp_path):
    reports = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(
            "seed=5\nn_labels=12\nseen_fraction=0.75\nn_train=60\nn_test=40\n"
            "epochs_stage1=3\nepochs_stage2=2\nbatch_size=12\n"
            f"out_dir={out}\ncheckpoint={out}/stage2\n"
        )
        assert main(["gen", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["eval", "--config", str(cfg)]) == 0
        reports[tag] = {
            name: (out / name).read_bytes()
            for name in (
                "report_zsl.json", "report_zsl.txt",
                "report_gzsl.json", "report_gzsl.txt",
            )
        }
    assert reports["a"] == reports["b"]
    payload = json.loads(reports["a"]["report_zsl.json"])
    assert 0.0 <= payload["mAP"] <= 1.0


def test_criterion_10_retrieval_beats_uniform_baseline(grid):
    for seed in SEEDS:
        o = grid[seed]
        assert o.retrieval > o.baseline, (
            f"seed {seed}: retrieval {o.retrieval:.4f} "
            f"not above uniform baseline {o.baseline:.4f}"
        )
