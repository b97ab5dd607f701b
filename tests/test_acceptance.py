"""Release gate: ten checks, one test (and one pass/fail line) each, plus
one test that pins the protocol the grid runs.

The heavyweight checks read one session-scoped grid: `ovml sweep` on
experiments/distill.cfg (stage 1 at lambda_distill 0 and 1) and on
experiments/heads.cfg (both stages for each head mode) at seeds 0 1 2,
run unedited as two concurrent child processes with only the output
directory changed. Criteria 05 and 07 read the sweeps' sweep.csv; 06, 08
and 10 read the logs and checkpoints of the heads sweep's runs. The
module trains nothing itself, so the gate's numbers are rows of the same
sweeps anyone can run.
"""

import csv
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from ovml import cli
from ovml.cli import main
from ovml.config import parse_config
from ovml.gradcheck import run_suite
from ovml.heads import ScoreMatrix, score
from ovml.labels import retrieval_accuracy
from ovml.metrics import evaluate
from ovml.model import fixed_table, load_model, load_table, score_batch
from ovml.seeds import substream
from ovml.tensor_io import load_checkpoint

from test_heads import pair, table_of
from test_metrics import brute_force_ap, brute_force_prf, full_report, mats

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"
SWEEPS = ("distill", "heads")
SEEDS = (0, 1, 2)
K_EVAL = 3
HEAD_MODES = ("both", "global", "local")


class Sweep(NamedTuple):
    out: Path
    seconds: float

    def rows(self) -> dict[tuple[int, str], dict[str, float]]:
        """sweep.csv's metric columns by (seed, swept value)."""
        with open(self.out / "sweep.csv", newline="") as fh:
            reader = csv.reader(fh)
            columns = next(reader)[2:]
            return {(int(seed), value): dict(zip(columns, map(float, rest))) for seed, value, *rest in reader}


@pytest.fixture(scope="session")
def grid(tmp_path_factory):
    """Both experiment sweeps, started together; each one's wall time runs from the common start."""
    root = tmp_path_factory.mktemp("grid")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(EXPERIMENTS.parent / "src"), env.get("PYTHONPATH"))))
    start = time.perf_counter()
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-m", "ovml", "sweep", "--config", str(EXPERIMENTS / f"{name}.cfg"),
             "--out", str(root / name)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        for name in SWEEPS
    }
    sweeps = {}
    try:
        for name, proc in procs.items():
            _, err = proc.communicate(timeout=900)
            assert proc.returncode == 0, f"ovml sweep on {name}.cfg exited {proc.returncode}:\n{err}"
            sweeps[name] = Sweep(root / name, time.perf_counter() - start)
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    return sweeps


@cache
def _heads_test_split(seed: int):
    """The test split the heads sweep scores at `seed`, built by the sweep's own dataset builder."""
    _, point = parse_config(EXPERIMENTS / "heads.cfg").sweep_points()[0]
    return cli._datasets(replace(point, seed=seed))[1]


def _heads_run(grid, seed: int, mode: str) -> Path:
    return grid["heads"].out / f"seed_{seed}" / f"head_mode_{mode}"


def test_grid_protocol_is_pinned():
    """What the grid runs; an edit to either config fails here and is a gate change."""
    protocol = lambda p: (
        p.n_labels, p.seen_fraction, p.n_train, p.n_test, p.train.epochs_stage1, p.train.epochs_stage2,
        p.train.lambda_distill, p.model.head_mode,
    )
    got = {}
    for name in SWEEPS:
        cfg = parse_config(EXPERIMENTS / f"{name}.cfg")
        assert (cfg.sweep_seeds, cfg.k_list[0]) == (SEEDS, K_EVAL), name
        got[name] = {value: protocol(point) for value, point in cfg.sweep_points()}
    assert got == {
        "distill": {"0": (20, 0.8, 600, 200, 30, 0, 0.0, "both"), "1": (20, 0.8, 600, 200, 30, 0, 1.0, "both")},
        "heads": {mode: (20, 0.8, 600, 200, 30, 8, 1.0, mode) for mode in HEAD_MODES},
    }


def test_criterion_01_worked_example_ap_values():
    report = full_report(*mats())  # `evaluate`, as `ovml eval` runs it, over an all-seen GZSL split
    assert report.skipped_classes == []
    assert [round(a, 3) for a in report.ap] == [0.75, 0.75, 0.806, 0.639]
    assert report.map == pytest.approx(53 / 72, abs=1e-12)


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
        k = int(rng.integers(1, d + 1))
        report = full_report(s, g, (k,))

        want_map = np.mean([brute_force_ap(scores[:, j], y[:, j]) for j in range(d)])
        assert report.map == pytest.approx(want_map, abs=1e-10)
        np.testing.assert_allclose(report.prf_at_k[k], brute_force_prf(scores, y, k), atol=1e-10)


def test_criterion_05_distillation_lifts_zsl_map(grid):
    rows = grid["distill"].rows()
    gaps = []
    for seed in SEEDS:
        off, on = rows[seed, "0"], rows[seed, "1"]
        assert off["zsl_map"] > off["untrained_zsl_map"], (
            f"seed {seed}: lambda=0 mAP {off['zsl_map']:.4f} "
            f"not above untrained {off['untrained_zsl_map']:.4f}"
        )
        assert on["zsl_map"] > on["untrained_zsl_map"]
        gaps.append(on["zsl_map"] - off["zsl_map"])
    seconds = grid["distill"].seconds
    assert seconds < 300.0, f"the distill sweep took {seconds:.0f}s"
    mean_gap = float(np.mean(gaps))
    print(f"criterion 05 margin {mean_gap - 0.02!r}")
    assert mean_gap >= 0.02, f"distillation gap {mean_gap:.4f} below 2 points"


def test_criterion_06_stage2_freezes_weights_and_keeps_loss_down(grid):
    """Read from the checkpoints, independently of the program's own FrozenViolation check."""
    for seed in SEEDS:
        world = _heads_test_split(seed).world
        for mode in HEAD_MODES:
            run = _heads_run(grid, seed, mode)
            log = [json.loads(line) for line in (run / "train_log.jsonl").read_text().splitlines()]
            (loss,) = [record for record in log if record.get("event") == "full_rank_loss"]
            assert loss["end"] <= loss["start"], (
                f"seed {seed} {mode}: ranking loss rose {loss['start']:.6f} -> {loss['end']:.6f}"
            )
            before, after = (load_checkpoint(run / stage)[0] for stage in ("stage1", "stage2"))
            assert before.keys() == after.keys()
            for name in before:
                if name.startswith(("vit.", "heads.")):
                    assert before[name].tobytes() == after[name].tobytes(), f"seed {seed} {mode}: {name} changed"
            # a surrogate changed in training would have built a table a fresh world's surrogate cannot
            for stage in ("stage1", "stage2"):
                model, table = load_model(run / stage, world)
                assert fixed_table(model).matrix().tobytes() == table.matrix().tobytes(), (
                    f"seed {seed} {mode}: {stage} table is not the fresh surrogate's"
                )


def test_criterion_07_combined_heads_beat_single_heads(grid):
    rows = grid["heads"].rows()
    f1 = {mode: [rows[s, mode][f"gzsl_f1@{K_EVAL}"] for s in SEEDS] for mode in HEAD_MODES}
    assert np.isfinite(f1["global"] + f1["local"]).all()  # single-head runs evaluated successfully
    f_both, f_global, f_local = (float(np.mean(f1[mode])) for mode in HEAD_MODES)
    print(f"criterion 07 margin {min(f_both - f_global, f_both - f_local)!r}")
    assert f_both >= f_global, f"both {f_both:.4f} < global {f_global:.4f}"
    assert f_both >= f_local, f"both {f_both:.4f} < local {f_local:.4f}"


def test_criterion_08_zsl_ignores_seen_score_poisoning(grid):
    test = _heads_test_split(0)
    model, table = load_model(_heads_run(grid, 0, "both") / "stage2", test.world)
    scores = score_batch(model, test.images, table)
    gt, split = test.ground_truth(table.label_ids), test.world.split
    clean = evaluate(scores, gt, split, "ZSL", (K_EVAL,))
    poisoned = scores.scores.copy()
    seen_cols = [scores.label_ids.index(lid) for lid in split.seen]
    poisoned[:, seen_cols] = 1e12
    poisoned[::2, seen_cols] = -1e12
    dirty = evaluate(ScoreMatrix(scores=poisoned, label_ids=scores.label_ids), gt, split, "ZSL", (K_EVAL,))
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
        table, categories = load_table(_heads_run(grid, seed, "both") / "stage2")
        retrieval = retrieval_accuracy(table, categories, topn=K_EVAL)
        ids = table.label_ids
        same = [sum(categories[other] == categories[lid] for other in ids) - 1 for lid in ids]
        baseline = float(np.mean([n / (len(ids) - 1) for n in same]))
        assert retrieval > baseline, (
            f"seed {seed}: retrieval {retrieval:.4f} "
            f"not above uniform baseline {baseline:.4f}"
        )
