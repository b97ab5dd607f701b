"""Config parsing and the operator commands, end to end on a tiny world.

Every command runs in-process through main(argv) so the asserted return
values are exactly the process exit codes.
"""

import errno
import importlib
import os
import pkgutil
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ovml
from ovml import cli
from ovml.cli import main
from ovml.config import (
    _KINDS,
    ConfigError,
    RunConfig,
    parse_config,
    parse_config_text,
    resolved_text,
    write_resolved,
)
from ovml.gradcheck import CHECKS, CheckResult, run_suite
from ovml.metrics import evaluate
from ovml.model import ModelConfig, fixed_table, init_model, load_table, score_batch
from ovml.synth import SynthConfig, build_world, read_dataset, sample, write_dataset
from ovml.training import TrainConfig, run_stage1, run_stage2
from ovml.tensor_io import directory_digest, read_tensor, write_tensor

from test_io import reseal
from test_labels import per_query_accuracy, per_query_retrieve

TINY = """
# quick world for command tests
seed=3
n_labels=12
seen_fraction=0.75
n_train=24
n_test=12
epochs_stage1=2
epochs_stage2=1
batch_size=12
sweep_values=0.0 1.0
"""


def tiny(**overrides):
    base = {
        "seed": 3, "n_labels": 12, "seen_fraction": 0.75, "n_train": 24,
        "n_test": 12, "epochs_stage1": 2, "epochs_stage2": 1,
        "batch_size": 12, "sweep_values": "0.0 1.0",
    }
    base.update(overrides)
    return "".join(f"{k}={v}\n" for k, v in base.items())


class TestConfigParsing:
    def test_round_trip_through_resolved_text(self):
        cfg = parse_config_text(TINY)
        assert cfg.n_labels == 12
        assert cfg.seen_fraction == 0.75
        assert cfg.sweep_values == ("0.0", "1.0")  # words; the swept key's kind converts each
        again = parse_config_text(resolved_text(cfg))
        assert again == cfg

    def test_empty_sweep_values_parse(self):
        # only `ovml sweep` needs a value; other commands ignore the key
        assert parse_config_text("sweep_values=\n").sweep_values == ()

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("\n# note\nseed=9   # trailing\n\n")
        assert cfg.seed == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("seeed=1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed=1\nseed=2")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_text("seed=fast")
        with pytest.raises(ConfigError):
            parse_config_text("task=All")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text("just some words")

    def test_tuple_values_accept_commas_and_spaces(self):
        assert parse_config_text("k_list=1,2 3").k_list == (1, 2, 3)

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).parents[1] / "experiments").glob("*.cfg")), ids=lambda p: p.stem
    )
    def test_experiment_configs_parse(self, path):
        cfg = parse_config(path)
        assert cfg.sweep_seeds == (0, 1, 2)
        assert len(cfg.sweep_points()) == len(cfg.sweep_values) > 1

    def test_write_resolved_parses_back(self, tmp_path):
        cfg = RunConfig(seed=4, k_list=(1, 5), synth=SynthConfig(sigma=0.125))
        path = write_resolved(cfg, tmp_path)
        assert path.name == "config.resolved.txt"
        assert parse_config_text(path.read_text()) == cfg

    def test_write_resolved_writes_utf8(self, tmp_path):
        cfg = RunConfig(out_dir="runs/ünïcode")
        path = write_resolved(cfg, tmp_path)
        assert path.read_bytes() == resolved_text(cfg).encode("utf-8")
        assert parse_config(path) == cfg


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset + trained checkpoint shared by command tests."""
    root = tmp_path_factory.mktemp("cliws")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(TINY + f"out_dir={root}/out\n")
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    return root, cfg_path


def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.cfg"
    a.write_text(TINY + f"out_dir={tmp_path}/a\n")
    b = tmp_path / "b.cfg"
    b.write_text(TINY + f"out_dir={tmp_path}/b\n")
    assert main(["gen", "--config", str(a)]) == 0
    out_a = capsys.readouterr().out
    assert main(["gen", "--config", str(b)]) == 0
    out_b = capsys.readouterr().out
    hashes = lambda s: [l.split()[-1] for l in s.splitlines() if "hash" in l]
    assert hashes(out_a) == hashes(out_b)
    assert len(hashes(out_a)) == 2


def test_train_emits_checkpoints_and_log(workspace, capsys):
    root, cfg_path = workspace
    # workspace already trained; verify artifacts exist and rerunning is stable
    assert (root / "out" / "stage1" / "meta.txt").is_file()
    assert (root / "out" / "stage2" / "meta.txt").is_file()
    assert (root / "out" / "train_log.jsonl").is_file()
    assert (root / "out" / "config.resolved.txt").is_file()


def test_eval_writes_reports(workspace, capsys):
    root, cfg_path = workspace
    cfg2 = root / "eval.cfg"
    cfg2.write_text(
        TINY + f"out_dir={root}/out\ncheckpoint={root}/out/stage2\n"
    )
    assert main(["eval", "--config", str(cfg2)]) == 0
    out = capsys.readouterr().out
    assert "ZSL_mAP" in out and "GZSL_mAP" in out
    for mode in ("zsl", "gzsl"):
        assert (root / "out" / f"report_{mode}.json").is_file()
        assert (root / "out" / f"report_{mode}.txt").is_file()


def test_eval_requires_checkpoint_key(workspace, capsys):
    root, cfg_path = workspace
    assert main(["eval", "--config", str(cfg_path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_retrieve_reports_neighbors(workspace, capsys):
    root, cfg_path = workspace
    cfg2 = root / "ret.cfg"
    cfg2.write_text(TINY + f"out_dir={root}/ret\ncheckpoint={root}/out/stage1\ntopn=2\n")
    assert main(["retrieve", "--config", str(cfg2)]) == 0
    assert "category accuracy" in capsys.readouterr().out
    lines = (root / "ret" / "retrieval.txt").read_text().splitlines()
    assert lines[-1].startswith("category_accuracy\t")
    assert len(lines) == 12 + 1  # one per label plus the summary
    for line in lines[:-1]:
        lid, neighbors = line.split("\t")
        assert lid not in neighbors.split()
    # the bytes of one per-query ranking per label and a retrieval_accuracy of one more ranking per label
    table, categories = load_table(root / "out" / "stage1")
    want = [f"{lid}\t" + " ".join(map(str, per_query_retrieve(lid, table, 2))) for lid in table.label_ids]
    want.append(f"category_accuracy\t{per_query_accuracy(table, categories, 2)!r}")
    assert (root / "ret" / "retrieval.txt").read_text() == "\n".join(want) + "\n"


def test_sweep_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        tiny(out_dir=f"{tmp_path}/sw", sweep_axis="lambda_distill", n_train=16,
             n_test=8, epochs_stage1=1, epochs_stage2=0)
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    rows = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "seed,lambda_distill,untrained_zsl_map,zsl_map,gzsl_map,gzsl_f1@3"
    assert len(rows) == 3  # header + one per sweep value
    for row in rows[1:]:
        seed, axis, *values = row.split(",")
        assert seed == "3"
        assert all(0.0 <= float(v) <= 1.0 for v in values)
    for name in ("lambda_distill_0", "lambda_distill_1"):
        assert (tmp_path / "sw" / "seed_3" / name / "stage2" / "meta.txt").is_file()
    assert capsys.readouterr().out.splitlines()[-2].startswith("mean lambda_distill=0 untrained_zsl_map ")


def _direct_sweep_row(seed, sigma=0.1, head_mode="both", lambda_distill=1.0, lr_stage2=3e-5):
    """One sweep cell computed by direct calls: the world, both stages and scoring in memory."""
    world = build_world(20, 0.8, seed, SynthConfig(sigma=sigma))
    train_ds = sample(world, 16, world.split.seen, seed, stream="sample.train")
    test_ds = sample(world, 12, world.split.all_ids, seed, stream="sample.test")
    cfg = TrainConfig(
        lambda_distill=lambda_distill, lr_stage2=lr_stage2, epochs_stage1=2, epochs_stage2=1, batch_size=16
    )

    def scored(model, table):
        scores = score_batch(model, test_ds.images, table)
        gt = test_ds.ground_truth(table.label_ids)
        return lambda mode, ks: evaluate(scores, gt, world.split, mode, ks)

    untrained = init_model(seed, world, ModelConfig(head_mode=head_mode))
    model = init_model(seed, world, ModelConfig(head_mode=head_mode))
    run_stage1(model, train_ds, cfg, seed, lambda record: None)
    run_stage2(model, train_ds, cfg, seed, lambda record: None)
    after = scored(model, fixed_table(model, provenance="tuned"))
    gzsl = after("GZSL", (3,))
    return [
        scored(untrained, fixed_table(untrained))("ZSL", ()).map,
        after("ZSL", ()).map, gzsl.map, gzsl.prf_at_k[3][2],
    ]


# sigma sweeps the world itself, so each value needs its own datasets: neither value is the default 0.1
@pytest.mark.parametrize(
    "axis, values, setting",
    [
        ("lambda_distill", "0 1", lambda v: {"lambda_distill": float(v)}),
        ("head_mode", "global both", lambda v: {"head_mode": v}),
        ("sigma", "0.05 0.3", lambda v: {"sigma": float(v)}),
        ("lr_stage2", "0.003 0.3", lambda v: {"lr_stage2": float(v)}),
    ],
    ids=["lambda_distill", "head_mode", "sigma", "lr_stage2"],
)
def test_sweep_rows_equal_direct_calls(tmp_path, capsys, axis, values, setting):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(tiny(
        out_dir=f"{tmp_path}/sw", n_labels=20, seen_fraction=0.8, n_train=16, n_test=12,
        epochs_stage1=2, epochs_stage2=1, batch_size=16, sweep_axis=axis, sweep_values=values,
        sweep_seeds="0 1",
    ))
    assert main(["sweep", "--config", str(cfg)]) == 0
    rows = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [[s, v] for s in "01" for v in values.split()]
    for row in rows:
        seed, value, *got = row.split(",")
        assert got == [repr(x) for x in _direct_sweep_row(int(seed), **setting(value))]
    # each value trains its own model, even where the metrics cannot tell (stage 2 moves no rank here)
    for seed in "01":
        runs = [tmp_path / "sw" / f"seed_{seed}" / f"{axis}_{value}" / "stage2" for value in values.split()]
        assert len({directory_digest(run) for run in runs}) == len(runs)


# the untrained model depends on the seed's data and the model settings, not on the training keys
@pytest.mark.parametrize(
    "axis, values, baselines",
    [("lambda_distill", "0 0.5 1", 2), ("head_mode", "global local both", 6)],
    ids=["lambda_distill", "head_mode"],
)
def test_sweep_scores_each_untrained_baseline_once(tmp_path, monkeypatch, capsys, axis, values, baselines):
    events = []
    for name in ("_untrained_zsl_map", "train"):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, _f=original, _n=name: events.append(_n) or _f(*args))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(tiny(out_dir=f"{tmp_path}/sw", n_train=16, n_test=8, epochs_stage1=1, epochs_stage2=0,
                        sweep_axis=axis, sweep_values=values, sweep_seeds="0 1"))
    assert main(["sweep", "--config", str(cfg)]) == 0
    # every baseline is scored before the first run trains
    assert events == ["_untrained_zsl_map"] * baselines + ["train"] * 2 * len(values.split())
    rows = [row.split(",") for row in (tmp_path / "sw" / "sweep.csv").read_text().splitlines()[1:]]
    assert len({(seed, untrained) for seed, _, untrained, *_ in rows}) == baselines


def test_missing_config_file_is_usage_error(capsys):
    assert main(["gen", "--config", "/nonexistent/x.cfg"]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "make,reason",
    [
        (lambda p: p.write_bytes(b"seed=0\nout_dir=\xff\xfe\n"),
         "cannot be read: 'utf-8' codec can't decode byte 0xff in position 15: invalid start byte"),
        (lambda p: p.mkdir(), "is not a file"),
        (lambda p: None, "does not exist"),
    ],
    ids=["undecodable", "directory", "missing"],
)
def test_unreadable_config_is_a_one_line_config_error(tmp_path, monkeypatch, capsys, make, reason):
    monkeypatch.chdir(tmp_path)
    make(tmp_path / "bad.cfg")
    before = sorted(tmp_path.iterdir())
    assert main(["gen", "--config", "bad.cfg"]) == 1
    assert capsys.readouterr().err == f"config error: config file bad.cfg {reason}\n"
    assert sorted(tmp_path.iterdir()) == before


def test_bad_argv_is_usage_error(capsys):
    for argv in (["frobnicate"], [], ["train", "--seed", "x"]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1, (argv, err)
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ovml")


def test_train_without_dataset_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY + f"out_dir={tmp_path}/none\n")
    assert main(["train", "--config", str(cfg)]) == 1
    capsys.readouterr()


def test_divergent_training_exits_two(workspace, tmp_path, capsys, recwarn):
    root, _ = workspace
    cfg2 = tmp_path / "diverge.cfg"
    cfg2.write_text(tiny(
        out_dir=f"{tmp_path}/out", dataset_dir=f"{root}/out/dataset", lr_stage1="1e150", epochs_stage1=3
    ))
    assert main(["train", "--config", str(cfg2)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_gen_whose_pixels_overflow_exits_two(tmp_path, capsys):
    # a finite sigma whose noise overflows to inf: the teacher's patches refuse it, not the config check
    cfg = tmp_path / "run.cfg"
    cfg.write_text(tiny(out_dir=f"{tmp_path}/out", sigma="1e308"))
    assert main(["gen", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "numerical failure: tensor holds NaN/Inf values\n"
    assert not (tmp_path / "out").exists()


def test_gen_whose_label_norms_overflow_exits_two(tmp_path, capsys):
    # finite tokens near 1e160 whose squares overflow: the surrogate's layer norm refuses them,
    # where an all-zero label table and prototypes were written before
    cfg = tmp_path / "run.cfg"
    cfg.write_text(tiny(out_dir=f"{tmp_path}/out", n_labels=8, n_categories=2, token_jitter="1e160"))
    assert main(["gen", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "numerical failure: layer_norm variance overflows float64\n"
    assert not (tmp_path / "out").exists()


def test_update_that_overflows_a_weight_stops_before_the_checkpoint(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(tiny(
        out_dir=f"{tmp_path}/out", n_train=8, batch_size=8, epochs_stage1=1, lr_stage1="1e300", weight_decay="1e10"
    ))
    assert main(["gen", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: stage 1 epoch 0 step 0: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out" / "stage1").exists()


def test_failed_retrain_leaves_no_earlier_checkpoint(workspace, tmp_path, capsys):
    root, _ = workspace
    for stage in ("stage1", "stage2"):
        shutil.copytree(root / "out" / stage, tmp_path / "out" / stage)
    cfg = tmp_path / "run.cfg"
    settings = {"dataset_dir": f"{root}/out/dataset", "checkpoint": f"{tmp_path}/out/stage2"}
    cfg.write_text(tiny(out_dir=f"{tmp_path}/out", width=8, lr_stage2="1e200", **settings))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "width=8" in (tmp_path / "out" / "stage1" / "meta.txt").read_text()
    assert main(["eval", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.endswith(f"config error: {tmp_path}/out/stage2 is not a directory\n")


def test_train_with_k_above_the_patch_count_keeps_the_earlier_run(workspace, tmp_path, capsys):
    # the config error comes before train() clears the output directory
    root, _ = workspace
    shutil.copytree(root / "out", tmp_path / "out", ignore=shutil.ignore_patterns("dataset"))
    before = {stage: directory_digest(tmp_path / "out" / stage) for stage in ("stage1", "stage2")}
    log = (tmp_path / "out" / "train_log.jsonl").read_bytes()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(tiny(out_dir=f"{tmp_path}/out", dataset_dir=f"{root}/out/dataset", k=10))
    assert main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "config error: k=10 exceeds the world's 9 patches\n"
    assert {stage: directory_digest(tmp_path / "out" / stage) for stage in before} == before
    assert (tmp_path / "out" / "train_log.jsonl").read_bytes() == log


def test_train_on_an_empty_train_split_keeps_the_earlier_run(workspace, tmp_path, capsys):
    # refused as a config error before train() clears the output directory
    root, _ = workspace
    shutil.copytree(root / "out", tmp_path / "out", ignore=shutil.ignore_patterns("dataset"))
    before = {stage: directory_digest(tmp_path / "out" / stage) for stage in ("stage1", "stage2")}
    log = (tmp_path / "out" / "train_log.jsonl").read_bytes()
    world = read_dataset(root / "out" / "dataset" / "train").world
    for split, pool in (("train", world.split.seen), ("test", world.split.all_ids)):
        write_dataset(tmp_path / "dataset" / split, sample(world, 0, pool, world.seed, stream=f"sample.{split}"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(tiny(out_dir=f"{tmp_path}/out", dataset_dir=f"{tmp_path}/dataset"))
    assert main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: {tmp_path}/dataset/train holds no images to train on\n"
    assert {stage: directory_digest(tmp_path / "out" / stage) for stage in before} == before
    assert (tmp_path / "out" / "train_log.jsonl").read_bytes() == log


def _text_edit(rel, old, new):
    def edit(directory):
        path = directory / rel
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
    return edit


def _sealed(edit):
    """Apply an edit, then re-seal the manifest, so the edit reaches the parser check it is aimed at."""
    def sealed_edit(directory):
        edit(directory)
        reseal(directory)
    return sealed_edit


def _flip_last_byte(rel):
    def edit(directory):
        raw = bytearray((directory / rel).read_bytes())
        raw[-1] ^= 0xFF
        (directory / rel).write_bytes(bytes(raw))
    return edit


def _tensor_edit(rel, change):
    def edit(directory):
        write_tensor(directory / rel, change(read_tensor(directory / rel)))
    return edit


def _truncate(rel, length):
    def edit(directory):
        (directory / rel).write_bytes((directory / rel).read_bytes()[:length])
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _flip_last_byte("teacher.mkt1"),
        lambda ds: (ds / "manifest.txt").unlink(),
        _sealed(_text_edit("world/config.txt", "sigma=0.1\n", "sigma=fast\n")),
        lambda ds: (ds / "extra.txt").write_text("not in the manifest\n"),
        _sealed(lambda ds: (ds / "positives.txt").unlink()),
        _sealed(_text_edit("world/config.txt", "\nn_labels=12\n", "\nn_labels=1000000000000000000\n")),
    ],
    ids=[
        "teacher_flipped", "manifest_missing", "world_config_unparsable", "file_not_in_manifest", "positives_unlisted",
        "world_n_labels_1e18",
    ],
)
def test_corrupted_dataset_exits_three(workspace, tmp_path, capsys, edit):
    root, _ = workspace
    shutil.copytree(root / "out" / "dataset", tmp_path / "dataset")
    edit(tmp_path / "dataset" / "train")
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY + f"out_dir={tmp_path}/out\ndataset_dir={tmp_path}/dataset\n")
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant violation") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "edit",
    [
        # 12 x 12 images widened to 12 x 14: 14 is no multiple of the 4-pixel patch
        _sealed(_tensor_edit("images.mkt1", lambda x: np.concatenate([x, x[..., :2]], axis=-1))),
        _sealed(_tensor_edit("teacher.mkt1", lambda t: t[:, :-1])),
    ],
    ids=["images_12x14", "teacher_short_a_column"],
)
def test_dataset_tensor_that_does_not_fit_the_world_exits_three(workspace, tmp_path, capsys, edit):
    root, _ = workspace
    shutil.copytree(root / "out" / "dataset", tmp_path / "dataset")
    for split in ("train", "test"):
        edit(tmp_path / "dataset" / split)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY + f"out_dir={tmp_path}/out\ndataset_dir={tmp_path}/dataset\ncheckpoint={root}/out/stage2\n")
    _assert_commands_exit_three(("train", "eval"), cfg, capsys, "dataset")


@pytest.mark.parametrize(
    "rel, edit",
    [
        ("world/tokens.mkt1", _tensor_edit("world/tokens.mkt1", lambda t: np.full_like(t, 7.0))),
        ("world/prototypes.mkt1", _tensor_edit("world/prototypes.mkt1", lambda q: q[:1])),
        ("world/split.txt", lambda ds: (ds / "world" / "split.txt").write_text("seen\t0\nunseen\t1\n")),
    ],
    ids=["tokens_all_7", "prototypes_one_row", "split_rewritten"],
)
def test_world_file_that_disagrees_with_the_world_exits_three(workspace, tmp_path, capsys, rel, edit):
    root, _ = workspace
    shutil.copytree(root / "out" / "dataset", tmp_path / "dataset")
    for split in ("train", "test"):
        _sealed(edit)(tmp_path / "dataset" / split)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY + f"out_dir={tmp_path}/out\ndataset_dir={tmp_path}/dataset\ncheckpoint={root}/out/stage2\n")
    for command in ("train", "eval"):
        assert main([command, "--config", str(cfg)]) == 3, command
        err = capsys.readouterr().err
        assert err.startswith("invariant violation") and err.count("\n") == 1 and rel in err, (command, err)


def _first_positives_line(change):
    """Replace the first line of positives.txt with `change` of its label ids."""
    def edit(directory):
        path = directory / "positives.txt"
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = " ".join(change(lines[0].split())) + "\n"
        path.write_text("".join(lines))
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_sealed(_first_positives_line(lambda ids: ["999"])), "line 1: label 999 is not one of the world's 12"),
        (_sealed(_first_positives_line(lambda ids: [ids[0], *ids])), "line 1 lists a label twice"),
    ],
    ids=["unknown_label_999", "label_twice"],
)
def test_positives_line_the_world_cannot_hold_exits_three(workspace, tmp_path, capsys, edit, message):
    root, _ = workspace
    shutil.copytree(root / "out" / "dataset", tmp_path / "dataset")
    for split in ("train", "test"):
        edit(tmp_path / "dataset" / split)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY + f"out_dir={tmp_path}/out\ndataset_dir={tmp_path}/dataset\ncheckpoint={root}/out/stage2\n")
    for command in ("train", "eval"):
        assert main([command, "--config", str(cfg)]) == 3, command
        err = capsys.readouterr().err
        assert err.startswith("invariant violation") and err.count("\n") == 1 and message in err, (command, err)


def _poison_first(value):
    def change(x):
        x.flat[0] = value
        return x
    return change


@pytest.mark.parametrize(
    "command, split, rel, value",
    [
        ("train", "train", "images.mkt1", np.nan),
        ("train", "train", "teacher.mkt1", np.inf),
        ("eval", "test", "images.mkt1", np.nan),
    ],
    ids=["train_images_nan", "train_teacher_inf", "test_images_nan"],
)
def test_non_finite_dataset_tensor_exits_three(workspace, tmp_path, capsys, command, split, rel, value):
    root, _ = workspace
    shutil.copytree(root / "out" / "dataset", tmp_path / "dataset")
    _sealed(_tensor_edit(rel, _poison_first(value)))(tmp_path / "dataset" / split)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY + f"out_dir={tmp_path}/out\ndataset_dir={tmp_path}/dataset\ncheckpoint={root}/out/stage2\n")
    assert main([command, "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant violation") and err.count("\n") == 1, err
    assert err.endswith(f"{tmp_path}/dataset/{split}/{rel}: non-finite values\n"), err


@pytest.mark.parametrize(
    "key, value",
    [
        *[(key, 0) for key in (
            "n_labels", "n_train", "n_test", "n_categories", "max_labels", "channels", "image_size",
            "token_width", "embed_dim", "prompt_length", "width", "k", "batch_size",
        )],
        *[(key, -1) for key in ("surrogate_depth", "depth", "epochs_stage1", "epochs_stage2")],
        *[(key, "nan") for key in (
            "sigma", "token_jitter", "lambda_distill", "lr_stage1", "lr_stage2", "weight_decay",
        )],
    ],
)
def test_value_out_of_its_range_is_config_error_naming_the_key(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(tiny(out_dir=f"{tmp_path}/out", **{key: value}))
    assert main(["gen", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, line",
    [
        ("train", "heads=0"),
        ("train", "surrogate_heads=0"),
        ("train", "head_mode=wide"),
        ("train", "patch_size=5"),
        ("train", "background=plaid"),
        ("sweep", "sweep_axis=k"),  # TINY sweeps over 0.0 and 1.0, which are not integers
        ("gen", "max_labels=0"),
        ("gen", "max_labels=10"),  # the 12-pixel image has 9 patches
        ("gen", "n_categories=0"),
        ("gen", "embed_dim=0"),
        ("gen", "prompt_length=0"),
        ("train", "depth=-1"),
        ("sweep", "k_list="),
        ("gen", "n_labels=0"),
        ("gen", "seen_fraction=0.0"),
        ("train", "n_train=0"),
        ("eval", "n_test=0"),
        ("sweep", "sweep_values="),
        ("gen", "seed=-1"),
        ("sweep", "sweep_seeds=0 -1"),
        ("sweep", "sweep_seeds=1 2 1"),
        ("sweep", "sweep_axis=k;sweep_values=2 1.5"),
        ("sweep", "sweep_axis=k;sweep_values=0"),
        ("sweep", "sweep_axis=k;sweep_values=3 17"),  # a 12-pixel image has 9 patches
        ("sweep", "sweep_axis=max_labels;sweep_values=3 10"),
        ("sweep", "sweep_axis=head_mode;sweep_values=both wide"),
        # a sweep varies one world, sample, model or training key; `lambda` was the old name of lambda_distill
        ("sweep", "sweep_axis=out_dir"),
        ("sweep", "sweep_axis=seed"),
        ("sweep", "sweep_axis=sweep_values"),
        ("sweep", "sweep_axis=task"),
        ("sweep", "sweep_axis=nope"),
        ("sweep", "sweep_axis=lambda"),
        ("sweep", "sweep_values=1 1.0"),  # two values naming one run
        ("sweep", "n_labels=20;k_list=25"),  # GZSL ranks 20 labels
        ("sweep", "sweep_axis=n_labels;sweep_values=12 2"),  # K=3 against the second point's 2 labels
        ("train", "lr_stage1=nan"),
        ("train", "lambda_distill=nan"),
        ("train", "lr_stage2=-1"),
        ("train", "weight_decay=inf"),
        ("gen", "sigma=nan"),
        ("gen", "sigma=-0.1"),
        ("gen", "token_jitter=nan"),
    ],
)
def test_bad_component_value_is_config_error(workspace, tmp_path, capsys, command, line):
    root, _ = workspace
    settings = dict(setting.split("=") for setting in line.split(";"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(tiny(
        out_dir=f"{tmp_path}/out", dataset_dir=f"{root}/out/dataset", checkpoint=f"{root}/out/stage2", **settings
    ))
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_sweep_with_fewer_unseen_labels_than_k(tmp_path, capsys):
    # 12 labels at seen_fraction 0.8 leave 2 unseen: ZSL reports mAP only, GZSL ranks all 12
    cfg = tmp_path / "run.cfg"
    cfg.write_text(tiny(out_dir=f"{tmp_path}/out", seen_fraction=0.8, epochs_stage2=0, sweep_values=0))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 2


# seen_fraction=1.0 leaves ZSL no labels; one test image at seed 0 carries no unseen label
@pytest.mark.parametrize("settings", [{"seen_fraction": 1.0}, {"n_test": 1, "seed": 0}], ids=["no_unseen", "one_image"])
def test_eval_of_a_split_that_cannot_be_scored_is_config_error(tmp_path, capsys, settings):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(tiny(out_dir=f"{tmp_path}/out", checkpoint=f"{tmp_path}/out/stage2", **settings))
    assert main(["gen", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    key = next(iter(settings))
    assert err.startswith(f"config error: {key}=") and err.count("\n") == 1, err
    assert not list((tmp_path / "out").glob("report_*"))


def test_eval_with_a_k_above_the_task_labels_is_config_error_before_scoring(workspace, tmp_path, monkeypatch, capsys):
    # TINY's 12 labels at seen_fraction 0.75 leave ZSL 3 labels to rank
    root, _ = workspace
    cfg = tmp_path / "run.cfg"
    cfg.write_text(tiny(
        out_dir=f"{tmp_path}/out", dataset_dir=f"{root}/out/dataset", checkpoint=f"{root}/out/stage2", k_list="1,5"
    ))

    def never(*_):
        raise AssertionError("scored a split whose k_list cannot be evaluated")

    monkeypatch.setattr(cli, "score_batch", never)
    assert main(["eval", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "config error: k_list=5 exceeds the 3 ZSL labels\n"
    assert not (tmp_path / "out").exists()


# seed 1 can score its one test image and seed 0 cannot, so no seed may train first
@pytest.mark.parametrize(
    "settings", [{"seen_fraction": 1.0}, {"n_test": 1, "sweep_seeds": "1 0"}], ids=["no_unseen", "one_image"]
)
def test_sweep_of_a_split_that_cannot_be_scored_is_config_error(tmp_path, capsys, settings):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(tiny(out_dir=f"{tmp_path}/sw", **settings))
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    key = next(iter(settings))
    assert err.startswith(f"config error: {key}=") and err.count("\n") == 1, err
    assert not (tmp_path / "sw").exists()


def test_negative_seed_override_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY)
    assert main(["gen", "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


# The keys that size an array or count blocks: a large int asks for one over config.MAX_ARRAY_BYTES.
SIZE_KEYS = ("n_train", "n_test", "image_size", "channels", "n_labels", "n_categories", "token_width",
             "prompt_length", "embed_dim", "width", "depth", "surrogate_depth")
LARGE = "1000000000"


# The string keys RunConfig itself holds, and values of them that no config file line reads back
# as (`#` starts a comment, a line break ends the value, blanks and quotes are stripped from its
# ends, a word of sweep_values splits at blanks and commas and an empty one vanishes): they reach
# a RunConfig only from code or a command-line override.
STRING_KEYS = tuple(key for key, kind in _KINDS.items() if "str" in kind and key in RunConfig.__dataclass_fields__)
UNWRITABLE = ("runs/a#b", "runs/a\nb", "runs/a\rb", " runs/a ", "'q'")
UNWRITABLE_WORDS = (("runs/a#b",), ("runs/a\nb",), ("runs/a\rb",), (" runs/a ",), ("a b",), ("1,2",), ("",))


@pytest.mark.parametrize("key", sorted(_KINDS))
def test_every_config_key_takes_odd_values_without_a_traceback(key, tmp_path, monkeypatch, capsys):
    values = ("0", "-1", "1e400", "nan", "0.5", "", "word", "1#2", "runs/a\0b", "\0") + (
        (LARGE,) if key in SIZE_KEYS else ()
    )
    unwritable = UNWRITABLE_WORDS if key == "sweep_values" else UNWRITABLE if key in STRING_KEYS else ()
    for i, value in enumerate(values + unwritable):
        # a fresh working directory per value: values such as out_dir=0 write relative paths
        run = tmp_path / str(i)
        run.mkdir()
        monkeypatch.chdir(run)
        if value in unwritable:
            Path("run.cfg").write_text(tiny(checkpoint="runs/out/stage2"))
            with monkeypatch.context() as m:
                m.setattr(cli, "parse_config", lambda path: replace(parse_config(path), **{key: value}))
                for command in ("gen", "train", "eval", "sweep"):
                    assert main([command, "--config", "run.cfg"]) == 1, (key, value, command)
                    err = capsys.readouterr().err
                    assert err.startswith("config error: ") and key in err and err.count("\n") == 1, err
            assert os.listdir() == ["run.cfg"], (key, value)  # refused before anything is written
            continue
        Path("run.cfg").write_text(tiny(**{"checkpoint": "runs/out/stage2", key: value}))
        try:
            cfg = parse_config("run.cfg")
        except ConfigError:
            pass
        else:  # a config that parses is the config its resolved text parses into
            assert parse_config_text(resolved_text(cfg)) == cfg, (key, value)
        for command in ("gen", "train", "eval"):
            try:
                code = main([command, "--config", "run.cfg"])
            except Exception as e:  # an escaping exception is the failure this test looks for
                pytest.fail(f"{key}={value!r}: {command} raised {e!r}")
            err = capsys.readouterr().err
            assert 0 <= code <= 3 and err.count("\n") <= 1 and "Traceback" not in err, (key, value, command, err)
            if value == LARGE:
                assert code == 1 and err.startswith(f"config error: {key}={LARGE} "), (key, command, err)
            if "\0" in value:  # a NUL reads back from a config file, but no path the OS takes holds one
                assert code == 1 and err.startswith("config error: "), (key, command, err)


@pytest.mark.parametrize(
    "out", ["runs/a#b", "runs/a\nb", " runs/a ", "'q'"], ids=["hash", "line_break", "blanks", "quotes"]
)
def test_out_override_a_config_file_cannot_carry_is_config_error(tmp_path, monkeypatch, capsys, out):
    # written to config.resolved.txt, runs/a#b and ' runs/a ' would read back as runs/a
    monkeypatch.chdir(tmp_path)
    Path("c.cfg").write_text(TINY)
    assert main(["gen", "--config", "c.cfg", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: out_dir={out!r} does not read back from a config file\n"
    assert os.listdir() == ["c.cfg"]


def test_out_override_with_a_nul_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("c.cfg").write_text(TINY)
    assert main(["gen", "--config", "c.cfg", "--out", "runs/a\0b"]) == 1
    assert capsys.readouterr().err == "config error: out_dir='runs/a\\x00b' holds a NUL byte\n"
    assert os.listdir() == ["c.cfg"]


def test_seed_and_out_overrides(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY)
    assert main(["gen", "--config", str(cfg), "--seed", "11", "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    resolved = (tmp_path / "o" / "dataset" / "config.resolved.txt").read_text()
    assert "seed=11" in resolved.splitlines()


def _poison(z):
    z[0, 0] = np.nan
    return z


def _entry_elsewhere(target):
    """Point one manifest entry at an identical copy of its file outside the checkpoint."""
    def edit(ck):
        shutil.copytree(ck, ck.parent / f"{ck.name}-other")
        _text_edit("manifest.txt", "heads.global_b.mkt1\t", f"{target(ck)}\t")(ck)
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _sealed(_text_edit("meta.txt", "\nk=3\n", "\n")),
        _sealed(_text_edit("meta.txt", "width=16", "width=sixteen")),
        _sealed(_text_edit("meta.txt", "head_mode=both", "head_mode=wide")),
        _sealed(_text_edit("meta.txt", "heads=2", "heads=0")),
        _sealed(_text_edit("meta.txt", "\nk=3\n", "\nk=10\n")),  # the world has 9 patches
        _sealed(_text_edit("meta.txt", "width=16", "width=1000000000000000000")),
        _sealed(_tensor_edit("table.z.mkt1", lambda z: z[:-1])),
        _sealed(_tensor_edit("table.z.mkt1", _poison)),
        _sealed(_truncate("table.z.mkt1", 7)),
        _sealed(_truncate("table.z.mkt1", 4)),
        _text_edit("manifest.txt", "\t", " "),
        _entry_elsewhere(lambda ck: f"../{ck.name}-other/heads.global_b.mkt1"),
        _entry_elsewhere(lambda ck: f"{ck.parent}/{ck.name}-other/heads.global_b.mkt1"),
        _sealed(_text_edit("vocab.tsv", "0\t0\n", "")),
        _sealed(lambda ck: (ck / "meta.txt").unlink()),
    ],
    ids=[
        "meta_missing_key", "meta_non_integer", "meta_bad_head_mode", "meta_zero_heads", "meta_k_above_patches",
        "meta_width_1e18",
        "table_rows_off_ids", "table_non_finite", "tensor_header_7_bytes", "tensor_header_4_bytes",
        "manifest_line_without_tab", "manifest_entry_in_parent_dir", "manifest_entry_absolute",
        "vocab_lacks_table_label_0", "meta_unlisted",
    ],
)
def test_checkpoint_faults_exit_three(workspace, tmp_path, capsys, edit):
    root, _ = workspace
    ck = tmp_path / "ck"
    shutil.copytree(root / "out" / "stage2", ck)
    edit(ck)
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(TINY + f"out_dir={tmp_path}/ev\ndataset_dir={root}/out/dataset\ncheckpoint={ck}\n")
    assert main(["eval", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant violation") and err.count("\n") == 1, err


def test_eval_against_a_world_of_another_patch_size_exits_three(workspace, tmp_path, capsys):
    # 6 px images of 2 px patches in 4 channels: 16 values per patch and 9 patches, as in the
    # checkpoint's 12 px, 4 px, 1-channel world, so every tensor shape matches
    root, _ = workspace
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(tiny(
        out_dir=f"{tmp_path}/ev", checkpoint=f"{root}/out/stage2", image_size=6, patch_size=2, channels=4
    ))
    assert main(["gen", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == "invariant violation: checkpoint patch_size=4 disagrees with the world's 2\n"
    assert not list((tmp_path / "ev").glob("report_*"))


@pytest.mark.parametrize(
    "edit",
    [
        _sealed(_text_edit("vocab.tsv", "\t", " ")),
        lambda ck: (ck / "vocab.tsv").unlink(),
        _sealed(_text_edit("vocab.tsv", "0\t0\n", "")),
    ],
    ids=["vocab_line_without_tab", "vocab_missing", "vocab_lacks_table_label_0"],
)
def test_retrieve_checkpoint_faults_exit_three(workspace, tmp_path, capsys, edit):
    root, _ = workspace
    ck = tmp_path / "ck"
    shutil.copytree(root / "out" / "stage1", ck)
    edit(ck)
    cfg = tmp_path / "ret.cfg"
    cfg.write_text(TINY + f"out_dir={tmp_path}/ret\ncheckpoint={ck}\n")
    assert main(["retrieve", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant violation") and err.count("\n") == 1, err


def test_vocabulary_that_lists_a_label_twice_exits_three(workspace, tmp_path, capsys):
    # the second line for label 0 names another category; read silently, it would replace the first
    root, _ = workspace
    ck = tmp_path / "ck"
    shutil.copytree(root / "out" / "stage2", ck)
    lines = (ck / "vocab.tsv").read_text().splitlines(keepends=True)
    (ck / "vocab.tsv").write_text("".join(lines) + "0\t1\n")
    reseal(ck)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY + f"out_dir={tmp_path}/out\ndataset_dir={root}/out/dataset\ncheckpoint={ck}\n")
    for command in ("retrieve", "eval"):
        assert main([command, "--config", str(cfg)]) == 3, command
        err = capsys.readouterr().err
        message = f"vocab.tsv line {len(lines) + 1} lists label 0 twice"
        assert err.startswith("invariant violation") and err.count("\n") == 1 and message in err, (command, err)


def test_table_that_lists_a_label_twice_exits_three(workspace, tmp_path, capsys):
    # label 0 in the table's first two rows; retrieve would report it twice and label 1 never
    root, _ = workspace
    ck = tmp_path / "ck"
    shutil.copytree(root / "out" / "stage2", ck)
    _sealed(_text_edit("meta.txt", "\ntable_ids=0 1 ", "\ntable_ids=0 0 "))(ck)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY + f"out_dir={tmp_path}/out\ndataset_dir={root}/out/dataset\ncheckpoint={ck}\n")
    for command in ("retrieve", "eval"):
        assert main([command, "--config", str(cfg)]) == 3, command
        err = capsys.readouterr().err
        assert err.startswith("invariant violation") and err.count("\n") == 1, (command, err)
        assert "meta.txt table_ids lists label 0 twice" in err, (command, err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change", [lambda z: z[:, 0], lambda z: z[:, :, None]], ids=["table_1d", "table_3d"])
def test_label_table_that_is_no_matrix_exits_three(workspace, tmp_path, capsys, change):
    # one entry per label id, so only the table's rank is wrong
    root, _ = workspace
    ck = tmp_path / "ck"
    shutil.copytree(root / "out" / "stage2", ck)
    _sealed(_tensor_edit("table.z.mkt1", change))(ck)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY + f"out_dir={tmp_path}/out\ndataset_dir={root}/out/dataset\ncheckpoint={ck}\n")
    _assert_commands_exit_three(("eval", "retrieve"), cfg, capsys, "table.z")


@pytest.mark.parametrize("factor", [0.0, 2.0], ids=["table_zero_row", "table_row_doubled"])
def test_label_table_row_off_unit_norm_exits_three(workspace, tmp_path, capsys, factor):
    # a zero row has no nearest labels of its own: retrieve would list the query among its neighbours
    root, _ = workspace
    ck = tmp_path / "ck"
    shutil.copytree(root / "out" / "stage2", ck)
    _sealed(_tensor_edit("table.z.mkt1", lambda z: np.vstack([factor * z[:1], z[1:]])))(ck)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY + f"out_dir={tmp_path}/out\ndataset_dir={root}/out/dataset\ncheckpoint={ck}\n")
    for command in ("eval", "retrieve"):
        assert main([command, "--config", str(cfg)]) == 3, command
        err = capsys.readouterr().err
        assert err.startswith("invariant violation") and err.count("\n") == 1, (command, err)
        assert f"table.z row of label 0 has norm {factor:g}, not 1" in err, (command, err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "retrieve"])
def test_checkpoint_that_is_no_directory_is_config_error(workspace, tmp_path, capsys, command):
    root, _ = workspace
    (tmp_path / "a_file").write_text("not a checkpoint\n")
    for checkpoint in (tmp_path / "stage2_typo", tmp_path / "a_file"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY + f"out_dir={tmp_path}/out\ndataset_dir={root}/out/dataset\ncheckpoint={checkpoint}\n")
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"config error: {checkpoint} is not a directory\n"


LONG = "x" * 300  # over the 255 bytes a file name may hold: the OS refuses the path with ENAMETOOLONG


@pytest.mark.parametrize(
    "argv,settings,message",
    [
        (["gen", "--out", LONG], "", f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: "),
        (["gen", "--config", f"{LONG}.cfg"], None, f"config file {LONG}.cfg does not exist"),
        (["train"], f"dataset_dir={LONG}\n", f"{LONG}/train is not a directory"),
        (["eval"], f"checkpoint={LONG}\n", f"{LONG} is not a directory"),
        (["retrieve"], f"checkpoint={LONG}\n", f"{LONG} is not a directory"),
    ],
    ids=["gen_out", "gen_config", "train_dataset_dir", "eval_checkpoint", "retrieve_checkpoint"],
)
def test_a_path_the_os_refuses_is_a_one_line_config_error(workspace, tmp_path, monkeypatch, capsys, argv, settings,
                                                          message):
    root, _ = workspace
    monkeypatch.chdir(tmp_path)
    if settings is not None:
        dataset = "" if argv[0] == "gen" or "dataset_dir" in settings else f"dataset_dir={root}/out/dataset\n"
        (tmp_path / "run.cfg").write_text(TINY + "out_dir=out\n" + dataset + settings)
        argv = [*argv, "--config", "run.cfg"]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1, err
    assert sorted(tmp_path.rglob("*")) == before


FUZZ = {
    "truncate": lambda raw: raw[: len(raw) // 2],
    "flip_bit": lambda raw: raw[:-1] + bytes([raw[-1] ^ 1]),
    "delete": lambda raw: None,
    "append": lambda raw: raw + b"\x00",
}


def _assert_commands_exit_three(commands, cfg, capsys, case):
    for command in commands:
        assert main([command, "--config", str(cfg)]) == 3, (command, case)
        err = capsys.readouterr().err
        assert err.startswith("invariant violation") and err.count("\n") == 1, (command, case, err)


@pytest.mark.parametrize("edit", FUZZ)
@pytest.mark.parametrize("target", ["checkpoint", "dataset"])
def test_every_file_edit_exits_three(workspace, tmp_path, capsys, target, edit):
    """Each file of a trained checkpoint or a test split, edited in one of four ways, fails verification."""
    root, _ = workspace
    source = root / "out" / ("stage2" if target == "checkpoint" else "dataset")
    copy = tmp_path / target
    shutil.copytree(source, copy)
    data, ck = (root / "out" / "dataset", copy) if target == "checkpoint" else (copy, root / "out" / "stage2")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY + f"out_dir={tmp_path}/out\ndataset_dir={data}\ncheckpoint={ck}\n")
    commands = ("eval", "retrieve") if target == "checkpoint" else ("eval",)
    directory = ck if target == "checkpoint" else data / "test"
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    assert len(files) > 10
    for path in files:
        raw = path.read_bytes()
        edited = FUZZ[edit](raw)
        if edited is None:
            path.unlink()
        else:
            path.write_bytes(edited)
        _assert_commands_exit_three(commands, cfg, capsys, path.relative_to(directory))
        path.write_bytes(raw)


def test_flipped_exponent_bit_in_a_weight_exits_three(workspace, tmp_path, capsys):
    root, _ = workspace
    ck = tmp_path / "ck"
    shutil.copytree(root / "out" / "stage2", ck)
    path = ck / "heads.global_w.mkt1"
    raw = bytearray(path.read_bytes())
    raw[5 + 2 * 8 + 6] ^= 0x10  # lowest exponent bit of the first value: doubles or halves it
    path.write_bytes(bytes(raw))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY + f"out_dir={tmp_path}/out\ndataset_dir={root}/out/dataset\ncheckpoint={ck}\n")
    _assert_commands_exit_three(("eval", "retrieve"), cfg, capsys, path.name)


@pytest.mark.parametrize("fail", [False, True], ids=["all_ok", "one_failure"])
def test_gradcheck_exit_code_follows_the_suite(monkeypatch, capsys, fail):
    results = [CheckResult("matmul", 3, 1e-9, True), CheckResult("gelu", 3, 0.5 if fail else 1e-9, not fail)]
    monkeypatch.setattr(cli, "run_suite", lambda seed: results)
    assert main(["gradcheck"]) == (2 if fail else 0)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [r.line() for r in results]
    assert lines[1].startswith("FAIL" if fail else "ok  ")
    assert lines[2:] == ["gradient suite: FAILURES present" if fail else "gradient suite: all checks passed"]


@pytest.mark.parametrize("how", ["flag", "config"])
def test_gradcheck_runs_the_suite_at_the_run_seed(tmp_path, capsys, how):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=7\n")
    assert main(["gradcheck", "--seed", "7"] if how == "flag" else ["gradcheck", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [r.line() for r in run_suite(seed=7)] + ["gradient suite: all checks passed"]


def test_gradcheck_prints_every_row_once_and_nothing_on_stderr(capfd, monkeypatch):
    # A block-buffered stdout, as when piped, that holds unflushed text when
    # the suite forks: its workers inherit the buffer and must not flush it.
    with open(1, "w", closefd=False) as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        print("sentinel", end="")
        assert main(["gradcheck"]) == 0
    out, err = capfd.readouterr()
    assert out.count("sentinel") == 1
    lines = out.removeprefix("sentinel").splitlines()
    assert [line.split()[:2] for line in lines[:-1]] == [["ok", name] for name, _ in CHECKS]
    assert lines[-1] == "gradient suite: all checks passed"
    assert err == ""


def _ovml_exceptions() -> dict[str, type]:
    """Every exception class an ovml module defines, by name; warnings aside.
    `__main__` is skipped: importing it runs the CLI.
    """
    found = {}
    for info in pkgutil.iter_modules(ovml.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"ovml.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException) and not issubclass(obj, Warning)
                    and obj.__module__ == module.__name__):
                found[name] = obj
    return found


EXIT_CODES = {
    **dict.fromkeys(
        ["ConfigError", "PoolTooSmall", "InfeasibleConstraint", "KOutOfRange", "TopNOutOfRange", "UnknownLabel"], 1
    ),
    **dict.fromkeys(["NonFinite", "NonFiniteLoss", "NotScalar"], 2),
    **dict.fromkeys(
        ["ShapeMismatch", "BadTensorFile", "BadManifest", "BadCheckpoint", "DatasetCorrupt", "FrozenViolation",
         "NoPositives", "EmptyTaskVocabulary"],
        3,
    ),
}
PREFIXES = {1: "config error", 2: "numerical failure", 3: "invariant violation"}
# exceptions no command lets reach main, each with the reason
NEVER_REACH_MAIN = {
    "BadKeyValues": "parse_config_text, _read_checkpoint and read_dataset convert it to ConfigError, "
    "BadCheckpoint and DatasetCorrupt; RunConfig's read-back check catches it",
    "MissingGrad": "guards AdamW against a step without gradients, which no command takes",
    "DoubleBackward": "guards backward against a second call on one graph, which no command makes",
}


def test_every_exception_class_is_placed():
    # a new exception class must get an exit code, or a reason it never reaches main
    assert set(_ovml_exceptions()) == set(EXIT_CODES) | set(NEVER_REACH_MAIN)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_exception_exits_with_its_code_and_one_line(monkeypatch, capsys, name):
    error = _ovml_exceptions()[name]("a fault")

    def fail(_):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "gradcheck", fail)
    code = EXIT_CODES[name]
    assert main(["gradcheck"]) == code
    assert capsys.readouterr().err == f"{PREFIXES[code]}: {error}\n"


def test_quickstart_script_runs_end_to_end(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    shim = tmp_path / "bin" / "ovml"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m ovml "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{shim.parent}{os.pathsep}{os.environ.get('PATH', '')}")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(repo / "src"), os.environ.get("PYTHONPATH"))))
    out = tmp_path / "quickstart"
    run = subprocess.run(
        ["sh", str(repo / "scripts" / "quickstart.sh"), str(out)], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    listed = run.stdout.split(f"artifacts in {out}:\n")[1].split()
    assert sorted(listed) == sorted(p.name for p in out.iterdir())
    assert {
        "run.cfg", "config.resolved.txt", "dataset", "stage1", "stage2", "train_log.jsonl", "report_zsl.json",
        "report_gzsl.json", "retrieval.txt", "sweep.csv",
    } <= set(listed)
    assert len((out / "sweep.csv").read_text().splitlines()) == 4  # header plus the three lambda_distill values
