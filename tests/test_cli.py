"""Config parsing and the operator commands, end to end on a tiny world.

Every command runs in-process through main(argv) so the asserted return
values are exactly the process exit codes.
"""

import shutil

import numpy as np
import pytest

from ovml.cli import main
from ovml.config import (
    ConfigError,
    RunConfig,
    parse_config_text,
    resolved_text,
    write_resolved,
)
from ovml.synth import SynthConfig
from ovml.tensor_io import read_tensor, write_tensor

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
        assert cfg.sweep_values == (0.0, 1.0)
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

    def test_write_resolved_parses_back(self, tmp_path):
        cfg = RunConfig(seed=4, k_list=(1, 5), synth=SynthConfig(sigma=0.125))
        path = write_resolved(cfg, tmp_path)
        assert path.name == "config.resolved.txt"
        assert parse_config_text(path.read_text()) == cfg


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


def test_sweep_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        tiny(out_dir=f"{tmp_path}/sw", sweep_axis="lambda", n_train=16,
             n_test=8, epochs_stage1=1, epochs_stage2=0)
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    rows = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "lambda,zsl_map,gzsl_f1@3"
    assert len(rows) == 3  # header + one per sweep value
    for row in rows[1:]:
        axis, zsl, f1 = row.split(",")
        assert 0.0 <= float(zsl) <= 1.0
        assert 0.0 <= float(f1) <= 1.0


def test_missing_config_file_is_usage_error(capsys):
    assert main(["gen", "--config", "/nonexistent/x.cfg"]) == 1
    assert "config error" in capsys.readouterr().err


def test_bad_argv_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_train_without_dataset_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY + f"out_dir={tmp_path}/none\n")
    assert main(["train", "--config", str(cfg)]) == 1
    capsys.readouterr()


def test_divergent_training_exits_two(workspace, capsys):
    root, cfg_path = workspace
    cfg2 = root / "diverge.cfg"
    cfg2.write_text(tiny(out_dir=f"{root}/out", lr_stage1="1e150", epochs_stage1=3))
    with np.errstate(over="ignore"):
        assert main(["train", "--config", str(cfg2)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def _text_edit(rel, old, new):
    def edit(directory):
        path = directory / rel
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
    return edit


def _flip_last_byte(rel):
    def edit(directory):
        raw = bytearray((directory / rel).read_bytes())
        raw[-1] ^= 0xFF
        (directory / rel).write_bytes(bytes(raw))
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
        _text_edit("world/config.txt", "sigma=0.1\n", "sigma=fast\n"),
        lambda ds: (ds / "extra.txt").write_text("not in the manifest\n"),
    ],
    ids=["teacher_flipped", "manifest_missing", "world_config_unparsable", "file_not_in_manifest"],
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
    "command, line",
    [
        ("train", "heads=0"),
        ("train", "surrogate_heads=0"),
        ("train", "head_mode=wide"),
        ("train", "patch_size=5"),
        ("train", "background=plaid"),
        ("sweep", "sweep_axis=k"),  # TINY sweeps over 0.0 and 1.0, and k=0 is invalid
        ("gen", "max_labels=0"),
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
    ],
)
def test_bad_component_value_is_config_error(workspace, tmp_path, capsys, command, line):
    root, _ = workspace
    key, value = line.split("=")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(tiny(
        out_dir=f"{tmp_path}/out", dataset_dir=f"{root}/out/dataset", checkpoint=f"{root}/out/stage2", **{key: value}
    ))
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_seed_and_out_overrides(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY)
    assert main(["gen", "--config", str(cfg), "--seed", "11", "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    resolved = (tmp_path / "o" / "dataset" / "config.resolved.txt").read_text()
    assert "seed=11" in resolved.splitlines()


def _table_edit(change):
    def edit(ck):
        z = read_tensor(ck / "table.z.mkt1")
        write_tensor(ck / "table.z.mkt1", change(z.copy()))
    return edit


def _poison(z):
    z[0, 0] = np.nan
    return z


def _entry_elsewhere(target):
    """Point one manifest entry at a readable copy of its file outside the checkpoint."""
    def edit(ck):
        shutil.copytree(ck, ck.parent / f"{ck.name}-other")
        _text_edit("manifest.txt", "heads.global_b\theads.global_b.mkt1", f"heads.global_b\t{target(ck)}")(ck)
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _text_edit("meta.txt", "\nk=3\n", "\n"),
        _text_edit("meta.txt", "width=16", "width=sixteen"),
        _text_edit("meta.txt", "head_mode=both", "head_mode=wide"),
        _text_edit("meta.txt", "heads=2", "heads=0"),
        _table_edit(lambda z: z[:-1]),
        _table_edit(_poison),
        _truncate("table.z.mkt1", 7),
        _truncate("table.z.mkt1", 4),
        _text_edit("manifest.txt", "\t", " "),
        _entry_elsewhere(lambda ck: f"../{ck.name}-other/heads.global_b.mkt1"),
        _entry_elsewhere(lambda ck: f"{ck.parent}/{ck.name}-other/heads.global_b.mkt1"),
    ],
    ids=[
        "meta_missing_key", "meta_non_integer", "meta_bad_head_mode", "meta_zero_heads",
        "table_rows_off_ids", "table_non_finite", "tensor_header_7_bytes", "tensor_header_4_bytes",
        "manifest_line_without_tab", "manifest_entry_in_parent_dir", "manifest_entry_absolute",
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


@pytest.mark.parametrize(
    "edit",
    [_text_edit("vocab.tsv", "\t", " "), lambda ck: (ck / "vocab.tsv").unlink()],
    ids=["vocab_line_without_tab", "vocab_missing"],
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
