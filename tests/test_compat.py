"""On-disk text formats stay readable and byte-stable across versions.

The literals below are what earlier versions of ovml wrote: a resolved
run config (before `sweep_axis=lambda` became `lambda_distill`), a
dataset's world/config.txt (which quoted strings and listed the
SynthConfig fields in another order) and a checkpoint's meta.txt. Each
must still parse into the same settings; DEFAULT_RESOLVED pins today's
resolved defaults. Dataset
manifests keep their format; checkpoint manifests from before digests
are refused.
"""

import hashlib
from dataclasses import replace

import pytest

from ovml.cli import main
from ovml.config import RunConfig, parse_config_text, resolved_text
from ovml.model import ModelConfig, fixed_table, init_model, load_model, save_model
from ovml.synth import SynthConfig, build_world, read_dataset, sample, write_dataset
from ovml.tensor_io import directory_digest, seal

from test_cli import TINY

DEFAULT_RESOLVED = """\
seed=0
out_dir=runs/out
dataset_dir=
checkpoint=
n_labels=20
seen_fraction=0.8
n_categories=4
max_labels=3
sigma=0.1
channels=1
image_size=12
patch_size=4
token_width=16
embed_dim=8
surrogate_depth=1
surrogate_heads=2
prompt_length=4
token_jitter=0.25
background=zero
n_train=600
n_test=200
width=16
heads=2
depth=2
k=3
head_mode=both
lambda_distill=1.0
lr_stage1=0.001
lr_stage2=3e-05
weight_decay=0.005
epochs_stage1=30
epochs_stage2=10
batch_size=16
task=both
k_list=3
topn=3
sweep_axis=lambda_distill
sweep_values=0.0 0.5 1.0
sweep_seeds=
"""

# written before the sweep axis took its key's name: `lambda` for lambda_distill
DEFAULT_RESOLVED_BEFORE_RENAME = """\
seed=0
out_dir=runs/out
dataset_dir=
checkpoint=
n_labels=20
seen_fraction=0.8
n_categories=4
max_labels=3
sigma=0.1
channels=1
image_size=12
patch_size=4
token_width=16
embed_dim=8
surrogate_depth=1
surrogate_heads=2
prompt_length=4
token_jitter=0.25
background=zero
n_train=600
n_test=200
width=16
heads=2
depth=2
k=3
head_mode=both
lambda_distill=1.0
lr_stage1=0.001
lr_stage2=3e-05
weight_decay=0.005
epochs_stage1=30
epochs_stage2=10
batch_size=16
task=both
k_list=3
topn=3
sweep_axis=lambda
sweep_values=0.0 0.5 1.0
sweep_seeds=
"""

TINY_CHANGED = {
    "seed": "3", "n_labels": "12", "seen_fraction": "0.75", "n_train": "24", "n_test": "12",
    "epochs_stage1": "2", "epochs_stage2": "1", "batch_size": "12", "sweep_values": "0.0 1.0",
}

OLD_WORLD_CONFIG = """\
seed=7
n_labels=12
seen_fraction=0.75
channels=2
image_size=8
patch_size=2
n_categories=3
max_labels=2
sigma=0.05
token_width=12
embed_dim=6
surrogate_depth=2
surrogate_heads=3
prompt_length=3
token_jitter=0.5
background='noise'
"""

OLD_META = """\
width=12
heads=4
depth=1
k=2
head_mode=local
patch_size=2
seen=0 1 2 3 4 5 6 7 8
unseen=9 10 11
table_ids=0 1 2 3 4 5 6 7 8 9 10 11
table_provenance=fixed
"""

WORLD = SynthConfig(
    channels=2, image_size=8, patch_size=2, n_categories=3, max_labels=2, sigma=0.05,
    token_width=12, embed_dim=6, surrogate_depth=2, surrogate_heads=3, prompt_length=3,
    token_jitter=0.5, background="noise",
)
MODEL = ModelConfig(width=12, heads=4, depth=1, k=2, head_mode="local")


@pytest.fixture(scope="module")
def world():
    return build_world(12, 0.75, 7, WORLD)


def test_default_resolved_text_is_pinned():
    assert resolved_text(RunConfig()) == DEFAULT_RESOLVED
    # still parses, each other key at its default; only `ovml sweep` refuses the old axis name
    assert parse_config_text(DEFAULT_RESOLVED_BEFORE_RENAME) == replace(RunConfig(), sweep_axis="lambda")
    # written before sweep_seeds existed
    assert parse_config_text(DEFAULT_RESOLVED.replace("sweep_seeds=\n", "")) == RunConfig()


def test_tiny_resolved_text_is_pinned():
    expected = "".join(
        f"{key}={TINY_CHANGED.get(key, value)}\n"
        for key, value in (line.split("=", 1) for line in DEFAULT_RESOLVED.splitlines())
    )
    assert resolved_text(parse_config_text(TINY)) == expected


def test_old_world_config_reads_back(world, tmp_path):
    write_dataset(tmp_path, sample(world, 4, world.split.seen, 7))
    (tmp_path / "world" / "config.txt").write_text(OLD_WORLD_CONFIG)
    seal(tmp_path)
    back = read_dataset(tmp_path).world
    assert back.config == WORLD
    assert (back.seed, back.n_labels, back.seen_fraction) == (7, 12, 0.75)


def test_meta_is_pinned_and_reads_back(world, tmp_path):
    model = init_model(5, world, MODEL)
    save_model(tmp_path, model, fixed_table(model))
    assert (tmp_path / "meta.txt").read_text() == OLD_META
    loaded, table = load_model(tmp_path, world)
    assert loaded.config == MODEL
    assert table.label_ids == tuple(range(12))
    assert table.provenance == "fixed"


def test_dataset_manifest_keeps_its_format(world, tmp_path):
    """path<TAB>sha256 per file but the manifest, sorted by path; the hash
    `ovml gen` prints is the sha256 of that text."""
    ds = tmp_path / "ds"
    write_dataset(ds, sample(world, 4, world.split.seen, 7))
    rels = sorted(p.relative_to(ds).as_posix() for p in ds.rglob("*") if p.is_file() and p.name != "manifest.txt")
    expected = "\n".join(f"{rel}\t{hashlib.sha256((ds / rel).read_bytes()).hexdigest()}" for rel in rels) + "\n"
    assert "world/config.txt" in rels
    assert (ds / "manifest.txt").read_text() == expected
    assert directory_digest(ds) == hashlib.sha256(expected.encode()).hexdigest()
    assert read_dataset(ds).world.config == WORLD


@pytest.mark.parametrize(
    "settings, hashes",
    [
        ("", (
            "98b130bff5e5b00423c164bf4367656803acd7e6e723177d0caf64d74c0be987",
            "df66cef0269241f62412581ca2ddd265d7a6eb981f967d123cba7d288cc27540",
        )),
        ("background=noise\nchannels=3\n", (
            "1d83794d9452cbce801a2d5f9ac84dc01fd233ffdb4bed7381e9f23c96779377",
            "0ba52dd6614f416a3862ccf271a500da113258c84105bae72c9e8c5b8a35d7ec",
        )),
    ],
    ids=["defaults", "noise-3ch"],
)
def test_gen_hashes_are_pinned(tmp_path, capsys, settings, hashes):
    """The content hashes `ovml gen` prints at seed 0: any change to the
    bytes that sampling or writing gives a dataset shows here."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(settings)
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    printed = [line.split()[-1] for line in capsys.readouterr().out.splitlines() if " hash " in line]
    assert tuple(printed) == hashes


def test_checkpoint_with_name_file_manifest_is_refused(world, tmp_path, capsys):
    """Checkpoints saved before digests listed name<TAB>file; they are refused, not loaded unverified."""
    ck = tmp_path / "ck"
    model = init_model(5, world, MODEL)
    save_model(ck, model, fixed_table(model))
    names = sorted(p.stem for p in ck.glob("*.mkt1"))
    (ck / "manifest.txt").write_text("".join(f"{name}\t{name}.mkt1\n" for name in names))
    write_dataset(tmp_path / "data" / "test", sample(world, 6, world.split.all_ids, 7))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out_dir={tmp_path}/out\ndataset_dir={tmp_path}/data\ncheckpoint={ck}\n")
    for command in ("eval", "retrieve"):
        assert main([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invariant violation") and err.count("\n") == 1, err
        assert err.count(str(ck)) == 1 and "not a digest manifest" in err and "retrain" in err, err


def test_retraining_shallower_into_one_out_dir_leaves_no_stale_files(tmp_path):
    base = TINY + f"out_dir={tmp_path}/out\ncheckpoint={tmp_path}/out/stage2\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(base)
    assert main(["gen", "--config", str(cfg)]) == 0
    for depth in (2, 1):
        cfg.write_text(base + f"depth={depth}\n")
        assert main(["train", "--config", str(cfg)]) == 0
    assert main(["eval", "--config", str(cfg)]) == 0
    stage2 = tmp_path / "out" / "stage2"
    assert (stage2 / "vit.b0.wo.mkt1").is_file() and not list(stage2.glob("vit.b1.*"))
    assert not [p for p in (tmp_path / "out").iterdir() if p.name.startswith(".")]
