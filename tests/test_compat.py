"""On-disk text formats stay readable and byte-stable across versions.

The literals below are what earlier versions of ovml wrote: a resolved
run config, a dataset's world/config.txt (which quoted strings and
listed the SynthConfig fields in another order) and a checkpoint's
meta.txt. Each must still parse into the same settings.
"""

import pytest

from ovml.config import RunConfig, parse_config_text, resolved_text
from ovml.model import ModelConfig, fixed_table, init_model, load_model, save_model
from ovml.synth import SynthConfig, build_world, read_dataset, sample, write_dataset

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
    back = read_dataset(tmp_path, verify=False).world
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
