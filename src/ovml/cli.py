"""Operator surface.

Subcommands: gen, train, eval, retrieve, sweep, gradcheck. Every run
writes its fully resolved config next to its outputs and produces
byte-identical primary artifacts when repeated with the same config and
seed. Exit codes: 0 ok, 1 usage or config problem (a dataset or checkpoint
path that is not a directory, a path the OS refuses, a test split that
cannot be scored), 2 numerical failure, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .autodiff import KOutOfRange, NonFinite, NotScalar, ShapeMismatch
from .config import ConfigError, RunConfig, parse_config, write_resolved
from .gradcheck import run_suite
from .labels import LabelEmbeddingTable, TopNOutOfRange, UnknownLabel, category_accuracy, retrieve_each
from .metrics import EmptyTaskVocabulary, MetricsReport, NoPositives, evaluate, task_labels, write_report
from .model import (
    BadCheckpoint,
    Model,
    ModelConfig,
    fixed_table,
    init_model,
    load_model,
    load_table,
    score_batch,
)
from .synth import (
    Dataset,
    DatasetCorrupt,
    InfeasibleConstraint,
    PoolTooSmall,
    build_world,
    read_dataset,
    sample,
    write_dataset,
)
from .tensor_io import BadManifest, BadTensorFile
from .training import FrozenViolation, NonFiniteLoss, train


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _dataset_dir(cfg: RunConfig) -> Path:
    return Path(cfg.dataset_dir) if cfg.dataset_dir else Path(cfg.out_dir) / "dataset"


def _datasets(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    """The train and test samples of the world at cfg.seed."""
    world = build_world(cfg.n_labels, cfg.seen_fraction, cfg.seed, cfg.synth)
    train_ds = sample(world, cfg.n_train, world.split.seen, cfg.seed, stream="sample.train")
    test_ds = sample(world, cfg.n_test, world.split.all_ids, cfg.seed, stream="sample.test")
    return train_ds, test_ds


def cmd_gen(cfg: RunConfig) -> int:
    root = _dataset_dir(cfg)
    datasets = _datasets(cfg)
    print(f"dataset {root}")
    for split, dataset in zip(("train", "test"), datasets):
        print(f"{split} hash {write_dataset(root / split, dataset)}")
    write_resolved(cfg, root)
    return 0


def cmd_train(cfg: RunConfig) -> int:
    split = _dataset_dir(cfg) / "train"
    dataset = read_dataset(split)
    if not len(dataset):  # refused before train() clears out_dir
        raise ConfigError(f"{split} holds no images to train on")
    model = init_model(cfg.seed, dataset.world, cfg.model)
    out_dir = Path(cfg.out_dir)
    paths = train(model, dataset, cfg.train, cfg.seed, out_dir)
    write_resolved(cfg, out_dir)
    for stage in ("stage1", "stage2"):
        print(f"{stage} checkpoint {paths[stage]} hash {paths['digests'][stage]}")
    print(f"log {paths['log']}")
    return 0


def _evaluate(
    model: Model, table: LabelEmbeddingTable, test: Dataset, k_lists: dict[str, tuple[int, ...]]
) -> dict[str, MetricsReport]:
    """Score the test split once and report each task mode at its K values.
    A task with no label on any test image is a config error: seen_fraction
    left it no labels, or n_test too few images. So is a K above the task's
    label count. Both are refused before anything is scored.
    """
    for mode, ks in k_lists.items():
        ids = set(task_labels(test.world.split, mode))
        if not any(ids.intersection(positives) for positives in test.positives):
            key = f"n_test={len(test)}" if ids else f"seen_fraction={test.world.seen_fraction}"
            raise ConfigError(f"{key} leaves no {mode} label on any test image to score")
        if ks and max(ks) > len(ids):
            raise ConfigError(f"k_list={max(ks)} exceeds the {len(ids)} {mode} labels")
    scores = score_batch(model, test.images, table)
    gt = test.ground_truth(table.label_ids)
    return {mode: evaluate(scores, gt, test.world.split, mode, ks) for mode, ks in k_lists.items()}


def cmd_eval(cfg: RunConfig) -> int:
    if not cfg.checkpoint:
        raise ConfigError("eval needs checkpoint=<dir> in the config")
    test = read_dataset(_dataset_dir(cfg) / "test")
    reports = _evaluate(*load_model(cfg.checkpoint, test.world), test, dict.fromkeys(cfg.tasks(), cfg.k_list))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for mode, report in reports.items():
        write_report(out_dir / f"report_{mode.lower()}", report)
        print(f"{mode}_mAP {report.map:.6f}")
        for k, (_, _, f1) in report.prf_at_k.items():
            print(f"{mode}_F1@{k} {f1:.6f}")
    write_resolved(cfg, out_dir)
    return 0


def cmd_retrieve(cfg: RunConfig) -> int:
    if not cfg.checkpoint:
        raise ConfigError("retrieve needs checkpoint=<dir> in the config")
    table, categories = load_table(cfg.checkpoint)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    neighbours = retrieve_each(table.label_ids, table, cfg.topn)
    lines = [f"{lid}\t" + " ".join(str(n) for n in row) for lid, row in zip(table.label_ids, neighbours)]
    accuracy = category_accuracy(neighbours, table, categories)
    lines.append(f"category_accuracy\t{accuracy!r}")
    (out_dir / "retrieval.txt").write_text("\n".join(lines) + "\n")
    write_resolved(cfg, out_dir)
    print(f"category accuracy at top-{cfg.topn}: {accuracy:.6f}")
    return 0


def _untrained_zsl_map(seed: int, config: ModelConfig, test: Dataset) -> float:
    model = init_model(seed, test.world, config)
    return _evaluate(model, fixed_table(model), test, {"ZSL": ()})["ZSL"].map


def cmd_sweep(cfg: RunConfig) -> int:
    """Train and evaluate once per sweep value and seed; runs at one seed and data setting share data and init."""
    points = cfg.sweep_points()
    k_eval = cfg.k_list[0]
    if k_eval > (n_labels := min(point.n_labels for _, point in points)):
        raise ConfigError(f"k_list={k_eval} exceeds the {n_labels} GZSL labels")
    out_dir = Path(cfg.out_dir)
    columns = ["untrained_zsl_map", "zsl_map", "gzsl_map", f"gzsl_f1@{k_eval}"]
    show = lambda values: " ".join(f"{c} {v:.4f}" for c, v in zip(columns, values))
    runs = [(name, replace(point, seed=seed)) for seed in cfg.sweep_seeds or (cfg.seed,) for name, point in points]
    setting = lambda run: (run.seed, run.n_labels, run.seen_fraction, run.synth, run.n_train, run.n_test)
    data = {key: _datasets(run) for key, run in {setting(run): run for _, run in runs}.items()}
    # an untrained model depends on the data setting and the model settings alone; score each
    # baseline once, all before the first run, so a value or seed that cannot score leaves no output
    untrained = lambda run: (setting(run), run.model)
    baselines = {
        key: _untrained_zsl_map(run.seed, run.model, data[setting(run)][1])
        for key, run in {untrained(run): run for _, run in runs}.items()
    }
    rows = []
    for name, run in runs:
        train_ds, test_ds = data[setting(run)]
        run_dir = out_dir / f"seed_{run.seed}" / f"{cfg.sweep_axis}_{name}"
        paths = train(init_model(run.seed, train_ds.world, run.model), train_ds, run.train, run.seed, run_dir)
        trained = load_model(paths["stage2"], test_ds.world)
        reports = _evaluate(*trained, test_ds, {"ZSL": (), "GZSL": (k_eval,)})
        for mode, report in reports.items():
            write_report(run_dir / f"report_{mode.lower()}", report)
        gzsl = reports["GZSL"]
        rows.append([run.seed, name, baselines[untrained(run)], reports["ZSL"].map, gzsl.map, gzsl.prf_at_k[k_eval][2]])
        print(f"seed={run.seed} {cfg.sweep_axis}={name} {show(rows[-1][2:])}")
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", cfg.sweep_axis, *columns])
        writer.writerows(rows)
    write_resolved(cfg, out_dir)
    print(f"sweep table {out_dir / 'sweep.csv'}")
    for name, _ in points:
        means = np.mean([row[2:] for row in rows if row[1] == name], axis=0)
        print(f"mean {cfg.sweep_axis}={name} {show(means)}")
    return 0


def cmd_gradcheck(cfg: RunConfig) -> int:
    results = run_suite(seed=cfg.seed)
    for r in results:
        print(r.line())
    if all(r.ok for r in results):
        print("gradient suite: all checks passed")
        return 0
    print("gradient suite: FAILURES present")
    return 2


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "retrieve": cmd_retrieve,
    "sweep": cmd_sweep,
    "gradcheck": cmd_gradcheck,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovml",
        description="Open-vocabulary multi-label pipeline on a synthetic world.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__ or name)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        cfg = _load_config(args)
        # no numpy warnings before the one-line message: the Tensor and AdamW checks catch NaN/Inf
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](cfg)
    except (ConfigError, OSError, PoolTooSmall, InfeasibleConstraint, KOutOfRange, TopNOutOfRange,
            UnknownLabel) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (NonFiniteLoss, NonFinite, NotScalar) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except (FrozenViolation, DatasetCorrupt, BadCheckpoint, BadTensorFile, BadManifest,
            ShapeMismatch, NoPositives, EmptyTaskVocabulary) as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
