"""Operator surface.

Subcommands: gen, train, eval, retrieve, sweep, gradcheck. Every run
writes its fully resolved config next to its outputs and produces
byte-identical primary artifacts when repeated with the same config and
seed. Exit codes: 0 ok, 1 usage or config problem, 2 numerical failure,
3 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

from .autodiff import KOutOfRange, NonFinite, NotScalar, ShapeMismatch
from .config import ConfigError, RunConfig, parse_config, write_resolved
from .gradcheck import run_suite
from .labels import TopNOutOfRange, UnknownLabel, retrieval_accuracy, retrieve
from .metrics import EmptyTaskVocabulary, NoPositives, evaluate, write_report
from .model import BadCheckpoint, init_model, load_model, load_table, score_batch
from .synth import (
    Dataset,
    DatasetCorrupt,
    InfeasibleConstraint,
    PoolTooSmall,
    build_world,
    dataset_hash,
    read_dataset,
    sample,
    write_dataset,
)
from .tensor_io import BadTensorFile, directory_digest
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


def cmd_gen(cfg: RunConfig) -> int:
    root = _dataset_dir(cfg)
    world = build_world(cfg.n_labels, cfg.seen_fraction, cfg.seed, cfg.synth)
    train_ds = sample(world, cfg.n_train, world.split.seen, cfg.seed, stream="sample.train")
    test_ds = sample(world, cfg.n_test, world.split.all_ids, cfg.seed, stream="sample.test")
    write_dataset(root / "train", train_ds)
    write_dataset(root / "test", test_ds)
    write_resolved(cfg, root)
    print(f"dataset {root}")
    print(f"train hash {dataset_hash(root / 'train')}")
    print(f"test hash {dataset_hash(root / 'test')}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    dataset = read_dataset(_dataset_dir(cfg) / "train")
    model = init_model(cfg.seed, dataset.world, cfg.model)
    out_dir = Path(cfg.out_dir)
    paths = train(model, dataset, cfg.train, cfg.seed, out_dir)
    write_resolved(cfg, out_dir)
    for stage in ("stage1", "stage2"):
        print(f"{stage} checkpoint {paths[stage]} hash {directory_digest(paths[stage])}")
    print(f"log {paths['log']}")
    return 0


def _eval_into(cfg: RunConfig, checkpoint: str | Path, out_dir: Path, test: Dataset) -> dict[str, float]:
    """Score the test split and write one report pair per task mode."""
    model, table = load_model(checkpoint, test.world)
    scores = score_batch(model, test.images, table)
    gt = test.ground_truth(table.label_ids)
    headline: dict[str, float] = {}
    for mode in cfg.tasks():
        report = evaluate(scores, gt, test.world.split, mode, cfg.k_list)
        write_report(out_dir / f"report_{mode.lower()}", report)
        headline[f"{mode}_mAP"] = report.map
        for k, (_, _, f1) in report.prf_at_k.items():
            headline[f"{mode}_F1@{k}"] = f1
    return headline


def cmd_eval(cfg: RunConfig) -> int:
    if not cfg.checkpoint:
        raise ConfigError("eval needs checkpoint=<dir> in the config")
    test = read_dataset(_dataset_dir(cfg) / "test")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    headline = _eval_into(cfg, cfg.checkpoint, out_dir, test)
    write_resolved(cfg, out_dir)
    for name, value in headline.items():
        print(f"{name} {value:.6f}")
    return 0


def cmd_retrieve(cfg: RunConfig) -> int:
    if not cfg.checkpoint:
        raise ConfigError("retrieve needs checkpoint=<dir> in the config")
    table, categories = load_table(cfg.checkpoint)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for lid in table.label_ids:
        neighbors = retrieve(lid, table, cfg.topn)
        lines.append(f"{lid}\t" + " ".join(str(n) for n in neighbors))
    accuracy = retrieval_accuracy(table, categories, cfg.topn)
    lines.append(f"category_accuracy\t{accuracy!r}")
    (out_dir / "retrieval.txt").write_text("\n".join(lines) + "\n")
    write_resolved(cfg, out_dir)
    print(f"category accuracy at top-{cfg.topn}: {accuracy:.6f}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    """Train and evaluate once per axis value on a shared dataset and seed."""
    if not cfg.sweep_values:
        raise ConfigError("sweep_values is empty: a sweep needs at least one value")
    try:  # every sweep value must make valid components before any run starts
        points = [
            replace(cfg, train=replace(cfg.train, lambda_distill=float(v))) if cfg.sweep_axis == "lambda"
            else replace(cfg, model=replace(cfg.model, k=int(v)))
            for v in cfg.sweep_values
        ]
    except ValueError as e:
        raise ConfigError(f"sweep value: {e}") from None
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    world = build_world(cfg.n_labels, cfg.seen_fraction, cfg.seed, cfg.synth)
    train_ds = sample(world, cfg.n_train, world.split.seen, cfg.seed, stream="sample.train")
    test_ds = sample(world, cfg.n_test, world.split.all_ids, cfg.seed, stream="sample.test")
    k_eval = cfg.k_list[0]
    rows = []
    for value, cfg_v in zip(cfg.sweep_values, points):
        run_dir = out_dir / f"{cfg.sweep_axis}_{value:g}"
        model = init_model(cfg_v.seed, world, cfg_v.model)
        paths = train(model, train_ds, cfg_v.train, cfg_v.seed, run_dir)
        headline = _eval_into(
            replace(cfg_v, task="both", k_list=(k_eval,)), paths["stage2"], run_dir, test_ds
        )
        rows.append((value, headline["ZSL_mAP"], headline[f"GZSL_F1@{k_eval}"]))
        print(f"{cfg.sweep_axis}={value:g} ZSL mAP {rows[-1][1]:.4f} GZSL F1@{k_eval} {rows[-1][2]:.4f}")
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([cfg.sweep_axis, "zsl_map", f"gzsl_f1@{k_eval}"])
        writer.writerows(rows)
    write_resolved(cfg, out_dir)
    print(f"sweep table {out_dir / 'sweep.csv'}")
    return 0


def cmd_gradcheck(_: RunConfig) -> int:
    results = run_suite()
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
        return _COMMANDS[args.command](cfg)
    except (ConfigError, FileNotFoundError, NotADirectoryError, PoolTooSmall,
            InfeasibleConstraint, KOutOfRange, TopNOutOfRange, UnknownLabel) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (NonFiniteLoss, NonFinite, NotScalar) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except (FrozenViolation, DatasetCorrupt, BadCheckpoint, BadTensorFile,
            ShapeMismatch, NoPositives, EmptyTaskVocabulary) as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
