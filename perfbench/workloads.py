"""The benchmark's workloads, driven only through ovml's public functions.

Each workload has a set-up (timed on its own, as `setup_s`), a unit of
work that the runner repeats for the measured seconds, and output checks.
A unit is deterministic for a fixed seed: every repeat must give the same
fingerprint, and so must a traced repeat. Units time their segments with
the runner's Stopwatch, so every time here is in reference seconds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ovml import gradcheck, labels, metrics, synth, training
from ovml import model as om
from ovml.heads import ScoreMatrix
from ovml.seeds import substream
from ovml.tensor_io import directory_digest
from reference import reference_scores
from stopwatch import percentiles

SEEN_FRACTION = 0.8
K_LIST = (1, 3, 5)


@dataclass
class Phase:
    """A timed stretch of one unit: `items` images (or gradcheck instances)."""

    items: int
    wall_s: float
    steps_ms: list[float]


@dataclass
class Unit:
    phases: dict[str, Phase]
    fingerprint: object
    ops: list[bool]  # one entry per operation: True when it succeeded
    checks: dict[str, bool] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # what the final checks read


def _ms(laps: list[float]) -> list[float]:
    return [1e3 * s for s in laps]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _quality(model: om.Model, test: synth.Dataset) -> dict[str, float]:
    table = om.fixed_table(model)
    scores = om.score_batch(model, test.images, table)
    gt = test.ground_truth(table.label_ids)
    zsl = metrics.evaluate(scores, gt, test.world.split, "ZSL", (3,))
    gzsl = metrics.evaluate(scores, gt, test.world.split, "GZSL", (3,))
    return {"zsl_map": zsl.map, "gzsl_f1_at_3": gzsl.prf_at_k[3][2]}


class TrainDesk:
    """The README and acceptance-grid configuration, both stages.

    Exercises graph building, backward and AdamW in stage 1, and the live
    label table that stage 2 rebuilds through the surrogate every step.

    Stage 1 runs 12 of the README's 30 epochs. ZSL mAP over the world's 4
    unseen labels is noisy: after 2 epochs some seeds still sit at or below
    the untrained model's, while from about 10 epochs on the lift holds on
    every seed tried, so the `zsl_map_above_untrained` check is a real check.
    """

    name = "train-desk"
    n_labels, n_train, n_test = 20, 600, 200
    config = training.TrainConfig(lambda_distill=1.0, epochs_stage1=12, epochs_stage2=1, batch_size=16)

    def setup(self, seed: int, work: Path):
        world = synth.build_world(self.n_labels, SEEN_FRACTION, seed)
        written = {
            "train": synth.sample(world, self.n_train, world.split.seen, seed, stream="sample.train"),
            "test": synth.sample(world, self.n_test, world.split.all_ids, seed, stream="sample.test"),
        }
        for split, ds in written.items():
            synth.write_dataset(work / split, ds)
        read = {split: synth.read_dataset(work / split) for split in written}
        roundtrip = all(
            np.array_equal(read[s].images, written[s].images) and read[s].positives == written[s].positives
            for s in written
        )
        return {"seed": seed, **read, "checks": {"dataset_roundtrip": roundtrip}}

    def unit(self, state, work: Path, sw) -> Unit:
        seed, train, cfg = state["seed"], state["train"], self.config
        model = om.init_model(seed, train.world)
        laps: dict[int, list[float]] = {1: [], 2: []}
        losses: list[tuple] = []

        def log(record: dict) -> None:
            if "step" in record:
                laps[record["stage"]].append(sw.lap())
                losses.append((record["loss_rank"], record["loss_dist"]))

        sw.start()
        training.run_stage1(model, train, cfg, seed, log)
        stage1_s = sum(laps[1]) + sw.lap()
        om.save_model(work / "stage1", model, om.fixed_table(model))
        frozen_before = _frozen_digest(model)
        sw.start()
        start_loss, end_loss = training.run_stage2(model, train, cfg, seed, log)
        stage2_s = sum(laps[2]) + sw.lap()
        frozen_after = _frozen_digest(model)
        om.save_model(work / "stage2", model, om.fixed_table(model, provenance="tuned"))

        quality = _quality(model, state["test"])
        digests = (directory_digest(work / "stage1"), directory_digest(work / "stage2"))
        return Unit(
            # a stage's first lap also holds its start-up (stage 2 encodes
            # every image first), so it is not a step time
            phases={
                "stage1": Phase(cfg.epochs_stage1 * len(train), stage1_s, _ms(laps[1][1:])),
                "stage2": Phase(cfg.epochs_stage2 * len(train), stage2_s, _ms(laps[2][1:])),
            },
            fingerprint=(losses, digests, quality),
            ops=[all(v is None or np.isfinite(v) for v in pair) for pair in losses],
            checks={
                "frozen_params_unchanged_in_stage2": frozen_before == frozen_after,
                "stage2_end_loss_not_above_start": end_loss <= start_loss,
            },
            outputs=quality,
        )

    def final_checks(self, state, first: Unit) -> dict[str, bool]:
        untrained = _quality(om.init_model(state["seed"], state["train"].world), state["test"])
        return {"zsl_map_above_untrained": first.outputs["zsl_map"] > untrained["zsl_map"]}

    def named_metrics(self, units: list[Unit]) -> dict[str, tuple[float, str, int]]:
        out: dict[str, tuple[float, str, int]] = {}
        for stage in ("stage1", "stage2"):
            phases = [u.phases[stage] for u in units]
            steps = [s for p in phases for s in p.steps_ms]
            out[f"{stage}_img_per_s"] = (
                sum(p.items for p in phases) / sum(p.wall_s for p in phases), "1/s", len(phases)
            )
            p50, p90 = percentiles(steps)
            out[f"{stage}_step_ms.p50"] = (p50, "ms", len(steps))
            out[f"{stage}_step_ms.p90"] = (p90, "ms", len(steps))
        for name, value in units[0].outputs.items():
            out[name] = (value, "ratio", 1)
        return out


def _frozen_digest(model: om.Model) -> str:
    frozen = model.vit.named("vit")
    frozen.update(model.streams.named("heads"))
    frozen.update(model.surrogate.named("surrogate"))
    return _digest(frozen[name].data for name in sorted(frozen))


class EvalWide:
    """Forward-only scoring at four times the desk vocabulary.

    Runs the backbone, heads and autodiff without backward or optimizer,
    against one label table, so label-side and metric costs show. Scoring
    cost does not depend on weight values, so seeded init weights stand in
    for trained ones and keep training out of set-up.
    """

    name = "eval-wide"
    n_labels, n_test, chunk = 80, 2000, 16
    reference_rows = 8

    def setup(self, seed: int, work: Path):
        world = synth.build_world(self.n_labels, SEEN_FRACTION, seed)
        written = synth.sample(world, self.n_test, world.split.all_ids, seed, stream="sample.test")
        synth.write_dataset(work / "test", written)
        test = synth.read_dataset(work / "test")
        init = om.init_model(seed, test.world)
        om.save_model(work / "model", init, om.fixed_table(init))
        model, table = om.load_model(work / "model", test.world)
        init_params, loaded = init.named_params(), model.named_params()
        roundtrip = np.array_equal(test.images, written.images) and all(
            np.array_equal(init_params[n].data, loaded[n].data) for n in init_params
        )
        rows = substream(seed, "perfbench.reference").choice(len(test), self.reference_rows, replace=False)
        return {
            "seed": seed, "test": test, "model": model, "table": table,
            "gt": test.ground_truth(table.label_ids), "reference_rows": np.sort(rows),
            "checks": {"dataset_and_checkpoint_roundtrip": roundtrip},
        }

    def unit(self, state, work: Path, sw) -> Unit:
        model, table, test = state["model"], state["table"], state["test"]
        laps, rows = [], []
        sw.start()
        for start in range(0, len(test), self.chunk):
            rows.append(om.score_batch(model, test.images[start:start + self.chunk], table).scores)
            laps.append(sw.lap())
        scores = ScoreMatrix(scores=np.vstack(rows), label_ids=table.label_ids)
        reports = [
            metrics.evaluate(scores, state["gt"], test.world.split, mode, K_LIST) for mode in ("ZSL", "GZSL")
        ]
        accuracy = labels.retrieval_accuracy(table, model.categories, 3)
        wall = sum(laps) + sw.lap()
        summary = [(r.map, r.wmap, sorted(r.prf_at_k.items())) for r in reports]
        return Unit(
            phases={"eval": Phase(len(test), wall, _ms(laps))},
            fingerprint=(_digest([scores.scores]), summary, accuracy),
            ops=[bool(ok) for ok in np.isfinite(scores.scores).all(axis=1)],
            outputs={"reference_rows": scores.scores[state["reference_rows"]]},
        )

    def final_checks(self, state, first: Unit) -> dict[str, bool]:
        model, table, test = state["model"], state["table"], state["test"]
        want = np.stack([reference_scores(model, test.images[i], table.matrix()) for i in state["reference_rows"]])
        return {"scores_match_numpy_reference": bool(np.abs(first.outputs["reference_rows"] - want).max() <= 1e-9)}

    def named_metrics(self, units: list[Unit]) -> dict[str, tuple[float, str, int]]:
        phases = [u.phases["eval"] for u in units]
        return {
            "eval_img_per_s": (sum(p.items for p in phases) / sum(p.wall_s for p in phases), "1/s", len(phases)),
        }


class GradCheck:
    """The finite-difference suite: thousands of tiny forward-only graphs
    against leaves mutated in place, so per-node overhead dominates.
    Batching changes to training and scoring should leave it unchanged.
    """

    name = "gradcheck"
    instances = 1

    def setup(self, seed: int, work: Path):
        # one instance of every check, drawn from the streams run_suite uses
        for name, maker in gradcheck.CHECKS:
            maker(substream(seed, f"gradcheck.{name}"))
        return {"seed": seed, "checks": {}}

    def unit(self, state, work: Path, sw) -> Unit:
        laps: list[float] = []
        check = gradcheck.finite_difference_check

        def timed_check(*args, **kwargs):
            try:
                return check(*args, **kwargs)
            finally:
                laps.append(sw.lap())

        gradcheck.finite_difference_check = timed_check
        sw.start()
        try:
            results = gradcheck.run_suite(instances=self.instances, seed=state["seed"])
        finally:
            gradcheck.finite_difference_check = check
        wall = sum(laps) + sw.lap()
        # Checks differ in cost by 1000x, so a step is the whole suite, the
        # same work every time; laps per instance keep the probe close by.
        return Unit(
            phases={"gradcheck": Phase(self.instances * len(results), wall, [1e3 * wall])},
            fingerprint=[(r.name, r.worst, r.ok) for r in results],
            ops=[r.ok for r in results],
        )

    def final_checks(self, state, first: Unit) -> dict[str, bool]:
        return {}

    def named_metrics(self, units: list[Unit]) -> dict[str, tuple[float, str, int]]:
        return {"gradcheck_s": (float(np.median([u.phases["gradcheck"].wall_s for u in units])), "s", len(units))}


WORKLOADS = {w.name: w for w in (TrainDesk(), EvalWide(), GradCheck())}
