"""Two-stage optimization.

Stage 1 trains the backbone and scoring heads against a frozen label
table, minimizing pairwise ranking loss plus an optional L1 pull of the
global embedding toward the teacher embedding; `stage1_losses` is the one
place that total is built. Stage 2 freezes the image side entirely and
tunes only the prompt context, regenerating the label table through the
frozen surrogate inside every step's graph. Each step builds one graph for
its whole minibatch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import NonFinite, Tensor
from .heads import MODE_STREAMS, EmbeddingPair
from .labels import LabelEmbeddingTable
from .losses import distill_loss, ranking_loss
from .model import Model, embed_batch, encode, fixed_table, live_table, save_model, score_image
from .optim import AdamW
from .seeds import substream
from .synth import Dataset
from .tensor_io import check_at_least, remove_sealed


class NonFiniteLoss(RuntimeError):
    pass


class FrozenViolation(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    lambda_distill: float = 1.0
    lr_stage1: float = 1e-3
    lr_stage2: float = 3e-5
    weight_decay: float = 5e-3
    epochs_stage1: int = 30
    epochs_stage2: int = 10
    batch_size: int = 16

    def __post_init__(self):
        check_at_least(self, 1, "batch_size")
        check_at_least(self, 0, "epochs_stage1", "epochs_stage2")
        check_at_least(self, 0.0, "lambda_distill", "lr_stage1", "lr_stage2", "weight_decay")


LogFn = Callable[[dict], None]


def stage1_losses(
    model: Model, images: np.ndarray, positive: np.ndarray, teacher: np.ndarray, table: LabelEmbeddingTable,
    lambda_distill: float,
) -> tuple[Tensor, Tensor, Tensor]:
    """Stage 1's (total, ranking, distillation) batch losses from one graph
    over `images`: ranking against `table`, the L1 pull of the global
    embeddings toward `teacher`, and the total rank + lambda_distill * dist,
    which is the ranking loss itself at lambda_distill = 0.
    """
    emb = encode(model, images)
    rank, dist = ranking_loss(score_image(model, emb, table), positive), distill_loss(emb.e_cls, teacher)
    return (rank if lambda_distill == 0.0 else ad.add(rank, ad.scale(dist, lambda_distill))), rank, dist


def stage2_loss(model: Model, emb: EmbeddingPair, positive: np.ndarray) -> Tensor:
    """Batch ranking loss of fixed image embeddings against the live label
    table, so the gradient reaches the prompt context.
    """
    return ranking_loss(score_image(model, emb, live_table(model)), positive)


def _stage1_params(model: Model, cfg: TrainConfig) -> dict[str, Tensor]:
    """The backbone, and the head streams stage 1's loss reaches: those the
    head mode scores, and the global stream when distillation pulls on it.
    """
    streams = MODE_STREAMS[model.config.head_mode] + (("global",) if cfg.lambda_distill > 0 else ())
    return {**model.vit.named("vit"), **model.streams.named("heads", streams)}


def _run_steps(
    stage: int, params: dict[str, Tensor], lr: float, epochs: int, n: int, cfg: TrainConfig, seed: int,
    losses: Callable[[np.ndarray], tuple[Tensor, Tensor, Tensor | None]], log: LogFn,
) -> None:
    """AdamW over `params`, one step per minibatch of each epoch's shuffle of
    the `n` rows. `losses(batch)` builds the step's graph and returns its
    (total, ranking, distillation or None) losses. A non-finite value
    anywhere in a step, the optimizer update included, ends the stage.
    """
    opt = AdamW(params, lr=lr, weight_decay=cfg.weight_decay)
    rng = substream(seed, f"train.stage{stage}")
    step = 0
    for epoch in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            try:
                total, loss_rank, loss_dist = losses(perm[start:start + cfg.batch_size])
                opt.zero_grad()
                ad.backward(total)
                opt.step()
            except NonFinite as e:
                raise NonFiniteLoss(f"stage {stage} epoch {epoch} step {step}: {e}") from e
            log({
                "stage": stage, "epoch": epoch, "step": step, "loss_rank": float(loss_rank.data),
                "loss_dist": None if loss_dist is None else float(loss_dist.data), "lr": lr,
            })
            step += 1


def run_stage1(model: Model, dataset: Dataset, cfg: TrainConfig, seed: int, log: LogFn) -> None:
    table = fixed_table(model)
    positive = dataset.ground_truth(table.label_ids).y
    losses = lambda batch: stage1_losses(
        model, dataset.images[batch], positive[batch], dataset.teacher[batch], table, cfg.lambda_distill
    )
    _run_steps(1, _stage1_params(model, cfg), cfg.lr_stage1, cfg.epochs_stage1, len(dataset), cfg, seed, losses, log)


def frozen_params(model: Model) -> dict[str, Tensor]:
    """Every tensor prompt tuning must leave untouched: backbone, heads, surrogate."""
    frozen = model.vit.named("vit")
    frozen.update(model.streams.named("heads"))
    frozen.update(model.surrogate.named("surrogate"))
    return frozen


def run_stage2(
    model: Model, dataset: Dataset, cfg: TrainConfig, seed: int, log: LogFn
) -> tuple[float, float]:
    """Prompt-only tuning over precomputed, constant image embeddings.

    Returns the whole-dataset ranking loss before the first and after the
    last step, so callers can verify tuning did not hurt.
    """
    snapshot = {name: t.data.copy() for name, t in frozen_params(model).items()}
    cached_cls, cached_patch = embed_batch(model, dataset.images)
    start_table = fixed_table(model)
    positive = dataset.ground_truth(start_table.label_ids).y

    def cached(rows) -> EmbeddingPair:
        return EmbeddingPair(
            e_cls=ad.tensor(cached_cls[rows]),
            e_patch=ad.tensor(cached_patch[rows].reshape(-1, cached_patch.shape[2])),
        )

    def full_rank_loss(table: LabelEmbeddingTable) -> float:
        total = 0.0
        with ad.no_grad():
            for start in range(0, len(dataset), cfg.batch_size):
                rows = slice(start, start + cfg.batch_size)
                scores = score_image(model, cached(rows), table)
                total += ranking_loss(scores, positive[rows]).item() * scores.shape[0]
        return total / len(dataset)

    start_loss = full_rank_loss(start_table)

    def losses(batch):
        loss_rank = stage2_loss(model, cached(batch), positive[batch])
        return loss_rank, loss_rank, None

    params = {"prompt.context": model.prompt}
    _run_steps(2, params, cfg.lr_stage2, cfg.epochs_stage2, len(dataset), cfg, seed, losses, log)
    for name, t in frozen_params(model).items():
        if not np.array_equal(t.data, snapshot[name]):
            raise FrozenViolation(f"{name} changed during prompt tuning")
    end_loss = full_rank_loss(fixed_table(model))
    log({"stage": 2, "event": "full_rank_loss", "start": start_loss, "end": end_loss})
    return start_loss, end_loss


def train(model: Model, dataset: Dataset, cfg: TrainConfig, seed: int, out_dir: str | Path) -> dict:
    """Run both stages, streaming the step log and checkpointing each stage.

    Returns the artifact paths, and under "digests" each checkpoint's digest
    as its write computed it. Deterministic for fixed inputs: the log
    carries no timestamps and checkpoints serialize in sorted name order.
    An earlier run's checkpoints in `out_dir` go first, so none outlives a failed run.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    remove_sealed(out_dir / "stage1", out_dir / "stage2")
    log_path = out_dir / "train_log.jsonl"
    with open(log_path, "w") as fh:
        def log(record: dict) -> None:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

        run_stage1(model, dataset, cfg, seed, log)
        digests = {"stage1": save_model(out_dir / "stage1", model, fixed_table(model))}
        run_stage2(model, dataset, cfg, seed, log)
        digests["stage2"] = save_model(out_dir / "stage2", model, fixed_table(model, provenance="tuned"))
    return {"log": log_path, "stage1": out_dir / "stage1", "stage2": out_dir / "stage2", "digests": digests}
