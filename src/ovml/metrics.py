"""Multi-label evaluation: per-class AP, mAP/WmAP, top-K P/R/F1 over a task vocabulary.

Every ranking is by descending score with ties to the lower original
index, the order `np.argsort(-a, kind="stable")` gives, so every metric
is deterministic. It is reached faster: numpy's default sort ranks every
row first, and only a row whose ranked values hold an equal pair (+0.0
and -0.0 included) or a NaN is ranked again by the stable sort. A row
without either has only one descending order, so any correct sort gives
it. Top-K sets take the stable order only for rows with a tie at the K-th
place or a NaN. Classes without a single positive in the task vocabulary
are excluded from mAP/WmAP and reported as skipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import KOutOfRange, ShapeMismatch
from .heads import ScoreMatrix
from .labels import LabelSplit


class NoPositives(ValueError):
    pass


class EmptyTaskVocabulary(ValueError):
    pass


@dataclass
class GroundTruthMatrix:
    """Boolean relevance per image and label; column j is label `label_ids[j]`; other dtypes must be 0/1."""

    y: np.ndarray  # B x d bool
    label_ids: tuple[int, ...]

    def __post_init__(self):
        self.y = np.asarray(self.y)
        if self.y.ndim != 2 or self.y.shape[1] != len(self.label_ids):
            raise ShapeMismatch(f"ground truth {self.y.shape} vs {len(self.label_ids)} labels")
        if self.y.dtype != bool and not np.isin(self.y, (0, 1)).all():
            raise ValueError("ground truth entries must be 0 or 1")
        self.y = self.y.astype(bool, copy=False)


# columns ranked together by _column_aps; keeps each temporary at 16 x B
_AP_BLOCK = 16


def _descending_order(a: np.ndarray) -> np.ndarray:
    """np.argsort(-a, axis=-1, kind="stable") of a 2-D array, from numpy's
    faster default sort wherever a row's order does not hang on ties."""
    order = np.argsort(-a, axis=-1)
    ascending = np.sort(a, axis=-1)
    # NaN sorts last, so a row holds one exactly when its last sorted value is NaN
    tied = (ascending[:, 1:] == ascending[:, :-1]).any(axis=-1) | np.isnan(ascending[:, -1])
    if tied.any():
        order[tied] = np.argsort(-a[tied], axis=-1, kind="stable")
    return order


def _column_aps(scores: np.ndarray, y: np.ndarray) -> list[float | None]:
    """AP of each column of a B x d score matrix against its boolean relevance
    column, None for a column without positives: the sum of precision at
    each positive's rank over the positives count.

    Columns go through in blocks of _AP_BLOCK, transposed so that each
    column is a contiguous row, and each AP is summed along that row.
    """
    n_pos = y.sum(axis=0)
    aps: list[float | None] = [None] * scores.shape[1]
    ranks = np.arange(1, scores.shape[0] + 1)
    live = np.flatnonzero(n_pos)
    for start in range(0, len(live), _AP_BLOCK):
        cols = live[start:start + _AP_BLOCK]
        order = _descending_order(scores.T[cols])
        rel = np.take_along_axis(y.T[cols], order, axis=-1).astype(np.float64)
        precision_at = np.cumsum(rel, axis=-1) / ranks
        for c, ap in zip(cols, (precision_at * rel).sum(axis=-1) / n_pos[cols]):
            aps[c] = float(ap)
    return aps


def average_precision(scores: np.ndarray, relevance: np.ndarray) -> float:
    """AP for one class column: sum of precision-at-hit over the positives count.

    Images are ranked by descending score, ties broken by original index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    relevance = np.asarray(relevance)
    if scores.shape != relevance.shape or scores.ndim != 1:
        raise ShapeMismatch(f"column shapes {scores.shape} vs {relevance.shape}")
    ap = _column_aps(scores[:, None], GroundTruthMatrix(y=relevance[:, None], label_ids=(0,)).y)[0]
    if ap is None:
        raise NoPositives("class has no positive images")
    return ap


def _per_class_ap(
    scores: np.ndarray, y: np.ndarray, label_ids: tuple[int, ...]
) -> tuple[list[float | None], list[int]]:
    aps = _column_aps(scores, y)
    return aps, [lid for lid, ap in zip(label_ids, aps) if ap is None]


def per_class_ap(scores: ScoreMatrix, gt: GroundTruthMatrix) -> tuple[list[float | None], list[int]]:
    """AP per column; None and a skip entry for columns without positives."""
    _check_aligned(scores, gt)
    return _per_class_ap(scores.scores, gt.y, scores.label_ids)


def _mean_ap(aps: list[float | None], weights: np.ndarray | None = None) -> float:
    """Mean AP over the classes that have a positive, weighted by `weights` (one per column) when given."""
    keep = [c for c, ap in enumerate(aps) if ap is not None]
    if not keep:
        raise NoPositives("no class has positives")
    vals = np.array([aps[c] for c in keep])
    if weights is None:
        return float(vals.mean())
    w = weights[keep]
    return float((vals * w).sum() / w.sum())


def mean_ap(scores: ScoreMatrix, gt: GroundTruthMatrix) -> float:
    """Mean AP over the classes that have a positive."""
    return _mean_ap(per_class_ap(scores, gt)[0])


def _topk_masks(scores: np.ndarray, ks: tuple[int, ...]) -> dict[int, np.ndarray]:
    """Boolean B x d mask of each row's K highest scores, per K, ties going
    to the lower label index.

    A row's mask is its scores at least its K-th highest. When that holds
    exactly K scores, they are the K the stable order puts first, NaN
    sorting last in both; any other row has a tie at the K-th place or a
    NaN and takes its K from the stable order.
    """
    b, d = scores.shape
    ascending = np.sort(scores, axis=1)
    masks = {}
    for k in map(int, ks):
        if not 1 <= k <= d:
            raise KOutOfRange(f"K={k} outside [1, {d}]")
        mask = scores >= ascending[:, d - k:d - k + 1]
        redo = np.flatnonzero(mask.sum(axis=1) != k)
        if len(redo):
            order = np.argsort(-scores[redo], axis=1, kind="stable")
            mask[redo] = False
            mask[redo[:, None], order[:, :k]] = True
        masks[k] = mask
    return masks


def _prf(predicted: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    true_pos = int((predicted & y).sum())
    n_pred = int(predicted.sum())
    n_pos = int(y.sum())
    precision = true_pos / n_pred if n_pred else 0.0
    recall = true_pos / n_pos if n_pos else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def topk_prf(scores: ScoreMatrix, gt: GroundTruthMatrix, k: int) -> tuple[float, float, float]:
    """Precision, recall and F1 at K predictions per image, from true-positive,
    prediction and positive counts summed over all images and labels."""
    _check_aligned(scores, gt)
    return _prf(_topk_masks(scores.scores, (k,))[k], gt.y)


def task_labels(split: LabelSplit, mode: str) -> tuple[int, ...]:
    """A task's vocabulary in split order: ZSL is the unseen labels, GZSL
    the seen then the unseen ones."""
    if mode not in ("ZSL", "GZSL"):
        raise ValueError(f"mode must be ZSL or GZSL, got {mode!r}")
    return split.all_ids if mode == "GZSL" else split.unseen


def _task_columns(label_ids: tuple[int, ...], split: LabelSplit, mode: str) -> tuple[tuple[int, ...], list[int]]:
    """The task vocabulary and its columns in a matrix whose columns are `label_ids`."""
    keep = task_labels(split, mode)
    if not keep:
        raise EmptyTaskVocabulary(f"{mode} vocabulary is empty")
    col = {lid: i for i, lid in enumerate(label_ids)}
    try:
        return keep, [col[lid] for lid in keep]
    except KeyError as e:
        raise EmptyTaskVocabulary(f"label {e} absent from matrix") from None


def _check_aligned(scores: ScoreMatrix, gt: GroundTruthMatrix) -> None:
    if scores.scores.shape != gt.y.shape or scores.label_ids != gt.label_ids:
        raise ShapeMismatch(
            f"scores {scores.scores.shape}/{scores.label_ids[:3]}... vs "
            f"gt {gt.y.shape}/{gt.label_ids[:3]}..."
        )


@dataclass
class MetricsReport:
    task: str
    label_ids: tuple[int, ...]
    ap: list[float | None]
    skipped_classes: list[int]
    map: float
    wmap: float
    prf_at_k: dict[int, tuple[float, float, float]] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "task": self.task,
            "label_ids": list(self.label_ids),
            "ap": self.ap,
            "skipped_classes": self.skipped_classes,
            "mAP": self.map,
            "WmAP": self.wmap,
            "topk": {
                str(k): {"P": p, "R": r, "F1": f} for k, (p, r, f) in sorted(self.prf_at_k.items())
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"task     {self.task}",
            f"mAP      {self.map:.6f}",
            f"WmAP     {self.wmap:.6f}",
        ]
        for k, (p, r, f) in sorted(self.prf_at_k.items()):
            lines.append(f"K={k:<4d}  P {p:.6f}  R {r:.6f}  F1 {f:.6f}")
        lines.append(f"skipped  {self.skipped_classes if self.skipped_classes else 'none'}")
        lines.append("label    AP")
        for lid, ap in zip(self.label_ids, self.ap):
            lines.append(f"{lid:<8d} {'-' if ap is None else f'{ap:.6f}'}")
        return "\n".join(lines) + "\n"


def evaluate(
    scores: ScoreMatrix,
    gt: GroundTruthMatrix,
    split: LabelSplit,
    mode: str,
    k_list: tuple[int, ...],
) -> MetricsReport:
    """The full report over the task vocabulary. Each matrix's task columns are
    found by its own label ids, so the two may order their labels differently."""
    label_ids, cols = _task_columns(scores.label_ids, split, mode)
    s = scores.scores[:, cols]
    y = gt.y[:, _task_columns(gt.label_ids, split, mode)[1]]
    if s.shape != y.shape:
        raise ShapeMismatch(f"scores {scores.scores.shape} vs gt {gt.y.shape}")
    aps, skipped = _per_class_ap(s, y, label_ids)
    return MetricsReport(
        task=mode,
        label_ids=label_ids,
        ap=aps,
        skipped_classes=skipped,
        map=_mean_ap(aps),
        wmap=_mean_ap(aps, weights=y.sum(axis=0).astype(np.float64)),
        prf_at_k={k: _prf(mask, y) for k, mask in _topk_masks(s, k_list).items()},
    )


def write_report(base: str | Path, report: MetricsReport) -> None:
    base = Path(base)
    base.with_suffix(".json").write_text(report.to_json() + "\n")
    base.with_suffix(".txt").write_text(report.to_text())
