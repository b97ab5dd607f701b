"""Multi-label evaluation: per-class AP, mAP/WmAP, top-K P/R/F1, task masking.

All sorting is stable with original-index tie-breaks so every metric is
deterministic. Classes without a single positive under the current mask
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
    """Binary relevance, aligned column-for-column with a ScoreMatrix."""

    y: np.ndarray  # B x d of {0, 1}
    label_ids: tuple[int, ...]

    def __post_init__(self):
        self.y = np.asarray(self.y)
        if self.y.ndim != 2 or self.y.shape[1] != len(self.label_ids):
            raise ShapeMismatch(f"ground truth {self.y.shape} vs {len(self.label_ids)} labels")
        if not np.isin(self.y, (0, 1)).all():
            raise ValueError("ground truth entries must be 0 or 1")
        self.y = self.y.astype(np.int64)

    def columns(self, cols: list[int], label_ids: tuple[int, ...]) -> GroundTruthMatrix:
        """The matrix of columns `cols`, named `label_ids`; its entries were
        checked when this matrix was built, so they are not checked again.
        """
        out = object.__new__(GroundTruthMatrix)
        out.y, out.label_ids = self.y[:, cols], label_ids
        return out


def average_precision(scores: np.ndarray, relevance: np.ndarray) -> float:
    """AP for one class column: sum of precision-at-hit over the positives count.

    Images are ranked by descending score, ties broken by original index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    relevance = np.asarray(relevance)
    if scores.shape != relevance.shape or scores.ndim != 1:
        raise ShapeMismatch(f"column shapes {scores.shape} vs {relevance.shape}")
    n_pos = int(relevance.sum())
    if n_pos == 0:
        raise NoPositives("class has no positive images")
    order = np.argsort(-scores, kind="stable")
    rel = relevance[order].astype(np.float64)
    precision_at = np.cumsum(rel) / np.arange(1, len(rel) + 1)
    return float((precision_at * rel).sum() / n_pos)


def per_class_ap(scores: ScoreMatrix, gt: GroundTruthMatrix) -> tuple[list[float | None], list[int]]:
    """AP per column; None and a skip entry for columns without positives."""
    _check_aligned(scores, gt)
    aps = [
        average_precision(scores.scores[:, c], gt.y[:, c]) if gt.y[:, c].any() else None
        for c in range(len(scores.label_ids))
    ]
    return aps, [lid for lid, ap in zip(scores.label_ids, aps) if ap is None]


def _mean_ap(aps: list[float | None], weights: np.ndarray | None = None) -> float:
    keep = [c for c, ap in enumerate(aps) if ap is not None]
    if not keep:
        raise NoPositives("no class has positives")
    vals = np.array([aps[c] for c in keep])
    if weights is None:
        return float(vals.mean())
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(aps),):
        raise ShapeMismatch(f"weights {weights.shape} for {len(aps)} classes")
    w = weights[keep]
    if w.sum() <= 0:
        raise ValueError("weights over evaluable classes sum to zero")
    return float((vals * w).sum() / w.sum())


def _weighted_map(aps: list[float | None], gt: GroundTruthMatrix) -> float:
    return _mean_ap(aps, weights=gt.y.sum(axis=0).astype(np.float64))


def mean_ap(scores: ScoreMatrix, gt: GroundTruthMatrix, weights: np.ndarray | None = None) -> float:
    """Mean AP over evaluable classes; pass per-class weights for WmAP.

    Weights align with columns and are renormalized over the evaluable
    classes. With weights = per-class positive counts this is WmAP.
    """
    return _mean_ap(per_class_ap(scores, gt)[0], weights)


def weighted_map(scores: ScoreMatrix, gt: GroundTruthMatrix) -> float:
    """WmAP: AP weighted by each class's positive count."""
    return _weighted_map(per_class_ap(scores, gt)[0], gt)


def _topk_masks(scores: np.ndarray, ks: tuple[int, ...]) -> dict[int, np.ndarray]:
    """Boolean B x d mask of each row's K highest scores, per K, from one
    stable ranking, so ties go to the lower label index."""
    b, d = scores.shape
    order = np.argsort(-scores, axis=1, kind="stable")
    masks = {}
    for k in map(int, ks):
        if not 1 <= k <= d:
            raise KOutOfRange(f"K={k} outside [1, {d}]")
        masks[k] = np.zeros((b, d), dtype=bool)
        masks[k][np.arange(b)[:, None], order[:, :k]] = True
    return masks


def _prf(predicted: np.ndarray, gt: GroundTruthMatrix) -> tuple[float, float, float]:
    true_pos = int((predicted & (gt.y == 1)).sum())
    n_pred = int(predicted.sum())
    n_pos = int(gt.y.sum())
    precision = true_pos / n_pred if n_pred else 0.0
    recall = true_pos / n_pos if n_pos else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def topk_sets(scores: ScoreMatrix, k: int) -> np.ndarray:
    """Boolean B x d mask of each image's K highest-scoring labels.

    Ties go to the lower label index.
    """
    return _topk_masks(scores.scores, (k,))[k]


def topk_prf(scores: ScoreMatrix, gt: GroundTruthMatrix, k: int) -> tuple[float, float, float]:
    """Mean-per-label precision, recall, and F1 at K predictions per image."""
    _check_aligned(scores, gt)
    return _prf(topk_sets(scores, k), gt)


def mask_task(matrix, split: LabelSplit, mode: str):
    """Restrict columns to the task vocabulary: ZSL keeps unseen (in split
    order), GZSL keeps everything. Works on ScoreMatrix and GroundTruthMatrix.
    """
    if mode not in ("ZSL", "GZSL"):
        raise ValueError(f"mode must be ZSL or GZSL, got {mode!r}")
    keep = list(split.all_ids if mode == "GZSL" else split.unseen)
    if not keep:
        raise EmptyTaskVocabulary(f"{mode} vocabulary is empty")
    col = {lid: i for i, lid in enumerate(matrix.label_ids)}
    try:
        cols = [col[lid] for lid in keep]
    except KeyError as e:
        raise EmptyTaskVocabulary(f"label {e} absent from matrix") from None
    if isinstance(matrix, ScoreMatrix):
        return ScoreMatrix(scores=matrix.scores[:, cols], label_ids=tuple(keep))
    return matrix.columns(cols, tuple(keep))


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
    """Mask to the task vocabulary, then compute the full report."""
    s = mask_task(scores, split, mode)
    g = mask_task(gt, split, mode)
    aps, skipped = per_class_ap(s, g)
    return MetricsReport(
        task=mode,
        label_ids=s.label_ids,
        ap=aps,
        skipped_classes=skipped,
        map=_mean_ap(aps),
        wmap=_weighted_map(aps, g),
        prf_at_k={k: _prf(mask, g) for k, mask in _topk_masks(s.scores, k_list).items()},
    )


def write_report(base: str | Path, report: MetricsReport) -> None:
    base = Path(base)
    base.with_suffix(".json").write_text(report.to_json() + "\n")
    base.with_suffix(".txt").write_text(report.to_text())
