"""Ranking and distillation losses over a batch of images.

Ranking: per image, the hinge max(1 + s_n - s_p, 0) summed over every
(positive, negative) label pair; a batch averages the per-image sums.
Distillation: per image, the L1 distance between the student's global
embedding and the frozen teacher vector; a batch averages again.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatch, Tensor


class DegenerateImageWarning(UserWarning):
    """An image with no positives or no negatives: it contributes 0 but is counted."""


def ranking_loss(scores: Tensor, positive: np.ndarray) -> Tensor:
    """Mean over images of the pairwise hinge sum.

    `scores` is B x d (table row order) and `positive` a boolean B x d
    mask of each image's positive labels; every other label is a
    negative. An image with no positives or no negatives is degenerate:
    warn, and let it contribute 0 to the mean.
    """
    positive = np.asarray(positive)
    if positive.dtype != bool or positive.shape != scores.shape:
        raise ShapeMismatch(f"positive mask {positive.dtype} {positive.shape} vs scores {scores.shape}")
    n_pos = positive.sum(axis=-1)
    if np.any((n_pos == 0) | (n_pos == positive.shape[-1])):
        warnings.warn("image has no positive/negative pair", DegenerateImageWarning, stacklevel=2)
    return batch_mean(ad.pairwise_hinge(scores, positive, ~positive))


def distill_loss(student: Tensor, teacher: np.ndarray | Tensor) -> Tensor:
    """Mean over images of the L1 distance between each student row and
    its frozen teacher row; no gradient flows teacher-side.
    """
    teacher_t = teacher if isinstance(teacher, Tensor) else ad.tensor(teacher)
    if teacher_t.requires_grad:
        raise ShapeMismatch("teacher embedding must be a frozen leaf")
    return batch_mean(ad.l1_distance(student, teacher_t))


def batch_mean(per_image: Tensor) -> Tensor:
    """Mean of a vector of per-image losses (a scalar is one image)."""
    if per_image.data.size == 0:
        raise ValueError("empty batch")
    return ad.mean_all(per_image)
