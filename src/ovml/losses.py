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
from .autodiff import Tensor


class DegenerateImageWarning(UserWarning):
    """An image with no positives or no negatives: it contributes 0 but is counted."""


def ranking_loss(scores: Tensor, positive: np.ndarray) -> Tensor:
    """Mean over images of the pairwise hinge sum.

    `scores` is B x d (table row order) and `positive` a boolean B x d
    mask of each image's positive labels; every other label is a
    negative. An image with no positives or no negatives is degenerate:
    warn, and let it contribute 0 to the mean.
    """
    # logical_not, not ~, so that any non-bool mask reaches the hinge's check
    per_image = ad.pairwise_hinge(scores, positive, np.logical_not(positive))
    # the hinge has checked that the mask is boolean: reduce it with the ufuncs directly
    n_pos = np.add.reduce(positive, axis=1)
    if np.logical_or.reduce((n_pos == 0) | (n_pos == scores.shape[1]), axis=None):
        warnings.warn("image has no positive/negative pair", DegenerateImageWarning, stacklevel=2)
    return batch_mean(per_image)


def distill_loss(student: Tensor, teacher: np.ndarray) -> Tensor:
    """Mean over images of the L1 distance between each student row and its
    teacher row. The teacher array enters as a constant leaf, so no
    gradient reaches it.
    """
    return batch_mean(ad.l1_distance(student, ad.tensor(teacher)))


def batch_mean(per_image: Tensor) -> Tensor:
    """Mean of a vector of per-image losses."""
    if per_image.data.size == 0:
        raise ValueError("empty batch")
    return ad.mean_all(per_image)
