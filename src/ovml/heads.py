"""Two-stream scoring: global class-token embedding plus top-k pooled patch similarities.

Per image and label i the score is

    s_i = <z_i, e_cls> + topk_mean([<z_i, e_1>, ..., <z_i, e_N>], k)

with the global or local term dropped in the single-head ablation modes.
Image-side embeddings are left unnormalized; label rows are unit norm.
A batch of B images scores as one B x d matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import KOutOfRange, ShapeMismatch, Tensor
from .labels import LabelEmbeddingTable
from .vit import BackboneOutput

HEAD_MODES = ("both", "global", "local")


@dataclass
class TwoStreamParams:
    """Global head: one linear layer. Local head: two linear layers with GELU."""

    global_w: Tensor  # D x D_e
    global_b: Tensor  # D_e
    local_w1: Tensor  # D x D
    local_b1: Tensor  # D
    local_w2: Tensor  # D x D_e
    local_b2: Tensor  # D_e

    def named(self, prefix: str = "heads") -> dict[str, Tensor]:
        return {
            f"{prefix}.global_w": self.global_w,
            f"{prefix}.global_b": self.global_b,
            f"{prefix}.local_w1": self.local_w1,
            f"{prefix}.local_b1": self.local_b1,
            f"{prefix}.local_w2": self.local_w2,
            f"{prefix}.local_b2": self.local_b2,
        }


def init_two_stream(rng: np.random.Generator, width: int, embed_dim: int) -> TwoStreamParams:
    return TwoStreamParams(
        global_w=ad.tensor(rng.normal(0.0, 0.02, (width, embed_dim)), requires_grad=True),
        global_b=ad.tensor(np.zeros(embed_dim), requires_grad=True),
        local_w1=ad.tensor(rng.normal(0.0, 0.02, (width, width)), requires_grad=True),
        local_b1=ad.tensor(np.zeros(width), requires_grad=True),
        local_w2=ad.tensor(rng.normal(0.0, 0.02, (width, embed_dim)), requires_grad=True),
        local_b2=ad.tensor(np.zeros(embed_dim), requires_grad=True),
    )


@dataclass
class EmbeddingPair:
    e_cls: Tensor    # B x D_e, one row per image
    e_patch: Tensor  # (B * N) x D_e, each image's N rows in turn


def two_stream(out: BackboneOutput, params: TwoStreamParams) -> EmbeddingPair:
    """Map the class row through the global head and every patch row through the local head."""
    e_cls = ad.linear(out.o_cls, params.global_w, params.global_b)
    hidden = ad.gelu(ad.linear(out.o_patch, params.local_w1, params.local_b1))
    e_patch = ad.linear(hidden, params.local_w2, params.local_b2)
    return EmbeddingPair(e_cls=e_cls, e_patch=e_patch)


def score(emb: EmbeddingPair, labels: LabelEmbeddingTable, k: int, heads: str = "both") -> Tensor:
    """Per-image per-label scores as a B x d tensor, columns in table row order."""
    if heads not in HEAD_MODES:
        raise ValueError(f"heads must be one of {HEAD_MODES}, got {heads!r}")
    if emb.e_cls.shape[1] != labels.z.shape[1]:
        raise ShapeMismatch(
            f"embedding dim {emb.e_cls.shape[1]} vs label dim {labels.z.shape[1]}"
        )
    b = emb.e_cls.shape[0]
    if emb.e_patch.shape[0] % b:
        raise ShapeMismatch(f"{emb.e_patch.shape[0]} patch rows for {b} images")
    n = emb.e_patch.shape[0] // b
    if heads != "global" and not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside [1, {n}] patches")

    z_t = ad.transpose(labels.z)
    terms = []
    if heads != "local":
        terms.append(ad.matmul(emb.e_cls, z_t))
    if heads != "global":
        terms.append(ad.topk_mean_cols(ad.matmul(emb.e_patch, z_t), k, group=n))  # (B * N) x d -> B x d
    return terms[0] if len(terms) == 1 else ad.add(terms[0], terms[1])


@dataclass
class ScoreMatrix:
    """Per-image per-label scores; columns follow the label table row order."""

    scores: np.ndarray  # B x d
    label_ids: tuple[int, ...]

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 2 or self.scores.shape[1] != len(self.label_ids):
            raise ShapeMismatch(
                f"score matrix {self.scores.shape} vs {len(self.label_ids)} labels"
            )

