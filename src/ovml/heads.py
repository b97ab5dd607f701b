"""Two-stream scoring: global class-token embedding plus top-k pooled patch similarities.

Per image and label i the score is

    s_i = <z_i, e_cls> + topk_mean([<z_i, e_1>, ..., <z_i, e_N>], k)

with the global or local term dropped in the single-head ablation modes.
`MODE_STREAMS` is the one table of the streams each head mode scores, and
`STREAM_FIELDS` of the `TwoStreamParams` tensors each stream owns; scoring,
the config check, stage 1's parameter selection and the gradient suite
read them. Image-side embeddings are left unnormalized; label rows are unit norm.
A batch of B images scores as one B x d matrix, and `score` is one graph
node over (e_cls, e_patch, z), bit-identical to the composition of
autodiff ops it stands for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NonFinite, ShapeMismatch, Tensor
from .labels import LabelEmbeddingTable
from .vit import BackboneOutput

# head mode -> the streams it scores; HEAD_MODES lists the modes in this order
MODE_STREAMS = {"both": ("global", "local"), "global": ("global",), "local": ("local",)}
HEAD_MODES = tuple(MODE_STREAMS)
# stream -> its TwoStreamParams fields, in checkpoint and optimizer order
STREAM_FIELDS = {"global": ("global_w", "global_b"), "local": ("local_w1", "local_b1", "local_w2", "local_b2")}


@dataclass
class TwoStreamParams:
    """Global head: one linear layer. Local head: two linear layers with GELU."""

    global_w: Tensor  # D x D_e
    global_b: Tensor  # D_e
    local_w1: Tensor  # D x D
    local_b1: Tensor  # D
    local_w2: Tensor  # D x D_e
    local_b2: Tensor  # D_e

    def named(self, prefix: str = "heads", streams=tuple(STREAM_FIELDS)) -> dict[str, Tensor]:
        """The tensors of `streams` (default both), global before local."""
        return {
            f"{prefix}.{name}": getattr(self, name)
            for stream, names in STREAM_FIELDS.items() if stream in streams for name in names
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
    use_global, use_local = "global" in MODE_STREAMS[heads], "local" in MODE_STREAMS[heads]
    if emb.e_cls.shape[1] != labels.z.shape[1]:
        raise ShapeMismatch(
            f"embedding dim {emb.e_cls.shape[1]} vs label dim {labels.z.shape[1]}"
        )
    b = emb.e_cls.shape[0]
    if emb.e_patch.shape[0] % b:
        raise ShapeMismatch(f"{emb.e_patch.shape[0]} patch rows for {b} images")
    n = emb.e_patch.shape[0] // b

    e_cls, e_patch, z = emb.e_cls, emb.e_patch, labels.z
    # one node for the composition transpose, matmul(s), topk_mean_cols, add;
    # its vjp does their arithmetic in the order a backward through them does
    z_t = z.data.T.copy()
    out = glob = ad._gemm(e_cls.data, z_t) if use_global else None
    if use_local:
        ad._check_product("score", e_patch.data, z_t)
        sims = ad._gemm(e_patch.data, z_t)
        # top-k pooling could drop a -inf, so the (B * N) x d similarities are checked here
        if not ad._all_finite(sims):
            raise NonFinite("patch-label similarities hold NaN/Inf values")
        local, topk_vjp = ad._topk_mean_cols(sims, k, group=n)  # B x d
        out = local if glob is None else glob + local

    def vjp(g):
        g_cls = g_patch = g_zt = None
        if use_local:
            g_sims = topk_vjp(g)
            g_patch = g_sims @ z_t.T if e_patch.requires_grad else None
            g_zt = e_patch.data.T @ g_sims if z.requires_grad else None
        if use_global:
            g_cls = g @ z_t.T if e_cls.requires_grad else None
            if z.requires_grad:
                g_zt = e_cls.data.T @ g if g_zt is None else g_zt + e_cls.data.T @ g
        return g_cls, g_patch, None if g_zt is None else g_zt.T

    return ad._result(out, (e_cls, e_patch, z), vjp)


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

