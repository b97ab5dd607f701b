"""Frozen surrogate text encoder.

Stands in for a pretrained text tower: a seeded, immutable token-mixing
transformer over [context vectors..., label token], pooled at the last
token position, projected into the shared embedding space, and
L2-normalized. Only the context vectors are ever trainable; every
surrogate weight stays a non-gradient leaf. Any number of labels encode
in one pass: their M + 1 token sequences are stacked row-wise and
attention stays within each one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatch, Tensor
from .vit import BlockParams, block_named, encoder_block, init_block


@dataclass
class TextSurrogateParams:
    blocks: list[BlockParams]
    out_proj: Tensor               # D_t x D_e, frozen
    tokens: dict[int, Tensor]      # label id -> frozen (D_t,) token vector

    @property
    def token_width(self) -> int:
        return self.out_proj.shape[0]

    def named(self, prefix: str = "surrogate") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {f"{prefix}.out_proj": self.out_proj}
        for i, blk in enumerate(self.blocks):
            out.update(block_named(prefix, i, blk))
        for label_id in sorted(self.tokens):
            out[f"{prefix}.token{label_id}"] = self.tokens[label_id]
        return out

    def token_rows(self, label_ids) -> Tensor:
        """The frozen token vectors of `label_ids` as one matrix, in that
        order; KeyError names a label without a token.
        """
        return ad.tensor(np.stack([self.tokens[lid].data for lid in label_ids]))


def init_text_surrogate(
    rng: np.random.Generator,
    token_width: int,
    embed_dim: int,
    depth: int,
    heads: int,
    token_vectors: dict[int, np.ndarray],
) -> TextSurrogateParams:
    """Build the frozen tower; bit-identical for identical rng state and tokens."""
    blocks = [init_block(rng, token_width, heads, trainable=False) for _ in range(depth)]
    out_proj = ad.tensor(rng.normal(0.0, 0.02, (token_width, embed_dim)))
    tokens = {
        int(lid): ad.tensor(np.asarray(vec, dtype=np.float64))
        for lid, vec in token_vectors.items()
    }
    for t in tokens.values():
        if t.shape != (token_width,):
            raise ShapeMismatch(f"token vector shape {t.shape}, expected ({token_width},)")
    return TextSurrogateParams(blocks=blocks, out_proj=out_proj, tokens=tokens)


def text_surrogate_encode(context: Tensor, tokens: Tensor, params: TextSurrogateParams) -> Tensor:
    """Encode [context..., token] for each row of the d x D_t token matrix
    `tokens` into a d x D_e matrix of unit-norm label embeddings.

    The d sequences share the context and run as one row-stacked pass; a
    single label is a one-row matrix. Gradients reach only the context
    rows; all surrogate weights and the tokens are frozen leaves.
    """
    if context.data.ndim != 2 or context.shape[1] != params.token_width:
        raise ShapeMismatch(f"context shape {context.shape} vs token width {params.token_width}")
    if tokens.data.ndim != 2 or tokens.shape[1] != params.token_width:
        raise ShapeMismatch(f"label tokens shape {tokens.shape}, expected d x {params.token_width}")
    m, width = context.shape
    d = tokens.shape[0]
    # one row per label: [context row 1, ..., context row M, label token] flattened
    shared = ad.matmul(ad.tensor(np.ones((d, 1))), ad.reshape(context, (1, m * width)))
    x = ad.reshape(ad.concat([shared, tokens], axis=1), (d * (m + 1), width))
    for block in params.blocks:
        x = encoder_block(x, block, group=m + 1)
    last = ad.slice_rows(x, m, m + 1, group=m + 1)
    return ad.l2_normalize(ad.matmul(last, params.out_proj))
