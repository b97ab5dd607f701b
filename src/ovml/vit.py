"""Trainable vision transformer backbone.

Pre-norm residual blocks: the token sequence is [cls, patches] plus a
position embedding, each block applies multi-head self-attention and a
two-layer GELU MLP, both on normalized inputs inside the residual
branch. The final sequence splits into a class row and patch rows.

A batch of B images runs as one graph: the B token sequences are
stacked row-wise, (B * (1 + N)) x D, and attention stays within each
image's 1 + N rows. One image is the B = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatch, Tensor


class BadPatchSize(ValueError):
    pass


@dataclass
class PatchSequence:
    """Raster-order flattened patches of `images` images, stacked row-wise:
    images * count rows of length patch_size**2 * channels.
    """

    patches: Tensor
    patch_size: int
    channels: int
    images: int = 1

    @property
    def count(self) -> int:
        """Patches per image."""
        return self.patches.shape[0] // self.images


def patchify(image: np.ndarray, patch_size: int) -> PatchSequence:
    """Cut a (C, H, W) image, or a (B, C, H, W) batch, into non-overlapping
    flattened square patches.

    Patches are ordered row-major over the patch grid; each patch is
    flattened channel-major (all of channel 0, then channel 1, ...).
    Images follow one another in batch order.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (3, 4):
        raise ShapeMismatch(f"expected (C, H, W) image or (B, C, H, W) batch, got shape {image.shape}")
    b, c, h, w = image.reshape((-1,) + image.shape[-3:]).shape
    if patch_size < 1 or h % patch_size or w % patch_size:
        raise BadPatchSize(f"patch size {patch_size} does not tile {h}x{w}")
    gh, gw = h // patch_size, w // patch_size
    grid = image.reshape(b, c, gh, patch_size, gw, patch_size).transpose(0, 2, 4, 1, 3, 5)
    return PatchSequence(ad.tensor(grid.reshape(b * gh * gw, -1)), patch_size, c, images=b)


@dataclass
class BlockParams:
    wq: list[Tensor]  # per head, D x d_h
    wk: list[Tensor]
    wv: list[Tensor]
    wo: Tensor        # D x D
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


@dataclass
class VitParams:
    patch_proj: Tensor  # (P^2 * C) x D
    cls_token: Tensor   # 1 x D
    pos_embed: Tensor   # (1 + N) x D
    blocks: list[BlockParams] = field(default_factory=list)

    @property
    def width(self) -> int:
        return self.patch_proj.shape[1]

    def named(self, prefix: str = "vit") -> dict[str, Tensor]:
        out = {
            f"{prefix}.patch_proj": self.patch_proj,
            f"{prefix}.cls_token": self.cls_token,
            f"{prefix}.pos_embed": self.pos_embed,
        }
        for i, blk in enumerate(self.blocks):
            out.update(block_named(prefix, i, blk))
        return out


def block_named(prefix: str, i: int, block: BlockParams) -> dict[str, Tensor]:
    """Checkpoint names of block `i`'s tensors, in their fixed order."""
    out = {}
    for h, (q, k, v) in enumerate(zip(block.wq, block.wk, block.wv)):
        out[f"{prefix}.b{i}.wq{h}"] = q
        out[f"{prefix}.b{i}.wk{h}"] = k
        out[f"{prefix}.b{i}.wv{h}"] = v
    out[f"{prefix}.b{i}.wo"] = block.wo
    out[f"{prefix}.b{i}.mlp_w1"] = block.mlp_w1
    out[f"{prefix}.b{i}.mlp_b1"] = block.mlp_b1
    out[f"{prefix}.b{i}.mlp_w2"] = block.mlp_w2
    out[f"{prefix}.b{i}.mlp_b2"] = block.mlp_b2
    out[f"{prefix}.b{i}.ln1_gain"] = block.ln1_gain
    out[f"{prefix}.b{i}.ln1_bias"] = block.ln1_bias
    out[f"{prefix}.b{i}.ln2_gain"] = block.ln2_gain
    out[f"{prefix}.b{i}.ln2_bias"] = block.ln2_bias
    return out


@dataclass
class BackboneOutput:
    o_cls: Tensor    # B x D, one row per image
    o_patch: Tensor  # (B * N) x D, each image's N rows in turn


INIT_STD = 0.02


def check_heads(width: int, heads: int, width_name: str = "width", heads_name: str = "heads") -> None:
    """Attention needs at least one head and a width the heads split evenly."""
    if heads < 1:
        raise ShapeMismatch(f"{heads_name} must be positive, got {heads}")
    if width % heads:
        raise ShapeMismatch(f"{width_name} {width} not divisible by {heads} {heads_name}")


def init_block(rng: np.random.Generator, width: int, heads: int, trainable: bool = True) -> BlockParams:
    check_heads(width, heads)
    d_h = width // heads

    def w(*shape):
        return ad.tensor(rng.normal(0.0, INIT_STD, shape), requires_grad=trainable)

    return BlockParams(
        wq=[w(width, d_h) for _ in range(heads)],
        wk=[w(width, d_h) for _ in range(heads)],
        wv=[w(width, d_h) for _ in range(heads)],
        wo=w(width, width),
        mlp_w1=w(width, width),
        mlp_b1=ad.tensor(np.zeros(width), requires_grad=trainable),
        mlp_w2=w(width, width),
        mlp_b2=ad.tensor(np.zeros(width), requires_grad=trainable),
        ln1_gain=ad.tensor(np.ones(width), requires_grad=trainable),
        ln1_bias=ad.tensor(np.zeros(width), requires_grad=trainable),
        ln2_gain=ad.tensor(np.ones(width), requires_grad=trainable),
        ln2_bias=ad.tensor(np.zeros(width), requires_grad=trainable),
    )


def init_vit(
    rng: np.random.Generator,
    patch_len: int,
    n_patches: int,
    width: int,
    heads: int,
    depth: int,
) -> VitParams:
    """Seeded normal(0, 0.02) weights, zero biases, unit layer-norm gains."""
    return VitParams(
        patch_proj=ad.tensor(rng.normal(0.0, INIT_STD, (patch_len, width)), requires_grad=True),
        cls_token=ad.tensor(rng.normal(0.0, INIT_STD, (1, width)), requires_grad=True),
        pos_embed=ad.tensor(rng.normal(0.0, INIT_STD, (1 + n_patches, width)), requires_grad=True),
        blocks=[init_block(rng, width, heads) for _ in range(depth)],
    )


def msa(x: Tensor, block: BlockParams, group: int | None = None) -> Tensor:
    """Multi-head self-attention within each block of `group` rows (all
    rows when None): scaled dot-product per head, concat, project.
    """
    group = x.shape[0] if group is None else group
    merged = ad.self_attention(x, block.wq, block.wk, block.wv, group)
    return ad.matmul(merged, block.wo)


def _mlp(x: Tensor, block: BlockParams) -> Tensor:
    h = ad.gelu(ad.linear(x, block.mlp_w1, block.mlp_b1))
    return ad.linear(h, block.mlp_w2, block.mlp_b2)


def encoder_block(x: Tensor, block: BlockParams, group: int | None = None) -> Tensor:
    y = ad.add(x, msa(ad.layer_norm(x, block.ln1_gain, block.ln1_bias), block, group))
    return ad.add(y, _mlp(ad.layer_norm(y, block.ln2_gain, block.ln2_bias), block))


def split_rows(x: Tensor, seq_len: int, first: int) -> tuple[Tensor, Tensor]:
    """Undo a row-stacking of sequences of `seq_len` rows: each sequence's
    first `first` rows, then its remaining rows, each still row-stacked.
    """
    return ad.slice_rows(x, 0, first, group=seq_len), ad.slice_rows(x, first, seq_len, group=seq_len)


def vit_forward(seq: PatchSequence, params: VitParams) -> BackboneOutput:
    if seq.patches.shape[1] != params.patch_proj.shape[0]:
        raise ShapeMismatch(
            f"patch vectors of length {seq.patches.shape[1]} vs projection "
            f"input {params.patch_proj.shape[0]}"
        )
    n = seq.count
    if params.pos_embed.shape[0] != 1 + n:
        raise ShapeMismatch(f"position table rows {params.pos_embed.shape[0]} != 1 + {n}")
    b, width = seq.images, params.width
    projected = ad.matmul(seq.patches, params.patch_proj)
    # one row per image: [cls, patch 1, ..., patch N] flattened
    cls_rows = ad.matmul(ad.tensor(np.ones((b, 1))), params.cls_token)
    tokens = ad.concat([cls_rows, ad.reshape(projected, (b, n * width))], axis=1)
    positioned = ad.add_rowvec(tokens, ad.reshape(params.pos_embed, ((1 + n) * width,)))
    x = ad.reshape(positioned, (b * (1 + n), width))
    for block in params.blocks:
        x = encoder_block(x, block, group=1 + n)
    o_cls, o_patch = split_rows(x, 1 + n, 1)
    return BackboneOutput(o_cls=o_cls, o_patch=o_patch)
