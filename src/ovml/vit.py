"""Trainable vision transformer backbone.

Pre-norm residual blocks: the token sequence is [cls, patches] plus a
position embedding, each block applies multi-head self-attention and a
two-layer GELU MLP, both on normalized inputs inside the residual
branch. The final sequence splits into a class row and patch rows.

The token embedding (patch projection, class row, position table) and
each `encoder_block` are one fused graph node: they run autodiff's array
kernels (gemm, layer norm, attention, linear, GELU) and record no
intermediate tensor, bit-identical to the composition of those ops. `msa`
is the block's attention sublayer, `_msa`, as its own node.

A batch of B images runs as one graph: the B token sequences are
stacked row-wise, (B * (1 + N)) x D, and attention stays within each
image's 1 + N rows. One image is the B = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatch, Tensor


@dataclass
class PatchSequence:
    """Raster-order flattened patches of `images` images, stacked row-wise:
    images * count rows, one per patch.
    """

    patches: Tensor
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
        raise ShapeMismatch(f"patch size {patch_size} does not tile {h}x{w}")
    gh, gw = h // patch_size, w // patch_size
    grid = image.reshape(b, c, gh, patch_size, gw, patch_size).transpose(0, 2, 4, 1, 3, 5)
    return PatchSequence(ad.tensor(grid.reshape(b * gh * gw, -1)), images=b)


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


def _msa(x: np.ndarray, block: BlockParams, group: int):
    """`msa` on an array x: the output, and a vjp giving x's, the head weights' and wo's gradients."""
    att, att_vjp = ad._attention(x, block.wq, block.wk, block.wv, group)
    ad._check_product("msa", att, block.wo.data)

    def vjp(g):
        gatt, gwo = ad._product_vjp(att, block.wo, g, need_a=True)
        return *att_vjp(gatt), gwo

    return ad._gemm(att, block.wo.data), vjp


def msa(x: Tensor, block: BlockParams, group: int) -> Tensor:
    """Multi-head self-attention within each block of `group` rows:
    scaled dot-product per head, concat, project, as one node.
    """
    out, vjp = _msa(x.data, block, group)
    return ad._result(out, (x, *block.wq, *block.wk, *block.wv, block.wo), vjp)


def encoder_block(x: Tensor, block: BlockParams, group: int) -> Tensor:
    """One pre-norm block as one graph node, attention within each block of
    `group` rows: y = x + msa(layer_norm(x)), then y + mlp(layer_norm(y)),
    where mlp is linear, gelu, linear.

    It runs `_msa` and the kernels of the other ops, and its vjp does the
    eight-op composition's arithmetic in the same order, so results are
    bit-identical to it: the residual's gradient comes first in each sum at
    x and y, every product goes through the kernels' gemm, and a weight gets
    a gradient only when it requires one. The attention logits and the
    output are checked finite, so an overflow anywhere in the block raises
    NonFinite here.
    """
    b = block
    if x.data.ndim != 2 or b.wo.shape[-1] != x.shape[1] or b.mlp_w2.shape[-1] != x.shape[1]:
        raise ShapeMismatch(f"encoder block over {x.shape} with wo {b.wo.shape} and mlp_w2 {b.mlp_w2.shape}")
    h1, ln1_vjp = ad._layer_norm(x.data, b.ln1_gain, b.ln1_bias)
    att, msa_vjp = _msa(h1, b, group)
    y = x.data + att
    h2, ln2_vjp = ad._layer_norm(y, b.ln2_gain, b.ln2_bias)
    u, mlp1_vjp = ad._linear(h2, b.mlp_w1, b.mlp_b1, need_x=True)
    a, gelu_vjp = ad._gelu(u)
    m, mlp2_vjp = ad._linear(a, b.mlp_w2, b.mlp_b2, need_x=True)

    def vjp(g):
        ga, gw2, gb2 = mlp2_vjp(g)
        gh2, gw1, gb1 = mlp1_vjp(gelu_vjp(ga))
        gy_ln, g_gain2, g_bias2 = ln2_vjp(gh2)
        gy = g + gy_ln
        gh1, *g_heads, gwo = msa_vjp(gy)
        gx_ln, g_gain1, g_bias1 = ln1_vjp(gh1)
        gx = gy + gx_ln if x.requires_grad else None
        return gx, *g_heads, gwo, gw1, gb1, gw2, gb2, g_gain1, g_bias1, g_gain2, g_bias2

    parents = (
        x, *b.wq, *b.wk, *b.wv, b.wo, b.mlp_w1, b.mlp_b1, b.mlp_w2, b.mlp_b2,
        b.ln1_gain, b.ln1_bias, b.ln2_gain, b.ln2_bias,
    )
    return ad._result(y + m, parents, vjp)


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
    patches, proj, cls, pos = seq.patches, params.patch_proj, params.cls_token, params.pos_embed
    # one node: each image's rows are [cls, patch 1 @ proj, ..., patch N @ proj]
    # plus the position table. Its vjp does the arithmetic of the composition
    # it replaces (two matmuls, three reshapes, concat, add_rowvec) in order.
    tokens = np.empty((b, 1 + n, width))
    tokens[:, 0] = cls.data
    tokens[:, 1:] = ad._gemm(patches.data, proj.data).reshape(b, n, width)
    tokens += pos.data

    def vjp(g):
        g = g.reshape(b, (1 + n) * width)
        g_patches, g_proj = ad._product_vjp(patches.data, proj, g[:, width:].reshape(b * n, width), patches.requires_grad)
        # a product with ones, not a column sum: the two round differently
        g_cls = np.ones((b, 1)).T @ g[:, :width] if cls.requires_grad else None
        return g_patches, g_proj, g_cls, np.add.reduce(g, axis=0).reshape(1 + n, width) if pos.requires_grad else None

    x = ad._result(tokens.reshape(b * (1 + n), width), (patches, proj, cls, pos), vjp)
    for block in params.blocks:
        x = encoder_block(x, block, group=1 + n)
    o_cls, o_patch = split_rows(x, 1 + n, 1)
    return BackboneOutput(o_cls=o_cls, o_patch=o_patch)
