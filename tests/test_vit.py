"""Backbone oracles: patch extraction layout, attention vs a numpy
re-implementation, and structural invariants of the residual encoder.
"""

import numpy as np
import pytest

from ovml import autodiff as ad
from ovml import vit
from ovml.autodiff import ShapeMismatch
from ovml.model import ModelConfig
from ovml.seeds import substream
from ovml.synth import SynthConfig
from ovml.vit import BadPatchSize, PatchSequence, init_vit, msa, patchify, vit_forward


def test_patchify_raster_order_hand_case():
    img = np.arange(16.0).reshape(1, 4, 4)
    seq = patchify(img, 2)
    assert seq.count == 4
    np.testing.assert_array_equal(
        seq.patches.data,
        [
            [0, 1, 4, 5],      # top-left
            [2, 3, 6, 7],      # top-right
            [8, 9, 12, 13],    # bottom-left
            [10, 11, 14, 15],  # bottom-right
        ],
    )


def test_patchify_channels_are_flattened_channel_major():
    img = np.stack([np.arange(4.0).reshape(2, 2), 100 + np.arange(4.0).reshape(2, 2)])
    seq = patchify(img, 2)
    np.testing.assert_array_equal(seq.patches.data, [[0, 1, 2, 3, 100, 101, 102, 103]])


def test_patchify_rejects_non_tiling_sizes():
    img = np.zeros((1, 4, 4))
    for p in (0, 3, 5):
        with pytest.raises(BadPatchSize):
            patchify(img, p)
    with pytest.raises(ShapeMismatch):
        patchify(np.zeros((4, 4)), 2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: vit.init_block(substream(0, "test.vit.heads"), width=8, heads=0),
        lambda: vit.init_block(substream(0, "test.vit.heads"), width=8, heads=3),
        lambda: ModelConfig(heads=0),
        lambda: ModelConfig(width=16, heads=3),
        lambda: SynthConfig(surrogate_heads=0),
        lambda: SynthConfig(token_width=16, surrogate_heads=3),
    ],
    ids=["block_zero", "block_indivisible", "model_zero", "model_indivisible", "synth_zero", "synth_indivisible"],
)
def test_head_counts_validated(make):
    with pytest.raises(ShapeMismatch, match="heads"):
        make()


def test_depth_zero_is_projection_plus_positions():
    rng = substream(7, "test.vit.depth0")
    params = init_vit(rng, patch_len=4, n_patches=4, width=6, heads=2, depth=0)
    img = rng.normal(0, 1, (1, 4, 4))
    seq = patchify(img, 2)
    out = vit_forward(seq, params)
    np.testing.assert_allclose(
        out.o_cls.data, params.cls_token.data + params.pos_embed.data[:1], atol=1e-14
    )
    np.testing.assert_allclose(
        out.o_patch.data,
        seq.patches.data @ params.patch_proj.data + params.pos_embed.data[1:],
        atol=1e-14,
    )


def _numpy_msa(x, block):
    d_h = block.wq[0].shape[1]
    heads = []
    for wq, wk, wv in zip(block.wq, block.wk, block.wv):
        logits = (x @ wq.data) @ (x @ wk.data).T / np.sqrt(d_h)
        logits -= logits.max(axis=1, keepdims=True)
        att = np.exp(logits)
        att /= att.sum(axis=1, keepdims=True)
        heads.append(att @ (x @ wv.data))
    return np.concatenate(heads, axis=1) @ block.wo.data


def test_msa_matches_numpy_reimplementation():
    rng = substream(3, "test.vit.msa")
    block = vit.init_block(rng, width=8, heads=2)
    for p in [block.wq, block.wk, block.wv]:
        for t in p:
            t.data[...] = rng.normal(0, 0.5, t.shape)
    block.wo.data[...] = rng.normal(0, 0.5, block.wo.shape)
    x = rng.normal(0, 1.0, (5, 8))
    np.testing.assert_allclose(msa(ad.tensor(x), block, group=5).data, _numpy_msa(x, block), atol=1e-12)


def _grouped_attention(q, k, v, group):
    """One head's attention as its own graph node. With per-head matmuls
    and a concat around it, this is the unfused graph that msa must match
    bit for bit.
    """
    n, d_h = q.shape
    blocks = (n // group, group, d_h)
    qb, kb, vb = q.data.reshape(blocks), k.data.reshape(blocks), v.data.reshape(blocks)
    c = 1.0 / np.sqrt(d_h)
    logits = (qb @ kb.transpose(0, 2, 1)) * c
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    p = e / e.sum(axis=2, keepdims=True)

    def vjp(g):
        gb = g.reshape(blocks)
        dp = gb @ vb.transpose(0, 2, 1)
        ds = p * (dp - (dp * p).sum(axis=2, keepdims=True)) * c
        return (
            (ds @ kb).reshape(n, d_h),
            (ds.transpose(0, 2, 1) @ qb).reshape(n, d_h),
            (p.transpose(0, 2, 1) @ gb).reshape(n, d_h),
        )

    return ad._result((p @ vb).reshape(n, d_h), (q, k, v), vjp)


def _per_head_msa(x, block, group):
    heads = [
        _grouped_attention(ad.matmul(x, wq), ad.matmul(x, wk), ad.matmul(x, wv), group)
        for wq, wk, wv in zip(block.wq, block.wk, block.wv)
    ]
    merged = heads[0] if len(heads) == 1 else ad.concat(heads, axis=1)
    return ad.matmul(merged, block.wo)


@pytest.mark.parametrize("trainable", [True, False], ids=["trainable", "frozen"])
@pytest.mark.parametrize("rows, group", [(6, 1), (6, 3), (1, 1), (80, 5)])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_msa_equals_per_head_composition_bit_for_bit(heads, rows, group, trainable):
    rng = substream(heads * 100 + rows * 10 + group, "test.vit.msa_exact")
    block = vit.init_block(rng, width=8, heads=heads, trainable=trainable)
    weights = [*block.wq, *block.wk, *block.wv, block.wo]
    for t in weights:
        t.data = rng.normal(0, 0.5, t.shape)
    x0 = rng.normal(0, 1.0, (rows, 8))
    outer = ad.tensor(rng.normal(0, 1.0, (rows * 8, 1)))

    def run(attend):
        for t in weights:
            t.zero_grad()
        x = ad.tensor(x0, requires_grad=True)
        out = attend(x, block, group)
        ad.backward(ad.mean_all(ad.matmul(ad.reshape(ad.gelu(out), (1, rows * 8)), outer)))
        return [out.data, x.grad] + [t.grad for t in weights]

    for got, want in zip(run(msa), run(_per_head_msa)):
        if want is None:
            assert got is None
        else:
            assert np.array_equal(got, want)


def _composed_block(x, block, group):
    """The encoder block as the nine-op graph it replaced: the reference the
    fused op must match bit for bit.
    """
    y = ad.add(x, msa(ad.layer_norm(x, block.ln1_gain, block.ln1_bias), block, group))
    h = ad.gelu(ad.linear(ad.layer_norm(y, block.ln2_gain, block.ln2_bias), block.mlp_w1, block.mlp_b1))
    return ad.add(y, ad.linear(h, block.mlp_w2, block.mlp_b2))


@pytest.mark.parametrize("trainable", [True, False], ids=["trainable", "frozen"])
@pytest.mark.parametrize("rows, group", [(6, 3), (6, 1), (1, 1)])
@pytest.mark.parametrize("heads", [1, 2])
def test_encoder_block_equals_composition_bit_for_bit(heads, rows, group, trainable):
    rng = substream(heads * 100 + rows * 10 + group, "test.vit.block_exact")
    block = vit.init_block(rng, width=8, heads=heads, trainable=trainable)
    params = list(vit.block_named("b", 0, block).values())
    for t in params:
        t.data = rng.normal(0, 0.5, t.shape)
    x0 = rng.normal(0, 1.0, (rows, 8))
    outer = ad.tensor(rng.normal(0, 1.0, (rows * 8, 1)))

    def run(forward):
        for t in params:
            t.zero_grad()
        x = ad.tensor(x0, requires_grad=True)
        out = forward(x, block, group)
        ad.backward(ad.mean_all(ad.matmul(ad.reshape(ad.gelu(out), (1, rows * 8)), outer)))
        return [out.data, x.grad] + [t.grad for t in params]

    got, want = run(vit.encoder_block), run(_composed_block)
    assert want[1] is not None and (want[2] is None) == (not trainable)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert np.array_equal(g, w)


def _raise_site(excinfo):
    """The innermost frames of a raised exception, by function name."""
    return [entry.name for entry in excinfo.traceback]


def test_overflow_in_the_block_mlp_raises_nonfinite_from_the_block():
    rng = substream(0, "test.vit.block_overflow")
    block = vit.init_block(rng, width=8, heads=2)
    block.mlp_b1.data[...] = 10.0  # gelu(10) = 10, so the MLP output is about 8 * 10 * 1e308
    block.mlp_w2.data[...] = 1e308
    x = ad.tensor(rng.normal(0, 1.0, (6, 8)), requires_grad=True)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ad.NonFinite) as excinfo:
        vit.encoder_block(x, block, group=3)
    # checked when the block's own output tensor is built, not at an inner op
    assert _raise_site(excinfo)[-3:] == ["encoder_block", "_result", "__init__"]


def test_overflowing_attention_logits_raise_nonfinite_from_the_block():
    rng = substream(1, "test.vit.block_overflow")
    block = vit.init_block(rng, width=8, heads=2)
    for t in [*block.wq, *block.wk]:
        t.data[...] = 1e200  # layer-normed rows have entries near 1, so q k^T overflows
    x = ad.tensor(rng.normal(0, 1.0, (6, 8)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ad.NonFinite, match="logits") as excinfo:
        vit.encoder_block(x, block, group=3)
    assert _raise_site(excinfo)[-2:] == ["encoder_block", "_attention"]


@pytest.mark.parametrize("first", [1, 3])
def test_split_rows_matches_plain_slicing(first):
    rng = substream(first, "test.vit.split")
    b, seq_len, d = 3, 4, 5
    x0 = rng.normal(0, 1.0, (b * seq_len, d))
    x = ad.tensor(x0, requires_grad=True)
    head, tail = vit.split_rows(x, seq_len, first)
    seqs = x0.reshape(b, seq_len, d)
    assert np.array_equal(head.data, seqs[:, :first].reshape(-1, d))
    assert np.array_equal(tail.data, seqs[:, first:].reshape(-1, d))
    w_head, w_tail = rng.normal(0, 1.0, head.shape), rng.normal(0, 1.0, tail.shape)

    def weighted(part, w):
        return ad.matmul(ad.reshape(part, (1, w.size)), ad.tensor(w.reshape(w.size, 1)))

    ad.backward(ad.mean_all(ad.add(weighted(head, w_head), weighted(tail, w_tail))))
    want = np.zeros((b, seq_len, d))
    want[:, :first] = w_head.reshape(b, first, d)
    want[:, first:] = w_tail.reshape(b, seq_len - first, d)
    assert np.array_equal(x.grad, want.reshape(b * seq_len, d))


def test_patch_outputs_permutation_equivariant_without_positions():
    rng = substream(11, "test.vit.perm")
    params = init_vit(rng, patch_len=4, n_patches=6, width=8, heads=2, depth=2)
    params.pos_embed.data[...] = 0.0
    patches = rng.normal(0, 1, (6, 4))
    perm = rng.permutation(6)

    base = vit_forward(PatchSequence(ad.tensor(patches), images=1), params)
    moved = vit_forward(PatchSequence(ad.tensor(patches[perm]), images=1), params)

    np.testing.assert_allclose(moved.o_cls.data, base.o_cls.data, atol=1e-12)
    np.testing.assert_allclose(moved.o_patch.data, base.o_patch.data[perm], atol=1e-12)


def test_vit_forward_checks_position_table_size():
    rng = substream(0, "test.vit.pos")
    params = init_vit(rng, patch_len=4, n_patches=9, width=4, heads=1, depth=0)
    img = np.zeros((1, 4, 4))  # only 4 patches, table expects 9
    with pytest.raises(ShapeMismatch):
        vit_forward(patchify(img, 2), params)


def test_init_is_seed_deterministic():
    a = init_vit(substream(5, "m"), 4, 4, 8, 2, 2)
    b = init_vit(substream(5, "m"), 4, 4, 8, 2, 2)
    for (ka, va), (kb, vb) in zip(sorted(a.named().items()), sorted(b.named().items())):
        assert ka == kb
        np.testing.assert_array_equal(va.data, vb.data)


def test_backbone_gradients_against_finite_differences():
    rng = substream(9, "test.vit.fd")
    params = init_vit(rng, patch_len=4, n_patches=3, width=4, heads=2, depth=1)
    leaves = list(params.named().values())
    for t in leaves:
        t.data[...] = rng.normal(0, 0.5, t.shape)
    patches = rng.normal(0, 1, (3, 4))

    def build():
        out = vit_forward(PatchSequence(ad.tensor(patches), images=1), params)
        return ad.mean_all(ad.concat([out.o_cls, out.o_patch], axis=0))

    assert ad.finite_difference_check(build, leaves) < 1e-4
