"""The fused token embedding, the fused two-stream score and the one-gemm
attention kernel against in-test copies of the graphs they replaced: the
forward data and every gradient are equal byte for byte.
"""

import numpy as np
import pytest

from ovml import autodiff as ad
from ovml.heads import HEAD_MODES, init_two_stream, score, two_stream
from ovml.labels import LabelEmbeddingTable
from ovml.losses import distill_loss, ranking_loss
from ovml.seeds import substream
from ovml.vit import BackboneOutput, PatchSequence, encoder_block, init_vit, split_rows, vit_forward

# --- the composed graphs, as they stood before fusion ---


def composed_vit_forward(seq, params):
    """Token assembly as seven op nodes, then the blocks and the row split."""
    b, n, width = seq.images, seq.count, params.width
    projected = ad.matmul(seq.patches, params.patch_proj)
    cls_rows = ad.matmul(ad.tensor(np.ones((b, 1))), params.cls_token)
    tokens = ad.concat([cls_rows, ad.reshape(projected, (b, n * width))], axis=1)
    positioned = ad.add_rowvec(tokens, ad.reshape(params.pos_embed, ((1 + n) * width,)))
    x = ad.reshape(positioned, (b * (1 + n), width))
    for block in params.blocks:
        x = encoder_block(x, block, group=1 + n)
    o_cls, o_patch = split_rows(x, 1 + n, 1)
    return BackboneOutput(o_cls=o_cls, o_patch=o_patch)


def composed_score(emb, labels, k, heads):
    """Scoring as transpose, matmul(s), topk_mean_cols and add."""
    n = emb.e_patch.shape[0] // emb.e_cls.shape[0]
    z_t = ad.transpose(labels.z)
    terms = []
    if heads != "local":
        terms.append(ad.matmul(emb.e_cls, z_t))
    if heads != "global":
        terms.append(ad.topk_mean_cols(ad.matmul(emb.e_patch, z_t), k, group=n))
    return terms[0] if len(terms) == 1 else ad.add(terms[0], terms[1])


def per_head_attention(x, wq, wk, wv, group):
    """The attention kernel with one gemm per weight, forward and backward."""
    heads, n, d_h = len(wq), x.shape[0], wq[0].shape[-1]
    weights = (*wq, *wk, *wv)
    m = n // group
    c = 1.0 / np.sqrt(d_h)
    products = np.concatenate([ad._gemm(x, w.data) for w in weights])
    q, k, v = products.reshape(3, heads, m, group, d_h)
    logits = (q @ k.swapaxes(2, 3)) * c
    p = ad._softmax(logits)

    def vjp(g):
        gb = g.reshape(m, group, heads, d_h).transpose(2, 0, 1, 3)
        dp = gb @ v.swapaxes(2, 3)
        ds = ad._softmax_vjp(p, dp) * c
        d_products = (ds @ k, ds.swapaxes(2, 3) @ q, p.swapaxes(2, 3) @ gb)
        gx = None
        gw = [None] * len(weights)
        for h in reversed(range(heads)):
            for role in (2, 1, 0):  # v, k, q
                d = d_products[role][h].reshape(n, d_h)
                w = weights[role * heads + h]
                term = d @ w.data.T
                gx = term if gx is None else gx + term
                if w.requires_grad:
                    gw[role * heads + h] = x.T @ d
        return (gx, *gw)

    return (p @ v).transpose(1, 2, 0, 3).reshape(n, heads * d_h), vjp


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        if w is None:
            assert g is None, i
        else:
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), i


# --- the whole forward and backward: tokens, blocks, heads, score, losses ---


def _positives(rng, b, d):
    while True:
        pos = rng.random((b, d)) < 0.5
        if (pos.any(axis=1) & ~pos.all(axis=1)).all():
            return pos


@pytest.mark.parametrize("table_grad", [False, True], ids=["table_const", "table_grad"])
@pytest.mark.parametrize("patch_grad", [False, True], ids=["patches_const", "patches_grad"])
@pytest.mark.parametrize("mode", HEAD_MODES)
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("batch", [1, 16])
def test_fused_graph_equals_composed_graph_bit_for_bit(batch, heads, mode, patch_grad, table_grad, monkeypatch):
    """A stage-1 style loss (ranking plus distillation) over a depth-2 ViT,
    the heads and a table that is constant or an l2-normalized leaf."""
    n, patch_len, width, dim, d, k = 4, 6, 8, 5, 7, 2
    rng = substream(batch * 100 + heads, f"test.fused.graph.{mode}")
    patches0 = rng.normal(0, 1.0, (batch * n, patch_len))
    z0 = rng.normal(0, 1.0, (d, dim))
    positive = _positives(rng, batch, d)
    teacher = rng.normal(0, 1.0, (batch, dim))

    def run(forward, scoring):
        prng = substream(heads, "test.fused.graph.params")
        params = init_vit(prng, patch_len, n, width, heads, depth=2)
        streams = init_two_stream(prng, width, dim)
        leaves = [*params.named().values(), *streams.named().values()]
        for t in leaves:
            t.data = prng.normal(0, 0.5, t.shape)
        patches = ad.tensor(patches0, requires_grad=patch_grad)
        z = ad.tensor(z0, requires_grad=table_grad)
        table = LabelEmbeddingTable(z=ad.l2_normalize(z), label_ids=tuple(range(d)))
        emb = two_stream(forward(PatchSequence(patches, images=batch), params), streams)
        s = scoring(emb, table, k, mode)
        loss = ad.add(ranking_loss(s, positive), ad.scale(distill_loss(emb.e_cls, teacher), 0.7))
        ad.backward(loss)
        return [s.data, loss.data, patches.grad, z.grad] + [t.grad for t in leaves]

    with monkeypatch.context() as m:
        m.setattr(ad, "_attention", per_head_attention)
        want = run(composed_vit_forward, composed_score)
    got = run(vit_forward, score)
    assert (want[2] is None) != patch_grad and (want[3] is None) != table_grad
    _assert_same_bytes(got, want)
