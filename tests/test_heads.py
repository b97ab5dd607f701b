"""Two-stream projection and label scoring against hand values and loop oracles."""

import numpy as np
import pytest

from ovml import autodiff as ad
from ovml.autodiff import KOutOfRange, NonFinite, ShapeMismatch, finite_difference_check
from ovml.gradcheck import GAP, _topk_gap
from ovml.heads import (
    HEAD_MODES,
    EmbeddingPair,
    init_two_stream,
    score,
    two_stream,
)
from ovml.labels import LabelEmbeddingTable
from ovml.seeds import substream
from ovml.vit import BackboneOutput


def pair(e_cls, e_patch):
    return EmbeddingPair(
        e_cls=ad.tensor(np.atleast_2d(np.asarray(e_cls, float))),
        e_patch=ad.tensor(np.asarray(e_patch, float)),
    )


def table_of(z):
    z = np.asarray(z, float)
    return LabelEmbeddingTable(z=ad.tensor(z), label_ids=tuple(range(len(z))))


def test_score_hand_case():
    # label z=[1,0]; global term <z, e_cls> = 0.5;
    # patch sims = [1, 0], top-2 mean = 0.5; total 1.0
    emb = pair([0.5, 0.0], [[1.0, 0.0], [0.0, 0.0]])
    t = table_of([[1.0, 0.0]])
    assert score(emb, t, k=2).data[0] == pytest.approx(1.0)
    assert score(emb, t, k=2, heads="global").data[0] == pytest.approx(0.5)
    assert score(emb, t, k=2, heads="local").data[0] == pytest.approx(0.5)
    assert score(emb, t, k=1, heads="local").data[0] == pytest.approx(1.0)


def test_both_equals_global_plus_local():
    rng = substream(0, "test.heads.add")
    emb = pair(rng.normal(0, 1, (1, 5)), rng.normal(0, 1, (7, 5)))
    t = table_of(rng.normal(0, 1, (4, 5)))
    both = score(emb, t, k=3).data
    g = score(emb, t, k=3, heads="global").data
    l = score(emb, t, k=3, heads="local").data
    np.testing.assert_allclose(both, g + l, atol=1e-12)


def test_score_matches_per_label_loop():
    rng = substream(1, "test.heads.loop")
    e_cls = rng.normal(0, 1, 5)
    e_patch = rng.normal(0, 1, (6, 5))
    z = rng.normal(0, 1, (4, 5))
    k = 2
    got = score(pair(e_cls, e_patch), table_of(z), k=k).data[0]
    for j in range(4):
        sims = np.sort(e_patch @ z[j])[::-1]
        want = z[j] @ e_cls + sims[:k].mean()
        assert got[j] == pytest.approx(want, abs=1e-12)


def test_k_equals_patch_count_is_mean_pooling():
    rng = substream(2, "test.heads.kn")
    e_patch = rng.normal(0, 1, (9, 5))
    z = rng.normal(0, 1, (6, 5))
    emb = pair(rng.normal(0, 1, 5), e_patch)
    got = score(emb, table_of(z), k=9, heads="local").data[0]
    want = (e_patch @ z.T).mean(axis=0)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_k_validation_only_where_local_stream_runs():
    emb = pair(np.zeros(3), np.zeros((2, 3)))
    t = table_of(np.eye(3))
    with pytest.raises(KOutOfRange):
        score(emb, t, k=3)
    with pytest.raises(KOutOfRange):
        score(emb, t, k=0, heads="local")
    score(emb, t, k=99, heads="global")  # global head never consults k
    with pytest.raises(ValueError):
        score(emb, t, k=1, heads="wide")


def test_patch_rows_must_split_evenly_over_the_images():
    # 8 patch rows for 3 images would otherwise pool as 4 images of 2 rows each
    emb = pair(np.zeros((3, 3)), np.zeros((8, 3)))
    with pytest.raises(ShapeMismatch, match="8 patch rows for 3 images"):
        score(emb, table_of(np.eye(3)), k=1, heads="local")


@pytest.mark.parametrize("mode", HEAD_MODES)
def test_score_gradients_against_finite_differences(mode):
    """The fused score's vjp in each head mode, the table a requires-grad
    leaf, on an instance whose top-k boundaries sit clear of ties."""
    rng = substream(4, f"test.heads.fd.{mode}")
    b, n, d, dim, k = 2, 4, 3, 4, 2
    while True:
        e_cls, e_patch, z = (ad.tensor(rng.normal(0, 1, shape), requires_grad=True)
                             for shape in ((b, dim), (b * n, dim), (d, dim)))
        if mode == "global" or _topk_gap(e_patch.data @ z.data.T, n, k) > GAP:
            break
    weights = ad.tensor(rng.normal(0, 1, (b * d, 1)))  # a different weight for every score

    def build():
        s = score(EmbeddingPair(e_cls=e_cls, e_patch=e_patch), LabelEmbeddingTable(z, tuple(range(d))), k, mode)
        return ad.mean_all(ad.matmul(ad.reshape(s, (1, b * d)), weights))

    finite_difference_check(build, [e_cls, e_patch, z])
    assert z.grad is not None and (e_patch.grad is None) == (mode == "global")
    assert (e_cls.grad is None) == (mode == "local")


def test_non_finite_similarity_outside_the_top_k_still_raises():
    # one patch's similarities overflow to -inf, which top-2 pooling would drop
    e_patch = np.array([[1.0, 0.0], [0.5, 0.0], [-1e300, 0.0]])
    emb = pair([0.0, 0.0], e_patch)
    with np.errstate(over="ignore"), pytest.raises(NonFinite):
        score(emb, table_of([[1e300, 0.0]]), k=2, heads="local")


def test_two_stream_shapes_and_structure():
    rng = substream(3, "test.heads.ts")
    params = init_two_stream(rng, width=6, embed_dim=4)
    out = BackboneOutput(
        o_cls=ad.tensor(rng.normal(0, 1, (1, 6))),
        o_patch=ad.tensor(rng.normal(0, 1, (5, 6))),
    )
    emb = two_stream(out, params)
    assert emb.e_cls.shape == (1, 4)
    assert emb.e_patch.shape == (5, 4)
    # global head is affine: doubling the input doubles (output - bias)
    doubled = two_stream(
        BackboneOutput(o_cls=ad.scale(out.o_cls, 2.0), o_patch=out.o_patch), params
    )
    np.testing.assert_allclose(
        doubled.e_cls.data - params.global_b.data,
        2 * (emb.e_cls.data - params.global_b.data),
        atol=1e-12,
    )
