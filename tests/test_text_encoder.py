"""The surrogate text tower must be frozen, deterministic, and unit-norm."""

import numpy as np
import pytest

from ovml import autodiff as ad
from ovml.autodiff import ShapeMismatch
from ovml.labels import init_prompt
from ovml.seeds import substream
from ovml.text_encoder import init_text_surrogate, text_surrogate_encode


def make_tower(seed=0, token_width=8, embed_dim=4, n_labels=3):
    rng = substream(seed, "test.text.tower")
    tokens = {i: rng.normal(0, 1, token_width) for i in range(n_labels)}
    return init_text_surrogate(rng, token_width, embed_dim, depth=1, heads=2, token_vectors=tokens)


def test_encode_is_deterministic_across_rebuilds():
    a = make_tower()
    b = make_tower()
    ctx = init_prompt(substream(1, "ctx"), 4, 8)
    ea = text_surrogate_encode(ctx, a.token_rows([0]), a)
    eb = text_surrogate_encode(ctx, b.token_rows([0]), b)
    np.testing.assert_array_equal(ea.data, eb.data)


def test_embeddings_are_unit_norm():
    tower = make_tower()
    ctx = init_prompt(substream(2, "ctx"), 4, 8)
    for lid in tower.tokens:
        emb = text_surrogate_encode(ctx, tower.token_rows([lid]), tower)
        assert np.linalg.norm(emb.data) == pytest.approx(1.0, abs=1e-12)
        assert emb.shape == (1, 4)


def test_distinct_tokens_give_distinct_embeddings():
    tower = make_tower()
    ctx = init_prompt(substream(2, "ctx"), 4, 8)
    e0 = text_surrogate_encode(ctx, tower.token_rows([0]), tower)
    e1 = text_surrogate_encode(ctx, tower.token_rows([1]), tower)
    assert not np.allclose(e0.data, e1.data)


def test_context_changes_the_embedding():
    tower = make_tower()
    c1 = init_prompt(substream(3, "c1"), 4, 8)
    c2 = init_prompt(substream(4, "c2"), 4, 8)
    e1 = text_surrogate_encode(c1, tower.token_rows([0]), tower)
    e2 = text_surrogate_encode(c2, tower.token_rows([0]), tower)
    assert not np.allclose(e1.data, e2.data)


def test_gradients_reach_only_the_context():
    tower = make_tower()
    ctx = init_prompt(substream(5, "ctx"), 4, 8, trainable=True)
    emb = text_surrogate_encode(ctx, tower.token_rows([0]), tower)
    ad.backward(ad.mean_all(emb))

    assert ctx.grad is not None
    assert np.abs(ctx.grad).max() > 0
    for name, t in tower.named().items():
        assert not t.requires_grad, name
        assert t.grad is None, name


def test_shape_validation():
    tower = make_tower(token_width=8)
    bad_ctx = ad.tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeMismatch):
        text_surrogate_encode(bad_ctx, tower.token_rows([0]), tower)
    good_ctx = ad.tensor(np.zeros((4, 8)))
    with pytest.raises(ShapeMismatch):
        text_surrogate_encode(good_ctx, ad.tensor(np.zeros((1, 5))), tower)
    with pytest.raises(ShapeMismatch):  # one token is a one-row matrix, not a vector
        text_surrogate_encode(good_ctx, tower.tokens[0], tower)
    with pytest.raises(ShapeMismatch):
        init_text_surrogate(
            substream(0, "x"), 8, 4, depth=1, heads=2, token_vectors={0: np.zeros(7)}
        )
