"""Engine-level oracles: hand-computed gradients, finite differences,
and the exact subgradient conventions at kinks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovml import autodiff as ad
from ovml import vit
from ovml.autodiff import (
    DoubleBackward,
    KOutOfRange,
    NonFinite,
    NotScalar,
    ShapeMismatch,
    finite_difference_check,
)
from ovml.model import encode, fixed_table, init_model
from ovml.seeds import substream
from ovml.synth import build_world, sample
from ovml.training import stage1_losses, stage2_loss


def rng_for(name):
    return substream(0, f"test.autodiff.{name}")


def test_matmul_gradients_match_hand_formula():
    a = ad.tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = ad.tensor([[5.0], [6.0]], requires_grad=True)
    out = ad.matmul(a, b)
    ad.backward(ad.mean_all(out))
    # d(mean)/dout = 1/2 each; dA = g @ B^T, dB = A^T @ g
    g = np.full((2, 1), 0.5)
    np.testing.assert_allclose(a.grad, g @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ g)


def test_matmul_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))
    with pytest.raises(ShapeMismatch):
        ad.matmul(ad.tensor(np.ones(3)), ad.tensor(np.ones((3, 2))))


def test_nonfinite_rejected_at_construction():
    with pytest.raises(NonFinite):
        ad.tensor([1.0, np.inf])
    with pytest.raises(NonFinite):
        ad.tensor(np.nan)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("shape", [(), (3,), (2, 3)], ids=["0d", "1d", "2d"])
def test_nonfinite_rejected_in_any_rank(bad, shape):
    data = np.ones(shape)
    data[(0,) * len(shape)] = bad
    with pytest.raises(NonFinite):
        ad.tensor(data)
    with pytest.raises(NonFinite):
        ad.tensor(data, requires_grad=True)


def test_nonfinite_rejected_at_the_op_that_overflows():
    big = ad.tensor([[1.7e308, 1.0]], requires_grad=True)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFinite):
            ad.scale(big, 1e200)
        with pytest.raises(NonFinite):
            ad.matmul(big, ad.tensor([[1e200], [0.0]]))
        with pytest.raises(NonFinite):
            ad.add(big, big)


@pytest.mark.parametrize("target, message", [("logits", "logits"), ("values", "tensor holds")])
def test_nonfinite_rejected_by_the_attention_op(target, message):
    # an overflowing q/k product trips the logits check, an overflowing v the output check
    x = ad.tensor(np.full((4, 2), 1e200), requires_grad=True)
    block = vit.init_block(substream(0, "test.autodiff.attention"), width=2, heads=1)
    small, big = np.full((2, 2), 1e-300), np.full((2, 2), 1e200)
    qk, v = (big, small) if target == "logits" else (small, big)
    block.wq[0].data, block.wk[0].data, block.wv[0].data = qk, qk, v
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite, match=message):
            vit.msa(x, block, group=2)


@pytest.mark.parametrize("rows", [1, 4])
def test_linear_equals_matmul_plus_rowvec_bit_for_bit(rows):
    rng = rng_for(f"linear{rows}")
    x0, w0, b0 = rng.normal(0, 1, (rows, 5)), rng.normal(0, 1, (5, 3)), rng.normal(0, 1, 3)

    def run(layer):
        x, w, b = (ad.tensor(a, requires_grad=True) for a in (x0, w0, b0))
        out = layer(x, w, b)
        ad.backward(ad.mean_all(ad.gelu(out)))  # a gradient that differs per entry
        return out.data, x.grad, w.grad, b.grad

    fused = run(ad.linear)
    composed = run(lambda x, w, b: ad.add_rowvec(ad.matmul(x, w), b))
    for got, want in zip(fused, composed):
        assert np.array_equal(got, want)


def test_linear_rejects_bad_shapes():
    x, w = ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((3, 4)))
    with pytest.raises(ShapeMismatch):
        ad.linear(x, w, ad.tensor(np.ones(3)))
    with pytest.raises(ShapeMismatch):
        ad.linear(x, ad.tensor(np.ones((4, 3))), ad.tensor(np.ones(3)))


def test_grouped_slice_rows_takes_the_same_rows_of_every_block():
    rng = rng_for("grouped_slice")
    x0 = rng.normal(0, 1, (12, 2))
    x = ad.tensor(x0, requires_grad=True)
    part = ad.slice_rows(x, 1, 3, group=4)
    assert np.array_equal(part.data, x0.reshape(3, 4, 2)[:, 1:3].reshape(6, 2))
    w = rng.normal(0, 1, (6, 2))
    ad.backward(ad.mean_all(ad.matmul(ad.reshape(part, (1, 12)), ad.tensor(w.reshape(12, 1)))))
    want = np.zeros((3, 4, 2))
    want[:, 1:3] = w.reshape(3, 2, 2)
    assert np.array_equal(x.grad, want.reshape(12, 2))
    with pytest.raises(ShapeMismatch):
        ad.slice_rows(x, 0, 2, group=5)
    with pytest.raises(ShapeMismatch):
        ad.slice_rows(x, 3, 5, group=4)


@pytest.mark.parametrize("constant", ["left", "right"])
def test_matmul_constant_operand_gets_no_gradient(constant):
    rng = rng_for("matmul_const")
    a0, b0 = rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (4, 2))

    def grads(a_grad, b_grad):
        a, b = ad.tensor(a0, requires_grad=a_grad), ad.tensor(b0, requires_grad=b_grad)
        ad.backward(ad.mean_all(ad.gelu(ad.matmul(a, b))))
        return a.grad, b.grad

    both = grads(True, True)
    a_grad, b_grad = grads(constant == "right", constant == "left")
    if constant == "left":
        assert a_grad is None
        np.testing.assert_array_equal(b_grad, both[1])
    else:
        assert b_grad is None
        np.testing.assert_array_equal(a_grad, both[0])


def test_backward_requires_scalar():
    x = ad.tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(NotScalar):
        ad.backward(ad.add(x, x))


def test_double_backward_rejected():
    x = ad.tensor(np.ones(3), requires_grad=True)
    loss = ad.mean_all(x)
    ad.backward(loss)
    with pytest.raises(DoubleBackward):
        ad.backward(loss)


@pytest.mark.parametrize("shape", [(), (1,), (7,), (129,), (3, 5), (4096, 3), (2, 3, 4)])
def test_mean_all_is_ndarray_mean_bit_for_bit(shape):
    x = rng_for("mean_all").normal(0, 1, shape) * 10.0 ** rng_for("mean_all.scale").integers(-8, 8, shape)
    assert ad.mean_all(ad.tensor(x)).data.tobytes() == np.asarray(x.mean()).tobytes()


def test_grads_accumulate_across_separate_graphs():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    ad.backward(ad.mean_all(x))
    ad.backward(ad.mean_all(x))
    np.testing.assert_allclose(x.grad, [1.0, 1.0])  # 0.5 + 0.5 per coordinate


def _two_pass_backward(loss):
    """The reference walk: collect every requires-grad node reachable from
    `loss` depth first, then visit them in descending `_id` order."""
    nodes = {}
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in nodes or not t.requires_grad:
            continue
        nodes[id(t)] = t
        stack.extend(t._parents)
    grads = {id(loss): np.ones(())}
    for t in sorted(nodes.values(), key=lambda n: n._id, reverse=True):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t._vjp is None:
            t.grad = g.copy() if t.grad is None else t.grad + g
            continue
        for parent, pg in zip(t._parents, t._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg


@pytest.mark.parametrize("stage", [1, 2])
def test_backward_matches_the_two_pass_walk_bit_for_bit(stage):
    world = build_world(12, 0.75, 0)
    data = sample(world, 6, world.split.seen, seed=0, stream="sample.train")
    model = init_model(1, world)
    params = model.named_params()

    def loss():
        if stage == 1:
            table = fixed_table(model)
            positive = data.ground_truth(table.label_ids).y
            return stage1_losses(model, data.images, positive, data.teacher, table, 0.5)[0]
        with ad.no_grad():
            emb = encode(model, data.images)
        return stage2_loss(model, emb, data.ground_truth(model.split.all_ids).y)

    grads = {}
    for walk in (_two_pass_backward, ad.backward):
        for t in params.values():
            t.zero_grad()
        walk(loss())
        grads[walk] = {name: t.grad for name, t in params.items()}
    want, got = grads[_two_pass_backward], grads[ad.backward]
    assert sum(g is not None for g in got.values()) == (len(params) - 1 if stage == 1 else 1)
    for name in params:
        assert (want[name] is None) == (got[name] is None), name
        if got[name] is not None:
            assert np.array_equal(want[name], got[name]), name


def test_backward_skips_nodes_without_a_gradient():
    x = ad.tensor(np.ones(3), requires_grad=True)
    calls = []

    def unreached_vjp(g):
        calls.append(g)
        return (g,)

    dead = ad._result(2 * x.data, (x,), unreached_vjp)
    # consumes `dead` and x, but sends a gradient to x only
    loss = ad._result(np.array(dead.data.sum() + x.data.sum()), (dead, x), lambda g: (None, np.full(3, g)))
    ad.backward(loss)
    assert calls == []
    np.testing.assert_array_equal(x.grad, np.ones(3))

    y = ad.tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        constant = ad.mean_all(y)
    ad.backward(constant)
    assert y.grad is None


@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_rows_sum_to_one(m, n, seed):
    rng = np.random.default_rng(seed)
    p = ad.softmax_rows(ad.tensor(rng.normal(0, 3, (m, n))))
    np.testing.assert_allclose(p.data.sum(axis=1), np.ones(m), atol=1e-12)
    assert (p.data > 0).all()


def test_softmax_shift_invariant_per_row():
    rng = rng_for("softmax")
    x = rng.normal(0, 1, (3, 5))
    shifted = x + rng.normal(0, 10, (3, 1))
    np.testing.assert_allclose(
        ad.softmax_rows(ad.tensor(x)).data,
        ad.softmax_rows(ad.tensor(shifted)).data,
        atol=1e-12,
    )


def test_layer_norm_standardizes_rows():
    rng = rng_for("ln")
    x = ad.tensor(rng.normal(3.0, 2.0, (4, 8)))
    out = ad.layer_norm(x, ad.tensor(np.ones(8)), ad.tensor(np.zeros(8)))
    np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.var(axis=1), 1.0, atol=1e-4)  # eps shifts variance slightly


def test_layer_norm_matches_plain_numpy_bit_for_bit():
    rng = rng_for("ln_exact")
    x, gain, bias = rng.normal(1.0, 2.0, (5, 12)), rng.normal(1, 0.1, 12), rng.normal(0, 0.1, 12)
    xt = ad.tensor(x, requires_grad=True)
    out = ad.layer_norm(xt, ad.tensor(gain), ad.tensor(bias))
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + ad.LAYER_NORM_EPS)
    xhat = xc * inv
    np.testing.assert_array_equal(out.data, xhat * gain + bias)
    ad.backward(ad.mean_all(out))
    dxhat = np.full(x.shape, 1.0 / x.size) * gain
    want = inv * (dxhat - dxhat.mean(axis=1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))
    np.testing.assert_array_equal(xt.grad, want)


def test_gelu_reference_points():
    # tanh-form reference evaluated independently
    c = np.sqrt(2.0 / np.pi)
    for x in (-2.0, -0.5, 0.0, 0.3, 1.0, 4.0):
        want = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
        got = ad.gelu(ad.tensor([[x]])).data[0, 0]
        assert got == pytest.approx(want, abs=1e-15)


class TestTopK:
    def test_k_equals_n_is_plain_mean(self):
        rng = rng_for("topk")
        v = rng.normal(0, 1, 9)
        assert ad.topk_mean(ad.tensor(v), 9).data == pytest.approx(v.mean(), abs=1e-12)

    def test_selects_largest(self):
        v = ad.tensor([0.1, 5.0, -2.0, 3.0])
        assert ad.topk_mean(v, 2).item() == pytest.approx(4.0)

    def test_backward_spreads_over_selected(self):
        v = ad.tensor([0.1, 5.0, -2.0, 3.0], requires_grad=True)
        ad.backward(ad.topk_mean(v, 2))
        np.testing.assert_allclose(v.grad, [0.0, 0.5, 0.0, 0.5])

    def test_ties_go_to_lower_index(self):
        v = ad.tensor([2.0, 1.0, 2.0], requires_grad=True)
        out = ad.topk_mean(v, 1)
        assert out.item() == 2.0
        ad.backward(out)
        np.testing.assert_allclose(v.grad, [1.0, 0.0, 0.0])

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRange):
            ad.topk_mean(ad.tensor([1.0, 2.0]), 3)
        with pytest.raises(KOutOfRange):
            ad.topk_mean(ad.tensor([1.0, 2.0]), 0)

    def test_cols_variant_matches_per_column_loop(self):
        rng = rng_for("topkc")
        x = rng.normal(0, 1, (7, 4))
        got = ad.topk_mean_cols(ad.tensor(x), 3, group=7).data[0]
        want = [np.sort(x[:, j])[::-1][:3].mean() for j in range(4)]
        np.testing.assert_allclose(got, want, atol=0)


def row_mask(*bits):
    """A one-row boolean mask."""
    return np.array([bits], dtype=bool)


class TestHinge:
    def test_single_pair_value(self):
        s = ad.tensor([[0.5, 0.2]])
        loss = ad.pairwise_hinge(s, row_mask(1, 0), row_mask(0, 1))
        assert loss.shape == (1,)
        assert loss.data[0] == pytest.approx(0.7)

    def test_satisfied_pair_is_zero(self):
        s = ad.tensor([[2.0, 0.5]])
        assert ad.pairwise_hinge(s, row_mask(1, 0), row_mask(0, 1)).data[0] == 0.0

    def test_kink_subgradient_is_zero(self):
        # margin exactly 0: s_p - s_n = 1
        s = ad.tensor([[1.0, 0.0]], requires_grad=True)
        loss = ad.pairwise_hinge(s, row_mask(1, 0), row_mask(0, 1))
        assert loss.data[0] == 0.0
        ad.backward(ad.mean_all(loss))
        np.testing.assert_allclose(s.grad, [[0.0, 0.0]])

    def test_gradient_counts_active_pairs(self):
        # pos 0 vs negs 1,2; both pairs violated
        s = ad.tensor([[0.0, 0.5, 0.9]], requires_grad=True)
        loss = ad.pairwise_hinge(s, row_mask(1, 0, 0), row_mask(0, 1, 1))
        assert loss.data[0] == pytest.approx(1.5 + 1.9)
        ad.backward(ad.mean_all(loss))
        np.testing.assert_allclose(s.grad, [[-2.0, 1.0, 1.0]])


def test_l1_distance_tie_subgradient_zero():
    a = ad.tensor([[1.0, 3.0]], requires_grad=True)
    loss = ad.l1_distance(a, ad.tensor([[1.0, 0.0]]))
    assert loss.shape == (1,)
    assert loss.data[0] == pytest.approx(3.0)
    ad.backward(ad.mean_all(loss))
    np.testing.assert_allclose(a.grad, [[0.0, 1.0]])


def test_l2_normalize_zero_vector_rejected():
    with pytest.raises(NonFinite):
        ad.l2_normalize(ad.tensor([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))


def test_l2_normalize_rejects_a_finite_row_whose_norm_overflows():
    # the squares overflow; dividing by an infinite norm gave an all-zero row
    with np.errstate(over="ignore"), pytest.raises(NonFinite, match=r"^a row's L2 norm overflows float64$"):
        ad.l2_normalize(ad.tensor([[1.0, 2.0], [1e200, 1.0]]))


def test_layer_norm_rejects_a_finite_row_whose_variance_overflows():
    # the squares overflow; an infinite variance gave an all-zero normalized row
    with np.errstate(over="ignore"), pytest.raises(NonFinite, match=r"^layer_norm variance overflows float64$"):
        ad.layer_norm(ad.tensor([[1.0, 2.0], [1e160, -1e160]]), ad.tensor(np.ones(2)), ad.tensor(np.zeros(2)))


def test_l2_normalize_unit_output():
    rng = rng_for("l2")
    out = ad.l2_normalize(ad.tensor(rng.normal(0, 2, (3, 6))))
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ad.l2_normalize(ad.tensor([3.0, 4.0])),
        lambda: ad.l1_distance(ad.tensor([1.0, 3.0]), ad.tensor([1.0, 0.0])),
        lambda: ad.pairwise_hinge(ad.tensor([0.5, 0.2]), np.array([True, False]), np.array([False, True])),
        lambda: ad.pairwise_hinge(ad.tensor([[0.5, 0.2]]), np.array([0]), np.array([1])),
        lambda: ad.pairwise_hinge(ad.tensor([[0.5, 0.2]]), np.array([[1, 0]]), np.array([[0, 1]])),
    ],
    ids=["l2_normalize_vector", "l1_distance_vectors", "hinge_vector", "hinge_index_arrays", "hinge_int_masks"],
)
def test_loss_ops_take_only_score_rows_and_bool_masks(call):
    with pytest.raises(ShapeMismatch):
        call()


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_concat_slice_round_trip(rows_a, rows_b, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 1, (rows_a, 3))
    b = rng.normal(0, 1, (rows_b, 3))
    joined = ad.concat([ad.tensor(a), ad.tensor(b)], axis=0)
    n = rows_a + rows_b
    np.testing.assert_array_equal(ad.slice_rows(joined, 0, rows_a, group=n).data, a)
    np.testing.assert_array_equal(ad.slice_rows(joined, rows_a, n, group=n).data, b)


def test_reshape_round_trip_and_grad_flow():
    x = ad.tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    back = ad.reshape(ad.reshape(x, (6,)), (2, 3))
    np.testing.assert_array_equal(back.data, x.data)
    ad.backward(ad.mean_all(back))
    np.testing.assert_allclose(x.grad, np.full((2, 3), 1.0 / 6.0))


def test_add_rowvec_backward_sums_rows():
    x = ad.tensor(np.zeros((3, 2)), requires_grad=True)
    b = ad.tensor(np.zeros(2), requires_grad=True)
    ad.backward(ad.mean_all(ad.add_rowvec(x, b)))
    np.testing.assert_allclose(b.grad, [0.5, 0.5])  # 3 rows x 1/6 each


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_finite_differences_on_random_chains(seed):
    rng = np.random.default_rng(seed)
    a = ad.tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
    b = ad.tensor(rng.normal(0, 1, (4, 3)), requires_grad=True)

    def build():
        h = ad.gelu(ad.matmul(a, b))
        return ad.mean_all(ad.softmax_rows(h))

    assert finite_difference_check(build, [a, b]) < 1e-4


def test_substreams_are_deterministic_and_distinct():
    a1 = substream(42, "alpha").normal(0, 1, 5)
    a2 = substream(42, "alpha").normal(0, 1, 5)
    b = substream(42, "beta").normal(0, 1, 5)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
