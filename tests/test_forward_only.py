"""Forward-only graphs: `ad.no_grad()` keeps every op's data and drops its
graph, the model's evaluation paths record no graph, the sort-based
`topk_mean_cols` forward matches a stable ranking bit for bit, the
gradient suite reaches every op, and the gradient checker still catches
a wrong backward rule.
"""

import inspect

import numpy as np
import pytest

from ovml import autodiff as ad
from ovml.autodiff import Tensor, finite_difference_check
from ovml.gradcheck import run_suite
from ovml.model import embed_batch, encode, fixed_table, init_model, score_batch, score_image
from ovml.seeds import substream
from ovml.synth import SynthConfig, build_world, sample
from ovml.training import stage1_losses


def rng_for(name):
    return substream(0, f"test.forward_only.{name}")


def _leaf(rng, *shape):
    return ad.tensor(rng.normal(0.0, 1.0, shape), requires_grad=True)


def _hinge_args(rng):
    pos = rng.random((3, 5)) < 0.4
    return _leaf(rng, 3, 5), pos, ~pos


# op name -> rng -> (op, requires-grad arguments)
OPS = {
    "matmul": lambda r: (ad.matmul, (_leaf(r, 3, 4), _leaf(r, 4, 2))),
    "linear": lambda r: (ad.linear, (_leaf(r, 3, 4), _leaf(r, 4, 2), _leaf(r, 2))),
    "add": lambda r: (ad.add, (_leaf(r, 2, 3), _leaf(r, 2, 3))),
    "add_rowvec": lambda r: (ad.add_rowvec, (_leaf(r, 2, 3), _leaf(r, 3))),
    "scale": lambda r: (ad.scale, (_leaf(r, 2, 3), 0.3)),
    "transpose": lambda r: (ad.transpose, (_leaf(r, 2, 3),)),
    "reshape": lambda r: (ad.reshape, (_leaf(r, 2, 3), (3, 2))),
    "concat": lambda r: (ad.concat, ([_leaf(r, 2, 3), _leaf(r, 1, 3)],)),
    "slice_rows": lambda r: (ad.slice_rows, (_leaf(r, 6, 2), 1, 3, 3)),
    "softmax_rows": lambda r: (ad.softmax_rows, (_leaf(r, 3, 4),)),
    "self_attention": lambda r: (
        ad.self_attention, (_leaf(r, 6, 4), *([_leaf(r, 4, 2) for _ in range(2)] for _ in range(3)), 3)
    ),
    "layer_norm": lambda r: (ad.layer_norm, (_leaf(r, 3, 4), _leaf(r, 4), _leaf(r, 4))),
    "gelu": lambda r: (ad.gelu, (_leaf(r, 3, 4),)),
    "topk_mean": lambda r: (ad.topk_mean, (_leaf(r, 5), 2)),
    "topk_mean_cols": lambda r: (ad.topk_mean_cols, (_leaf(r, 8, 3), 2, 4)),
    "mean_all": lambda r: (ad.mean_all, (_leaf(r, 2, 3),)),
    "l2_normalize": lambda r: (ad.l2_normalize, (_leaf(r, 2, 3),)),
    "l1_distance": lambda r: (ad.l1_distance, (_leaf(r, 2, 3), _leaf(r, 2, 3))),
    "pairwise_hinge": lambda r: (ad.pairwise_hinge, _hinge_args(r)),
}

NOT_OPS = {"tensor", "backward", "no_grad", "finite_difference_check"}


def _public_ops() -> set[str]:
    return {
        name for name, fn in vars(ad).items()
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_")
    } - NOT_OPS


def test_every_op_is_covered():
    assert _public_ops() == set(OPS)


def _recording(name, op, called):
    def recorded(*args, **kwargs):
        called.add(name)
        return op(*args, **kwargs)
    return recorded


def test_gradient_suite_reaches_every_op(monkeypatch):
    ops, called = _public_ops(), set()
    for name in ops:
        monkeypatch.setattr(ad, name, _recording(name, getattr(ad, name), called))
    assert all(r.ok for r in run_suite(instances=1))
    assert called == ops


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_under_no_grad_keeps_data_and_drops_graph(name):
    op, args = OPS[name](rng_for(name))
    recorded = op(*args)
    assert recorded.requires_grad and recorded._parents and recorded._vjp is not None
    with ad.no_grad():
        bare = op(*args)
    assert np.array_equal(bare.data, recorded.data)
    assert bare.requires_grad is False
    assert bare._parents == ()
    assert bare._vjp is None


def _grad_mode_on() -> bool:
    return ad.scale(ad.tensor([1.0], requires_grad=True), 2.0).requires_grad


def test_mode_is_restored_after_a_normal_exit():
    with ad.no_grad():
        assert not _grad_mode_on()
    assert _grad_mode_on()


def test_mode_is_restored_after_an_exception():
    with pytest.raises(ad.ShapeMismatch):
        with ad.no_grad():
            ad.add(ad.tensor([1.0], requires_grad=True), ad.tensor([1.0, 2.0]))
    assert _grad_mode_on()


def test_nested_no_grad_restores_the_outer_mode():
    with ad.no_grad():
        with ad.no_grad():
            assert not _grad_mode_on()
        assert not _grad_mode_on()  # the inner exit leaves the outer block in force
    assert _grad_mode_on()


# --- the model's forward-only paths ---


@pytest.fixture(scope="module")
def world():
    return build_world(12, 0.75, 0, SynthConfig())


@pytest.fixture(scope="module")
def images(world):
    return sample(world, 20, world.split.all_ids, seed=0, stream="sample.test").images


@pytest.fixture
def tensor_counts(monkeypatch):
    """Counts of Tensors created, all, requires-grad and op nodes (a backward
    rule recorded), while the test runs."""
    counts = {"all": 0, "grad": 0, "op": 0}
    original = Tensor.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        counts["all"] += 1
        counts["grad"] += self.requires_grad
        counts["op"] += self._vjp is not None

    monkeypatch.setattr(Tensor, "__init__", counting)
    return counts


def test_score_batch_records_no_graph(world, images, tensor_counts):
    model = init_model(0, world)
    assert all(t.requires_grad for t in model.named_params().values())
    table = fixed_table(model)
    tensor_counts.update(all=0, grad=0)
    scores = score_batch(model, images, table)
    assert tensor_counts["all"] > 0 and tensor_counts["grad"] == 0
    # the same rows a graph-recording pass computes, chunk by chunk
    recorded = [score_image(model, encode(model, images[s:s + 16]), table) for s in range(0, len(images), 16)]
    assert tensor_counts["grad"] > 0
    assert np.array_equal(scores.scores, np.concatenate([r.data for r in recorded]))


def test_fixed_table_and_embedding_cache_record_no_graph(world, images, tensor_counts):
    model = init_model(0, world)
    tensor_counts.update(all=0, grad=0)
    table = fixed_table(model)
    e_cls, e_patch = embed_batch(model, images)  # 20 images: a chunk of 16 and one of 4
    assert tensor_counts["all"] > 0 and tensor_counts["grad"] == 0
    assert not table.z.requires_grad
    emb = encode(model, images)
    assert np.array_equal(e_cls, emb.e_cls.data)
    assert np.array_equal(e_patch.reshape(-1, e_patch.shape[2]), emb.e_patch.data)


def test_graph_sizes_are_pinned(world, images, tensor_counts):
    """A desk stage-1 loss graph is 16 op nodes: the token embedding, two
    encoder blocks, two row slices, four head nodes, the score and six loss
    nodes. A 16-image score_batch creates 11 tensors: those 10 forward
    nodes and the patch leaf. Splitting a fused node again fails here."""
    model = init_model(0, world)
    table = fixed_table(model)
    batch = images[:16]
    positive = np.arange(16 * len(table.label_ids)).reshape(16, -1) % 3 == 0
    teacher = np.zeros((16, world.config.embed_dim))
    tensor_counts.update(all=0, grad=0, op=0)
    rank, dist = stage1_losses(model, batch, positive, teacher, table)
    ad.add(rank, ad.scale(dist, 1.0))
    assert tensor_counts["op"] == 16
    tensor_counts.update(all=0, grad=0, op=0)
    score_batch(model, batch, table)
    assert tensor_counts["all"] == 11


# --- topk_mean_cols ---


def topk_reference(x: np.ndarray, k: int, group: int) -> np.ndarray:
    """The stable-ranking forward: gather each column's k largest, ties to
    the lower row, largest first, then average over them."""
    n, d = x.shape
    blocks = x.reshape(n // group, group, d)
    idx = np.argsort(-blocks, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(blocks, idx, axis=1).mean(axis=1)


def _ties(rng, shape):
    # few distinct values, so most columns tie across the k boundary
    return rng.integers(-2, 3, shape) * 0.375


CASES = {
    "ties": (lambda r: _ties(r, (12, 5)), 2, 4),
    "ties_one_block": (lambda r: _ties(r, (9, 6)), 4, 9),
    "k1": (lambda r: r.normal(0, 1, (12, 5)), 1, 3),
    "k_is_group": (lambda r: r.normal(0, 1, (12, 5)), 4, 4),
    "one_block": (lambda r: r.normal(0, 1, (7, 4)), 3, 7),
    "group10_k9": (lambda r: r.normal(0, 1, (30, 7)), 9, 10),
    "group10_k9_ties": (lambda r: _ties(r, (30, 7)) + r.normal(0, 1, 7), 9, 10),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_topk_mean_cols_forward_matches_stable_ranking(case):
    make, k, group = CASES[case]
    x = make(rng_for(case))
    got = ad.topk_mean_cols(ad.tensor(x), k, group=group).data
    assert np.array_equal(got, topk_reference(x, k, group))


def test_topk_mean_cols_gradient_sends_ties_to_the_lower_row():
    x = ad.tensor(
        [[2.0, 0.0], [1.0, 5.0], [2.0, 5.0],    # block 0
         [3.0, 1.0], [3.0, 1.0], [3.0, 1.0]],   # block 1
        requires_grad=True,
    )
    ad.backward(ad.mean_all(ad.topk_mean_cols(x, 1, group=3)))
    want = np.array([[1, 0], [0, 1], [0, 0], [1, 1], [0, 0], [0, 0]]) / 4.0
    np.testing.assert_array_equal(x.grad, want)


def test_topk_mean_cols_gradient_follows_the_stable_ranking():
    rng = rng_for("tie_grads")
    data = _ties(rng, (12, 5))
    x = ad.tensor(data, requires_grad=True)
    ad.backward(ad.mean_all(ad.topk_mean_cols(x, 2, group=4)))
    blocks = data.reshape(3, 4, 5)
    idx = np.argsort(-blocks, axis=1, kind="stable")[:, :2]
    want = np.zeros_like(blocks)
    np.put_along_axis(want, idx, 1.0 / (2 * 3 * 5), axis=1)
    np.testing.assert_allclose(x.grad, want.reshape(12, 5), rtol=1e-15, atol=0)


# --- the gradient checker ---


def _times_two(x: Tensor, vjp_factor: float) -> Tensor:
    """2 * x as an op whose backward rule multiplies by `vjp_factor`."""
    return ad._result(x.data * 2.0, (x,), lambda g: (g * vjp_factor,))


def test_gradient_checker_accepts_a_right_backward_rule():
    x = ad.tensor(rng_for("fd").normal(0, 1, (2, 3)), requires_grad=True)
    assert finite_difference_check(lambda: ad.mean_all(_times_two(x, 2.0)), [x]) < 1e-6


def test_gradient_checker_rejects_a_wrong_backward_rule():
    x = ad.tensor(rng_for("fd").normal(0, 1, (2, 3)), requires_grad=True)
    with pytest.raises(AssertionError, match="gradient mismatch"):
        finite_difference_check(lambda: ad.mean_all(_times_two(x, 2.5)), [x])


def test_gradient_checker_differentiates_only_its_first_build():
    rng = rng_for("fd_grad")
    a, b = _leaf(rng, 3, 4), _leaf(rng, 4, 2)
    outputs = []

    def build():
        outputs.append(ad.mean_all(ad.matmul(a, b)))
        return outputs[-1]

    finite_difference_check(build, [a, b])
    g = np.full((3, 2), 1.0 / 6.0)
    np.testing.assert_allclose(a.grad, g @ b.data.T, rtol=1e-15)
    np.testing.assert_allclose(b.grad, a.data.T @ g, rtol=1e-15)
    assert outputs[0].requires_grad
    assert len(outputs) == 1 + 2 * (a.data.size + b.data.size)
    assert not any(out.requires_grad or out._parents for out in outputs[1:])
