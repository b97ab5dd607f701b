"""Optimizer oracles: closed-form first steps and an independent
numpy replay of the full update recurrence.
"""

import numpy as np
import pytest

from ovml import autodiff as ad
from ovml import training
from ovml.autodiff import MissingGrad, NonFinite
from ovml.model import fixed_table, init_model, save_model
from ovml.optim import AdamW
from ovml.seeds import substream
from ovml.synth import SynthConfig, build_world, sample


def test_zero_gradient_step_is_pure_decay():
    w0 = np.array([1.0, -2.0, 0.5])
    p = ad.tensor(w0.copy(), requires_grad=True)
    opt = AdamW({"w": p}, lr=0.1, weight_decay=0.03)
    p.grad = np.zeros(3)
    opt.step()
    np.testing.assert_allclose(p.data, w0 * (1 - 0.1 * 0.03), atol=1e-15)


def test_first_step_without_decay_is_scaled_sign():
    w0 = np.array([0.3, -1.2, 4.0, 0.0])
    g = np.array([2.0, -3.0, 0.5, 1.0])
    p = ad.tensor(w0.copy(), requires_grad=True)
    opt = AdamW({"w": p}, lr=0.01, weight_decay=0.0)
    p.grad = g.copy()
    opt.step()
    # bias correction makes m_hat = g, v_hat = g*g on step 1
    want = w0 - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, want, atol=1e-15)


def test_five_steps_match_numpy_recurrence_on_quadratic():
    rng = substream(0, "test.optim.bowl")
    target = rng.normal(0, 1, (1, 4))
    w0 = rng.normal(0, 1, (1, 4))
    lr, wd, b1, b2, eps = 0.05, 0.01, 0.9, 0.999, 1e-8

    p = ad.tensor(w0.copy(), requires_grad=True)
    opt = AdamW({"w": p}, lr=lr, weight_decay=wd)

    w = w0.copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t in range(1, 6):
        opt.zero_grad()
        diff = ad.add(p, ad.tensor(-target))
        ad.backward(ad.mean_all(ad.matmul(diff, ad.transpose(diff))))
        opt.step()

        g = 2.0 * (w - target)  # d/dw of (w-t)(w-t)^T, a 1x1 "mean"
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        update = (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        w = w - lr * update - lr * wd * w

        np.testing.assert_allclose(p.data, w, atol=1e-12)


def _per_tensor_update(w, m, v, g, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """One tensor's step t, moments updated in place: the reference for the flat update."""
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    update = (m / c1) / (np.sqrt(v / c2) + eps)
    return w - lr * update - lr * wd * w


def _per_tensor_adamw(ws, grads, steps, lr, wd, before_step=None):
    """`steps` updates tensor by tensor from weights `ws`; `before_step(t, ws)`
    may edit the weights in place before step t.
    """
    ws = [w.copy() for w in ws]
    ms = [np.zeros_like(w) for w in ws]
    vs = [np.zeros_like(w) for w in ws]
    for t in range(1, steps + 1):
        if before_step is not None:
            before_step(t, ws)
        for i, g in enumerate(grads[t - 1]):
            ws[i] = _per_tensor_update(ws[i], ms[i], vs[i], g, t, lr, wd)
    return ws


class _PerTensorAdamW:
    """AdamW tensor by tensor, each step binding every parameter to a new
    array: a drop-in reference for the flat-buffer optimizer.
    """

    def __init__(self, params, lr, weight_decay=0.0):
        self.params, self.lr, self.wd, self.t = dict(params), lr, weight_decay, 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.t += 1
        for name, p in self.params.items():
            p.data = _per_tensor_update(p.data, self.m[name], self.v[name], p.grad, self.t, self.lr, self.wd)


def test_flat_update_equals_per_tensor_formula_bit_for_bit():
    rng = substream(0, "test.optim.flat")
    shapes = [(), (3,), (2, 4), (1, 5), (4, 1)]
    w0 = [rng.normal(0, 1, s) for s in shapes]
    steps = 4
    grads = [[rng.normal(0, 1, s) for s in shapes] for _ in range(steps)]
    params = {f"p{i}": ad.tensor(w.copy(), requires_grad=True) for i, w in enumerate(w0)}
    opt = AdamW(params, lr=0.01, weight_decay=0.05)
    for t in range(steps):
        for p, g in zip(params.values(), grads[t]):
            p.grad = g.copy()
        opt.step()
        want = _per_tensor_adamw(w0, grads, t + 1, lr=0.01, wd=0.05)
        for p, w in zip(params.values(), want):
            assert p.shape == w.shape
            assert np.array_equal(p.data, w)


@pytest.mark.parametrize("missing", [0, 1, 2])
def test_missing_gradient_changes_nothing(missing):
    rng = substream(0, "test.optim.missing")
    w0 = [rng.normal(0, 1, (2, 3)) for _ in range(3)]
    params = {f"p{i}": ad.tensor(w.copy(), requires_grad=True) for i, w in enumerate(w0)}
    opt = AdamW(params, lr=0.1, weight_decay=0.01)
    first = [rng.normal(0, 1, (2, 3)) for _ in range(3)]
    for p, g in zip(params.values(), first):
        p.grad = g
    opt.step()
    before = {name: p.data.copy() for name, p in params.items()}
    grads = {name: rng.normal(0, 1, (2, 3)) for name in params}
    for i, (name, p) in enumerate(params.items()):
        p.grad = None if i == missing else grads[name]
    with pytest.raises(MissingGrad, match=f"p{missing}"):
        opt.step()
    assert opt.step_count == 1
    for name, p in params.items():
        assert np.array_equal(p.data, before[name])
    # the moments are untouched too: the next full step equals a fresh replay
    params[f"p{missing}"].grad = grads[f"p{missing}"]
    opt.step()
    want = _per_tensor_adamw(w0, [first, list(grads.values())], 2, lr=0.1, wd=0.01)
    for p, w in zip(params.values(), want):
        assert np.array_equal(p.data, w)


def test_update_that_overflows_changes_no_weight_moment_or_step_count():
    rng = substream(0, "test.optim.overflow")
    w0 = [np.full((2, 3), 100.0), rng.normal(0, 1, 4)]
    params = {f"p{i}": ad.tensor(w.copy(), requires_grad=True) for i, w in enumerate(w0)}
    opt = AdamW(params, lr=0.1, weight_decay=0.01)
    grads = [[np.abs(rng.normal(0, 1, w.shape)) + 0.1 for w in w0] for _ in range(2)]

    def take(step_grads):
        for p, g in zip(params.values(), step_grads):
            p.grad = g.copy()
        opt.step()

    take(grads[0])
    before = [p.data.copy() for p in params.values()]
    opt.lr = 1e308  # 100 - 1e308 * (1 + 0.01 * 100) overflows to -inf
    with np.errstate(over="ignore"), pytest.raises(NonFinite, match="AdamW update"):
        take(grads[1])
    assert opt.step_count == 1
    for p, w in zip(params.values(), before):
        assert np.array_equal(p.data, w)
    # the moments are untouched too: the retried step equals a fresh replay
    opt.lr = 0.1
    take(grads[1])
    for p, w in zip(params.values(), _per_tensor_adamw(w0, grads, 2, lr=0.1, wd=0.01)):
        assert np.array_equal(p.data, w)


def test_in_place_edit_of_a_parameter_is_what_the_next_step_updates():
    rng = substream(0, "test.optim.edit")
    shapes = [(3,), (2, 4), ()]
    w0 = [rng.normal(0, 1, s) for s in shapes]
    grads = [[rng.normal(0, 1, s) for s in shapes] for _ in range(3)]
    params = {f"p{i}": ad.tensor(w.copy(), requires_grad=True) for i, w in enumerate(w0)}
    opt = AdamW(params, lr=0.01, weight_decay=0.05)

    def edit(t, ws):
        if t == 2:
            ws[1][0, 1] = 7.0
            ws[0][2] = -3.0

    for t, step_grads in enumerate(grads, start=1):
        edit(t, [p.data for p in params.values()])
        for p, g in zip(params.values(), step_grads):
            p.grad = g.copy()
        opt.step()
    for p, w in zip(params.values(), _per_tensor_adamw(w0, grads, 3, lr=0.01, wd=0.05, before_step=edit)):
        assert np.array_equal(p.data, w)


def test_checkpoint_after_training_equals_per_tensor_reference(tmp_path, monkeypatch):
    world = build_world(12, 0.75, 0, SynthConfig())
    data = sample(world, 16, world.split.seen, seed=0, stream="sample.train")
    cfg = training.TrainConfig(epochs_stage1=2, epochs_stage2=1, batch_size=8)
    for name, optimizer in [("flat", AdamW), ("per_tensor", _PerTensorAdamW)]:
        monkeypatch.setattr(training, "AdamW", optimizer)
        model = init_model(0, world)
        training.run_stage1(model, data, cfg, seed=0, log=lambda record: None)
        training.run_stage2(model, data, cfg, seed=0, log=lambda record: None)
        save_model(tmp_path / name, model, fixed_table(model))
    files = sorted(f.name for f in (tmp_path / "flat").iterdir())
    assert files == sorted(f.name for f in (tmp_path / "per_tensor").iterdir())
    for name in files:
        assert (tmp_path / "flat" / name).read_bytes() == (tmp_path / "per_tensor" / name).read_bytes(), name


def test_step_without_gradients_raises():
    p = ad.tensor(np.ones(2), requires_grad=True)
    opt = AdamW({"w": p}, lr=0.1)
    with pytest.raises(MissingGrad):
        opt.step()


def test_zero_grad_clears_accumulation():
    p = ad.tensor(np.ones(2), requires_grad=True)
    opt = AdamW({"w": p}, lr=0.1)
    ad.backward(ad.mean_all(p))
    assert p.grad is not None
    opt.zero_grad()
    assert p.grad is None


def test_moments_damp_a_sign_flip():
    # after a +1 gradient, a -1 gradient meets warm momentum: the second
    # step is far smaller than the first and smaller than a cold start
    p = ad.tensor(np.zeros(1), requires_grad=True)
    opt = AdamW({"w": p}, lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    d1 = abs(p.data[0])
    before = p.data[0]
    p.grad = np.array([-1.0])
    opt.step()
    d2 = abs(p.data[0] - before)
    assert opt.step_count == 2
    assert d1 == pytest.approx(0.1, rel=1e-6)
    assert d2 < 0.3 * d1
