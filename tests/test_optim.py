"""Optimizer oracles: closed-form first steps and an independent
numpy replay of the full update recurrence.
"""

import numpy as np
import pytest

from ovml import autodiff as ad
from ovml.autodiff import MissingGrad
from ovml.optim import AdamW
from ovml.seeds import substream


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


def _per_tensor_adamw(ws, grads, steps, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """The update tensor by tensor, as a reference for the flat one."""
    ws = [w.copy() for w in ws]
    ms = [np.zeros_like(w) for w in ws]
    vs = [np.zeros_like(w) for w in ws]
    for t in range(1, steps + 1):
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for i, g in enumerate(grads[t - 1]):
            ms[i] *= b1
            ms[i] += (1.0 - b1) * g
            vs[i] *= b2
            vs[i] += (1.0 - b2) * g * g
            update = (ms[i] / c1) / (np.sqrt(vs[i] / c2) + eps)
            ws[i] = ws[i] - lr * update - lr * wd * ws[i]
    return ws


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
