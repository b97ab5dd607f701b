"""`finite_difference_check` runs its per-coordinate loop on Python floats.
That is the same IEEE arithmetic as the numpy-scalar loop kept below as a
reference, so every worst error keeps its bits and a wrong backward rule
fails with the same message. A NaN or Inf analytic gradient fails both
with a worst error of inf.
"""

import numpy as np
import pytest

from ovml import autodiff as ad
from ovml.autodiff import GRAD_REL_TOL, finite_difference_check
from ovml.gradcheck import CHECKS
from ovml.seeds import substream


def reference_check(build, leaves) -> float:
    """The checker's loop on numpy scalars: flat[i], analytic.reshape(-1)[i]."""
    for leaf in leaves:
        leaf.zero_grad()
    ad.backward(build())
    worst = 0.0
    with ad.no_grad():
        for leaf in leaves:
            analytic = np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad
            flat = leaf.data.reshape(-1)
            for i in range(flat.size):
                x0 = flat[i]
                h = 1e-6 * max(1.0, abs(x0))
                flat[i] = x0 + h
                up = build().item()
                flat[i] = x0 - h
                down = build().item()
                flat[i] = x0
                numeric = (up - down) / (2 * h)
                a = analytic.reshape(-1)[i]
                with np.errstate(invalid="ignore"):  # an Inf gradient makes inf / inf
                    err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
                if not err <= worst:  # a NaN error, from a NaN or Inf gradient, counts as inf
                    worst = np.inf if np.isnan(err) else err
    if worst > GRAD_REL_TOL:
        raise AssertionError(f"gradient mismatch: worst relative error {worst:.3e} > {GRAD_REL_TOL:g}")
    return worst


@pytest.mark.parametrize("name, maker", CHECKS, ids=[name for name, _ in CHECKS])
def test_worst_error_equals_the_numpy_scalar_loop_bit_for_bit(name, maker):
    build, leaves = maker(substream(0, f"gradcheck.{name}"))
    before = [leaf.data.copy() for leaf in leaves]
    worst = finite_difference_check(build, leaves)
    grads = [None if leaf.grad is None else leaf.grad.copy() for leaf in leaves]
    assert all(np.array_equal(leaf.data, b) for leaf, b in zip(leaves, before))  # every coordinate restored
    expected = reference_check(build, leaves)
    assert float(worst).hex() == float(expected).hex()
    for leaf, g in zip(leaves, grads):
        assert (leaf.grad is None and g is None) or np.array_equal(leaf.grad, g)


def test_wrong_backward_rule_fails_with_the_reference_message():
    def run(check):
        x = ad.tensor(substream(0, "test.gradient_checker.wrong").normal(0, 1, (2, 3)), requires_grad=True)
        # 2 * x whose backward rule claims a factor of 2.5
        build = lambda: ad.mean_all(ad._result(x.data * 2.0, (x,), lambda g: (g * 2.5,)))  # noqa: E731
        with pytest.raises(AssertionError) as excinfo:
            check(build, [x])
        return str(excinfo.value)

    message = run(finite_difference_check)
    assert message.startswith("gradient mismatch: worst relative error ")
    assert message == run(reference_check)


def _non_finite_vjp(kind):
    def vjp(g):
        g = g * 2.0
        if kind == "nan_at_one_entry":
            g[0, 1] = np.nan
        else:
            g[...] = np.inf
        return (g,)

    return vjp


@pytest.mark.parametrize("kind", ["nan_at_one_entry", "inf_everywhere"])
def test_non_finite_backward_rule_fails_as_an_infinite_error(kind):
    def run(check):
        x = ad.tensor(substream(0, "test.gradient_checker.non_finite").normal(0, 1, (2, 3)), requires_grad=True)
        # 2 * x whose backward rule emits NaN at one entry, or Inf everywhere
        build = lambda: ad.mean_all(ad._result(x.data * 2.0, (x,), _non_finite_vjp(kind)))  # noqa: E731
        with pytest.raises(AssertionError) as excinfo:
            check(build, [x])
        return str(excinfo.value)

    message = run(finite_difference_check)
    assert message == f"gradient mismatch: worst relative error inf > {GRAD_REL_TOL:g}"
    assert message == run(reference_check)
