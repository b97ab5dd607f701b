"""AdamW with bias correction and decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .autodiff import MissingGrad, NonFinite, Tensor, _all_finite

BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8  # added to the root of the second moment


class AdamW:
    """Standard AdamW over a dict of named parameter tensors.

    Decay is decoupled: w <- w - lr*wd*w alongside the bias-corrected
    moment update, whose constants are the module's BETA1, BETA2 and EPS.
    With a zero gradient one step reduces to pure decay.

    The weights live in one flat buffer, one slot per parameter entry in
    dict order: construction copies each parameter in and makes its `data`
    a view of its slot, so an in-place edit of `p.data` is what the next
    step updates, while rebinding `p.data` detaches it from the optimizer.
    The moments are two more flat buffers, and a step is one elementwise
    update over every parameter, written into the weights in place.
    A step that lacks a gradient (MissingGrad) or would make a weight
    NaN/Inf (NonFinite) raises and changes no weight, moment or step count.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        size = sum(p.data.size for p in self.params.values())
        self._w = np.empty(size)
        self._g = np.empty(size)
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        start = 0
        for p in self.params.values():
            view = self._w[start:start + p.data.size].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            start += view.size

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise MissingGrad(f"no gradient on {name}")
        g = np.concatenate([p.grad.ravel() for p in self.params.values()], out=self._g)
        t = self.step_count + 1
        c1 = 1.0 - BETA1**t
        c2 = 1.0 - BETA2**t
        m = BETA1 * self._m + (1.0 - BETA1) * g
        v = BETA2 * self._v + (1.0 - BETA2) * g * g
        update = (m / c1) / (np.sqrt(v / c2) + EPS)
        w = self._w
        new = w - self.lr * update - self.lr * self.weight_decay * w
        if not _all_finite(new):
            raise NonFinite("the AdamW update makes a weight NaN/Inf")
        w[...] = new
        self._m, self._v, self.step_count = m, v, t
