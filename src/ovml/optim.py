"""AdamW with bias correction and decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .autodiff import MissingGrad, NonFinite, Tensor

BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8  # added to the root of the second moment


class AdamW:
    """Standard AdamW over a dict of named parameter tensors.

    Decay is decoupled: w <- w - lr*wd*w alongside the bias-corrected
    moment update, whose constants are the module's BETA1, BETA2 and EPS.
    With a zero gradient one step reduces to pure decay.

    The moments live in two flat buffers, one slot per parameter entry in
    dict order, so a step is one elementwise update over every parameter;
    each parameter's data then becomes its slice of the new flat weights.
    A step that would make a weight NaN/Inf raises NonFinite and changes no weight.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        size = sum(p.data.size for p in self.params.values())
        self._m = np.zeros(size)
        self._v = np.zeros(size)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise MissingGrad(f"no gradient on {name}")
        params = self.params.values()
        g = np.concatenate([p.grad.ravel() for p in params])
        w = np.concatenate([p.data.ravel() for p in params])
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - BETA1**t
        c2 = 1.0 - BETA2**t
        m, v = self._m, self._v
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        update = (m / c1) / (np.sqrt(v / c2) + EPS)
        w = w - self.lr * update - self.lr * self.weight_decay * w
        if not np.isfinite(w).all():
            raise NonFinite("the AdamW update makes a weight NaN/Inf")
        start = 0
        for p in params:
            stop = start + p.data.size
            p.data = w[start:stop].reshape(p.data.shape)
            start = stop
