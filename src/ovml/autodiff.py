"""Dense float64 tensors with reverse-mode differentiation.

The op set is deliberately closed: exactly the operations the pipeline
composes (matrix product, linear layer, additions, concat/row slice/
transpose/reshape, row softmax, multi-head self-attention, layer norm,
GELU, top-k mean pooling, L2 row normalization, pairwise hinge, L1
distance, mean). There is no broadcasting engine.

A minibatch is one graph: images (or labels) are stacked row-wise, and
the ops that must not mix them (attention, top-k pooling, the per-block
row slice) work within fixed-size groups of consecutive rows.

`linear` and `self_attention` are fused: each is one node that does the
arithmetic of the matmul / add_rowvec / concat subgraph it stands for,
in the same order, so results are bit-identical to that composition.

Every tensor is verified finite at construction, so a NaN/Inf produced
anywhere surfaces immediately instead of propagating.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    pass


class NonFinite(ValueError):
    pass


class KOutOfRange(ValueError):
    pass


class NotScalar(ValueError):
    pass


class DoubleBackward(RuntimeError):
    pass


class MissingGrad(RuntimeError):
    pass


_ids = itertools.count()


class Tensor:
    """A dense float64 array with an optional gradient slot.

    Tensors produced by ops remember their parents and a backward rule;
    creation order doubles as the topological order of the graph, so
    `backward` visits nodes in exactly the reverse of forward order.
    """

    __slots__ = ("data", "grad", "requires_grad", "_id", "_parents", "_vjp", "_spent")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFinite("tensor holds NaN/Inf values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._id = next(_ids)
        self._parents: tuple[Tensor, ...] = _parents
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None = _vjp
        self._spent = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = "param" if self.requires_grad and self._vjp is None else "node"
        return f"Tensor({tag}, shape={self.shape})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Create a leaf tensor."""
    return Tensor(data, requires_grad=requires_grad)


_requires_grad = operator.attrgetter("requires_grad")


def _result(data, parents: tuple[Tensor, ...], vjp) -> Tensor:
    if any(map(_requires_grad, parents)):
        return Tensor(data, True, parents, vjp)
    return Tensor(data)


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf reachable from `loss`.

    The seed gradient is 1. Grads accumulate into leaves, so per-image
    losses of a batch may be backwarded one by one.
    """
    if loss.data.shape != ():
        raise NotScalar(f"backward needs a scalar, got shape {loss.data.shape}")
    if loss._spent:
        raise DoubleBackward("backward already ran for this graph output")
    loss._spent = True

    nodes: dict[int, Tensor] = {}
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in nodes or not t.requires_grad:
            continue
        nodes[id(t)] = t
        stack.extend(t._parents)

    grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
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


# ----------------------------------------------------------------------
# ops
# ----------------------------------------------------------------------


def _gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for a 2-D a, written into `out` when given."""
    if a.shape[0] == 1:
        # numpy hands a one-row product to gemv, which rounds differently
        # from the gemm that computes each row of a taller product; going
        # through gemm keeps every row's value independent of its batch
        row = (np.concatenate([a, a]) @ b)[:1]
        if out is None:
            return row
        out[...] = row
        return out
    return np.matmul(a, b, out=out)


def _check_product(name: str, a: Tensor, b: Tensor) -> None:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatch(f"{name} needs 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"{name} inner dims differ: {a.shape} @ {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_product("matmul", a, b)

    def vjp(g):
        # no gradient for a constant operand (input patches, a fixed label table)
        return (g @ b.data.T if a.requires_grad else None, a.data.T @ g if b.requires_grad else None)

    return _result(_gemm(a.data, b.data), (a, b), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w plus the vector b on every row: add_rowvec(matmul(x, w), b) as one node."""
    _check_product("linear", x, w)
    if b.data.ndim != 1 or b.shape[0] != w.shape[1]:
        raise ShapeMismatch(f"linear bias {b.shape} for output width {w.shape[1]}")

    def vjp(g):
        return (
            g @ w.data.T if x.requires_grad else None,
            x.data.T @ g if w.requires_grad else None,
            g.sum(axis=0) if b.requires_grad else None,
        )

    return _result(_gemm(x.data, w.data) + b.data, (x, w, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"add shapes differ: {a.shape} vs {b.shape}")
    return _result(a.data + b.data, (a, b), lambda g: (g, g))


def add_rowvec(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-n vector to every row of an m-by-n matrix."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"add_rowvec shapes: {x.shape} + {b.shape}")
    return _result(x.data + b.data, (x, b), lambda g: (g, g.sum(axis=0)))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result(x.data * c, (x,), lambda g: (g * c,))


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeMismatch(f"transpose needs 2-D, got {x.shape}")
    return _result(x.data.T.copy(), (x,), lambda g: (g.T,))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = x.shape
    return _result(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeMismatch("concat of nothing")
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _result(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), vjp)


def slice_rows(x: Tensor, start: int, stop: int, group: int | None = None) -> Tensor:
    """Rows start:stop of x, or of each block of `group` consecutive rows,
    the blocks' slices still row-stacked in block order.
    """
    n = x.shape[0]
    size = n if group is None else group
    if size < 1 or n % size or not (0 <= start < stop <= size):
        raise ShapeMismatch(f"slice_rows [{start}:{stop}] of blocks of {size} out of {x.shape}")
    rest = x.shape[1:]
    blocks = x.data.reshape((n // size, size) + rest)

    def vjp(g):
        full = np.zeros_like(blocks)
        full[:, start:stop] = g.reshape((n // size, stop - start) + rest)
        return (full.reshape(x.shape),)

    return _result(blocks[:, start:stop].copy().reshape((-1,) + rest), (x,), vjp)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with per-row max subtraction."""
    if x.data.ndim != 2:
        raise ShapeMismatch(f"softmax_rows needs 2-D, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return (p * (g - (g * p).sum(axis=1, keepdims=True)),)

    return _result(p, (x,), vjp)


def _last_axis_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1, keepdims=True); numpy reduces a short last axis row by
    row, so this reduces a transposed copy instead (a max is exact either way).
    """
    rows = a.reshape(-1, a.shape[-1])
    return np.maximum.reduce(np.ascontiguousarray(rows.T), axis=0).reshape(a.shape[:-1] + (1,))


def self_attention(
    x: Tensor, wq: Sequence[Tensor], wk: Sequence[Tensor], wv: Sequence[Tensor], group: int
) -> Tensor:
    """Multi-head scaled dot-product self-attention within each block of
    `group` consecutive rows: block-diagonal attention over a row-stacked
    batch of equal-length sequences.

    Head h computes softmax(q k^T / sqrt(d_h)) v from q = x @ wq[h],
    k = x @ wk[h], v = x @ wv[h]; the heads' outputs are concatenated
    column-wise. Each head keeps its own products (one gemm per weight),
    and x's gradient sums head H-1's v, k, q terms first, then head H-2's,
    and so on: the order a backward through the per-head graph uses.
    """
    heads = len(wq)
    if x.data.ndim != 2 or heads < 1 or len(wk) != heads or len(wv) != heads:
        raise ShapeMismatch(f"self_attention over {x.shape} with {len(wq)}/{len(wk)}/{len(wv)} head weights")
    n, width = x.shape
    d_h = wq[0].shape[-1]
    weights = (*wq, *wk, *wv)
    for w in weights:
        if w.shape != (width, d_h):
            raise ShapeMismatch(f"self_attention head weight {w.shape} for input {x.shape}")
    if group < 1 or n % group:
        raise ShapeMismatch(f"{n} rows do not split into groups of {group}")
    m = n // group
    c = 1.0 / np.sqrt(d_h)
    products = np.empty((3 * heads, n, d_h))
    for w, buf in zip(weights, products):
        _gemm(x.data, w.data, out=buf)
    # (heads, m, group, d_h) each: every head's sequences stacked; the
    # matrix products below still run once per head and sequence
    q, k, v = products.reshape(3, heads, m, group, d_h)
    logits = (q @ k.swapaxes(2, 3)) * c
    if not np.isfinite(logits).all():
        raise NonFinite("attention logits hold NaN/Inf values")
    e = np.exp(logits - _last_axis_max(logits))
    p = e / e.sum(axis=3, keepdims=True)
    # heads side by side in each row: the column-wise concat of their outputs
    out = (p @ v).transpose(1, 2, 0, 3).reshape(n, heads * d_h)

    def vjp(g):
        gb = g.reshape(m, group, heads, d_h).transpose(2, 0, 1, 3)
        dp = gb @ v.swapaxes(2, 3)
        ds = p * (dp - (dp * p).sum(axis=3, keepdims=True)) * c
        d_products = (ds @ k, ds.swapaxes(2, 3) @ q, p.swapaxes(2, 3) @ gb)
        gx = None
        gw = [None] * len(weights)
        for h in reversed(range(heads)):
            for role in (2, 1, 0):  # v, k, q
                d = d_products[role][h].reshape(n, d_h)
                w = weights[role * heads + h]
                if x.requires_grad:
                    term = d @ w.data.T
                    gx = term if gx is None else gx + term
                if w.requires_grad:
                    gw[role * heads + h] = x.data.T @ d
        return (gx, *gw)

    return _result(out, (x, *weights), vjp)


LAYER_NORM_EPS = 1e-5


def _row_mean(a: np.ndarray) -> np.ndarray:
    # what a.mean(axis=1, keepdims=True) computes, without its Python-level wrapper
    return np.add.reduce(a, axis=1, keepdims=True) / a.shape[1]


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance, then affine."""
    if x.data.ndim != 2:
        raise ShapeMismatch(f"layer_norm needs 2-D input, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatch(f"layer_norm affine shapes {gain.shape}/{bias.shape} for width {d}")
    mu = _row_mean(x.data)
    xc = x.data - mu
    var = _row_mean(xc * xc)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv

    def vjp(g):
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - _row_mean(dxhat)
            - xhat * _row_mean(dxhat * xhat)
        )
        return dx, (g * xhat).sum(axis=0), g.sum(axis=0)

    return _result(xhat * gain.data + bias.data, (x, gain, bias), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Elementwise tanh-form GELU."""
    d = x.data
    # d * d * d, not d**3: numpy sends a float power to the generic pow
    t = np.tanh(_GELU_C * (d + 0.044715 * (d * d * d)))

    def vjp(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * d * d)
        return (g * (0.5 * (1.0 + t) + 0.5 * d * (1.0 - t * t) * du),)

    return _result(0.5 * d * (1.0 + t), (x,), vjp)


def _topk_index(data: np.ndarray, k: int, axis: int = 0) -> np.ndarray:
    # stable argsort on the negated values: ties resolve to the lower index
    return np.argsort(-data, axis=axis, kind="stable").take(range(k), axis=axis)


def topk_mean(v: Tensor, k: int) -> Tensor:
    """Mean of the k largest entries of a vector; ties go to lower indices."""
    if v.data.ndim != 1:
        raise ShapeMismatch(f"topk_mean needs a vector, got {v.shape}")
    n = v.shape[0]
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside [1, {n}]")
    idx = _topk_index(v.data, k)

    def vjp(g):
        out = np.zeros_like(v.data)
        out[idx] = g / k
        return (out,)

    return _result(v.data[idx].mean(), (v,), vjp)


def topk_mean_cols(x: Tensor, k: int, group: int | None = None) -> Tensor:
    """Column-wise topk_mean within each block of `group` consecutive rows.

    An (m * group)-by-d matrix gives an m-by-d matrix; without `group` the
    whole n-by-d matrix is one block and the result is a d-vector.
    """
    if x.data.ndim != 2:
        raise ShapeMismatch(f"topk_mean_cols needs 2-D, got {x.shape}")
    n, d = x.shape
    size = n if group is None else group
    if size < 1 or n % size:
        raise ShapeMismatch(f"{n} rows do not split into groups of {size}")
    if not 1 <= k <= size:
        raise KOutOfRange(f"k={k} outside [1, {size}]")
    blocks = x.data.reshape(n // size, size, d)
    idx = _topk_index(blocks, k, axis=1)
    out_shape = (d,) if group is None else (n // size, d)

    def vjp(g):
        out = np.zeros_like(blocks)
        np.put_along_axis(out, idx, g.reshape(-1, 1, d) / k, axis=1)
        return (out.reshape(n, d),)

    return _result(np.take_along_axis(blocks, idx, axis=1).mean(axis=1).reshape(out_shape), (x,), vjp)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    shape = x.shape
    return _result(x.data.mean(), (x,), lambda g: (np.full(shape, g / n),))


def l2_normalize(v: Tensor) -> Tensor:
    """Scale a vector, or each row of a matrix, to unit L2 norm."""
    if v.data.ndim not in (1, 2):
        raise ShapeMismatch(f"l2_normalize needs a vector or matrix, got {v.shape}")
    n = np.sqrt(np.vecdot(v.data, v.data))[..., None]
    if n.min() < 1e-30:
        raise NonFinite("cannot normalize a zero vector")
    y = v.data / n

    def vjp(g):
        return ((g - y * np.vecdot(y, g)[..., None]) / n,)

    return _result(y, (v,), vjp)


def l1_distance(a: Tensor, b: Tensor) -> Tensor:
    """Sum of absolute differences along the last axis (per row of a
    matrix, a scalar for vectors); subgradient at ties is 0.
    """
    if a.shape != b.shape:
        raise ShapeMismatch(f"l1_distance shapes differ: {a.shape} vs {b.shape}")
    s = np.sign(a.data - b.data)

    def vjp(g):
        g = np.asarray(g)[..., None]
        return g * s, -g * s

    return _result(np.abs(a.data - b.data).sum(axis=-1), (a, b), vjp)


def pairwise_hinge(scores: Tensor, pos, neg) -> Tensor:
    """Per row, the sum over (p, n) pairs of max(1 + s_n - s_p, 0).

    `pos` and `neg` select entries of `scores`: index arrays for a score
    vector, boolean masks shaped like it for a batch of score rows. Pairs
    never cross rows. A vector gives a scalar, a B-by-d matrix a B-vector.
    Subgradient at the kink is 0: only strictly violated pairs carry
    gradient.
    """
    if scores.data.ndim not in (1, 2):
        raise ShapeMismatch(f"pairwise_hinge needs score rows, got {scores.shape}")
    s = scores.data
    is_pos = np.zeros(s.shape, dtype=bool)
    is_neg = np.zeros(s.shape, dtype=bool)
    is_pos[pos] = True
    is_neg[neg] = True
    # margins[..., p, n] = 1 + s_n - s_p
    margins = 1.0 + s[..., None, :] - s[..., :, None]
    active = is_pos[..., :, None] & is_neg[..., None, :] & (margins > 0.0)

    def vjp(g):
        g = np.asarray(g)[..., None]
        return (g * (active.sum(axis=-2) - active.sum(axis=-1)),)

    return _result(np.where(active, margins, 0.0).sum(axis=(-2, -1)), (scores,), vjp)


# ----------------------------------------------------------------------
# gradient verification
# ----------------------------------------------------------------------


def finite_difference_check(
    build: Callable[[], Tensor],
    leaves: Sequence[Tensor],
    rel_tol: float = 1e-4,
) -> float:
    """Compare analytic gradients against central finite differences.

    `build` must reconstruct the scalar loss from the current leaf data
    on every call. Steps are 1e-6 * max(1, |x|) per coordinate; the error
    measure is |a - n| / max(1, |a|, |n|). Returns the worst error seen
    and raises AssertionError if it exceeds `rel_tol`.
    """
    for leaf in leaves:
        leaf.zero_grad()
    backward(build())
    worst = 0.0
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
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err > worst:
                worst = err
    if worst > rel_tol:
        raise AssertionError(f"gradient mismatch: worst relative error {worst:.3e} > {rel_tol:g}")
    return worst
