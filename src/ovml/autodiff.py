"""Dense float64 tensors with reverse-mode differentiation.

The op set is deliberately closed: the operations the pipeline composes
(matrix product, linear layer, additions, scaling, concat/row
slice/transpose/reshape, row softmax, multi-head self-attention, layer
norm, GELU, top-k mean pooling, L2 row normalization, pairwise hinge, L1
distance, mean). There is no broadcasting engine. Six of them,
`add_rowvec`, `transpose`, `softmax_rows`, `layer_norm`, `topk_mean` and
`topk_mean_cols`, are called only by `gradcheck` and the tests: the
pipeline reaches their kernels through the fused nodes below. They stay
because the benchmark tracer's `LAYERS` table names them, until an
in-program profiler replaces that table (ROADMAP items 4 and 10).

A minibatch is one graph: images (or labels) are stacked row-wise, and
the ops that must not mix them (attention, top-k pooling, the per-block
row slice) work within fixed-size groups of consecutive rows. Each takes
its group explicitly; a single sequence is the one group of all its rows.

`linear`, `vit.msa`, the ViT token embedding in `vit.vit_forward`,
`vit.encoder_block` and `heads.score` are fused: one node each, doing the
arithmetic of the subgraph it stands for in the same order, so results
are bit-identical to it. They run the ops' array kernels (`_gemm`,
`_linear`, `_attention`, `_layer_norm`, `_gelu`, `_topk_mean_cols`);
`softmax_rows` runs the softmax kernel, and `topk_mean` is one column of
`topk_mean_cols`.

Every tensor is verified finite at construction, so a NaN/Inf produced
anywhere surfaces immediately instead of propagating. The test is
`_all_finite`: one BLAS dot product, the sum of squares. A finite sum
proves every entry finite; only a NaN, an Inf, or squares that overflow
send it on to the elementwise `np.isfinite` reduction, which decides. The
dot runs in BLAS, outside numpy's ufunc loops, which are what turn a
floating-point overflow into a RuntimeWarning, so neither step warns. The
attention logits, `heads.score`'s similarities, AdamW's update and
`tensor_io.parse_tensor` use it too.

Paths that never call `backward` (scoring, table snapshots, cached
embeddings) run under `no_grad()`: ops compute the same data but record
no graph, so every result is a constant leaf.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

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


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the float64 array a is finite (True for an
    empty array): np.isfinite(a).all()'s answer.

    A NaN or an Inf makes the sum of squares NaN or Inf, so a finite sum,
    one BLAS dot (with no temporary for a contiguous array), proves every
    entry finite. A sum that is not finite (a NaN, an Inf, or finite
    entries whose squares overflow) falls back to the elementwise test.
    BLAS does not report overflow, so neither step warns. Entries near
    1e-160 square into the subnormal range, where the dot runs 4 to 5 times
    slower than the elementwise test; no array the benchmark's workloads
    check holds such values.
    """
    return math.isfinite(np.vdot(a, a)) or bool(np.logical_and.reduce(np.isfinite(a), axis=None))


class Tensor:
    """A dense float64 array with an optional gradient slot.

    Tensors produced by ops remember their parents and a backward rule;
    creation order doubles as the topological order of the graph, so
    `backward` visits nodes in exactly the reverse of forward order.
    """

    __slots__ = ("data", "grad", "requires_grad", "_id", "_parents", "_vjp", "_spent")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None):
        arr = np.asarray(data, dtype=np.float64)
        if not _all_finite(arr):
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
_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Ops inside the block record no graph: each result keeps only its data
    (no parents, no backward rule, requires_grad False). Forward arithmetic
    is unchanged. Nested blocks restore the mode their caller had.
    """
    global _grad_enabled
    before, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = before


def _result(data, parents: tuple[Tensor, ...], vjp) -> Tensor:
    if _grad_enabled and any(map(_requires_grad, parents)):
        return Tensor(data, True, parents, vjp)
    return Tensor(data)


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf reachable from `loss`.

    The seed gradient is 1. Grads accumulate into leaves, so per-image
    losses of a batch may be backwarded one by one. A node joins a max-heap on
    `_id` at its first gradient and pops after all its (newer) consumers.
    """
    if loss.data.shape != ():
        raise NotScalar(f"backward needs a scalar, got shape {loss.data.shape}")
    if loss._spent:
        raise DoubleBackward("backward already ran for this graph output")
    loss._spent = True

    grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
    heap = [(-loss._id, loss)] if loss.requires_grad else []
    while heap:
        t = heapq.heappop(heap)[1]
        g = grads.pop(id(t))
        if t._vjp is None:
            t.grad = g.copy() if t.grad is None else t.grad + g
            continue
        for parent, pg in zip(t._parents, t._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            if acc is None:
                grads[id(parent)] = pg
                heapq.heappush(heap, (-parent._id, parent))
            else:
                grads[id(parent)] = acc + pg


# ----------------------------------------------------------------------
# ops
# ----------------------------------------------------------------------


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-D a."""
    if a.shape[0] == 1:
        # numpy hands a one-row product to gemv, which rounds differently
        # from the gemm that computes each row of a taller product; going
        # through gemm keeps every row's value independent of its batch
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


def _check_product(name: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"{name} needs 2-D operands with equal inner dims, got {a.shape} @ {b.shape}")


def _product_vjp(a: np.ndarray, b: Tensor, g: np.ndarray, need_a: bool) -> tuple:
    # no gradient for a constant operand (input patches, a fixed label table)
    return (g @ b.data.T if need_a else None, a.T @ g if b.requires_grad else None)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_product("matmul", a.data, b.data)
    return _result(_gemm(a.data, b.data), (a, b), lambda g: _product_vjp(a.data, b, g, a.requires_grad))


def _linear(x: np.ndarray, w: Tensor, b: Tensor, need_x: bool):
    """`linear` on an array x: the output, and a vjp giving x's (if `need_x`), w's and b's gradients."""
    _check_product("linear", x, w.data)
    if b.data.ndim != 1 or b.data.shape[0] != w.data.shape[1]:
        raise ShapeMismatch(f"linear bias {b.shape} for output width {w.shape[1]}")

    def vjp(g):
        return (*_product_vjp(x, w, g, need_x), np.add.reduce(g, axis=0) if b.requires_grad else None)

    return _gemm(x, w.data) + b.data, vjp


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w plus the vector b on every row: add_rowvec(matmul(x, w), b) as one node."""
    out, vjp = _linear(x.data, w, b, x.requires_grad)
    return _result(out, (x, w, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"add shapes differ: {a.shape} vs {b.shape}")
    return _result(a.data + b.data, (a, b), lambda g: (g, g))


def add_rowvec(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-n vector to every row of an m-by-n matrix."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"add_rowvec shapes: {x.shape} + {b.shape}")
    return _result(x.data + b.data, (x, b), lambda g: (g, np.add.reduce(g, axis=0)))


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
    parts = tuple(parts)
    if not parts:
        raise ShapeMismatch("concat of nothing")

    def vjp(g):
        return tuple(np.split(g, np.cumsum([p.shape[axis] for p in parts])[:-1], axis=axis))

    return _result(np.concatenate([p.data for p in parts], axis=axis), parts, vjp)


def _blocks(a: np.ndarray, group: int) -> np.ndarray:
    """a's rows as consecutive blocks of `group`: shape (n // group, group, ...)."""
    n = a.shape[0]
    if group < 1 or n % group:
        raise ShapeMismatch(f"{n} rows do not split into groups of {group}")
    return a.reshape((n // group, group) + a.shape[1:])


def slice_rows(x: Tensor, start: int, stop: int, group: int) -> Tensor:
    """Rows start:stop of each block of `group` consecutive rows of x, the
    blocks' slices still row-stacked in block order.
    """
    blocks = _blocks(x.data, group)
    if not 0 <= start < stop <= group:
        raise ShapeMismatch(f"slice_rows [{start}:{stop}] of blocks of {group} out of {x.shape}")
    rest = x.shape[1:]

    def vjp(g):
        full = np.zeros_like(blocks)
        full[:, start:stop] = g.reshape((len(blocks), stop - start) + rest)
        return (full.reshape(x.shape),)

    return _result(blocks[:, start:stop].copy().reshape((-1,) + rest), (x,), vjp)


def _last_axis_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1, keepdims=True); numpy reduces a short last axis row by
    row, so this reduces a transposed copy instead (a max is exact either way).
    """
    rows = a.reshape(-1, a.shape[-1])
    return np.maximum.reduce(np.ascontiguousarray(rows.T), axis=0).reshape(a.shape[:-1] + (1,))


def _softmax(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, with the max subtracted first."""
    e = np.exp(a - _last_axis_max(a))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _softmax_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    return p * (g - np.add.reduce(g * p, axis=-1, keepdims=True))


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax: the attention kernel on a matrix."""
    if x.data.ndim != 2:
        raise ShapeMismatch(f"softmax_rows needs 2-D, got {x.shape}")
    p = _softmax(x.data)
    return _result(p, (x,), lambda g: (_softmax_vjp(p, g),))


def _attention(x: np.ndarray, wq: Sequence[Tensor], wk: Sequence[Tensor], wv: Sequence[Tensor], group: int):
    """Multi-head self-attention of an array x within each block of `group`
    rows, softmax(q k^T / sqrt(d_h)) v per head side by side, and a vjp giving
    x's and the weights' gradients. x's gradient sums head H-1's v, k, q terms
    first, then head H-2's, and so on: the order of the per-head graph.
    """
    heads = len(wq)
    if x.ndim != 2 or heads < 1 or len(wk) != heads or len(wv) != heads:
        raise ShapeMismatch(f"attention over {x.shape} with {len(wq)}/{len(wk)}/{len(wv)} head weights")
    n, width = x.shape
    d_h = wq[0].shape[-1]
    weights = (*wq, *wk, *wv)
    if any(w.data.shape != (width, d_h) for w in weights):
        raise ShapeMismatch(f"attention head weights {[w.shape for w in weights]} for input {x.shape}")
    m = len(_blocks(x, group))
    c = 1.0 / math.sqrt(d_h)
    # one gemm against every weight side by side; each column block is the
    # same bits as its own product. Rearranged to (heads, m, group, d_h)
    # each: every head's sequences stacked; the matrix products below still
    # run once per head and sequence
    products = _gemm(x, np.concatenate([w.data for w in weights], axis=1))
    q, k, v = np.ascontiguousarray(products.reshape(n, 3 * heads, d_h).transpose(1, 0, 2)).reshape(
        3, heads, m, group, d_h
    )
    logits = (q @ k.swapaxes(2, 3)) * c
    if not _all_finite(logits):
        raise NonFinite("attention logits hold NaN/Inf values")
    p = _softmax(logits)

    def vjp(g):
        gb = g.reshape(m, group, heads, d_h).transpose(2, 0, 1, 3)
        dp = gb @ v.swapaxes(2, 3)
        ds = _softmax_vjp(p, dp) * c
        d_products = np.stack((ds @ k, ds.swapaxes(2, 3) @ q, p.swapaxes(2, 3) @ gb)).reshape(3 * heads, n, d_h)
        gx = None
        for h in reversed(range(heads)):
            for role in (2, 1, 0):  # v, k, q
                term = d_products[role * heads + h] @ weights[role * heads + h].data.T
                gx = term if gx is None else gx + term
        gw = [None] * len(weights)
        if any(w.requires_grad for w in weights):
            # every weight's gradient from one gemm, column blocks in weight order
            gw_all = x.T @ d_products.transpose(1, 0, 2).reshape(n, -1)
            gw = [gw_all[:, j * d_h:(j + 1) * d_h] if w.requires_grad else None for j, w in enumerate(weights)]
        return (gx, *gw)

    # heads side by side in each row: the column-wise concat of their outputs
    return (p @ v).transpose(1, 2, 0, 3).reshape(n, heads * d_h), vjp


LAYER_NORM_EPS = 1e-5


def _row_mean(a: np.ndarray) -> np.ndarray:
    # what a.mean(axis=1, keepdims=True) computes, without its Python-level wrapper
    return np.add.reduce(a, axis=1, keepdims=True) / a.shape[1]


def _layer_norm(x: np.ndarray, gain: Tensor, bias: Tensor):
    """`layer_norm` on an array x: the output, and a vjp giving x's, gain's and bias's gradients."""
    if x.ndim != 2 or gain.shape != x.shape[1:] or bias.shape != x.shape[1:]:
        raise ShapeMismatch(f"layer_norm of {x.shape} with affine shapes {gain.shape}/{bias.shape}")
    xc = x - _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(xc * xc) + LAYER_NORM_EPS)
    xhat = xc * inv

    def vjp(g):
        dxhat = g * gain.data
        dx = inv * (dxhat - _row_mean(dxhat) - xhat * _row_mean(dxhat * xhat))
        return (
            dx,
            np.add.reduce(g * xhat, axis=0) if gain.requires_grad else None,
            np.add.reduce(g, axis=0) if bias.requires_grad else None,
        )

    return xhat * gain.data + bias.data, vjp


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance, then affine."""
    out, vjp = _layer_norm(x.data, gain, bias)
    return _result(out, (x, gain, bias), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu(d: np.ndarray):
    """`gelu` on an array: the output and its vjp."""
    # d * d * d, not d**3: numpy sends a float power to the generic pow
    t = np.tanh(_GELU_C * (d + 0.044715 * (d * d * d)))

    def vjp(g):
        return g * (0.5 * (1.0 + t) + 0.5 * d * (1.0 - t * t) * (_GELU_C * (1.0 + 3 * 0.044715 * d * d)))

    return 0.5 * d * (1.0 + t), vjp


def gelu(x: Tensor) -> Tensor:
    """Elementwise tanh-form GELU."""
    out, vjp = _gelu(x.data)
    return _result(out, (x,), lambda g: (vjp(g),))


def topk_mean(v: Tensor, k: int) -> Tensor:
    """Mean of the k largest entries of a vector; ties go to lower indices."""
    if v.data.ndim != 1:
        raise ShapeMismatch(f"topk_mean needs a vector, got {v.shape}")
    n = v.shape[0]
    return reshape(topk_mean_cols(reshape(v, (n, 1)), k, group=n), ())


def _topk_mean_cols(a: np.ndarray, k: int, group: int):
    """`topk_mean_cols` on an array: the output and its vjp."""
    blocks = _blocks(a, group)
    if not 1 <= k <= group:
        raise KOutOfRange(f"k={k} outside [1, {group}]")
    m, _, d = blocks.shape
    # the k largest of each column, largest first, as a contiguous (m, k, d)
    # array: the values and layout the stable ranking gathers, so the mean
    # adds the same numbers in the same order (tied entries are equal, so
    # which of them wins does not change the sum)
    ranked = np.sort(np.ascontiguousarray(blocks.transpose(0, 2, 1)), axis=-1)
    top = np.ascontiguousarray(ranked[:, :, ::-1][:, :, :k].transpose(0, 2, 1))

    def vjp(g):
        # the stable ranking of the forward's values: ties go to the lower row
        idx = np.argsort(-blocks, axis=1, kind="stable")[:, :k]
        out = np.zeros_like(blocks)
        np.put_along_axis(out, idx, g.reshape(m, 1, d) / k, axis=1)
        return out.reshape(a.shape)

    # what top.mean(axis=1) computes, without its Python wrapper
    return np.add.reduce(top, axis=1) / k, vjp


def topk_mean_cols(x: Tensor, k: int, group: int) -> Tensor:
    """Mean of the k largest entries of each column within each block of
    `group` consecutive rows: an (m * group)-by-d matrix gives m-by-d.
    Ties go to the lower row.
    """
    if x.data.ndim != 2:
        raise ShapeMismatch(f"topk_mean_cols needs 2-D, got {x.shape}")
    out, vjp = _topk_mean_cols(x.data, k, group)
    return _result(out, (x,), lambda g: (vjp(g),))


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    shape = x.shape
    # what ndarray.mean computes, without its Python wrapper
    return _result(np.add.reduce(x.data, axis=None) / n, (x,), lambda g: (np.full(shape, g / n),))


def l2_normalize(x: Tensor) -> Tensor:
    """Scale each row of a matrix to unit L2 norm."""
    if x.data.ndim != 2:
        raise ShapeMismatch(f"l2_normalize needs a matrix, got {x.shape}")
    n = np.sqrt(np.vecdot(x.data, x.data))[:, None]
    if n.min() < 1e-30:
        raise NonFinite("cannot normalize a zero vector")
    y = x.data / n

    def vjp(g):
        return ((g - y * np.vecdot(y, g)[:, None]) / n,)

    return _result(y, (x,), vjp)


def l1_distance(a: Tensor, b: Tensor) -> Tensor:
    """Sum of absolute differences of each row pair of two equal-shape
    matrices, a vector with one entry per row; subgradient at ties is 0.
    """
    if a.data.ndim != 2 or a.shape != b.shape:
        raise ShapeMismatch(f"l1_distance needs two equal-shape matrices, got {a.shape} and {b.shape}")
    d = a.data - b.data

    def vjp(g):
        s = np.sign(d)
        return g[:, None] * s, -g[:, None] * s

    return _result(np.add.reduce(np.abs(d), axis=1), (a, b), vjp)


def pairwise_hinge(scores: Tensor, pos: np.ndarray, neg: np.ndarray) -> Tensor:
    """Per row of a B-by-d score matrix, the sum over (p, n) pairs of
    max(1 + s_n - s_p, 0): a B-vector.

    `pos` and `neg` are boolean masks shaped like `scores` that select each
    row's positive and negative entries; pairs never cross rows.
    Subgradient at the kink is 0: only strictly violated pairs carry
    gradient.
    """
    s, pos, neg = scores.data, np.asarray(pos), np.asarray(neg)
    if s.ndim != 2 or pos.dtype != bool or neg.dtype != bool or not s.shape == pos.shape == neg.shape:
        raise ShapeMismatch(
            f"pairwise_hinge needs bool masks shaped like its score rows, got {s.shape} scores, "
            f"masks {pos.dtype} {pos.shape} and {neg.dtype} {neg.shape}"
        )
    # margins[b, p, n] = 1 + s_n - s_p
    margins = 1.0 + s[:, None, :] - s[:, :, None]
    active = pos[:, :, None] & neg[:, None, :] & (margins > 0.0)

    def vjp(g):
        return (g[:, None] * (np.add.reduce(active, axis=1) - np.add.reduce(active, axis=2)),)

    return _result(np.add.reduce(np.where(active, margins, 0.0), axis=(1, 2)), (scores,), vjp)


# ----------------------------------------------------------------------
# gradient verification
# ----------------------------------------------------------------------


GRAD_REL_TOL = 1e-4


def finite_difference_check(build: Callable[[], Tensor], leaves: Sequence[Tensor]) -> float:
    """Compare analytic gradients against central finite differences.

    `build` must reconstruct the scalar loss from the current leaf data
    on every call. Steps are 1e-6 * max(1, |x|) per coordinate; the error
    measure is |a - n| / max(1, |a|, |n|). Returns the worst error seen
    and raises AssertionError if it exceeds `GRAD_REL_TOL`.
    """
    for leaf in leaves:
        leaf.zero_grad()
    backward(build())
    worst = 0.0
    with no_grad():  # the perturbed losses are only read, never differentiated
        for leaf in leaves:
            analytic = np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad
            flat = leaf.data.reshape(-1)
            # Python floats: the same IEEE arithmetic as numpy scalars, without their overhead
            for i, (x0, a) in enumerate(zip(flat.tolist(), analytic.reshape(-1).tolist())):
                h = 1e-6 * max(1.0, abs(x0))
                flat[i] = x0 + h
                up = build().item()
                flat[i] = x0 - h
                down = build().item()
                flat[i] = x0
                numeric = (up - down) / (2 * h)
                err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
                if err > worst:
                    worst = err
    if worst > GRAD_REL_TOL:
        raise AssertionError(f"gradient mismatch: worst relative error {worst:.3e} > {GRAD_REL_TOL:g}")
    return worst
