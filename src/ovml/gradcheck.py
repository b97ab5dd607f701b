"""Finite-difference verification of every differentiable path.

Each named check draws small random instances, rebuilds its scalar loss
from leaf data, and compares analytic against central-difference
gradients at relative tolerance `autodiff.GRAD_REL_TOL` (1e-4).
Instance generators steer clear of subgradient kinks (hinge margins at
zero, top-k boundary ties, L1 ties); the exact-zero subgradient
convention at those points is pinned by unit tests instead.

`run_suite` runs the checks in two forked workers where the process may
use two CPUs or more (its affinity mask): `stage1_loss` is about half a
suite, so a third worker could not finish it sooner. Each check draws only
from its own `gradcheck.<name>` substream, so every row is the same, bit
for bit and in `CHECKS` order, as a run of one check after another. On
one usable CPU, or where `os.fork` is missing, the checks run one after
another in-process. A check that raises in a worker raises the same
exception in the caller, chained to the worker's formatted traceback.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, finite_difference_check
from .heads import EmbeddingPair, init_two_stream, score, two_stream
from .labels import LabelEmbeddingTable, LabelSplit
from .losses import distill_loss, ranking_loss
from .model import Model, ModelConfig, encode, fixed_table, score_image
from .seeds import substream
from .text_encoder import init_text_surrogate, text_surrogate_encode
from .training import stage1_losses, stage2_loss
from .vit import BackboneOutput, PatchSequence, init_block, init_vit, msa, vit_forward

GAP = 1e-3  # minimum distance from any kink


@dataclass
class CheckResult:
    name: str
    instances: int
    worst: float
    ok: bool

    def line(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        return f"{mark} {self.name:<28s} worst {self.worst:.3e} over {self.instances} instances"


def _param(rng, *shape) -> Tensor:
    return ad.tensor(rng.normal(0.0, 1.0, shape), requires_grad=True)


def _randomize(leaves, rng, scale: float = 0.5) -> None:
    """Move init_* parameters to generic positions: nonzero biases, non-unit
    gains, and activations large enough that kink-gap conditions are
    satisfiable (0.02-scale init makes patch similarities ~1e-4, below GAP).
    """
    for t in leaves:
        t.data = rng.normal(0.0, scale, t.shape)


def _topk_safe_vector(rng, n: int, k: int) -> np.ndarray:
    """Values whose k-th/(k+1)-th sorted entries are separated by > GAP."""
    while True:
        v = rng.normal(0.0, 1.0, n)
        s = np.sort(v)[::-1]
        if k == n or s[k - 1] - s[k] > GAP:
            return v


# --- single-op checks ---


def _check_matmul(rng):
    a, b = _param(rng, 3, 4), _param(rng, 4, 2)
    return lambda: ad.mean_all(ad.matmul(a, b)), [a, b]


def _check_softmax(rng):
    x = _param(rng, 4, 5)
    w = ad.tensor(rng.normal(0.0, 1.0, (4, 5)))  # constant shift keeps the instance generic
    return lambda: ad.mean_all(ad.softmax_rows(ad.add(x, w))), [x]


def _check_layernorm(rng):
    x, gain, bias = _param(rng, 4, 6), _param(rng, 6), _param(rng, 6)
    return lambda: ad.mean_all(ad.layer_norm(x, gain, bias)), [x, gain, bias]


def _check_gelu(rng):
    x = _param(rng, 3, 4)
    return lambda: ad.mean_all(ad.gelu(x)), [x]


def _check_topk_mean(rng):
    k = int(rng.integers(1, 6))
    v = ad.tensor(_topk_safe_vector(rng, 7, k), requires_grad=True)
    return lambda: ad.topk_mean(v, k), [v]


def _topk_cols_check(groups: int, d: int):
    """Top-k pooling over `groups` blocks of 5 rows by d columns, each
    column of each block with safe top-k gaps."""
    def check(rng):
        k = int(rng.integers(1, 4))
        blocks = [np.stack([_topk_safe_vector(rng, 5, k) for _ in range(d)], axis=1) for _ in range(groups)]
        x = ad.tensor(np.concatenate(blocks, axis=0), requires_grad=True)
        return lambda: ad.mean_all(ad.topk_mean_cols(x, k, group=5)), [x]
    return check


def _check_self_attention(rng):
    """Two heads of width 2 over two 3-row sequences of width 4: the attention
    kernel that `vit.msa` and `vit.encoder_block` run, as one node."""
    x = _param(rng, 6, 4)
    wq, wk, wv = ([_param(rng, 4, 2) for _ in range(2)] for _ in range(3))
    w = ad.tensor(rng.normal(0.0, 1.0, (6, 4)))

    def build():
        out, vjp = ad._attention(x.data, wq, wk, wv, 3)
        return _weighted_sum(ad._result(out, (x, *wq, *wk, *wv), vjp), w)
    return build, [x, *wq, *wk, *wv]


def _weighted_sum(x: Tensor, w: Tensor) -> Tensor:
    """A scalar whose gradient differs per entry of x (unlike a plain mean)."""
    return ad.mean_all(ad.matmul(ad.reshape(x, (1, x.data.size)), ad.reshape(w, (w.data.size, 1))))


def _margins_clear(s: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> bool:
    """Every selected (positive, negative) pair of every score row has its
    hinge margin away from the kink.
    """
    margins = 1.0 + s[:, None, :] - s[:, :, None]
    pairs = pos[:, :, None] & neg[:, None, :]
    return bool(pairs.any()) and np.abs(margins[pairs]).min() > GAP


def _random_positives(rng, b: int, d: int) -> np.ndarray:
    """b x d mask with between 1 and d - 1 positives per row."""
    while True:
        pos = rng.random((b, d)) < 0.5
        count = pos.sum(axis=1)
        if ((count > 0) & (count < d)).all():
            return pos


def _check_pairwise_hinge(rng):
    while True:
        s_data = rng.normal(0.0, 1.5, (5, 8))
        pos = rng.random((5, 8)) < 0.4
        neg = ~pos & (rng.random((5, 8)) < 0.8)  # not every non-positive is a negative
        if _margins_clear(s_data, pos, neg):
            break
    s = ad.tensor(s_data, requires_grad=True)
    w = ad.tensor(rng.normal(0.0, 1.0, 5))
    return lambda: _weighted_sum(ad.pairwise_hinge(s, pos, neg), w), [s]


def _check_linear_ops(rng):
    """concat / slice / transpose / reshape / add / add_rowvec / linear /
    scale in one chain, with a row slice per block of rows.
    """
    a, b, c = _param(rng, 3, 4), _param(rng, 2, 4), _param(rng, 4)
    w, bias = _param(rng, 4, 4), _param(rng, 4)
    def build():
        joined = ad.concat([a, b], axis=0)             # 5 x 4
        shifted = ad.add_rowvec(joined, c)
        cut = ad.slice_rows(shifted, 1, 5, group=5)    # 4 x 4
        mapped = ad.linear(cut, w, bias)
        inner = ad.slice_rows(mapped, 1, 2, group=2)   # row 1 of each pair, 2 x 4
        flipped = ad.transpose(inner)                  # 4 x 2
        flat = ad.reshape(flipped, (2, 4))
        return ad.mean_all(ad.scale(ad.add(flat, flat), 0.5))
    return build, [a, b, c, w, bias]


def _check_l2_normalize(rng):
    v = _param(rng, 2, 4)
    return lambda: ad.mean_all(ad.l2_normalize(v)), [v]


# --- composite checks ---


def _check_msa(rng):
    block = init_block(rng, width=4, heads=2)
    x = _param(rng, 4, 4)
    leaves = [x, *block.wq, *block.wk, *block.wv, block.wo]
    _randomize(leaves, rng)
    return lambda: ad.mean_all(msa(x, block, group=4)), leaves


def _check_vit_forward(rng):
    params = init_vit(rng, patch_len=4, n_patches=3, width=4, heads=2, depth=1)
    seq = PatchSequence(ad.tensor(rng.normal(0.0, 1.0, (6, 4))), images=2)
    leaves = list(params.named().values())
    _randomize(leaves, rng)
    def build():
        out = vit_forward(seq, params)
        return ad.mean_all(ad.concat([out.o_cls, out.o_patch], axis=0))
    return build, leaves


def _check_two_stream(rng):
    params = init_two_stream(rng, width=4, embed_dim=3)
    o_cls, o_patch = _param(rng, 2, 4), _param(rng, 6, 4)
    leaves = [o_cls, o_patch, *params.named().values()]
    _randomize(leaves, rng)
    def build():
        emb = two_stream(BackboneOutput(o_cls=o_cls, o_patch=o_patch), params)
        return ad.mean_all(ad.concat([emb.e_cls, emb.e_patch], axis=0))
    return build, leaves


def _rows_unit(rng, d, dim):
    z = rng.normal(0.0, 1.0, (d, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _topk_gap(sims: np.ndarray, n: int, k: int) -> float:
    """Smallest k-th/(k+1)-th gap over the columns of every n-row group."""
    ranked = -np.sort(-sims.reshape(-1, n, sims.shape[1]), axis=1)
    return float((ranked[:, k - 1] - ranked[:, k]).min()) if k < n else np.inf


def _score_instance(rng, mode: str):
    """Two images' embeddings + table with comfortable top-k gaps in the local stream."""
    b, d, dim, n, k = 2, 4, 4, 4, 2
    table = LabelEmbeddingTable(
        z=ad.tensor(_rows_unit(rng, d, dim)), label_ids=tuple(range(d)), provenance="fixed"
    )
    while True:
        e_cls = _param(rng, b, dim)
        e_patch = _param(rng, b * n, dim)
        if mode == "global" or _topk_gap(e_patch.data @ table.matrix().T, n, k) > GAP:
            return e_cls, e_patch, table, k


def _check_score(rng, _modes=("both", "global", "local")):
    mode = _modes[int(rng.integers(0, len(_modes)))]
    e_cls, e_patch, table, k = _score_instance(rng, mode)
    def build():
        s = score(EmbeddingPair(e_cls=e_cls, e_patch=e_patch), table, k=k, heads=mode)
        return ad.mean_all(s)
    return build, [e_cls, e_patch]


def _check_ranking_loss(rng):
    while True:
        s_data = rng.normal(0.0, 1.5, (3, 6))
        pos = _random_positives(rng, 3, 6)
        if _margins_clear(s_data, pos, ~pos):
            break
    s = ad.tensor(s_data, requires_grad=True)
    return lambda: ranking_loss(s, pos), [s]


def _check_distill_loss(rng):
    while True:
        a = rng.normal(0.0, 1.0, (2, 5))
        b = rng.normal(0.0, 1.0, (2, 5))
        if np.abs(a - b).min() > GAP:
            break
    student = ad.tensor(a, requires_grad=True)
    return lambda: distill_loss(student, b), [student]


def _check_text_encode(rng):
    tokens = {i: rng.normal(0.0, 1.0, 6) for i in range(3)}
    surrogate = init_text_surrogate(rng, token_width=6, embed_dim=4, depth=1, heads=2, token_vectors=tokens)
    context = _param(rng, 3, 6)
    rows = surrogate.token_rows(range(3))
    return lambda: ad.mean_all(text_surrogate_encode(context, rows, surrogate)), [context]


def _tiny_model(rng, d: int, dim: int) -> Model:
    """A width-4, one-block model for 2 x 6 single-channel images (three
    2 x 2 patches), top-2 pooling, and a trainable prompt over d labels.
    """
    tokens = {i: rng.normal(0.0, 1.0, 6) for i in range(d)}
    return Model(
        vit=init_vit(rng, patch_len=4, n_patches=3, width=4, heads=2, depth=1),
        streams=init_two_stream(rng, width=4, embed_dim=dim),
        prompt=_param(rng, 2, 6),
        surrogate=init_text_surrogate(rng, token_width=6, embed_dim=dim, depth=1, heads=2, token_vectors=tokens),
        split=LabelSplit(seen=tuple(range(d)), unseen=()),
        categories={},
        config=ModelConfig(width=4, heads=2, depth=1, k=2),
        patch_size=2,
    )


def _check_stage1_loss(rng):
    """The training step's loss: images -> backbone -> heads -> rank + distill."""
    d, dim = 3, 3
    model = _tiny_model(rng, d, dim)
    table = LabelEmbeddingTable(
        z=ad.tensor(_rows_unit(rng, d, dim)), label_ids=tuple(range(d)), provenance="fixed"
    )
    leaves = list(model.vit.named().values()) + list(model.streams.named().values())
    teacher = rng.normal(0.0, 1.0, (2, dim))
    for attempt in range(1000):
        if attempt % 50 == 0:
            _randomize(leaves, rng)
        images = rng.normal(0.0, 1.0, (2, 1, 2, 6))
        positive = _random_positives(rng, 2, d)
        if _stage1_kink_free(model, images, positive, teacher, table):
            def build():
                rank, dist = stage1_losses(model, images, positive, teacher, table)
                return ad.add(rank, ad.scale(dist, 0.7))
            return build, leaves
    raise RuntimeError("no kink-free instance found for the full pipeline loss")


def _stage1_kink_free(model, images, positive, teacher, table) -> bool:
    with ad.no_grad():
        emb = encode(model, images)
        s = score_image(model, emb, table).data
    n = emb.e_patch.shape[0] // emb.e_cls.shape[0]
    return (
        _topk_gap(emb.e_patch.data @ table.matrix().T, n, model.config.k) > GAP
        and _margins_clear(s, positive, ~positive)
        and np.abs(emb.e_cls.data - teacher).min() > GAP
    )


def _check_stage2_loss(rng):
    """The prompt-tuning step's loss: gradients reach only the context."""
    b, n, d, dim = 2, 4, 3, 4
    model = _tiny_model(rng, d, dim)
    table = fixed_table(model)  # the search only reads scores
    for _ in range(1000):
        emb = EmbeddingPair(  # constant, as stage 2's cached embeddings are
            e_cls=ad.tensor(rng.normal(0.0, 1.0, (b, dim))),
            e_patch=ad.tensor(rng.normal(0.0, 1.0, (b * n, dim))),
        )
        positive = _random_positives(rng, b, d)
        s = score_image(model, emb, table).data
        sims = emb.e_patch.data @ table.matrix().T
        if _topk_gap(sims, n, model.config.k) > GAP and _margins_clear(s, positive, ~positive):
            return lambda: stage2_loss(model, emb, positive), [model.prompt]
    raise RuntimeError("no kink-free instance found for the prompt-tuning loss")


CHECKS = [
    ("matmul", _check_matmul),
    ("softmax_rows", _check_softmax),
    ("self_attention", _check_self_attention),
    ("layer_norm", _check_layernorm),
    ("gelu", _check_gelu),
    ("topk_mean", _check_topk_mean),
    ("topk_mean_cols", _topk_cols_check(groups=1, d=3)),
    ("topk_mean_groups", _topk_cols_check(groups=2, d=4)),
    ("pairwise_hinge", _check_pairwise_hinge),
    ("linear_ops", _check_linear_ops),
    ("l2_normalize", _check_l2_normalize),
    ("msa", _check_msa),
    ("vit_forward", _check_vit_forward),
    ("two_stream", _check_two_stream),
    ("score", _check_score),
    ("ranking_loss", _check_ranking_loss),
    ("distill_loss", _check_distill_loss),
    ("text_surrogate_encode", _check_text_encode),
    ("stage1_loss", _check_stage1_loss),
    ("stage2_loss", _check_stage2_loss),
]


def _run_check(name: str, maker, instances: int, seed: int) -> CheckResult:
    rng = substream(seed, f"gradcheck.{name}")
    worst, ok = 0.0, True
    for _ in range(instances):
        build, leaves = maker(rng)
        try:
            worst = max(worst, finite_difference_check(build, leaves))
        except AssertionError:
            ok = False
            worst = np.inf
            break
    return CheckResult(name=name, instances=instances, worst=worst, ok=ok)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_suite(instances: int = 20, seed: int = 0) -> list[CheckResult]:
    """One row per check, in `CHECKS` order. A maker's exception propagates:
    that of the first failing check in `CHECKS` order, as in a serial run,
    with a worker's traceback as its cause.
    """
    workers = min(_usable_cpus(), 2) if hasattr(os, "fork") else 1
    if workers == 1:
        return [_run_check(name, maker, instances, seed) for name, maker in CHECKS]
    outcomes = _run_forked(workers, instances, seed)
    rows = []
    for i, (name, _) in enumerate(CHECKS):
        if i not in outcomes:
            raise RuntimeError(f"gradient suite worker stopped before reporting check {name}")
        if isinstance(outcomes[i], tuple):
            error, text = outcomes[i]
            # the unpickled copy has no frames; the worker's text shows them
            raise error from RuntimeError(f"in a gradient suite worker:\n{text}")
        rows.append(outcomes[i])
    return rows


def _run_forked(workers: int, instances: int, seed: int) -> dict:
    """Each check's row, or its exception and formatted traceback, by its
    index in `CHECKS`, from `workers` forked children. They take indices
    from one pipe, costliest first (`stage1_loss` is about half a suite),
    and each sends back its outcomes through a pipe of its own. The parent
    runs no check itself, and reaps every child before it returns or raises.
    """
    tasks, feed = os.pipe()
    os.write(feed, bytes(reversed(range(len(CHECKS)))))  # one byte per index; later checks cost more
    os.close(feed)
    children = {}  # pid -> read end of its outcome pipe
    try:
        for _ in range(workers):
            out_r, out_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(tasks, out_w, instances, seed)
            os.close(out_w)
            children[pid] = open(out_r, "rb")
        outcomes = {}
        for out in children.values():
            if sent := out.read():  # nothing from a worker that died
                outcomes.update(pickle.loads(sent))
        return outcomes
    finally:
        while os.read(tasks, 256):  # on an error no worker starts another check
            pass
        os.close(tasks)
        for pid, out in children.items():
            out.close()
            os.waitpid(pid, 0)


def _worker(tasks: int, out_w: int, instances: int, seed: int) -> None:
    """A forked child's whole life. It leaves only through `os._exit`, so it
    never returns into its caller or flushes the buffers it inherited.
    """
    code = 1
    try:
        outcomes = {}
        while task := os.read(tasks, 1):
            name, maker = CHECKS[task[0]]
            try:
                outcomes[task[0]] = _run_check(name, maker, instances, seed)
            except Exception as e:
                import traceback  # only a worker formats one; the parent does not load it

                outcomes[task[0]] = (e, traceback.format_exc())
        with open(out_w, "wb") as out:
            pickle.dump(outcomes, out)
        code = 0
    finally:
        os._exit(code)
