"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's side: `instrument` swaps each
traced public function for a wrapper in every `ovml` module that holds
the name, because several modules import functions by name
(`from .model import encode`) and would otherwise keep calling the
original. Everything is restored when the `with` block ends, so a run
can measure untraced and traced work in one process.

Per span name the tracer keeps a call count and self time: the span's
duration minus the time covered by its child spans. Calls are strictly
nested on one thread, so the children of a span never overlap and their
durations simply add up.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# Traced functions, keyed by the ovml module that defines them.
LAYERS: dict[str, tuple[str, ...]] = {
    "autodiff": (
        "tensor", "backward", "finite_difference_check",
        "matmul", "add", "add_rowvec", "scale", "transpose", "reshape", "concat",
        "slice_rows", "softmax_rows", "layer_norm", "gelu", "topk_mean",
        "topk_mean_cols", "mean_all", "l2_normalize", "l1_distance", "pairwise_hinge",
    ),
    "vit": ("patchify", "vit_forward", "msa", "encoder_block"),
    "heads": ("two_stream", "score"),
    "model": ("encode", "score_batch"),
    "labels": ("build_label_table", "retrieval_accuracy"),
    "text_encoder": ("text_surrogate_encode",),
    "losses": ("ranking_loss", "distill_loss", "batch_mean"),
    "optim": ("AdamW.step",),
    "metrics": ("evaluate",),
    "synth": ("build_world", "sample", "write_dataset", "read_dataset"),
    "tensor_io": ("save_checkpoint", "load_checkpoint"),
}

# Set-up layers: their spans are opaque, so the model code they run
# internally (a world build encodes every label, for one) counts as their
# own self time and not as model work.
OPAQUE = frozenset({"synth", "tensor_io"})

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Aggregates nested spans into per-name call counts and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.covered_s = 0.0  # summed duration of root spans
        self.nodes = 0  # Tensors created
        self.grad_nodes = 0  # ... of which with requires_grad
        self.backward_nodes = 0  # op nodes (not leaves) a backward reached
        self._children: list[float] = []  # child time of each open span
        self._opaque = 0

    def open(self) -> float:
        self._children.append(0.0)
        return self.clock()

    def close(self, name: str, start: float) -> None:
        duration = self.clock() - start
        children = self._children.pop()
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
        if self._children:
            self._children[-1] += duration
        else:
            self.covered_s += duration

    @contextmanager
    def span(self, name: str):
        start = self.open()
        try:
            yield
        finally:
            self.close(name, start)

    def wrap(self, name: str, fn, opaque: bool = False):
        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            start = self.open()
            self._opaque += opaque
            try:
                return fn(*args, **kwargs)
            finally:
                self._opaque -= opaque
                self.close(name, start)

        return traced


def _op_nodes_reachable(loss) -> int:
    """Op nodes a backward from `loss` visits, walked the way `backward`
    walks them; reads the graph links that `Tensor` keeps privately.
    """
    seen: set[int] = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen or not t.requires_grad or not t._parents:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
    return len(seen)


@contextmanager
def instrument(tracer: Tracer):
    """Route every traced ovml function, and Tensor creation, through `tracer`."""
    from ovml import autodiff, optim

    modules = [m for name, m in list(sys.modules.items()) if name == "ovml" or name.startswith("ovml.")]
    undo: list[tuple[object, str, object]] = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod_name, fns in LAYERS.items():
        home = sys.modules[f"ovml.{mod_name}"]
        for fn_name in fns:
            name = f"{mod_name}.{fn_name}"
            if fn_name == "AdamW.step":
                replace(optim.AdamW, "step", tracer.wrap(name, optim.AdamW.step))
                continue
            original = getattr(home, fn_name)
            wrapped = tracer.wrap(name, original, opaque=mod_name in OPAQUE)
            if fn_name == "backward":
                wrapped = _counting_backward(tracer, wrapped)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        replace(mod, attr, wrapped)

    original_init = autodiff.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        tracer.nodes += 1
        tracer.grad_nodes += self.requires_grad

    replace(autodiff.Tensor, "__init__", counting_init)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def _counting_backward(tracer: Tracer, traced_backward):
    def backward(loss):
        # its own span, so the walk is not charged to backward or its caller
        with tracer.span("trace.graph_walk"):
            tracer.backward_nodes += _op_nodes_reachable(loss)
        return traced_backward(loss)

    return backward


def layer_metrics(tracer: Tracer, items: int, traced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit); untouched layers read 0."""
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0), "s")
    out["autodiff.nodes_per_image"] = (tracer.nodes / items, "count")
    out["autodiff.grad_nodes_per_image"] = (tracer.grad_nodes / items, "count")
    unused = max(tracer.grad_nodes - tracer.backward_nodes, 0)
    out["autodiff.unused_grad_node_ratio"] = (unused / tracer.grad_nodes if tracer.grad_nodes else 0.0, "ratio")
    out["trace.uncovered_share"] = (max(traced_wall_s - tracer.covered_s, 0.0) / traced_wall_s, "ratio")
    return out
