"""Per-layer tracing installed from outside the library.

Layers are the modules of harmonic_census.  Tracer.install replaces every
public function that one layer imported from another (for example
harmonic_census.symmetry.enumerate_orbits or
harmonic_census.frames.exponent_counts) with a wrapper that records a span,
plus the entry points the benchmark calls and a few functions whose results
feed a counter.  No file of the library changes.

A span records its name, start, end and parent.  A span opened on a pool
thread whose own stack is empty takes as parent the innermost open span of
the client thread, which is the call that is waiting for the pool.  A span's
self time is its duration minus the union of its children's intervals, so
children that ran in parallel on pool threads are not subtracted twice.
Spans are folded into per-layer totals as they close, which keeps memory
flat however many calls a workload makes.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "number_theory",
    "cyclotomic",
    "orbits",
    "census",
    "frames",
    "equivalence",
    "symmetry",
    "cli",
)
PACKAGE = "harmonic_census"

# (module, attribute) wrapped in the module's own namespace: the entry points
# the benchmark calls, and calls inside one layer that carry a counter
OWN_NAMESPACE = (
    ("cli", "main"),
    ("frames", "build_frame"),
    ("frames", "verify_funtf"),
    ("frames", "gram"),
    ("symmetry", "gram_automorphisms"),
    ("symmetry", "full_symmetry_group"),
)
# the scalar Z[w] path (frame export, Gram entries) is methods, not functions
CLASS_METHODS = (("cyclotomic", "CyclotomicInt", ("__post_init__", "to_complex")),)


def _coeff_bytes(args, res) -> int:
    if isinstance(res, np.ndarray):
        return res.nbytes
    if res is None and args and hasattr(args[0], "coeffs"):  # __post_init__
        return 8 * len(args[0].coeffs)
    return 0


def _count_symmetry(counts, func, res) -> None:
    if func == "gram_automorphisms":
        counts["symmetry.candidates"] += len(res)
    elif func == "full_symmetry_group":
        counts["symmetry.kept"] += len(res.full_permutations or ())
        counts["symmetry.subgroup_elements"] += len(res.subgroup_permutations or ())


def _count(counts, layer, func, args, res) -> None:
    if layer == "cyclotomic":
        counts["cyclotomic.coeff_bytes"] += _coeff_bytes(args, res)
    elif layer == "orbits" and func == "enumerate_orbits":
        counts["orbits.orbits_emitted"] += len(res)
    elif layer == "equivalence" and func == "are_equivalent":
        counts["equivalence.witnesses"] += int(bool(res.equivalent))
    elif layer == "symmetry":
        _count_symmetry(counts, func, res)


class _Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "children")

    def __init__(self, layer: str, name: str, parent: "_Span | None"):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.children: list[tuple[float, float]] = []
        self.start = time.perf_counter()
        self.end = None


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack: list[_Span] = []
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)  # by "layer.func"
        self.calls: Counter = Counter()  # by "layer.func"
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list[_Span]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, name: str) -> _Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            client = self._client_stack
            parent = client[-1] if client and stack is not client else None
        span = _Span(layer, name, parent)
        stack.append(span)
        return span

    def _close(self, span: _Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            own = span.end - span.start - _union_length(span.children)
            key = f"{span.layer}.{span.name}"
            self.self_s[key] += own
            self.calls[key] += 1
            if span.parent is not None:
                span.parent.children.append((span.start, span.end))

    def wrap(self, layer: str, fn):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(span)
            with self._lock:
                _count(self.counts, layer, name, args, res)
            return res

        return traced

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, layer: str) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, original))

    def install(self, modules: dict) -> None:
        """modules maps layer name to the imported module."""
        by_name = {m.__name__: layer for layer, m in modules.items()}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = by_name.get(obj.__module__)
                if home is not None and home != layer:
                    self._patch(mod, attr, home)
        for layer, attr in OWN_NAMESPACE:
            if hasattr(modules[layer], attr):
                self._patch(modules[layer], attr, layer)
        for layer, cls_name, methods in CLASS_METHODS:
            cls = getattr(modules[layer], cls_name, None)
            for attr in methods:
                if cls is not None and attr in vars(cls):
                    self._patch(cls, attr, layer)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            keys = [k for k in self.calls if k.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = sum(self.self_s[k] for k in keys)
            out[f"{layer}.calls"] = sum(self.calls[k] for k in keys)
        out.update(self.counts)
        return out
