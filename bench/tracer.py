"""Per-layer tracing of permdl from outside the package.

The traced run replaces every public function of the layer modules (perm,
posets, minimal, bijections, duploss, patterns) and ``cli.main`` with a
wrapper that opens a span, under every name its callers use: the wrapper for
``posets.count_labellings`` is installed as ``permdl.minimal.count_labellings``
and ``permdl.count_labellings`` too.  ``Permutation.__post_init__`` is
wrapped as the span ``perm.validate``.  No file of the package changes.

Spans nest on a stack, so each span's parent is the span open when it began.
A span's self time is its duration minus the durations of its children; it is
folded into per-name totals (and per parent/child edge) when the span closes,
which keeps memory flat however many spans a run opens.  Generator functions
get one span per resumption, so their time is the time spent producing items.

Spans are recorded only while ``active`` is set: the harness turns it on
around each timed request and off while it generates inputs and checks
outputs, which also call into permdl.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from math import factorial
from time import perf_counter_ns

LAYERS = ("perm", "posets", "minimal", "bijections", "duploss", "patterns", "cli")

# Span names that differ from module.function, chosen to read as what the
# layer does rather than how the function happens to be called.
SPAN_NAMES = {
    "perm.parse_permutation": "perm.parse",
    "posets.authorized_labellings": "posets.labellings",
    "minimal.enumerate_basis_brute": "minimal.enumerate_brute",
    "minimal.enumerate_basis_compositions": "minimal.enumerate_compositions",
    "duploss.synthesize_scenario": "duploss.synthesize",
    "patterns.avoids_basis": "patterns.avoids",
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.edges: dict[tuple[str, str], list[int]] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = [["request", 0, 0]]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _close(self, frame: list, new_call: bool) -> None:
        duration = perf_counter_ns() - frame[1]
        self._stack.pop()
        parent = self._stack[-1]
        parent[2] += duration
        name = frame[0]
        if new_call:
            self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + duration
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - frame[2]
        edge = self.edges.setdefault((parent[0], name), [0, 0])
        edge[0] += new_call
        edge[1] += duration

    def count(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _wrap(self, fn, name: str):
        observe = _OBSERVERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                it = fn(*args, **kwargs)
                first = True
                while True:
                    frame = [name, perf_counter_ns(), 0]
                    tracer._stack.append(frame)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(frame, first)
                        return
                    except BaseException:
                        tracer._close(frame, first)
                        raise
                    tracer._close(frame, first)
                    first = False
                    if observe:
                        observe(tracer, args, item)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [name, perf_counter_ns(), 0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, True)
            if observe:
                observe(tracer, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions everywhere permdl refers to them."""
        modules = {layer: importlib.import_module(f"permdl.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            names = ["main"] if layer == "cli" else module.__all__
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    full = f"{layer}.{attr}"
                    wrappers[id(fn)] = self._wrap(fn, SPAN_NAMES.get(full, full))
        for namespace in [importlib.import_module("permdl"), *modules.values()]:
            for attr, value in list(vars(namespace).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)
        permutation = modules["perm"].Permutation
        original = permutation.__dict__["__post_init__"]
        self._restore.append((permutation, "__post_init__", original))
        permutation.__post_init__ = self._wrap(original, "perm.validate")

    def uninstall(self) -> None:
        while self._restore:
            target, attr, value = self._restore.pop()
            setattr(target, attr, value)

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns / 1e9
        return out

    def top_edges(self, limit: int = 12) -> list[tuple[str, str, int, float]]:
        rows = sorted(self.edges.items(), key=lambda kv: -kv[1][1])[:limit]
        return [(parent, child, calls, ns / 1e9) for (parent, child), (calls, ns) in rows]


def _observe_brute(tracer: Tracer, args, result) -> None:
    n = args[1]
    tracer.count("minimal.enumerate_brute.members", result.count)
    if args[0] >= 1 and args[0] + 1 <= n <= 2 * args[0]:
        tracer.count("minimal.enumerate_brute.scanned", factorial(n))


def _observe_involves(tracer: Tracer, args, result) -> None:
    tracer.count("patterns.involves.hits", bool(result))


_OBSERVERS = {
    "posets.compositions": lambda t, a, r: t.count("posets.compositions.items", len(r)),
    "posets.labellings": lambda t, a, r: t.count("posets.labellings.items"),
    "minimal.enumerate_brute": _observe_brute,
    "duploss.synthesize": lambda t, a, r: t.count("duploss.steps.items", len(r.steps)),
    "bijections.eco_children": lambda t, a, r: t.count("bijections.eco_nodes.items", len(r)),
    "patterns.involves": _observe_involves,
}
