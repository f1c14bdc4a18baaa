"""Spans around localex's public functions, installed from outside the package.

Each layer is wrapped at the module attributes where its callers look it up
(``localex.explain.evaluate``, not ``localex.models.evaluate``), so the
package itself stays untouched. A site that no longer exists is reported as
missing rather than failing the run.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable

# layer -> sites. A site is "module:attribute" or "module:dict[key]".
EXPLAIN_SITES = ("localex.harness:explain", "localex.cli:explain")
LAYERS: dict[str, tuple[str, ...]] = {
    "cli.main": ("localex.cli:main",),
    "harness.run": ("localex.cli:_RUNNERS[stability]", "localex.cli:_RUNNERS[converge]",
                    "localex.cli:_RUNNERS[fidelity]", "localex.cli:distributions_table"),
    "harness.emit": ("localex.cli:emit",),
    "harness.load": ("localex.cli:load_config", "localex.cli:load_input",
                     "localex.cli:load_model", "localex.cli:build_space",
                     "localex.harness:build_context"),
    "explain.explain": EXPLAIN_SITES,
    "sampling.draw": ("localex.explain:draw",),
    "sampling.batch_weights": ("localex.explain:batch_weights",),
    "feature_space.lift": ("localex.explain:reconstruct_binary",
                           "localex.explain:reconstruct_continuous"),
    "feature_space.feature_offsets": ("localex.metrics:feature_offsets",),
    "models.evaluate": ("localex.explain:evaluate", "localex.metrics:evaluate"),
    "solver.solve": ("localex.explain:solve_weighted_ridge",),
    "metrics.sample_ball": ("localex.metrics:sample_ball",),
    "metrics.local_fidelity": ("localex.harness:local_fidelity",),
    "metrics.top_k_jaccard": ("localex.harness:top_k_jaccard",),
    "metrics.explanation_distance": ("localex.harness:explanation_distance",),
}


def _resolve(site: str) -> tuple[Any, str | None, str]:
    """(module, dict key or None, attribute) for a site; raises LookupError."""
    module_name, _, attr = site.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(site) from exc
    key = None
    if attr.endswith("]"):
        attr, _, key = attr[:-1].partition("[")
    if not hasattr(module, attr):
        raise LookupError(site)
    if key is not None and key not in getattr(module, attr):
        raise LookupError(site)
    return module, key, attr


class Patches:
    """Wrappers installed at sites, undone in reverse order by ``undo``."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []
        self.missing: list[str] = []

    def wrap(self, site: str, make: Callable[[Callable], Callable]) -> None:
        try:
            module, key, attr = _resolve(site)
        except LookupError:
            self.missing.append(site)
            return
        if key is None:
            original = getattr(module, attr)
            setattr(module, attr, make(original))
            self._undo.append(lambda: setattr(module, attr, original))
        else:
            table = getattr(module, attr)
            original = table[key]
            table[key] = make(original)
            self._undo.append(lambda: table.__setitem__(key, original))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


class Probe:
    """Wall time of each call through the wrapped sites."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __call__(self, fn: Callable) -> Callable:
        samples = self.samples

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - start)

        return timed


# per-layer counters taken from a call's arguments and result:
# measure(counters, span, args, result)
def _measure_weights(c, span, args, result):
    c["rows"] += len(args[1])


def _measure_draw(c, span, args, result):
    c["rows"] += int(args[1])


def _measure_lift(c, span, args, result):
    c["rows"] += result.shape[0] if result.ndim == 2 else 1
    c["bytes_out"] += result.nbytes


def _measure_evaluate(c, span, args, result):
    c["rows"] += len(args[1])
    if type(args[0]).__name__ == "Remote":
        c["remote_s"] += span[2] - span[1]


def _measure_solve(c, span, args, result):
    c["rows"] += args[0].design.shape[0]


def _measure_explain(c, span, args, result):
    req = args[0]
    c.keys.add((repr(req.method), req.n, req.lam, req.seed))


def _measure_ball(c, span, args, result):
    c["rows"] += result.shape[0]
    c["bytes_out"] += result.nbytes
    c.keys.add(tuple(args[1:5]))  # (epsilon, norm, m, seed); x is fixed per workload


MEASURES = {
    "sampling.draw": _measure_draw,
    "sampling.batch_weights": _measure_weights,
    "feature_space.lift": _measure_lift,
    "models.evaluate": _measure_evaluate,
    "solver.solve": _measure_solve,
    "explain.explain": _measure_explain,
    "metrics.sample_ball": _measure_ball,
}


class Counters(defaultdict):
    def __init__(self) -> None:
        super().__init__(float)
        self.keys: set = set()


class Tracer:
    """Records one span per wrapped call: (layer, start, end, parent, request).

    Spans stay in memory until ``write``; ``pass_summary`` turns the spans
    of one pass into per-layer self time and counts. A finished span is a
    tuple of atoms, which the garbage collector stops tracking, so keeping
    spans does not slow the collections of the code being traced.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._request = 0
        self._pass_start = 0
        self.counters: dict[str, Counters] = defaultdict(Counters)
        self.patches = Patches()

    def install(self) -> None:
        self.patches = Patches()
        for layer, sites in LAYERS.items():
            for site in sites:
                self.patches.wrap(site, lambda fn, layer=layer: self._wrapper(layer, fn))

    def uninstall(self) -> None:
        self.patches.undo()

    def absent_layers(self) -> list[str]:
        missing = set(self.patches.missing)
        return [layer for layer, sites in LAYERS.items() if missing.issuperset(sites)]

    def _wrapper(self, layer: str, fn: Callable) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters[layer]
        measure = MEASURES.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                self._request += 1
            index, parent = len(spans), stack[-1] if stack else -1
            stack.append(index)
            spans.append(None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = spans[index] = (layer, start, clock(), parent, self._request)
                stack.pop()
            if measure is not None:
                try:
                    measure(counters, span, args, result)
                except (AttributeError, IndexError, TypeError):
                    counters["unmeasured"] += 1  # signature changed; keep timing
            return result

        return traced

    def pass_summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last summary."""
        spans = self.spans[self._pass_start:]
        base = self._pass_start
        self._pass_start = len(self.spans)
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= base:
                child[parent - base] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for i, (name, start, end, _, _) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[i]
        for layer, c in self.counters.items():
            for key, value in c.items():
                out[f"{layer}.{key}"] = value
            if layer in ("explain.explain", "metrics.sample_ball"):
                calls = out[f"{layer}.calls"]
                out[f"{layer}.distinct_frac"] = len(c.keys) / calls if calls else 0.0
            c.clear()  # the wrappers hold these objects, so reset them in place
            c.keys.clear()
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
