"""Outside-in tracer for one benchmark sample.

The tracer patches the public functions of each ``hodgetriples`` module
from outside the package and records, per span name, the number of calls,
the total time and the self time (total minus the time of the spans called
beneath it), plus per-edge totals (caller span -> callee span).  Everything
stays in memory until the sample ends; nothing is written while tracing.
Span times come from the clock given to ``Tracer``, which in the benchmark
leaves out the time of the host-speed probes.

Patching rules that keep the counts complete:

* ``__rmul__`` / ``__radd__`` are aliases of ``__mul__`` / ``__add__`` and
  are replaced by the same wrapper, so ``3 * p`` is counted too;
* ``triples`` binds ``jacobian`` / ``proj_space`` / ``sym_power`` by name at
  import time, so its bindings are patched as well as those in ``blocks``;
* the workloads call through module attributes (``triples.hodge_...``), not
  the ``hodgetriples`` re-exports, which still point at the originals;
* the entries of ``verify.CHECKS`` are wrapped, giving per-check time;
* lru-cache figures are read from the unwrapped cached functions.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter

from hodgetriples import blocks, cli, laurent, triples, verify

CACHED_BLOCKS = ("sym_power", "jacobian", "proj_space")

# LaurentPoly / TruncatedSeries methods and the span each one records.
_POLY_SPANS = {
    "__mul__": "laurent.mul",
    "__rmul__": "laurent.mul",
    "__add__": "laurent.add",
    "__radd__": "laurent.add",
    "__sub__": "laurent.sub",
    "__rsub__": "laurent.sub",
    "__neg__": "laurent.neg",
    "__pow__": "laurent.pow",
    "__truediv__": "laurent.div",
    "terms": "laurent.terms",
    "text": "laurent.text",
    "diagonal": "laurent.diagonal",
}
_SERIES_SPANS = {
    "__mul__": "laurent.series_mul",
    "__rmul__": "laurent.series_mul",
    "__add__": "laurent.series_add",
    "__sub__": "laurent.series_add",
}
_SERIES_CONSTRUCTORS = {
    "geometric": "laurent.series_geometric",
    "binomial_power": "laurent.series_binomial",
}


def _public_functions(module) -> list[str]:
    return [
        name
        for name, obj in vars(module).items()
        if callable(obj)
        and not inspect.isclass(obj)
        and getattr(obj, "__module__", None) == module.__name__
        and not name.startswith("_")
    ]


class Tracer:
    """Install with ``install()``, run the workload, then ``uninstall()``."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}  # (caller, callee) -> [calls, total_s]
        self.counts: Counter = Counter()
        self._stack: list[list] = [["", 0.0]]  # [span name, time of spans beneath it]
        self._undo: list[tuple[object, str, object]] = []
        self._cached = {name: getattr(blocks, name) for name in CACHED_BLOCKS}
        self._cache_start = {name: fn.cache_info() for name, fn in self._cached.items()}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        edges = self.edges
        clock = self.clock

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                caller = stack[-1]
                caller[1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                edge = edges.get((caller[0], name))
                if edge is None:
                    edges[(caller[0], name)] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_mul(self, args, result) -> None:
        if result is NotImplemented:
            return
        self_poly, other = args
        pairs = len(self_poly) * (len(other) if isinstance(other, laurent.LaurentPoly) else 1)
        self.counts["laurent.mul.term_pairs"] += pairs

    def _count_div(self, args, result) -> None:
        if isinstance(result, laurent.LaurentPoly):
            self.counts["laurent.div.steps"] += len(result)

    def _counting_div(self, div):
        def counted(numerator, divisor):
            try:
                return div(numerator, divisor)
            except laurent.NotDivisible:
                self.counts["laurent.div.not_divisible"] += 1
                raise

        return counted

    def _patch_methods(self, cls, spans: dict[str, str]) -> None:
        after = {"laurent.mul": self._count_mul, "laurent.div": self._count_div}
        wrappers: dict[object, object] = {}
        for attr, span in spans.items():
            original = cls.__dict__[attr]
            if original not in wrappers:  # aliases such as __rmul__ share one wrapper
                fn = self._counting_div(original) if span == "laurent.div" else original
                wrappers[original] = self._wrap(span, fn, after.get(span))
            self._patch(cls, attr, wrappers[original])

    def install(self) -> None:
        self._patch_methods(laurent.LaurentPoly, _POLY_SPANS)
        self._patch_methods(laurent.TruncatedSeries, _SERIES_SPANS)
        series = laurent.TruncatedSeries
        for attr, span in _SERIES_CONSTRUCTORS.items():
            self._patch(series, attr, staticmethod(self._wrap(span, getattr(series, attr))))

        for name in _public_functions(blocks):
            traced = self._wrap(f"blocks.{name}", getattr(blocks, name))
            self._patch(blocks, name, traced)
            if name in vars(triples):
                self._patch(triples, name, traced)
        for name in _public_functions(triples):
            self._patch(triples, name, self._wrap(f"triples.{name}", getattr(triples, name)))
        for name, check in list(verify.CHECKS.items()):
            self._undo.append((verify.CHECKS, name, check))
            verify.CHECKS[name] = self._wrap(f"verify.check.{name}", check)
        for name in _public_functions(verify):
            self._patch(verify, name, self._wrap(f"verify.{name}", getattr(verify, name)))
        self._patch(cli, "main", self._wrap("cli.main", cli.main))

    def uninstall(self) -> None:
        self._cache_end = {name: fn.cache_info() for name, fn in self._cached.items()}
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(stats[2] for name, stats in self.spans.items() if name.split(".", 1)[0] == layer)

    def cache_figures(self) -> dict[str, int]:
        """lru-cache hits and misses while the tracer was installed, per cached block."""
        out = {}
        for name in self._cached:
            info, start = self._cache_end[name], self._cache_start[name]
            out[f"blocks.{name}.cache_hits"] = info.hits - start.hits
            out[f"blocks.{name}.cache_misses"] = info.misses - start.misses
        return out
