"""Span recorder for the traced run.

The benchmark wraps the library's public functions from the outside: no
source file changes.  `tracer` rebinds each listed function at every
`reesreg.*` module that binds it, so `rees.is_tutte_berge` and
`decomposition.is_tutte_berge` both report.

Each call becomes a span with a name, start, end, parent span and the id
of the top-level input it served.  A span's self time is its duration minus
the time its child spans cover.  A generator function's span covers only
its own steps: every resume is timed separately and the consumer's work
between two yields is charged to the consumer.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Iterator

# Public functions traced per module.  `errors` holds only exception types.
LAYERS: dict[str, tuple[str, ...]] = {
    "graphs": (
        "parse_graph",
        "induced_subgraph",
        "max_independent_set",
        "independent_sets",
        "iter_chordless_odd_cycles",
    ),
    "matching": ("max_matching", "is_konig", "is_factor_critical"),
    "decomposition": (
        "gallai_edmonds",
        "is_tutte_berge",
        "tutte_berge_bruteforce",
        "tutte_berge_witness",
    ),
    "rees": ("satisfies_odd_cycle_condition", "is_rees_normal", "regularity"),
    "polytope": (
        "halfspace_system",
        "fundamental_independent_sets",
        "interior_lattice_points",
        "compute_q0",
    ),
    "report": ("build_report",),
    "corpus": ("check_graph",),
    "cli": ("main",),
}

# Functions whose calls on the top-level input graph itself are counted,
# to show work repeated on one graph.
PER_GRAPH = ("decomposition.gallai_edmonds", "rees.satisfies_odd_cycle_condition")


@dataclass
class Stat:
    """Aggregate over every span of one traced function."""

    calls: int = 0
    total: float = 0.0
    self: float = 0.0
    yielded: int = 0
    on_root: int = 0
    generator: bool = False
    extra: dict[str, float] = field(default_factory=dict)


class Recorder:
    """Collects spans.  `clock` returns seconds; tests pass a fake one."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        # Span records: [name, start, end, busy, parent, item].  `busy` is
        # the summed duration of the span's own segments: end - start for
        # a function, less for a generator that was suspended in between.
        self.spans: list[list[Any]] = []
        # Frames of the open segments: [span index, segment start, child time].
        self._stack: list[list[Any]] = []
        self.item = -1
        self.root_graph: Any = None

    def begin_item(self, item: int) -> None:
        self.item = item
        self.root_graph = None

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def new_span(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, None, None, 0.0, parent, self.item])
        return len(self.spans) - 1

    def enter(self, span: int) -> None:
        now = self.clock()
        rec = self.spans[span]
        if rec[1] is None:
            rec[1] = now
        self._stack.append([span, now, 0.0])

    def leave(self, yielded: bool = False) -> None:
        now = self.clock()
        span, start, child = self._stack.pop()
        dur = now - start
        rec = self.spans[span]
        rec[2] = now
        rec[3] += dur
        st = self.stats[rec[0]]
        st.total += dur
        st.self += dur - child
        if yielded:
            st.yielded += 1
        if self._stack:
            self._stack[-1][2] += dur

    def unattributed(self, wall: float) -> float:
        """Time of a region of length `wall` that no top-level span covers."""
        return wall - sum(s[3] for s in self.spans if s[4] == -1)

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[Stat, tuple, Any], None] | None = None,
        graph_type: type | None = None,
    ) -> Callable:
        """A traced stand-in for `fn`.  `observe(stat, args, result)` adds
        work counters; `graph_type` marks the first graph argument seen in
        an item as the item's root graph."""
        rec = self
        self.stat(name).generator = inspect.isgeneratorfunction(fn)
        per_graph = name in PER_GRAPH

        def note_call(args: tuple) -> Stat:
            st = rec.stats[name]
            st.calls += 1
            if graph_type is not None and args and isinstance(args[0], graph_type):
                if rec.root_graph is None:
                    rec.root_graph = args[0]
                if per_graph and args[0] is rec.root_graph:
                    st.on_root += 1
            return st

        if self.stats[name].generator:

            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any) -> Iterator:
                note_call(args)
                return _traced_steps(rec, rec.new_span(name), fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            st = note_call(args)
            rec.enter(rec.new_span(name))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.leave()
            if observe is not None:
                observe(st, args, result)
            return result

        return wrapper


def _traced_steps(rec: Recorder, span: int, it: Iterator) -> Iterator:
    # One segment per resume: the clock runs from resume to the next yield.
    while True:
        rec.enter(span)
        try:
            item = next(it)
        except StopIteration:
            rec.leave()
            return
        except BaseException:
            rec.leave()
            raise
        rec.leave(yielded=True)
        yield item


class Patch:
    """Rebindings of names across modules, for each module that binds the
    old object.  `apply` and `undo` may alternate any number of times."""

    def __init__(self, modules: list[ModuleType], rebinds: list[tuple[str, Any, Any]]) -> None:
        self.sites = [(m, name, old, new) for name, old, new in rebinds for m in modules if m.__dict__.get(name) is old]

    def apply(self) -> None:
        for m, name, _, new in self.sites:
            setattr(m, name, new)

    def undo(self) -> None:
        for m, name, old, _ in reversed(self.sites):
            setattr(m, name, old)


def library_modules(package: str = "reesreg") -> list[ModuleType]:
    return [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]


def tracer(
    rec: Recorder,
    package: str = "reesreg",
    layers: dict[str, tuple[str, ...]] = LAYERS,
    observers: dict[str, Callable[[Stat, tuple, Any], None]] | None = None,
    graph_type: type | None = None,
) -> Patch:
    """A patch, not yet applied, that wraps every listed function wherever
    it is bound.  Raises LookupError when one is missing from its module,
    so a rename cannot make a layer silently read zero."""
    observers = observers or {}
    rebinds = []
    for layer, names in layers.items():
        home = importlib.import_module(f"{package}.{layer}")
        for fname in names:
            fn = home.__dict__.get(fname)
            if not callable(fn):
                raise LookupError(f"{package}.{layer}.{fname} is missing; update LAYERS in bench/spans.py")
            qual = f"{layer}.{fname}"
            rebinds.append((fname, fn, rec.wrap(qual, fn, observers.get(qual), graph_type)))
    return Patch(library_modules(package), rebinds)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# work counters and per-layer metrics


def _count_vertices(st: Stat, args: tuple, result: Any) -> None:
    st.extra["vertices"] = st.extra.get("vertices", 0) + args[0].n


def _count_points(st: Stat, args: tuple, result: Any) -> None:
    from math import comb

    system, q = args[0], args[1]
    # Compositions of 2q into ambient_n parts, with at least 1 at each
    # regular vertex: the candidates the search faces, an input property.
    free = 2 * q - len(system.coord_constraints)
    n = system.ambient_n
    space = comb(free + n - 1, n - 1) if free >= 0 else 0
    st.extra["points"] = st.extra.get("points", 0) + len(result)
    st.extra["candidate_space"] = st.extra.get("candidate_space", 0) + space


def _count_constraints(st: Stat, args: tuple, result: Any) -> None:
    st.extra["fundamental_sets"] = st.extra.get("fundamental_sets", 0) + len(result.set_constraints)
    st.extra["regular_vertices"] = st.extra.get("regular_vertices", 0) + len(result.coord_constraints)


OBSERVERS: dict[str, Callable[[Stat, tuple, Any], None]] = {
    "matching.max_matching": _count_vertices,
    "polytope.interior_lattice_points": _count_points,
    "polytope.halfspace_system": _count_constraints,
}


def layer_metrics(rec: Recorder, traced: float, untraced: float, items: int) -> dict[str, tuple[float, str]]:
    """Every per-layer number of a traced run, by name, with its unit.

    `traced` and `untraced` are the time spent in the traced and untraced
    calls.  Shares are of `traced`; `layer.bench.self_share` is the part of
    it no top-level span covers, the benchmark's own call overhead.
    """
    out: dict[str, tuple[float, str]] = {}
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, st in rec.stats.items():
        by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0.0) + st.self
        out[f"{name}.calls"] = (st.calls, "count")
        out[f"{name}.total_ms"] = (st.total * 1e3, "ms")
        out[f"{name}.self_ms"] = (st.self * 1e3, "ms")
        out[f"{name}.total_share"] = (st.total / traced, "frac")
        out[f"{name}.self_share"] = (st.self / traced, "frac")
        if st.generator:
            out[f"{name}.yielded"] = (st.yielded, "count")
        if name in PER_GRAPH:
            out[f"{name}.per_graph"] = (st.on_root / items, "calls/graph")
    for layer, t in by_layer.items():
        out[f"layer.{layer}.self_ms"] = (t * 1e3, "ms")
        out[f"layer.{layer}.self_share"] = (t / traced, "frac")
    out["layer.bench.self_share"] = (rec.unattributed(traced) / traced, "frac")

    def extra(name: str, key: str) -> float:
        st = rec.stats.get(name)
        return st.extra.get(key, 0) if st else 0

    points = extra("polytope.interior_lattice_points", "points")
    q0_calls = rec.stats["polytope.compute_q0"].calls if "polytope.compute_q0" in rec.stats else 0
    out["matching.max_matching.vertices"] = (extra("matching.max_matching", "vertices"), "count")
    out["polytope.interior_points"] = (points, "count")
    out["polytope.points_used_ratio"] = (q0_calls / points if points else 0.0, "ratio")
    out["polytope.candidate_space"] = (extra("polytope.interior_lattice_points", "candidate_space"), "count")
    out["polytope.fundamental_sets"] = (extra("polytope.halfspace_system", "fundamental_sets"), "count")
    out["polytope.regular_vertices"] = (extra("polytope.halfspace_system", "regular_vertices"), "count")
    if "graphs.iter_chordless_odd_cycles.yielded" in out:
        out["graphs.chordless_cycles.yielded"] = out["graphs.iter_chordless_odd_cycles.yielded"]
    out["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    return out
