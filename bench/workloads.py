"""The three closed-loop workloads: inputs, the call they time, and the
checks run on the outputs afterwards.

Each workload has one caller in one thread: the next graph starts only
after the previous call returns.  `lib` is a namespace of freshly imported
`reesreg` modules; the library receives only the generated graphs.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import inputs
from inputs import Graph
from spans import Patch, library_modules


@dataclass
class Prepared:
    """Everything a timed loop needs.  `items[i]` is the argument of call i
    and `graphs[i]` the graph behind it."""

    items: list[Any]
    graphs: list[Graph]
    labels: list[str]
    call: Callable[[Any], Any]
    props: dict
    state: dict = field(default_factory=dict)


@dataclass
class Checked:
    failures: dict[int, str]
    records: list[Any]


def _to_graph(lib: SimpleNamespace, g: Graph) -> Any:
    return lib.graphs.Graph.from_edges(g[0], g[1])


def _nx_matching_sizes(graphs: list[Graph]) -> list[int]:
    """Reference matching numbers from networkx, once per distinct graph."""
    import networkx as nx

    sizes: dict[Graph, int] = {}
    out = []
    for g in graphs:
        if g not in sizes:
            h = nx.Graph()
            h.add_nodes_from(range(1, g[0] + 1))
            h.add_edges_from(g[1])
            sizes[g] = len(nx.max_weight_matching(h, maxcardinality=True))
        out.append(sizes[g])
    return out


def _result_record(r: Any) -> list:
    return [r.status.value, r.mat, r.tutte_berge, r.reg]


class Workload:
    name: str
    # Wall time of one block on the machine the baseline was taken on; a
    # run has round(seconds / nominal_block_s) blocks.
    nominal_block_s: float

    def plan(self, lib: SimpleNamespace, seed: int, blocks: int, workdir: Path) -> Any:
        """Work done once per run before the timed set-ups, passed to every
        `prepare`.  None unless a workload needs it."""
        return None

    def instrument(self, lib: SimpleNamespace, prep: Prepared) -> Patch:
        """Patch applied around the timed loop, beneath any tracing."""
        return Patch([], [])


class Sweep(Workload):
    name = "sweep"
    # A block of 495 graphs takes about 5 s; counting it as 10 gives a 20 s
    # run 990 graphs, whose tail is their p90 (1,000 or more make it p99).
    nominal_block_s = 10.0

    @staticmethod
    def cell_of(lib: SimpleNamespace, g: Graph) -> str:
        r = lib.rees.regularity(_to_graph(lib, g))
        if r.status is lib.rees.RegularityStatus.COMPUTED:
            return f"{g[0]}:{g[0] + 1 - r.reg}"
        return f"{g[0]}:{r.status.value}"

    def plan(self, lib: SimpleNamespace, seed: int, blocks: int, workdir: Path) -> list[list[list[int]]]:
        """Which draws each block keeps.  A draw's cell comes from the closed
        form, so this calls the library; it runs once, outside set-up."""
        return [
            inputs.sweep_picks(inputs.block_rng(self.name, seed, k), lambda g: self.cell_of(lib, g))
            for k in range(blocks)
        ]

    def prepare(self, lib: SimpleNamespace, seed: int, blocks: int, plan: Any) -> Prepared:
        graphs = [g for k in range(blocks) for g in inputs.sweep_block(inputs.block_rng(self.name, seed, k), plan[k])]
        items = [_to_graph(lib, g) for g in graphs]
        corpus = lib.corpus
        # Look the function up on each call, so the traced run sees its wrapper.
        return Prepared(items, graphs, [""] * len(graphs), lambda g: corpus.check_graph(g), inputs.describe(graphs))

    def instrument(self, lib: SimpleNamespace, prep: Prepared) -> Patch:
        """Keep what the oracle and the brute-force Tutte-Berge search return
        inside check_graph, by input graph, so the checks and the digest
        see the timed loop's own results.  The shims store a reference and
        add no timing."""
        kept: dict[str, dict[int, Any]] = {"compute_q0": {}, "tutte_berge_bruteforce": {}}
        prep.state.update(kept)
        rebinds = []
        for module, fname in ((lib.polytope, "compute_q0"), (lib.decomposition, "tutte_berge_bruteforce")):
            orig, seen = getattr(module, fname), kept[fname]

            def shim(g: Any, orig: Callable = orig, seen: dict = seen) -> Any:
                res = orig(g)
                seen[id(g)] = res
                return res

            rebinds.append((fname, orig, shim))
        return Patch(library_modules(), rebinds)

    def check(self, lib: SimpleNamespace, prep: Prepared, outputs: list[Any]) -> Checked:
        """check_graph's own failures, plus: it ran the brute-force search on
        every graph and the oracle on every graph the closed form computes,
        and its answers agree with theirs and with the closed form's.  The
        digest is of check_graph's answers, the search's witness, the
        oracle's q0 and interior witness, and the closed form's result."""
        failures: dict[int, str] = {}
        records = []
        q0_hist: dict[str, int] = {}
        oracle, brute = prep.state["compute_q0"], prep.state["tutte_berge_bruteforce"]
        for i, (g, out) in enumerate(zip(prep.items, outputs)):
            if out is None:
                records.append(None)
                continue
            problems = [f"{f.check}: {f.detail}" for f in out.failures]
            reg = lib.rees.regularity(g)
            computed = reg.status is lib.rees.RegularityStatus.COMPUTED
            if out.normal != (reg.status is not lib.rees.RegularityStatus.NOT_NORMAL):
                problems.append(f"normal {out.normal}, closed form status {reg.status.value}")
            if out.tutte_berge != reg.tutte_berge:
                problems.append(f"tutte_berge {out.tutte_berge}, closed form says {reg.tutte_berge}")
            rec = [out.tutte_berge, out.normal, None] + _result_record(reg) + [None, None]
            if id(g) not in brute:
                problems.append("check_graph ran no brute-force Tutte-Berge search")
            else:
                w = brute[id(g)]
                if (w is not None) != out.tutte_berge:
                    problems.append(f"tutte_berge {out.tutte_berge}, brute-force witness {w}")
                rec[2] = None if w is None else [list(w.t_set), w.deficiency]
            if computed and id(g) not in oracle:
                problems.append("check_graph ran no oracle on a graph the closed form computes")
            elif computed:
                o = oracle[id(g)]
                if o.reg != reg.reg:
                    problems.append(f"closed form reg {reg.reg}, oracle reg {o.reg} (q0={o.q0})")
                rec[-2:] = [o.q0, list(o.interior_witness)]
                q0_hist[str(o.q0)] = q0_hist.get(str(o.q0), 0) + 1
            if problems:
                failures[i] = "; ".join(problems)
            records.append(rec)
        prep.props["q0_hist"] = dict(sorted(q0_hist.items(), key=lambda kv: int(kv[0])))
        prep.props["oracle_share"] = sum(q0_hist.values()) / len(prep.items)
        return Checked(failures, records)


class Ladder(Workload):
    name = "ladder"
    nominal_block_s = 7.5

    def prepare(self, lib: SimpleNamespace, seed: int, blocks: int, plan: Any) -> Prepared:
        rungs = [r for k in range(blocks) for r in inputs.ladder_block(inputs.block_rng(self.name, seed, k))]
        graphs = [g for _, g in rungs]
        items = [_to_graph(lib, g) for g in graphs]
        rees = lib.rees
        return Prepared(items, graphs, [lbl for lbl, _ in rungs], lambda g: rees.regularity(g), inputs.describe(graphs))

    def check(self, lib: SimpleNamespace, prep: Prepared, outputs: list[Any]) -> Checked:
        failures: dict[int, str] = {}
        records = []
        ref = _nx_matching_sizes(prep.graphs)
        for i, (out, mat) in enumerate(zip(outputs, ref)):
            if out is None:
                records.append(None)
                continue
            records.append([prep.labels[i]] + _result_record(out))
            if out.mat != mat:
                failures[i] = f"{prep.labels[i]}: mat {out.mat}, networkx says {mat}"
            elif out.reg is not None and out.reg != out.mat + (not out.tutte_berge):
                failures[i] = f"{prep.labels[i]}: reg {out.reg} with mat {out.mat}, tutte_berge {out.tutte_berge}"
        return Checked(failures, records)


def write_edge_list(g: Graph) -> str:
    n, edges = g
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


class Classify(Workload):
    name = "classify"
    nominal_block_s = 1.25

    def graphs(self, seed: int, blocks: int) -> list[Graph]:
        return [g for k in range(blocks) for g in inputs.classify_block(inputs.block_rng(self.name, seed, k), k)]

    def plan(self, lib: SimpleNamespace, seed: int, blocks: int, workdir: Path) -> list[str]:
        """Write the input files once.  Writing them is left out of the
        timed set-up: on the baseline machine it took from 0.08 to 0.4 s
        from one set-up to the next, more than the rest of a set-up."""
        workdir.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, g in enumerate(self.graphs(seed, blocks)):
            path = workdir / f"{i}.g"
            path.write_text(write_edge_list(g), encoding="utf-8")
            paths.append(str(path))
        return paths

    def prepare(self, lib: SimpleNamespace, seed: int, blocks: int, plan: Any) -> Prepared:
        graphs = self.graphs(seed, blocks)
        items = [["classify", path, "--json", "--witness"] for path in plan]
        cli = lib.cli

        def call(argv: list[str]) -> tuple[int, str]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        return Prepared(items, graphs, [""] * len(graphs), call, inputs.describe(graphs))

    def check(self, lib: SimpleNamespace, prep: Prepared, outputs: list[Any]) -> Checked:
        failures: dict[int, str] = {}
        records = []
        ref = _nx_matching_sizes(prep.graphs)
        for i, (out, mat) in enumerate(zip(outputs, ref)):
            if out is None:
                records.append(None)
                continue
            code, text = out
            if code != 0:
                failures[i] = f"exit code {code}"
                records.append(None)
                continue
            d = json.loads(text)
            if lib.report.ClassificationReport.from_json(text).to_dict() != d:
                failures[i] = "report does not round-trip through ClassificationReport.from_json"
            d.pop("timings")
            if d["mat"] != mat or (d["n"], d["m"]) != (prep.graphs[i][0], len(prep.graphs[i][1])):
                failures[i] = f"n {d['n']} m {d['m']} mat {d['mat']}, networkx says mat {mat}"
            records.append(d)
        return Checked(failures, records)


WORKLOADS = {w.name: w for w in (Sweep(), Ladder(), Classify())}
