"""Command line interface.

Commands: classify, gen, regularity, ged, polytope, corpus.  Exit codes:
0 success, 1 corpus assertion failure, 2 usage or input errors, 3 internal
invariant failures, 141 (128 + SIGPIPE, with nothing on stderr) when standard
output is closed before the output is written, as by `| head -1`.  The
`reesreg` script and `python -m reesreg` both call `run`, which also
flushes standard output, so a short output that a closed pipe refuses at
the flush exits 141 too.

`main` hands the words after a command's name straight to that command's
own parser, so a well-formed call is parsed once, not twice (the top-level
parser would only pass them on to the same sub-parser).  An empty argv,
an unknown first word (an option, a misspelling, a prefix) and words the
command's parser leaves over go through the top-level parser instead:
that is the one that prints `usage: reesreg ...` with the command list
and reports `unrecognized arguments`, so help and usage errors print the
same bytes as a full parse would.  Every `--json` output is
`report.write_json`, byte for byte `json.dumps(..., indent=2)`.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .corpus import corpus_run
from .decomposition import gallai_edmonds
from .errors import InternalInvariantError
from .graphs import GENERATOR_FAMILIES, Graph, generate, parse_graph, write_graph
from .polytope import _enumerable_cone_system, interior_lattice_points, lattice_points
from .rees import regularity
from .report import build_report, oracle_dict, regularity_dict, run_oracle, write_json

EXIT_OK = 0
EXIT_CORPUS_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141


def _read_graph(spec: str) -> Graph:
    if spec == "-":
        return parse_graph(sys.stdin.read())
    with open(spec, encoding="utf-8") as f:
        return parse_graph(f.read())


def _cmd_classify(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    report = build_report(g, with_oracle=args.oracle, with_witness=args.witness)
    if args.json:
        print(report.to_json())
        return EXIT_OK
    print(f"n {report.n}  m {report.m}")
    print(f"matching number      {report.mat}")
    print(f"deficiency           {report.deficiency}")
    print(f"bipartite            {report.bipartite}")
    print(f"perfect matching     {report.perfect_matching}")
    print(f"factor critical      {report.factor_critical}")
    print(f"konig                {report.konig}")
    print(f"tutte-berge          {report.tutte_berge}")
    print(f"gallai-edmonds D     {list(report.ge_d)}")
    print(f"gallai-edmonds A     {list(report.ge_a)}")
    print(f"gallai-edmonds C     {list(report.ge_c)}")
    print(f"odd cycle condition  {report.odd_cycle_condition}")
    print(f"rees normal          {report.rees_normal}")
    status = report.regularity.status.value
    if report.regularity.reg is not None:
        print(f"regularity           {report.regularity.reg}")
    else:
        print(f"regularity           n/a ({status})")
    if args.witness:
        if report.tb_witness is not None:
            print(f"tutte-berge witness  {list(report.tb_witness)}")
        else:
            print("tutte-berge witness  none (not tutte-berge)")
    if args.oracle:
        if report.oracle is not None:
            print(
                f"oracle               q0 {report.oracle.q0}, "
                f"witness {list(report.oracle.interior_witness)}, "
                f"reg {report.oracle.reg}"
            )
        else:
            print(f"oracle               {report.oracle_note}")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    family = args.family.replace("_", "-")
    if family == "disjoint-union":
        if len(args.params) != 2:
            raise ValueError("disjoint-union takes two graph files")
        g = generate(family, _read_graph(args.params[0]), _read_graph(args.params[1]))
    else:
        g = generate(family, *args.params)
    text = write_graph(g)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_regularity(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    reg = regularity(g)
    oracle, note = run_oracle(g, reg) if args.oracle else (None, None)
    if args.json:
        out = {"regularity": regularity_dict(reg)}
        if args.oracle:
            out["oracle"] = oracle_dict(oracle)
            out["oracle_note"] = note
        print(write_json(out))
        return EXIT_OK
    print(f"status       {reg.status.value}")
    print(f"mat          {reg.mat}")
    print(f"tutte-berge  {reg.tutte_berge}")
    if reg.reg is not None:
        print(f"reg          {reg.reg}")
    if args.oracle:
        if oracle is not None:
            print(f"oracle       q0 {oracle.q0}, reg {oracle.reg}")
            print(f"agreement    {oracle.reg == reg.reg}")
        else:
            print(f"oracle       {note}")
    return EXIT_OK


def _cmd_ged(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    ge = gallai_edmonds(g)
    if args.json:
        print(
            write_json(
                {
                    "d": list(ge.d_set),
                    "a": list(ge.a_set),
                    "c": list(ge.c_set),
                    "d_components": [list(c) for c in ge.d_components],
                }
            )
        )
        return EXIT_OK
    print(f"D             {list(ge.d_set)}")
    print(f"A             {list(ge.a_set)}")
    print(f"C             {list(ge.c_set)}")
    print(f"D components  {[list(c) for c in ge.d_components]}")
    return EXIT_OK


def _cmd_polytope(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    system = _enumerable_cone_system(g, args.q)
    if args.interior:
        points = interior_lattice_points(system, args.q)
    else:
        points = lattice_points(system, args.q)
    if args.json:
        print(
            write_json(
                {
                    "q": args.q,
                    "interior": args.interior,
                    "ambient_n": system.ambient_n,
                    "points": [list(p) for p in points],
                }
            )
        )
        return EXIT_OK
    kind = "interior lattice points" if args.interior else "lattice points"
    print(f"{kind} of {args.q}P for the cone graph ({len(points)} found)")
    for p in points:
        print(" ".join(str(x) for x in p))
    return EXIT_OK


def _cmd_corpus(args: argparse.Namespace) -> int:
    summary = corpus_run(
        max_n=args.max_n,
        random_samples=args.random,
        seed=args.seed,
    )
    if args.json:
        print(write_json(summary.to_dict()))
    else:
        print(f"graphs tested      {summary.graphs_tested}")
        print(f"normal             {summary.normal_count}")
        print(f"tutte-berge        {summary.tutte_berge_count}")
        print(f"failures           {len(summary.failures)}")
        if summary.oracle_skipped:
            print(f"oracle skipped     {summary.oracle_skipped}")
        for f in summary.failures:
            print(f"  FAIL {f.check} on n={f.n} edges={list(f.edges)}: {f.detail}")
    return EXIT_OK if summary.ok else EXIT_CORPUS_FAILURE


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # Built once per process and shared by every `main` call: parsing leaves
    # the parsers unchanged, so callers must not add to them either.  The
    # dict maps each command name to its own parser.
    parser = argparse.ArgumentParser(
        prog="reesreg",
        description=(
            "Classify graphs and compute the regularity of the Rees algebra "
            "of an edge ideal, with an edge-polytope cross-check."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full classification report for one graph")
    p.add_argument("graph", help="edge-list file, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.add_argument("--oracle", action="store_true", help="run the lattice-point oracle")
    p.add_argument("--witness", action="store_true", help="include a Tutte-Berge witness")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("gen", help="generate a graph from a named family")
    p.add_argument("family", help=f"one of: {', '.join(GENERATOR_FAMILIES)}")
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("regularity", help="regularity of the Rees algebra")
    p.add_argument("graph")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("ged", help="Gallai-Edmonds decomposition")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ged)

    p = sub.add_parser("polytope", help="lattice points of a cone-polytope dilation")
    p.add_argument("graph")
    p.add_argument("--q", type=int, required=True, help="dilation factor")
    p.add_argument("--interior", action="store_true", help="relative interior only")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("corpus", help="sweep a graph corpus and verify both routes")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--random", type=int, default=None, metavar="SAMPLES")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_corpus)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = rest = None
        if argv and argv[0] in commands:
            args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if args is None or rest:
            # The top-level parser prints help and usage errors; see the module docstring.
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> int:
    """The `reesreg` script and `python -m reesreg`: `main` on sys.argv,
    then a flush of standard output, so that a reader that went away shows
    as EXIT_BROKEN_PIPE with nothing on stderr.  `main` neither flushes
    nor redirects standard output, so an in-process caller keeps its own."""
    try:
        status = main()
        sys.stdout.flush()  # a short output is still buffered here
    except BrokenPipeError:
        status = EXIT_BROKEN_PIPE
    if status == EXIT_BROKEN_PIPE:
        # So that the flush at exit cannot raise again ("Note on SIGPIPE", signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(run())
