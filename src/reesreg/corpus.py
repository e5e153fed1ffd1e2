"""Corpus sweeps: generate labeled graphs and check the two core claims.

For every graph the fast Tutte-Berge test must agree with the brute-force
witness search, and for every normal graph with at least two edges the
closed-form regularity must agree with the lattice-point oracle on the cone
graph.  The oracle is asked through `report.run_oracle`, which alone decides
when it runs; a graph it refuses as too large is counted as an oracle skip.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from .decomposition import INDEPENDENT_ENUM_LIMIT, tutte_berge_bruteforce
from .errors import InstanceTooLargeError
from .graphs import Graph, _gnp
from .rees import RegularityStatus, regularity
from .report import run_oracle

# Largest n an exhaustive sweep walks: n = 7 alone is 2^21 labeled graphs,
# and n = 8 is 2^28.
EXHAUSTIVE_N_LIMIT = 7


@dataclass(frozen=True)
class CorpusFailure:
    n: int
    edges: tuple[tuple[int, int], ...]
    check: str
    detail: str


@dataclass(frozen=True)
class CorpusSummary:
    graphs_tested: int
    normal_count: int
    tutte_berge_count: int
    failures: tuple[CorpusFailure, ...] = field(default=())
    oracle_skipped: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "graphs_tested": self.graphs_tested,
            "normal_count": self.normal_count,
            "tutte_berge_count": self.tutte_berge_count,
            "failures": [
                {
                    "n": f.n,
                    "edges": [list(e) for e in f.edges],
                    "check": f.check,
                    "detail": f.detail,
                }
                for f in self.failures
            ],
            "oracle_skipped": self.oracle_skipped,
        }


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on exactly n vertices, by edge bitmask order."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    total = len(pairs)
    for bits in range(1 << total):
        edges = tuple(pairs[i] for i in range(total) if bits >> i & 1)
        yield Graph(n=n, edges=edges)


def exhaustive_graphs(max_n: int) -> Iterator[Graph]:
    """All labeled graphs with 1 <= n <= max_n."""
    for n in range(1, max_n + 1):
        yield from all_graphs(n)


def random_graphs(max_n: int, samples: int, seed: int) -> Iterator[Graph]:
    """A reproducible stream of random graphs.

    One Mersenne Twister stream (`random.Random(seed)`) drives everything:
    for each sample, n is drawn uniformly from 1..max_n, p uniformly from
    [0, 1], then each pair (u, v) in lexicographic order is kept when the
    next draw is < p.
    """
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(1, max_n)
        yield _gnp(n, rng.random(), rng)


@dataclass(frozen=True)
class GraphCheck:
    tutte_berge: bool
    normal: bool
    failures: tuple[CorpusFailure, ...]
    oracle_skipped: bool = False


def check_graph(g: Graph) -> GraphCheck:
    """Run both corpus assertions on one graph.

    The regularity check asks `run_oracle`; when it refuses the graph with
    InstanceTooLargeError, the check is skipped and the result says so.
    """
    failures = []
    reg = regularity(g)
    fast = reg.tutte_berge
    witness = tutte_berge_bruteforce(g)
    if fast != (witness is not None):
        failures.append(
            CorpusFailure(
                n=g.n,
                edges=g.edges,
                check="tutte_berge",
                detail=f"fast says {fast}, brute-force witness is {witness}",
            )
        )
    oracle_skipped = False
    try:
        oracle, _ = run_oracle(g, reg)
    except InstanceTooLargeError:
        oracle, oracle_skipped = None, True
    if oracle is not None and oracle.reg != reg.reg:
        failures.append(
            CorpusFailure(
                n=g.n,
                edges=g.edges,
                check="regularity",
                detail=f"formula says {reg.reg}, oracle says {oracle.reg} (q0={oracle.q0})",
            )
        )
    return GraphCheck(
        tutte_berge=fast,
        normal=reg.status is not RegularityStatus.NOT_NORMAL,
        failures=tuple(failures),
        oracle_skipped=oracle_skipped,
    )


def corpus_run(
    max_n: int,
    random_samples: int | None = None,
    seed: int = 1,
) -> CorpusSummary:
    """Sweep a corpus and summarize.

    Exhaustive mode (random_samples None) walks every labeled graph with
    n <= max_n; random mode draws `random_samples` graphs from the seeded
    stream.  Raises ValueError unless 1 <= max_n <= INDEPENDENT_ENUM_LIMIT
    (the brute-force witness search runs on every graph) and
    random_samples is None or >= 0, and InstanceTooLargeError for an
    exhaustive sweep past EXHAUSTIVE_N_LIMIT; all before any graph is drawn.
    """
    if not 1 <= max_n <= INDEPENDENT_ENUM_LIMIT:
        raise ValueError(
            f"max_n must be in 1..{INDEPENDENT_ENUM_LIMIT}, got {max_n}"
        )
    if random_samples is not None and random_samples < 0:
        raise ValueError(f"random samples must be >= 0, got {random_samples}")
    if random_samples is None and max_n > EXHAUSTIVE_N_LIMIT:
        raise InstanceTooLargeError(
            f"an exhaustive sweep is limited to max_n <= {EXHAUSTIVE_N_LIMIT}"
            f" (a random sweep is not), got {max_n}"
        )
    if random_samples is None:
        stream: Iterator[Graph] = exhaustive_graphs(max_n)
    else:
        stream = random_graphs(max_n, random_samples, seed)
    tested = 0
    normal = 0
    tutte_berge = 0
    skipped = 0
    failures: list[CorpusFailure] = []
    for g in stream:
        tested += 1
        result = check_graph(g)
        if result.normal:
            normal += 1
        if result.tutte_berge:
            tutte_berge += 1
        if result.oracle_skipped:
            skipped += 1
        failures.extend(result.failures)
    return CorpusSummary(
        graphs_tested=tested,
        normal_count=normal,
        tutte_berge_count=tutte_berge,
        failures=tuple(failures),
        oracle_skipped=skipped,
    )
