"""Seeded inputs for the benchmark workloads.

Every draw comes from the benchmark's own Mersenne Twister streams
(`random.Random`), never from `reesreg.random_graph` or
`corpus.random_graphs`, so a change to those generators cannot change the
inputs.  A graph is a pair `(n, edges)` with edges sorted as (u, v), u < v.

Each workload's input set is a list of blocks.  Block k of workload w under
seed s comes from the stream `random.Random(f"{w}/{s}/{k}")` alone, so a run
with more blocks extends, and never reshuffles, a run with fewer.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable

DEFAULT_SEED = 1
# Kept out of tuning: a claimed gain must also hold under this seed.
HELD_OUT_SEED = 20240518

Edges = tuple[tuple[int, int], ...]
Graph = tuple[int, Edges]


def block_rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{block}")


def gnp(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p): each pair in lexicographic order is kept when a draw is < p."""
    edges = tuple(
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p
    )
    return n, edges


def gnm(rng: random.Random, n: int, m: int) -> Graph:
    """G(n, m): m distinct pairs drawn uniformly."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return n, tuple(sorted(rng.sample(pairs, m)))


def binomial_quantile(trials: int, p: float, q: float) -> int:
    """The least k with P(Binomial(trials, p) <= k) >= q."""
    pmf = (1 - p) ** trials
    cdf = pmf
    k = 0
    while cdf < q and k < trials:
        pmf *= (trials - k) / (k + 1) * p / (1 - p)
        k += 1
        cdf += pmf
    return k


def gnp_stratified(rng: random.Random, n: int, p: float, draws: int) -> list[Graph]:
    """`draws` graphs distributed like G(n, p) but with their edge counts
    fixed: draw j is G(n, m) with m the (j + 1/2)/draws quantile of
    G(n, p)'s edge count.  On the sparse rungs the edge count sets most of
    a graph's cost, so this keeps one seed's draws from being all light or
    all heavy."""
    pairs = n * (n - 1) // 2
    return [gnm(rng, n, binomial_quantile(pairs, p, (j + 0.5) / draws)) for j in range(draws)]


def random_bipartite(rng: random.Random, n: int, p: float) -> Graph:
    """Sides 1..n//2 and n//2+1..n; each cross pair kept with probability p."""
    a = n // 2
    edges = tuple(
        (u, v) for u in range(1, a + 1) for v in range(a + 1, n + 1) if rng.random() < p
    )
    return n, edges


def cycle(k: int) -> Graph:
    return k, tuple((i, i + 1) for i in range(1, k)) + ((1, k),)


def complete(k: int) -> Graph:
    return k, tuple((u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1))


# ---------------------------------------------------------------------------
# sweep: the stream of `reesreg corpus --random N --max-n 11`, stratified

SWEEP_MAX_N = 11
SWEEP_BLOCK_TARGET = 495

# Share of each cell in the corpus-shaped stream (n uniform in 1..11, p
# uniform in [0, 1], G(n, p)), from 200,000 draws of `sweep_cell_shares`
# with seed 12345.  A cell is "n:q0" for graphs the oracle runs on
# (q0 = n + 1 - reg), else "n:not_normal" or "n:too_few_edges".  The oracle's
# cost is set almost entirely by n and q0, and one graph with q0 = n = 11
# costs as much as ten thousand typical ones, so a block takes a fixed number
# of graphs from each cell instead of leaving that count to chance.  Cells
# rarer than 1 in 990 round to none: q0 = n at n = 10 and 11, and not
# normal at n = 6 to 9.  A q0 = n = 11 graph took 9 s, half the time of a
# block of 990, and its own call-to-call noise moved graphs_per_s by 0.16
# between runs.
SWEEP_CELL_SHARES = {
    "1:too_few_edges": 0.090375,
    "2:too_few_edges": 0.09019,
    "3:2": 0.023205,
    "3:3": 0.02232,
    "3:too_few_edges": 0.04535,
    "4:3": 0.05163,
    "4:4": 0.013165,
    "4:too_few_edges": 0.025805,
    "5:3": 0.041235,
    "5:4": 0.027185,
    "5:5": 0.00684,
    "5:too_few_edges": 0.016195,
    "6:4": 0.059635,
    "6:5": 0.016945,
    "6:6": 0.00418,
    "6:not_normal": 2.5e-05,
    "6:too_few_edges": 0.011195,
    "7:4": 0.051995,
    "7:5": 0.017665,
    "7:6": 0.010955,
    "7:7": 0.002905,
    "7:not_normal": 0.000105,
    "7:too_few_edges": 0.0081,
    "8:5": 0.063075,
    "8:6": 0.011555,
    "8:7": 0.007605,
    "8:8": 0.00162,
    "8:not_normal": 0.00029,
    "8:too_few_edges": 0.00661,
    "9:5": 0.05778,
    "9:6": 0.0128,
    "9:7": 0.008695,
    "9:8": 0.005355,
    "9:9": 0.00106,
    "9:not_normal": 0.000735,
    "9:too_few_edges": 0.004595,
    "10:10": 0.00092,
    "10:6": 0.06549,
    "10:7": 0.008195,
    "10:8": 0.005575,
    "10:9": 0.00392,
    "10:not_normal": 0.00168,
    "10:too_few_edges": 0.004115,
    "11:10": 0.003205,
    "11:11": 0.00063,
    "11:6": 0.059885,
    "11:7": 0.009595,
    "11:8": 0.00651,
    "11:9": 0.00448,
    "11:not_normal": 0.003575,
    "11:too_few_edges": 0.00325
}


def sweep_quotas(target: int = SWEEP_BLOCK_TARGET) -> dict[str, int]:
    """Graphs per cell in one block: the cell's share of `target`, rounded."""
    quotas = {cell: round(share * target) for cell, share in SWEEP_CELL_SHARES.items()}
    return {cell: k for cell, k in quotas.items() if k}


def sweep_picks(rng: random.Random, cell_of: Callable[[Graph], str]) -> list[list[int]]:
    """Which draws one stratified block keeps.  For each n = 1..11 in turn,
    draw G(n, p) with p uniform in [0, 1] and keep a draw while its cell is
    short of its quota.  Returns, per n, the positions of the kept draws
    among that n's draws; the last draw of each n is always kept."""
    need = sweep_quotas()
    picks: list[list[int]] = []
    for n in range(1, SWEEP_MAX_N + 1):
        left = {c: k for c, k in need.items() if int(c.split(":")[0]) == n}
        kept: list[int] = []
        drawn = 0
        while any(left.values()):
            cell = cell_of(gnp(rng, n, rng.random()))
            if left.get(cell, 0) > 0:
                left[cell] -= 1
                kept.append(drawn)
            drawn += 1
        picks.append(kept)
    return picks


def sweep_block(rng: random.Random, picks: list[list[int]]) -> list[Graph]:
    """One stratified block: replays the draws of `sweep_picks` on a stream
    in the same state, keeps the picked ones and shuffles them."""
    out: list[Graph] = []
    for n, kept in enumerate(picks, start=1):
        keep = set(kept)
        for drawn in range(kept[-1] + 1 if kept else 0):
            g = gnp(rng, n, rng.random())
            if drawn in keep:
                out.append(g)
    rng.shuffle(out)
    return out


def sweep_cell_shares(samples: int, seed: int, cell_of: Callable[[Graph], str]) -> dict[str, float]:
    """Estimate SWEEP_CELL_SHARES from the unstratified stream."""
    rng = random.Random(seed)
    counts: Counter[str] = Counter()
    for _ in range(samples):
        n = rng.randint(1, SWEEP_MAX_N)
        counts[cell_of(gnp(rng, n, rng.random()))] += 1
    return {cell: k / samples for cell, k in sorted(counts.items())}


# ---------------------------------------------------------------------------
# ladder: the closed form at scale


def ladder_block(rng: random.Random) -> list[tuple[str, Graph]]:
    """Odd cycles C_{n+1} and sparse G(n, 1/n) for n = 40..320, where
    Gallai-Edmonds does nearly all the work; complete graphs K_12..K_24 and
    cycle-rich G(40, 3/40), G(80, 2/80), where the odd cycle condition does.
    G(n, 1/n) is drawn ten times at n = 40 and 80 and five times at 160, so
    that the median and the tail fall among its draws and the deterministic
    rungs, not on one draw.
    The random rungs have their edge counts stratified (`gnp_stratified`):
    at fixed n the cost of G(n, 1/n) varied by 0.12 of its mean from draw
    to draw, and by 0.03 at a fixed edge count."""
    rungs: list[tuple[str, Graph]] = []
    for n in (40, 80, 160, 320):
        rungs.append((f"C_{n + 1}", cycle(n + 1)))
        for g in gnp_stratified(rng, n, 1 / n, {40: 10, 80: 10, 160: 5, 320: 1}[n]):
            rungs.append((f"G({n},1/n)", g))
    for k in range(12, 25):
        rungs.append((f"K_{k}", complete(k)))
    for n, c in ((40, 3), (80, 2)):
        rungs.append((f"G({n},{c}/n)", gnp_stratified(rng, n, c / n, 1)[0]))
    return rungs


# ---------------------------------------------------------------------------
# classify: the full report on mid-sized graphs


CLASSIFY_N = tuple(range(16, 32))
CLASSIFY_BIPARTITE_N = ((16, 18), (19, 22), (23, 25), (26, 28))


def classify_block(rng: random.Random, block: int) -> list[Graph]:
    """G(n, p) once for each n = 16..31 with p in [0.1, 0.4], plus four
    sparse bipartite graphs spread over 16..28 vertices.

    p is stratified: [0.1, 0.4] is cut into 16 bands and vertex count i of
    block k draws from band (5 i + k) mod 16, so every block spans the
    bands and every 16 consecutive blocks give each n every band once.  The
    bipartite graphs' p is stratified the same way over 4 bands, and their
    vertex count goes round its range from block to block, because the
    Konig test's cost grows steeply with it."""
    bands = len(CLASSIFY_N)
    out = [
        gnp(rng, n, 0.1 + 0.3 * ((5 * i + block) % bands + rng.random()) / bands)
        for i, n in enumerate(CLASSIFY_N)
    ]
    for j, (lo, hi) in enumerate(CLASSIFY_BIPARTITE_N):
        band = (j + block) % len(CLASSIFY_BIPARTITE_N)
        p = 0.08 + 0.12 * (band + rng.random()) / len(CLASSIFY_BIPARTITE_N)
        out.append(random_bipartite(rng, lo + (block + j) % (hi - lo + 1), p))
    return out


# ---------------------------------------------------------------------------
# input properties


def is_bipartite(g: Graph) -> bool:
    n, edges = g
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * (n + 1)
    for root in range(1, n + 1):
        if color[root] >= 0:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def _bucket(m: int) -> str:
    """0, 1, then power-of-two ranges 2-3, 4-7, 8-15, ..."""
    if m < 2:
        return str(m)
    lo = 1 << (m.bit_length() - 1)
    return f"{lo}-{2 * lo - 1}"


def describe(graphs: list[Graph]) -> dict:
    """Input properties a later claim can cite by share."""
    ns = Counter(n for n, _ in graphs)
    ms = Counter(_bucket(len(e)) for _, e in graphs)
    return {
        "graphs": len(graphs),
        "n_hist": {str(k): ns[k] for k in sorted(ns)},
        "m_hist": {k: ms[k] for k in sorted(ms, key=lambda b: int(b.split("-")[0]))},
        "bipartite_share": sum(map(is_bipartite, graphs)) / len(graphs),
    }
