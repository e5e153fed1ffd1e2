"""Tests of the benchmark's own arithmetic and inputs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def test_self_time_on_nested_tree_with_generator():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def leaf():
        clock.advance(2.0)

    def gen():
        clock.advance(1.0)
        yield "a"
        clock.advance(3.0)
        traced_leaf()  # a child of the generator's second step
        yield "b"
        clock.advance(0.5)

    def outer():
        clock.advance(1.0)
        traced_leaf()
        for _ in traced_gen():
            clock.advance(10.0)  # the consumer's work between yields
        clock.advance(1.0)

    traced_leaf = rec.wrap("m.leaf", leaf)
    traced_gen = rec.wrap("m.gen", gen)
    traced_outer = rec.wrap("m.outer", outer)
    rec.begin_item(7)
    traced_outer()

    leaf_st, gen_st, outer_st = rec.stats["m.leaf"], rec.stats["m.gen"], rec.stats["m.outer"]
    assert (leaf_st.calls, leaf_st.total, leaf_st.self) == (2, 4.0, 4.0)
    # The generator is charged 1 + 3 + 2 + 0.5 for its steps, the leaf it
    # calls excluded from self, the consumer's 20 excluded from both.
    assert (gen_st.calls, gen_st.total, gen_st.self, gen_st.yielded) == (1, 6.5, 4.5, 2)
    # outer: 1 + 2 (leaf) + 6.5 (gen) + 20 (loop body) + 1.
    assert outer_st.total == 30.5
    assert outer_st.self == 30.5 - 2.0 - 6.5 == 22.0

    by_name = {s[0]: s for s in rec.spans}
    outer_idx = next(i for i, s in enumerate(rec.spans) if s[0] == "m.outer")
    name, start, end, busy, parent, item = by_name["m.gen"]
    assert (parent, item) == (outer_idx, 7)
    assert busy == 6.5 and end - start == 26.5
    assert rec.unattributed(31.0) == 0.5


def test_generator_closed_early_is_charged_only_for_steps_taken():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def gen():
        while True:
            clock.advance(1.0)
            yield None

    traced = rec.wrap("m.gen", gen)
    it = traced()
    next(it)
    clock.advance(5.0)
    next(it)
    it.close()
    st = rec.stats["m.gen"]
    assert (st.total, st.self, st.yielded) == (2.0, 2.0, 2)


@pytest.mark.parametrize(
    "n, level, beyond",
    [(50, Fraction(50), 25), (100, Fraction(90), 10), (1500, Fraction(99), 15), (999, Fraction(90), 99), (19, Fraction(50), 9)],
)
def test_tail_percentile_rule(n, level, beyond):
    assert run.tail_level(n) == level
    values = [float(i) for i in range(1, n + 1)]
    value = run.percentile(values, level)
    assert sum(v > value for v in values) == beyond


def test_tracer_fails_loudly_on_a_missing_function():
    run.fresh_import()
    with pytest.raises(LookupError, match="reesreg.graphs.no_such_function"):
        spans.tracer(spans.Recorder(), layers={"graphs": ("induced_subgraph", "no_such_function")})


def test_tracer_wraps_every_binding_and_undoes():
    run.fresh_import()
    import reesreg
    import reesreg.decomposition
    import reesreg.rees

    original = reesreg.decomposition.is_tutte_berge
    rec = spans.Recorder()
    patch = spans.tracer(rec, layers={"decomposition": ("is_tutte_berge",)})
    for _ in range(2):
        patch.apply()
        try:
            assert reesreg.rees.is_tutte_berge is reesreg.decomposition.is_tutte_berge is reesreg.is_tutte_berge
            assert reesreg.rees.is_tutte_berge is not original
            reesreg.regularity(reesreg.cycle(5))
        finally:
            patch.undo()
        assert reesreg.rees.is_tutte_berge is original
    assert rec.stats["decomposition.is_tutte_berge"].calls == 2


@functools.cache
def _lib() -> SimpleNamespace:
    return run.fresh_import()


def _sweep_cell(g):
    from workloads import Sweep

    return Sweep.cell_of(_lib(), g)


def _sweep_block(rng_of):
    return inputs.sweep_block(rng_of(), inputs.sweep_picks(rng_of(), _sweep_cell))


@pytest.mark.parametrize(
    "make",
    [
        lambda rng_of: inputs.ladder_block(rng_of()),
        lambda rng_of: inputs.classify_block(rng_of(), 0),
        _sweep_block,
    ],
    ids=["ladder", "classify", "sweep"],
)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(make):
    def rng_of(seed, block):
        return lambda: inputs.block_rng("w", seed, block)

    first = make(rng_of(inputs.DEFAULT_SEED, 0))
    assert make(rng_of(inputs.DEFAULT_SEED, 0)) == first
    assert make(rng_of(inputs.HELD_OUT_SEED, 0)) != first
    assert make(rng_of(inputs.DEFAULT_SEED, 1)) != first


def test_sweep_block_fills_every_quota():
    block = _sweep_block(lambda: inputs.block_rng("sweep", 3, 0))
    assert Counter(map(_sweep_cell, block)) == inputs.sweep_quotas()


def test_sweep_check_fails_a_check_graph_that_skips_its_searches():
    from workloads import Prepared, Sweep

    lib = _lib()
    graphs = [inputs.cycle(5), inputs.complete(4), (3, ((1, 2),))]
    sweep = Sweep()

    def run_with(call):
        prep = Prepared([lib.graphs.Graph.from_edges(*g) for g in graphs], graphs, [""] * 3, call, {})
        hook = sweep.instrument(lib, prep)
        hook.apply()
        try:
            outputs = [prep.call(g) for g in prep.items]
        finally:
            hook.undo()
        return sweep.check(lib, prep, outputs)

    honest = run_with(lambda g: lib.corpus.check_graph(g))
    assert not honest.failures and honest.records[0][-2] is not None

    def lazy(g):
        reg = lib.rees.regularity(g)
        normal = reg.status is not lib.rees.RegularityStatus.NOT_NORMAL
        return lib.corpus.GraphCheck(tutte_berge=reg.tutte_berge, normal=normal, failures=())

    skipped = run_with(lazy)
    assert "no oracle" in skipped.failures[0] and "no brute-force" in skipped.failures[0]
    assert "no oracle" not in skipped.failures[2]


def test_probe_runs_the_kernel_once_per_interval_of_work():
    import calibrate

    probe = calibrate.Probe(every=0.02)
    probe.after(0.015)
    assert probe.times == []
    probe.after(0.015)  # 0.03 s owed: one run, 0.01 s carried over
    assert len(probe.times) == 1
    probe.after(0.05)  # 0.06 s owed: three runs
    assert len(probe.times) == 4
    probe.after(0.0, at_least=2)
    assert len(probe.times) == 6 and probe.owed == 0.0
    probe.times = [0.002, 0.003]
    assert probe.scale() == pytest.approx(calibrate.REFERENCE_S / 0.0025)


def test_local_scales_use_the_runs_around_each_call():
    import calibrate

    probe = calibrate.Probe()
    # Six short calls with one kernel run after each, then a long call
    # owed four runs: the machine ran the kernel in 1 ms, then in 2 ms.
    probe.times = [0.001] * 6 + [0.002] * 4
    ranges = [(i, i + 1) for i in range(6)] + [(6, 10)]
    scales = probe.local_scales(ranges, neighbours=2)
    ref = calibrate.REFERENCE_S
    assert scales[0] == pytest.approx(ref / 0.001)  # runs 0 and 1
    assert scales[5] == pytest.approx(ref / 0.001)  # runs 4 and 5
    assert scales[6] == pytest.approx(ref / 0.0018)  # run 5 and the four it was owed
