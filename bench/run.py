"""Benchmark for reesreg: three closed-loop workloads, checked outputs,
end-to-end metrics untraced and per-layer metrics from a traced run.

    python3 bench/run.py --workload sweep|ladder|classify --seed N --seconds S --trace 0|1

Run it from the repository root.  It imports `reesreg` from `src/` beside
this directory, builds the workload's inputs from `--seed` (see inputs.py),
runs the timed loop, checks every output after the loop, and prints a
summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are BENCHMARK.json's `end_to_end` list, with
`--trace 1` its `per_layer` list.  The exit code is 0 only when every
output check passed.  Full results go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import calibrate
import spans
from workloads import WORKLOADS, Prepared, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MODULES = ("graphs", "matching", "decomposition", "rees", "polytope", "report", "corpus", "cli")
# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, and the median is reported.
SETUP_REPEATS = 15
SETUP_SECONDS = 2.0
WARM_UP_CALLS = 3
# Percentiles tried for latency_tail_ms, lowest first: the median and the
# nines.
TAIL_LEVELS = tuple(Fraction(x) for x in ("50", "90", "99", "99.9", "99.99", "99.999"))
TAIL_BEYOND = 10


def tail_level(n: int) -> Fraction:
    """The highest percentile in TAIL_LEVELS with at least TAIL_BEYOND of n
    samples ranked above it (nearest-rank), or the median if none has."""
    best = TAIL_LEVELS[0]
    for level in TAIL_LEVELS:
        if n - math.ceil(level * n / 100) >= TAIL_BEYOND:
            best = level
    return best


def percentile(sorted_values: list[float], level: Fraction) -> float:
    """Nearest-rank percentile of ascending values."""
    rank = max(1, math.ceil(level * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def fresh_import() -> SimpleNamespace:
    """Import reesreg from scratch (every submodule re-executed)."""
    for name in [k for k in sys.modules if k == "reesreg" or k.startswith("reesreg.")]:
        del sys.modules[name]
    pkg = importlib.import_module("reesreg")
    if Path(pkg.__file__).resolve().parent != SRC / "reesreg":
        raise ImportError(f"reesreg was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"reesreg.{m}") for m in MODULES})


def read_git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    """Run metadata; a run is flagged busy when it starts with a 1-minute
    load average of at least half the usable CPUs."""
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()
    return {
        "git_sha": read_git_sha(),
        "python": platform.python_version(),
        "nproc": nproc,
        "load_before": load,
        "busy_start": load[0] >= 0.5 * nproc,
    }


def timed_loop(prep: Prepared) -> tuple[float, list[float], list, dict[int, str], calibrate.Probe, list[tuple[int, int]]]:
    """Call prep.call on every item in order, one at a time, with the
    reference kernel run between calls.  Latencies are CPU times (see
    calibrate.py); the returned wall time is the whole loop's, and the
    ranges are those of the kernel runs made after each call."""
    call = prep.call
    clock = calibrate.CLOCK
    n = len(prep.items)
    latencies = [0.0] * n
    outputs: list = [None] * n
    errors: dict[int, str] = {}
    probe = calibrate.Probe()
    ranges = [(0, 0)] * n
    gc.collect()
    start = time.perf_counter()
    for i, item in enumerate(prep.items):
        t0 = clock()
        try:
            outputs[i] = call(item)
        except Exception as exc:  # a failed call is counted, and the loop goes on
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies[i] = clock() - t0
        ranges[i] = probe.after(latencies[i])
    return time.perf_counter() - start, latencies, outputs, errors, probe, ranges


def set_up(wl: Workload, seed: int, blocks: int, workdir: Path) -> tuple[SimpleNamespace, Prepared, list[float], list[float]]:
    """Import, inputs and warm-up, repeated; the last one is kept.  The
    workload's plan is made once before, untimed.  Returns each set-up's
    time as measured and scaled by the reference kernel runs right after it."""
    plan = wl.plan(fresh_import(), seed, blocks, workdir)
    times: list[float] = []
    scaled: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        gc.collect()
        t0 = calibrate.CLOCK()
        lib = fresh_import()
        prep = wl.prepare(lib, seed, blocks, plan)
        cheapest = sorted(range(len(prep.graphs)), key=lambda i: len(prep.graphs[i][1]))
        for i in cheapest[:WARM_UP_CALLS]:
            prep.call(prep.items[i])
        times.append(calibrate.CLOCK() - t0)
        probe = calibrate.Probe()
        probe.after(times[-1], at_least=calibrate.MIN_PROBES)
        scaled.append(times[-1] * probe.scale())
    return lib, prep, times, scaled


def paired_loop(prep: Prepared, patch: spans.Patch, rec: spans.Recorder) -> tuple[float, float, list, dict[int, str]]:
    """Each call twice back to back, untraced and traced, in alternating
    order, so that both see the same machine speed.  Returns the time spent
    untraced and traced, and the traced outputs."""
    call = prep.call
    clock = time.perf_counter
    outputs: list = [None] * len(prep.items)
    errors: dict[int, str] = {}
    spent = [0.0, 0.0]
    gc.collect()
    for i, item in enumerate(prep.items):
        rec.begin_item(i)
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                patch.apply()
            out = None
            t0 = clock()
            try:
                out = call(item)
            except Exception as exc:  # a failed call is counted, and the loop goes on
                errors[i] = f"{type(exc).__name__}: {exc}"
            spent[traced] += clock() - t0
            if traced:
                patch.undo()
                outputs[i] = out
    return spent[0], spent[1], outputs, errors


def children_cpu() -> float:
    """CPU time of the child processes that have ended and been waited for."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def end_to_end(latencies: list[float], setup_times: list[float]) -> tuple[dict, Fraction]:
    lat = sorted(latencies)
    level = tail_level(len(lat))
    return {
        "graphs_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, level) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, level


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "reesreg" / "__init__.py").is_file():
        print(f"error: no reesreg package under {SRC}", file=sys.stderr)
        return 2
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    blocks = max(1, round(args.seconds / wl.nominal_block_s))
    meta = machine()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    rec = None
    try:
        lib, prep, setup_raw, setup_times = set_up(wl, args.seed, blocks, workdir)
        hook = wl.instrument(lib, prep)
        hook.apply()
        try:
            if args.trace:
                rec = spans.Recorder()
                patch = spans.tracer(rec, observers=spans.OBSERVERS, graph_type=lib.graphs.Graph)
                untraced, traced, outputs, errors = paired_loop(prep, patch, rec)
                metrics = spans.layer_metrics(rec, traced, untraced, len(prep.items))
            else:
                before = children_cpu()
                wall, latencies, outputs, errors, probe, ranges = timed_loop(prep)
                meta["children_cpu_s"] = children_cpu() - before
                scales = probe.local_scales(ranges)
                metrics, level = end_to_end([t * k for t, k in zip(latencies, scales)], setup_times)
                raw, _ = end_to_end(latencies, setup_raw)
        finally:
            hook.undo()
        checked = wl.check(lib, prep, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta["load_after"] = os.getloadavg()

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics listed in BENCHMARK.json but not produced: {missing}", file=sys.stderr)
        return 2
    failures = {i: errors.get(i) or checked.failures[i] for i in sorted(set(errors) | set(checked.failures))}
    attempted = len(prep.items)
    digest_key = f"{args.workload}/seed={args.seed}/blocks={blocks}"
    digest = hashlib.sha256(json.dumps(checked.records, sort_keys=True).encode()).hexdigest()
    recorded = json.loads((HERE / "digests.json").read_text()).get(digest_key)
    correct = not failures and recorded in (None, digest)

    w = 18
    print(f"{'workload':<{w}}{args.workload}  seed {args.seed}  blocks {blocks}  calls {attempted}  trace {args.trace}")
    if not args.trace:
        notes = {
            "latency_tail_ms": f"  (p{level} of {attempted} samples)",
            "setup_s": f"  (median of {len(setup_times)})",
        }
        for name, (value, unit) in metrics.items():
            unscaled = f"  unscaled {raw[name][0]:.6g}" if name != "peak_rss_mb" else ""
            print(f"{name:<{w}}{value:.6g} {unit}{unscaled}{notes.get(name, '')}")
        if meta["children_cpu_s"] > 0:
            print(f"{'WARNING':<{w}}child processes used {meta['children_cpu_s']:.3f} s of CPU that no latency counts")
        q = statistics.quantiles(scales, n=10)
        print(
            f"{'time scale':<{w}}{statistics.median(scales):.4f}  (p10 {q[0]:.4f}, p90 {q[-1]:.4f}; reference kernel"
            f" {1e3 * calibrate.REFERENCE_S:g} ms over its mean around each call, {len(probe.times)} kernel runs;"
            f" loop wall {wall:.1f} s)"
        )
    print(f"{'failed_frac':<{w}}{len(failures) / attempted:.6g}  ({len(failures)} of {attempted})")
    for i, why in list(failures.items())[:10]:
        print(f"{'FAILED':<{w}}call {i} {prep.labels[i]} {why}")
    state = "matches recorded" if recorded == digest else ("DIFFERS from recorded" if recorded else "none recorded")
    print(f"{'outputs digest':<{w}}{digest[:16]}  {state} ({digest_key})")
    load = meta["load_before"][0], meta["load_after"][0]
    busy = "  BUSY at start" if meta["busy_start"] else ""
    print(f"{'machine':<{w}}python {meta['python']}  nproc {meta['nproc']}  load {load[0]:.2f} -> {load[1]:.2f}{busy}  sha {meta['git_sha']}")
    print(f"{'inputs':<{w}}{json.dumps(prep.props)}")
    if args.trace:
        print_layers(metrics)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "blocks": blocks,
        "trace": args.trace,
        "machine": meta,
        "inputs": prep.props,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_frac": len(failures) / attempted,
        "setup_times_s": setup_times,
        "digest": digest,
        "failures": {str(i): why for i, why in failures.items()},
    }
    if not args.trace:
        result["tail_percentile"] = float(level)
        result["time_scales"] = scales
        result["unscaled_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
        result["kernel_times_s"] = probe.times
        result["latencies_unscaled_s"] = latencies
        result["setup_times_unscaled_s"] = setup_raw
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    if rec is not None:
        with gzip.open(OUT / f"{args.workload}-seed{args.seed}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "busy", "parent", "item"], "spans": rec.spans}, fh)

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0 if correct else 1


def print_layers(layer: dict) -> None:
    """One row per traced function, then every other number."""
    funcs = sorted(k[: -len(".calls")] for k in layer if k.endswith(".calls"))
    own = {f"{f}.{s}" for f in funcs for s in ("calls", "total_ms", "self_ms", "total_share", "self_share", "yielded")}
    w = 50
    print(f"{'per function':<{w + 2}}{'calls':>9} {'total_ms':>10} {'self_ms':>10} {'self%':>6} {'yielded':>8}")
    for f in funcs:
        print(
            f"  {f:<{w}}{layer[f + '.calls'][0]:>9} {layer[f + '.total_ms'][0]:>10.1f}"
            f" {layer[f + '.self_ms'][0]:>10.1f} {100 * layer[f + '.self_share'][0]:>6.1f}"
            f" {layer.get(f + '.yielded', ('',))[0]:>8}"
        )
    for key, (value, unit) in sorted(layer.items()):
        if key not in own:
            print(f"  {key:<{w}}{value:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
