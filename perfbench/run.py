"""The repository benchmark: one workload, end-to-end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload nbody-des --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload untraced, then traced through the
benchmark-side span wrappers of :mod:`tracer`, and reports the
per-layer ledger of :mod:`ledger`.  Both set up from ``--seed``, run
whole sweeps over the workload's legs until ``--seconds`` have passed,
check every leg's outputs, and print as their last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The
lines before it record the host and a readable table.

``--slow-check`` adds a fixed 1 ms busy-wait to every N-body ``check``
call through the benchmark's own kernel wrapper; the sensitivity
self-test (:mod:`selftest`) uses it to prove a slowed kernel is
flagged by :mod:`compare`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

WORKLOAD_NAMES = ("nbody-des", "protocol-chaos", "nbody-mp")
#: Fresh interpreters timed importing the modules; the median counts.
IMPORT_REPEATS = 5
#: Inputs are built at least this many times and until ``BUILD_MIN_S``
#: seconds have passed; the median counts.
BUILD_MIN_REPEATS = 3
BUILD_MIN_S = 5.0
#: Busy-wait ``--slow-check`` adds to every N-body ``check`` call.
SLOW_CHECK_DELAY_S = 1e-3
#: Modules a user of the benchmark's workloads imports.
IMPORTS = ("repro.api", "repro.harness.experiments", "repro.apps.jacobi", "repro.faults")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--slow-check", action="store_true",
                    help=f"add {SLOW_CHECK_DELAY_S * 1e3:g} ms of busy-wait to every "
                         "NBodyProgram.check call")
    return ap.parse_args(argv)


def host_info(workload: Any) -> Dict[str, Any]:
    """Cores, library versions, and whether an mp leg oversubscribes."""
    from importlib.metadata import PackageNotFoundError, version

    import numpy
    import scipy
    try:
        pytest_benchmark: Optional[str] = version("pytest-benchmark")
    except PackageNotFoundError:
        pytest_benchmark = None
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    mp_ps = [leg.p for leg in workload.legs if leg.backend == "mp"]
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pytest_benchmark": pytest_benchmark,
        "machine": platform.machine(),
        "oversubscribed": bool(mp_ps) and max(mp_ps) > (cores or 1),
    }


def time_imports(root: str) -> float:
    """Median host seconds for a fresh interpreter to import the
    workloads' modules.

    Called after ``peak_rss_mb`` is read, so the probes' memory does not
    count as the program's children.
    """
    code = ("import sys; sys.path.insert(0, 'src'); "
            + "; ".join(f"import {m}" for m in IMPORTS))
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def build_inputs(workload: Any, seed: int) -> Tuple[Any, float]:
    """(inputs, median host seconds of one build)."""
    times: List[float] = []
    inputs = None
    while len(times) < BUILD_MIN_REPEATS or sum(times) < BUILD_MIN_S:
        start = time.perf_counter()
        inputs = workload.build(seed)
        times.append(time.perf_counter() - start)
    return inputs, statistics.median(times)


def run_sweeps(workload: Any, inputs: Any, seconds: float, on_leg=None) -> Tuple[List[Any], int]:
    """Whole sweeps until ``seconds`` have passed (at least one)."""
    results: List[Any] = []
    sweeps = 0
    start = time.perf_counter()
    while sweeps == 0 or time.perf_counter() - start < seconds:
        for leg in workload.legs:
            result = on_leg(leg) if on_leg else workload.run_leg(leg, inputs)
            results.append(result)
        sweeps += 1
    return results, sweeps


def rank_iters_per_s(results: List[Any], legs: List[Any], per_rank: bool = True) -> float:
    """(Rank-)iterations per host second over ``legs``, from each leg's
    median host time."""
    work = 0.0
    seconds = 0.0
    for leg in legs:
        times = [r.host_s for r in results if r.leg == leg and r.ok]
        if times:
            work += leg.iterations * (leg.p if per_rank else 1)
            seconds += statistics.median(times)
    return work / seconds if seconds else 0.0


def iter_ms(results: List[Any], legs: List[Any], blocking: bool) -> float:
    """Host wall ms per iteration over the FW=0 (or FW>0) legs, from
    each leg's median host time.  Only backends that have an FW=0 leg
    count, so the two sides compare the same backend."""
    backends = {leg.backend for leg in legs if leg.fw == 0}
    chosen = [leg for leg in legs
              if (leg.fw == 0) == blocking and leg.backend in backends]
    rate = rank_iters_per_s(results, chosen, per_rank=False)
    return 1000.0 / rate if rate else 0.0


def spec_speedup(results: List[Any], legs: List[Any]) -> float:
    """Median over sweeps of the FW=0 over the FW>0 host time per
    iteration.  Each ratio pairs legs of one sweep, which run back to
    back, so a drift in host speed cancels."""
    ratios = []
    for i in range(0, len(results) - len(legs) + 1, len(legs)):
        sweep = results[i:i + len(legs)]
        fw0, spec = iter_ms(sweep, legs, True), iter_ms(sweep, legs, False)
        if fw0 and spec:
            ratios.append(fw0 / spec)
    return statistics.median(ratios) if ratios else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child (the mp
    workers; the import probes run later)."""
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def end_to_end(results: List[Any], legs: List[Any]) -> Dict[str, float]:
    """Every end-to-end metric but ``setup_s``."""
    return {
        "rank_iters_per_s": rank_iters_per_s(results, legs),
        "peak_rss_mb": peak_rss_mb(),
        "spec_speedup": spec_speedup(results, legs),
    }


def print_legs(results: List[Any], legs: List[Any]) -> None:
    """Per leg: runs, median host seconds and median backend-clock makespan."""
    clock = {"des": "virtual s", "loopback": "rounds", "mp": "wall s"}
    print("legs:")
    for leg in legs:
        done = [r for r in results if r.leg == leg and r.ok]
        if done:
            host = statistics.median(r.host_s for r in done)
            made = statistics.median(r.clock_s for r in done)
            print(f"  {leg.label:22s} x{len(done):<3d} host {host:8.3f} s   "
                  f"makespan {made:10.4f} {clock[leg.backend]}")


def optin_deltas(workload: Any, inputs: Any, seconds: float) -> Tuple[Dict[str, float], List[Any]]:
    """Added host time of each opt-in layer over the bare chaos legs.

    Rounds alternate the five variants until ``seconds`` have passed
    (at least one round); each delta compares medians.
    """
    from repro.faults import FaultPlan

    variants = {
        "bare": dict(record_trace=False, sanitize=False, plan=None),
        "trace": dict(record_trace=True, sanitize=False, plan=None),
        "sanitizer": dict(record_trace=False, sanitize=True, plan=None),
        "faults_empty": dict(record_trace=False, sanitize=False,
                             plan=FaultPlan(seed=inputs.seed)),
        "all": dict(record_trace=True, sanitize=True, plan="workload"),
    }
    legs = [leg for leg in workload.legs if leg.fw > 0]
    times: Dict[str, List[float]] = {name: [] for name in variants}
    results: List[Any] = []
    start = time.perf_counter()
    while not times["bare"] or time.perf_counter() - start < seconds:
        for name, kw in variants.items():
            total = 0.0
            for leg in legs:
                result = workload.run_leg(leg, inputs, workload.config(leg, inputs, **kw))
                results.append(result)
                total += result.host_s
            times[name].append(total)
    bare = statistics.median(times["bare"])
    deltas = {name: (statistics.median(t) / bare - 1.0) * 100.0
              for name, t in times.items() if name != "bare"}
    return deltas, results


def traced_sweeps(workload: Any, inputs: Any, seconds: float,
                  spans_path: str) -> Tuple[List[Any], int]:
    """Sweeps with the span wrappers installed; per-leg ledgers attached.
    The parent's spans are written to ``spans_path`` at the end."""
    from tracer import Instrumentation, Tracer, merge_ledgers

    tracer = Tracer()
    channel = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    instr = Instrumentation(tracer=tracer, channel=channel)

    def on_leg(leg: Any) -> Any:
        first = len(tracer)
        tracer.counters = Counter()
        idx = tracer.open("leg")
        try:
            result = workload.run_leg(leg, inputs)
        finally:
            tracer.close(idx)
        result.procs = leg.p if leg.backend == "mp" else 1
        stats = getattr(result.program, "spec_stats", None)
        ledgers = [tracer.ledger(first, len(tracer))]
        counters = Counter(tracer.counters)
        checked = getattr(stats, "particles_checked", 0)
        rejected = getattr(stats, "particles_rejected", 0)
        for tally in instr.collect_tallies():  # mp workers' spans
            ledgers.append(tally["ledger"])
            counters.update(tally["counters"])
            checked += tally["particles_checked"]
            rejected += tally["particles_rejected"]
        result.ledger = merge_ledgers(*ledgers)
        result.counters = dict(counters)
        result.particles = (checked, rejected)
        return result

    try:
        with instr:
            results, sweeps = run_sweeps(workload, inputs, seconds, on_leg)
    finally:
        shutil.rmtree(channel, ignore_errors=True)
    tracer.save(spans_path)
    return results, sweeps


def result_object(metrics: Dict[str, float], listed: List[dict],
                  attempted: int, failed: int) -> dict:
    """The last output line; ``metrics`` must cover exactly ``listed``."""
    names = [m["name"] for m in listed]
    if sorted(metrics) != sorted(names):
        raise RuntimeError(f"computed metrics {sorted(metrics)} != listed {sorted(names)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in listed},
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    host = host_info(workload)
    print("# host " + json.dumps(host, sort_keys=True))
    inputs, build_s = build_inputs(workload, args.seed)

    from tracer import Instrumentation

    with Instrumentation(check_delay_s=SLOW_CHECK_DELAY_S if args.slow_check else 0.0):
        if args.trace == 0:
            results, _ = run_sweeps(workload, inputs, args.seconds)
            attempted = results
        else:
            half = args.seconds / 2.0
            untraced, _ = run_sweeps(workload, inputs, half)
            untraced_rate = rank_iters_per_s(untraced, workload.legs)
            optin, optin_results = {}, []
            if args.workload == "protocol-chaos":
                optin, optin_results = optin_deltas(workload, inputs, half)
            spans_dir = os.path.join(root, ".perfbench-spans")
            os.makedirs(spans_dir, exist_ok=True)
            traced, sweeps = traced_sweeps(
                workload, inputs, half,
                os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.npz"))
            traced_rate = rank_iters_per_s(traced, workload.legs)
            attempted = untraced + optin_results + traced

    failed = [r for r in attempted if not r.ok]
    for r in failed:
        print(f"FAILED {r.leg.label}: {r.error}")
    print(f"# {args.workload} seed={args.seed}: {len(attempted)} legs, "
          f"{len(failed)} failed (failed_frac {len(failed) / len(attempted):.3f})")
    print_legs(results if args.trace == 0 else untraced, workload.legs)

    from compare import load_spec

    spec = load_spec()
    if args.trace == 0:
        metrics = end_to_end(results, workload.legs)
        metrics["setup_s"] = time_imports(root) + build_s
        listed = spec["end_to_end"]
    else:
        from ledger import layer_metrics
        host_ms = {"fw0": iter_ms(untraced, workload.legs, True),
                   "spec": iter_ms(untraced, workload.legs, False)}
        metrics = layer_metrics(traced, untraced, sweeps, untraced_rate, traced_rate,
                                optin, host_ms)
        listed = spec["per_layer"]
    out = result_object(metrics, listed, len(attempted), len(failed))
    print("end-to-end (tracing off):" if args.trace == 0 else "per-layer (traced run):")
    for name, metric in out["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
