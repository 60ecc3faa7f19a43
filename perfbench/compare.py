"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Each input file holds the captured standard output of one
``perfbench/run.py`` run (its last line is the result object)::

    python3 perfbench/compare.py --base base-*.txt --new new-*.txt

For every metric the two sets share it prints each side's median and
quartile spread.  An end-to-end metric whose new median is worse than
the base median by more than its bound (a share of the base median)
is flagged REGRESSION; per-layer metrics have no bound and are only
reported.  A new run that failed a correctness check, or hosts that
differ, are flagged too.  Exit code 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec() -> dict:
    """BENCHMARK.json: the metric names, units, directions and bounds."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def read_run(path: str) -> Tuple[dict, dict]:
    """(host record, result object) of one captured run."""
    host: dict = {}
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    for line in lines:
        if line.startswith("# host "):
            host = json.loads(line[len("# host "):])
    return host, json.loads(lines[-1])


def spread(values: List[float]) -> Tuple[float, float]:
    """(median, interquartile range as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def compare(base: List[str], new: List[str], spec: dict) -> Tuple[List[str], List[str]]:
    """(report lines, flags) for two sets of captured runs."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = dict(bounds)
    better.update({m["name"]: m for m in spec["per_layer"]})
    base_runs = [read_run(p) for p in base]
    new_runs = [read_run(p) for p in new]
    lines: List[str] = []
    flags: List[str] = []

    hosts = {json.dumps(h, sort_keys=True) for h, _ in base_runs + new_runs}
    if len(hosts) > 1:
        flags.append("hosts differ: " + " | ".join(sorted(hosts)))
    for path, (_, res) in zip(new, new_runs):
        if not res["correct"]:
            flags.append(f"{path}: correctness failed ({res['failed']}/{res['attempted']} legs)")

    def values(runs: List[Tuple[dict, dict]]) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for _, res in runs:
            for name, metric in res["metrics"].items():
                out.setdefault(name, []).append(metric["value"])
        return out

    bvals, nvals = values(base_runs), values(new_runs)
    lines.append(f"{'metric':34s} {'base median':>14s} {'iqr':>7s} {'new median':>14s} "
                 f"{'iqr':>7s} {'change':>8s}  verdict")
    for name in bvals:
        if name not in nvals:
            continue
        bmed, biqr = spread(bvals[name])
        nmed, niqr = spread(nvals[name])
        change = (nmed - bmed) / abs(bmed) if bmed else 0.0
        meta = better.get(name, {})
        worse = -change if meta.get("better") == "higher" else change
        verdict = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            if worse > bound:
                verdict = f"REGRESSION (bound {bound:.0%})"
                flags.append(f"{name}: {worse:+.1%} worse than base, bound {bound:.0%}")
            elif -worse > bound:
                verdict = "improved"
            elif max(biqr, niqr) > bound:
                verdict = "unresolved (spread wider than bound)"
            else:
                verdict = "same"
        lines.append(f"{name:34s} {bmed:14.6g} {biqr:7.1%} {nmed:14.6g} {niqr:7.1%} "
                     f"{change:+8.1%}  {verdict}")
    return lines, flags


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    lines, flags = compare(args.base, args.new, load_spec())
    print("\n".join(lines))
    for flag in flags:
        print("FLAG " + flag)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
