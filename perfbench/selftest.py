"""Sensitivity self-test: the comparison must see a slowed kernel.

Runs one workload three ways on the same seeds, ``RUNS`` runs of
``run_seconds`` each: a base set, an unmodified rerun, and a set with a
fixed 1 ms busy-wait injected into every N-body ``check`` call through
the benchmark's own kernel wrapper (``run.py --slow-check``).  It passes when
:mod:`compare` flags the slowed set and does not flag the rerun::

    python3 perfbench/selftest.py            # from the repository root

Exit code 0 on pass, 1 on fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import List

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
#: The workload with the most N-body check calls per second of host time.
WORKLOAD = "nbody-des"
#: Runs per set, on seeds 1..RUNS.
RUNS = 3


def run_set(out_dir: str, tag: str, seconds: float, extra: List[str]) -> List[str]:
    paths = []
    for seed in range(1, RUNS + 1):
        path = os.path.join(out_dir, f"{tag}-{seed}.txt")
        with open(path, "w") as fh:
            subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", WORKLOAD, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0", *extra],
                stdout=fh, check=False, timeout=600,
            )
        paths.append(path)
    return paths


def main() -> int:
    spec = compare.load_spec()
    seconds = spec["run_seconds"]
    out_dir = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=os.getcwd())
    try:
        base = run_set(out_dir, "base", seconds, [])
        rerun = run_set(out_dir, "rerun", seconds, [])
        slowed = run_set(out_dir, "slowed", seconds, ["--slow-check"])
        ok = True
        for label, new, want_flag in (("unmodified rerun", rerun, False),
                                      ("check +1 ms", slowed, True)):
            lines, flags = compare.compare(base, new, spec)
            print(f"== base vs {label}")
            print("\n".join(lines))
            for flag in flags:
                print("FLAG " + flag)
            if bool(flags) != want_flag:
                ok = False
                print(f"-> {'missed the slowdown' if want_flag else 'false alarm'}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print("selftest " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
