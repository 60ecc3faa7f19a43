"""MPRunner failure handling: a dying worker must not strand the run.

Regression tests for two hangs:

* pre-barrier failure — a rank that raises while building its engine
  reports immediately; the runner aborts the start barrier so parked
  peers fail fast instead of waiting out the full timeout.
* post-barrier failure — a rank that dies mid-protocol leaves peers
  blocked on receives that will never complete; the runner gives them
  a short grace window, then synthesizes their reports and tears the
  workers down rather than burning the whole timeout.
"""

import multiprocessing
import time

import pytest

from repro.parallel import MPRunner

from tests.toy_programs import CoupledIncrement


class ExplodingInit(CoupledIncrement):
    """Rank 1 dies before the start barrier (engine construction)."""

    def initial_block(self, rank):
        if rank == 1:
            raise RuntimeError("boom in initial_block")
        return super().initial_block(rank)


class ExplodingCompute(CoupledIncrement):
    """Rank 0 dies mid-protocol, after the start barrier."""

    def compute(self, rank, inputs, t):
        if rank == 0 and t == 2:
            raise RuntimeError("boom in compute")
        return super().compute(rank, inputs, t)


def _assert_no_orphans():
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.05)
    alive = multiprocessing.active_children()
    assert not alive, f"worker processes left running: {alive}"


def test_pre_barrier_failure_raises_fast():
    runner = MPRunner(ExplodingInit(2, iterations=6), fw=1)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="boom in initial_block"):
        runner.run(timeout=60.0)
    # Far below the run timeout: the error surfaced via the aborted
    # barrier, not by waiting the healthy rank out.
    assert time.monotonic() - start < 30.0
    _assert_no_orphans()


def test_post_barrier_failure_bounded_by_grace():
    runner = MPRunner(ExplodingCompute(2, iterations=8), fw=1, failure_grace=1.0)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="boom in compute"):
        runner.run(timeout=120.0)
    # Bounded by the failure grace window (1 s) plus join/teardown
    # slack, not by the 120 s run timeout.
    assert time.monotonic() - start < 60.0
    _assert_no_orphans()


def test_failure_grace_must_be_positive():
    with pytest.raises(ValueError, match="failure_grace"):
        MPRunner(CoupledIncrement(2, iterations=2), failure_grace=0.0)
