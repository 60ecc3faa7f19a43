"""Benchmark-side span tracing around the public calls of each layer.

Nothing here edits the program: :class:`Instrumentation` swaps class
and module attributes of ``repro`` for thin wrappers while a traced
phase runs, and puts the originals back afterwards.  Each wrapper
records one span ``(name, start, end, parent)``; spans live in compact
arrays in memory and are folded into a ledger (count, inclusive time,
self time) once, at the end.  A span's self time is its duration minus
the time its child spans cover.

The same wrappers are inherited by ``fork``-started mp workers.  Each
worker starts a fresh :class:`Tracer`, and when the worker returns it
writes its folded tallies into a directory the benchmark owns; the
parent merges them with :func:`merge_ledgers`.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

_MISSING = object()


class Tracer:
    """Spans kept in flat arrays: about 24 bytes a span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack: List[int] = []
        #: Counts taken at the same boundaries (pairs evaluated, ...).
        self.counters: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.starts)

    def ledger(self, lo: int = 0, hi: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """name -> {count, total_s, self_s} over the closed spans
        ``lo:hi``, which must hold whole subtrees (spans are appended
        in open order, so one leg's spans are contiguous)."""
        hi = len(self.starts) if hi is None else hi
        if hi <= lo:
            return {}
        starts = np.frombuffer(self.starts, dtype=np.float64)[lo:hi]
        ends = np.frombuffer(self.ends, dtype=np.float64)[lo:hi]
        parents = np.frombuffer(self.parents, dtype=np.int64)[lo:hi] - lo
        nids = np.frombuffer(self.name_ids, dtype=np.int64)[lo:hi]
        closed = ends > 0.0
        dur = np.where(closed, ends - starts, 0.0)
        child = np.zeros_like(dur)
        inside = parents >= 0
        np.add.at(child, parents[inside], dur[inside])
        self_t = dur - child
        out: Dict[str, Dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = (nids == nid) & closed
            if not mask.any():
                continue
            out[name] = {
                "count": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_t[mask].sum()),
            }
        return out

    def save(self, path: str) -> None:
        """Write every span (name, start, end, parent index) to an .npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int64),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            parents=np.frombuffer(self.parents, dtype=np.int64),
        )


def merge_ledgers(*ledgers: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for ledger in ledgers:
        for name, row in ledger.items():
            acc = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    return out


class _TimedGenerator:
    """Times each resumption of an engine's effect generator."""

    __slots__ = ("_gen", "_tracer", "_name")

    def __init__(self, gen: Any, tracer: Tracer, name: str) -> None:
        self._gen = gen
        self._tracer = tracer
        self._name = name

    def __iter__(self) -> "_TimedGenerator":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        idx = self._tracer.open(self._name)
        try:
            return self._gen.send(value)
        finally:
            self._tracer.close(idx)

    def throw(self, *args: Any) -> Any:
        return self._gen.throw(*args)

    def close(self) -> None:
        self._gen.close()


def busy_wait(seconds: float) -> None:
    """Spin for ``seconds`` of host time (a fixed, CPU-bound delay)."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Instrumentation:
    """Installs and removes the benchmark's wrappers.

    ``tracer`` None installs no span wrappers (the untraced, end-to-end
    mode); ``check_delay_s`` > 0 adds a fixed busy-wait to every
    ``NBodyProgram.check`` call, the sensitivity self-test's injected
    kernel slowdown.  ``channel`` is the directory mp workers write
    their tallies to.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        check_delay_s: float = 0.0,
        channel: Optional[str] = None,
    ) -> None:
        self.tracer = tracer
        self.check_delay_s = check_delay_s
        self.channel = channel
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ patching
    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, make(original))

    def _span(self, name: str, count: Optional[Callable[..., None]] = None):
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                tracer = self.tracer
                if count is not None:
                    count(tracer, *args, **kwargs)
                idx = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            return wrapper
        return make

    def _counter(self, key: str):
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                self.tracer.counters[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def install(self) -> "Instrumentation":
        import repro.apps.nbody_app as nbody_app
        from repro.apps.jacobi import JacobiSolver
        from repro.apps.nbody_app import NBodyProgram

        if self.check_delay_s > 0:
            delay = self.check_delay_s

            def slowed(fn: Callable) -> Callable:
                @functools.wraps(fn)
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    busy_wait(delay)
                    return fn(*args, **kwargs)
                return wrapper
            self._patch(NBodyProgram, "check", slowed)
        if self.tracer is None:
            return self

        from repro.analysis.sanitizer import ProtocolSanitizer
        from repro.des.environment import Environment
        from repro.engine.core import SpecEngine
        from repro.engine.loopback import LoopbackRunner
        from repro.faults.injector import FaultInjector
        from repro.netsim import network
        from repro.parallel import runner
        from repro.trace.events import EventLog

        # Kernels.
        for method in ("compute", "speculate", "check", "correct"):
            self._patch(NBodyProgram, method, self._span(f"nbody.{method}"))
            self._patch(JacobiSolver, method, self._span(f"jacobi.{method}"))
        self._patch(nbody_app, "pairwise_error_ratios", self._span("nbody.error_ratios"))

        def count_pairs(tracer: Tracer, targets: Any, sources: Any, *a: Any, **k: Any) -> None:
            tracer.counters["nbody.force.pairs"] += len(targets) * len(sources)
        self._patch(nbody_app, "accelerations_from_sources",
                    self._span("nbody.force", count_pairs))

        # Engine: every resumption of the effect generator is one span.
        def timed_run(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(engine: Any, *args: Any, **kwargs: Any) -> Any:
                return _TimedGenerator(fn(engine, *args, **kwargs), self.tracer, "engine.step")
            return wrapper
        self._patch(SpecEngine, "run", timed_run)

        # Simulator and transports.
        self._patch(Environment, "step", self._span("des.step"))
        for cls in (network.DelayNetwork, network.SwitchedNetwork, network.BusNetwork):
            self._patch(cls, "transmit", self._span("netsim.transmit"))
        self._patch(LoopbackRunner, "run", self._span("loopback.run"))
        self._patch(LoopbackRunner, "_deliver", self._counter("loopback.messages"))

        # Opt-in layers.
        self._patch(EventLog, "record", self._span("trace.record"))
        for attr in sorted(vars(ProtocolSanitizer)):
            if attr.startswith("on_"):
                self._patch(ProtocolSanitizer, attr, self._span("sanitizer.hook"))
        self._patch(FaultInjector, "admit", self._span("faults.admit"))

        # mp workers: fresh tracer per worker, tallies to the channel.
        def traced_worker(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(rank: int, program: Any, *args: Any, **kwargs: Any) -> Any:
                self.tracer = Tracer()
                try:
                    return fn(rank, program, *args, **kwargs)
                finally:
                    self._write_tally(rank, program)
            return wrapper
        self._patch(runner, "worker_main", traced_worker)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------ mp channel
    def _write_tally(self, rank: int, program: Any) -> None:
        if self.channel is None:
            return
        stats = getattr(program, "spec_stats", None)
        tally = {
            "ledger": self.tracer.ledger(),
            "counters": dict(self.tracer.counters),
            "particles_checked": getattr(stats, "particles_checked", 0),
            "particles_rejected": getattr(stats, "particles_rejected", 0),
        }
        path = os.path.join(self.channel, f"tally-{rank}-{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(tally, fh)
        os.replace(path + ".tmp", path)

    def collect_tallies(self) -> List[dict]:
        """Read and remove every tally the workers wrote."""
        if self.channel is None:
            return []
        tallies = []
        for name in sorted(os.listdir(self.channel)):
            path = os.path.join(self.channel, name)
            if name.startswith("tally-") and name.endswith(".json"):
                with open(path) as fh:
                    tallies.append(json.load(fh))
            os.remove(path)
        return tallies
