"""The three benchmark workloads: inputs, legs and correctness checks.

A workload is built once from the seed (:meth:`Workload.build`, the
timed set-up) and then run as *sweeps*: one pass over its legs, each
leg a single ``repro.api.run`` call.  Every leg is checked as it
finishes; a leg that raises or fails a check counts as failed.

Seeds.  The workload seed generates the program's inputs: the N-body
initial conditions (``ic_seed = 42 + seed``, so seed 0 is the paper's
headline system), the Jacobi system (``3 + seed``, the ``repro
chaos`` default at seed 0), the fault plan's seed and the mp
transport seed.  The calibrated WUSTL platform, including its
cross-traffic stream, is the machine under test and stays fixed at
the headline's ``seed=1``: its burst pattern moves the simulated
p=16 speedup between 1.19 and 1.70 across seeds, which would swamp
any change to the code.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api import RunConfig, RunReport, run
from repro.apps import NBodyProgram
from repro.apps.jacobi import JacobiSolver, diagonally_dominant_system
from repro.faults import EdgeFault, FaultPlan, RankFault
from repro.harness.experiments import HEADLINE
from repro.nbody import uniform_cube
from repro.netsim.latency import ConstantLatency
from repro.netsim.network import DelayNetwork
from repro.platforms import wustl_1994
from repro.vm import Cluster, uniform_specs

#: FW=0 must reproduce the serial reference to rounding.
EXACT_TOL = 1e-12
#: Largest final-position deviation from the serial reference allowed
#: for FW=2 at theta=0.01, in the unit box's length units (0.5% of its
#: side).  Accepted speculations leave a sub-theta force error that
#: the chaotic dynamics grow with the step count: measured on seeds
#: 0-5 it is 1.5e-4 to 3.3e-4 after 20 steps (DES, p=4 and 16) and
#: 1.7e-3 to 1.9e-3 after 40 steps (mp, p=2).  The bound keeps a
#: 2.5-times margin over the largest.
SPEC_POS_BOUND = 5e-3


@dataclass(frozen=True)
class Leg:
    """One protocol run inside a sweep."""

    label: str
    backend: str
    p: int
    fw: int
    iterations: int
    #: "fw0" / "spec": the blocking and speculative legs of the
    #: workload's headline pair (``sim.speedup``, the paper's check
    #: share); "" for the others.
    role: str = ""


@dataclass
class LegResult:
    leg: Leg
    host_s: float = 0.0
    #: The run's makespan in its backend clock: virtual seconds (des),
    #: scheduler rounds (loopback), wall seconds (mp).
    clock_s: float = 0.0
    error: Optional[str] = None
    report: Optional[RunReport] = None
    program: Any = None
    #: Largest final-position deviation from the serial reference.
    max_pos_err: float = 0.0
    # Filled in by the traced run only.
    ledger: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    #: Processes the leg occupied for its wall time (p on mp, else 1).
    procs: int = 1
    #: N-body particles (checked, rejected) by the Eq. 11 check.
    particles: Tuple[int, int] = (0, 0)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Inputs:
    """What set-up produced: generated inputs plus verification oracles."""

    seed: int
    data: Dict[str, Any] = field(default_factory=dict)


class Workload:
    name = ""
    legs: List[Leg] = []

    def build(self, seed: int) -> Inputs:
        raise NotImplementedError

    def config(self, leg: Leg, inputs: Inputs) -> RunConfig:
        raise NotImplementedError

    def check(self, result: LegResult, config: RunConfig, inputs: Inputs) -> Optional[str]:
        """None when the leg's outputs are right, else why not."""
        raise NotImplementedError

    def run_leg(self, leg: Leg, inputs: Inputs,
                config: Optional[RunConfig] = None) -> LegResult:
        """Run ``leg`` (or an explicit variant ``config`` of it) and check it."""
        result = LegResult(leg)
        try:
            if config is None:
                config = self.config(leg, inputs)
            result.program = config.program
            gc.collect()  # start every leg from a settled heap
            start = time.perf_counter()
            report = run(config)
            result.host_s = time.perf_counter() - start
            result.report = report
            result.clock_s = float(report.wall_seconds)
            result.error = self.check(result, config, inputs)
        except Exception as exc:  # a leg that raises counts as failed
            first = str(exc).splitlines()[0] if str(exc) else ""
            result.error = f"{type(exc).__name__}: {first}"
        if result.report is not None:
            # Checked: drop what no metric reads, so memory does not
            # grow with the number of sweeps.
            result.report.event_log = None
            result.report.raw = None
        return result


# ------------------------------------------------------------------ nbody
def _nbody_program(inputs: Inputs, capacities: List[float], iterations: int) -> NBodyProgram:
    return NBodyProgram(
        inputs.data["system"], capacities, iterations=iterations,
        dt=HEADLINE["dt"], threshold=HEADLINE["threshold"],
    )


def _nbody_check(result: LegResult, config: RunConfig, inputs: Inputs) -> Optional[str]:
    program = result.program
    got = program.gather(result.report.results)
    ref = inputs.data["reference"]
    pos_err = float(np.abs(got.pos - ref.pos).max())
    result.max_pos_err = pos_err
    if result.leg.fw == 0:
        err = max(pos_err, float(np.abs(got.vel - ref.vel).max()))
        if not err <= EXACT_TOL:
            return f"FW=0 deviates {err:.3g} from the serial reference (> {EXACT_TOL:g})"
    elif not pos_err <= SPEC_POS_BOUND:
        return (f"FW={result.leg.fw} position deviation {pos_err:.3g} "
                f"exceeds the theta=0.01 bound {SPEC_POS_BOUND:g}")
    return None


def _nbody_inputs(seed: int, iterations: int) -> Inputs:
    system = uniform_cube(
        HEADLINE["n_particles"], seed=HEADLINE["ic_seed"] + seed,
        softening=HEADLINE["softening"],
    )
    inputs = Inputs(seed, {"system": system})
    inputs.data["reference"] = _nbody_program(inputs, [1.0], iterations).reference()
    return inputs


class NBodyDes(Workload):
    name = "nbody-des"
    iterations = HEADLINE["iterations"]
    legs = [
        Leg(f"des p={p} fw={fw}", "des", p, fw, HEADLINE["iterations"],
            role={(16, 0): "fw0", (16, 2): "spec"}.get((p, fw), ""))
        for p in (4, 16) for fw in (0, 2)
    ]

    def build(self, seed: int) -> Inputs:
        inputs = _nbody_inputs(seed, self.iterations)
        inputs.data["platforms"] = {
            p: wustl_1994(
                p=p,
                jitter_sigma=HEADLINE["jitter_sigma"],
                background_frames_per_s=HEADLINE["background_frames_per_s"],
                bursty_traffic=HEADLINE["bursty_traffic"],
                seed=HEADLINE["seed"],
            )
            for p in sorted({leg.p for leg in self.legs})
        }
        return inputs

    def config(self, leg: Leg, inputs: Inputs) -> RunConfig:
        platform = inputs.data["platforms"][leg.p]
        program = _nbody_program(inputs, platform.capacities(), leg.iterations)
        return RunConfig(
            program, backend="des", fw=leg.fw, cascade=HEADLINE["cascade"],
            cluster=platform.cluster(), sanitize=False,
        )

    check = staticmethod(_nbody_check)


class NBodyMp(Workload):
    name = "nbody-mp"
    iterations = 40
    latency = 0.05
    legs = [
        Leg("mp p=2 fw=0", "mp", 2, 0, 40, role="fw0"),
        Leg("mp p=2 fw=2", "mp", 2, 2, 40, role="spec"),
    ]

    def build(self, seed: int) -> Inputs:
        return _nbody_inputs(seed, self.iterations)

    def config(self, leg: Leg, inputs: Inputs) -> RunConfig:
        program = _nbody_program(inputs, [1.0] * leg.p, leg.iterations)
        return RunConfig(
            program, backend="mp", fw=leg.fw, cascade=HEADLINE["cascade"],
            latency=self.latency, seed=inputs.seed, sanitize=False, timeout=120.0,
        )

    check = staticmethod(_nbody_check)


# ------------------------------------------------------------------ chaos
def chaos_plan(seed: int) -> FaultPlan:
    """1% drop, duplicate and reorder on every edge; rank 1 runs 3x slow."""
    return FaultPlan(
        seed=seed,
        edges=tuple(EdgeFault(kind=kind, rate=0.01)
                    for kind in ("drop", "duplicate", "reorder")),
        ranks=(RankFault(rank=1, slowdown=3.0),),
    )


def _zero_latency_cluster(p: int) -> Cluster:
    """The uniform constant-latency cluster ``repro.api`` builds by default."""
    latency = ConstantLatency(0.0)
    return Cluster(uniform_specs(p), network_factory=lambda env: DelayNetwork(env, latency))


class ProtocolChaos(Workload):
    name = "protocol-chaos"
    n = 256
    p = 16
    iterations = 60
    legs = [
        Leg("des fw=0 chaos", "des", 16, 0, 60, role="fw0"),
        Leg("des fw=1 chaos", "des", 16, 1, 60, role="spec"),
        Leg("loopback fw=1 chaos", "loopback", 16, 1, 60),
    ]

    def build(self, seed: int) -> Inputs:
        a, b = diagonally_dominant_system(self.n, seed=3 + seed)
        inputs = Inputs(seed, {"a": a, "b": b, "plan": chaos_plan(seed)})
        # The fault-free FW=0 twin every chaos leg must match bit for bit.
        twin = run(RunConfig(self._program(inputs), backend="des", fw=0,
                             cascade="recompute", sanitize=False))
        inputs.data["twin"] = twin.results
        return inputs

    def _program(self, inputs: Inputs) -> JacobiSolver:
        return JacobiSolver(inputs.data["a"], inputs.data["b"],
                            capacities=[1000.0] * self.p,
                            iterations=self.iterations, threshold=0.0)

    def config(self, leg: Leg, inputs: Inputs, record_trace: bool = True,
               sanitize: bool = True, plan: Any = "workload") -> RunConfig:
        """The leg as run, or with a chosen set of opt-in layers."""
        return RunConfig(
            self._program(inputs), backend=leg.backend, fw=leg.fw,
            cascade="recompute",
            fault_plan=inputs.data["plan"] if plan == "workload" else plan,
            record_trace=record_trace, sanitize=sanitize,
            cluster=_zero_latency_cluster(leg.p) if leg.backend == "des" else None,
        )

    def check(self, result: LegResult, config: RunConfig, inputs: Inputs) -> Optional[str]:
        report = result.report
        twin = inputs.data["twin"]
        if not all(np.array_equal(twin[r], report.results[r]) for r in twin):
            return "results differ from the fault-free FW=0 twin"
        plan = config.fault_plan
        if plan is not None:
            summary = report.fault_summary
            if plan.edges and summary["total_injected"] == 0:
                return "the fault plan injected nothing"
            if summary["outstanding_losses"] != 0:
                return f"{summary['outstanding_losses']} outstanding losses"
        if config.sanitize:
            if report.backend == "des":
                sanitizer = config.cluster.env.sanitizer
                armed = sanitizer is not None and sanitizer.events_checked > 0
            else:
                armed = report.raw.sanitizer is not None
            if not armed:
                return "the sanitizer was not armed"
        if config.record_trace and not len(report.event_log):
            return "the trace recorded no events"
        return None


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (NBodyDes(), ProtocolChaos(), NBodyMp())
}
