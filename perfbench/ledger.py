"""Per-layer metrics from the traced run.

Counts are per sweep (one pass over the workload's legs) so they do
not depend on how many sweeps fit in the run; times are per call,
per event or per message; a *share* is a layer's time over the host
time of the traced legs (for mp legs, each rank process counts the
leg's wall time once).  A layer a workload does not exercise reads 0.
BENCHMARK.json lists every metric with its unit and direction.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List

from tracer import merge_ledgers

KERNELS = ("compute", "speculate", "check", "correct")


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def paper_check_share(program: Any) -> float:
    """Eq. 11 check cost over compute cost per iteration, rank 0, in the
    paper's flop accounting (24 flops per checked N-body particle)."""
    peers = [k for k in program.needed(0) if k != 0]
    return _div(sum(program.check_ops(0, k) for k in peers), program.compute_ops(0))


def layer_metrics(
    traced: List[Any],
    untraced: List[Any],
    sweeps: int,
    untraced_rate: float,
    traced_rate: float,
    optin: Dict[str, float],
    host_ms: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric BENCHMARK.json lists.

    ``traced`` holds the traced legs: :class:`workloads.LegResult`
    objects carrying ``ledger`` (span tallies, including any mp
    workers'), ``counters``, ``procs`` and ``particles`` (checked,
    rejected).  ``untraced`` holds the legs run with tracing off in
    the same run; figures the program measures itself
    (``RunReport.timings``) come from those, and ``host_ms`` holds
    their host ms per iteration over the FW=0 and FW>0 legs.  Failed
    legs are skipped.
    """
    traced = [leg for leg in traced if leg.ok]
    untraced = [leg for leg in untraced if leg.ok]
    led = merge_ledgers(*(leg.ledger for leg in traced))
    counters: Dict[str, float] = {}
    for leg in traced:
        for key, value in leg.counters.items():
            counters[key] = counters.get(key, 0) + value
    host = sum(leg.host_s * leg.procs for leg in traced)
    sweeps = max(sweeps, 1)

    def count(name: str) -> float:
        return led.get(name, {}).get("count", 0) / sweeps

    def total(name: str) -> float:
        return led.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return led.get(name, {}).get("self_s", 0.0)

    def us_each(time_s: float, name: str) -> float:
        return _div(time_s * 1e6, led.get(name, {}).get("count", 0))

    m: Dict[str, float] = {}
    for kernel in KERNELS:
        name = f"nbody.{kernel}"
        m[f"{name}.calls"] = count(name)
        m[f"{name}.us_per_call"] = us_each(total(name), name)
    m["nbody.error_ratios.calls"] = count("nbody.error_ratios")
    m["nbody.force.mpairs_per_s"] = _div(counters.get("nbody.force.pairs", 0),
                                         total("nbody.force") * 1e6)
    checked = sum(leg.particles[0] for leg in traced)
    rejected = sum(leg.particles[1] for leg in traced)
    m["nbody.particles_rejected_frac"] = _div(rejected, checked)
    m["nbody.kernel_share"] = _div(sum(total(f"nbody.{k}") for k in KERNELS), host)
    m["nbody.max_pos_err"] = max(
        (leg.max_pos_err for leg in traced + untraced if leg.leg.fw > 0), default=0.0
    )
    m["jacobi.kernel_share"] = _div(sum(total(f"jacobi.{k}") for k in KERNELS), host)

    m["engine.effects"] = count("engine.step")
    m["engine.us_per_effect"] = us_each(self_s("engine.step"), "engine.step")
    m["engine.share"] = _div(self_s("engine.step"), host)
    stats = [s for leg in traced for s in leg.report.stats]
    accepted = sum(s.spec_accepted for s in stats)
    m["engine.block_accept_frac"] = _div(
        accepted, accepted + sum(s.spec_rejected for s in stats))
    for attr in ("recomputes", "retransmits", "dups_suppressed"):
        m[f"engine.{attr}"] = sum(getattr(s, attr) for s in stats) / sweeps

    m["des.events"] = count("des.step")
    m["des.us_per_event"] = us_each(self_s("des.step"), "des.step")
    m["des.share"] = _div(self_s("des.step"), host)
    m["netsim.messages"] = count("netsim.transmit")
    m["netsim.us_per_message"] = us_each(self_s("netsim.transmit"), "netsim.transmit")
    messages = counters.get("loopback.messages", 0)
    m["loopback.messages"] = messages / sweeps
    m["loopback.us_per_message"] = _div(self_s("loopback.run") * 1e6, messages)
    m["loopback.rounds"] = sum(
        leg.clock_s for leg in traced if leg.leg.backend == "loopback") / sweeps

    mp_spec = [leg for leg in untraced if leg.leg.backend == "mp" and leg.leg.fw > 0]
    for phase, key in (("compute", "compute"), ("spec", "spec"), ("check", "check"),
                       ("correct", "correct"), ("comm", "comm_wait")):
        m[f"mp.{key}_s"] = _median([leg.report.timings.get(phase, 0.0) for leg in mp_spec])
    m["parallel.overhead_s"] = _median([
        leg.host_s - leg.clock_s for leg in untraced if leg.leg.backend == "mp"
    ])

    m["trace.events"] = count("trace.record")
    m["trace.us_per_event"] = us_each(self_s("trace.record"), "trace.record")
    m["sanitizer.hooks"] = count("sanitizer.hook")
    m["sanitizer.us_per_hook"] = us_each(self_s("sanitizer.hook"), "sanitizer.hook")
    summaries = [leg.report.fault_summary for leg in traced if leg.report.fault_summary]
    injected = sum(s["total_injected"] for s in summaries)
    m["faults.injected"] = injected / sweeps
    m["faults.healed_frac"] = _div(
        injected - sum(s["outstanding_losses"] for s in summaries), injected)
    m["faults.us_per_admit"] = us_each(self_s("faults.admit"), "faults.admit")
    m["policy.window_changes"] = sum(
        len(h) - 1 for leg in traced for h in leg.report.window_history.values()
    ) / sweeps

    for layer in ("trace", "sanitizer", "faults_empty", "all"):
        m[f"optin.{layer}.added_pct"] = optin.get(layer, 0.0)

    spec = [leg for leg in traced if leg.leg.role == "spec"]
    m["perfmodel.check_share.paper"] = paper_check_share(spec[0].program) if spec else 0.0
    spec_led = merge_ledgers(*(leg.ledger for leg in spec))
    app = "nbody" if any(name.startswith("nbody.") for name in spec_led) else "jacobi"

    def spec_total(kernel: str) -> float:
        return spec_led.get(f"{app}.{kernel}", {}).get("total_s", 0.0)
    m["perfmodel.check_share.measured"] = _div(
        spec_total("check") + spec_total("correct"), spec_total("compute"))
    m["tracing.overhead_pct"] = (_div(untraced_rate, traced_rate) - 1.0) * 100.0

    m["iter_ms.fw0"] = host_ms["fw0"]
    m["iter_ms.spec"] = host_ms["spec"]

    # The simulator's own outputs: deterministic for a seed, they move
    # only when a change alters the protocol's virtual-time behaviour.
    des = [leg for leg in untraced if leg.leg.backend == "des" and leg.ok]
    fw0 = [leg.clock_s for leg in des if leg.leg.role == "fw0"]
    spec_made = [leg.clock_s for leg in des if leg.leg.role == "spec"]
    m["sim.speedup"] = _div(_median(fw0), _median(spec_made))
    sweep = {leg.leg: leg.clock_s for leg in des}
    m["sim.makespan_s"] = sum(sweep.values())
    return m
