"""Command-line interface: ``python -m repro`` / ``repro``.

Subcommands
-----------
``repro list``
    Show the reproducible artifacts.
``repro run fig8 [--out FILE]``
    Regenerate one of the paper's tables/figures and print it.
``repro nbody -p 8 --fw 1 [--backend des|loopback|mp] ...``
    Run a single N-body experiment with explicit knobs through
    :func:`repro.api.run`; optionally record the protocol event trace
    for later replay.  Every backend prints the same report fields
    (only the clock differs): the calibrated simulator, the
    deterministic in-process scheduler, or real OS processes over
    pipes with injected latency.
``repro jacobi -p 4 -n 64 [--backend des|loopback|mp] ...``
    Run a Jacobi solve through :func:`repro.api.run` on any backend,
    with the same run flags and report fields as ``nbody``.
``repro chaos [--plan FILE | --drop 0.01 ...] [--verify] ...``
    Run a seeded fault-injection campaign: a :class:`~repro.faults.FaultPlan`
    from a JSON file or inline flags perturbs the receive path while
    the engine's retransmit layer heals it; prints the fault/recovery
    summary and (with ``--verify``) checks physics against the
    fault-free twin.

``nbody``, ``jacobi`` and ``chaos`` share one argparse parent, so
``--backend/--fw/--bw/--adaptive/--record-trace/--seed/--sanitize``
are spelled and validated identically, and the mp-only transport
flags (``--latency/--jitter/--timeout``) error on other backends
instead of silently no-opping.  (``mc`` keeps its sweep-valued
``--p/--fw/--bw`` spellings — same names, list-typed.)
``repro lint [paths] [--format json] [--sanitize-selftest]``
    Run speclint (the protocol-aware static analyzer) over the given
    files/directories, or self-test the runtime protocol sanitizer.
``repro analyze [paths] [--format text|json|sarif] [--trace FILE]``
    Run specflow (interprocedural type-state + happens-before
    analysis, rules SPF1xx).  ``--baseline``/``--write-baseline``
    manage the accepted-findings file CI checks in; ``--trace``
    replays a recorded event log against the same protocol model and
    reports which static findings the run confirms or refutes.
``repro perf-lint [paths] [--format text|json|sarif] [--trace FILE]``
    Run specperf (static hot-path cost analysis, rules SPP2xx): phase
    attribution over the call graph plus the hot-path rule pack.
    ``--trace`` replays a recorded event log, measures the share of
    iteration time each protocol phase consumed, and marks findings
    CONFIRMED/REFUTED against the calibrated performance model's
    phase budget (Eq. 3-9).
``repro taint [paths] [--format text|json|sarif] [--trace FILE]``
    Run spectaint (speculation-escape & rollback-safety abstract
    interpretation, rules SPT3xx): forward taint over the shared CFG +
    call graph proving unconfirmed speculative values never reach an
    irreversible effect.  ``--trace`` replays a recorded event log and
    marks each finding CONFIRMED (a send demonstrably ran during an
    open speculation window), REFUTED or UNOBSERVED.
``repro bounds [paths] [--format text|json|sarif] [--trace FILE]``
    Run specbound (static speculation-resource bound analysis, rules
    SPB4xx): interprocedural buffer summaries over the shared call
    graph proving every container the protocol grows is bounded by a
    protocol parameter (BW for history, FW for run-ahead state).
    ``--trace`` checks the derived symbolic occupancy bounds against
    a recorded event log's observed per-rank maxima and reports each
    occupancy contract CONFIRMED / REFUTED / UNOBSERVED.
``repro check [paths] [--sarif FILE] [--stats]``
    Umbrella: run all five families (speclint, specflow, specperf,
    spectaint, specbound) in one process over one shared parse + call
    graph, optionally writing a single merged SARIF document;
    ``--stats`` prints per-tool wall time and parse counts.
``repro mc [--p 2,3] [--fw 0,1] [--iters 3] [--budget 60s] ...``
    Run specmc: exhaustively model-check every message-delivery and
    scheduling interleaving of bounded engine configurations against
    the shared invariant registry.  On a violation the counterexample
    schedule is shrunk (``--no-shrink`` disables) and can be exported
    as a replayable event trace (``--emit-trace``) and a ready-to-run
    pytest regression (``--emit-test``); ``--mutate`` injects a known
    engine bug to exercise that pipeline.

Exit codes (shared by ``lint``, ``analyze`` and ``mc``)
-------------------------------------------------------
* ``0`` — clean: no findings / no invariant violation.
* ``1`` — findings: at least one diagnostic, replay violation, or
  model-checking counterexample.
* ``2`` — usage error: bad paths, unreadable trace/baseline files,
  out-of-bounds model-checking configuration.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Optional, Sequence

#: Shared analysis exit codes (``repro lint`` / ``repro analyze``).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    """A run-flag combination the shared parent rejects."""


def _run_flags_parent() -> argparse.ArgumentParser:
    """The argparse parent shared by ``nbody``/``jacobi``/``chaos``.

    One definition means ``--backend/--fw/--bw/--adaptive/
    --record-trace/--seed/--sanitize`` are spelled and validated
    identically on every run-style subcommand, and the mp-only
    transport flags use a None sentinel so :func:`_mp_flags` can
    *error* on other backends instead of silently ignoring them.
    """
    parent = argparse.ArgumentParser(add_help=False)
    run = parent.add_argument_group("run flags (shared)")
    run.add_argument(
        "--backend",
        choices=("des", "loopback", "mp"),
        default="des",
        help="des = discrete-event simulator (default); loopback = "
        "deterministic in-process scheduler (no clock, costs in ops); "
        "mp = real OS processes over pipes",
    )
    run.add_argument("--fw", type=int, default=1, help="forward window")
    run.add_argument(
        "--cascade", choices=("recompute", "none"), default=None,
        help="correction cascade policy (default: the subcommand's "
        "canonical policy — nbody keeps the paper's \"none\", "
        "jacobi/chaos use \"recompute\")",
    )
    run.add_argument(
        "--bw", type=int, default=None, metavar="N",
        help="backward window: verified iterations each rank retains "
        "for checking/correction (default: engine-derived)",
    )
    run.add_argument(
        "--adaptive",
        action="store_true",
        help="seat an adaptive window policy in every rank's engine: "
        "--fw becomes the initial window and each rank retunes its "
        "own FW at runtime",
    )
    run.add_argument(
        "--epoch", type=int, default=4, metavar="N",
        help="adaptive: iterations between window decisions (default: 4)",
    )
    run.add_argument(
        "--max-fw", type=int, default=4, metavar="N",
        help="adaptive: upper bound on the forward window (default: 4)",
    )
    run.add_argument(
        "--record-trace",
        metavar="FILE",
        help="record the protocol event trace (JSONL) for later "
        "`repro analyze --trace FILE` replay",
    )
    run.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="seed for the run's stochastic parts (default: the "
        "subcommand's canonical seed)",
    )
    run.add_argument(
        "--sanitize",
        action="store_const",
        const=True,
        default=None,
        help="arm the runtime protocol sanitizer (default: defer to "
        "the REPRO_SANITIZE environment variable)",
    )
    mp_only = parent.add_argument_group(
        "mp-only transport flags (error on other backends)"
    )
    mp_only.add_argument(
        "--latency", type=float, default=None, metavar="S",
        help="mp backend: injected one-way delay in wall seconds "
        "(default: 0.05)",
    )
    mp_only.add_argument(
        "--jitter", type=float, default=None, metavar="SIGMA",
        help="mp backend: log-normal sigma multiplying the latency",
    )
    mp_only.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="mp backend: parent-side wall-clock budget (default: 300)",
    )
    return parent


def _mp_flags(
    args: argparse.Namespace, default_latency: float = 0.05
) -> tuple[float, float, float]:
    """Resolve ``--latency/--jitter/--timeout``; raise off-backend.

    Historically these flags existed only on ``nbody`` and silently
    no-opped when ``--backend des`` was selected; the shared parent
    makes that a usage error on every run-style subcommand.
    """
    supplied = [
        f"--{name}"
        for name, value in (
            ("latency", args.latency),
            ("jitter", args.jitter),
            ("timeout", args.timeout),
        )
        if value is not None
    ]
    if args.backend != "mp":
        if supplied:
            raise _UsageError(
                f"{', '.join(supplied)} require(s) --backend mp "
                f"(got --backend {args.backend})"
            )
        return 0.0, 0.0, 300.0
    return (
        args.latency if args.latency is not None else default_latency,
        args.jitter if args.jitter is not None else 0.0,
        args.timeout if args.timeout is not None else 300.0,
    )


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.harness import EXPERIMENTS

    descriptions = {
        "fig2": "two-processor timelines: blocking vs good/bad speculation",
        "fig4": "forward window under a transient delay (FW=0/1/2)",
        "fig5": "model speedup vs p (Section 4, k=2%)",
        "fig6": "model speedup vs recomputation % (8 processors)",
        "fig8": "measured N-body speedup vs p for FW=0/1/2",
        "table2": "per-iteration phase times (16 procs, 1000 particles)",
        "table3": "threshold theta vs incorrect speculations / force error",
        "fig9": "model vs measured speedups",
    }
    for name in sorted(EXPERIMENTS):
        print(f"{name:8s} {descriptions.get(name, '')}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness import get_experiment

    try:
        runner = get_experiment(args.experiment)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    result = runner()
    print(result.text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(result.text)
        print(f"(written to {args.out})")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"(JSON written to {args.json})")
    return 0


def _window_policy(args: argparse.Namespace, degraded: bool = False):
    """The window-policy template for ``--adaptive`` (None when the
    run keeps its fixed forward window).  ``degraded=True`` (the chaos
    subcommand) wraps the AIMD controller in
    :class:`~repro.policy.DegradedWindow` so persistent loss collapses
    FW toward 0 and recovery re-widens it."""
    if not args.adaptive:
        return None
    from repro.policy import AimdWindow, DegradedWindow

    inner = AimdWindow(epoch=args.epoch, min_fw=0, max_fw=args.max_fw)
    return DegradedWindow(inner) if degraded else inner


def _nbody_overrides(args: argparse.Namespace) -> Optional[dict]:
    """HEADLINE-config overrides from the shared run flags (None when
    the run keeps the paper's canonical operating point)."""
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.cascade is not None:
        overrides["cascade"] = args.cascade
    return overrides or None


#: Per backend: the unit of ``RunReport.wall_seconds``, the unit of
#: its ``timings`` and the decimals both print with.
_UNITS = {
    "des": ("virtual s", "virtual s", 3),
    "loopback": ("scheduler rounds", "ops", 0),
    "mp": ("wall s", "wall s", 3),
}


def _field(label: str, text: str) -> None:
    print(f"  {label:<32s}: {text}")


def _save_trace(args: argparse.Namespace, report) -> None:
    if args.record_trace:
        report.event_log.save(args.record_trace)
        print(f"(trace: {len(report.event_log)} events written to "
              f"{args.record_trace})")


def _print_report(report, policy, particles: Optional[float] = None) -> None:
    """The report fields every run-style subcommand prints, with the
    same labels on every backend (only the units differ)."""
    from repro.trace.phases import PHASES

    clock, cost, digits = _UNITS[report.backend]
    _field("makespan", f"{report.wall_seconds:.{digits}f} {clock}")
    for phase in PHASES:
        _field(f"{phase} (max over ranks)",
               f"{report.timings.get(phase, 0.0):.{digits}f} {cost}")
    _field("rejected speculation (blocks)",
           f"{100 * report.rejection_rate:.2f}%")
    if particles is not None:
        _field("rejected speculation (particles)", f"{100 * particles:.2f}%")
    if policy is not None:
        history = report.window_history
        changes = sum(len(h) - 1 for h in history.values())
        finals = [history[rank][-1][1] for rank in sorted(history)]
        _field("final windows", f"{finals} ({changes} change(s))")


def _mode(args: argparse.Namespace, policy) -> str:
    if policy is None:
        return ""
    return f" adaptive(epoch={args.epoch}, max_fw={args.max_fw})"


def _cmd_nbody(args: argparse.Namespace) -> int:
    """``repro nbody``: one headline N-body run on any backend."""
    from repro.api import run as api_run
    from repro.harness.experiments import nbody_run_config

    try:
        latency, jitter, timeout = _mp_flags(args)
        policy = _window_policy(args)
        config = nbody_run_config(
            args.p, args.backend, iterations=args.iterations,
            n_particles=args.particles, threshold=args.theta,
            config=_nbody_overrides(args),
            fw=args.fw, bw=args.bw, window_policy=policy,
            record_trace=bool(args.record_trace), sanitize=args.sanitize,
            latency=latency, jitter=jitter, timeout=timeout,
        )
    except (_UsageError, ValueError) as exc:
        print(f"repro nbody: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = api_run(config)
    _save_trace(args, report)
    latency_note = f" latency={latency}s" if args.backend == "mp" else ""
    print(
        f"p={args.p} FW={args.fw} N={args.particles} T={args.iterations} "
        f"theta={args.theta} backend={args.backend}{latency_note}"
        f"{_mode(args, policy)}"
    )
    # Particle-level counters live on the program object, so only the
    # in-process backends can report them; mp keeps them in the workers.
    particles = (
        None if args.backend == "mp"
        else config.program.spec_stats.incorrect_fraction
    )
    _print_report(report, policy, particles)
    return 0


def _build_jacobi(args: argparse.Namespace):
    """The Jacobi program the ``jacobi``/``chaos`` subcommands run."""
    from repro.apps.jacobi import JacobiSolver, diagonally_dominant_system

    seed = args.seed if args.seed is not None else 3
    a, b = diagonally_dominant_system(args.n, seed=seed)
    program = JacobiSolver(
        a, b, capacities=[1000.0] * args.p,
        iterations=args.iterations, threshold=args.theta,
    )
    return program, seed


def _run_config(args: argparse.Namespace, program, policy, plan,
                latency: float, jitter: float, timeout: float, seed: int):
    """One :class:`~repro.api.RunConfig` from the shared run flags."""
    from repro.api import RunConfig

    return RunConfig(
        program,
        backend=args.backend,
        fw=args.fw,
        bw=args.bw,
        cascade=args.cascade if args.cascade is not None else "recompute",
        window_policy=policy,
        fault_plan=plan,
        record_trace=bool(args.record_trace),
        sanitize=args.sanitize,
        seed=seed,
        latency=latency,
        jitter=jitter,
        timeout=timeout,
    )


def _cmd_jacobi(args: argparse.Namespace) -> int:
    """``repro jacobi``: one solve through the unified run API."""
    import numpy as np

    from repro.api import run as api_run

    try:
        latency, jitter, timeout = _mp_flags(args)
        policy = _window_policy(args)
    except (_UsageError, ValueError) as exc:
        print(f"repro jacobi: {exc}", file=sys.stderr)
        return EXIT_USAGE
    program, seed = _build_jacobi(args)
    report = api_run(_run_config(
        args, program, policy, None, latency, jitter, timeout, seed,
    ))
    _save_trace(args, report)
    x = np.empty(program.partition.n)
    for rank, idx in enumerate(program.partition):
        x[idx] = report.results[rank]
    residual = float(np.max(np.abs(program.a @ x - program.b)))
    print(
        f"p={args.p} FW={args.fw} n={args.n} T={args.iterations} "
        f"theta={args.theta} backend={args.backend}{_mode(args, policy)}"
    )
    _print_report(report, policy)
    _field("residual (max |Ax-b|)", f"{residual:.3e}")
    return 0


def _parse_rank_spec(spec: str, flag: str, cast) -> tuple[int, Any]:
    """Parse a ``RANK:VALUE`` CLI operand like ``1:2.0`` or ``2:5``."""
    try:
        rank_text, value_text = spec.split(":", 1)
        return int(rank_text), cast(value_text)
    except ValueError:
        raise _UsageError(
            f"{flag}: expected RANK:VALUE (e.g. 1:2.0), got {spec!r}"
        )


def _chaos_plan(args: argparse.Namespace):
    """The :class:`~repro.faults.FaultPlan` for ``repro chaos``."""
    from repro.faults import EdgeFault, FaultPlan, RankFault

    inline = (
        args.drop or args.duplicate or args.delay or args.reorder
        or args.straggler or args.crash
    )
    if args.plan and inline:
        raise _UsageError("--plan and inline fault flags are mutually exclusive")
    if args.plan:
        try:
            return FaultPlan.load(args.plan)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise _UsageError(f"cannot read fault plan {args.plan}: {exc}")
    edges = []
    for kind, rate in (("drop", args.drop), ("duplicate", args.duplicate),
                       ("delay", args.delay), ("reorder", args.reorder)):
        if rate:
            edges.append(EdgeFault(kind=kind, rate=rate, delay=args.delay_by))
    ranks = []
    for spec in args.straggler or ():
        rank, factor = _parse_rank_spec(spec, "--straggler", float)
        ranks.append(RankFault(rank=rank, slowdown=factor))
    for spec in args.crash or ():
        rank, at = _parse_rank_spec(spec, "--crash", int)
        ranks.append(RankFault(rank=rank, crash_at=at))
    try:
        return FaultPlan(
            seed=args.fault_seed,
            edges=tuple(edges),
            ranks=tuple(ranks),
            max_retries=args.max_retries,
            retransmit=not args.no_retransmit,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))


def _cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: a seeded fault-injection campaign."""
    import dataclasses

    import numpy as np

    from repro.api import run as api_run

    try:
        latency, jitter, timeout = _mp_flags(args)
        policy = _window_policy(args, degraded=True)
        plan = _chaos_plan(args)
    except (_UsageError, ValueError) as exc:
        print(f"repro chaos: {exc}", file=sys.stderr)
        return EXIT_USAGE
    program, seed = _build_jacobi(args)
    config = _run_config(
        args, program, policy, plan, latency, jitter, timeout, seed,
    )
    from repro.analysis.sanitizer import ProtocolViolation
    from repro.engine.core import RetransmitExhausted
    from repro.faults import InjectedCrash

    planned_crash = any(f.crash_at is not None for f in plan.ranks)
    try:
        report = api_run(config)
    except InjectedCrash as exc:
        # des/loopback: the crash fault unwinds the rank directly.
        print(f"chaos: planned crash terminated the run ({exc})")
        return EXIT_FINDINGS
    except ProtocolViolation as exc:
        print(f"chaos: sanitizer violation — {exc}")
        return EXIT_FINDINGS
    except RetransmitExhausted as exc:
        # The engine escalated past its retry budget: a loss was never
        # recovered (expected under --no-retransmit).
        print(f"chaos: unrecovered loss — {exc}")
        return EXIT_FINDINGS
    except RuntimeError as exc:
        # mp: a dying worker's report surfaces as a RuntimeError.
        first_line = str(exc).splitlines()[0] if str(exc) else str(exc)
        if planned_crash and "InjectedCrash" in str(exc):
            print("chaos: planned crash terminated the run "
                  f"(rank report: {first_line})")
            return EXIT_FINDINGS
        if "RetransmitExhausted" in str(exc):
            print(f"chaos: unrecovered loss — {first_line}")
            return EXIT_FINDINGS
        if "ProtocolViolation" in str(exc):
            print(f"chaos: sanitizer violation — {first_line}")
            return EXIT_FINDINGS
        raise
    _save_trace(args, report)

    summary = report.fault_summary or {"injected": {}, "total_injected": 0,
                                       "retransmits_serviced": 0,
                                       "auto_retransmits": 0,
                                       "outstanding_losses": 0}
    injected = " ".join(
        f"{kind}={count}" for kind, count in sorted(summary["injected"].items())
    ) or "none"
    requested = sum(s.retransmits for s in report.stats)
    suppressed = sum(s.dups_suppressed for s in report.stats)
    mode = (f" adaptive+degraded(epoch={args.epoch}, max_fw={args.max_fw})"
            if policy else "")
    print(
        f"chaos: backend={args.backend} p={args.p} FW={args.fw} "
        f"T={args.iterations} plan-seed={plan.seed}{mode}"
    )
    print(f"  injected            : {injected} "
          f"(total {summary['total_injected']})")
    print(f"  retransmits         : {summary['retransmits_serviced']} "
          f"serviced + {summary['auto_retransmits']} sender-timeout, "
          f"{summary['outstanding_losses']} outstanding")
    print(f"  engine              : {requested} retransmit request(s), "
          f"{suppressed} duplicate(s) suppressed")
    clock, _, digits = _UNITS[args.backend]
    print(f"  makespan            : {report.wall_seconds:.{digits}f} {clock}")
    if policy is not None:
        changes = sum(len(h) - 1 for h in report.window_history.values())
        print(f"  window changes      : {changes}")

    identical = None
    if args.verify:
        clean = api_run(dataclasses.replace(
            config, fault_plan=None, record_trace=False,
        ))
        identical = all(
            np.array_equal(clean.results[r], report.results[r])
            for r in report.results
        )
        print(f"  physics vs fault-free: "
              f"{'bit-identical' if identical else 'DIVERGED'}")

    healed = summary["outstanding_losses"] == 0
    if not healed:
        print("chaos: unrecovered losses remain", file=sys.stderr)
    if identical is False:
        print("chaos: physics diverged from the fault-free run",
              file=sys.stderr)
    return EXIT_CLEAN if healed and identical is not False else EXIT_FINDINGS


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint_paths, render
    from repro.analysis.sanitizer import run_selftest

    if args.sanitize_selftest:
        return run_selftest()
    paths = args.paths or ["src"]
    try:
        diagnostics = lint_paths(paths, select=args.select)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    print(render(diagnostics, args.format))
    return EXIT_FINDINGS if diagnostics else EXIT_CLEAN


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_paths, render, render_sarif

    paths = args.paths or ["src"]
    try:
        diagnostics = analyze_paths(paths, select=args.select)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    diagnostics = _baseline_gate("specflow", args, diagnostics)
    if isinstance(diagnostics, int):
        return diagnostics
    if args.format == "sarif":
        print(render_sarif(diagnostics), end="")
    else:
        print(render(diagnostics, args.format, tool="specflow"))
    replay_findings = 0
    if args.trace:
        from repro.analysis import cross_reference
        from repro.trace import EventLog

        try:
            log = EventLog.load(args.trace)
        except (OSError, ValueError, TypeError) as exc:
            print(f"specflow: cannot read trace: {exc}", file=sys.stderr)
            return EXIT_USAGE
        report, verdicts = cross_reference(
            diagnostics, log, backward_window=args.bw
        )
        replay_findings = len(report.findings)
        out = sys.stdout if args.format == "text" else sys.stderr
        stats = ", ".join(f"{k}={v}" for k, v in sorted(report.stats.items()))
        print(f"trace replay: {stats}", file=out)
        for finding in report.findings:
            print(finding.format_text(), file=out)
        for verdict in verdicts:
            print(verdict.format_text(), file=out)
        if not verdicts:
            print(
                "trace replay: no static SPF findings to cross-reference",
                file=out,
            )
    if diagnostics or replay_findings:
        return EXIT_FINDINGS
    return EXIT_CLEAN


def _cmd_perf_lint(args: argparse.Namespace) -> int:
    from repro.analysis import render_sarif
    from repro.analysis.diagnostics import SPP_RULES
    from repro.analysis.perf import analyze_paths, check_contracts
    from repro.analysis.perf.contracts import CONFIRMED, format_share_table
    from repro.analysis.reporting import (
        render_diag_json,
        render_diag_text,
        rule_catalogue_entries,
    )

    paths = args.paths or ["src"]
    try:
        diagnostics = analyze_paths(paths, select=args.select)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    diagnostics = _baseline_gate("specperf", args, diagnostics)
    if isinstance(diagnostics, int):
        return diagnostics
    if args.format == "sarif":
        print(
            render_sarif(
                diagnostics,
                tool_name="specperf",
                rules=rule_catalogue_entries(SPP_RULES),
            ),
            end="",
        )
    elif args.format == "json":
        catalogue = {code: info.summary for code, info in SPP_RULES.items()}
        print(render_diag_json(diagnostics, "specperf", catalogue))
    else:
        print(render_diag_text(diagnostics, "specperf"))
    confirmed = 0
    if args.trace:
        from repro.trace import EventLog

        try:
            log = EventLog.load(args.trace)
        except (OSError, ValueError, TypeError) as exc:
            print(f"specperf: cannot read trace: {exc}", file=sys.stderr)
            return EXIT_USAGE
        measured, modeled, verdicts = check_contracts(
            diagnostics, log, p=args.model_p, tol=args.tol
        )
        out = sys.stdout if args.format == "text" else sys.stderr
        print(format_share_table(measured, modeled), file=out)
        for verdict in verdicts:
            print(verdict.format_text(), file=out)
        if not verdicts:
            print(
                "cost contracts: no specperf findings to cross-reference",
                file=out,
            )
        confirmed = sum(1 for v in verdicts if v.status == CONFIRMED)
    if diagnostics or confirmed:
        return EXIT_FINDINGS
    return EXIT_CLEAN


def _baseline_gate(tool: str, args: argparse.Namespace, diagnostics: list):
    """``--write-baseline`` / ``--baseline`` for one analysis family.

    Both go through the consolidated baseline file, under ``tool``'s
    key.  Returns an exit code when the flags end the command (the
    baseline was written, or could not be read or written), otherwise
    the diagnostics the baseline does not accept.
    """
    from repro.analysis import apply_baseline, fingerprint
    from repro.analysis.baselines import load_baselines, set_baseline

    try:
        if args.write_baseline:
            prints = frozenset(fingerprint(d) for d in diagnostics)
            set_baseline(tool, prints, args.write_baseline)
            print(
                f"{tool}: baseline with {len(prints)} fingerprint(s) written "
                f"to {args.write_baseline} (tool key: {tool})"
            )
            return EXIT_CLEAN
        if args.baseline:
            accepted = load_baselines(args.baseline).get(tool, frozenset())
            return apply_baseline(diagnostics, accepted)
    except (OSError, ValueError) as exc:
        action = "write" if args.write_baseline else "read"
        print(f"{tool}: cannot {action} baseline: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return diagnostics


def _cmd_taint(args: argparse.Namespace) -> int:
    from repro.analysis import render_sarif
    from repro.analysis.diagnostics import SPT_RULES
    from repro.analysis.reporting import (
        render_diag_json,
        render_diag_text,
        rule_catalogue_entries,
    )
    from repro.analysis.taint import analyze_paths, check_taint

    paths = args.paths or ["src"]
    try:
        diagnostics = analyze_paths(paths, select=args.select)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    diagnostics = _baseline_gate("spectaint", args, diagnostics)
    if isinstance(diagnostics, int):
        return diagnostics
    if args.format == "sarif":
        print(
            render_sarif(
                diagnostics,
                tool_name="spectaint",
                rules=rule_catalogue_entries(SPT_RULES),
            ),
            end="",
        )
    elif args.format == "json":
        catalogue = {code: info.summary for code, info in SPT_RULES.items()}
        print(render_diag_json(diagnostics, "spectaint", catalogue))
    else:
        print(render_diag_text(diagnostics, "spectaint"))
    confirmed = 0
    if args.trace:
        from repro.analysis.taint import CONFIRMED, find_escapes
        from repro.trace import EventLog

        try:
            log = EventLog.load(args.trace)
        except (OSError, ValueError, TypeError) as exc:
            print(f"spectaint: cannot read trace: {exc}", file=sys.stderr)
            return EXIT_USAGE
        witnesses = find_escapes(log)
        verdicts = check_taint(diagnostics, log)
        out = sys.stdout if args.format == "text" else sys.stderr
        print(
            f"trace replay: {len(log)} event(s), "
            f"{len(witnesses)} escape witness(es)",
            file=out,
        )
        for verdict in verdicts:
            print(verdict.format_text(), file=out)
        if not verdicts:
            print(
                "trace replay: no static SPT findings to cross-reference",
                file=out,
            )
        confirmed = sum(1 for v in verdicts if v.status == CONFIRMED)
    if diagnostics or confirmed:
        return EXIT_FINDINGS
    return EXIT_CLEAN


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.analysis import render_sarif
    from repro.analysis.bounds import REFUTED, check_occupancy
    from repro.analysis.bounds import analyze_paths as analyze_bounds
    from repro.analysis.diagnostics import SPB_RULES
    from repro.analysis.reporting import (
        render_diag_json,
        render_diag_text,
        rule_catalogue_entries,
    )

    paths = args.paths or ["src"]
    try:
        diagnostics = analyze_bounds(paths, select=args.select)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    diagnostics = _baseline_gate("specbound", args, diagnostics)
    if isinstance(diagnostics, int):
        return diagnostics
    if args.format == "sarif":
        print(
            render_sarif(
                diagnostics,
                tool_name="specbound",
                rules=rule_catalogue_entries(SPB_RULES),
            ),
            end="",
        )
    elif args.format == "json":
        catalogue = {code: info.summary for code, info in SPB_RULES.items()}
        print(render_diag_json(diagnostics, "specbound", catalogue))
    else:
        print(render_diag_text(diagnostics, "specbound"))
    refuted = 0
    if args.trace:
        from repro.trace import EventLog

        try:
            log = EventLog.load(args.trace)
        except (OSError, ValueError, TypeError) as exc:
            print(f"specbound: cannot read trace: {exc}", file=sys.stderr)
            return EXIT_USAGE
        verdicts = check_occupancy(
            log, p=args.model_p, fw=args.model_fw, bw=args.model_bw
        )
        out = sys.stdout if args.format == "text" else sys.stderr
        print(
            f"occupancy contracts: {len(log)} event(s), "
            f"{len(verdicts)} contract(s) checked at "
            f"(fw={args.model_fw}, bw={args.model_bw})",
            file=out,
        )
        for verdict in verdicts:
            print(verdict.format_text(), file=out)
        refuted = sum(1 for v in verdicts if v.status == REFUTED)
    if diagnostics or refuted:
        return EXIT_FINDINGS
    return EXIT_CLEAN


def _cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: all five analysis families over one parse."""
    from repro.analysis import apply_baseline
    from repro.analysis.baselines import DEFAULT_BASELINES, baseline_for
    from repro.analysis.bounds import specbound
    from repro.analysis.diagnostics import (
        RULES,
        SPB_RULES,
        SPF_RULES,
        SPP_RULES,
        SPT_RULES,
    )
    from repro.analysis.linter import drop_suppressed, lint_module
    from repro.analysis.perf import specperf
    from repro.analysis.program import ProgramIndex
    from repro.analysis.reporting import (
        SARIF_SCHEMA,
        SARIF_VERSION,
        render_diag_text,
        rule_catalogue_entries,
        sarif_document,
        stable_json,
    )
    from repro.analysis.sarif import _result
    from repro.analysis import specflow
    from repro.analysis.taint import spectaint

    paths = args.paths or ["src"]
    import time as _time

    parse_start = _time.perf_counter()
    try:
        index = ProgramIndex(paths)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    index.callgraph  # build once, outside any single tool's timing
    parse_seconds = _time.perf_counter() - parse_start

    sources = index.sources
    tool_seconds: dict[str, float] = {}

    def _timed(tool, thunk):
        t0 = _time.perf_counter()
        diags = thunk()
        tool_seconds[tool] = _time.perf_counter() - t0
        return diags

    per_tool = {
        "speclint": sorted(
            _timed(
                "speclint",
                lambda: drop_suppressed(
                    [
                        d
                        for m in index.modules
                        for d in lint_module(m.tree, m.path, m.source)
                    ],
                    sources,
                ),
            )
            + index.syntax_diags("SPL000")
        ),
        "specflow": sorted(
            _timed(
                "specflow",
                lambda: specflow.analyze_modules(
                    index.modules, callgraph=index.callgraph
                ),
            )
            + index.syntax_diags("SPF000")
        ),
        "specperf": sorted(
            _timed(
                "specperf",
                lambda: specperf.analyze_modules(
                    index.modules, callgraph=index.callgraph
                ),
            )
            + index.syntax_diags("SPP000")
        ),
        "spectaint": sorted(
            _timed(
                "spectaint",
                lambda: spectaint.analyze_modules(
                    index.modules, callgraph=index.callgraph
                ),
            )
            + index.syntax_diags("SPT000")
        ),
        "specbound": sorted(
            _timed(
                "specbound",
                lambda: specbound.analyze_modules(
                    index.modules, callgraph=index.callgraph
                ),
            )
            + index.syntax_diags("SPB000")
        ),
    }

    baselines_path = args.baselines or (
        str(DEFAULT_BASELINES) if DEFAULT_BASELINES.exists() else None
    )
    if baselines_path is not None:
        try:
            for tool in per_tool:
                per_tool[tool] = apply_baseline(
                    per_tool[tool], baseline_for(tool, baselines_path)
                )
        except (OSError, ValueError) as exc:
            print(f"repro check: cannot read baselines: {exc}", file=sys.stderr)
            return EXIT_USAGE

    catalogues = {
        "speclint": rule_catalogue_entries(RULES),
        "specflow": rule_catalogue_entries(SPF_RULES),
        "specperf": rule_catalogue_entries(SPP_RULES),
        "spectaint": rule_catalogue_entries(SPT_RULES),
        "specbound": rule_catalogue_entries(SPB_RULES),
    }
    if args.sarif:
        merged: dict[str, object] = {
            "$schema": SARIF_SCHEMA,
            "version": SARIF_VERSION,
            "runs": [
                sarif_document(
                    tool,
                    catalogues[tool],
                    [_result(d) for d in per_tool[tool]],
                )["runs"][0]
                for tool in sorted(per_tool)
            ],
        }
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(stable_json(merged))
        print(f"repro check: merged SARIF written to {args.sarif}")

    total = 0
    if args.format == "json":
        payload = {
            "tools": {
                tool: [d.to_dict() for d in diags]
                for tool, diags in sorted(per_tool.items())
            },
            "summary": {
                tool: len(diags) for tool, diags in sorted(per_tool.items())
            },
        }
        if args.stats:
            payload["stats"] = {
                "files_parsed": len(index.modules),
                "syntax_failures": len(index.syntax_errors),
                "parse_seconds": round(parse_seconds, 6),
                "tool_seconds": {
                    tool: round(secs, 6)
                    for tool, secs in sorted(tool_seconds.items())
                },
            }
        print(stable_json(payload), end="")
        total = sum(len(d) for d in per_tool.values())
    else:
        for tool in sorted(per_tool):
            print(render_diag_text(per_tool[tool], tool))
            total += len(per_tool[tool])
        print(
            f"repro check: {total} finding(s) across "
            f"{len(per_tool)} tool(s), {len(index.modules)} file(s) parsed once"
        )
        if args.stats:
            print(
                f"repro check stats: parse+callgraph {parse_seconds:.3f}s over "
                f"{len(index.modules)} file(s), "
                f"{len(index.syntax_errors)} syntax failure(s)"
            )
            for tool, secs in sorted(tool_seconds.items()):
                print(f"  {tool:9s} {secs:7.3f}s  {len(per_tool[tool])} finding(s)")
    return EXIT_FINDINGS if total else EXIT_CLEAN


def _parse_int_list(spec: str, name: str) -> list:
    """Parse a comma-separated sweep list like ``2,3`` into ints."""
    try:
        values = [int(part) for part in spec.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"--{name}: expected comma-separated integers, got {spec!r}")
    if not values:
        raise ValueError(f"--{name}: empty sweep list")
    return values


def _cmd_mc(args: argparse.Namespace) -> int:
    from repro.analysis.modelcheck import (
        MUTATIONS,
        Budget,
        McConfig,
        emit_test,
        emit_trace,
        explore,
        render_json,
        render_sarif_mc,
        render_text,
        report_dict,
        shrink_schedule,
    )

    if args.mutate is not None and args.mutate not in MUTATIONS:
        known = ", ".join(sorted(MUTATIONS))
        print(
            f"specmc: unknown mutation {args.mutate!r} (known: {known})",
            file=sys.stderr,
        )
        return EXIT_USAGE

    try:
        p_values = _parse_int_list(args.p, "p")
        fw_values = _parse_int_list(args.fw, "fw")
        bw_values = _parse_int_list(args.bw, "bw")
        iters_values = _parse_int_list(args.iters, "iters")
        budget = Budget.parse(args.budget) if args.budget else None
    except ValueError as exc:
        print(f"specmc: {exc}", file=sys.stderr)
        return EXIT_USAGE

    configs = []
    try:
        for p in p_values:
            for fw in fw_values:
                for bw in bw_values:
                    for iters in iters_values:
                        configs.append(
                            McConfig(
                                p=p,
                                fw=fw,
                                bw=bw,
                                iters=iters,
                                cascade=args.cascade,
                                scenario=args.scenario,
                                window=args.window,
                            )
                        )
    except ValueError as exc:
        print(f"specmc: {exc}", file=sys.stderr)
        return EXIT_USAGE

    results = []
    for config in configs:
        result = explore(config, mutation=args.mutate, budget=budget)
        if result.violation is not None and not args.no_shrink:
            result.shrunk_schedule = shrink_schedule(
                config,
                result.violation.schedule,
                result.violation.invariant,
                mutation=args.mutate,
            )
        results.append(result)
        if result.violation is not None:
            # First counterexample wins; later configs would only repeat it.
            break

    violating = next((r for r in results if r.violation is not None), None)
    if violating is not None:
        schedule = violating.counterexample_schedule() or ()
        if args.emit_trace:
            outcome = emit_trace(
                violating.config, schedule, args.emit_trace, mutation=args.mutate
            )
            reproduced = (
                outcome.violation is not None
                and outcome.violation.invariant == violating.violation.invariant
            )
            status = "reproduces" if reproduced else "DOES NOT reproduce"
            print(
                f"specmc: replayable trace written to {args.emit_trace} "
                f"({status} the violation)",
                file=sys.stderr,
            )
        if args.emit_test:
            emit_test(
                violating.config,
                schedule,
                violating.violation.invariant,
                args.emit_test,
                mutation=args.mutate,
                details=violating.violation.details,
            )
            print(
                f"specmc: regression test written to {args.emit_test}",
                file=sys.stderr,
            )

    if args.report:
        import json as _json

        with open(args.report, "w", encoding="utf-8") as fh:
            _json.dump(report_dict(results), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.format == "json":
        print(render_json(results), end="")
    elif args.format == "sarif":
        print(render_sarif_mc(results), end="")
    else:
        print(render_text(results))
    return EXIT_FINDINGS if violating is not None else EXIT_CLEAN


def _add_baseline_flags(parser: argparse.ArgumentParser) -> None:
    """``--baseline`` / ``--write-baseline``, shared by every analysis
    family (see :func:`_baseline_gate`)."""
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings whose fingerprints this consolidated "
        "baseline file accepts",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record the current findings under this tool's key of the "
        "consolidated baseline file and exit 0",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Govindan & Franklin, WUCS-94-3 (1994): "
        "speculative computation for masking communication delays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list reproducible artifacts")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="regenerate a paper table/figure")
    p_run.add_argument("experiment", help="artifact id, e.g. fig8 or table2")
    p_run.add_argument("--out", help="also write the table to this file")
    p_run.add_argument("--json", help="also write the structured rows as JSON")
    p_run.set_defaults(func=_cmd_run)

    run_flags = _run_flags_parent()

    p_nb = sub.add_parser(
        "nbody", parents=[run_flags], help="run one N-body configuration"
    )
    p_nb.add_argument("-p", "--p", type=int, default=8, help="processors (1-16)")
    p_nb.add_argument("--particles", type=int, default=1000)
    p_nb.add_argument("--iterations", type=int, default=10)
    p_nb.add_argument("--theta", type=float, default=0.01)
    p_nb.set_defaults(func=_cmd_nbody)

    p_jc = sub.add_parser(
        "jacobi", parents=[run_flags],
        help="run one Jacobi solve through the unified run API "
        "(any backend)",
    )
    p_jc.add_argument("-p", "--p", type=int, default=4, help="processors")
    p_jc.add_argument(
        "-n", "--n", type=int, default=64, help="system size (rows of A)"
    )
    p_jc.add_argument("--iterations", type=int, default=12)
    p_jc.add_argument(
        "--theta", type=float, default=1e-6,
        help="speculation acceptance threshold",
    )
    p_jc.set_defaults(func=_cmd_jacobi)

    p_ch = sub.add_parser(
        "chaos", parents=[run_flags],
        help="run a seeded fault-injection campaign (FaultPlan file or "
        "inline flags) and print the fault/recovery summary",
    )
    p_ch.add_argument("-p", "--p", type=int, default=4, help="processors")
    p_ch.add_argument(
        "-n", "--n", type=int, default=64, help="system size (rows of A)"
    )
    p_ch.add_argument("--iterations", type=int, default=12)
    p_ch.add_argument(
        "--theta", type=float, default=0.0,
        help="speculation acceptance threshold (default 0: every "
        "speculation is checked against the exact value)",
    )
    p_ch.add_argument(
        "--plan", metavar="FILE",
        help="JSON FaultPlan (see FaultPlan.save); mutually exclusive "
        "with the inline fault flags",
    )
    fault = p_ch.add_argument_group("inline fault flags")
    fault.add_argument(
        "--drop", type=float, default=0.0, metavar="RATE",
        help="per-message drop probability on every edge",
    )
    fault.add_argument(
        "--duplicate", type=float, default=0.0, metavar="RATE",
        help="per-message duplication probability on every edge",
    )
    fault.add_argument(
        "--delay", type=float, default=0.0, metavar="RATE",
        help="per-message delay probability on every edge",
    )
    fault.add_argument(
        "--delay-by", type=float, default=2.0, metavar="UNITS",
        help="how long a delayed message is held, in transport clock "
        "units (default: 2)",
    )
    fault.add_argument(
        "--reorder", type=float, default=0.0, metavar="RATE",
        help="per-message reorder probability on every edge",
    )
    fault.add_argument(
        "--straggler", action="append", metavar="RANK:FACTOR",
        help="slow one rank's receive path by FACTOR (repeatable)",
    )
    fault.add_argument(
        "--crash", action="append", metavar="RANK:ITER",
        help="crash one rank when iteration ITER completes (repeatable)",
    )
    fault.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed for the plan's pure-hash fault decisions (default: 0)",
    )
    fault.add_argument(
        "--max-retries", type=int, default=4, metavar="N",
        help="engine retransmit budget per lost message (default: 4)",
    )
    fault.add_argument(
        "--no-retransmit", action="store_true",
        help="model a transport with no recovery: drops are never "
        "retransmitted (the retransmit-bounded invariant must flag it)",
    )
    p_ch.add_argument(
        "--verify", action="store_true",
        help="also run the fault-free twin and check the physics is "
        "bit-identical",
    )
    p_ch.set_defaults(func=_cmd_chaos)

    p_lint = sub.add_parser(
        "lint", help="run speclint (protocol-aware static analysis)"
    )
    p_lint.add_argument(
        "paths", nargs="*", help="files/directories to lint (default: src)"
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    p_lint.add_argument(
        "--select",
        action="append",
        metavar="CODE",
        help="only run the given rule (repeatable), e.g. --select SPL001",
    )
    p_lint.add_argument(
        "--sanitize-selftest",
        action="store_true",
        help="instead of linting, self-test the runtime protocol sanitizer",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_an = sub.add_parser(
        "analyze",
        help="run specflow (interprocedural type-state + happens-before "
        "analysis)",
    )
    p_an.add_argument(
        "paths", nargs="*", help="files/directories to analyse (default: src)"
    )
    p_an.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format",
    )
    p_an.add_argument(
        "--select",
        action="append",
        metavar="CODE",
        help="only run the given rule (repeatable), e.g. --select SPF101",
    )
    _add_baseline_flags(p_an)
    p_an.add_argument(
        "--trace",
        metavar="FILE",
        help="replay a recorded event log (JSONL) against the protocol "
        "model and cross-reference the static findings",
    )
    p_an.add_argument(
        "--bw",
        type=int,
        default=4,
        metavar="N",
        help="backward window used by the trace replay's staleness check",
    )
    p_an.set_defaults(func=_cmd_analyze)

    p_pl = sub.add_parser(
        "perf-lint",
        help="run specperf (static hot-path cost analysis with "
        "trace-validated phase-cost contracts)",
    )
    p_pl.add_argument(
        "paths", nargs="*", help="files/directories to analyse (default: src)"
    )
    p_pl.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format",
    )
    p_pl.add_argument(
        "--select",
        action="append",
        metavar="CODE",
        help="only run the given rule (repeatable), e.g. --select SPP203",
    )
    _add_baseline_flags(p_pl)
    p_pl.add_argument(
        "--trace",
        metavar="FILE",
        help="replay a recorded event log (JSONL), measure per-phase "
        "time shares, and judge findings against the model's phase "
        "budget",
    )
    p_pl.add_argument(
        "--model-p",
        type=int,
        default=None,
        metavar="P",
        help="processor count for the model budget (default: ranks in "
        "the trace)",
    )
    p_pl.add_argument(
        "--tol",
        type=float,
        default=0.05,
        metavar="X",
        help="share drift tolerated before a finding is CONFIRMED "
        "(default: 0.05)",
    )
    p_pl.set_defaults(func=_cmd_perf_lint)

    p_tn = sub.add_parser(
        "taint",
        help="run spectaint (speculation-escape & rollback-safety "
        "abstract interpretation, rules SPT3xx)",
    )
    p_tn.add_argument(
        "paths", nargs="*", help="files/directories to analyse (default: src)"
    )
    p_tn.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format",
    )
    p_tn.add_argument(
        "--select",
        action="append",
        metavar="CODE",
        help="only run the given rule (repeatable), e.g. --select SPT301",
    )
    _add_baseline_flags(p_tn)
    p_tn.add_argument(
        "--trace",
        metavar="FILE",
        help="replay a recorded event log (JSONL): mark each finding "
        "CONFIRMED (a send ran during an open speculation window), "
        "REFUTED or UNOBSERVED",
    )
    p_tn.set_defaults(func=_cmd_taint)

    p_bd = sub.add_parser(
        "bounds",
        help="run specbound (static speculation-resource bound analysis "
        "with trace-validated occupancy contracts, rules SPB4xx)",
    )
    p_bd.add_argument(
        "paths", nargs="*", help="files/directories to analyse (default: src)"
    )
    p_bd.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format",
    )
    p_bd.add_argument(
        "--select",
        action="append",
        metavar="CODE",
        help="only run the given rule (repeatable), e.g. --select SPB401",
    )
    _add_baseline_flags(p_bd)
    p_bd.add_argument(
        "--trace",
        metavar="FILE",
        help="check the symbolic occupancy bounds against a recorded "
        "event log's observed per-rank maxima (history-ring span, inbox "
        "depth, in-flight sends, cascade depth, event count); each "
        "contract is CONFIRMED, REFUTED or UNOBSERVED",
    )
    p_bd.add_argument(
        "--model-p",
        type=int,
        default=None,
        metavar="P",
        help="processor count for the bound evaluation (default: ranks "
        "in the trace)",
    )
    p_bd.add_argument(
        "--model-fw",
        type=int,
        default=1,
        metavar="N",
        help="forward window the trace was recorded with (default: 1)",
    )
    p_bd.add_argument(
        "--model-bw",
        type=int,
        default=2,
        metavar="N",
        help="backward window the trace was recorded with (default: 2, "
        "the N-body speculator's)",
    )
    p_bd.set_defaults(func=_cmd_bounds)

    p_ck = sub.add_parser(
        "check",
        help="run every analysis family (speclint+specflow+specperf+"
        "spectaint+specbound) over one shared parse",
    )
    p_ck.add_argument(
        "paths", nargs="*", help="files/directories to analyse (default: src)"
    )
    p_ck.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    p_ck.add_argument(
        "--sarif",
        metavar="FILE",
        help="write one merged SARIF document (one run per tool) to FILE",
    )
    p_ck.add_argument(
        "--baselines",
        metavar="FILE",
        help="consolidated baseline file (default: .speclint/baselines.json "
        "when present)",
    )
    p_ck.add_argument(
        "--stats",
        action="store_true",
        help="also report per-tool wall time and the shared parse's "
        "file/failure counts",
    )
    p_ck.set_defaults(func=_cmd_check)

    p_mc = sub.add_parser(
        "mc",
        help="run specmc (exhaustive interleaving model checking of the "
        "sans-I/O engine)",
    )
    p_mc.add_argument(
        "--p", default="2", metavar="LIST",
        help="processor counts to sweep, comma-separated (default: 2; max 3)",
    )
    p_mc.add_argument(
        "--fw", default="1", metavar="LIST",
        help="forward windows to sweep (default: 1; max 2)",
    )
    p_mc.add_argument(
        "--bw", default="1", metavar="LIST",
        help="backward windows to sweep (default: 1; max 2)",
    )
    p_mc.add_argument(
        "--iters", default="3", metavar="LIST",
        help="iteration counts to sweep (default: 3; max 4)",
    )
    p_mc.add_argument(
        "--cascade", choices=("recompute", "none"), default="recompute",
        help="cascade policy for every configuration",
    )
    p_mc.add_argument(
        "--scenario", choices=("drift", "constant"), default="drift",
        help="program scenario: drift rejects every speculation "
        "(cascades fire); constant accepts every speculation",
    )
    p_mc.add_argument(
        "--window", choices=("static", "aimd"), default="static",
        help="window policy seated in every engine: static keeps FW "
        "fixed; aimd explores the adaptive controller's widen/shrink "
        "schedule (one-iteration epochs, bounds [0, 2])",
    )
    p_mc.add_argument(
        "--budget", metavar="SPEC",
        help="per-configuration exploration budget, e.g. 60s, 2m or a "
        "state count like 50000 (default: unbounded)",
    )
    p_mc.add_argument(
        "--mutate", metavar="NAME",
        help="inject a known engine bug (see docs/static_analysis.md) to "
        "exercise the counterexample pipeline",
    )
    p_mc.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format",
    )
    p_mc.add_argument(
        "--report", metavar="FILE",
        help="also write the JSON report document to FILE (CI artifact)",
    )
    p_mc.add_argument(
        "--emit-trace", metavar="FILE",
        help="on violation: write the shrunk counterexample as a "
        "replayable event trace (`repro analyze --trace FILE`)",
    )
    p_mc.add_argument(
        "--emit-test", metavar="FILE",
        help="on violation: write a ready-to-run pytest regression "
        "replaying the shrunk counterexample",
    )
    p_mc.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging the counterexample schedule",
    )
    p_mc.set_defaults(func=_cmd_mc)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
