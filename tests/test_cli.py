"""Tests for the command-line interface."""

import pytest

import repro.api
from repro.cli import build_parser, main
from repro.harness import run_nbody


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for artifact in ("fig2", "fig5", "fig8", "table2", "table3", "fig9"):
        assert artifact in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_light_experiment(capsys):
    assert main(["run", "fig5"]) == 0
    out = capsys.readouterr().out
    assert "FIG5" in out
    assert "speculation" in out


def test_run_writes_output_file(tmp_path, capsys):
    target = tmp_path / "fig6.txt"
    assert main(["run", "fig6", "--out", str(target)]) == 0
    assert target.exists()
    assert "FIG6" in target.read_text()


def test_nbody_command(capsys):
    rc = main([
        "nbody", "--p", "2", "--fw", "1",
        "--particles", "100", "--iterations", "4",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "makespan" in out
    assert "rejected speculation" in out


def test_nbody_shares_run_flags(capsys):
    rc = main([
        "nbody", "--p", "2", "--particles", "64", "--iterations", "3",
        "--backend", "loopback", "--fw", "1",
    ])
    assert rc == 0
    assert "scheduler rounds" in capsys.readouterr().out


def _field_labels(out):
    """The ``label: value`` field labels of a run report."""
    return {
        line.split(":", 1)[0].strip()
        for line in out.splitlines()
        if line.startswith("  ") and ":" in line
    }


@pytest.fixture
def api_runs(monkeypatch):
    """Every report ``repro.api.run`` returns while the test runs."""
    reports = []
    real = repro.api.run

    def spy(config):
        reports.append(real(config))
        return reports[-1]

    monkeypatch.setattr(repro.api, "run", spy)
    return reports


@pytest.mark.parametrize("adaptive", [False, True])
def test_nbody_prints_same_fields_on_every_backend(capsys, api_runs, adaptive):
    labels = {}
    for backend in ("des", "loopback", "mp"):
        argv = ["nbody", "-p", "2", "--particles", "64", "--iterations", "3",
                "--backend", backend]
        if backend == "mp":
            argv += ["--latency", "0.01"]
        if adaptive:
            argv.append("--adaptive")
        assert main(argv) == 0
        labels[backend] = _field_labels(capsys.readouterr().out)
    # One api.run call per invocation, on the requested backend.
    assert [r.backend for r in api_runs] == ["des", "loopback", "mp"]
    # Per-particle counters stay inside the mp workers: that line is
    # omitted there rather than printed as a false 0.00%.
    particles = "rejected speculation (particles)"
    assert particles in labels["des"] and particles in labels["loopback"]
    assert labels["des"] == labels["loopback"] == labels["mp"] | {particles}
    assert {"makespan", "rejected speculation (blocks)",
            "compute (max over ranks)"} <= labels["mp"]
    assert ("final windows" in labels["mp"]) == adaptive


def test_nbody_des_makespan_matches_run_nbody(capsys, api_runs):
    assert main(["nbody", "-p", "4", "--fw", "2", "--particles", "200",
                 "--iterations", "5"]) == 0
    out = capsys.readouterr().out
    _, result = run_nbody(p=4, fw=2, n_particles=200, iterations=5)
    (report,) = api_runs
    assert report.wall_seconds == result.makespan
    assert f"{result.makespan:.3f} virtual s" in out


def test_mp_only_flags_rejected_off_mp(capsys):
    # --latency must be a usage error on a clockless backend, not a
    # silent no-op.
    rc = main([
        "nbody", "--p", "2", "--particles", "64", "--iterations", "3",
        "--backend", "loopback", "--latency", "0.05",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--latency" in err
    assert "--backend mp" in err

    rc = main(["jacobi", "-p", "2", "--jitter", "0.5"])
    assert rc == 2
    assert "--jitter" in capsys.readouterr().err


def test_jacobi_command(capsys):
    rc = main([
        "jacobi", "-p", "4", "-n", "48", "--iterations", "10",
        "--backend", "loopback", "--sanitize",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "residual" in out
    assert "rejected speculation" in out


def test_chaos_command_verifies_bit_identical(capsys):
    rc = main([
        "chaos", "-p", "4", "-n", "32", "--iterations", "10",
        "--backend", "loopback", "--fw", "1",
        "--drop", "0.1", "--straggler", "1:2.0", "--fault-seed", "7",
        "--verify",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "injected" in out
    assert "0 outstanding" in out
    assert "bit-identical" in out


def test_chaos_plan_file(tmp_path, capsys):
    from repro.faults import EdgeFault, FaultPlan

    plan = FaultPlan(seed=7, edges=(EdgeFault(kind="drop", rate=0.1),))
    path = tmp_path / "plan.json"
    plan.save(str(path))
    rc = main([
        "chaos", "-p", "4", "-n", "32", "--iterations", "10",
        "--backend", "loopback", "--fw", "1", "--plan", str(path),
    ])
    assert rc == 0
    assert "injected" in capsys.readouterr().out


def test_chaos_plan_excludes_inline_flags(capsys):
    rc = main([
        "chaos", "-p", "2", "--plan", "whatever.json", "--drop", "0.1",
    ])
    assert rc == 2


def test_chaos_unrecovered_loss_reported(capsys):
    rc = main([
        "chaos", "-p", "2", "-n", "16", "--iterations", "4",
        "--backend", "loopback", "--fw", "1",
        "--drop", "1.0", "--no-retransmit",
    ])
    assert rc == 1
    assert "unrecovered loss" in capsys.readouterr().out


def test_chaos_crash_reported(capsys):
    rc = main([
        "chaos", "-p", "2", "-n", "16", "--iterations", "8",
        "--backend", "loopback", "--fw", "1", "--crash", "1:3",
    ])
    assert rc == 1
    assert "planned crash" in capsys.readouterr().out


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_run_writes_json(tmp_path, capsys):
    import json

    target = tmp_path / "fig5.json"
    assert main(["run", "fig5", "--json", str(target)]) == 0
    data = json.loads(target.read_text())
    assert data["experiment_id"] == "FIG5"
    assert len(data["rows"]) == 16
    assert all(isinstance(v, (int, float)) for v in data["rows"][0])
