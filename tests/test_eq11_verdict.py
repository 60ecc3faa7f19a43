"""The Eq. 11 check is decided once and its verdict drives the correction.

* The planar ratio kernel agrees with the straightforward
  ``(n_r, n_l, 3)`` broadcast + ``einsum`` form, kept here only as an
  oracle: ratios to 4 ulp, reject decisions wherever a ratio is not
  within 1e-12 (relative) of θ, nearest-local indices wherever the
  nearest distance is unambiguous.
* A DES run calls the kernel once per check: ``correct`` acts on the
  verdict's reject mask and never re-derives it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.apps.nbody_app as nbody_app
from repro.apps import NBodyProgram
from repro.core import Verdict, run_program
from repro.nbody import pairwise_error_ratios, uniform_cube
from repro.netsim import ConstantLatency, DelayNetwork
from repro.vm import Cluster, uniform_specs

EPS = 1e-12


def einsum_oracle(speculated_pos, actual_pos, local_pos, eps=EPS):
    """The former brute-force kernel: ratios and nearest-local index."""
    sp = np.asarray(speculated_pos, dtype=float)
    ap = np.asarray(actual_pos, dtype=float)
    lp = np.asarray(local_pos, dtype=float)
    displacement = np.linalg.norm(sp - ap, axis=1)
    delta = ap[:, None, :] - lp[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
    return displacement / np.maximum(dist.min(axis=1), eps), dist


def coords(n):
    return arrays(
        np.float64, (n, 3),
        elements=st.floats(-10.0, 10.0, allow_nan=False, width=64),
    )


@st.composite
def eq11_inputs(draw):
    n_r = draw(st.integers(1, 12))
    n_l = draw(st.integers(1, 12))
    actual = draw(coords(n_r))
    offset = draw(arrays(np.float64, (n_r, 3), elements=st.floats(-0.5, 0.5)))
    local = draw(coords(n_l))
    # Coincident remote/local particles exercise the eps distance floor.
    shared = draw(st.lists(st.integers(0, n_r - 1), max_size=3))
    if shared:
        local = np.vstack([local, actual[shared]])
    return actual + offset, actual, local


def within_ulps(a, b, ulps):
    scale = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return np.abs(a - b) <= ulps * scale


@settings(max_examples=200, deadline=None)
@given(case=eq11_inputs(), theta=st.sampled_from([0.0, 1e-3, 0.01, 0.1, 1.0]))
def test_planar_kernel_matches_einsum_oracle(case, theta):
    speculated, actual, local = case
    expected, dist = einsum_oracle(speculated, actual, local)
    ratios, _ = pairwise_error_ratios(speculated, actual, local)
    assert ratios.shape == expected.shape
    assert np.all(within_ulps(ratios, expected, 4))
    # Reject decisions agree wherever the ratio is not on the threshold.
    clear = np.abs(expected / theta - 1.0) > 1e-12 if theta > 0 else np.ones_like(ratios, bool)
    np.testing.assert_array_equal((ratios > theta)[clear], (expected > theta)[clear])


@settings(max_examples=200, deadline=None)
@given(case=eq11_inputs())
def test_nearest_index_from_the_same_pass(case):
    speculated, actual, local = case
    _, nearest = pairwise_error_ratios(speculated, actual, local)
    _, dist = einsum_oracle(speculated, actual, local)
    rows = np.arange(len(actual))
    # The chosen local particle is a nearest one (to rounding) ...
    assert np.all(within_ulps(dist[rows, nearest], dist.min(axis=1), 4))
    # ... and is the oracle's wherever the runner-up is clearly farther.
    ordered = np.sort(dist, axis=1)
    if ordered.shape[1] > 1:
        unique = ordered[:, 1] - ordered[:, 0] > 1e-9 * np.maximum(ordered[:, 1], 1.0)
        np.testing.assert_array_equal(nearest[unique], dist.argmin(axis=1)[unique])


def test_coincident_particle_hits_the_eps_floor():
    actual = np.array([[1.0, 2.0, 3.0]])
    speculated = actual + [[1e-3, 0.0, 0.0]]
    local = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
    ratios, nearest = pairwise_error_ratios(speculated, actual, local)
    np.testing.assert_allclose(ratios, [1e-3 / EPS])
    np.testing.assert_array_equal(nearest, [0])


def test_empty_remote_or_local_sets():
    ratios, nearest = pairwise_error_ratios(np.zeros((0, 3)), np.zeros((0, 3)), np.ones((4, 3)))
    assert ratios.shape == (0,) and nearest.shape == (0,)
    ratios, nearest = pairwise_error_ratios(np.ones((2, 3)), np.zeros((2, 3)), np.zeros((0, 3)))
    np.testing.assert_array_equal(ratios, [0.0, 0.0])
    assert nearest.shape == (2,)


@pytest.mark.parametrize(
    "shapes",
    [((2, 3), (3, 3), (1, 3)), ((2, 2), (2, 2), (1, 3)), ((3,), (3,), (1, 3))],
)
def test_shape_validation(shapes):
    sp, ap, lp = (np.zeros(s) for s in shapes)
    with pytest.raises(ValueError):
        pairwise_error_ratios(sp, ap, lp)


# ------------------------------------------------------- check -> correct
def nbody_program(**kw):
    system = uniform_cube(48, seed=3, softening=0.1)
    return NBodyProgram(system, [1e6] * 3, 8, dt=0.02, **kw)


def test_check_verdict_carries_the_reject_mask():
    prog = nbody_program(threshold=0.01)
    inputs = {r: prog.initial_block(r) for r in range(3)}
    wrong = inputs[1].copy()
    wrong[::2, :3] += 0.2  # every other particle far off, the rest exact
    verdict = prog.check(0, 1, wrong, inputs[1], inputs[0])
    assert isinstance(verdict, Verdict)
    rejected = verdict.detail.rejected
    np.testing.assert_array_equal(rejected[1::2], False)
    assert rejected[::2].any()
    assert verdict.error > prog.threshold


def test_des_fw2_calls_the_kernel_once_per_check(monkeypatch):
    calls = []
    kernel = nbody_app.pairwise_error_ratios

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(nbody_app, "pairwise_error_ratios", counted)
    prog = nbody_program(threshold=0.001)
    cluster = Cluster(
        uniform_specs(3),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(0.2)),
    )
    result = run_program(prog, cluster, fw=2)
    checks = sum(s.checks for s in result.stats)
    assert sum(s.spec_rejected for s in result.stats) > 0  # correct() ran
    assert checks > 0
    assert len(calls) == checks
