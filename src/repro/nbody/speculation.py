"""Eq. 10 position speculation and the Eq. 11 pairwise error metric.

Speculation (Eq. 10): a remote particle's position is extrapolated one
timestep assuming constant velocity::

    r*_a(t) = r_a(t-1) + v_a(t-1) · Δt

Checking (Eq. 11): the effect of a position error on the force exerted
on a local particle b is approximately proportional to::

    error_{a,b} = ‖r*_a(t) − r_a(t)‖ / ‖r_a(t) − r_b(t)‖

The speculation for particle a is acceptable when this ratio is below
the threshold θ for every local particle b; equivalently, when the
ratio against the *nearest* local particle is below θ.
"""

from __future__ import annotations

import numpy as np

#: Paper's cost accounting: flops to speculate one particle's position.
SPECULATE_FLOPS_PER_PARTICLE = 12.0
#: Paper's cost accounting: flops to error-check one particle.
CHECK_FLOPS_PER_PARTICLE = 24.0


def speculate_positions(pos: np.ndarray, vel: np.ndarray, dt: float) -> np.ndarray:
    """Constant-velocity extrapolation of positions (Eq. 10)."""
    p = np.asarray(pos, dtype=float)
    v = np.asarray(vel, dtype=float)
    if p.shape != v.shape:
        raise ValueError("pos and vel must have identical shapes")
    if dt <= 0:
        raise ValueError("dt must be positive")
    return p + v * dt


def pairwise_error_ratios(
    speculated_pos: np.ndarray,
    actual_pos: np.ndarray,
    local_pos: np.ndarray,
    eps: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-remote-particle worst-case Eq. 11 ratio and nearest local index.

    For each remote particle a, returns
    ``‖r*_a − r_a‖ / min_b ‖r_a − r_b‖`` — the error ratio against the
    *nearest* local particle, i.e. the largest ratio over all local b —
    together with the index of that nearest local particle.

    The nearest distances come from one planar pass: the squared
    per-axis differences are accumulated into a single (n_r, n_l)
    array, so no (n_r, n_l, 3) intermediate is ever built.

    Parameters
    ----------
    speculated_pos / actual_pos:
        (n_r, 3) speculated and true remote positions.
    local_pos:
        (n_l, 3) positions of the checking processor's own particles.
    eps:
        Distance floor to keep coincident particles finite.

    Returns
    -------
    ``(ratios, nearest)``: two (n_r,) arrays, the ratios and the index of
    each remote particle's nearest local particle (both all zero if there
    are no local particles).
    """
    sp = np.asarray(speculated_pos, dtype=float)
    ap = np.asarray(actual_pos, dtype=float)
    lp = np.asarray(local_pos, dtype=float)
    if sp.shape != ap.shape:
        raise ValueError("speculated and actual positions must match shapes")
    if sp.ndim != 2 or sp.shape[1] != 3:
        raise ValueError("positions must be (n, 3)")
    n_r = sp.shape[0]
    if n_r == 0 or lp.shape[0] == 0:
        return np.zeros(n_r), np.zeros(n_r, dtype=np.intp)
    displacement = np.linalg.norm(sp - ap, axis=1)
    dist2 = np.subtract.outer(ap[:, 0], lp[:, 0]) ** 2
    for c in (1, 2):
        dist2 += np.subtract.outer(ap[:, c], lp[:, c]) ** 2
    nearest = dist2.argmin(axis=1)
    ratios = displacement / np.maximum(np.sqrt(dist2[np.arange(n_r), nearest]), eps)
    return ratios, nearest


def worst_pairwise_error(
    speculated_pos: np.ndarray,
    actual_pos: np.ndarray,
    local_pos: np.ndarray,
) -> float:
    """Maximum Eq. 11 ratio over all (remote, local) pairs."""
    ratios = pairwise_error_ratios(speculated_pos, actual_pos, local_pos)[0]
    return float(ratios.max()) if ratios.size else 0.0
