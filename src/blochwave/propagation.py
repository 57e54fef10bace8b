"""Generic propagator for linear matrix ODEs ``M' = G(t) M`` with
skew-Hermitian ``G``.

One integrator serves every evolution operator in the package: the lab-frame
unitary, the adiabatic transporter, and the full evolution in the adiabatic
frame.  Integration uses an adaptive embedded Runge-Kutta pair of order 8(5,3)
(``scipy.integrate.solve_ivp`` with DOP853) applied to the matrix columns as
one coupled system.

Unitarity is monitored, never silently enforced: the recorded defect
``‖M†M - 1‖`` doubles as an independent error estimate.  Empirically the
global defect stays below ``c * tol * (t_f - t0)`` with ``c ≈ 100`` on the
built-in models; the convergence tests pin the monotone decrease across
tolerance decades.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegratorFailure
from .operators import require_skew_hermitian, spectral_norm

__all__ = ["PropagatorPath", "propagate", "unitarity_defect", "solve_matrix_ivp"]

#: fraction of the estimated oscillation period used as the step-size cap
OSCILLATION_STEP_FRACTION = 1.0 / 20.0

#: skew-Hermiticity of generator samples is enforced within this factor of tol
SKEW_CHECK_FACTOR = 100.0


@dataclass
class PropagatorPath:
    """A propagator sampled at checkpoints.

    The checkpoint at ``t0`` is the identity exactly.  ``unitarity_defects``
    stores ``‖M†M - 1‖_2`` per checkpoint.
    """

    t0: float
    times: np.ndarray
    matrices: np.ndarray
    unitarity_defects: np.ndarray
    tol: float
    dense: object | None = None

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]

    def at(self, t: float) -> np.ndarray:
        """Propagator at time ``t`` (checkpoint lookup, else dense interpolant)."""
        idx = np.searchsorted(self.times, t)
        if idx < len(self.times) and self.times[idx] == t:
            return self.matrices[idx]
        if self.dense is None:
            raise KeyError(f"t={t:g} is not a checkpoint and no dense output was kept")
        return np.asarray(self.dense(t)).reshape(self.dim, self.dim)

    def max_unitarity_defect(self) -> float:
        return float(np.max(self.unitarity_defects))


def _estimate_max_step(generator, t0: float, t1: float, samples: int = 33) -> float:
    """Step cap of (oscillation period)/20 for the fastest generator component.

    Prevents an adaptive integrator from striding over small-amplitude
    oscillating terms (e.g. a weak drive rotating against a large static
    drift) whose local error would fall below the tolerance.  The dominant
    frequency of ``t -> G(t)`` is estimated as
    ``sup ‖G'(t)‖ / sup ‖G(t) - mean(G)‖`` over a sample grid: for a
    component ``eps * exp(i w t) E`` this recovers ``w`` independently of the
    amplitude ``eps``, while slow secular variation (however large in norm)
    correctly leaves the cap loose -- the solution's own fast rotation is
    already resolved by the error control.  A cap of (span)/50 always
    applies so the generator is sampled densely enough to see gross features.
    """
    span = t1 - t0
    cap = span / 50.0
    ts = np.linspace(t0, t1, samples)
    gs = [np.asarray(generator(t), dtype=complex) for t in ts]
    mean = sum(gs) / len(gs)
    osc = max(spectral_norm(g - mean) for g in gs)
    if osc <= 1e-13 * max(1.0, spectral_norm(mean)):
        return cap
    h = 1e-6 * span
    gdot = max(
        spectral_norm(
            (np.asarray(generator(t + h), dtype=complex) - np.asarray(generator(t - h), dtype=complex))
        )
        / (2.0 * h)
        for t in ts[1:-1]
    )
    if gdot <= 0.0:
        return cap
    period = 2.0 * np.pi * osc / gdot
    return min(cap, period * OSCILLATION_STEP_FRACTION)


def solve_matrix_ivp(
    rhs,
    y0: np.ndarray,
    grid: np.ndarray,
    tol: float,
    max_step: float | None = None,
    dense: bool = False,
    events=None,
):
    """Adaptive integration of a matrix-valued ODE over a checkpoint grid.

    ``rhs(t, m)`` receives and returns a matrix; the flattening into the
    solver's vector state is handled here.  Shared by the linear propagator
    and the nonlinear wave-operator integrator.

    Returns the full ``solve_ivp`` result (matrices still flattened).
    """
    shape = y0.shape

    def flat_rhs(t, y):
        return rhs(t, y.reshape(shape)).ravel()

    sol = solve_ivp(
        flat_rhs,
        (grid[0], grid[-1]),
        np.asarray(y0, dtype=complex).ravel(),
        method="DOP853",
        t_eval=grid,
        rtol=max(tol, 1e-13),
        atol=tol,
        max_step=np.inf if max_step is None else max_step,
        dense_output=dense,
        events=events,
    )
    if sol.status == -1:
        raise IntegratorFailure(sol.message)
    return sol


def propagate(
    generator,
    t0: float,
    grid: np.ndarray,
    tol: float = 1e-10,
    max_step: float | None = None,
    dense: bool = False,
) -> PropagatorPath:
    """Integrate ``M' = G(t) M`` with ``M(t0) = 1`` and dense checkpoints.

    Args:
        generator: callable ``t -> skew-Hermitian matrix G(t)``.
        t0: initial time; must equal ``grid[0]``.
        grid: strictly increasing checkpoint times.
        tol: local error tolerance (relative and absolute).
        max_step: optional step cap; by default estimated from the sampled
            generator norm so oscillating terms are never skipped.
        dense: keep a continuous interpolant (``path.at`` at arbitrary t).

    Raises:
        IntegratorFailure: on step underflow.
        NotSkewHermitian: if a generator sample violates the precondition.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must contain at least two strictly increasing times")
    if grid[0] != t0:
        raise ValueError(f"grid[0] = {grid[0]!r} must equal t0 = {t0!r}")

    for t in np.linspace(t0, grid[-1], 7):
        require_skew_hermitian(
            generator(t), SKEW_CHECK_FACTOR * tol, what=f"generator at t={t:g}"
        )

    if max_step is None:
        max_step = _estimate_max_step(generator, t0, grid[-1])

    g0 = np.asarray(generator(t0), dtype=complex)
    n = g0.shape[0]
    eye = np.eye(n, dtype=complex)

    sol = solve_matrix_ivp(
        lambda t, m: generator(t) @ m,
        eye,
        grid,
        tol,
        max_step=max_step,
        dense=dense,
    )

    mats = np.ascontiguousarray(sol.y.T).reshape(-1, n, n)
    mats[0] = eye

    return PropagatorPath(
        t0=t0,
        times=grid,
        matrices=mats,
        unitarity_defects=spectral_norm(mats.conj().swapaxes(-1, -2) @ mats - eye),
        tol=tol,
        dense=sol.sol if dense else None,
    )


def unitarity_defect(path: PropagatorPath) -> float:
    """Max over checkpoints of ``‖M†M - 1‖_2``."""
    return path.max_unitarity_defect()
