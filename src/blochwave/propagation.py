"""Generic propagator for linear matrix ODEs ``M' = G(t) M`` with
skew-Hermitian ``G``.

One integrator serves every evolution operator in the package: the lab-frame
unitary, the adiabatic transporter, and the full evolution in the adiabatic
frame.  Integration uses the in-house adaptive Runge-Kutta pair of order
8(5,3), :mod:`blochwave.dop853` (SciPy's DOP853 replayed bit for bit),
applied to the matrix columns as one coupled system.

Handed an adiabatic frame instead of a callable, the integrators factor its
strong drift out exactly.  In the frame the drift ``gamma B(t) = gamma sum_k
b_k(t) P_k(t0)`` is block-scalar over frozen projectors, so its flow is
``D(t) = sum_k exp(phi_k(t)) P_k(t0)`` with ``phi_k' = gamma b_k(t)``.  The
phases ride in the solver state next to the matrix, which is integrated in
the rotating frame of ``D``: ``M = D Mr`` with ``Mr' = D† C D Mr``, and the
wave operator ``U = D Ur D†`` with the Riccati flow of ``D† C D``.  Both
are integrated in an eigenbasis of the frozen projectors, where ``D`` is
diagonal and the Riccati flow's block projection is a mask.  The solver
then no longer resolves the fast phase of ``gamma B`` step by step; the
step cap stays that of the full frame Hamiltonian.

Unitarity is monitored, never silently enforced: the recorded defect
``‖M†M - 1‖`` doubles as an independent error estimate.  Empirically the
global defect stays below ``c * tol * (t_f - t0)`` with ``c ≈ 100`` on the
built-in models; the convergence tests pin the monotone decrease across
tolerance decades.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dop853 import IvpResult, integrate
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
    event=None,
) -> IvpResult:
    """Adaptive DOP853 integration of a matrix-valued ODE over a checkpoint grid.

    ``rhs(t, m)`` receives and returns a matrix; the flattening into the
    solver's vector state is handled here.  Shared by the linear propagator
    and the nonlinear wave-operator integrator.  ``event`` is terminal.

    Returns the :class:`~blochwave.dop853.IvpResult` (matrices still
    flattened) with ``nfev``, accepted and rejected steps and ``max_step``.
    """
    shape = y0.shape

    def flat_rhs(t, y):
        return rhs(t, y.reshape(shape)).ravel()

    return integrate(
        flat_rhs,
        np.asarray(y0, dtype=complex).ravel(),
        grid,
        rtol=max(tol, 1e-13),
        atol=tol,
        max_step=np.inf if max_step is None else max_step,
        dense=dense,
        event=event,
    )


def _rotating_system(frame, matrix_rhs, y0: np.ndarray, two_sided: bool):
    """Pack a matrix ODE driven by a frame Hamiltonian into the rotating frame
    of the frame's frozen blocks.

    The rotation ``D = sum_k exp(phi_k) P_k(t0)``, with ``phi_k' = gamma
    b_k(t)``, is diagonal in an orthonormal eigenbasis ``V`` of the frozen
    projectors: ``D = V E V†`` with ``E = diag(exp(phi_label))``, where
    ``label[i]`` is the block of column ``i``.  The solver state is
    ``[vec(Z), phi]`` and ``Y = V E Z V†``, or ``V E Z E† V†`` when
    ``two_sided``.  ``matrix_rhs(c, z, same_block)`` is ``Z'`` given the
    rotated drive in that basis, ``c = E† V† C V E``, and the mask of index
    pairs in one block: there ``P_k`` is the mask of block ``k``'s indices,
    so the block-diagonal part of ``x`` is ``x * same_block``.

    Returns ``(state0, rhs, back)``: the initial state, the solver's
    ``rhs(t, state)`` and ``back(states)``, which maps a state or a stack of
    them to ``Y``.  The matrix part is the first ``y0.size`` entries.
    """
    proj = frame.frozen.projector_stack
    basis = basis_h = None  # V = 1 for coordinate projectors
    if np.any(proj * ~np.eye(proj.shape[-1], dtype=bool)):
        # sum_k k P_k has the eigenvalue k on block k, so its eigh labels columns
        weights, basis = np.linalg.eigh(np.tensordot(np.arange(len(proj)), proj, axes=1))
        labels = np.rint(weights).astype(int)
        basis_h = basis.conj().T
    else:
        labels = np.argmax(np.einsum("kii->ki", proj).real, axis=0)
    same_block = labels[:, None] == labels[None, :]
    shape, size = y0.shape, y0.size

    def into(x):
        return x if basis is None else basis_h @ x @ basis

    def out_of(x):
        return x if basis is None else basis @ x @ basis_h

    def rhs(t, y):
        rates, drive = frame.split_at(t)
        e = np.exp(y[size:][labels])
        out = np.empty_like(y)
        c = into(drive) * np.outer(e.conj(), e)
        out[:size] = matrix_rhs(c, y[:size].reshape(shape), same_block).ravel()
        out[size:] = rates
        return out

    def back(states):
        e = np.exp(states[..., size:][..., labels])
        z = states[..., :size].reshape(*states.shape[:-1], *shape) * e[..., :, None]
        if two_sided:
            z = z * e.conj()[..., None, :]
        return out_of(z)

    z0 = into(np.asarray(y0, dtype=complex))
    return np.concatenate([z0.ravel(), np.zeros(len(proj), complex)]), rhs, back


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
        generator: callable ``t -> skew-Hermitian matrix G(t)``, or an
            adiabatic frame (an object with ``split_at``, ``hamiltonian_at``
            and ``frozen`` projectors), whose Hamiltonian is then integrated
            in the rotating frame of its frozen blocks.
        t0: initial time; must equal ``grid[0]``.
        grid: strictly increasing checkpoint times.
        tol: local error tolerance (relative and absolute).
        max_step: optional step cap; by default estimated from the sampled
            generator (the frame's full Hamiltonian) so oscillating terms
            are never skipped.
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

    rotating = hasattr(generator, "split_at")
    hamiltonian = generator.hamiltonian_at if rotating else generator
    for t in np.linspace(t0, grid[-1], 7):
        require_skew_hermitian(
            hamiltonian(t), SKEW_CHECK_FACTOR * tol, what=f"generator at t={t:g}"
        )

    if max_step is None:
        max_step = _estimate_max_step(hamiltonian, t0, grid[-1])

    n = np.shape(hamiltonian(t0))[0]
    eye = np.eye(n, dtype=complex)
    if rotating:
        y0, rhs, back = _rotating_system(generator, lambda c, z, _: c @ z, eye, two_sided=False)
    else:
        y0, rhs, back = eye, (lambda t, m: generator(t) @ m), None

    sol = solve_matrix_ivp(rhs, y0, grid, tol, max_step=max_step, dense=dense)

    states = np.ascontiguousarray(sol.y.T)
    mats = back(states) if rotating else states.reshape(-1, n, n)
    mats[0] = eye
    interpolant = None
    if dense:
        interpolant = (lambda t: back(sol.dense(t))) if rotating else sol.dense

    return PropagatorPath(
        t0=t0,
        times=grid,
        matrices=mats,
        unitarity_defects=spectral_norm(mats.conj().swapaxes(-1, -2) @ mats - eye),
        tol=tol,
        dense=interpolant,
    )


def unitarity_defect(path: PropagatorPath) -> float:
    """Max over checkpoints of ``‖M†M - 1‖_2``."""
    return path.max_unitarity_defect()
