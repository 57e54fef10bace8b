"""Generic propagator for linear matrix ODEs ``M' = G(t) M`` with
skew-Hermitian ``G``.

One integrator serves every evolution operator in the package: the lab-frame
unitary, the adiabatic transporter, and the full evolution in the adiabatic
frame.  The flow is linear, so :func:`propagate` steps it a round at a time
with :func:`~blochwave.dop853.integrate_linear`: the Runge-Kutta pair of
order 8(5,3) (DOP853) forms the step map of every pending segment from the
identity, asking for ``G`` at the stage nodes of many segments in one
batched call, and composes the accepted maps.  The nonlinear Riccati flow of
the wave operator keeps the step-by-step loop :func:`~blochwave.dop853.integrate`
(SciPy's DOP853 replayed bit for bit) through :func:`solve_matrix_ivp`, which
steps several problems in lockstep, each from its own start time over its own
checkpoints (the initial conditions of a sweep, and the windows that the
Riccati route cuts a long grid into), so the two routes share the tableau
and nothing of the stepping.

:func:`propagate` takes a callable that maps a 1-D array of times to one
matrix per time, or an adiabatic frame; the Riccati route takes the frame
only.  Handed a frame, the integrators factor its strong drift out exactly.
In the frame the drift ``gamma B(t) = gamma sum_k b_k(t) P_k(t0)`` is
block-scalar over frozen projectors, so its flow is ``D(t) = sum_k
exp(gamma Phi_k(t)) P_k(t0)`` with the frame's gamma-free phases ``Phi_k =
int_{t0}^t b_k``.  In the frame's eigenbasis of the frozen projectors
(``frame.basis``) ``D`` is the diagonal ``E(t)`` and a block projection is a
mask.  Both integrators step the plain generator ``frame.rotated_at``, that
of ``Y = E† V† M V``, one stack for all the node times of a call, and rotate
with ``E`` at the times they report only: :func:`propagate` gives ``M = V E
Y V†``, and the Riccati flow of the rotated generator gives ``U = V E Z E†
V†``.  Either way the solver no longer resolves the fast phase of ``gamma
B`` step by step, and the step cap stays that of the full frame Hamiltonian.
The step cap and the skew-Hermiticity check sample the frame Hamiltonian in
one batched call each.

A frame whose Hamiltonian repeats with a period ``T`` (``frame.period``,
model data) is integrated over one period only.  By Floquet's theorem
``M(t0 + nT + s) = M(t0 + s) F^n`` with the monodromy ``F = M(t0 + T)``, so
each checkpoint ``t`` is folded to its residue ``s = t0 + (t - t0) mod T``
and its whole periods ``n``, the residues (and ``t0 + T``) are the
checkpoints of the one integration, and the path is composed from the
powers of ``F``.  The cost no longer grows with the horizon.  A request for
dense output integrates the whole grid.

Unitarity is monitored, never silently enforced: the recorded defect
``‖M†M - 1‖`` doubles as an independent error estimate.  Empirically the
global defect stays below ``c * tol * (t_f - t0)`` with ``c ≈ 100`` on the
built-in models; the convergence tests pin the monotone decrease across
tolerance decades.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dop853 import IvpResult, IvpStack, Staged, integrate, integrate_linear
from .errors import IntegratorFailure
from .operators import require_skew_hermitian, spectral_norm, stack_matmul

__all__ = ["PropagatorPath", "propagate", "solve_matrix_ivp"]

#: fraction of the estimated oscillation period used as the step-size cap
OSCILLATION_STEP_FRACTION = 1.0 / 20.0

#: skew-Hermiticity of generator samples is enforced within this factor of tol
SKEW_CHECK_FACTOR = 100.0


@dataclass
class PropagatorPath:
    """A propagator sampled at checkpoints.

    The checkpoint at ``t0`` is the identity exactly.  ``unitarity_defects``
    stores ``‖M†M - 1‖_2`` per checkpoint, ``stats`` the integrator's
    :meth:`~blochwave.dop853.IvpResult.stats` (``None`` for a closed form),
    with ``periods``, the most whole periods composed at a checkpoint, when
    the path was built from one period.
    """

    t0: float
    times: np.ndarray
    matrices: np.ndarray
    unitarity_defects: np.ndarray
    tol: float
    dense: object | None = None
    stats: dict | None = None

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]

    def at(self, t) -> np.ndarray:
        """Propagator at a time, or a stack at an array of times (checkpoint
        lookup, else dense interpolant)."""
        ts = np.asarray(t, dtype=float)
        flat = ts.reshape(-1)
        index = np.minimum(np.searchsorted(self.times, flat), len(self.times) - 1)
        hit = self.times[index] == flat
        if hit.all():
            out = self.matrices[index]
        elif self.dense is None:
            missing = flat[~hit][0]
            raise KeyError(f"t={missing:g} is not a checkpoint and no dense output was kept")
        else:
            out = np.asarray(self.dense(flat)).reshape(-1, self.dim, self.dim)
            if hit.any():
                out = out.copy()
                out[hit] = self.matrices[index[hit]]
        return out.reshape(*ts.shape, self.dim, self.dim)

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

    ``generator`` maps an array of times to a stack of matrices; it is asked
    once, for the sample grid and the central differences together.

    Raises:
        IntegratorFailure: if a sample is not finite (a generator too large
            for float64, such as ``gamma B`` at a huge ``gamma``).
    """
    span = t1 - t0
    cap = span / 50.0
    ts = np.linspace(t0, t1, samples)
    h = 1e-6 * span
    inner = ts[1:-1]
    times = np.concatenate([ts, inner + h, inner - h])
    stack = np.asarray(generator(times), dtype=complex)
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if not finite.all():
        raise IntegratorFailure(f"non-finite generator at t={times[np.argmin(finite)]:g}")
    gs, ahead, behind = np.split(stack, [samples, samples + len(inner)])
    mean = sum(gs) / len(gs)
    osc = np.max(spectral_norm(gs - mean))
    if osc <= 1e-13 * max(1.0, spectral_norm(mean)):
        return cap
    gdot = np.max(spectral_norm(ahead - behind) / (2.0 * h))
    if gdot <= 0.0:
        return cap
    period = 2.0 * np.pi * osc / gdot
    return min(cap, period * OSCILLATION_STEP_FRACTION)


def _checked_grid(grid, t0: float) -> np.ndarray:
    """``grid`` as a float array, refused unless it holds at least two
    strictly increasing times, one-dimensional, starting at ``t0``."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must contain at least two strictly increasing times")
    if grid[0] != t0:
        raise ValueError(f"grid[0] = {grid[0]!r} must equal t0 = {t0!r}")
    return grid


def solve_matrix_ivp(
    rhs: Staged,
    y0,
    grid,
    tol: float,
    max_step: float | None = None,
    event=None,
) -> IvpResult | IvpStack:
    """Adaptive step-by-step DOP853 integration of a matrix-valued ODE over a
    checkpoint grid, for the nonlinear Riccati flow.

    ``y0`` is one initial state (a matrix, or a vector) or a sequence of
    them, independent problems stepped in lockstep; ``grid`` is their
    checkpoint grid, or a sequence of grids, one per problem, each starting
    at its problem's initial time.  ``rhs`` is a
    :class:`~blochwave.dop853.Staged` right-hand side whose step receives
    and returns a stack of such states; the flattening into the solver's
    vector states is handled here.  ``event`` is terminal, per problem.

    Returns the :class:`~blochwave.dop853.IvpResult` (matrices still
    flattened) with ``nfev``, accepted and rejected steps and ``max_step``,
    or for a sequence the :class:`~blochwave.dop853.IvpStack` of them.
    """
    stacked = not isinstance(y0, np.ndarray)
    states = np.array(y0 if stacked else [y0], dtype=complex)
    shape = states.shape[1:]
    if len(shape) != 1:  # the solver's states are the flattened matrices
        step = rhs.step

        def flat_step(c, y):
            return step(c, y.reshape(len(y), *shape)).reshape(len(y), -1)

        rhs = Staged(rhs.coefficients, flat_step)

    results = integrate(
        rhs,
        states.reshape(len(states), -1),
        grid,
        rtol=max(tol, 1e-13),
        atol=tol,
        max_step=np.inf if max_step is None else max_step,
        event=event,
    )
    return results if stacked else results[0]


def _unrotated(frame, t, y: np.ndarray) -> np.ndarray:
    """``M = V E(t) Y V†`` from the rotated flow ``Y`` at a 1-D array of times."""
    return frame.basis[2](np.exp(frame.phases_at(t))[:, :, None] * y)


def _fold(times: np.ndarray, t0: float, period: float | None):
    """The whole periods ``n`` in ``t - t0`` and the residues
    ``s = t0 + (t - t0) mod T`` of an array of times.

    A time within the first period (or before ``t0``, or any time without a
    period) is its own residue with ``n = 0``.
    """
    if period is None:
        return np.zeros(np.shape(times), dtype=int), times
    laps, rest = np.divmod(times - t0, period)
    folded = laps > 0
    return np.where(folded, laps, 0).astype(int), np.where(folded, t0 + rest, times)


def _powers(f: np.ndarray, laps: np.ndarray) -> np.ndarray:
    """``F^n`` for each ``n`` of ``laps``, by cumulative product over the
    distinct ``n`` in increasing order (one stacked matrix per entry)."""
    distinct, where = np.unique(laps, return_inverse=True)
    out = np.empty((len(distinct), *f.shape), dtype=complex)
    power, done = np.eye(f.shape[-1], dtype=complex), 0
    for i, n in enumerate(distinct):
        power = power @ np.linalg.matrix_power(f, n - done)
        out[i], done = power, n
    return out[where.reshape(-1)]


def propagate(
    generator,
    t0: float,
    grid: np.ndarray,
    tol: float = 1e-10,
    max_step: float | None = None,
    dense: bool = False,
) -> PropagatorPath:
    """Integrate ``M' = G(t) M`` with ``M(t0) = 1`` and dense checkpoints,
    a round of segments at a time (:func:`~blochwave.dop853.integrate_linear`).

    Args:
        generator: a callable that maps a 1-D array of times to the stack
            of skew-Hermitian ``G(t)``, one matrix per time, so that every
            batch of node times is one call; or an adiabatic frame (an
            object with ``rotated_at``, ``phases_at``, ``hamiltonian_at``
            and ``basis``), whose Hamiltonian is then integrated in the
            rotating frame of its frozen blocks.  A frame with a ``period``
            ``T`` is integrated over ``[t0, min(t0 + T, grid[-1])]`` only, at
            the residues of the checkpoints, and the path is composed as
            ``M(t0 + nT + s) = M(t0 + s) F^n`` with ``F = M(t0 + T)``; the
            skew check and the step cap still sample the whole grid.  With
            ``dense`` the whole grid is integrated.
        t0: initial time; must equal ``grid[0]``.
        grid: strictly increasing checkpoint times.
        tol: local error tolerance, the scale of each segment's error norm.
        max_step: optional step cap; by default estimated from the sampled
            generator (the frame's full Hamiltonian) so oscillating terms
            are never skipped.
        dense: keep a continuous interpolant (``path.at`` at arbitrary t).

    Raises:
        IntegratorFailure: on step underflow.
        NotSkewHermitian: if a generator sample violates the precondition.
        ValueError: on a bad grid, or a generator that does not return one
            matrix per time.
    """
    grid = _checked_grid(grid, t0)
    rotating = hasattr(generator, "rotated_at")
    # dense output interpolates the steps of the whole grid
    period = None if dense else getattr(generator, "period", None)
    hamiltonians = generator.hamiltonian_at if rotating else generator
    checked = np.linspace(t0, grid[-1], 7)
    samples = np.asarray(hamiltonians(checked), dtype=complex)
    if samples.ndim != 3 or len(samples) != len(checked) or samples.shape[1] != samples.shape[2]:
        # a generator written for one time would fail deep inside the stepper
        raise ValueError(
            f"generator returned shape {samples.shape} for an array of {len(checked)} times; "
            "generators take an array of times and return one matrix per time"
        )
    require_skew_hermitian(
        samples, SKEW_CHECK_FACTOR * tol, name=lambda i: f"generator at t={checked[i]:g}"
    )

    if max_step is None:
        max_step = _estimate_max_step(hamiltonians, t0, grid[-1])

    eye = np.eye(samples.shape[-1], dtype=complex)
    coefficients = generator.rotated_at if rotating else hamiltonians

    # one integration over the residues, up to t0 + T once a checkpoint lies beyond
    laps, residues = _fold(grid, t0, period)
    periods = int(laps.max())
    knots = np.union1d(residues, [t0 + period]) if periods else np.unique(residues)
    sol = integrate_linear(coefficients, knots, tol, max_step=max_step, dense=dense)

    at_knots = _unrotated(generator, knots, sol.y) if rotating else sol.y
    at_knots[0] = eye
    mats = at_knots[np.searchsorted(knots, residues)]
    if periods:  # the monodromy F = M(t0 + T) is the last knot
        mats = mats @ _powers(at_knots[-1], laps)
    interpolant = sol.dense
    if dense and rotating:

        def interpolant(t):  # a time or an array of times, as the frame takes a 1-D array
            flat = np.reshape(np.asarray(t, dtype=float), -1)
            return _unrotated(generator, flat, sol.dense(flat)).reshape(*np.shape(t), *eye.shape)

    stats = sol.stats()
    if period is not None:
        stats["periods"] = periods
    return PropagatorPath(
        t0=t0,
        times=grid,
        matrices=mats,
        unitarity_defects=spectral_norm(stack_matmul(mats.conj().swapaxes(-1, -2), mats) - eye),
        tol=tol,
        dense=interpolant,
        stats=stats,
    )
