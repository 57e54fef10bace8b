"""Bloch wave operators: initial conditions, three independent solution
routes, effective evolutions and generators, and blow-up detection.

The wave operator ``U(t)`` satisfies the Bloch condition
``P_k U(t) P_k = P_k`` inside every frozen block and obeys the nonlinear
operator Riccati equation ``U'_k = H U_k - U_k H U_k`` per block.  Three
routes compute it:

* direct integration of the Riccati equation (:func:`integrate_riccati`);
* the closed form ``U_k = M U_k(t0) [P_k M U_k(t0) P_k]^{-1}`` through the
  block restrictions of the full evolution (:func:`closed_form_wave`);
* the linearization route through the block-diagonal auxiliary operator
  ``Pi_k = P_k M U_k(t0) P_k + (1 - P_k)`` and its full inverse
  (:func:`radon_wave`).

Every block restriction ``P_k G P_k`` is a slice of ``G`` in the frozen
eigenbasis of :func:`~blochwave.operators.block_basis`; a run takes that
basis once, with its frame, and every path carries it on.  Route agreement
is the package's primary correctness oracle.  Given ``M``, the Riccati route
cuts a long grid into windows solved by parareal, with the closed form as
the coarse map; every checkpoint it reports is still an integrated one, so
it stays independent of ``M``.  The smallest block singular values of ``M
U(t0)``, which the effective evolution records, are the existence
certificate: the solution blows up exactly where a block loses rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import AmbiguousClustering, BadInitialCondition, IntegratorFailure, SingularBlock
from .operators import (
    SpectralDecomposition,
    block_basis,
    block_project,
    offblock_norm,
    require_skew_hermitian,
    spectral_norm,
    stack_product,
)
from .propagation import (
    PropagatorPath,
    _checked_grid,
    _estimate_max_step,
    _rotating_system,
    solve_matrix_ivp,
)

__all__ = [
    "BlochInitialCondition",
    "WaveOperatorPath",
    "EffectiveEvolutionPath",
    "identity_ic",
    "stationary_ic",
    "custom_ic",
    "riccati_rhs",
    "integrate_riccati",
    "restrict",
    "closed_form_wave",
    "radon_wave",
    "bloch_effective_evolution",
    "effective_generator",
    "zeno_generator",
]

#: validation tolerance of initial conditions
IC_TOL = 1e-8

#: smallest singular value of an invertible matrix where no caller sets one
SINGULAR_SV = 1e-12

#: smallest singular value of a block restriction of ``M U0`` for which the
#: wave operator exists: the closed form and radon truncate below it
EXISTENCE_SV = 1e-8

#: :func:`stationary_ic`'s ambiguity margin over ``gamma * (min block gap)``
AMBIGUITY_FACTOR = 0.25

#: wave-operator norm beyond which the solution counts as blown up
BLOWUP_NORM = 1e6

#: default budget for the monitored Bloch-condition defect along integration
DEFECT_BUDGET = 1e-6

#: the most windows a Riccati solve is cut into, the fewest worth their sweeps,
#: and the expected steps a window spans at least (so that its restart stays
#: small against the steps it takes)
MAX_WINDOWS, MIN_WINDOWS, WINDOW_STEPS = 32, 8, 16

#: sweeps of a windowed Riccati solve before it falls back to one pass
MAX_SWEEPS = 3


@dataclass(frozen=True)
class BlochInitialCondition:
    """Initial transformation ``U(t0)`` satisfying the Bloch condition.

    ``stationarity_defect`` is filled by :func:`stationary_ic` with the norm
    of the Riccati right-hand side at the initial time (zero for the
    time-independent problem, up to eigensolver roundoff).
    """

    kind: str
    matrix: np.ndarray
    stationarity_defect: float | None = None

    def validate(self, blocks) -> None:
        """Check the Bloch condition and unitarization compatibility.

        Raises:
            BadInitialCondition: if ``P_k U0 P_k != P_k`` or ``U0†U0`` fails
                to commute with some block beyond :data:`IC_TOL`.
        """
        u0 = self.matrix
        gram = u0.conj().T @ u0
        for k, p in enumerate(blocks):
            for what, residue in (
                ("initial condition violates the Bloch condition on block", p @ u0 @ p - p),
                ("U0†U0 does not commute with block", gram @ p - p @ gram),
            ):
                defect = spectral_norm(residue)
                if defect > IC_TOL:
                    raise BadInitialCondition(f"{what} {k}: defect {defect:.3e} > {IC_TOL:.1e}")


def identity_ic(blocks) -> BlochInitialCondition:
    """The identity initial condition ``U(t0) = 1``."""
    dim = blocks[0].shape[0]
    return BlochInitialCondition(kind="identity", matrix=np.eye(dim, dtype=complex))


def custom_ic(u0: np.ndarray, blocks) -> BlochInitialCondition:
    """Wrap a user-supplied ``U(t0)``, validating it against the blocks."""
    ic = BlochInitialCondition(kind="custom", matrix=np.asarray(u0, dtype=complex))
    ic.validate(blocks)
    return ic


def stationary_ic(
    h0: np.ndarray,
    strong: SpectralDecomposition,
    gamma: float,
) -> BlochInitialCondition:
    """Solution of the time-independent Bloch problem at the initial time.

    Builds the spectral projector of ``H(t0)`` onto the eigenvalue group
    nearest ``gamma * b_k(t0)`` for each block and returns
    ``U0 = sum_k Ptilde_k P_k [P_k Ptilde_k P_k]^{-1}``, whose Riccati
    derivative vanishes for the frozen-generator problem: the wave operator
    that ``G = sum_k Ptilde_k P_k`` carries the identity to, since
    ``P_k G P_k = P_k Ptilde_k P_k``.

    Eigenvalues of ``H(t0)`` are assigned to blocks by nearest target, with an
    ambiguity margin of :data:`AMBIGUITY_FACTOR` ``* gamma * (min block gap)``.

    Raises:
        AmbiguousClustering: if some eigenvalue sits farther from every
            target than the margin, or group sizes disagree with block
            multiplicities (both mean gamma is too small for the
            perturbative picture).
        SingularBlock: if some ``P_k Ptilde_k P_k`` has a singular value
            below :data:`SINGULAR_SV` on its block.
    """
    lam, vec, _ = require_skew_hermitian(h0, what="stationary-ic Hamiltonian")
    targets = gamma * strong.eigenvalues.imag
    margin = AMBIGUITY_FACTOR * gamma * strong.min_gap()

    dist = np.abs(lam[:, None] - targets[None, :])
    assigned = np.argmin(dist, axis=1)
    best = dist[np.arange(len(lam)), assigned]
    if np.any(best > margin):
        j = int(np.argmax(best))
        raise AmbiguousClustering(
            f"eigenvalue {lam[j]:.6g} of H(t0) lies {best[j]:.3g} from its "
            f"nearest block target (margin {margin:.3g}); gamma too small"
        )
    counts = np.bincount(assigned, minlength=strong.n_blocks)
    if tuple(counts) != tuple(strong.multiplicities):
        raise AmbiguousClustering(
            f"eigenvalue group sizes {tuple(counts)} disagree with block "
            f"multiplicities {tuple(strong.multiplicities)}"
        )

    blocks = strong.projectors
    g = sum((vec * (assigned == k)) @ vec.conj().T @ p for k, p in enumerate(blocks))
    basis = block_basis(blocks)
    gv, min_sv = _block_restrictions(g, basis)
    smin = min_sv.min()
    if smin < SINGULAR_SV:
        raise SingularBlock(
            f"block restriction singular: min singular value {smin:.3e} < {SINGULAR_SV:.1e}"
        )
    u0 = _wave_from(gv, basis)
    defect = spectral_norm(riccati_rhs(np.asarray(h0, dtype=complex), u0, blocks))
    ic = BlochInitialCondition(
        kind="stationary", matrix=u0, stationarity_defect=defect
    )
    ic.validate(blocks)
    return ic


def riccati_rhs(h: np.ndarray, u: np.ndarray, blocks) -> np.ndarray:
    """Right-hand side ``H U - U Q(U)`` with ``Q(U) = sum_k P_k H U P_k``.

    Writing the nonlinear term through the block projection keeps the flow
    exactly tangent to the Bloch manifold: if ``P_k U P_k = P_k`` then
    ``P_k U' P_k = 0`` identically, and a Runge-Kutta step, whose stages
    stay on the manifold, keeps it up to roundoff.
    """
    hu = h @ u
    return hu - u @ block_project(hu, blocks)


@dataclass
class WaveOperatorPath:
    """The Bloch transformation sampled at checkpoints.

    ``basis`` is the frozen eigenbasis (:func:`block_basis`) the route worked
    in, which the diagnostics read the blocks off.  ``bloch_defects`` records
    ``max_k ‖P_k U P_k - P_k‖`` per checkpoint; no route re-projects onto the
    Bloch manifold, so it is the route's own error.  On blow-up the path is
    truncated and ``blowup_flag`` set.  ``stats`` holds the integrator's step
    statistics on the Riccati route.
    """

    t0: float
    times: np.ndarray
    matrices: np.ndarray
    basis: tuple
    bloch_defects: np.ndarray
    route: str
    blowup_flag: bool = False
    blowup_time: float | None = None
    diagnostics: dict = field(default_factory=dict)
    stats: dict | None = None

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]

    def deviation(self, norm: str = "spectral") -> np.ndarray:
        """Per-checkpoint ``‖U(t) - 1‖`` in the requested norm."""
        shifted = self.matrices - np.eye(self.matrices.shape[-1])
        if norm == "spectral":
            return spectral_norm(shifted)
        return np.linalg.norm(shifted, "fro", axis=(-2, -1))

    def sup_deviation(self, norm: str = "spectral") -> float:
        return float(np.max(self.deviation(norm)))

    def max_bloch_defect(self) -> float:
        return float(np.max(self.bloch_defects))


def _bloch_defect(u: np.ndarray, basis) -> float | np.ndarray:
    """``max_k ‖P_k U P_k - P_k‖`` (per matrix for a stack) as the slices
    ``‖into(U)[k, k] - 1‖`` in the frozen eigenbasis ``basis``."""
    uv, sets = basis[1](u), _index_sets(basis[0])
    return np.max([spectral_norm(uv[..., i[:, None], i] - np.eye(len(i))) for i in sets], axis=0)


def integrate_riccati(
    frame,
    ic: BlochInitialCondition | Sequence[BlochInitialCondition],
    t0: float,
    grid: np.ndarray,
    tol: float = 1e-10,
    max_step: float | None = None,
    blowup_norm: float = BLOWUP_NORM,
    defect_budget: float = DEFECT_BUDGET,
    m_path: PropagatorPath | None = None,
) -> WaveOperatorPath | list[WaveOperatorPath]:
    """Integrate the Riccati equation ``U' = H U - U Q(U)`` of a frame blockwise.

    The flow is integrated in the rotating frame of the frozen blocks, ``U =
    D Ur D†`` (see :mod:`blochwave.propagation`): ``D`` commutes with every
    ``P_k``, so ``Ur`` obeys the Riccati flow of the rotated drive, the
    ``gamma B`` terms cancel, and the Bloch condition and the norm, hence the
    event and the budget, carry over unchanged.  The right-hand side is
    exactly tangent to the Bloch manifold and a Runge-Kutta step keeps every
    invariant its stages keep, so the condition is never re-imposed: the
    recorded Bloch defect is the integration's own.  The path is truncated
    with ``blowup_flag`` set at the first checkpoint after ``t0`` whose
    Frobenius norm exceeds ``blowup_norm`` or whose defect exceeds
    ``defect_budget``, or where a terminal event monitoring the norm
    continuously fires first.

    Without ``m_path`` one adaptive pass covers the whole checkpoint grid.
    Handed the full evolution ``M``, a grid that fits :data:`MIN_WINDOWS`
    windows of :data:`WINDOW_STEPS` expected steps (:func:`_window_bounds`)
    is solved by parareal (:func:`_parareal`), the windows of a sweep in one
    lockstep solver call.  The expected step is ``M``'s mean accepted
    segment (:func:`_expected_step`), so every condition of a call gets the
    same windows, and more of them where the steps shrink with gamma.
    Every reported checkpoint still comes from an integration of the
    Riccati flow, so ``M`` only places the windows' starts and the path
    stays independent of it to within ``tol``.  A condition the windows do
    not serve is solved in one pass.

    A sequence of initial conditions is integrated in lockstep, in one
    solver call per sweep that asks for the frame once per step of all of
    them; each keeps its own windows, steps, event and truncation, so each
    path is bit for bit the one integrated alone.

    Args:
        frame: the adiabatic frame; its frozen projectors are the blocks.
        ic: a validated initial transformation, or a sequence of them.
        grid: two or more strictly increasing checkpoint times from ``t0``.
        m_path: the full evolution from ``t0``, at least at the checkpoints
            (the pipeline's ``M``); enables the windows, and its step
            statistics count them.

    Returns the :class:`WaveOperatorPath` of ``ic``, or a list of them for a
    sequence.  Its ``stats`` are summed over windows and sweeps, with the
    ``windows`` of the path, the ``sweeps`` run (a pass counts as one) and
    the largest jump ``max_jump`` of the last sweep (0 with no sweep).

    Raises:
        IntegratorFailure: on step underflow.
        BadInitialCondition: if an initial condition fails validation.
        ValueError: on a bad grid, or if ``m_path`` starts elsewhere than
            ``t0``.
    """
    grid = _checked_grid(grid, t0)
    single = isinstance(ic, BlochInitialCondition)
    ics = [ic] if single else list(ic)
    for condition in ics:
        condition.validate(frame.blocks)
    if m_path is not None and m_path.t0 != t0:
        raise ValueError("m_path must start at t0")
    if max_step is None:
        max_step = _estimate_max_step(frame.hamiltonian_at, t0, grid[-1])

    def rotated_rhs(h, z, same_block):
        # riccati_rhs in the frozen eigenbasis, where block_project is a mask
        hz = h @ z
        return hz - z @ (hz * same_block)

    to_states, rhs, back = _rotating_system(frame, rotated_rhs)
    size = ics[0].matrix.size

    def blowup_event(t, y):  # the Frobenius norm as np.linalg.norm takes it, without its checks
        u = y[:size]
        return math.sqrt(u.real.dot(u.real) + u.imag.dot(u.imag)) - blowup_norm

    def solve(starts, grids):
        states = list(to_states(np.stack(starts)))
        return solve_matrix_ivp(rhs, states, grids, tol, max_step=max_step, event=blowup_event)

    runs = [_Windows([]) for _ in ics]
    bounds = None if m_path is None else _window_bounds(grid, _expected_step(m_path, frame, max_step))
    if bounds is not None and len(bounds) > 2:
        runs = _parareal(solve, back, [c.matrix for c in ics], grid, bounds, m_path, frame.basis, tol)
    alone = [(run, condition.matrix) for run, condition in zip(runs, ics) if run.states is None]
    if alone:  # one pass over the whole grid
        for (run, _), sol in zip(alone, solve([u0 for _, u0 in alone], grid)):
            run.solves.append(sol)
            run.sweeps += 1
            run.states, run.event_time = np.ascontiguousarray(sol.y.T), sol.event_time

    paths = []
    for run, condition in zip(runs, ics):
        counts = [sol.stats() for sol in run.solves]  # summed over every solve of the condition
        stats = {key: sum(c[key] for c in counts) for key in ("nfev", "n_accepted", "n_rejected")}
        stats.update(max_step=max_step, windows=run.windows, sweeps=run.sweeps, max_jump=run.max_jump)
        mats = back(run.states)
        mats[0] = condition.matrix
        defects = _bloch_defect(mats, frame.basis)
        failed = (defects > defect_budget) | (np.linalg.norm(mats, axis=(-2, -1)) > blowup_norm)
        failed[0] = False  # the validated initial condition
        n = _first_true(failed)
        # the first failed checkpoint, else where the blow-up event fired (None if neither)
        blowup_time = float(grid[n]) if n < len(mats) else run.event_time
        paths.append(WaveOperatorPath(
            t0=t0, times=grid[:n].copy(), matrices=mats[:n], basis=frame.basis,
            bloch_defects=defects[:n], route="riccati", blowup_flag=blowup_time is not None,
            blowup_time=blowup_time, stats=stats,
        ))
    return paths[0] if single else paths


def _expected_step(m_path: PropagatorPath, frame, max_step: float) -> float:
    """The mean accepted segment of ``M`` over the span ``propagate``
    integrated (one period at most, for a path composed from one), never
    longer than ``max_step``; the cap itself when ``M`` has no statistics."""
    accepted = (m_path.stats or {}).get("n_accepted")
    span = m_path.times[-1] - m_path.t0
    if accepted and "periods" in m_path.stats:
        span = min(span, frame.period)
    return min(max_step, span / accepted) if accepted else max_step


def _window_bounds(grid: np.ndarray, step: float) -> np.ndarray:
    """The checkpoint indices that cut ``grid`` into windows of about equal
    checkpoint counts: as many as fit :data:`WINDOW_STEPS` expected steps
    ``step`` each, at most :data:`MAX_WINDOWS` and one per interval; one if
    under :data:`MIN_WINDOWS`."""
    intervals = len(grid) - 1
    count = min(MAX_WINDOWS, intervals, int((grid[-1] - grid[0]) // (WINDOW_STEPS * step)))
    count = count if count >= MIN_WINDOWS else 1
    return np.rint(np.linspace(0, intervals, count + 1)).astype(int)


class _Windows:
    """One initial condition's window starts, the solve of each, all its
    solves, and its path (``states``, ``event_time``) once assembled."""

    def __init__(self, starts):
        self.starts, self.fine, self.solves = starts, [None] * len(starts), []
        self.states = self.event_time = None
        self.windows, self.sweeps, self.max_jump = 1, 0, 0.0


def _parareal(solve, back, ics, grid, bounds, m_path, basis, tol) -> list:
    """Parareal over the windows ``grid[bounds[n] : bounds[n + 1] + 1]`` for
    each initial matrix of ``ics``, in the frame's frozen eigenbasis ``basis``.

    The fine map ``F`` is ``solve(starts, grids)``, the Riccati flow from
    each start over its window, all in one lockstep call (``back`` maps its
    states to matrices); the coarse map ``G`` is the closed form through
    ``M(t_{n+1}) M(t_n)†``.  Sweep 0 starts the windows from the closed form
    of ``M(t_n)``; a correction sets ``U_{n+1} = F(U_n^old) + G(U_n^new) -
    G(U_n^old)`` and re-solves only the windows whose start moved.  A
    condition has converged once no window in use starts from the closed
    form and each starts within ``tol`` (spectral norm) of its predecessor's
    integrated end.  Its path is the windows' checkpoints, a window's first
    being its predecessor's end, up to the first window whose event fired.

    Returns one :class:`_Windows` per condition, with ``states`` left
    ``None`` where the closed form truncates at a window start (as
    :func:`closed_form_wave` does), :data:`MAX_SWEEPS` sweeps did not
    converge or a sweep failed.
    """
    grids = [grid[a : b + 1] for a, b in zip(bounds[:-1], bounds[1:])]
    m = m_path.at(grid[bounds])
    flows = m[1:] @ m[:-1].conj().swapaxes(-1, -2)  # M(t_{n+1}) M(t_n)†, one per window

    def coarse(n, u):  # the closed form of window n (or of a stack of them) from u
        return _wave_from(basis[1](flows[n] @ u), basis)

    runs = []
    for u0 in ics:  # sweep 0 starts from the closed form M(t_n) U0 [...]^-1
        gv, min_sv = _block_restrictions(stack_product(m[1:-1], u0), basis)
        if min_sv.min() < EXISTENCE_SV:
            runs.append(_Windows([]))
        else:
            runs.append(_Windows(np.concatenate([u0[None], _wave_from(gv, basis)])))

    live = [run for run in runs if run.fine]
    for sweep in range(MAX_SWEEPS):
        if not live:
            break
        todo = [(run, n) for run in live for n, sol in enumerate(run.fine) if sol is None]
        try:
            sols = solve([run.starts[n] for run, n in todo], [grids[n] for _, n in todo])
        except IntegratorFailure:  # left to the one pass
            return runs
        for (run, n), sol in zip(todo, sols):
            run.fine[n] = sol
            run.solves.append(sol)
        for run in list(live):
            run.sweeps += 1
            # the windows up to the first whose event fired; later ones are moot
            fired = [n for n, sol in enumerate(run.fine) if sol.event_time is not None]
            last = fired[0] if fired else len(grids) - 1
            ends = back(np.stack([sol.y[:, -1] for sol in run.fine[: last + 1]]))[:last]
            run.max_jump = float(np.max(spectral_norm(ends - run.starts[1 : last + 1]), initial=0))
            if (sweep or not last) and run.max_jump <= tol:  # converged
                states = [run.fine[0].y.T] + [sol.y.T[1:] for sol in run.fine[1 : last + 1]]
                run.states = np.ascontiguousarray(np.concatenate(states))
                run.event_time, run.windows = run.fine[last].event_time, len(grids)
                live.remove(run)
                continue
            # the correction; a start that did not move keeps its fine solve
            old, new = run.starts, run.starts.copy()
            before = coarse(np.arange(last), old[:last])
            for n in range(last):
                moved = not np.array_equal(new[n], old[n])
                new[n + 1] = ends[n] + (coarse(n, new[n]) - before[n]) if moved else ends[n]
                if not np.array_equal(new[n + 1], old[n + 1]):
                    run.fine[n + 1] = None
            run.starts = new
    return runs


def _index_sets(labels: np.ndarray) -> list:
    """The indices of each block in a frozen eigenbasis, from its labels."""
    return [np.flatnonzero(labels == k) for k in range(labels.max() + 1)]


def _block_restrictions(g: np.ndarray, basis):
    """``into(G)`` in the frozen eigenbasis ``basis`` (:func:`block_basis`)
    and the smallest singular value of each ``P_k G P_k``, the slice of
    ``into(G)`` on block ``k``'s indices (last axis: the blocks)."""
    gv = basis[1](g)
    restricted = [gv[..., ix[:, None], ix] for ix in _index_sets(basis[0])]
    return gv, np.stack([np.linalg.svd(r, compute_uv=False)[..., -1] for r in restricted], axis=-1)


def restrict(m_path: PropagatorPath, ic: BlochInitialCondition, basis) -> tuple:
    """``(basis, into(G), min_sv)`` of :func:`_block_restrictions` for ``G = M
    U(t0)`` in the frozen eigenbasis ``basis``: what the closed form and
    ``M_eff`` share, taken once per run."""
    return (basis, *_block_restrictions(stack_product(m_path.matrices, ic.matrix), basis))


def _wave_from(gv: np.ndarray, basis) -> np.ndarray:
    """``sum_k G P_k [P_k G P_k]^{-1}`` for ``G`` or each matrix of a stack,
    from ``into(G)`` in the frozen eigenbasis ``basis``: the wave operator
    that ``G = M U0`` carries ``U0`` to.  Block ``k``'s columns of
    ``into(U)`` are those of ``into(G)`` times its inverse restriction."""
    labels, _, out_of = basis
    u = np.empty_like(gv)
    for ix in _index_sets(labels):
        u[..., ix] = gv[..., ix] @ np.linalg.inv(gv[..., ix[:, None], ix])
    return out_of(u)


def _first_true(flags: np.ndarray) -> int:
    """Index of the first set flag, or ``len(flags)`` when none is set."""
    return int(np.argmax(flags)) if flags.any() else len(flags)


def _algebraic_path(m_path, ic, u, basis, route, **fields) -> WaveOperatorPath:
    """The path of ``U`` at ``M``'s checkpoints up to where it ceased to
    exist, blown up there; ``M(t0) = 1``, so ``U(t0)`` is the initial condition."""
    n = len(u)
    u[:1] = ic.matrix
    flagged = n < len(m_path.times)
    return WaveOperatorPath(
        t0=m_path.t0, times=m_path.times[:n].copy(), matrices=u, basis=basis,
        bloch_defects=_bloch_defect(u, basis), route=route, blowup_flag=flagged,
        blowup_time=float(m_path.times[n]) if flagged else None, **fields,
    )


def closed_form_wave(
    m_path: PropagatorPath,
    ic: BlochInitialCondition,
    blocks,
    sv_tol: float = EXISTENCE_SV,
    restricted: tuple | None = None,
) -> WaveOperatorPath:
    """Wave operator from the full evolution:
    ``U_k(t) = M(t) U_k(t0) [P_k M(t) U_k(t0) P_k]^{-1}``.

    The block pseudo-inverse exists as long as the block restriction of
    ``M(t) U(t0)`` keeps its smallest singular value above ``sv_tol``.  Where
    it fails the path is truncated and flagged as blown up -- the solution
    ceases to exist there.  Those singular values, the existence
    certificate, are :attr:`EffectiveEvolutionPath.block_min_sv` of the same
    inputs.  ``restricted`` is :func:`restrict` of the same inputs.
    """
    ic.validate(blocks)
    basis, gv, block_sv = restricted or restrict(m_path, ic, block_basis(blocks))
    n = _first_true(block_sv.min(axis=1) < sv_tol)
    return _algebraic_path(m_path, ic, _wave_from(gv[:n], basis), basis, "closed_form")


def radon_wave(
    m_path: PropagatorPath,
    ic: BlochInitialCondition,
    blocks,
    sv_tol: float = EXISTENCE_SV,
) -> WaveOperatorPath:
    """Wave operator through the linearization of the Riccati equation.

    Builds the auxiliary operator ``Pi_k(t) = P_k M(t) U_k(t0) P_k + (1-P_k)``
    and returns ``U_k(t) = M(t) U_k(t0) P_k Pi_k^{-1}(t)`` with a full (not
    pseudo) inverse.  ``Pi_k`` must be block-diagonal with respect to the
    frozen family; its worst off-block residue is verified per checkpoint and
    recorded under ``diagnostics['pi_offblock_defect']`` as a self-check.

    Truncates with ``blowup_flag`` where ``cond(Pi_k)`` exceeds ``1/sv_tol``.
    """
    ic.validate(blocks)
    blocks = tuple(np.asarray(p, dtype=complex) for p in blocks)
    basis = block_basis(blocks)
    g = stack_product(m_path.matrices, ic.matrix)
    eye = np.eye(blocks[0].shape[0], dtype=complex)
    pis = np.stack([stack_product(g, p, p) + (eye - p) for p in blocks])  # (block, time)
    s = np.linalg.svd(pis, compute_uv=False)
    n = _first_true(((s[..., 0] > s[..., -1] / sv_tol) | (s[..., -1] == 0.0)).any(axis=0))

    # U = sum_k G P_k Pi_k^-1, each term solved as Pi_k^T X^T = (G P_k)^T
    gp = np.stack([stack_product(g[:n], p) for p in blocks]).swapaxes(-1, -2)
    u = np.linalg.solve(pis[:, :n].swapaxes(-1, -2), gp).swapaxes(-1, -2).sum(axis=0)
    offblock = float(np.max(offblock_norm(pis[:, :n], basis), initial=0.0))
    return _algebraic_path(m_path, ic, u, basis, "radon", diagnostics={"pi_offblock_defect": offblock})


@dataclass
class EffectiveEvolutionPath:
    """Block-diagonal effective evolution ``M_k(t) = P_k M(t) U(t0) P_k``.

    Generally not unitary; instead of unitarity defects it carries the
    per-block smallest singular values of the block restrictions, whose
    vanishing is the loss of invertibility (blow-up of the wave operator).
    """

    t0: float
    times: np.ndarray
    matrices: np.ndarray
    block_min_sv: np.ndarray  # (n_times, n_blocks)


def bloch_effective_evolution(
    m_path: PropagatorPath,
    ic: BlochInitialCondition,
    blocks,
    restricted: tuple | None = None,
) -> EffectiveEvolutionPath:
    """The effective diagonal evolution ``sum_k P_k M(t) U(t0) P_k``, the
    block-diagonal mask of ``into(M U(t0))``; ``restricted`` is
    :func:`restrict` of the same inputs."""
    (labels, _, out_of), gv, min_sv = restricted or restrict(m_path, ic, block_basis(blocks))
    matrices = out_of(gv * (labels[:, None] == labels))
    return EffectiveEvolutionPath(m_path.t0, m_path.times.copy(), matrices, block_min_sv=min_sv)


def effective_generator(
    h: np.ndarray,
    u: np.ndarray,
    u_dot: np.ndarray,
) -> np.ndarray:
    """Canonical effective generator ``H_eff = U^{-1} H U - U^{-1} U'``.

    When ``U`` solves the Bloch equation the output is block-diagonal with
    respect to the frozen family (verified in tests, not enforced here).

    Raises:
        SingularBlock: if ``U`` has a singular value below :data:`SINGULAR_SV`.
    """
    u = np.asarray(u, dtype=complex)
    smin = np.linalg.svd(u, compute_uv=False)[-1]
    if smin < SINGULAR_SV:
        raise SingularBlock(
            f"transformation not invertible: min singular value {smin:.3e}"
        )
    return np.linalg.solve(u, h @ u - u_dot)


def zeno_generator(h: np.ndarray, blocks) -> np.ndarray:
    """First-order block-diagonal effective generator ``sum_k P_k H P_k``."""
    return block_project(h, blocks)
