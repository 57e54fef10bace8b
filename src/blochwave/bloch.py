"""Bloch wave operators: initial conditions, three independent solution
routes, effective evolutions and generators, and blow-up detection.

The wave operator ``U(t)`` satisfies the Bloch condition
``P_k U(t) P_k = P_k`` inside every frozen block and obeys the nonlinear
operator Riccati equation ``U'_k = H U_k - U_k H U_k`` per block.  Three
routes compute it:

* direct integration of the Riccati equation (:func:`integrate_riccati`);
* the closed form ``U_k = M U_k(t0) [P_k M U_k(t0) P_k]^{-1}`` through block
  pseudo-inverses of the full evolution (:func:`closed_form_wave`);
* the linearization route through the block-diagonal auxiliary operator
  ``Pi_k = P_k M U_k(t0) P_k + (1 - P_k)`` and its full inverse
  (:func:`radon_wave`).

Route agreement is the package's primary correctness oracle.  The smallest
block singular value recorded along the way is the existence certificate:
the solution blows up exactly where a block of ``M U(t0)`` loses rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguousClustering,
    BadInitialCondition,
    BlowUp,
    SingularBlock,
)
from .operators import (
    SpectralDecomposition,
    _range_basis,
    block_project,
    block_pseudo_inverse,
    offblock_norm,
    require_skew_hermitian,
    spectral_norm,
)
from .propagation import PropagatorPath, _estimate_max_step, solve_matrix_ivp

__all__ = [
    "BlochInitialCondition",
    "WaveOperatorPath",
    "EffectiveEvolutionPath",
    "identity_ic",
    "stationary_ic",
    "custom_ic",
    "riccati_rhs",
    "integrate_riccati",
    "closed_form_wave",
    "radon_wave",
    "bloch_effective_evolution",
    "effective_generator",
    "zeno_generator",
]

#: default validation tolerance for initial conditions
IC_TOL = 1e-8

#: wave-operator norm beyond which the solution counts as blown up
BLOWUP_NORM = 1e6

#: default budget for the monitored Bloch-condition defect along integration
DEFECT_BUDGET = 1e-6


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

    def validate(self, blocks, tol: float = IC_TOL) -> None:
        """Check the Bloch condition and unitarization compatibility.

        Raises:
            BadInitialCondition: if ``P_k U0 P_k != P_k`` or ``U0†U0`` fails
                to commute with some block beyond ``tol``.
        """
        u0 = self.matrix
        gram = u0.conj().T @ u0
        for k, p in enumerate(blocks):
            bloch = spectral_norm(p @ u0 @ p - p)
            if bloch > tol:
                raise BadInitialCondition(
                    f"initial condition violates the Bloch condition on block "
                    f"{k}: defect {bloch:.3e} > {tol:.1e}"
                )
            comm = spectral_norm(gram @ p - p @ gram)
            if comm > tol:
                raise BadInitialCondition(
                    f"U0†U0 does not commute with block {k}: "
                    f"defect {comm:.3e} > {tol:.1e}"
                )


def identity_ic(blocks) -> BlochInitialCondition:
    """The identity initial condition ``U(t0) = 1``."""
    dim = blocks[0].shape[0]
    return BlochInitialCondition(kind="identity", matrix=np.eye(dim, dtype=complex))


def custom_ic(u0: np.ndarray, blocks, tol: float = IC_TOL) -> BlochInitialCondition:
    """Wrap a user-supplied ``U(t0)``, validating it against the blocks."""
    ic = BlochInitialCondition(kind="custom", matrix=np.asarray(u0, dtype=complex))
    ic.validate(blocks, tol)
    return ic


def stationary_ic(
    h0: np.ndarray,
    strong: SpectralDecomposition,
    gamma: float,
    sv_tol: float = 1e-12,
    ambiguity_factor: float = 0.25,
) -> BlochInitialCondition:
    """Solution of the time-independent Bloch problem at the initial time.

    Builds the spectral projector of ``H(t0)`` onto the eigenvalue group
    nearest ``gamma * b_k(t0)`` for each block and returns
    ``U0 = sum_k Ptilde_k P_k [P_k Ptilde_k P_k]^{-1}``, whose Riccati
    derivative vanishes for the frozen-generator problem.

    Eigenvalues of ``H(t0)`` are assigned to blocks by nearest target, with an
    ambiguity margin of ``ambiguity_factor * gamma * (min block gap)``.

    Raises:
        AmbiguousClustering: if some eigenvalue sits farther from every
            target than the margin, or group sizes disagree with block
            multiplicities (both mean gamma is too small for the
            perturbative picture).
        SingularBlock: if some ``P_k Ptilde_k P_k`` is not invertible on its
            block.
    """
    require_skew_hermitian(h0, what="stationary-ic Hamiltonian")
    lam, vec = np.linalg.eigh(-1j * np.asarray(h0, dtype=complex))
    targets = gamma * strong.eigenvalues.imag
    margin = ambiguity_factor * gamma * strong.min_gap()

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

    dim = strong.dim
    u0 = np.zeros((dim, dim), dtype=complex)
    for k, p in enumerate(strong.projectors):
        cols = vec[:, assigned == k]
        ptilde = cols @ cols.conj().T
        inv_block = block_pseudo_inverse(ptilde, p, sv_tol)
        u0 += ptilde @ inv_block

    blocks = strong.projectors
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
    ``P_k U' P_k = 0`` identically, so the condition drifts only by
    integration error.
    """
    hu = h @ u
    return hu - u @ block_project(hu, blocks)


@dataclass
class WaveOperatorPath:
    """The Bloch transformation sampled at checkpoints.

    ``bloch_defects`` records ``max_k ‖P_k U P_k - P_k‖`` per checkpoint as
    observed *before* any manifold re-projection, so the correction magnitude
    stays auditable.  ``min_block_sv`` is the per-checkpoint existence
    certificate (smallest block singular value of ``M U(t0)``); it is only
    available from the routes that see the full evolution.  On blow-up the
    path is truncated and ``blowup_flag`` set.
    """

    t0: float
    times: np.ndarray
    matrices: np.ndarray
    blocks: tuple[np.ndarray, ...]
    bloch_defects: np.ndarray
    route: str
    min_block_sv: np.ndarray | None = None
    blowup_flag: bool = False
    blowup_time: float | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]

    def deviation(self, norm: str = "spectral") -> np.ndarray:
        """Per-checkpoint ``‖U(t) - 1‖`` in the requested norm."""
        ord_ = 2 if norm == "spectral" else "fro"
        return np.linalg.norm(self.matrices - np.eye(self.dim), ord_, axis=(-2, -1))

    def sup_deviation(self, norm: str = "spectral") -> float:
        return float(np.max(self.deviation(norm)))

    def final_deviation(self, norm: str = "spectral") -> float:
        eye = np.eye(self.dim)
        ord_ = 2 if norm == "spectral" else "fro"
        return float(np.linalg.norm(self.final - eye, ord_))

    def max_bloch_defect(self) -> float:
        return float(np.max(self.bloch_defects))


def _bloch_defect(u: np.ndarray, blocks) -> float | np.ndarray:
    """``max_k ‖P_k U P_k - P_k‖``, per matrix for a stack."""
    return np.max([spectral_norm(p @ u @ p - p) for p in blocks], axis=0)


def _reprojected(u: np.ndarray, blocks) -> np.ndarray:
    """Exact re-imposition of the Bloch condition: ``P_k U P_k <- P_k``."""
    out = u.copy()
    for p in blocks:
        out += p - p @ u @ p
    return out


def integrate_riccati(
    hamiltonian,
    ic: BlochInitialCondition,
    blocks,
    t0: float,
    grid: np.ndarray,
    tol: float = 1e-10,
    max_step: float | None = None,
    reproject: bool = True,
    blowup_norm: float = BLOWUP_NORM,
    defect_budget: float = DEFECT_BUDGET,
    raise_on_blowup: bool = False,
) -> WaveOperatorPath:
    """Integrate the Riccati equation ``U' = H U - U Q(U)`` blockwise.

    Integration proceeds checkpoint to checkpoint; at each checkpoint the
    Bloch defect is recorded and, with ``reproject`` on (the default), the
    condition is re-imposed exactly before continuing.  The path is truncated
    with ``blowup_flag`` set if the solution norm exceeds ``blowup_norm``
    (Frobenius, monitored continuously through a terminal event) or the
    monitored defect exceeds ``defect_budget``.

    Args:
        hamiltonian: callable ``t -> H(t)`` (skew-Hermitian frame generator).
        ic: validated initial transformation.
        blocks: frozen projectors ``P_k(t0)``.
        grid: strictly increasing checkpoint times starting at ``t0``.

    Raises:
        IntegratorFailure: on step underflow.
        BadInitialCondition: if ``ic`` fails validation.
        BlowUp: only when ``raise_on_blowup`` is set.
    """
    grid = np.asarray(grid, dtype=float)
    if grid[0] != t0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must start at t0 and strictly increase")
    ic.validate(blocks)
    blocks = tuple(np.asarray(p, dtype=complex) for p in blocks)

    if max_step is None:
        max_step = _estimate_max_step(hamiltonian, t0, grid[-1])

    def rhs(t, u):
        return riccati_rhs(hamiltonian(t), u, blocks)

    def blowup_event(t, y):
        return float(np.linalg.norm(y) - blowup_norm)

    blowup_event.terminal = True
    blowup_event.direction = 1.0

    u = ic.matrix.copy()
    times = [grid[0]]
    mats = [u.copy()]
    defects = [_bloch_defect(u, blocks)]
    blowup = False
    blowup_time = None

    for i in range(len(grid) - 1):
        seg = grid[i : i + 2]
        sol = solve_matrix_ivp(
            rhs, u, seg, tol, max_step=max_step, events=[blowup_event]
        )
        if sol.status == 1:  # terminated by the blow-up event
            blowup = True
            blowup_time = float(sol.t_events[0][0])
            break
        u = sol.y[:, -1].reshape(u.shape)
        defect = _bloch_defect(u, blocks)
        if defect > defect_budget or np.linalg.norm(u) > blowup_norm:
            blowup = True
            blowup_time = float(seg[1])
            break
        times.append(seg[1])
        defects.append(defect)
        if reproject:
            u = _reprojected(u, blocks)
        mats.append(u.copy())

    if blowup and raise_on_blowup:
        raise BlowUp(f"wave operator left the invertibility region near t={blowup_time:g}")

    return WaveOperatorPath(
        t0=t0,
        times=np.array(times),
        matrices=np.array(mats),
        blocks=blocks,
        bloch_defects=np.array(defects),
        route="riccati",
        blowup_flag=blowup,
        blowup_time=blowup_time,
    )


def _block_restrictions(m_path: PropagatorPath, ic: BlochInitialCondition, blocks):
    """The block algebra shared by the routes that see the full evolution.

    Returns ``G = M(t) U0`` over the checkpoint stack, each frozen block's
    range basis ``Q_k``, the restrictions ``Q_k† G Q_k`` and their singular
    values (descending, one row per checkpoint).
    """
    g = m_path.matrices @ ic.matrix
    bases = [_range_basis(p) for p in blocks]
    restricted = [q.conj().T @ g @ q for q in bases]
    svs = [np.linalg.svd(r, compute_uv=False) for r in restricted]
    return g, bases, restricted, svs


def _first_true(flags: np.ndarray) -> int:
    """Index of the first set flag, or ``len(flags)`` when none is set."""
    return int(np.argmax(flags)) if flags.any() else len(flags)


def closed_form_wave(
    m_path: PropagatorPath,
    ic: BlochInitialCondition,
    blocks,
    sv_tol: float = 1e-8,
) -> WaveOperatorPath:
    """Wave operator from the full evolution:
    ``U_k(t) = M(t) U_k(t0) [P_k M(t) U_k(t0) P_k]^{-1}``.

    The block pseudo-inverse exists as long as the block restriction of
    ``M(t) U(t0)`` keeps its smallest singular value above ``sv_tol``; the
    recorded ``min_block_sv`` is that existence certificate.  Where it fails
    the path is truncated and flagged as blown up -- the solution ceases to
    exist there.
    """
    ic.validate(blocks)
    blocks = tuple(np.asarray(p, dtype=complex) for p in blocks)
    g, bases, restricted, svs = _block_restrictions(m_path, ic, blocks)
    min_sv = np.min([s[:, -1] for s in svs], axis=0)
    n = _first_true(min_sv < sv_tol)

    u = np.zeros_like(g[:n])
    for q, r in zip(bases, restricted):
        u += g[:n] @ (q @ np.linalg.inv(r[:n]) @ q.conj().T)

    return WaveOperatorPath(
        t0=m_path.t0,
        times=m_path.times[:n].copy(),
        matrices=u,
        blocks=blocks,
        bloch_defects=_bloch_defect(u, blocks),
        route="closed_form",
        min_block_sv=min_sv[:n],
        blowup_flag=n < len(g),
        blowup_time=float(m_path.times[n]) if n < len(g) else None,
    )


def radon_wave(
    m_path: PropagatorPath,
    ic: BlochInitialCondition,
    blocks,
    sv_tol: float = 1e-8,
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
    g, _, _, svs = _block_restrictions(m_path, ic, blocks)
    eye = np.eye(blocks[0].shape[0], dtype=complex)

    pis = [p @ g @ p + (eye - p) for p in blocks]
    failed = np.zeros(len(g), dtype=bool)
    for pi in pis:
        s = np.linalg.svd(pi, compute_uv=False)
        failed |= (s[:, 0] > s[:, -1] / sv_tol) | (s[:, -1] == 0.0)
    n = _first_true(failed)

    u = np.zeros_like(g[:n])
    offblock = [0.0]
    for p, pi in zip(blocks, pis):
        offblock.extend(offblock_norm(pi[:n], blocks))
        u += np.linalg.solve(
            pi[:n].swapaxes(-1, -2), (g[:n] @ p).swapaxes(-1, -2)
        ).swapaxes(-1, -2)

    return WaveOperatorPath(
        t0=m_path.t0,
        times=m_path.times[:n].copy(),
        matrices=u,
        blocks=blocks,
        bloch_defects=_bloch_defect(u, blocks),
        route="radon",
        min_block_sv=np.min([s[:n, -1] for s in svs], axis=0),
        blowup_flag=n < len(g),
        blowup_time=float(m_path.times[n]) if n < len(g) else None,
        diagnostics={"pi_offblock_defect": float(max(offblock))},
    )


@dataclass
class EffectiveEvolutionPath:
    """Block-diagonal effective evolution ``M_k(t) = P_k M(t) U(t0) P_k``.

    Generally not unitary; instead of unitarity defects it carries per-block
    condition numbers and smallest singular values of the block restrictions.
    The latter vanishing is the loss of invertibility (blow-up of the wave
    operator); the former captures ill-conditioning inside degenerate blocks.
    """

    t0: float
    times: np.ndarray
    matrices: np.ndarray
    block_conditions: np.ndarray  # (n_times, n_blocks)
    block_min_sv: np.ndarray  # (n_times, n_blocks)

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]

    def max_block_condition(self) -> float:
        return float(np.max(self.block_conditions))

    def invertible(self, sv_tol: float = 1e-8) -> bool:
        return bool(np.all(self.block_min_sv >= sv_tol))


def bloch_effective_evolution(
    m_path: PropagatorPath,
    ic: BlochInitialCondition,
    blocks,
) -> EffectiveEvolutionPath:
    """The effective diagonal evolution ``sum_k P_k M(t) U(t0) P_k``."""
    blocks = tuple(np.asarray(p, dtype=complex) for p in blocks)
    g, _, _, svs = _block_restrictions(m_path, ic, blocks)
    s_max = np.stack([s[:, 0] for s in svs], axis=1)
    s_min = np.stack([s[:, -1] for s in svs], axis=1)
    return EffectiveEvolutionPath(
        t0=m_path.t0,
        times=m_path.times.copy(),
        matrices=block_project(g, blocks),
        block_conditions=np.divide(
            s_max, s_min, out=np.full_like(s_max, np.inf), where=s_min != 0.0
        ),
        block_min_sv=s_min,
    )


def effective_generator(
    h: np.ndarray,
    u: np.ndarray,
    u_dot: np.ndarray,
    sv_tol: float = 1e-12,
) -> np.ndarray:
    """Canonical effective generator ``H_eff = U^{-1} H U - U^{-1} U'``.

    When ``U`` solves the Bloch equation the output is block-diagonal with
    respect to the frozen family (verified in tests, not enforced here).

    Raises:
        SingularBlock: if ``U`` is not invertible within ``sv_tol``.
    """
    u = np.asarray(u, dtype=complex)
    smin = np.linalg.svd(u, compute_uv=False)[-1]
    if smin < sv_tol:
        raise SingularBlock(
            f"transformation not invertible: min singular value {smin:.3e}"
        )
    return np.linalg.solve(u, h @ u - u_dot)


def zeno_generator(h: np.ndarray, blocks) -> np.ndarray:
    """First-order block-diagonal effective generator ``sum_k P_k H P_k``."""
    return block_project(h, blocks)
