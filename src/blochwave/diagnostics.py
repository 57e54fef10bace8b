"""Leakage measurement, certified bounds, and polar unitarization.

The central inequalities (all consequences of a uniform bound
``‖U(t) - 1‖ <= delta < 1`` on the wave operator):

* ``‖M(t) - M_eff(t)‖ <= 2*delta / (1 - delta)`` -- the leakage bound;
* ``‖U†U - 1‖ <= 2*delta + delta²``;
* ``‖V(t) - 1‖ <= (1 + delta)/sqrt(1 - 2*delta - delta²) - 1`` for the polar
  unitarization ``V = U (U†U)^{-1/2}``.

These are theorems: :func:`distance_report` raises :class:`BoundViolated`
when a measured distance exceeds its bound beyond numerical noise, because
that can only mean a solver defect.

Spectral norm is the default for all bound checks (the derivations use
submultiplicativity, valid there); Frobenius norms are reported alongside
because the long-horizon scaling studies plot them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import IC_TOL, SINGULAR_SV, EffectiveEvolutionPath, WaveOperatorPath
from .errors import BadInitialCondition, BoundViolated, OutOfRange, SingularBlock
from .operators import block_basis, offblock_norm, spectral_norm, stack_product
from .propagation import PropagatorPath

__all__ = [
    "LeakageReport",
    "UnitarizedPath",
    "leakage",
    "leakage_bound",
    "v_bound",
    "unitarize",
    "distance_report",
]

#: numerical noise: how far a distance may exceed its theorem bound
NOISE = 1e-12


def leakage(m_path: PropagatorPath, blocks, norm: str = "spectral") -> np.ndarray:
    """Per-block leakage: ``sup_t ‖(1 - P_k) M(t) P_k‖`` over checkpoints.

    Unitary invariance makes this frame-independent: computed from the
    lab-frame evolution with moving projectors or from the frame evolution
    with frozen ones, the values agree (verified in tests for the spectral
    and Frobenius norms).
    """
    ord_ = 2 if norm == "spectral" else "fro"
    return _leakage_trace(m_path.matrices, block_basis(blocks), ord_).max(axis=0)


def _leakage_trace(matrices: np.ndarray, basis, ord_=2) -> np.ndarray:
    """``‖(1 - P_k) M P_k‖`` per matrix of a stack (rows) and block (columns;
    one row for one matrix): the norm of the slice ``into(M)[¬k, k]`` in the
    frozen eigenbasis ``basis`` (:func:`~blochwave.operators.block_basis`)."""
    labels, into, _ = basis
    mv = into(matrices)
    norm = spectral_norm if ord_ == 2 else lambda x: np.linalg.norm(x, ord_, axis=(-2, -1))
    slices = [mv[..., labels != k, :][..., labels == k] for k in range(labels.max() + 1)]
    return np.stack([norm(x) for x in slices], axis=-1)


def leakage_bound(delta: float) -> float:
    """The bound ``2*delta / (1 - delta)`` on ``‖M - M_eff‖``.

    Raises:
        OutOfRange: unless ``0 <= delta < 1`` (the bound is vacuous beyond).
    """
    if not 0.0 <= delta < 1.0:
        raise OutOfRange(f"leakage bound needs 0 <= delta < 1, got {delta:.6g}")
    return 2.0 * delta / (1.0 - delta)


def v_bound(delta: float) -> float:
    """The bound ``(1+delta)/sqrt(1 - 2*delta - delta²) - 1`` on ``‖V - 1‖``.

    Raises:
        OutOfRange: unless ``delta >= 0`` and ``2*delta + delta² < 1``.
    """
    if delta < 0.0 or 2.0 * delta + delta * delta >= 1.0:
        raise OutOfRange(
            f"unitarization bound needs 2*delta + delta^2 < 1, got delta={delta:.6g}"
        )
    return (1.0 + delta) / np.sqrt(1.0 - 2.0 * delta - delta * delta) - 1.0


@dataclass
class UnitarizedPath:
    """Polar unitarization ``V(t) = U(t) [U†(t) U(t)]^{-1/2}`` at checkpoints.

    ``gram_offblock_defect`` is the worst off-block residue of ``U†U`` (which
    must stay block-diagonal for compatible initial conditions);
    ``conjugated_offblock_defect`` is the same for ``V†(t) M(t) V(t0)`` when a
    full evolution was supplied -- the statement that the unitarized frame
    block-diagonalizes the evolution.
    """

    t0: float
    times: np.ndarray
    matrices: np.ndarray
    unitarity_defects: np.ndarray
    gram_offblock_defect: float
    conjugated_offblock_defect: float | None = None

    deviation = WaveOperatorPath.deviation

    def max_unitarity_defect(self) -> float:
        return float(np.max(self.unitarity_defects))


def unitarize(u_path: WaveOperatorPath, m_path: PropagatorPath | None = None) -> UnitarizedPath:
    """Unitarize a wave-operator path by polar decomposition, blocks being
    those of its frozen eigenbasis ``u_path.basis``.

    The inverse square root of the Hermitian positive matrix ``U†U`` is taken
    through its eigendecomposition with an eigenvalue floor of
    :data:`~blochwave.bloch.SINGULAR_SV` ``²``
    (raising :class:`SingularBlock` below it, since ``U`` would not be
    invertible there).

    Args:
        m_path: optional full evolution on the same grid; when given, the
            off-block defect of ``V†(t) M(t) V(t0)`` is measured and recorded.

    Raises:
        BadInitialCondition: if ``U†(t0) U(t0)`` fails to commute with some
            block beyond :data:`~blochwave.bloch.IC_TOL` (the compatibility
            condition for the construction).  For the Hermitian ``G = U0†U0``,
            ``‖[G, P_k]‖ = ‖(1 - P_k) G P_k‖``, block ``k``'s leakage mask.
        SingularBlock: if ``U`` loses invertibility along the path.
    """
    basis, u0 = u_path.basis, u_path.matrices[0]
    commutators = _leakage_trace(u0.conj().T @ u0, basis)
    if commutators.max() > IC_TOL:
        k = int(np.argmax(commutators > IC_TOL))
        raise BadInitialCondition(
            f"[U0†U0, P_{k}] = {commutators[k]:.3e} > {IC_TOL:.1e}; initial condition "
            "incompatible with unitarization"
        )

    us = u_path.matrices
    grams = us.conj().swapaxes(-1, -2) @ us
    w, q = np.linalg.eigh(grams)
    floor = w[:, 0] < SINGULAR_SV**2
    if floor.any():
        raise SingularBlock(
            f"U†U eigenvalue {w[np.argmax(floor), 0]:.3e} below floor {SINGULAR_SV**2:.1e}; "
            "transformation not invertible"
        )
    vs = us @ ((q * (1.0 / np.sqrt(w))[:, None, :]) @ q.conj().swapaxes(-1, -2))

    conjugated = None
    if m_path is not None:
        n = len(u_path.times)
        if len(m_path.times) < n or not np.array_equal(m_path.times[:n], u_path.times):
            raise ValueError("m_path grid does not cover the wave-operator grid")
        conjugated = vs.conj().swapaxes(-1, -2) @ m_path.matrices[:n]
        conjugated = float(np.max(offblock_norm(stack_product(conjugated, vs[0]), basis)))

    return UnitarizedPath(
        t0=u_path.t0,
        times=u_path.times.copy(),
        matrices=vs,
        unitarity_defects=spectral_norm(vs.conj().swapaxes(-1, -2) @ vs - np.eye(u_path.dim)),
        gram_offblock_defect=float(np.max(offblock_norm(grams, basis))),
        conjugated_offblock_defect=conjugated,
    )


@dataclass
class LeakageReport:
    """Certified long-time leakage summary of one run.

    ``bound_leakage = 2*delta/(1-delta)`` uses ``delta = delta_spectral`` and is
    infinite (with ``delta_in_range`` false) when ``delta >= 1``; similarly
    ``bound_v`` requires ``2*delta + delta² < 1``.  ``grid`` records the
    checkpoints over which every supremum was taken, so the numbers are
    reproducible.  ``leakage`` holds ``‖(1 - P_k) M(t) P_k‖`` at every
    checkpoint of ``M`` (rows) for every block (columns).
    """

    leakage: np.ndarray
    delta_spectral: float
    delta_frobenius: float
    bound_leakage: float
    bound_v: float
    delta_in_range: bool
    max_effective_distance: float
    v_deviation_max: float | None
    grid: np.ndarray

    @property
    def per_block_leakage(self) -> np.ndarray:
        """Per-block supremum of :attr:`leakage` over the checkpoints."""
        return self.leakage.max(axis=0)

    def row(self) -> dict:
        """Flat scalar view for CSV output."""
        out = {
            "delta_spectral": self.delta_spectral,
            "delta_frobenius": self.delta_frobenius,
            "bound_leakage": self.bound_leakage,
            "bound_v": self.bound_v,
            "delta_in_range": int(self.delta_in_range),
            "max_effective_distance": self.max_effective_distance,
        }
        for k, val in enumerate(self.per_block_leakage):
            out[f"leakage_block_{k}"] = float(val)
        if self.v_deviation_max is not None:
            out["v_deviation_max"] = self.v_deviation_max
        return out


def distance_report(
    u_path: WaveOperatorPath,
    m_path: PropagatorPath,
    m_eff_path: EffectiveEvolutionPath,
    v_path: UnitarizedPath | None = None,
) -> LeakageReport:
    """Assemble the leakage report and enforce the theorem-level bounds; the
    leakage is taken in the blocks of ``u_path.basis``.

    Checks ``‖M(t) - M_eff(t)‖ <= 2*delta/(1-delta)`` at every checkpoint
    (and ``sup‖V - 1‖`` against its bound when a unitarized path is given).
    A violation beyond :data:`NOISE` raises :class:`BoundViolated`: the
    inequalities are theorems, so failure signals a solver defect.

    All paths must share the wave-operator grid (truncate to a common prefix
    before calling if a route blew up).
    """
    n = len(u_path.times)
    if (
        len(m_path.times) < n
        or len(m_eff_path.times) < n
        or not np.array_equal(m_path.times[:n], u_path.times)
        or not np.array_equal(m_eff_path.times[:n], u_path.times)
    ):
        raise ValueError("paths do not share a consistent checkpoint grid")

    delta_spec = u_path.sup_deviation("spectral")
    delta_fro = u_path.sup_deviation("frobenius")
    dist = float(np.max(spectral_norm(m_path.matrices[:n] - m_eff_path.matrices[:n])))

    delta_ok = delta_spec < 1.0
    bound_leak = leakage_bound(delta_spec) if delta_ok else np.inf
    if delta_ok and dist > bound_leak + NOISE:
        raise BoundViolated(
            f"‖M - M_eff‖ = {dist:.6e} exceeds 2d/(1-d) = {bound_leak:.6e} "
            f"(delta = {delta_spec:.6e}); solver defect"
        )

    v_ok = 2.0 * delta_spec + delta_spec**2 < 1.0
    boundv = v_bound(delta_spec) if v_ok else np.inf
    v_dev = None
    if v_path is not None:
        v_dev = float(np.max(v_path.deviation("spectral")))
        if v_ok and v_dev > boundv + NOISE:
            raise BoundViolated(
                f"‖V - 1‖ = {v_dev:.6e} exceeds its bound {boundv:.6e} "
                f"(delta = {delta_spec:.6e}); solver defect"
            )

    return LeakageReport(
        leakage=_leakage_trace(m_path.matrices, u_path.basis),
        delta_spectral=delta_spec,
        delta_frobenius=delta_fro,
        bound_leakage=bound_leak,
        bound_v=boundv,
        delta_in_range=delta_ok,
        max_effective_distance=dist,
        v_deviation_max=v_dev,
        grid=u_path.times.copy(),
    )
