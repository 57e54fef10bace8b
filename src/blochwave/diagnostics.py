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

from .bloch import EffectiveEvolutionPath, WaveOperatorPath
from .errors import BadInitialCondition, BoundViolated, OutOfRange, SingularBlock
from .operators import offblock_norm, spectral_norm
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


def leakage(m_path: PropagatorPath, blocks, norm: str = "spectral") -> np.ndarray:
    """Per-block leakage: ``sup_t ‖(1 - P_k) M(t) P_k‖`` over checkpoints.

    Unitary invariance makes this frame-independent: computed from the
    lab-frame evolution with moving projectors or from the frame evolution
    with frozen ones, the values agree (verified in tests for the spectral
    and Frobenius norms).
    """
    ord_ = 2 if norm == "spectral" else "fro"
    return _leakage_trace(m_path, blocks, ord_).max(axis=0)


def _leakage_trace(m_path: PropagatorPath, blocks, ord_=2) -> np.ndarray:
    """``‖(1 - P_k) M(t) P_k‖`` per checkpoint (rows) and block (columns)."""
    eye = np.eye(m_path.dim)
    return np.stack(
        [np.linalg.norm((eye - p) @ m_path.matrices @ p, ord_, axis=(-2, -1)) for p in blocks],
        axis=-1,
    )


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

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]

    def deviation(self, norm: str = "spectral") -> np.ndarray:
        ord_ = 2 if norm == "spectral" else "fro"
        return np.linalg.norm(self.matrices - np.eye(self.matrices.shape[-1]), ord_, axis=(-2, -1))

    def max_unitarity_defect(self) -> float:
        return float(np.max(self.unitarity_defects))


def unitarize(
    u_path: WaveOperatorPath,
    blocks,
    sv_tol: float = 1e-12,
    ic_tol: float = 1e-8,
    m_path: PropagatorPath | None = None,
) -> UnitarizedPath:
    """Unitarize a wave-operator path by polar decomposition.

    The inverse square root of the Hermitian positive matrix ``U†U`` is taken
    through its eigendecomposition with an eigenvalue floor of ``sv_tol²``
    (raising :class:`SingularBlock` below it, since ``U`` would not be
    invertible there).

    Args:
        m_path: optional full evolution on the same grid; when given, the
            off-block defect of ``V†(t) M(t) V(t0)`` is measured and recorded.

    Raises:
        BadInitialCondition: if ``U†(t0) U(t0)`` fails to commute with some
            block beyond ``ic_tol`` (the compatibility condition for the
            construction).
        SingularBlock: if ``U`` loses invertibility along the path.
    """
    u0 = u_path.matrices[0]
    gram0 = u0.conj().T @ u0
    for k, p in enumerate(blocks):
        defect = spectral_norm(gram0 @ p - p @ gram0)
        if defect > ic_tol:
            raise BadInitialCondition(
                f"[U0†U0, P_{k}] = {defect:.3e} > {ic_tol:.1e}; initial condition "
                "incompatible with unitarization"
            )

    us = u_path.matrices
    grams = us.conj().swapaxes(-1, -2) @ us
    w, q = np.linalg.eigh(grams)
    floor = w[:, 0] < sv_tol**2
    if floor.any():
        raise SingularBlock(
            f"U†U eigenvalue {w[np.argmax(floor), 0]:.3e} below floor {sv_tol**2:.1e}; "
            "transformation not invertible"
        )
    vs = us @ ((q * (1.0 / np.sqrt(w))[:, None, :]) @ q.conj().swapaxes(-1, -2))

    conjugated = None
    if m_path is not None:
        n = len(u_path.times)
        if len(m_path.times) < n or not np.array_equal(m_path.times[:n], u_path.times):
            raise ValueError("m_path grid does not cover the wave-operator grid")
        conjugated = float(
            np.max(offblock_norm(vs.conj().swapaxes(-1, -2) @ m_path.matrices[:n] @ vs[0], blocks))
        )

    return UnitarizedPath(
        t0=u_path.t0,
        times=u_path.times.copy(),
        matrices=vs,
        unitarity_defects=spectral_norm(vs.conj().swapaxes(-1, -2) @ vs - np.eye(u_path.dim)),
        gram_offblock_defect=float(np.max(offblock_norm(grams, blocks))),
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
    v_delta_in_range: bool
    max_effective_distance: float
    v_deviation_max: float | None
    grid: np.ndarray
    norms_used: dict

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
    blocks,
    v_path: UnitarizedPath | None = None,
    noise_tol: float = 1e-12,
) -> LeakageReport:
    """Assemble the leakage report and enforce the theorem-level bounds.

    Checks ``‖M(t) - M_eff(t)‖ <= 2*delta/(1-delta)`` at every checkpoint
    (and ``sup‖V - 1‖`` against its bound when a unitarized path is given).
    A violation beyond ``noise_tol`` raises :class:`BoundViolated`: the
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
    if delta_ok and dist > bound_leak + noise_tol:
        raise BoundViolated(
            f"‖M - M_eff‖ = {dist:.6e} exceeds 2d/(1-d) = {bound_leak:.6e} "
            f"(delta = {delta_spec:.6e}); solver defect"
        )

    v_ok = 2.0 * delta_spec + delta_spec**2 < 1.0
    boundv = v_bound(delta_spec) if v_ok else np.inf
    v_dev = None
    if v_path is not None:
        v_dev = float(np.max(v_path.deviation("spectral")))
        if v_ok and v_dev > boundv + noise_tol:
            raise BoundViolated(
                f"‖V - 1‖ = {v_dev:.6e} exceeds its bound {boundv:.6e} "
                f"(delta = {delta_spec:.6e}); solver defect"
            )

    return LeakageReport(
        leakage=_leakage_trace(m_path, blocks),
        delta_spectral=delta_spec,
        delta_frobenius=delta_fro,
        bound_leakage=bound_leak,
        bound_v=boundv,
        delta_in_range=delta_ok,
        v_delta_in_range=v_ok,
        max_effective_distance=dist,
        v_deviation_max=v_dev,
        grid=u_path.times.copy(),
        norms_used={
            "per_block_leakage": "spectral",
            "delta_spectral": "spectral",
            "delta_frobenius": "frobenius",
            "bounds": "spectral",
        },
    )
