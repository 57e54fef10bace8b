"""The adiabatic frame.

Builds the adiabatic transporter generated by ``A(t) = (1/2) sum_k [P'_k, P_k]``
and rotates the problem into the picture where the strong generator keeps a
time-independent block structure: the frame drift is
``B(t) = sum_k b_k(t) P_k(t0)`` and the frame drive is
``C(t) = W†(t) [Cbar(t) - A(t)] W(t)``.

The transporter inverse is always taken as ``W†`` (cheaper and better
conditioned than a matrix inverse; the unitarity defect is recorded, not
silently repaired).  Frame conjugation therefore preserves skew-Hermiticity
exactly even when ``W`` carries integration error.

The end-to-end consistency check of the construction is the factorization
defect ``‖F - W M‖`` between the directly propagated evolution and the
transporter times the frame evolution, which must vanish with the
integration tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import GeneratorModel
# match_labels is unused here but stays importable from this module: the
# benchmark's tracer (perfbench/tracer.py) wraps blochwave.frame.match_labels
from .operators import (  # noqa: F401
    SpectralDecomposition,
    match_labels,
    projector_derivatives,
    spectral_norm,
    track_spectral_path,
)
from .propagation import PropagatorPath, propagate

__all__ = [
    "AdiabaticFrame",
    "kato_generator",
    "transporter",
    "build_frame",
    "frame_generators",
    "intertwining_defect",
    "factorization_defect",
]

#: default projector-derivative step as a fraction of the integration span
DERIVATIVE_STEP_FACTOR = 1e-5


def kato_generator(
    model: GeneratorModel,
    t: float,
    h: float = 1e-5,
    anchor: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Generator ``A(t) = (1/2) sum_k [P'_k(t), P_k(t)]`` of the adiabatic
    transporter.  Skew-Hermitian by the Hermiticity of the projectors.

    Models carrying a closed form for the whole commutator sum expose it as
    ``analytic_kato``; otherwise this assembles the sum from the projector
    derivatives (``h`` is the central-difference step used when those are
    numerical too).  One anchor decomposition of the drift at ``t`` serves
    all blocks, for both the projectors and their derivatives; pass it as
    ``anchor`` when the caller already holds it, else it is taken here.
    """
    if model.analytic_kato is not None:
        return model.analytic_kato(t)
    if anchor is None:
        anchor = model.spectral_at(t)
    dim = anchor.dim
    out = np.zeros((dim, dim), dtype=complex)
    for p, pdot in zip(anchor.projectors, projector_derivatives(model, t, h, anchor)):
        out += 0.5 * (pdot @ p - p @ pdot)
    return out


def transporter(
    model: GeneratorModel,
    t0: float,
    t1: float,
    tol: float = 1e-10,
    checkpoints: int = 65,
    h: float | None = None,
) -> PropagatorPath:
    """Integrate ``W' = A(t) W`` from ``t0`` to ``t1`` with dense output.

    For models with a declared static drift the transporter is the identity
    exactly and no ODE is solved.
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    grid = np.linspace(t0, t1, checkpoints)
    if model.static_drift:
        eye = np.eye(model.dim, dtype=complex)
        mats = np.broadcast_to(eye, (checkpoints, model.dim, model.dim)).copy()
        return PropagatorPath(
            t0=t0,
            times=grid,
            matrices=mats,
            unitarity_defects=np.zeros(checkpoints),
            tol=tol,
            dense=lambda t: eye,
        )
    if h is None:
        h = DERIVATIVE_STEP_FACTOR * (t1 - t0)
    return propagate(
        lambda t: kato_generator(model, t, h), t0, grid, tol=tol, dense=True
    )


@dataclass
class AdiabaticFrame:
    """Frozen-block picture of a generator model on ``[t0, t1]``.

    Exposes the frame drift, drive and full Hamiltonian as callables over the
    span of the transporter path.  Frames are immutable once built; distinct
    frames (different models or gammas) can be used concurrently.
    """

    model: GeneratorModel
    t0: float
    t1: float
    frozen: SpectralDecomposition
    w_path: PropagatorPath
    tol: float
    derivative_step: float

    def __post_init__(self):
        # stacked frozen projectors make the frame drift a single contraction
        self._proj_stack = np.stack(self.frozen.projectors)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return self.frozen.projectors

    def transporter_at(self, t: float) -> np.ndarray:
        return self.w_path.at(t)

    def drift_at(
        self, t: float, anchor: SpectralDecomposition | None = None
    ) -> np.ndarray:
        """Frame drift ``B(t) = sum_k b_k(t) P_k(t0)``.

        ``anchor``, the drift's decomposition at ``t``, supplies ``b_k(t)``
        when given.
        """
        eigenvalues = self.model.eigenvalues_at(t) if anchor is None else anchor.eigenvalues
        return np.einsum("k,kij->ij", eigenvalues, self._proj_stack)

    def drive_at(
        self, t: float, anchor: SpectralDecomposition | None = None
    ) -> np.ndarray:
        """Frame drive ``C(t) = W†(t) [Cbar(t) - A(t)] W(t)``.

        ``anchor`` is passed on to :func:`kato_generator`.
        """
        if self.model.static_drift:
            return self.model.drive(t)
        w = self.w_path.at(t)
        a = kato_generator(self.model, t, self.derivative_step, anchor)
        return w.conj().T @ (self.model.drive(t) - a) @ w

    def hamiltonian_at(self, t: float) -> np.ndarray:
        """Full frame generator ``gamma B(t) + C(t)``.

        Without analytic spectral data the drift is decomposed once at ``t``,
        and that decomposition serves both the eigenvalues ``b_k(t)`` and the
        Kato term, so an evaluation costs three decompositions (at ``t`` and
        ``t ± h``) whatever the block count.
        """
        anchor = None if self.model.analytic_spectral is not None else self.model.spectral_at(t)
        return self.model.gamma * self.drift_at(t, anchor) + self.drive_at(t, anchor)


def build_frame(
    model: GeneratorModel,
    t0: float,
    t1: float,
    tol: float = 1e-10,
    checkpoints: int = 65,
) -> AdiabaticFrame:
    """Construct the adiabatic frame of ``model`` over ``[t0, t1]``.

    When the model has no analytic spectral data, the ascending-eigenvalue
    labeling is tracked along the transporter checkpoints with
    :func:`track_spectral_path` (raises ``CrossingDetected`` on failure) and
    the frozen decomposition is its first.
    """
    w_path = transporter(model, t0, t1, tol=tol, checkpoints=checkpoints)
    if model.analytic_spectral is None:
        frozen = track_spectral_path(model.drift, w_path.times, model.gap_tol).decompositions[0]
    else:
        frozen = model.spectral_at(t0)
    return AdiabaticFrame(
        model=model,
        t0=t0,
        t1=t1,
        frozen=frozen,
        w_path=w_path,
        tol=tol,
        derivative_step=DERIVATIVE_STEP_FACTOR * (t1 - t0),
    )


def frame_generators(frame: AdiabaticFrame, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The pair ``(B(t, t0), C(t, t0))`` of frame drift and drive."""
    return frame.drift_at(t), frame.drive_at(t)


def intertwining_defect(frame: AdiabaticFrame, times=None) -> float:
    """Max over checkpoints and blocks of ``‖W(t) P_k(t0) - P_k(t) W(t)‖``.

    The underlying relation is exact for the true transporter; numerically it
    is limited by the integration tolerance and reported, never enforced.
    """
    if times is None:
        times = frame.w_path.times
    worst = 0.0
    for t in times:
        w = frame.w_path.at(t)
        dec = frame.model.spectral_at(t)
        for pk0, pkt in zip(frame.frozen.projectors, dec.projectors):
            worst = max(worst, spectral_norm(w @ pk0 - pkt @ w))
    return worst


def factorization_defect(
    model: GeneratorModel,
    t0: float,
    t1: float,
    tol: float = 1e-10,
    checkpoints: int = 65,
) -> float:
    """End-to-end consistency check ``‖F(t1,t0) - W(t1,t0) M(t1,t0)‖``.

    ``F`` is propagated directly from the lab-frame generator
    ``gamma Bbar + Cbar``; ``W`` and ``M`` come from the frame construction.
    The two routes are independent integrations, so the defect measures the
    whole frame machinery at once.
    """
    grid = np.linspace(t0, t1, checkpoints)
    f_path = propagate(model.full_generator, t0, grid, tol=tol)
    frame = build_frame(model, t0, t1, tol=tol, checkpoints=checkpoints)
    m_path = propagate(frame.hamiltonian_at, t0, grid, tol=tol)
    w_final = frame.w_path.final
    return spectral_norm(f_path.final - w_final @ m_path.final)
