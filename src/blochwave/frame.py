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

The drift's flow ``D(t) = sum_k exp(gamma Phi_k(t)) P_k(t0)`` is known: the
frame holds the gamma-free phases ``Phi_k = int_{t0}^t b_k`` (exact for a
static drift or a model's ``analytic_phases``, else a spline's integral), and
:meth:`AdiabaticFrame.rotated_at` gives the generator of the rotated flow.

Every evaluation takes a 1-D array of times and returns one value per time.
A drift is decomposed once per batch (``model.spectral_at(ts)``, one
``eigh``): its eigenvalues are the rates, and its eigenvectors give the Kato
term that the transporter asks for once per batch of segments; the rotated
generator asks for the rates only where the phases are a spline.

The end-to-end consistency check of the construction is the factorization
defect ``‖F - W M‖`` between the directly propagated evolution and the
transporter times the frame evolution, which must vanish with the
integration tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CrossingDetected, IntegratorFailure
from .models import GeneratorModel, _cubic_spline
# match_labels is unused here but stays importable from this module: the
# benchmark's tracer (perfbench/tracer.py) wraps blochwave.frame.match_labels
from .operators import (  # noqa: F401
    SpectralDecomposition,
    block_basis,
    match_labels,
    spectral_norm,
    stack_matmul,
)
from .propagation import PropagatorPath, propagate

__all__ = [
    "AdiabaticFrame",
    "kato_generator",
    "transporter",
    "frozen_decomposition",
    "build_frame",
    "intertwining_defect",
    "factorization_defect",
]

#: how far a block's overlap with its last checkpoint's eigenspace may fall below its rank
OVERLAP_SLACK = 0.5


def kato_generator(
    model: GeneratorModel,
    t,
    anchor: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Generator ``A(t) = (1/2) sum_k [P'_k(t), P_k(t)]`` of the adiabatic
    transporter, skew-Hermitian: one matrix per time of the 1-D array ``t``.

    Exact from one decomposition of the drift and its derivative ``B'``:
    Kato's ``A = sum_{k != l} P_l B' P_k / (b_k - b_l)`` in the drift's
    eigenbasis ``Q``, ``A = Q (Q† B' Q ∘ G) Q†`` with ``G_ij = 1 / (b_k(j) -
    b_l(i))`` between blocks and 0 within one (unchanged by rotations within
    a block).  Pass the stacked decomposition at ``t`` as ``anchor`` when the
    caller already holds it, else it is taken here.  A model's
    ``analytic_kato`` closed form takes precedence.
    """
    if model.analytic_kato is not None:
        return model.analytic_kato(t)
    if anchor is None:
        anchor = model.spectral_at(t)
    q, b, labels = anchor.eigenvectors, anchor.eigenvalues, anchor.labels
    gaps = b[:, None, :] - b[:, :, None]  # b_k - b_l at [l, k]
    weights = np.divide(1.0, gaps, out=np.zeros_like(gaps), where=~np.eye(len(b[0]), dtype=bool))
    q_h = q.conj().swapaxes(-1, -2)
    inner = stack_matmul(stack_matmul(q_h, model.drift_derivative(t)), q)
    inner *= weights[:, labels[:, None], labels]
    inner = stack_matmul(q, inner)  # rebound, so that three stacks at most are alive
    return stack_matmul(inner, q_h)


def transporter(
    model: GeneratorModel,
    t0: float,
    t1: float,
    tol: float = 1e-10,
    checkpoints: int = 65,
) -> PropagatorPath:
    """The transporter ``W(t, t0)`` on ``[t0, t1]`` with dense output.

    Sampled from a closed form where one exists (the identity for a static
    drift, else ``model.analytic_transporter``); otherwise ``W' = A(t) W`` is
    integrated with the exact :func:`kato_generator`, asked for once per
    batch of node times.
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    grid = np.linspace(t0, t1, checkpoints)

    def identity(t0, t, eye=np.eye(model.dim, dtype=complex)):
        return np.broadcast_to(eye, (*np.shape(t), *eye.shape))

    closed = identity if model.static_drift else model.analytic_transporter
    if closed is None:
        return propagate(functools.partial(kato_generator, model), t0, grid, tol=tol, dense=True)
    mats = np.array(closed(t0, grid))
    return PropagatorPath(
        t0=t0,
        times=grid,
        matrices=mats,
        unitarity_defects=spectral_norm(
            stack_matmul(mats.conj().swapaxes(-1, -2), mats) - np.eye(model.dim)
        ),
        tol=tol,
        dense=lambda t: closed(t0, t),
    )


@dataclass
class AdiabaticFrame:
    """Frozen-block picture of a generator model on ``[t0, t1]``.

    Every method takes a 1-D array of times in the span of the transporter
    path and returns one row or matrix per time: the full Hamiltonian
    (:meth:`hamiltonian_at`), the drift's rates and the drive apart
    (:meth:`split_at`) and the rotated generator (:meth:`rotated_at`).  In
    ``basis``, the eigenbasis of the frozen projectors
    (:func:`~blochwave.operators.block_basis`), the drift's flow is
    ``E(t) = diag(exp(phases_at(t)))``; ``phases(ts)`` gives the gamma-free
    ``Phi`` and ``Phi'`` (``None`` where ``Phi' = b`` exactly).  Frames are
    immutable once built; distinct frames (different models or gammas) can
    be used concurrently.
    """

    model: GeneratorModel
    t0: float
    t1: float
    frozen: SpectralDecomposition
    w_path: PropagatorPath
    tol: float
    phases: Callable[[np.ndarray], tuple]

    def __post_init__(self):
        self.basis = block_basis(self.frozen.projector_stack)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return self.frozen.projectors

    @property
    def period(self) -> float | None:
        """The model's period: with a static drift the frame Hamiltonian
        repeats with the drive (``None`` if it does not)."""
        return self.model.period

    def _drive_at(self, t, anchor: SpectralDecomposition | None = None) -> np.ndarray:
        """Frame drive ``C(t) = W†(t) [Cbar(t) - A(t)] W(t)``, the model drive
        for a static drift; ``anchor`` is passed on to :func:`kato_generator`."""
        if self.model.static_drift:
            return self.model.drive(t)
        x = self.model.drive(t) - kato_generator(self.model, t, anchor)
        w = self.w_path.at(t)  # after the Kato term, whose temporaries are gone
        # (W† X) W in this order, which the written outputs' bits depend on
        x = stack_matmul(w.conj().swapaxes(-1, -2), x)
        return stack_matmul(x, w)

    def split_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """The rates ``gamma b_k(t)`` of the frame drift and the drive ``C(t)``,
        one row each per time.

        One stacked decomposition of the drift serves both the eigenvalues
        ``b_k(t)`` and the Kato term.  A static drift has the constant rates
        of the frozen blocks, ``W = 1`` and ``A = 0``.
        """
        if self.model.static_drift:
            rates = self.model.gamma * self.frozen.eigenvalues
            return rates[None].repeat(len(t), axis=0), self._drive_at(t)
        anchor = self.model.spectral_at(t)
        with np.errstate(over="ignore"):  # an infinite rate fails the integration that asked
            rates = self.model.gamma * anchor.eigenvalues
        return rates, self._drive_at(t, anchor)

    def phases_at(self, t) -> np.ndarray:
        """The phases ``gamma Phi(t)[labels]`` of ``E(t)``, one row per time."""
        return self._scaled(self.phases(t)[0], t)

    def _scaled(self, phi, t) -> np.ndarray:
        """``gamma phi[:, labels]``, refused where an angle keeps no digit."""
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite phase is refused below
            phases = self.model.gamma * phi[:, self.basis[0]]
        lost = ~(np.abs(phases) <= 2.0**52).all(axis=1)  # beyond, float64 has no fraction
        if lost.any():
            raise IntegratorFailure(f"the drift's phase at t={t[lost][0]:g} keeps no digit in float64")
        return phases

    def rotated_at(self, t) -> np.ndarray:
        """The generator ``E† (V† C V) E + gamma diag(b - Phi')[labels]`` of
        ``Y = E† V† M V``, one matrix per time.  The residual keeps the
        rotation exact for interpolated phases; exact ones (no slope) leave
        none, so only the drive is formed for them, without the drift's rates."""
        phi, slope = self.phases(t)
        rates, drive = (None, self._drive_at(t)) if slope is None else self.split_at(t)
        e = np.exp(self._scaled(phi, t))
        out = self.basis[1](drive) * (e.conj()[:, :, None] * e[:, None, :])
        if slope is not None:
            i = np.arange(len(e[0]))
            out[:, i, i] += (rates - self.model.gamma * slope)[:, self.basis[0]]
        return out

    def hamiltonian_at(self, t) -> np.ndarray:
        """Full frame generator ``gamma B(t) + C(t)`` from :meth:`split_at`,
        one matrix per time."""
        rates, drive = self.split_at(t)
        return np.einsum("...k,kij->...ij", rates, self.frozen.projector_stack) + drive


def _horner(coeffs, s):
    """The polynomials with coefficients ``coeffs`` (highest power first) at ``s``."""
    return functools.reduce(lambda y, c: y * s + c, coeffs)


def _phase_integral(model: GeneratorModel, times: np.ndarray, frozen, stack=None):
    """``ts -> (Phi(ts), Phi'(ts) or None)``, ``Phi_k(t) = int_{times[0]}^t b_k``:
    exact for a static drift (the ``frozen`` rates) or ``analytic_phases``,
    else the integral of the spline of ``stack.eigenvalues`` (at ``times``),
    its ends clamped to ``b_k' = tr(P_k B') / m_k`` (not-a-knot ends are ten
    times less accurate).

    ``analytic_phases`` is checked at ``times``: its central difference with
    ``h = 1e-6 (t1 - t0)`` must be ``b_k`` within ``1e-6 max(1, |b_k|)``, or
    a ``ValueError`` names the model and the time.
    """
    t0 = times[0]
    if model.static_drift:
        return lambda ts: (np.multiply.outer(ts - t0, frozen.eigenvalues), None)
    stack = model.spectral_at(times) if stack is None else stack
    if model.analytic_phases is not None:
        h = 1e-6 * (times[-1] - t0)
        slope = (model.analytic_phases(times + h) - model.analytic_phases(times - h)) / (2 * h)
        defect = np.abs(slope - stack.eigenvalues)
        bad = np.argwhere(defect > 1e-6 * np.maximum(1.0, np.abs(stack.eigenvalues)))
        if len(bad):
            i, k = bad[0]
            raise ValueError(
                f"model {model.name!r}: analytic_phases is not the integral of the "
                f"eigenvalues at t={times[i]:g} (block {k}: derivative off by {defect[i, k]:.2e})"
            )
        start = model.analytic_phases(t0)
        return lambda ts: (model.analytic_phases(ts) - start, None)
    ends = times[[0, -1]]
    traces = np.einsum("tkij,tji->tk", stack.projector_stack[[0, -1]], model.drift_derivative(ends))
    coeffs = _cubic_spline(times, stack.eigenvalues, traces / np.array(stack.multiplicities))
    # the antiderivative on each interval, its constant term the integral up to the interval
    quartic = np.zeros((5, *coeffs.shape[1:]), dtype=complex)
    quartic[:4] = coeffs / np.array([4.0, 3.0, 2.0, 1.0])[:, None, None]
    quartic[4, 1:] = np.cumsum(_horner(quartic, np.diff(times)[:, None]), axis=0)[:-1]

    def phases(ts):
        row = np.searchsorted(times[1:-1], ts, "right")  # the end intervals extended
        s = (ts - times[row])[:, None]
        return _horner(quartic[:, row], s), _horner(coeffs[:, row], s)

    return phases


def _require_stacks(model: GeneratorModel, t0: float, t1: float) -> None:
    """Check that every time-dependent callable of ``model`` returns one
    value per time for an array of times.  The frame asks for all the stage
    times of a step at once; a callable written for one time would broadcast
    silently, or fail deep inside the integrator."""
    ts = np.array([t0, t1])
    matrix = (len(ts), model.dim, model.dim)
    transporter, spectral = model.analytic_transporter, model.analytic_spectral
    callables = {
        "drift": (model.drift, matrix),
        "drive": (model.drive, matrix),
        "drift_derivative": (model.drift_derivative, matrix),
        "analytic_kato": (model.analytic_kato, matrix),
        "analytic_phases": (model.analytic_phases, (len(ts), None)),
        "analytic_transporter": (transporter and functools.partial(transporter, t0), matrix),
        "analytic_spectral": (
            spectral and (lambda ts: spectral(ts).projector_stack), (len(ts), None, *matrix[1:])
        ),
    }
    for name, (fn, expected) in callables.items():
        if fn is None:
            continue
        shape = np.shape(fn(ts))
        if len(shape) != len(expected) or any(e not in (None, s) for e, s in zip(expected, shape)):
            raise ValueError(
                f"model {model.name!r}: {name} returned shape {shape} for an array of "
                f"{len(ts)} times; model callables take an array of times and return "
                "one value per time"
            )


def _checked_decomposition(model: GeneratorModel, times: np.ndarray) -> SpectralDecomposition:
    """The drift's decomposition at ``times``, checked as :func:`frozen_decomposition` says."""
    stack = model.spectral_at(times)
    p = stack.projector_stack
    overlap = np.einsum("tkij,tkji->tk", p[:-1], p[1:]).real
    lost = np.argwhere(overlap < np.array(stack.multiplicities) - OVERLAP_SLACK)
    if len(lost):
        i, k = lost[0]
        raise CrossingDetected(
            f"the drift's levels cross between t={times[i]:g} and t={times[i + 1]:g}: "
            f"block {k} keeps an overlap of {overlap[i, k]:.3f} with its eigenspace"
        )
    return stack


def frozen_decomposition(model: GeneratorModel, t0: float, t1: float, checkpoints: int = 65):
    """The drift's decomposition at ``t0`` that a frame over ``[t0, t1]``
    freezes, its blocks in ascending order.  Without analytic spectral data
    that labeling is checked at the transporter's ``checkpoints`` times, from
    one stacked decomposition: each block keeps its eigenspace from one to the
    next, ``tr(P_k(t_i) P_k(t_{i+1})) >= m_k - OVERLAP_SLACK``, or
    ``CrossingDetected`` names the two times its levels cross between.  Levels
    that cross and uncross between two checkpoints are not seen."""
    if model.analytic_spectral is not None:
        return model.spectral_at(t0)
    return _checked_decomposition(model, np.linspace(t0, t1, checkpoints))[0]


def build_frame(
    model: GeneratorModel,
    t0: float,
    t1: float,
    tol: float = 1e-10,
    checkpoints: int = 65,
) -> AdiabaticFrame:
    """Construct the adiabatic frame of ``model`` over ``[t0, t1]``.

    The frozen blocks come from :func:`frozen_decomposition` at the
    transporter's ``checkpoints`` times, before the transporter is
    integrated: a drift whose levels cross raises ``CrossingDetected``.
    Without closed-form phases, that same stacked decomposition gives the
    knots of the phases' spline.

    A model's ``period`` is checked at ``t0`` and ``t1``
    (:meth:`~blochwave.models.GeneratorModel.validate`): the propagator
    trusts it.

    Raises:
        ValueError: if a model callable returns a single value for an array
            of times instead of a stack, the model's period is
            inconsistent, or its ``analytic_phases`` are not the integral of
            its eigenvalues at the checkpoints.
    """
    _require_stacks(model, t0, t1)
    if model.period is not None:
        model.validate(np.array([t0, t1]))
    times = np.linspace(t0, t1, checkpoints)
    stack = None if model.analytic_spectral is not None else _checked_decomposition(model, times)
    frozen = model.spectral_at(t0) if stack is None else stack[0]
    w_path = transporter(model, t0, t1, tol=tol, checkpoints=checkpoints)
    return AdiabaticFrame(
        model=model, t0=t0, t1=t1, frozen=frozen, w_path=w_path, tol=tol,
        phases=_phase_integral(model, times, frozen, stack),
    )


def intertwining_defect(frame: AdiabaticFrame, times=None) -> float:
    """Max over checkpoints and blocks of ``‖W(t) P_k(t0) - P_k(t) W(t)‖``,
    from one lookup of ``W`` and one stacked decomposition at all the times.

    The underlying relation is exact for the true transporter; numerically it
    is limited by the integration tolerance and reported, never enforced.
    """
    times = frame.w_path.times if times is None else np.asarray(times, dtype=float)
    w = frame.w_path.at(times)[:, None]  # one axis for the blocks
    moving = frame.model.spectral_at(times).projector_stack
    return float(np.max(spectral_norm(w @ frame.frozen.projector_stack - moving @ w)))


def factorization_defect(
    model: GeneratorModel,
    t0: float,
    t1: float,
    tol: float = 1e-10,
    checkpoints: int = 65,
) -> float:
    """End-to-end consistency check ``‖F(t1,t0) - W(t1,t0) M(t1,t0)‖``.

    ``F`` is propagated directly from the lab-frame generator
    ``gamma Bbar + Cbar``; ``W`` and ``M`` come from the frame construction,
    ``M`` integrated in the rotating frame of the frozen blocks.  ``F`` and
    ``M`` are independent integrations (``W`` a third, or its closed form),
    so the defect measures the whole frame machinery, the rotation
    included, at once.  ``F`` is integrated at ``tol / 100``: at ``tol`` its
    own error, which resolves the fast phase of ``gamma Bbar`` step by step,
    would exceed that of the rotating ``M`` and dominate the defect.
    """
    grid = np.linspace(t0, t1, checkpoints)
    f_path = propagate(model.full_generator, t0, grid, tol=1e-2 * tol)
    frame = build_frame(model, t0, t1, tol=tol, checkpoints=checkpoints)
    m_path = propagate(frame, t0, grid, tol=tol)
    w_final = frame.w_path.final
    return spectral_norm(f_path.final - w_final @ m_path.final)
