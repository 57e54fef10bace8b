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

Every evaluation takes an array of times; without analytic spectral data
one stacked :func:`~blochwave.operators.decompose` per call serves both the
rates and the Kato term, which the transporter asks for once per batch of
segments.

The end-to-end consistency check of the construction is the factorization
defect ``‖F - W M‖`` between the directly propagated evolution and the
transporter times the frame evolution, which must vanish with the
integration tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CrossingDetected
from .models import GeneratorModel
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


def _times_or_time(batched):
    """Let a method written for a 1-D array of times (and, if it takes one,
    the stacked decomposition of the drift there) also take a single time:
    the one-element case, with the leading axis of each result dropped."""

    @functools.wraps(batched)
    def wrapper(owner, t, *anchor):
        if np.ndim(t):
            return batched(owner, np.asarray(t, dtype=float), *anchor)
        out = batched(owner, np.array([t], dtype=float), *(a and a[None] for a in anchor))
        return tuple(x[0] for x in out) if isinstance(out, tuple) else out[0]

    return wrapper


@_times_or_time
def kato_generator(
    model: GeneratorModel,
    t,
    anchor: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Generator ``A(t) = (1/2) sum_k [P'_k(t), P_k(t)]`` of the adiabatic
    transporter, skew-Hermitian; a stack for an array of times.

    Exact from one decomposition ``B = sum_k b_k P_k`` of the drift and its
    derivative ``B'`` (Kato's reduced-resolvent identity):
    ``A = sum_{k != l} P_l B' P_k / (b_k - b_l)``.  Pass the decomposition at
    ``t`` (stacked for an array) as ``anchor`` when the caller already holds
    it, else it is taken here.  A model's ``analytic_kato`` closed form takes
    precedence.
    """
    if model.analytic_kato is not None:
        return model.analytic_kato(t)
    if anchor is None:
        anchor = model.spectral_at(t)
    proj, b = anchor.projector_stack, anchor.eigenvalues
    bdot = model.drift_derivative(t)
    out = np.zeros_like(bdot, dtype=complex)
    blocks = range(b.shape[1])
    for l in blocks:  # pair by pair: one matrix per time in memory, not K^2
        left = stack_matmul(proj[:, l], bdot)
        for k in blocks:
            if k != l:
                out += stack_matmul(left, proj[:, k]) / (b[:, k] - b[:, l])[:, None, None]
    return out


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

    Exposes the frame drift, drive and full Hamiltonian as callables over the
    span of the transporter path.  :meth:`split_at` gives the drift's rates
    and the drive apart, so that the integrators can factor the drift out
    exactly (see :mod:`blochwave.propagation`); ``basis`` is the
    eigenbasis of the frozen projectors in which they do
    (:func:`~blochwave.operators.block_basis`).  Frames are immutable once
    built; distinct frames (different models or gammas) can be used
    concurrently.
    """

    model: GeneratorModel
    t0: float
    t1: float
    frozen: SpectralDecomposition
    w_path: PropagatorPath
    tol: float

    def __post_init__(self):
        # a static drift has constant rates gamma b_k, W = 1 and A = 0
        self._static_rates = (
            self.model.gamma * self.model.eigenvalues_at(self.t0)
            if self.model.static_drift
            else None
        )
        self.basis = block_basis(self.frozen.projector_stack)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return self.frozen.projectors

    @property
    def period(self) -> float | None:
        """The model's period: with a static drift the frame Hamiltonian
        repeats with the drive (``None`` if it does not)."""
        return self.model.period

    def drift_at(self, t) -> np.ndarray:
        """Frame drift ``B(t) = sum_k b_k(t) P_k(t0)``."""
        eigenvalues = self.model.eigenvalues_at(t)
        return np.einsum("...k,kij->...ij", eigenvalues, self.frozen.projector_stack)

    @_times_or_time
    def drive_at(self, t, anchor: SpectralDecomposition | None = None) -> np.ndarray:
        """Frame drive ``C(t) = W†(t) [Cbar(t) - A(t)] W(t)``.

        ``anchor`` is passed on to :func:`kato_generator`.
        """
        w = self.w_path.at(t)
        a = kato_generator(self.model, t, anchor)
        # (W† X) W in this order: on np.matmul (d > 2) the frame tests pin its bits
        x = stack_matmul(w.conj().swapaxes(-1, -2), self.model.drive(t) - a)
        return stack_matmul(x, w)

    @_times_or_time
    def split_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """The rates ``gamma b_k(t)`` of the frame drift and the drive ``C(t)``,
        as stacks over an array of times (one row each).

        Without analytic spectral data one stacked decomposition of the
        drift serves both the eigenvalues ``b_k(t)`` and the Kato term.  A
        static drift has constant rates, ``W = 1`` and ``A = 0``, so its
        frame drive is the model drive.
        """
        if self._static_rates is not None:
            return self._static_rates[None].repeat(len(t), axis=0), self.model.drive(t)
        anchor = None if self.model.analytic_spectral is not None else self.model.spectral_at(t)
        eigenvalues = self.model.eigenvalues_at(t) if anchor is None else anchor.eigenvalues
        with np.errstate(over="ignore"):  # an infinite rate fails the integration that asked
            rates = self.model.gamma * eigenvalues
        return rates, self.drive_at(t, anchor)

    def rotated_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`split_at` with the drive in :attr:`basis`, ``V† C V``."""
        rates, drive = self.split_at(t)
        return rates, self.basis[1](drive)

    def hamiltonian_at(self, t) -> np.ndarray:
        """Full frame generator ``gamma B(t) + C(t)``, from :meth:`split_at`;
        a stack for an array of times."""
        rates, drive = self.split_at(t)
        return np.einsum("...k,kij->...ij", rates, self.frozen.projector_stack) + drive


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
        "analytic_eigenvalues": (model.analytic_eigenvalues, (len(ts), None)),
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
    times = np.linspace(t0, t1, checkpoints)
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
    return stack[0]


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

    A model's ``period`` is checked at ``t0`` and ``t1``
    (:meth:`~blochwave.models.GeneratorModel.validate`): the propagator
    trusts it.

    Raises:
        ValueError: if a model callable returns a single value for an array
            of times instead of a stack, or the model's period is
            inconsistent.
    """
    _require_stacks(model, t0, t1)
    if model.period is not None:
        model.validate(np.array([t0, t1]))
    frozen = frozen_decomposition(model, t0, t1, checkpoints)
    w_path = transporter(model, t0, t1, tol=tol, checkpoints=checkpoints)
    return AdiabaticFrame(model=model, t0=t0, t1=t1, frozen=frozen, w_path=w_path, tol=tol)


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
