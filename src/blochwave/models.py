"""Built-in generator models.

A :class:`GeneratorModel` is a time-parametrized pair of skew-Hermitian
matrices: a strong drift (scaled by the adiabatic parameter ``gamma``) and a
weak drive, with optional analytic spectral data used in place of the
numerical decomposition where closed forms exist.

Built-ins:

* an avoided-crossing two-level sweep (drift ``-i(X + tZ)``, no drive) with
  full analytic spectral data, its closed-form transporter, and the classic
  asymptotic transition formulas;
* an on-resonance driven three-level system with large detuning, expressed
  in the interaction picture (the rotating-frame transformation is applied
  analytically, not numerically);
* a seeded random smooth model generator for property-test corpora.

Every model callable takes an array of times and returns one value per time,
and spectral data comes as one stacked decomposition over the times.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, IoError, NotSkewHermitian
from .operators import (
    SKEW_TOL,
    SpectralDecomposition,
    decompose,
    require_skew_hermitian,
    spectral_norm,
)

__all__ = [
    "GeneratorModel",
    "landau_zener_model",
    "lz_asymptotic_amplitude",
    "three_level_model",
    "random_smooth_model",
    "load_tabulated_model",
    "builtin_model_names",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: a drive repeats with the model's period within this factor of max(1, ‖C‖)
PERIOD_TOL = 1e-12

#: floats per term array of a tabulated model's spline evaluation (96 KB):
#: larger batches of times are summed block by block, which keeps a 600-time
#: batch as fast per time as a 95-time one
SPLINE_BLOCK = 12288


def _constant(value: np.ndarray):
    """A callable returning ``value`` at a time, and one copy per time for
    an array of times."""
    row = value[None]

    def at(t) -> np.ndarray:
        if np.ndim(t) == 0:
            return value
        return row.repeat(np.size(t), axis=0).reshape(*np.shape(t), *value.shape)

    return at


def _matrix_axes(x):
    """``x`` with two trailing axes, to scale a matrix (or stack) per time."""
    return np.asarray(x)[..., None, None]


@dataclass
class GeneratorModel:
    """Time-parametrized skew-Hermitian drift/drive pair.

    ``drift(t)`` is the strong generator (without the ``gamma`` factor),
    ``drive(t)`` the weak one; the full-evolution generator is
    ``gamma * drift(t) + drive(t)``.  ``drift_derivative(t)`` is the exact
    time derivative of ``drift``: with one decomposition of the drift it
    gives the Kato generator of the adiabatic frame.  The optional
    attachments are closed forms used in place of numerical work:
    ``analytic_spectral``, the drift's decomposition (its eigenvalues are
    the only source of the rates ``b_k``); ``analytic_kato`` and
    ``analytic_transporter``, the Kato generator and its integration; and
    ``analytic_phases``, an antiderivative of the eigenvalues, which gives
    the frame's rotation phases ``Φ_k(t) = ∫_{t0}^t b_k`` (the frame checks
    its derivative against them when it is built).

    Every callable takes an array of times as well as one time and then
    returns a stack, one matrix (or eigenvalue row) per time: the frame asks
    for all the stage times of an integrator step at once.
    ``analytic_spectral`` returns one stacked
    :class:`~blochwave.operators.SpectralDecomposition` for an array, and
    ``analytic_transporter(t0, t)`` takes the array in ``t``.

    ``period`` is the period ``T`` of the drive on a static drift, when the
    drive repeats exactly (``None`` otherwise): the full generator is then
    ``T``-periodic, and the propagator of one period gives it at all times.
    """

    name: str
    dim: int
    gamma: float
    drift: Callable[[float], np.ndarray]
    drive: Callable[[float], np.ndarray]
    drift_derivative: Callable[[float], np.ndarray]
    params: dict = field(default_factory=dict)
    analytic_spectral: Callable[[float], SpectralDecomposition] | None = None
    analytic_kato: Callable[[float], np.ndarray] | None = None
    analytic_transporter: Callable[[float, float], np.ndarray] | None = None
    analytic_phases: Callable[[float], np.ndarray] | None = None
    static_drift: bool = False
    period: float | None = None

    def full_generator(self, t) -> np.ndarray:
        return self.gamma * self.drift(t) + self.drive(t)

    def spectral_at(self, t) -> SpectralDecomposition:
        """Spectral decomposition of the drift at ``t`` (analytic when
        available); stacked over an array of times, from one batched
        :func:`~blochwave.operators.decompose` without analytic data."""
        if self.analytic_spectral is not None:
            return self.analytic_spectral(t)
        return decompose(self.drift(t), times=t)

    def validate(self, times, tol: float = 1e-12) -> None:
        """Check skew-Hermiticity of samples, analytic-spectral consistency
        and the period.

        A ``period`` must be positive, on a static drift, and the drive must
        repeat with it at the sample times: ``‖C(t + T) - C(t)‖`` within
        ``PERIOD_TOL * max(1, ‖C(t)‖)`` per whole period in ``|t|`` (the
        rounding of the phase ``t / T``).

        Raises:
            NotSkewHermitian: if a sample is not skew-Hermitian within ``tol``.
            ValueError: on inconsistent analytic spectral data or period.
        """
        times = np.asarray(times, dtype=float)
        drift, drive = self.drift(times), self.drive(times)
        for what, samples in (("drift", drift), ("drive", drive)):
            require_skew_hermitian(samples, tol, name=lambda i: f"{self.name} {what}({times[i]:g})")
        if self.period is not None:
            self._validate_period(times, drive)
        if self.analytic_spectral is not None:
            err = spectral_norm(self.analytic_spectral(times).reconstruct() - drift)
            err /= np.maximum(1.0, spectral_norm(drift))  # relative to max(1, ‖B‖)
            i = int(np.argmax(err))
            if err[i] > 1e-10:
                raise ValueError(
                    f"analytic spectral data of {self.name} fails to reconstruct "
                    f"the drift at t={times[i]:g} (relative defect {err[i]:.2e})"
                )

    def _validate_period(self, times: np.ndarray, drive: np.ndarray) -> None:
        period = self.period
        if not period > 0 or not np.isfinite(period):
            raise ValueError(f"{self.name}: period must be positive and finite, not {period!r}")
        if not self.static_drift:
            raise ValueError(f"{self.name}: a period needs a static drift")
        gap = spectral_norm(self.drive(times + period) - drive)
        allowed = PERIOD_TOL * np.maximum(1.0, spectral_norm(drive))
        allowed *= np.maximum(1.0, np.abs(times) / period)
        i = int(np.argmax(gap / allowed))
        if gap[i] > allowed[i]:
            raise ValueError(
                f"{self.name}: the drive does not repeat with period {period:g} at "
                f"t={times[i]:g} (‖C(t + T) - C(t)‖ = {gap[i]:.2e})"
            )


def landau_zener_model(gamma: float) -> GeneratorModel:
    """Two-level avoided-crossing sweep: drift ``-i(X + tZ)``, zero drive.

    Analytic attachments: eigenvalue tracks ``±i sqrt(1+t²)`` and their
    antiderivatives ``±i (t sqrt(1+t²) + asinh t)/2``, the projector
    family ``(1 ∓ (X+tZ)/sqrt(1+t²))/2``, the Kato generator
    ``iY / (2(1+t²))`` and the closed-form transporter
    ``exp(iY [arctan t - arctan t0] / 2)``.  Block 0 carries the
    ``-i sqrt(1+t²)`` eigenvalue (ascending imaginary-part order).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    eye = np.eye(2, dtype=complex)

    def drift(t) -> np.ndarray:
        return -1j * (PAULI_X + _matrix_axes(t) * PAULI_Z)

    def eigenvalues(t) -> np.ndarray:
        s = np.hypot(1.0, t)
        return np.stack([-1j * s, 1j * s], axis=-1)

    def phases(t) -> np.ndarray:
        f = 0.5 * (t * np.hypot(1.0, t) + np.arcsinh(t))
        return np.stack([-1j * f, 1j * f], axis=-1)

    def spectral(t) -> SpectralDecomposition:
        axis = (PAULI_X + _matrix_axes(t) * PAULI_Z) / _matrix_axes(np.hypot(1.0, t))
        return SpectralDecomposition(
            eigenvalues=eigenvalues(t),
            projectors=np.stack([0.5 * (eye + axis), 0.5 * (eye - axis)], axis=-3),
            multiplicities=(1, 1),
        )

    def kato(t) -> np.ndarray:
        t = np.asarray(t)
        return 1j * PAULI_Y / _matrix_axes(2.0 * (1.0 + t * t))

    def transporter(t0: float, t) -> np.ndarray:
        half = 0.5 * (np.arctan(t) - np.arctan(t0))
        return _matrix_axes(np.cos(half)) * eye + _matrix_axes(1j * np.sin(half)) * PAULI_Y

    return GeneratorModel(
        name="landau_zener",
        dim=2,
        gamma=float(gamma),
        drift=drift,
        drive=_constant(np.zeros((2, 2), dtype=complex)),
        drift_derivative=_constant(-1j * PAULI_Z),
        params={"gamma": float(gamma)},
        analytic_spectral=spectral,
        analytic_kato=kato,
        analytic_transporter=transporter,
        analytic_phases=phases,
    )


def lz_asymptotic_amplitude(gamma: float) -> tuple[float, float]:
    """Asymptotic transition amplitudes of the two-level sweep.

    Returns ``(sin_phi, tan_phi)`` with ``sin_phi = exp(-pi*gamma/2)``:
    the asymptotic per-block leakage and the asymptotic spectral-norm
    distance of the wave operator from the identity.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    sin_phi = float(np.exp(-np.pi * gamma / 2.0))
    tan_phi = sin_phi / np.sqrt(1.0 - sin_phi**2)
    return sin_phi, tan_phi


def _three_level_coupling() -> np.ndarray:
    return np.array(
        [
            [0.0, -0.5, 0.0],
            [0.5, 0.0, -1.0 / np.sqrt(2.0)],
            [0.0, 1.0 / np.sqrt(2.0), 0.0],
        ],
        dtype=complex,
    )


def three_level_model(
    gamma: float,
    a: float,
    omega: float = 1.0,
    envelope: Callable[[float], float] | None = None,
) -> GeneratorModel:
    """On-resonance driven three-level system with large detuning, in the
    interaction picture.

    The drift is the static ``-i omega diag(0, 0, 1)`` (detuning of the third
    level); the drive carries a static coupling pattern plus the same pattern
    counter-rotating at ``exp(∓2i omega t)``.  ``gamma >> a`` is the
    perturbative regime; smaller ratios are allowed but warn-worthy.

    ``envelope`` optionally modulates the drive amplitude in time (off by
    default; the constant-amplitude case is the validated configuration).
    Like the model's callables it takes an array of times as well as one
    time, and then returns one amplitude factor per time.

    Without an envelope the drive repeats with ``period = pi / omega``;
    with one the model has no period.
    """
    if gamma <= 0 or a < 0 or omega <= 0:
        raise ValueError("gamma and omega must be positive, a non-negative")
    if gamma < 2.0 * a:
        warnings.warn(
            f"three-level model with gamma={gamma:g} not much larger than "
            f"a={a:g}: outside the perturbative regime, leakage bounds may be "
            "vacuous",
            stacklevel=2,
        )
    k0 = _three_level_coupling()
    drift_matrix = -1j * omega * np.diag([0.0, 0.0, 1.0]).astype(complex)
    p_low = np.diag([0.0, 0.0, 1.0]).astype(complex)
    p_high = np.diag([1.0, 1.0, 0.0]).astype(complex)
    sqrt2 = np.sqrt(2.0)

    def drive(t) -> np.ndarray:
        t = np.asarray(t)
        amp = a if envelope is None else a * np.asarray(envelope(t))
        e = np.exp(2j * omega * t)
        kt = np.zeros((*t.shape, 3, 3), dtype=complex)  # the counter-rotating terms
        kt[..., 0, 1] = -0.5 / e
        kt[..., 1, 0] = 0.5 * e
        kt[..., 1, 2] = -1.0 / (sqrt2 * e)
        kt[..., 2, 1] = e / sqrt2
        return _matrix_axes(amp / 2.0) * (k0 + kt)

    eigenvalues = _constant(np.array([-1j * omega, 0.0j]))
    projectors = _constant(np.stack([p_low, p_high]))

    def spectral(t) -> SpectralDecomposition:
        return SpectralDecomposition(eigenvalues(t), projectors(t), multiplicities=(1, 2))

    return GeneratorModel(
        name="three_level",
        dim=3,
        gamma=float(gamma),
        drift=_constant(drift_matrix),
        drive=drive,
        drift_derivative=_constant(np.zeros((3, 3), dtype=complex)),
        params={"gamma": float(gamma), "a": float(a), "omega": float(omega)},
        analytic_spectral=spectral,
        static_drift=True,
        period=np.pi / omega if envelope is None else None,
    )


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_skew(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    s = 0.5 * (z - z.conj().T)
    return s / np.linalg.norm(s, 2)


def random_smooth_model(
    dim: int,
    n_blocks: int,
    seed: int,
    gamma: float = 10.0,
    drive_strength: float = 1.0,
    min_gap: float = 1.0,
    rotation_scale: float = 0.2,
    analytic: bool = True,
) -> GeneratorModel:
    """Seeded smooth model satisfying the adiabatic assumptions by construction.

    The drift has fixed block multiplicities, low-order trigonometric
    eigenvalue tracks kept at least ``min_gap`` apart, and eigenprojectors
    rotated by a slowly oscillating one-parameter unitary family, so tracks
    never cross and all spectral data is twice continuously differentiable.
    The drive is a bounded trigonometric skew-Hermitian polynomial.
    Deterministic for a given seed.

    With ``analytic=False`` the closed-form spectral data is withheld, forcing
    consumers through the numerical decomposition and its crossing check (used to
    exercise that machinery against the analytic twin).
    """
    if dim < 2 or not (1 <= n_blocks <= dim):
        raise ValueError("need dim >= 2 and 1 <= n_blocks <= dim")
    rng = np.random.default_rng(seed)

    # block multiplicities: start with one each, spread the remainder
    mults = np.ones(n_blocks, dtype=int)
    for _ in range(dim - n_blocks):
        mults[rng.integers(n_blocks)] += 1

    # eigenvalue tracks: base levels with oscillation amplitudes small enough
    # that adjacent tracks always stay min_gap apart
    osc_amp = 0.2 * min_gap
    base = np.cumsum(min_gap + 2.0 * osc_amp + rng.uniform(0.0, min_gap, size=n_blocks))
    base -= base.mean()
    osc_freq = rng.uniform(0.3, 1.2, size=n_blocks)
    osc_phase = rng.uniform(0.0, 2.0 * np.pi, size=n_blocks)

    def tracks(t) -> np.ndarray:
        return base + osc_amp * np.sin(osc_freq * np.asarray(t)[..., None] + osc_phase)

    def tracks_integral(t) -> np.ndarray:
        t = np.asarray(t)[..., None]
        return base * t - osc_amp / osc_freq * np.cos(osc_freq * t + osc_phase)

    def tracks_dot(t) -> np.ndarray:
        return osc_amp * osc_freq * np.cos(osc_freq * np.asarray(t)[..., None] + osc_phase)

    # frozen projectors conjugated by exp(g(t) S)
    q = _haar_unitary(dim, rng)
    bounds = np.concatenate([[0], np.cumsum(mults)])
    frozen = np.stack(
        [q[:, lo:hi] @ q[:, lo:hi].conj().T for lo, hi in zip(bounds[:-1], bounds[1:])]
    )

    s_gen = _random_skew(dim, rng)
    lam_s, vec_s = np.linalg.eigh(-1j * s_gen)  # s_gen = vec (i lam) vec†
    rot_freq = rng.uniform(0.2, 0.6)
    rot_phase = rng.uniform(0.0, 2.0 * np.pi)

    def g(t):
        return rotation_scale * np.sin(rot_freq * np.asarray(t) + rot_phase)

    def g_dot(t):
        return rotation_scale * rot_freq * np.cos(rot_freq * np.asarray(t) + rot_phase)

    def rotation(t) -> np.ndarray:
        return (vec_s * np.exp(_matrix_axes(1j * g(t)) * lam_s)) @ vec_s.conj().T

    def drift(t) -> np.ndarray:
        r = rotation(t)
        r_h = r.conj().swapaxes(-1, -2)
        lam = tracks(t)
        out = np.zeros(r.shape, dtype=complex)
        for k in range(n_blocks):
            out += _matrix_axes(1j * lam[..., k]) * (r @ frozen[k] @ r_h)
        return out

    def drift_derivative(t) -> np.ndarray:
        # R(t) = exp(g(t) S) gives R' = g' S R, hence the commutator term
        r = rotation(t)
        b = drift(t)
        rates = np.moveaxis(tracks_dot(t), -1, 0)
        moving = sum(_matrix_axes(1j * d) * f for d, f in zip(rates, frozen))
        r_h = r.conj().swapaxes(-1, -2)
        return _matrix_axes(g_dot(t)) * (s_gen @ b - b @ s_gen) + r @ moving @ r_h

    e1 = _random_skew(dim, rng)
    e2 = _random_skew(dim, rng)
    nu = rng.uniform(0.4, 1.5, size=2)
    chi = rng.uniform(0.0, 2.0 * np.pi, size=2)

    def drive(t) -> np.ndarray:
        t = _matrix_axes(t)
        return drive_strength * (
            np.sin(nu[0] * t + chi[0]) * e1 + np.cos(nu[1] * t + chi[1]) * e2
        )

    def spectral(t) -> SpectralDecomposition:
        multiplicities = tuple(int(m) for m in mults)  # q's columns run block by block
        return SpectralDecomposition(1j * tracks(t), None, multiplicities, eigenvectors=rotation(t) @ q)

    return GeneratorModel(
        name="random_smooth",
        dim=dim,
        gamma=float(gamma),
        drift=drift,
        drive=drive,
        drift_derivative=drift_derivative,
        params={
            "dim": dim,
            "n_blocks": n_blocks,
            "seed": seed,
            "gamma": float(gamma),
            "drive_strength": float(drive_strength),
            "min_gap": float(min_gap),
            "rotation_scale": float(rotation_scale),
        },
        analytic_spectral=spectral if analytic else None,
        analytic_phases=(lambda t: 1j * tracks_integral(t)) if analytic else None,
    )


def _cubic_spline(x, y, end_slopes=None):
    """Coefficients ``(4, n - 1, ...)``, highest power first, of the cubic
    spline through rows ``y`` (complex) at increasing times ``x``, with de
    Boor's not-a-knot ends or, given ``end_slopes`` (the derivatives at the
    first and last time), clamped ends.  Each interval is the Hermite cubic
    of its values and knot slopes.  Not-a-knot ends give the chord through
    two rows and the parabola through three.  Otherwise each not-a-knot end
    row is folded into its neighbour, which leaves a strictly diagonally
    dominant tridiagonal system for the interior slopes, solved in O(n) by
    elimination without interchanges (stable: Higham, *Accuracy and Stability
    of Numerical Algorithms*, §9.5).  The spline agrees with SciPy's
    ``CubicSpline`` to roundoff, and as it takes only real multiples and sums
    of rows, skew-Hermitian samples give an exactly skew-Hermitian spline.
    """
    n = len(x)
    dx = np.diff(x)
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    s = np.empty(y.shape, dtype=complex)
    if end_slopes is not None:
        s[0], s[-1] = end_slopes
    if end_slopes is None and n < 4:
        bend = (slope[-1] - slope[0]) / (x[-1] - x[0])  # zero for the chord
        s[:-1] = slope - dxr * bend
        s[-1] = slope[-1] + dxr[-1] * bend
    elif n > 2:
        h = dx.tolist()
        # row k: h[k+1] s[k] + 2 (h[k] + h[k+1]) s[k+1] + h[k] s[k+2] = rhs[k]
        diag = [2 * (a + b) for a, b in zip(h, h[1:])]
        rhs = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        ends = ((0, 1), (-1, -2))  # each end's index, and the index next to it
        for o, i in ends:
            if end_slopes is not None:
                rhs[o] -= h[i] * s[o]
            else:  # fold: the row next to the end, less the end row
                diag[o] = h[o] + h[i]
                rhs[o] = (h[i] ** 2 * slope[o] + h[o] * (2 * h[o] + 3 * h[i]) * slope[i]) / diag[o]
        for k in range(1, n - 2):
            w = h[k + 1] / diag[k - 1]
            diag[k] -= w * h[k - 1]
            rhs[k] -= w * rhs[k - 1]
        s[-2] = rhs[-1] / diag[-1]
        for k in range(n - 4, -1, -1):
            s[k + 1] = (rhs[k] - h[k] * s[k + 2]) / diag[k]
        if end_slopes is None:  # each end row gives its end slope
            for o, i in ends:
                r = h[o] / h[i]
                s[o] = ((3 * r + 2) * slope[o] - (2 * r + 1) * s[i] + r * r * (slope[i] - s[i])) / (r + 1)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def _piecewise_cubic(coeffs, x):
    """The piecewise cubic with coefficients ``(4, n - 1, ...)`` (highest
    power first) on the intervals of ``x``, as a function of an array of times
    that returns one value per time: bit for bit SciPy's ``PPoly(coeffs, x,
    extrapolate=False)``, with NaN outside ``[x[0], x[-1]]``.

    Each value is PPoly's ascending power sum ``c3 + c2 s + c1 s^2 + c0 s^3``
    of the offset ``s`` into its interval, added left to right from ``+0``.
    A sum started from ``+0`` is never ``-0``, so the signs of zero terms do
    not matter, and each term, a complex times a real, is taken on the float
    view, block by block of times, so that the terms stay in cache.
    NaN rows before the first interval and after the last one give the NaN,
    and nudging the last knot up closes the last interval.
    """
    planes = np.full((4, len(x) + 1) + coeffs.shape[2:], np.nan, dtype=complex)
    planes[:, 1:-1] = coeffs[::-1]
    planes[0, 1:-1] += 0.0  # the sum's +0 start
    planes = planes.reshape(4, len(x) + 1, -1).view(float)
    block = max(1, SPLINE_BLOCK // planes.shape[-1])
    knots = x.copy()
    knots[-1] = np.nextafter(x[-1], np.inf)
    left = np.concatenate((x[:1], x))

    def evaluate(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        row = knots.searchsorted(flat, "right")
        s = (flat - left[row])[:, None]
        square = s * s
        powers = (s, square, square * s)
        value = planes[0].take(row, axis=0)
        for start in range(0, flat.size, block):
            part = slice(start, start + block)
            rows, out = row[part], value[part]
            for plane, power in zip(planes[1:], powers):
                term = plane.take(rows, axis=0)
                term *= power[part]
                out += term
        return value.view(complex).reshape(t.shape + coeffs.shape[2:])

    return evaluate


def load_tabulated_model(path, gamma: float) -> GeneratorModel:
    """Custom model from a tabulated-matrix CSV file, interpolated by the
    not-a-knot cubic spline of :func:`_cubic_spline`: an O(n) fit that
    agrees with SciPy's ``CubicSpline`` to roundoff.

    Format: one header line ``time,B_00,B_01,...,C_00,...`` followed by rows
    of a strictly increasing time column and the row-major complex entries of
    the drift and the drive (Python complex literals, e.g. ``1.5-0.25j``).
    Samples must be finite and skew-Hermitian, by the check
    :func:`~blochwave.operators.decompose` makes, and so must the spline at
    each interval's quarter points and midpoint: it is linear in the samples,
    but its weights sum in absolute value to about 1.48 midway between two,
    so it can amplify the samples' defects there.  The drift derivative
    is the spline's own (exact) derivative.  Drift, drive and derivative are
    one piecewise polynomial, evaluated once per distinct time or array of
    times: the three accessors return read-only views of that evaluation.  Evaluation outside
    the tabulated span is refused for all three.
    """
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    except OSError as exc:
        raise IoError(f"cannot read tabulated model {path}: {exc}") from exc
    if len(rows) < 3:
        raise ConfigError(f"tabulated model {path} needs a header and >= 2 sample rows")

    n_cols = len(rows[0])
    dim_sq, rem = divmod(n_cols - 1, 2)
    dim = int(round(np.sqrt(dim_sq)))
    if rem != 0 or dim * dim != dim_sq:
        raise ConfigError(
            f"tabulated model {path}: {n_cols} columns do not fit 1 + 2*dim^2"
        )
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != n_cols:
            raise ConfigError(f"tabulated model {path}: row {i} has {len(row)} of {n_cols} cells")

    try:
        data = np.array(
            [[complex(cell) for cell in row] for row in rows[1:]], dtype=complex
        )
    except ValueError as exc:
        raise ConfigError(f"tabulated model {path}: bad complex literal: {exc}") from exc

    times = data[:, 0].real
    if not (np.all(np.isfinite(times) & (data[:, 0].imag == 0)) and np.all(np.diff(times) > 0)):
        raise ConfigError(f"tabulated model {path}: times must be real, finite and increasing")
    samples = data[:, 1:].reshape(-1, 2, dim, dim)
    try:  # the check decompose makes, so that a table it would refuse is refused here
        require_skew_hermitian(
            samples.reshape(-1, dim, dim),
            name=lambda i: f"row {i // 2 + 1} (t={times[i // 2]:g}): {('drift', 'drive')[i % 2]}",
        )
    except NotSkewHermitian as exc:
        raise ConfigError(f"tabulated model {path}: {exc}") from exc

    # one cubic with coefficients (power, interval, [B, C, B'], row, column):
    # B = a s^3 + b s^2 + c s + d on an interval gives B' = 3a s^2 + 2b s + c
    coeffs = np.zeros((4, len(times) - 1, 3, dim, dim), dtype=complex)
    coeffs[:, :, :2] = _cubic_spline(times, samples)
    coeffs[1:, :, 2] = coeffs[:-1, :, 0] * np.array([3.0, 2.0, 1.0])[:, None, None, None]
    table = _piecewise_cubic(coeffs, times)
    between = (times[:-1, None] + np.diff(times)[:, None] * np.array([0.25, 0.5, 0.75])).ravel()
    try:
        require_skew_hermitian(
            table(between)[:, :2].reshape(-1, dim, dim),
            tol=SKEW_TOL,
            name=lambda i: f"interpolant at t={between[i // 2]:g}: {('drift', 'drive')[i % 2]}",
        )
    except NotSkewHermitian as exc:
        raise ConfigError(f"tabulated model {path}: {exc}") from exc
    latest = [(None, None)]  # a frame evaluation asks all three at the same times in turn

    def at(t) -> np.ndarray:
        ts = np.asarray(t, dtype=float)
        key = (ts.shape, ts.tobytes())
        last_key, values = latest[0]
        if key == last_key:
            return values
        outside = ~((ts >= times[0]) & (ts <= times[-1]))  # a NaN time too
        if outside.any():
            raise ConfigError(
                f"tabulated model evaluated at t={ts[outside][0]:g} outside "
                f"its span [{times[0]:g}, {times[-1]:g}]"
            )
        values = table(ts)
        values.flags.writeable = False
        latest[0] = (key, values)
        return values

    return GeneratorModel(
        name="custom",
        dim=dim,
        gamma=float(gamma),
        drift=lambda t: at(t)[..., 0, :, :],
        drive=lambda t: at(t)[..., 1, :, :],
        drift_derivative=lambda t: at(t)[..., 2, :, :],
        params={"path": str(path), "gamma": float(gamma), "interpolation": "cubic-spline"},
    )


def builtin_model_names() -> list[str]:
    return ["landau_zener", "three_level", "random_smooth"]
