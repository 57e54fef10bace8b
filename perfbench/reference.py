"""A fixed reference computation that measures the host's current speed.

The benchmark shares a few cores of a host whose speed drifts: the same
round of the same code has taken anywhere from 1.0 to 1.9 s within ten
minutes, and fresh-interpreter set-up time moved with it.  Medians over a run
absorb the fast part of that drift but not the slow part, so run-level
medians of raw seconds spread by 20-45% from one run to the next.

``run.py`` therefore times this computation three times right before every
job and set-up probe, in the same process, and reports every end-to-end time
in *reference-speed seconds*: the raw time times ``REFERENCE_S`` over the
median of those three timings.  On a host running at the reference speed the
two are equal.  A change to blochwave cannot change this computation: it
uses only numpy and scipy, with fixed inputs.  It is shaped like blochwave's
own inner loop (an adaptive Runge-Kutta integration of a small complex matrix
ODE whose right-hand side does an eigendecomposition), so host contention
slows both alike.  The speed is sampled next to each job because the drift
also has a part lasting a few seconds, which pairing follows and a run-wide
median would not.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.integrate import solve_ivp

#: time of one ``reference_seconds()`` call at the reference speed: about
#: its median on a 2-vCPU Intel Xeon VM at 2.1 GHz (Python 3.11.7, numpy
#: 2.4.6, scipy 1.17.1), where it took 0.27-0.66 s.  It only sets the scale
#: of the reported seconds
REFERENCE_S = 0.3
DIM = 4
T_FINAL = 20.0

_rng = np.random.default_rng(20250903)
_H0 = _rng.standard_normal((DIM, DIM)) + 1j * _rng.standard_normal((DIM, DIM))
_H0 = _H0 + _H0.conj().T
_H1 = _rng.standard_normal((DIM, DIM)) + 1j * _rng.standard_normal((DIM, DIM))
_H1 = _H1 + _H1.conj().T


def _rhs(t, y):
    h = _H0 + np.cos(t) * _H1
    _, vecs = np.linalg.eigh(h)
    p = vecs[:, :1] @ vecs[:, :1].conj().T
    m = y.reshape(DIM, DIM)
    return (-1j * (h @ m) + 1e-3 * (p @ m - m @ p)).ravel()


def reference_seconds() -> float:
    """Wall time of one run of the reference computation."""
    start = time.perf_counter()
    sol = solve_ivp(_rhs, (0.0, T_FINAL), np.eye(DIM, dtype=complex).ravel(), rtol=1e-8, atol=1e-10)
    elapsed = time.perf_counter() - start
    if not sol.success:
        raise RuntimeError(f"reference computation failed: {sol.message}")
    return elapsed
