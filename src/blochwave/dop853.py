"""DOP853, the Dormand-Prince 8(5,3) Runge-Kutta pair with step-size control
and a dense output of order 7 (Hairer, Nørsett & Wanner, *Solving Ordinary
Differential Equations I*, §II.5 and §II.10), as two steppers.

:func:`integrate` steps a general ``y' = f(t, y)`` one step at a time, for a
stack of independent problems in lockstep.  Its loop replays SciPy 1.17.1's
DOP853 operation by operation, so each problem's states and step times are
bit-identical to SciPy's, with two exceptions.  The ``t0`` checkpoint is the
initial state itself, and the terminal event's root is bisected on the step
polynomial to about 4 eps (SciPy runs Brent's method to the same tolerance).
Each problem keeps its own step size, scalar controller and event.  An
iteration asks the :class:`Staged` right-hand side for its coefficients (the
state-independent part) at the twelve stage times of every running problem
and the three extra ones of each step polynomial it needs (for a checkpoint
inside a step, or an event's root), and stacks the stages, the error norms
and the checkpoint rows over the problems.

:func:`integrate_linear` steps a linear flow ``X' = G(t) X`` a round at a
time.  Its stage matrices do not depend on the state, so every segment's
step map can be formed from the identity, and many segments at once: a round
asks for ``G`` at the stage nodes of every pending segment in batched calls
of at most :data:`MAX_NODES` times, runs the stage recursions as stacked
matrix products, accepts each segment whose error norm is below 1, and
splits each other one into the pieces the step controller predicts, for the
next round.  The accepted maps are composed into the checkpoints as a
blocked prefix product; a checkpoint inside a segment is read off the
segment's step polynomial.
Each accepted segment is a DOP853 step with the same tableau, error
estimate and dense output, but the segments are not :func:`integrate`'s
steps: a failed segment is refined in place instead of a step size being
carried from one step to the next, so segments never grow.

Both steppers take a plain generator.  A flow known in closed form, such as
the adiabatic frame's rotation, is factored out by the caller, which hands
over the rotated generator and applies the rotation to the results.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IntegratorFailure
from .operators import stack_matmul

__all__ = [
    "IvpResult",
    "IvpStack",
    "LinearDenseOutput",
    "Staged",
    "integrate",
    "integrate_linear",
]

N_STAGES = 12
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0  # step controller
ERROR_EXPONENT = -1.0 / 8.0  # the error estimator has order 7
#: node times per batched generator call of integrate_linear (128 segments of
#: twelve stage nodes), which bounds the memory of a round
MAX_NODES = 1536
#: the most pieces a failed segment is cut into in one round: far from the
#: asymptotic regime the error norm overstates the pieces a segment needs
MAX_PIECES = 10

# The tableau as the float64 values of scipy/integrate/_ivp/dop853_coefficients.py
# (SciPy 1.17.1, BSD-3-Clause, after Hairer's Fortran DOP853).  Stages 13-15 are
# the dense output's extra stages, D its polynomial's last four coefficients.
C = np.array([
    0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778
])
A = np.zeros((16, 16))
A[np.tril_indices(16, -1)] = [  # the strict lower triangle, row by row
    0.05260015195876773, 0.0197250569845379, 0.0591751709536137, 0.02958758547680685, 0,
    0.08876275643042054, 0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242, 0.037109375, 0, 0,
    0.17025221101954405, 0.06021653898045596, -0.017578125, 0.03709200011850479, 0, 0,
    0.17038392571223998, 0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
    0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996, 0.47766253643826434, 0, 0, -2.4881146199716677,
    -0.590290826836843, 21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627, -0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
    -3.0467644718982196, 2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636, 0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259, 0.056167502283047954, 0, 0, 0, 0, 0,
    0.25350021021662483, -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
    0.00820105229563469, 0.007567897660545699, -0.008298, 0.03183464816350214, 0, 0, 0, 0,
    0.028300909672366776, 0.053541988307438566, -0.05492374857139099, 0, 0,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
    -0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987
]
B = A[N_STAGES, :N_STAGES]
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0
])
D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
])
# complex copies, so that no dot product casts its coefficients on every step
_A, _B, _E3, _E5, _D = (v.astype(complex) for v in (A, B, E3, E5, D))
# the nodes of a step's stages 1-12 (stage 0 is the last step's f) and of the
# dense output's stages 13-15; a segment of integrate_linear has its stages
# 0-11 at LINEAR_NODES (stage 12 shares stage 11's time)
STEP_NODES, DENSE_NODES = C[1 : N_STAGES + 1], C[N_STAGES + 1 :]
STEP_COLUMN, DENSE_COLUMN = STEP_NODES[:, None], DENSE_NODES[:, None]
LINEAR_NODES = C[:N_STAGES]


@dataclass(frozen=True)
class Staged:
    """A right-hand side ``f(t, y) = step(coefficients(t), y)`` split at the
    state.

    ``coefficients(ts)`` takes a 1-D array of times and returns an array of
    one row per time, in order; it holds everything that does not depend on
    the state.  ``step(c, y)`` is the rest, for a
    stack of states ``y`` and the coefficients ``c`` at their times, one
    row each.
    """

    coefficients: Callable[[np.ndarray], np.ndarray]
    step: Callable[[object, np.ndarray], np.ndarray]

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        return self.step(self.coefficients(np.array([t])), np.asarray(y)[None])[0]


@dataclass
class IvpResult:
    """States at the checkpoints reached (one column each; those up to
    ``event_time`` if the terminal event fired) and the step statistics.
    For :func:`integrate_linear`, ``y`` holds the maps, one per checkpoint
    along the first axis, and the steps are segments."""

    y: np.ndarray
    nfev: int
    n_accepted: int
    n_rejected: int
    max_step: float
    event_time: float | None = None
    dense: LinearDenseOutput | None = None

    def stats(self) -> dict:
        """The step statistics, without the states."""
        return {
            "nfev": self.nfev,
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "max_step": self.max_step,
        }


class IvpStack(tuple):
    """The :class:`IvpResult` of each problem of a stack, in order."""

    @property
    def nfev(self) -> int:
        """The evaluations of all the problems together."""
        return sum(result.nfev for result in self)


def _by_stage(coefficients, count: int):
    """Stage-major coefficients (one row per time) as ``count`` entries, one
    per stage, each with one row per problem."""
    c = np.asarray(coefficients)
    return c.reshape(count, -1, *c.shape[1:])


def _evaluate(polynomials, owner: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Row ``i``: the step polynomial of problem ``owner[i]`` (of the stacks of
    :func:`_step_polynomials`) at ``ts[i]``, by SciPy's Horner recurrence."""
    t_old, h, coeffs, y_old = polynomials
    x = ((ts - t_old[owner]) / h[owner])[:, None]
    factors = (x.astype(complex), (1 - x).astype(complex))
    coeffs = coeffs[owner]
    y = (coeffs[:, 0] + 0j) * factors[0]  # SciPy adds the first to zeros
    for i in range(1, coeffs.shape[1]):
        y += coeffs[:, i]
        y *= factors[i % 2]
    y += y_old[owner]
    return y


def _squared_norms(x: np.ndarray) -> list:
    """The squared 2-norms of a complex stack's rows as Python floats, each
    ``x.real.dot(x.real) + x.imag.dot(x.imag)`` (``np.linalg.norm``'s) bit for bit."""
    return (np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag)).tolist()


def _initial_steps(fun: Staged, grids, y0, f0, max_step, rtol, atol) -> list:
    """The starting steps of Hairer, Nørsett & Wanner §II.4, as SciPy takes
    them, of the problems over ``grids``, all probed in one call."""
    scale = atol + np.abs(y0) * rtol
    root_n = y0.shape[1] ** 0.5
    d0, d1 = ([math.sqrt(s) / root_n for s in _squared_norms(x / scale)] for x in (y0, f0))
    spans = [abs(times[-1] - times[0]) for times in grids]
    h0 = [min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b, span) for a, b, span in zip(d0, d1, spans)]
    probes = [times[0] + h for times, h in zip(grids, h0)]
    f1 = fun.step(fun.coefficients(np.array(probes)), y0 + np.array(h0)[:, None] * f0)
    d2 = [math.sqrt(s) / root_n / h for s, h in zip(_squared_norms((f1 - f0) / scale), h0)]
    h1 = [max(1e-6, h * 1e-3) if a <= 1e-15 and b <= 1e-15 else (0.01 / max(a, b)) ** (1 / 8)
          for h, a, b in zip(h0, d1, d2)]
    return [float(min(100 * h, h_1, span, max_step)) for h, h_1, span in zip(h0, h1, spans)]


def _per_problem(K: np.ndarray) -> np.ndarray:
    """Stages ``(stages, problems, n)`` as SciPy's ``K[:s].T``, per problem."""
    return K.transpose(1, 2, 0)


def _step_polynomials(fun: Staged, K, t_old, h, y_old, y, f) -> tuple:
    """The polynomials of accepted steps ``t_old -> t_old + h`` (a problem per
    column of ``K``) as stacks ``(t_old, h, coefficients, y_old)``, highest power first."""
    hs = np.empty(y.shape, dtype=complex)
    hs[:] = h[:, None]  # complex, as SciPy's scalar h is cast, and unbroadcast
    nodes = _by_stage(fun.coefficients((t_old + DENSE_COLUMN * h).ravel()), 3)
    for s, c in enumerate(nodes, start=N_STAGES + 1):
        K[s] = fun.step(c, y_old + np.matmul(_per_problem(K[:s]), _A[s, :s]) * hs)
    F = np.empty((len(h), 7, y.shape[1]), dtype=complex)
    delta_y = y - y_old
    F[:, 0], F[:, 1], F[:, 2] = delta_y, hs * K[0] - delta_y, 2 * delta_y - hs * (f + K[0])
    F[:, 3:] = hs[:, None] * np.matmul(_D, K.swapaxes(0, 1))
    return t_old, h, F[:, ::-1], y_old


class _Problem:
    """One problem of :func:`integrate`: checkpoint times, time, step,
    controller state, event value, checkpoint rows and counts."""

    __slots__ = ("times", "t_bound", "t", "t_new", "h", "h_abs", "min_step", "fresh", "rejected",
                 "g", "rows", "n_accepted", "n_rejected", "n_dense", "event_time")

    def __init__(self, times, h_abs, y, g):
        self.times, self.t, self.t_bound = times, times[0], times[-1]
        self.h_abs, self.g, self.rows = h_abs, g, [y]
        self.fresh, self.rejected, self.event_time = True, False, None
        self.n_accepted = self.n_rejected = self.n_dense = 0


def _grids(grid, count: int) -> list:
    """The checkpoint times of ``count`` problems, from one grid or one each."""
    one = len(grid) == 0 or np.ndim(grid[0]) == 0
    grids = [np.asarray(g, dtype=float) for g in ([grid] if one else grid)]
    bad = any(g.ndim != 1 or len(g) < 2 or not np.all(np.diff(g) > 0) for g in grids)
    if bad or not one and len(grids) != count:
        raise ValueError("need one grid, or one per problem, of at least two strictly increasing times")
    return [grids[0].tolist()] * count if one else [g.tolist() for g in grids]


def integrate(fun: Staged, y0, grid, rtol, atol, max_step=np.inf, event=None) -> IvpStack:
    """Integrate ``y' = fun(t, y)`` for each row of ``y0``, a stack of
    independent complex vector problems, over strictly increasing checkpoint
    times: ``grid`` for every problem, or a sequence of such grids, one per
    problem, each starting at its problem's initial time.  ``event(t, y)``
    stops a problem at its first upward zero crossing.

    The problems step in lockstep, each under its own control: an iteration
    attempts one step of every running problem, at its own time and step
    size, with one call per kind of work (the ``coefficients`` at all stage
    times, the stages, the error norms, the checkpoint rows of every step
    polynomial).  The scalar controllers (Python floats, as SciPy's) and
    events stay per problem, so each result is bit for bit the one the
    problem gets alone.  A problem retires at its last checkpoint or event.

    Raises:
        ValueError: for a malformed grid, or not one grid per problem.
        IntegratorFailure: when a step falls below 10 ulp of its problem's ``t``.
    """
    coefficients, stage = fun.coefficients, fun.step
    y = np.array(y0, dtype=complex)
    n = y.shape[1]
    grids = _grids(grid, len(y))
    f = stage(coefficients(np.array([times[0] for times in grids])), y)
    problems = [
        _Problem(times, h_p, y_p, None if event is None else event(times[0], y_p))
        for times, h_p, y_p in zip(grids, _initial_steps(fun, grids, y, f, max_step, rtol, atol), y)
    ]
    active, K = problems, None
    while active:
        if K is None or K.shape[1] != len(active):  # buffers for the running problems
            K = np.empty((16, len(active), n), dtype=complex)
            t, h, hs = np.empty(len(active)), np.empty(len(active)), np.empty((len(active), n), complex)
            stages = [(s, _per_problem(K[:s]), _A[s, :s]) for s in range(1, N_STAGES)]
            k_solution, k_error = _per_problem(K[:N_STAGES]), _per_problem(K[: N_STAGES + 1])
        for j, p in enumerate(active):
            if p.fresh:  # a new step
                p.min_step = 10 * abs(math.nextafter(p.t, math.inf) - p.t)
                p.h_abs = max_step if p.h_abs > max_step else max(p.h_abs, p.min_step)
                p.rejected = False
            if p.h_abs < p.min_step:
                raise IntegratorFailure(f"step at t={p.t:g} below the spacing between numbers")
            p.t_new = min(p.t + p.h_abs, p.t_bound)
            p.h = p.t_new - p.t
            p.h_abs = abs(p.h)
            t[j], h[j] = p.t, p.h
        hs[:] = h[:, None]  # complex, as SciPy's scalar h is cast, and unbroadcast
        # stage-major, so that each stage's rows are one slice; the last is at t + h
        nodes = _by_stage(coefficients((t + STEP_COLUMN * h).ravel()), N_STAGES)
        K[0] = f
        for (s, k_t, a), c in zip(stages, nodes):
            K[s] = stage(c, y + np.matmul(k_t, a) * hs)
        y_new = y + hs * np.matmul(k_solution, _B)
        K[N_STAGES] = f_new = stage(nodes[-1], y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err5 = np.matmul(k_error, _E5) / scale
        err3 = np.matmul(k_error, _E3) / scale
        for p, s5, s3 in zip(active, _squared_norms(err5), _squared_norms(err3)):
            # Python floats: NumPy's array ** differs from Python's in the last bit
            err5_2, err3_2 = math.sqrt(s5) ** 2, math.sqrt(s3) ** 2
            if err5_2 == 0 and err3_2 == 0:
                error_norm = 0.0
            else:
                error_norm = abs(p.h) * err5_2 / math.sqrt((err5_2 + 0.01 * err3_2) * n)
            p.fresh = error_norm < 1
            if p.fresh:
                factor = MAX_FACTOR
                if error_norm > 0:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                p.h_abs *= min(1, factor) if p.rejected else factor
            else:
                p.h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                p.rejected = True
                p.n_rejected += 1
        accepted = [j for j, p in enumerate(active) if p.fresh]
        if not accepted:
            continue
        y_old = y
        if len(accepted) == len(active):
            y, f = y_new, f_new
        else:
            y, f = y.copy(), f.copy()
            y[accepted], f[accepted] = y_new[accepted], f_new[accepted]

        need, fired, ended = [], [], False  # who needs a step polynomial, whose event fired
        for j in accepted:
            p = active[j]
            p.n_accepted += 1
            p.t = p.t_new
            ended |= p.t == p.t_bound
            if event is not None:
                g_new = event(p.t, y[j])
                if p.g <= 0 <= g_new:
                    fired.append(j)
                p.g = g_new
            if j in fired or p.times[len(p.rows)] <= p.t:
                need.append(j)
        if need:
            some = slice(None) if len(need) == len(active) else need
            polynomials = _step_polynomials(fun, K[:, some], t[some], h[some], y_old[some], y[some], f[some])
            ts, owner = [], []  # the checkpoints each step passes, in one stack
            for k, j in enumerate(need):
                p = active[j]
                p.n_dense += 1
                if j in fired:
                    lo, hi, mine = float(polynomials[0][k]), p.t, np.array([k])  # bisect to ~4 eps
                    while hi - lo > 4 * np.finfo(float).eps * (1.0 + abs(hi)):
                        mid = 0.5 * (lo + hi)
                        y_mid = _evaluate(polynomials, mine, np.array([mid]))[0]
                        lo, hi = (mid, hi) if event(mid, y_mid) < 0 else (lo, mid)
                    p.event_time = p.t = float(0.5 * (lo + hi))
                new = p.times[len(p.rows) : bisect_right(p.times, p.t)]
                ts += new
                owner += [k] * len(new)
            for k, row in zip(owner, _evaluate(polynomials, np.array(owner, dtype=int), np.array(ts))):
                active[need[k]].rows.append(row)
        if fired or ended:  # retire the problems that are done
            running = [j for j, p in enumerate(active) if p.event_time is None and p.t < p.t_bound]
            active, y, f = [active[j] for j in running], y[running], f[running]

    return IvpStack(
        IvpResult(np.stack(p.rows, axis=1), 2 + N_STAGES * (p.n_accepted + p.n_rejected) + 3 * p.n_dense,
                  p.n_accepted, p.n_rejected, max_step, p.event_time)
        for p in problems
    )


def _polynomial_maps(polynomials, rows, x, n):
    """The local maps ``P`` of the step polynomials ``polynomials[:, rows]``
    (highest power first, over the entries of ``P - 1``) at the fractions
    ``x`` of their segments."""
    x = x[:, None]
    factors = (x, 1 - x)
    y = polynomials[0][rows] * x  # SciPy's Horner recurrence
    for i in range(1, len(polynomials)):
        y += polynomials[i][rows]
        y *= factors[i % 2]
    return y.reshape(-1, n, n) + np.eye(n)


class LinearDenseOutput:
    """The maps of a linear flow at a time or an array of times (a stack):
    each segment's step polynomial, from the identity, times the map at the
    segment's start.  A segment boundary belongs to the earlier segment."""

    def __init__(self, starts, widths, polynomials, maps):
        self._starts, self._widths, self._maps = starts, widths, maps
        self._polynomials = polynomials  # (7, segments, entries), highest power first

    def __call__(self, t) -> np.ndarray:
        ts = np.asarray(t, dtype=float)
        flat = ts.reshape(-1)
        owner = np.searchsorted(self._starts, flat) - 1
        np.clip(owner, 0, len(self._starts) - 1, out=owner)
        x = (flat - self._starts[owner]) / self._widths[owner]
        n = self._maps.shape[-1]
        local = _polynomial_maps(self._polynomials, owner, x, n)
        return stack_matmul(local, self._maps[owner]).reshape(*ts.shape, n, n)


def _split(lo: np.ndarray, hi: np.ndarray, pieces: np.ndarray):
    """Each segment ``[lo, hi]`` cut into ``pieces`` equal ones, in order;
    neighbours share their boundary exactly."""
    pieces = pieces.astype(int)
    owner = np.repeat(np.arange(len(lo)), pieces)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    a, width, p = lo[owner], (hi - lo)[owner], pieces[owner]
    return a + width * (k / p), np.where(k + 1 == p, hi[owner], a + width * ((k + 1) / p))


def _coefficients(generator, nodes, lo, h):
    """The generator at the nodes of each segment, node-major: the matrices
    ``(nodes, segments, n, n)``."""
    g = np.asarray(generator((lo + nodes[:, None] * h).ravel()), dtype=complex)
    return g.reshape(len(nodes), len(lo), *g.shape[1:])


def _fill_stages(K, g, first, h, eye):
    """Stages ``first, first + 1, ...`` of each segment's step from the
    identity, ``K_s = G_s (1 + h sum_l A[s, l] K_l)``, with the stage
    matrices ``g`` of those stages, in place (``K`` is C-contiguous)."""
    flat = K.reshape(len(K), -1)
    for s, g_s in enumerate(g, start=first):
        y = (_A[s, :s] @ flat[:s]).reshape(K.shape[1:])
        y *= h
        y += eye
        K[s] = stack_matmul(g_s, y)


def _attempt(generator, lo, hi, atol, want):
    """One try at each segment ``[lo, hi]``.

    Returns its error norm, its map, and the step polynomials (highest power
    first) of the accepted segments where ``want`` is set.
    """
    h = hi - lo
    count = len(lo)
    g = _coefficients(generator, LINEAR_NODES, lo, h)
    n = g.shape[-1]
    eye = np.eye(n, dtype=complex)
    hs = h[:, None, None]
    K = np.empty((N_STAGES, count, n, n), dtype=complex)
    K[0] = g[0]
    _fill_stages(K, g[1:], 1, hs, eye)
    flat = K.reshape(N_STAGES, -1)
    # a non-finite estimate (a huge generator) is a non-finite error, which
    # integrate_linear reports as its failure
    with np.errstate(over="ignore", invalid="ignore"):
        estimates = ((e[:N_STAGES] @ flat).reshape(count, -1) for e in (_E5, _E3))
        err5, err3 = ((x.real**2 + x.imag**2).sum(axis=-1) / atol**2 for x in estimates)
        scale = np.sqrt((err5 + 0.01 * err3) * (n * n))
        error = h * err5 / np.maximum(scale, np.finfo(float).tiny)  # 0 for a zero estimate
    maps = eye + hs * (_B @ flat).reshape(count, n, n)
    mine = (error < 1) & want
    if not mine.any():
        return error, maps, None

    # the polynomial of each segment of mine, from three more stages
    h, hs, local = h[mine], hs[mine], maps[mine]
    K = np.concatenate([K[:, mine], np.empty((4, len(h), n, n), dtype=complex)])
    K[N_STAGES] = stack_matmul(g[-1, mine], local)
    _fill_stages(K, _coefficients(generator, DENSE_NODES, lo[mine], h), N_STAGES + 1, hs, eye)
    # the stage values and the increment of the local state P
    stage_values, delta = K.reshape(16, len(h), -1), (local - eye).reshape(len(h), -1)
    hv = h[:, None]
    k0, f = stage_values[0], stage_values[N_STAGES]
    F = np.empty((7, *delta.shape), dtype=complex)
    F[:3] = delta, hv * k0 - delta, 2 * delta - hv * (f + k0)
    F[3:] = hv * (_D @ stage_values.reshape(16, -1)).reshape(4, *delta.shape)
    return error, maps, F[::-1]


def _prefix_products(maps: np.ndarray) -> np.ndarray:
    """The running products ``1, m_0, m_1 m_0, ...`` of a stack of maps, as a
    blocked prefix scan (Blelloch, *Prefix sums and their applications*,
    CMU-CS-90-190, 1990).  The maps are cut into rows of width
    ``isqrt(count)``, padded with identities; one stacked product per column
    forms every row's running products at once, the row ends are carried
    serially, and one last stacked product applies the carries: about ``2
    sqrt(count)`` calls of :func:`stack_matmul` instead of ``count``."""
    count, n = len(maps), maps.shape[-1]
    width = max(1, math.isqrt(count))
    rows = -(-count // width)
    eye = np.eye(n, dtype=complex)
    padding = np.broadcast_to(eye, (rows * width - count, n, n))
    runs = np.concatenate([maps, padding]).reshape(rows, width, n, n)
    for column in range(1, width):
        runs[:, column] = stack_matmul(runs[:, column], runs[:, column - 1])
    carries = np.empty((rows, n, n), dtype=complex)
    carries[0] = eye
    for row in range(1, rows):
        carries[row] = stack_matmul(runs[row - 1, -1], carries[row - 1])
    at_start = np.empty((count + 1, n, n), dtype=complex)
    at_start[0] = eye
    at_start[1:] = stack_matmul(runs, carries[:, None]).reshape(-1, n, n)[:count]
    return at_start


def integrate_linear(generator, grid, atol, max_step=np.inf, dense=False) -> IvpResult:
    """Integrate the linear flow ``X' = G(t) X`` with ``X(grid[0]) = 1`` over
    the strictly increasing checkpoint times ``grid``, a round at a time.

    ``generator(ts)`` gives ``G`` at a 1-D array of times as a stack.  The
    first round's segments cut ``[grid[0], grid[-1]]`` into equal pieces
    of at most ``max_step``.  The error norm of a segment is DOP853's, on the
    entries of its step from the identity, with the scale
    ``atol``: for the step from a unitary ``X`` the error ``E X`` has ``‖E
    X‖_F = ‖E‖_F``.  A segment whose norm ``err`` is 1 or more is cut into
    ``max(2, ceil(err^(1/8) / SAFETY))`` pieces, at most :data:`MAX_PIECES`,
    for the next round.  The accepted maps, in time order, are composed into
    the maps at the segment starts by :func:`_prefix_products` (about ``2
    sqrt(n)`` stacked products for ``n`` maps, equal to the serial ``m @ x``
    loop up to roundoff).  A checkpoint inside an accepted segment is read
    off the segment's step polynomial (three more node evaluations), as is
    every time when ``dense`` keeps the polynomials.

    Returns the :class:`IvpResult` of the maps at the checkpoints, with the
    node evaluations as ``nfev`` and the accepted and rejected segments as
    steps; ``dense`` is a :class:`LinearDenseOutput`.

    Raises:
        IntegratorFailure: when a segment falls below 10 ulp of its start,
            or its error norm is not finite.
    """
    knots = np.asarray(grid, dtype=float)
    per_call = MAX_NODES // N_STAGES
    span = knots[-1:] - knots[0]
    lo, hi = _split(knots[:1], knots[-1:], np.maximum(1, np.ceil(span / max_step)))
    accepted, kept, inside = [], [], []  # segments, their polynomials, checkpoints inside
    nfev = n_rejected = 0
    while len(lo):  # the pending segments stay in time order
        small = hi - lo < 10 * np.spacing(np.abs(lo))
        if small.any():
            raise IntegratorFailure(f"step at t={lo[small][0]:g} below the spacing between numbers")
        retry = []
        for i in range(0, len(lo), per_call):
            a, b = lo[i : i + per_call], hi[i : i + per_call]
            want = np.searchsorted(knots, a, "right") < np.searchsorted(knots, b, "left")
            want |= dense
            error, maps, polynomials = _attempt(generator, a, b, atol, want)
            if not np.isfinite(error).all():
                raise IntegratorFailure(f"non-finite step at t={a[~np.isfinite(error)][0]:g}")
            ok = error < 1
            accepted.append((a[ok], b[ok], maps[ok]))
            nfev += N_STAGES * len(a)
            if polynomials is not None:
                nfev += 3 * polynomials.shape[1]
                mine_lo, mine_hi = a[ok & want], b[ok & want]
                owner = np.maximum(np.searchsorted(mine_lo, knots, "right") - 1, 0)
                hit = np.flatnonzero((knots > mine_lo[owner]) & (knots < mine_hi[owner]))
                x = (knots[hit] - mine_lo[owner[hit]]) / (mine_hi - mine_lo)[owner[hit]]
                local = _polynomial_maps(polynomials, owner[hit], x, maps.shape[-1])
                inside.append((hit, mine_lo[owner[hit]], local))
                if dense:
                    kept.append(polynomials)
            if not ok.all():
                n_rejected += int(np.count_nonzero(~ok))
                pieces = np.ceil(error[~ok] ** -ERROR_EXPONENT / SAFETY)
                retry.append(_split(a[~ok], b[~ok], np.clip(pieces, 2, MAX_PIECES)))
        lo, hi = (np.concatenate(side) for side in zip(*retry)) if retry else (lo[:0], hi[:0])

    starts, ends, maps = (np.concatenate(side) for side in zip(*accepted))
    order = np.argsort(starts, kind="stable")
    starts, ends, maps = starts[order], ends[order], maps[order]
    at_start = _prefix_products(maps)
    # a checkpoint is a segment's start, the end, or inside a segment
    y = at_start[np.searchsorted(starts, knots)]
    for hit, owners, local in inside:
        y[hit] = stack_matmul(local, at_start[np.searchsorted(starts, owners)])
    interpolant = None
    if dense:
        polynomials = np.concatenate(kept, axis=1)[:, order]
        interpolant = LinearDenseOutput(starts, ends - starts, polynomials, at_start[:-1])
    return IvpResult(
        y=y,
        nfev=nfev,
        n_accepted=len(starts),
        n_rejected=n_rejected,
        max_step=max_step,
        dense=interpolant,
    )
