"""The in-house DOP853 loop against SciPy's: tableau, states, step times,
the blow-up event and the step statistics; and the round stepper of linear
flows."""

import numpy as np
import pytest
from scipy.integrate import DOP853 as ScipyDOP853
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from blochwave import (
    IntegratorFailure,
    build_frame,
    identity_ic,
    landau_zener_model,
    random_smooth_model,
    stationary_ic,
    three_level_model,
)
from blochwave import dop853
from blochwave.bloch import riccati_rhs
from blochwave.dop853 import Staged
from blochwave.propagation import _estimate_max_step, solve_matrix_ivp
from tests.helpers import constant

X = np.array([[0, 1], [1, 0]], dtype=complex)
DIAG_BLOCKS = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))


def test_tableau_is_scipys_bit_for_bit():
    for name in ("A", "B", "C", "D", "E3", "E5"):
        ours, theirs = getattr(dop853, name), getattr(dop853_coefficients, name)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name


def scipy_solve(rhs, y0, grid, tol, max_step=None, dense=False, event=None):
    """``solve_matrix_ivp``'s problem handed to SciPy's DOP853, one time per
    call of the right-hand side."""
    events = None
    if event is not None:
        events = [lambda t, y: event(t, y)]
        events[0].terminal, events[0].direction = True, 1.0
    return solve_ivp(
        lambda t, y: rhs(t, y.reshape(y0.shape)).ravel(),
        (grid[0], grid[-1]),
        y0.ravel(),
        method="DOP853",
        t_eval=grid,
        rtol=max(tol, 1e-13),
        atol=tol,
        max_step=np.inf if max_step is None else max_step,
        dense_output=dense,
        events=events,
    )


def plain_case():
    model = random_smooth_model(4, 2, seed=5)
    rhs = Staged(model.full_generator, np.matmul)
    return rhs, np.eye(4, dtype=complex), np.linspace(0.0, 3.0, 7), 1e-9, {}


def rotated_riccati(frame):
    """The Riccati flow of the rotated generator ``frame.rotated_at``, as
    ``integrate_riccati`` hands it over: a block projection is a mask."""
    labels = frame.basis[0]
    same = (labels[:, None] == labels).astype(complex)
    return Staged(frame.rotated_at, lambda h, z: h @ z - z @ ((h @ z) * same))


def rotating_case(make, t0, t1, n, two_sided=False):
    def build():
        frame = build_frame(make(), t0, t1, tol=1e-10)
        if two_sided:
            rhs, y0 = rotated_riccati(frame), frame.basis[1](identity_ic(frame.blocks).matrix)
        else:
            rhs, y0 = Staged(frame.rotated_at, np.matmul), np.eye(frame.model.dim, dtype=complex)
        max_step = _estimate_max_step(frame.hamiltonian_at, t0, t1)
        return rhs, y0, np.linspace(t0, t1, n), 1e-10, {"max_step": max_step}

    return build


def pole_case(blowup_norm):
    def build():
        h = -1j * X  # purely off-block: the wave operator has a pole at pi/2
        event = lambda t, y: float(np.linalg.norm(y) - blowup_norm)
        rhs = Staged(constant(h), lambda h, u: riccati_rhs(h, u, DIAG_BLOCKS))
        return rhs, np.eye(2, dtype=complex), np.linspace(0.0, 3.0, 31), 1e-10, {"event": event}

    return build


CASES = {
    "plain": plain_case,
    "rotating_three_level": rotating_case(lambda: three_level_model(10.0, 1.0), 0.0, 50.0, 251),
    "rotating_lz": rotating_case(lambda: landau_zener_model(2.0), -25.0, 25.0, 401),
    "rotating_riccati": rotating_case(lambda: three_level_model(10.0, 1.0), 0.0, 20.0, 101, True),
    "pole_event": pole_case(1e2),
}


def watched(rhs):
    """``rhs``, watched: ``seen["times"]`` collects a copy of every batch of
    times it is asked for, ``seen["calls"]`` counts the calls of its step."""
    seen = {"times": [], "calls": 0}

    def coefficients(ts):
        seen["times"].append(ts.copy())
        return rhs.coefficients(ts)

    def step(c, y):
        seen["calls"] += 1
        return rhs.step(c, y)

    return Staged(coefficients, step), seen


@pytest.mark.parametrize("step_ends", [False, True], ids=["checkpoints", "step_ends"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_bit_identical_to_scipy(case, step_ends):
    rhs, y0, grid, tol, kwargs = CASES[case]()
    if not step_ends:
        ours = solve_matrix_ivp(rhs, y0, grid, tol, **kwargs)
        ref = scipy_solve(rhs, y0, grid, tol, **kwargs)
        # the t0 checkpoint is y0 itself, SciPy's is y0 + 0 * (step polynomial)
        assert ours.y.shape == ref.y.shape and ours.y.tobytes() == ref.y.tobytes()
        # SciPy also builds a step polynomial for the first step's lone t0 checkpoint
        assert ours.nfev == ref.nfev - 3
        if "event" in kwargs:
            assert ref.status == 1 and len(ours.y.T) < len(grid)
        return
    # every accepted step asks for its twelve stage times t + C h, the last
    # at its end; SciPy's steps, in order, are among our batches bit for bit
    watched_rhs, seen = watched(rhs)
    ours = solve_matrix_ivp(watched_rhs, y0, grid, tol, **kwargs)
    ends = scipy_solve(rhs, y0, grid, tol, dense=True, **kwargs).sol.ts
    # the last step ends at the event root, which only agrees to ~4 eps
    ends = ends[:-1] if "event" in kwargs else ends
    attempts = [ts for ts in seen["times"] if len(ts) == 12]
    assert len(attempts) == ours.n_accepted + ours.n_rejected
    stages = iter(ts.tobytes() for ts in attempts)
    for t_old, t in zip(ends[:-1], ends[1:]):
        assert (t_old + dop853.STEP_NODES * (t - t_old)).tobytes() in stages
    assert ours.n_accepted == len(ends) - 1 + ("event" in kwargs)


@pytest.mark.parametrize("blowup_norm", [1e2, 1e6])
def test_event_time_matches_scipy_at_the_pole(blowup_norm):
    rhs, y0, grid, tol, kwargs = pole_case(blowup_norm)()
    ours = solve_matrix_ivp(rhs, y0, grid, tol, **kwargs)
    ref = scipy_solve(rhs, y0, grid, tol, **kwargs)
    t_ref = ref.t_events[0][0]
    assert abs(ours.event_time - t_ref) <= 1e-12 * abs(t_ref)
    assert abs(ours.event_time - np.pi / 2) < 0.02


@pytest.mark.parametrize("case", ["plain", "pole_event"])
def test_step_statistics_count_what_ran(case):
    rhs, y0, grid, tol, kwargs = CASES[case]()
    watched_rhs, seen = watched(rhs)
    sol = solve_matrix_ivp(watched_rhs, y0, grid, tol, **kwargs)
    assert sol.nfev == seen["calls"]
    # f(t0) and the initial step's probe, 12 per attempt, 3 per step polynomial
    sizes = [len(ts) for ts in seen["times"]]
    assert sizes[:2] == [1, 1] and set(sizes[2:]) <= {3, 12}
    assert sizes.count(12) == sol.n_accepted + sol.n_rejected
    assert sol.nfev == sum(sizes)
    assert sol.max_step == kwargs.get("max_step", np.inf)

    # SciPy's own stepper, one step at a time: 12 calls per attempt
    stepper = ScipyDOP853(
        lambda t, y: rhs(t, y.reshape(y0.shape)).ravel(),
        grid[0],
        y0.ravel(),
        grid[-1],
        rtol=max(tol, 1e-13),
        atol=tol,
    )
    accepted = rejected = 0
    while accepted < sol.n_accepted:
        before = stepper.nfev
        stepper.step()
        accepted += 1
        rejected += (stepper.nfev - before) // 12 - 1
    if "event" not in kwargs:
        assert stepper.t == grid[-1]
    assert (accepted, rejected) == (sol.n_accepted, sol.n_rejected)
    if case == "pole_event":
        assert sol.n_rejected > 0


def stacked_rotating_riccati():
    """The ``rotating_riccati`` flow from three initial conditions: the
    identity, an off-block tilt of it and the stationary one."""
    frame = build_frame(three_level_model(10.0, 1.0), 0.0, 20.0, tol=1e-10)
    coupling = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    ics = [
        identity_ic(frame.blocks).matrix,
        np.eye(3) + 0.4j * sum(p @ coupling @ (np.eye(3) - p) for p in frame.blocks),
        stationary_ic(frame).matrix,
    ]
    max_step = _estimate_max_step(frame.hamiltonian_at, 0.0, 20.0)
    y0s = list(frame.basis[1](np.stack(ics)))
    return rotated_riccati(frame), y0s, np.linspace(0.0, 20.0, 101), 1e-10, {"max_step": max_step}


def stacked_pole_event():
    """The ``pole_event`` flow from three initial conditions: ``U = [[1, u],
    [v, 1]]`` has ``u' = -i (1 - u^2)``, so ``u = -i tan(t + arctan(i u0))``
    has its pole at ``pi/2`` for ``u0 = 0``, at ``pi/2 - arctan(1/2)`` for
    ``u0 = -i/2``, and none for a real ``u0``."""
    rhs, _, grid, tol, kwargs = pole_case(1e2)()
    ics = [np.array([[1, u], [v, 1]], dtype=complex) for u, v in ((0, 0), (-0.5j, -0.5j), (0.5, -0.5))]
    return rhs, ics, grid, tol, kwargs


STACKS = {"rotating_riccati": stacked_rotating_riccati, "pole_event": stacked_pole_event}


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("case", sorted(STACKS))
def test_stacked_problems_each_match_their_solo_run_bit_for_bit(case, count):
    rhs, y0s, grid, tol, kwargs = STACKS[case]()
    y0s = y0s[:count]
    for sliced in (False, True):
        # one grid for all, or each problem its own start time and checkpoint slice
        grids = [grid[2 * p : len(grid) - 5 * p] if sliced else grid for p in range(count)]
        solos = [solve_matrix_ivp(rhs, y0, g, tol, **kwargs) for y0, g in zip(y0s, grids)]
        watched_rhs, seen = watched(rhs)
        stack = solve_matrix_ivp(watched_rhs, y0s, grids if sliced else grid, tol, **kwargs)
        assert isinstance(stack, dop853.IvpStack) and len(stack) == count
        for ours, solo in zip(stack, solos):
            assert ours.y.shape == solo.y.shape and ours.y.tobytes() == solo.y.tobytes()
            assert ours.stats() == solo.stats() and ours.event_time == solo.event_time
        assert stack.nfev == sum(solo.nfev for solo in solos) == sum(len(ts) for ts in seen["times"])
        # one loop: a batch of the stage times of every running problem per
        # iteration, as many iterations as the longest problem takes attempts,
        # and the problems' steps are of their own sizes
        attempts = [ts.reshape(12, -1) for ts in seen["times"] if len(ts) % 12 == 0]
        assert len(attempts) == max(solo.n_accepted + solo.n_rejected for solo in solos)
        assert any((ts != ts[:, :1]).any() for ts in attempts)
        if case == "pole_event":  # each pole retires its own problem only
            times = [solo.event_time for solo in solos]
            assert abs(times[0] - np.pi / 2) < 0.02
            assert abs(times[1] - grids[1][0] - (np.pi / 2 - np.arctan(0.5))) < 0.02
            assert count == 2 or (times[2] is None and stack[2].y.shape[1] == len(grids[2]))


def dense_steps(sol):
    """The step polynomials a solve built: what its ``nfev`` leaves over."""
    return (sol.nfev - 2 - 12 * (sol.n_accepted + sol.n_rejected)) // 3


def test_parareal_windows_each_match_their_solo_run_bit_for_bit():
    # the production shape: 16 windows of one checkpoint grid, each from its
    # own start time and state; where the checkpoints are dense a step
    # passes several of them, where they are sparse most steps pass none
    rhs, y0s, _, tol, kwargs = stacked_rotating_riccati()
    times = np.concatenate([np.linspace(0.0, 10.0, 401)[:-1], np.linspace(10.0, 20.0, 26)])
    cuts = np.sort(np.random.default_rng(3).choice(np.arange(1, len(times) - 1), 15, replace=False))
    cuts = [0, *cuts.tolist(), len(times) - 1]
    grids = [times[a : b + 1] for a, b in zip(cuts, cuts[1:])]
    starts = [y0s[w % len(y0s)] for w in range(len(grids))]
    solos = [solve_matrix_ivp(rhs, y0, g, tol, **kwargs) for y0, g in zip(starts, grids)]
    stack = solve_matrix_ivp(rhs, starts, grids, tol, **kwargs)
    for ours, solo in zip(stack, solos):
        assert ours.y.shape == solo.y.shape and ours.y.tobytes() == solo.y.tobytes()
        assert ours.stats() == solo.stats()
    assert any(dense_steps(solo) < len(g) - 1 for solo, g in zip(solos, grids))
    assert any(dense_steps(solo) < solo.n_accepted for solo in solos)

    # the pole stack on fine grids, the problem without a pole first: an
    # event fires in an iteration in which an earlier problem needs rows too
    rhs, y0s, _, tol, kwargs = stacked_pole_event()
    fine = np.linspace(0.0, 3.0, 3001)
    y0s, grids = y0s[::-1], [np.linspace(0.0, 12.0, 12001), fine[200:], fine]
    log = []  # the size of each coefficients batch, and None for each event call

    def coefficients(ts):
        log.append(len(ts))
        return rhs.coefficients(ts)

    def event(t, y):
        log.append(None)
        return kwargs["event"](t, y)

    solos = [solve_matrix_ivp(rhs, y0, g, tol, **kwargs) for y0, g in zip(y0s, grids)]
    stack = solve_matrix_ivp(Staged(coefficients, rhs.step), y0s, grids, tol, event=event)
    for ours, solo in zip(stack, solos):
        assert ours.y.shape == solo.y.shape and ours.y.tobytes() == solo.y.tobytes()
        assert ours.stats() == solo.stats() and ours.event_time == solo.event_time
    # with three problems an attempt asks for 12 to 36 times and the step
    # polynomials for 3 per problem; a bisection follows the latter
    firing = [size for size, after in zip(log[2:], log[3:]) if size is not None and size < 12 and after is None]
    assert len(firing) == 2 and max(firing) > 3


def test_stacked_squared_norms_are_the_per_row_dot_products_bit_for_bit():
    # the premise that lets the lockstep loop take every problem's error norm
    # in one call and still replay SciPy's np.linalg.norm of each
    rng = np.random.default_rng(11)
    for n in (4, 9, 36, 39, 111):
        for rows in (1, 3, 64):
            magnitude = 10.0 ** rng.uniform(-12, 3, (rows, 1))
            x = magnitude * (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
            expected = [row.real.dot(row.real) + row.imag.dot(row.imag) for row in x]
            assert dop853._squared_norms(x) == [float(s) for s in expected]


def test_integrate_reads_a_sequence_of_times_as_one_grid_and_refuses_bad_grids():
    rhs, y0, grid, tol, _ = plain_case()
    ref = solve_matrix_ivp(rhs, y0, grid, tol)
    assert solve_matrix_ivp(rhs, y0, grid.tolist(), tol).y.tobytes() == ref.y.tobytes()
    assert solve_matrix_ivp(rhs, y0, [0.0, 1.0, 2.0], 1e-8).y.shape == (16, 3)
    stack = solve_matrix_ivp(rhs, [y0, y0], [grid.tolist(), grid[2:].tolist()], tol)
    assert stack[0].y.tobytes() == ref.y.tobytes() and stack[1].y.shape == (16, len(grid) - 2)
    bad = ([0.0, 1.0, 1.0], [0.0], [], [[0.0, 1.0], [1.0, 2.0]], [0.0, np.nan, 2.0], [2.0, 1.0])
    for grid_ in bad:
        with pytest.raises(ValueError, match="strictly increasing"):
            solve_matrix_ivp(rhs, y0, np.array(grid_), tol)
    with pytest.raises(ValueError, match="one per problem"):
        solve_matrix_ivp(rhs, [y0, y0], [grid, grid, grid], tol)


def test_step_underflow_raises():
    # u' = u^2 with u(0) = 1 blows up at t = 1
    with pytest.raises(IntegratorFailure, match="spacing between numbers"):
        rhs = Staged(lambda ts: ts, lambda _, u: u @ u)
        solve_matrix_ivp(rhs, np.eye(1, dtype=complex), np.array([0.0, 2.0]), 1e-10)


# ------------------------------------------------------------ linear flows

def lz_rotating_generator(calls=None):
    """The Landau-Zener frame's rotated generator, as ``propagate`` hands it
    to ``integrate_linear``."""
    frame = build_frame(landau_zener_model(2.0), -25.0, 25.0, tol=1e-10)
    def generator(ts):
        if calls is not None:
            calls.append(len(ts))
        return frame.rotated_at(ts)

    return generator, _estimate_max_step(frame.hamiltonian_at, -25.0, 25.0)


def test_linear_rounds_ask_for_at_most_max_nodes_times_per_call():
    assert 1000 <= dop853.MAX_NODES <= 2048
    calls = []
    generator, max_step = lz_rotating_generator(calls)
    grid = np.linspace(-25.0, 25.0, 401)
    sol = dop853.integrate_linear(generator, grid, 1e-10, max_step=max_step)
    assert max(calls) <= dop853.MAX_NODES < sum(calls)
    assert sum(calls) == sol.nfev
    attempts = sol.n_accepted + sol.n_rejected
    assert (sol.nfev - 12 * attempts) % 3 == 0 and sol.nfev >= 12 * attempts
    assert len(calls) * dop853.MAX_NODES // 12 >= attempts > 10 * len(calls)
    assert np.array_equal(sol.y[0], np.eye(2))


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_prefix_products_are_the_serial_composition(dim):
    rng = np.random.default_rng(dim)
    for count in (1, 2, 3, 4, 16, 17, 1658):
        z = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
        maps = np.linalg.qr(z)[0]  # unitary, as the steps of a Schrödinger flow
        serial = [np.eye(dim, dtype=complex)]
        for m in maps:
            serial.append(m @ serial[-1])
        at_start = dop853._prefix_products(maps)
        assert at_start.shape == (count + 1, dim, dim)
        assert np.array_equal(at_start[0], np.eye(dim))
        assert np.max(np.abs(at_start - np.array(serial))) <= 1e-14 * count


def test_linear_dense_output_at_the_segment_starts_is_the_composed_maps():
    generator, max_step = lz_rotating_generator()
    grid = np.linspace(-25.0, 25.0, 401)
    dense = dop853.integrate_linear(generator, grid, 1e-10, max_step=max_step, dense=True).dense
    starts, at_start = dense._starts, dense._maps
    assert len(starts) > 1000
    # the first start is the identity; a later one ends the segment before it
    assert np.array_equal(dense(starts[0]), np.eye(2))
    assert np.max(np.abs(dense(starts) - at_start)) < 1e-12


def test_linear_flow_of_a_constant_generator_is_its_exponential():
    h = np.array([[0.3, 1.0 - 0.5j], [1.0 + 0.5j, -0.7]])
    lam, vec = np.linalg.eigh(h)
    grid = np.linspace(0.0, 4.0, 9)
    sol = dop853.integrate_linear(
        lambda ts: np.broadcast_to(-1j * h, (len(ts), 2, 2)), grid, 1e-12, max_step=0.5, dense=True
    )
    exact = [vec @ np.diag(np.exp(-1j * lam * t)) @ vec.conj().T for t in grid]
    assert np.max(np.abs(sol.y - exact)) < 1e-10
    assert np.array_equal(sol.y[0], np.eye(2))
    t = 1.2345
    exact = vec @ np.diag(np.exp(-1j * lam * t)) @ vec.conj().T
    assert np.max(np.abs(sol.dense(t) - exact)) < 1e-10


def test_linear_diagonal_part_in_its_rotating_frame_matches_the_plain_flow():
    # X' = (diag(r(t)[labels]) + C(t)) X, once with the diagonal factored out:
    # X = E Y with E = diag(exp(phi[labels])) and Y' = (E† C E + diag(r -
    # phi')[labels]) Y, for the exact phases phi' = r and for approximate ones
    labels = np.array([0, 1, 1])
    c = np.array([[0, 1, 0.5j], [-1, 0, 0.2], [0.5j, -0.2, 0]])
    eye = np.eye(3)

    def rates(ts):
        return np.stack([-5j * np.cos(ts), 3j * ts], axis=1)

    def drive(ts):
        return c * np.cos(2 * ts)[:, None, None]

    def full(ts):
        return drive(ts) + rates(ts)[:, labels][:, :, None] * eye

    def exact(ts):  # the integral of the rates from 0
        return np.stack([-5j * np.sin(ts), 1.5j * ts**2], axis=1)

    def approximate(ts):  # off by a smooth wobble, with its derivative
        wobble = np.stack([0.3j * np.sin(3 * ts), -0.2j * ts**3], axis=1)
        slope = np.stack([0.9j * np.cos(3 * ts), -0.6j * ts**2], axis=1)
        return exact(ts) + wobble, rates(ts) + slope

    def rotated(phases):
        def generator(ts):
            phi, slope = phases(ts)
            e = np.exp(phi[:, labels])
            residual = (rates(ts) - slope)[:, labels][:, :, None] * eye
            return drive(ts) * (e.conj()[:, :, None] * e[:, None, :]) + residual

        return generator

    grid = np.linspace(0.0, 3.0, 7)
    plain = dop853.integrate_linear(full, grid, 1e-13, max_step=0.1)
    for phases in (lambda ts: (exact(ts), rates(ts)), approximate):
        sol = dop853.integrate_linear(rotated(phases), grid, 1e-11, max_step=0.1)
        x = np.exp(phases(grid)[0][:, labels])[:, :, None] * sol.y
        assert np.max(np.abs(x - plain.y)) < 1e-9
        assert sol.nfev < plain.nfev


def test_linear_step_underflow_and_non_finite_generator_raise():
    z = np.diag([1.0, -1.0])
    constant = lambda ts: np.broadcast_to(-1j * z, (len(ts), 2, 2))
    # numbers near 1e16 are 2 apart, so a segment of at most 1 is below 10 ulp
    with pytest.raises(IntegratorFailure, match="spacing between numbers"):
        dop853.integrate_linear(constant, np.array([1e16, 1e16 + 64]), 1e-10, max_step=1.0)
    broken = lambda ts: np.where((ts > 0.5)[:, None, None], np.nan, -1j * z)
    with pytest.raises(IntegratorFailure, match="non-finite step"):
        dop853.integrate_linear(broken, np.array([0.0, 2.0]), 1e-10, max_step=0.1)
