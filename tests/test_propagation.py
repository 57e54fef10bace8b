"""Matrix-ODE propagator: closed forms, unitarity monitoring, convergence."""

from dataclasses import replace

import numpy as np
import pytest

import blochwave.propagation
from blochwave import (
    NotSkewHermitian,
    PropagatorPath,
    landau_zener_model,
    lz_asymptotic_amplitude,
    build_frame,
    propagate,
    random_smooth_model,
    spectral_norm,
    three_level_model,
)
from blochwave.dop853 import LinearDenseOutput, Staged
from blochwave.frame import AdiabaticFrame
from blochwave.models import load_tabulated_model
from blochwave.operators import stack_matmul
from blochwave.propagation import _estimate_max_step, solve_matrix_ivp
from tests.helpers import constant, write_tabulated

Z = np.array([[1, 0], [0, -1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_constant_generator_closed_form():
    grid = np.linspace(0.0, np.pi, 9)
    path = propagate(constant(-1j * Z), 0.0, grid, tol=1e-12)
    assert np.allclose(path.final, -np.eye(2), atol=1e-10)
    assert np.array_equal(path.matrices[0], np.eye(2))  # exactly identity at t0


def test_commuting_family_exact_integral():
    # G(t) = -i t Z integrates to exp(-i t^2/2 Z)
    grid = np.linspace(0.0, 2.0, 21)
    path = propagate(lambda ts: -1j * ts[:, None, None] * Z, 0.0, grid, tol=1e-12)
    for t, m in zip(path.times, path.matrices):
        expected = np.diag(np.exp([-1j * t**2 / 2, 1j * t**2 / 2]))
        assert spectral_norm(m - expected) < 1e-10


def test_lz_transition_probability(lz_bundle):
    # leakage element of the frame evolution vs the asymptotic formula
    sin_phi, _ = lz_asymptotic_amplitude(2.0)
    p0 = lz_bundle.blocks[0]
    comp = np.eye(2) - p0
    amp = spectral_norm(comp @ lz_bundle.m_path.final @ p0)
    assert abs(amp**2 - sin_phi**2) / sin_phi**2 < 0.02


def test_unitarity_defect_identity_path():
    grid = np.linspace(0.0, 1.0, 5)
    mats = np.broadcast_to(np.eye(2, dtype=complex), (5, 2, 2)).copy()
    path = PropagatorPath(
        t0=0.0,
        times=grid,
        matrices=mats,
        unitarity_defects=np.array(
            [spectral_norm(m.conj().T @ m - np.eye(2)) for m in mats]
        ),
        tol=1e-10,
    )
    assert path.max_unitarity_defect() == 0.0


def test_unitarity_defect_scaled_checkpoint():
    grid = np.linspace(0.0, 1.0, 3)
    mats = np.stack([np.eye(2, dtype=complex)] * 3)
    mats[1] *= 1.01
    defects = np.array([spectral_norm(m.conj().T @ m - np.eye(2)) for m in mats])
    path = PropagatorPath(0.0, grid, mats, defects, tol=1e-10)
    assert abs(path.max_unitarity_defect() - 0.0201) < 1e-12


def test_lz_defect_small_at_tight_tolerance():
    model = landau_zener_model(2.0)
    frame = build_frame(model, -20.0, 20.0, tol=1e-10)
    grid = np.linspace(-20.0, 20.0, 81)
    path = propagate(frame.hamiltonian_at, -20.0, grid, tol=1e-10)
    assert path.max_unitarity_defect() <= 1e-7


def test_defect_converges_with_tolerance():
    model = landau_zener_model(2.0)
    frame = build_frame(model, -5.0, 5.0, tol=1e-11)
    grid = np.linspace(-5.0, 5.0, 21)
    defects = [
        propagate(frame.hamiltonian_at, -5.0, grid, tol=tol).max_unitarity_defect()
        for tol in (1e-6, 1e-8, 1e-10)
    ]
    assert defects[0] > defects[1] > defects[2]


def test_composition_property():
    model = landau_zener_model(2.0)
    gen = model.full_generator
    full = propagate(gen, -5.0, np.linspace(-5.0, 5.0, 11), tol=1e-11)
    left = propagate(gen, -5.0, np.linspace(-5.0, 0.0, 6), tol=1e-11)
    right = propagate(gen, 0.0, np.linspace(0.0, 5.0, 6), tol=1e-11)
    assert spectral_norm(full.final - right.final @ left.final) < 1e-8


def test_norm_preservation():
    model = landau_zener_model(1.0)
    grid = np.linspace(-5.0, 5.0, 41)
    path = propagate(model.full_generator, -5.0, grid, tol=1e-9)
    for m, d in zip(path.matrices, path.unitarity_defects):
        sv = np.linalg.svd(m, compute_uv=False)
        assert np.all(sv <= 1.0 + d + 1e-14)
        assert np.all(sv >= 1.0 - d - 1e-14)


def test_rejects_non_skew_generator():
    with pytest.raises(NotSkewHermitian):
        propagate(constant(X), 0.0, np.linspace(0.0, 1.0, 5), tol=1e-10)


def test_generator_written_for_one_time_is_refused():
    # a generator maps an array of times to one matrix per time; one written
    # for a single time is refused before any stepping
    h = -1j * X
    grid = np.linspace(0.0, 1.0, 5)
    message = "generators take an array of times and return one matrix per time"
    with pytest.raises(ValueError, match=message):
        propagate(lambda t: h, 0.0, grid, tol=1e-10)
    with pytest.raises(ValueError, match=message):  # one matrix too few
        propagate(lambda ts: constant(h)(ts)[1:], 0.0, grid, tol=1e-10)


def test_rejects_bad_grid():
    gen = constant(-1j * Z)
    with pytest.raises(ValueError):
        propagate(gen, 0.0, np.array([0.0, 0.5, 0.5, 1.0]), tol=1e-10)
    with pytest.raises(ValueError):
        propagate(gen, 0.5, np.array([0.0, 1.0]), tol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_grid_with_a_non_finite_time_is_refused_before_stepping(bad):
    # NaN compares False, so a strictly-increasing check alone lets it pass
    frame = build_frame(three_level_model(10.0, 1.0), 0.0, 2.0)
    grid = [0.0, bad, 2.0] if np.isnan(bad) else [0.0, 1.0, bad]
    with pytest.raises(ValueError, match="finite, strictly increasing"):
        propagate(frame, 0.0, grid)


def test_dense_output_interpolates():
    model = landau_zener_model(1.0)
    grid = np.linspace(0.0, 2.0, 5)
    path = propagate(model.full_generator, 0.0, grid, tol=1e-11, dense=True)
    fine = propagate(model.full_generator, 0.0, np.linspace(0.0, 2.0, 33), tol=1e-12)
    t_probe = fine.times[17]
    assert spectral_norm(path.at(t_probe) - fine.at(t_probe)) < 1e-8


@pytest.mark.parametrize("rotating", [False, True], ids=["plain", "rotating"])
def test_dense_output_is_within_1e_8_of_a_fine_reference_off_the_grid(rotating):
    model = random_smooth_model(4, 2, seed=5)
    grid = np.linspace(0.0, 3.0, 7)
    generator = build_frame(model, 0.0, 3.0, tol=1e-11) if rotating else model.full_generator
    path = propagate(generator, 0.0, grid, tol=1e-10, dense=True)
    assert rotating or isinstance(path.dense, LinearDenseOutput)
    ts = np.sort(np.random.default_rng(0).uniform(0.0, 3.0, 100))
    assert not np.isin(ts, grid).any()
    fine = propagate(generator, 0.0, np.concatenate([[0.0], ts]), tol=1e-13)
    assert np.max(spectral_norm(path.at(ts) - fine.matrices[1:])) < 1e-8
    # at the checkpoints the interpolant agrees with the composed maps
    assert np.max(spectral_norm(path.dense(grid) - path.matrices)) < 1e-12
    assert path.dense(float(ts[0])).shape == (4, 4)


# ------------------------------------------------------------ rotating frame

#: the rotating-frame cases: (model, t0, t1, checkpoints)
ROTATING_CASES = {
    "landau_zener_gamma2": (lambda: landau_zener_model(2.0), -25.0, 25.0, 201),
    "three_level_gamma10": (lambda: three_level_model(10.0, 1.0), 0.0, 50.0, 251),
    "three_level_gamma80": (lambda: three_level_model(80.0, 1.0), 0.0, 4.0, 21),
}


def counting_nfev(monkeypatch):
    """Record the nfev of every ``integrate_linear`` call ``propagate`` makes."""
    counts = []
    original = blochwave.propagation.integrate_linear

    def counted(*args, **kwargs):
        sol = original(*args, **kwargs)
        counts.append(sol.nfev)
        return sol

    monkeypatch.setattr(blochwave.propagation, "integrate_linear", counted)
    return counts


@pytest.mark.parametrize("case", sorted(ROTATING_CASES))
def test_rotating_frame_is_no_less_accurate_and_cheaper(case, monkeypatch):
    make, t0, t1, n = ROTATING_CASES[case]
    frame = build_frame(make(), t0, t1, tol=1e-10)
    grid = np.linspace(t0, t1, n)
    max_step = _estimate_max_step(frame.hamiltonian_at, t0, t1)
    ref = propagate(frame.hamiltonian_at, t0, grid, tol=1e-13, max_step=max_step)
    nfev = counting_nfev(monkeypatch)
    plain = propagate(frame.hamiltonian_at, t0, grid, tol=1e-10, max_step=max_step)
    rotating = propagate(frame, t0, grid, tol=1e-10, max_step=max_step)
    errors = [np.max(spectral_norm(p.matrices - ref.matrices)) for p in (plain, rotating)]
    assert errors[1] <= errors[0]
    assert nfev[1] < nfev[0]
    assert np.array_equal(rotating.matrices[0], np.eye(frame.model.dim))


def sequential_rotating(frame, grid, tol, max_step):
    """``M`` from the step-by-step DOP853 loop on the state ``[Z, phases]``,
    the phases ``phi' = gamma b`` integrated next to the matrix: ``M = V E Z
    V†`` with ``E = diag(exp(phases[labels]))``.  A reference that takes no
    phase from the frame, unlike ``propagate``."""
    labels, into, out_of = frame.basis
    n = frame.model.dim
    firsts = np.unique(labels, return_index=True)[1]  # a column of each block

    def coefficients(ts):  # the rotated drive, with the rates of its columns as a last row
        rates, drive = frame.split_at(ts)
        return np.concatenate([into(drive), rates[:, None, labels]], axis=1)

    def step(c, y):
        drive, rates = c[:, :n], c[:, n, firsts]
        e = np.exp(y[:, n * n :][:, labels])
        z = (drive * (e.conj()[:, :, None] * e[:, None, :])) @ y[:, : n * n].reshape(-1, n, n)
        return np.concatenate((z.reshape(len(y), -1), rates), axis=1)

    y0 = np.concatenate([into(np.eye(n, dtype=complex)).ravel(), np.zeros(frame.frozen.n_blocks)])
    states = solve_matrix_ivp(Staged(coefficients, step), y0, grid, tol, max_step=max_step).y.T
    z = states[:, : n * n].reshape(-1, n, n)
    return out_of(np.exp(states[:, n * n :][:, labels])[:, :, None] * z)


#: the accuracy cases: tmp_path -> (frame, checkpoints)
ACCURACY_CASES = {
    "landau_zener_gamma2": lambda _: (build_frame(landau_zener_model(2.0), -25.0, 25.0), 201),
    "three_level_gamma10": lambda _: (
        build_frame(replace(three_level_model(10.0, 1.0), period=None), 0.0, 50.0), 251
    ),
    "three_level_gamma80": lambda _: (
        build_frame(replace(three_level_model(80.0, 1.0), period=None), 0.0, 4.0), 21
    ),
    "random_analytic": lambda _: (build_frame(random_smooth_model(4, 2, seed=9), 0.0, 3.0), 31),
    "random_numeric": lambda _: (
        build_frame(random_smooth_model(4, 2, seed=9, analytic=False), 0.0, 3.0), 31
    ),
    # the phases' spline has its 65 knots 0.47 apart here, against 0.05 above
    "random_numeric_long": lambda _: (
        build_frame(random_smooth_model(4, 2, seed=9, analytic=False), 0.0, 30.0), 301
    ),
    "tabulated": lambda tmp_path: (tabulated_frame(tmp_path), 31),
}


@pytest.mark.parametrize("case", sorted(ACCURACY_CASES))
def test_batched_m_is_no_less_accurate_than_the_sequential_loop(case, tmp_path):
    frame, count = ACCURACY_CASES[case](tmp_path)
    t0, t1 = frame.t0, frame.t1
    grid = np.linspace(t0, t1, count)
    max_step = _estimate_max_step(frame.hamiltonian_at, t0, t1)
    ref = sequential_rotating(frame, grid, 1e-13, max_step)
    sequential = sequential_rotating(frame, grid, 1e-10, max_step)
    batched = propagate(frame, t0, grid, tol=1e-10, max_step=max_step)
    errors = [np.max(spectral_norm(m - ref)) for m in (batched.matrices, sequential)]
    # strictly smaller on four cases (by 1.6x to 8x); on three_level_gamma80
    # and tabulated the two error profiles coincide, the step sequences
    # differ, and the batched one is 3.6% and 0.1% above
    assert errors[0] <= 1.05 * errors[1]
    assert np.array_equal(batched.matrices[0], np.eye(frame.model.dim))


def test_rotating_frame_keeps_the_frame_step_cap(monkeypatch):
    captured = []
    original = blochwave.propagation.integrate_linear

    def capture(*args, **kwargs):
        captured.append(kwargs["max_step"])
        return original(*args, **kwargs)

    monkeypatch.setattr(blochwave.propagation, "integrate_linear", capture)
    frame = build_frame(three_level_model(10.0, 1.0), 0.0, 5.0)
    propagate(frame, 0.0, np.linspace(0.0, 5.0, 11))
    assert captured == [_estimate_max_step(frame.hamiltonian_at, 0.0, 5.0)]


def test_rotating_frame_dense_output():
    model = random_smooth_model(4, 2, seed=9)
    frame = build_frame(model, 0.0, 2.0, tol=1e-11)
    path = propagate(frame, 0.0, np.linspace(0.0, 2.0, 5), tol=1e-11, dense=True)
    fine = propagate(frame.hamiltonian_at, 0.0, np.linspace(0.0, 2.0, 33), tol=1e-12)
    for t in fine.times[1::4]:
        assert spectral_norm(path.at(t) - fine.at(t)) < 1e-8


# ------------------------------------------------------------ one period

def composed_and_direct(gamma, t0, t1, count, **kwargs):
    """Paths of the three-level model over ``[t0, t1]``: composed from one
    period, and integrated directly from the same model without a period."""
    model = three_level_model(gamma, 1.0)
    grid = np.linspace(t0, t1, count)
    composed = propagate(build_frame(model, t0, t1), t0, grid, **kwargs)
    direct = propagate(build_frame(replace(model, period=None), t0, t1), t0, grid, **kwargs)
    return composed, direct


@pytest.mark.parametrize("gamma", [10.0, 80.0])
def test_one_period_composed_matches_the_direct_integration(gamma):
    composed, direct = composed_and_direct(gamma, 0.0, 200.0, 1001)
    assert np.max(spectral_norm(composed.matrices - direct.matrices)) <= 1e-8
    assert 20 * composed.stats["nfev"] <= direct.stats["nfev"]
    assert composed.stats["periods"] == int(np.floor(200.0 / np.pi)) == 63
    assert "periods" not in direct.stats
    assert np.array_equal(composed.matrices[0], np.eye(3))
    m = composed.matrices
    defects = spectral_norm(stack_matmul(m.conj().swapaxes(-1, -2), m) - np.eye(3))
    assert np.array_equal(composed.unitarity_defects, defects)


def test_one_period_composition_from_a_later_start():
    composed, direct = composed_and_direct(10.0, 1.3, 21.3, 101)
    assert composed.stats["periods"] == 6
    assert np.max(spectral_norm(composed.matrices - direct.matrices)) <= 1e-8


def test_grid_shorter_than_a_period_is_the_direct_integration():
    composed, direct = composed_and_direct(10.0, 1.3, 1.3 + 0.9 * np.pi, 11)
    assert composed.stats.pop("periods") == 0
    assert composed.stats == direct.stats
    assert np.array_equal(composed.matrices, direct.matrices)


def test_dense_output_of_a_periodic_frame_integrates_the_whole_grid():
    periodic, direct = composed_and_direct(10.0, 0.0, 20.0, 21, dense=True)
    assert "periods" not in periodic.stats and periodic.stats == direct.stats
    assert periodic.matrices.tobytes() == direct.matrices.tobytes()
    ts = np.random.default_rng(4).uniform(0.0, 20.0, 40)
    assert not np.isin(ts, periodic.times).any()
    assert periodic.at(ts).tobytes() == direct.at(ts).tobytes()
    assert periodic.dense(float(ts[0])).shape == (3, 3)


# ------------------------------------------------------------ step cap

def per_time_max_step(generator, t0, t1, samples=33):
    """The step cap with one generator evaluation per time, as a reference."""
    span = t1 - t0
    cap = span / 50.0
    ts = np.linspace(t0, t1, samples)
    gs = [np.asarray(generator(t), dtype=complex) for t in ts]
    mean = sum(gs) / len(gs)
    osc = max(spectral_norm(g - mean) for g in gs)
    if osc <= 1e-13 * max(1.0, spectral_norm(mean)):
        return cap
    h = 1e-6 * span
    gdot = max(spectral_norm(generator(t + h) - generator(t - h)) / (2.0 * h) for t in ts[1:-1])
    if gdot <= 0.0:
        return cap
    return min(cap, 2.0 * np.pi * osc / gdot * (1.0 / 20.0))


def tabulated_frame(tmp_path):
    table = tmp_path / "model.csv"
    write_tabulated(table, random_smooth_model(4, 2, seed=12), np.linspace(-0.5, 3.5, 81))
    return build_frame(load_tabulated_model(table, gamma=8.0), 0.0, 3.0, tol=1e-8)


STEP_CAP_CASES = {
    "landau_zener": lambda _: build_frame(landau_zener_model(2.0), -25.0, 25.0),
    "three_level": lambda _: build_frame(three_level_model(10.0, 1.0), 0.0, 50.0),
    "tabulated": tabulated_frame,
}


@pytest.mark.parametrize("case", sorted(STEP_CAP_CASES))
def test_step_cap_is_the_per_time_formula_from_one_batched_call(case, tmp_path, monkeypatch):
    frame = STEP_CAP_CASES[case](tmp_path)
    t0, t1 = frame.t0, frame.t1
    expected = per_time_max_step(lambda t: frame.hamiltonian_at(np.array([t]))[0], t0, t1)
    calls = []
    original = AdiabaticFrame.hamiltonian_at

    def counted(self, t):
        calls.append(np.shape(t))
        return original(self, t)

    monkeypatch.setattr(AdiabaticFrame, "hamiltonian_at", counted)
    assert _estimate_max_step(frame.hamiltonian_at, t0, t1) == expected
    assert calls == [(33 + 2 * 31,)]
    calls.clear()
    # propagate's skew check is one more batched call, and the cap one if not given
    propagate(frame, t0, np.linspace(t0, t1, 3), tol=1e-6, max_step=expected)
    assert calls == [(7,)]
    calls.clear()
    propagate(frame, t0, np.linspace(t0, t1, 3), tol=1e-6)
    assert calls == [(7,), (95,)]
