"""Wave-operator routes, initial conditions, effective evolutions, blow-up."""

from dataclasses import replace

import numpy as np
import pytest

from blochwave import (
    AmbiguousClustering,
    BadInitialCondition,
    SingularBlock,
    SpectralDecomposition,
    bloch_effective_evolution,
    closed_form_wave,
    custom_ic,
    effective_generator,
    identity_ic,
    integrate_riccati,
    landau_zener_model,
    lz_asymptotic_amplitude,
    propagate,
    radon_wave,
    random_smooth_model,
    riccati_rhs,
    spectral_norm,
    stationary_ic,
    three_level_model,
    zeno_generator,
)
from blochwave import GeneratorModel, build_frame
from blochwave.bloch import BLOWUP_NORM, MAX_SWEEPS, MIN_WINDOWS, WaveOperatorPath
from blochwave.operators import block_basis
from blochwave.propagation import _estimate_max_step
from tests.helpers import constant, plain_riccati

X = np.array([[0, 1], [1, 0]], dtype=complex)

DIAG_BLOCKS = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))


# ------------------------------------------------------------ initial values

def test_identity_ic_invariants():
    ic = identity_ic(DIAG_BLOCKS)
    assert np.array_equal(ic.matrix, np.eye(2))
    for p in DIAG_BLOCKS:
        assert np.allclose(p @ ic.matrix @ p, p)
    gram = ic.matrix.conj().T @ ic.matrix
    for p in DIAG_BLOCKS:
        assert spectral_norm(gram @ p - p @ gram) == 0.0


def test_stationary_ic_unperturbed_is_identity():
    model = three_level_model(10.0, 0.0)
    strong = model.spectral_at(0.0)
    ic = stationary_ic(model.full_generator(0.0), strong, model.gamma)
    assert spectral_norm(ic.matrix - np.eye(3)) < 1e-12
    assert ic.stationarity_defect < 1e-12


def test_stationary_ic_two_level_exact_oracle():
    # H = -i(gamma*diag(0,1) + eps*X); exact eigenvectors give Ptilde
    gamma, eps = 5.0, 0.4
    b = -1j * np.diag([0.0, 1.0]).astype(complex)
    h0 = gamma * b + (-1j * eps * X)
    strong = SpectralDecomposition(
        eigenvalues=np.array([-1j, 0.0j]),
        projectors=(np.diag([0.0, 1.0]).astype(complex), np.diag([1.0, 0.0]).astype(complex)),
        multiplicities=(1, 1),
    )
    ic = stationary_ic(h0, strong, gamma)
    # the Riccati right-hand side vanishes for the frozen problem
    assert ic.stationarity_defect < 1e-12 * spectral_norm(h0)
    rhs = riccati_rhs(h0, ic.matrix, strong.projectors)
    assert spectral_norm(rhs) < 1e-12
    # cross-check against the exact spectral projectors of h0
    lam, vec = np.linalg.eigh(-1j * h0)
    u0 = np.zeros((2, 2), dtype=complex)
    for k, p in enumerate(strong.projectors):
        idx = np.argmin(np.abs(lam - gamma * strong.eigenvalues[k].imag))
        v = vec[:, [idx]]
        ptilde = v @ v.conj().T
        block = p @ ptilde @ p
        u0 += ptilde @ p @ np.linalg.pinv(block)
    assert spectral_norm(ic.matrix - u0) < 1e-12


def test_stationary_ic_three_level_close_to_identity():
    model = three_level_model(10.0, 1.0)
    ic = stationary_ic(model.full_generator(0.0), model.spectral_at(0.0), model.gamma)
    dev = spectral_norm(ic.matrix - np.eye(3))
    assert dev <= 0.1  # O(a/gamma)
    assert dev > 1e-3  # genuinely non-identity


def test_stationary_ic_ambiguous_for_small_gamma():
    with pytest.warns(UserWarning, match="perturbative"):
        model = three_level_model(1.0, 10.0)
    with pytest.raises(AmbiguousClustering):
        stationary_ic(model.full_generator(0.0), model.spectral_at(0.0), model.gamma)


def test_stationary_ic_matches_the_block_pseudo_inverse_formula():
    # U0 = sum_k Ptilde_k P_k [P_k Ptilde_k P_k]^+ with Moore-Penrose inverses,
    # on a model whose frozen projectors are not coordinate projectors
    model = random_smooth_model(6, 3, seed=4, gamma=20.0)
    strong = model.spectral_at(0.0)
    h0 = model.full_generator(0.0)
    ic = stationary_ic(h0, strong, model.gamma)
    lam, vec = np.linalg.eigh(-1j * h0)
    targets = model.gamma * strong.eigenvalues.imag
    assigned = np.argmin(np.abs(lam[:, None] - targets[None, :]), axis=1)
    u0 = 0
    for k, p in enumerate(strong.projectors):
        ptilde = vec[:, assigned == k] @ vec[:, assigned == k].conj().T
        u0 = u0 + ptilde @ np.linalg.pinv(p @ ptilde @ p)
    assert spectral_norm(ic.matrix - u0) < 1e-12
    assert ic.stationarity_defect < 1e-12 * spectral_norm(h0)


def test_stationary_ic_refuses_a_singular_block():
    # the eigenvector nearest block 0's target gamma * (-1) lies in block 1,
    # so P_0 Ptilde_0 P_0 = 0
    strong = SpectralDecomposition(
        eigenvalues=np.array([-1j, 0.0j]), projectors=DIAG_BLOCKS, multiplicities=(1, 1)
    )
    h0 = 1j * 5.0 * np.diag([0.0, -1.0]).astype(complex)
    with pytest.raises(SingularBlock, match="singular"):
        stationary_ic(h0, strong, 5.0)


def test_custom_ic_validation():
    good = np.array([[1.0, 0.3], [0.0, 1.0]], dtype=complex)
    with pytest.raises(BadInitialCondition):
        # gram of this matrix does not commute with the blocks
        custom_ic(good, DIAG_BLOCKS)
    bad_bloch = np.array([[1.1, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(BadInitialCondition):
        custom_ic(bad_bloch, DIAG_BLOCKS)
    assert custom_ic(np.eye(2, dtype=complex), DIAG_BLOCKS).kind == "custom"


# ------------------------------------------------------------------- routes

def test_riccati_block_diagonal_h_stays_identity():
    frame = build_frame(three_level_model(10.0, 0.0), 0.0, 5.0)  # no drive: H = gamma B
    grid = np.linspace(0.0, 5.0, 21)
    u = integrate_riccati(frame, identity_ic(frame.blocks), 0.0, grid)
    assert u.sup_deviation() == 0.0
    assert not u.blowup_flag


def test_riccati_lz_final_deviation_matches_formula(lz_bundle):
    _, tan_phi = lz_asymptotic_amplitude(2.0)
    final = lz_bundle.u_riccati.deviation("spectral")[-1]
    assert abs(final - tan_phi) / tan_phi < 0.02


def test_lz_asymptotic_wave_operator_structure(lz_bundle):
    _, tan_phi = lz_asymptotic_amplitude(2.0)
    # express U in the orthonormal eigenbasis of the frozen blocks
    basis = []
    for p in lz_bundle.blocks:
        w, v = np.linalg.eigh(p)
        basis.append(v[:, w > 0.5][:, 0])
    q = np.stack(basis, axis=1)
    u = q.conj().T @ lz_bundle.u_closed.final @ q
    # trivial action inside the blocks, transition amplitudes of size tan(phi)
    assert abs(u[0, 0] - 1.0) < 1e-10
    assert abs(u[1, 1] - 1.0) < 1e-10
    assert abs(abs(u[0, 1]) - tan_phi) / tan_phi < 0.02
    assert abs(abs(u[1, 0]) - tan_phi) / tan_phi < 0.02


def test_closed_form_at_initial_time_returns_ic(tl_bundle):
    assert spectral_norm(tl_bundle.u_closed.matrices[0] - tl_bundle.ic.matrix) < 1e-13


@pytest.mark.parametrize("route", [closed_form_wave, radon_wave])
@pytest.mark.parametrize("kind", ["identity", "stationary"])
def test_algebraic_routes_start_exactly_at_the_initial_condition(route, kind):
    # M(t0) = 1 exactly, so U(t0) is U0 exactly, also in the Landau-Zener
    # frame, whose frozen blocks are not coordinate projectors
    frame = build_frame(landau_zener_model(2.0), -8.0, 8.0)
    grid = np.linspace(-8.0, 8.0, 65)
    if kind == "identity":
        ic = identity_ic(frame.blocks)
    else:
        ic = stationary_ic(frame.hamiltonian_at(-8.0), frame.frozen, frame.model.gamma)
    path = route(propagate(frame, -8.0, grid), ic, frame.blocks)
    assert np.array_equal(path.matrices[0], ic.matrix)


def test_route_agreement_random_two_block():
    model = random_smooth_model(4, 2, seed=27, gamma=12.0)
    frame = build_frame(model, 0.0, 5.0, tol=1e-11)
    grid = np.linspace(0.0, 5.0, 51)
    m_path = propagate(frame.hamiltonian_at, 0.0, grid, tol=1e-11)
    ic = identity_ic(frame.blocks)
    u_r = integrate_riccati(frame, ic, 0.0, grid, tol=1e-11)
    u_c = closed_form_wave(m_path, ic, frame.blocks)
    u_d = radon_wave(m_path, ic, frame.blocks)
    assert (
        max(spectral_norm(a - b) for a, b in zip(u_r.matrices, u_c.matrices)) < 1e-6
    )
    assert (
        max(spectral_norm(a - b) for a, b in zip(u_c.matrices, u_d.matrices)) < 1e-10
    )


def test_route_agreement_three_level(tl_bundle):
    assert tl_bundle.route_disagreement() < 1e-5


def test_wave_operator_block_completeness(tl_bundle):
    # U = sum_k U P_k exactly, by completeness of the frozen family
    for u in tl_bundle.u_riccati.matrices[::20]:
        total = sum(u @ p for p in tl_bundle.blocks)
        assert spectral_norm(u - total) < 1e-13


def test_radon_pi_block_diagonality(tl_bundle, random_bundle):
    assert tl_bundle.u_radon.diagnostics["pi_offblock_defect"] < 1e-12
    assert random_bundle.u_radon.diagnostics["pi_offblock_defect"] < 1e-12


def test_radon_identity_evolution():
    grid = np.linspace(0.0, 1.0, 5)
    mats = np.stack([np.eye(2, dtype=complex)] * 5)
    from blochwave import PropagatorPath

    m_path = PropagatorPath(0.0, grid, mats, np.zeros(5), tol=1e-12)
    u = radon_wave(m_path, identity_ic(DIAG_BLOCKS), DIAG_BLOCKS)
    assert u.sup_deviation() == 0.0
    # no wave-operator path records a certificate; the effective evolution carries it
    assert not hasattr(u, "min_block_sv")
    m_eff = bloch_effective_evolution(m_path, identity_ic(DIAG_BLOCKS), DIAG_BLOCKS)
    assert np.all(m_eff.block_min_sv == 1.0)


def test_bloch_condition_preserved_along_riccati(random_bundle):
    assert random_bundle.u_riccati.max_bloch_defect() < 1e-10


def test_bloch_defect_stays_at_roundoff_for_every_tolerance():
    # the Riccati flow is tangent to the Bloch manifold, so the defect is
    # roundoff whatever the integration tolerance
    model = random_smooth_model(4, 2, seed=33, gamma=10.0)
    frame = build_frame(model, 0.0, 4.0, tol=1e-11)
    grid = np.linspace(0.0, 4.0, 17)
    ic = identity_ic(frame.blocks)
    for tol in (1e-6, 1e-8, 1e-10):
        u = integrate_riccati(frame, ic, 0.0, grid, tol=tol)
        _, plain, _ = plain_riccati(frame.hamiltonian_at, ic.matrix, frame.blocks, grid, tol)
        for mats in (u.matrices, plain):  # rotating and plain
            defects = [spectral_norm(p @ mats @ p - p) for p in frame.blocks]
            assert np.max(defects) <= 1e3 * np.finfo(float).eps


def test_riccati_integrates_in_one_solver_call(monkeypatch):
    import blochwave.bloch

    calls = []
    original = blochwave.bloch.solve_matrix_ivp

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(blochwave.bloch, "solve_matrix_ivp", counted)
    model = three_level_model(10.0, 1.0)
    frame = build_frame(model, 0.0, 5.0)
    grid = np.linspace(0.0, 5.0, 26)
    ic = identity_ic(frame.blocks)
    u = integrate_riccati(frame, ic, 0.0, grid)
    assert len(calls) == 1
    assert np.array_equal(u.times, grid)
    assert np.array_equal(u.matrices[0], np.eye(3))


def test_rotating_riccati_is_no_less_accurate():
    frame = build_frame(three_level_model(10.0, 1.0), 0.0, 50.0)
    grid = np.linspace(0.0, 50.0, 251)
    ic = identity_ic(frame.blocks)
    max_step = _estimate_max_step(frame.hamiltonian_at, 0.0, 50.0)

    def plain(tol):
        return plain_riccati(frame.hamiltonian_at, ic.matrix, frame.blocks, grid, tol, max_step)[1]

    ref = plain(1e-13)
    rotating = integrate_riccati(frame, ic, 0.0, grid, tol=1e-10, max_step=max_step).matrices
    errors = [np.max(spectral_norm(u - ref)) for u in (plain(1e-10), rotating)]
    assert errors[1] <= errors[0]


def test_riccati_defect_budget_truncates_at_first_failing_checkpoint():
    model = random_smooth_model(4, 2, seed=33, gamma=10.0)
    frame = build_frame(model, 0.0, 4.0, tol=1e-11)
    grid = np.linspace(0.0, 4.0, 17)
    ic = identity_ic(frame.blocks)

    def run(budget):
        return integrate_riccati(frame, ic, 0.0, grid, tol=1e-8, defect_budget=budget)

    full = run(np.inf)
    assert not full.blowup_flag and len(full.times) == len(grid)
    budget = 0.5 * np.max(full.bloch_defects[1:])
    n = 1 + int(np.argmax(full.bloch_defects[1:] > budget))
    cut = run(budget)
    assert cut.blowup_flag
    assert cut.blowup_time == grid[n]
    assert len(cut.times) == n
    assert np.array_equal(cut.matrices, full.matrices[:n])
    assert np.array_equal(cut.bloch_defects, full.bloch_defects[:n])
    # the validated initial checkpoint is never a failure point
    first = run(-1.0)
    assert first.blowup_time == grid[1]
    assert len(first.times) == 1


# -------------------------------------------------------------------- blow-up

def _pure_coupling_setup(n_checkpoints=41, t_final=3.0):
    h = -1j * X  # purely off-block: the wave operator has a pole at pi/2
    grid = np.linspace(0.0, t_final, n_checkpoints)
    m_path = propagate(constant(h), 0.0, grid, tol=1e-12)
    return h, grid, m_path


def test_blowup_detected_by_all_routes():
    _, grid, m_path = _pure_coupling_setup()
    ic = identity_ic(DIAG_BLOCKS)

    u_c = closed_form_wave(m_path, ic, DIAG_BLOCKS, sv_tol=1e-2)
    u_d = radon_wave(m_path, ic, DIAG_BLOCKS, sv_tol=1e-2)
    u_r = integrate_riccati(rotating_coupling_frame(), ic, 0.0, grid, blowup_norm=1e2)
    for u in (u_c, u_d, u_r):
        assert u.blowup_flag
        assert u.blowup_time is not None
        assert abs(u.blowup_time - np.pi / 2) < 0.2
        assert len(u.times) < len(grid)  # truncated


def rotating_coupling_frame(gamma=10.0, omega=1.0, t_final=3.0):
    """The pure-coupling case seen from a drifting frame: a static drift
    ``-i omega Z`` and the drive ``D (-iX) D†`` that its flow ``D`` turns
    back into ``-iX``, so the wave operator keeps its pole at pi/2."""
    z = np.diag([1.0, -1.0]).astype(complex)

    def drive(t):  # one matrix per time, for an array of times too
        phase = np.exp(-2j * gamma * omega * np.asarray(t))
        coupling = np.zeros((*phase.shape, 2, 2), dtype=complex)
        coupling[..., 0, 1], coupling[..., 1, 0] = phase, np.conj(phase)
        return -1j * coupling

    model = GeneratorModel(
        name="rotating_coupling",
        dim=2,
        gamma=gamma,
        drift=lambda t: np.broadcast_to(-1j * omega * z, (*np.shape(t), 2, 2)),
        drive=drive,
        drift_derivative=lambda t: np.zeros((*np.shape(t), 2, 2), dtype=complex),
        static_drift=True,
    )
    return build_frame(model, 0.0, t_final)


def test_rotating_riccati_truncates_where_the_plain_path_does():
    frame = rotating_coupling_frame()
    grid = np.linspace(0.0, 3.0, 41)
    ic = identity_ic(frame.blocks)
    for blowup_norm in (1e2, BLOWUP_NORM):
        times, _, blowup_time = plain_riccati(
            frame.hamiltonian_at, ic.matrix, frame.blocks, grid, blowup_norm=blowup_norm
        )
        rotating = integrate_riccati(frame, ic, 0.0, grid, blowup_norm=blowup_norm)
        assert blowup_time is not None and rotating.blowup_flag
        assert abs(blowup_time - np.pi / 2) < 0.2
        assert np.array_equal(rotating.times, times)
        assert abs(rotating.blowup_time - blowup_time) < 1e-6


@pytest.mark.parametrize("rotating", [False, True], ids=["plain", "rotating"])
def test_riccati_lockstep_keeps_each_condition_to_itself(rotating):
    # U = [[1, u], [v, 1]] has u' = -i (1 - u^2): the identity meets a pole
    # at pi/2, while a tilt with real off-block entries has none and runs on.
    # At gamma = 0 the frame's rates vanish and its Hamiltonian is -iX itself
    frame = rotating_coupling_frame(gamma=10.0 if rotating else 0.0)
    grid = np.linspace(0.0, 3.0, 41)
    p, q = frame.blocks
    tilt = np.eye(2) + 0.5 * (p @ X @ q - q @ X @ p)
    ics = [identity_ic(frame.blocks), custom_ic(tilt, frame.blocks)]
    both = integrate_riccati(frame, ics, 0.0, grid, blowup_norm=1e2)
    assert [u.blowup_flag for u in both] == [True, False]
    assert abs(both[0].blowup_time - np.pi / 2) < 0.2
    assert np.array_equal(both[1].times, grid)
    for ours, ic in zip(both, ics):
        alone = integrate_riccati(frame, ic, 0.0, grid, blowup_norm=1e2)
        assert np.array_equal(ours.times, alone.times)
        assert ours.matrices.tobytes() == alone.matrices.tobytes()
        assert ours.bloch_defects.tobytes() == alone.bloch_defects.tobytes()
        assert (ours.blowup_time, ours.stats) == (alone.blowup_time, alone.stats)


# ------------------------------------------------------------ windowed Riccati

def windowed_case(name):
    """A frame, grid, step cap, tolerance and ``M`` on which the Riccati
    solve is cut into windows: the three-level example over [0, 50] with
    its own step cap; the three-level system at gamma = 80 over [0, 4], whose
    windows come from M's step count, not from the cap; or the non-periodic
    Landau-Zener frame with a cap that makes windows and a tolerance that
    sets its error."""
    if name.startswith("three_level"):
        gamma, t1, count = (80.0, 4.0, 21) if name == "three_level_gamma80" else (10.0, 50.0, 251)
        frame = build_frame(three_level_model(gamma, 1.0), 0.0, t1)
        grid, tol = np.linspace(0.0, t1, count), 1e-10
        max_step = _estimate_max_step(frame.hamiltonian_at, 0.0, t1)
    else:
        frame = build_frame(landau_zener_model(2.0), -10.0, 10.0)
        grid, max_step, tol = np.linspace(-10.0, 10.0, 81), 0.05, 1e-8
    return frame, grid, max_step, tol, propagate(frame, grid[0], grid, tol=tol, max_step=max_step)


@pytest.mark.parametrize("case", ["three_level", "three_level_gamma80", "landau_zener"])
def test_windowed_riccati_matches_the_sequential_solve(case):
    frame, grid, max_step, tol, m_path = windowed_case(case)
    ics = [identity_ic(frame.blocks), stationary_ic(frame.hamiltonian_at(grid[0]), frame.frozen, frame.model.gamma)]

    def solve(ic, m=None):
        return integrate_riccati(frame, ic, grid[0], grid, tol=tol, max_step=max_step, m_path=m)

    both = solve(ics, m_path)
    for ours, ic in zip(both, ics):
        seq, alone = solve(ic), solve(ic, m_path)
        # in lockstep with another condition, each path is its own solve's
        assert ours.matrices.tobytes() == alone.matrices.tobytes() and ours.stats == alone.stats
        assert ours.stats["windows"] >= MIN_WINDOWS and ours.stats["sweeps"] >= 2
        assert ours.stats["max_jump"] <= tol
        assert ours.stats["nfev"] > seq.stats["nfev"]  # summed over windows and sweeps
        assert np.array_equal(ours.times, grid) and np.array_equal(ours.matrices[0], ic.matrix)
        assert np.max(spectral_norm(ours.matrices - seq.matrices)) <= 10 * tol
        closed = closed_form_wave(m_path, ic, frame.blocks).matrices
        agreement = [np.max(spectral_norm(u.matrices - closed)) for u in (seq, ours)]
        assert agreement[1] <= 2 * agreement[0]


@pytest.mark.parametrize("size", [1e-6, 1e-2])
def test_windowed_riccati_does_not_inherit_an_error_of_m(size):
    # M only places the window starts: a wrong M costs sweeps or the
    # fall-back to one pass, never accuracy, and the agreement shows it
    frame, grid, max_step, _, m_path = windowed_case("three_level")
    noise = np.random.default_rng(3).normal(size=(*m_path.matrices.shape, 2)) @ [1, 1j]
    noise[0] = 0
    noise /= np.maximum(spectral_norm(noise), 1.0)[:, None, None]
    wrong = replace(m_path, matrices=m_path.matrices + size * noise)
    ic = identity_ic(frame.blocks)
    seq, ours = (
        integrate_riccati(frame, ic, 0.0, grid, max_step=max_step, m_path=m)
        for m in (None, wrong)
    )
    assert np.max(spectral_norm(ours.matrices - seq.matrices)) <= 10 * 1e-10
    closed = closed_form_wave(wrong, ic, frame.blocks).matrices
    assert np.max(spectral_norm(ours.matrices - closed)) > 0.1 * size
    if size > 1e-4:  # too far off to converge: the one pass, bit for bit
        assert (ours.stats["windows"], ours.stats["sweeps"]) == (1, MAX_SWEEPS + 1)
        assert ours.matrices.tobytes() == seq.matrices.tobytes()
        assert ours.stats["nfev"] > seq.stats["nfev"]
    else:
        assert ours.stats["windows"] > 1 and ours.stats["max_jump"] <= 1e-10


@pytest.mark.parametrize("blowup_norm", [1e2, BLOWUP_NORM])
def test_windowed_riccati_truncates_where_the_sequential_solve_does(blowup_norm):
    # the window holding the pole at pi/2 ends the path; the closed form
    # starts the windows beyond it, where the solution exists again
    frame = rotating_coupling_frame()
    grid = np.linspace(0.0, 3.0, 41)
    m_path = propagate(frame, 0.0, grid)
    ic = identity_ic(frame.blocks)
    seq, ours = (
        integrate_riccati(frame, ic, 0.0, grid, max_step=0.02, blowup_norm=blowup_norm, m_path=m)
        for m in (None, m_path)
    )
    assert ours.stats["windows"] >= MIN_WINDOWS
    assert seq.blowup_flag and ours.blowup_flag
    assert np.array_equal(ours.times, seq.times)
    assert abs(ours.blowup_time - seq.blowup_time) < 1e-6
    assert np.max(spectral_norm(ours.matrices - seq.matrices)) < 1e-8


@pytest.mark.parametrize("why", ["short_grid", "closed_form_truncates"])
def test_one_window_is_the_sequential_solve_bit_for_bit(why):
    frame = build_frame(three_level_model(10.0, 1.0), 0.0, 50.0)
    grid = np.linspace(0.0, 5.0 if why == "short_grid" else 50.0, 26)
    max_step = _estimate_max_step(frame.hamiltonian_at, 0.0, grid[-1])
    m_path = propagate(frame, 0.0, grid, max_step=max_step)
    if why == "closed_form_truncates":  # every block of M U0 singular after t0
        m_path = replace(m_path, matrices=m_path.matrices * (grid == 0.0)[:, None, None])
    ic = identity_ic(frame.blocks)
    seq, ours = (
        integrate_riccati(frame, ic, 0.0, grid, max_step=max_step, m_path=m)
        for m in (None, m_path)
    )
    assert ours.matrices.tobytes() == seq.matrices.tobytes()
    assert ours.bloch_defects.tobytes() == seq.bloch_defects.tobytes()
    assert ours.stats == seq.stats
    assert (ours.stats["windows"], ours.stats["sweeps"], ours.stats["max_jump"]) == (1, 1, 0.0)


def test_existence_triad_cross_check():
    # blow-up flag <-> minimum block singular value <-> effective-evolution
    # conditioning, each computed independently
    h, grid, m_path = _pure_coupling_setup()
    ic = identity_ic(DIAG_BLOCKS)
    sv_tol = 1e-2
    u_c = closed_form_wave(m_path, ic, DIAG_BLOCKS, sv_tol=sv_tol)
    u_d = radon_wave(m_path, ic, DIAG_BLOCKS, sv_tol=sv_tol)
    m_eff = bloch_effective_evolution(m_path, ic, DIAG_BLOCKS)

    n_ok = len(u_c.times)
    assert u_c.blowup_flag
    # the closed form keeps exactly the checkpoints whose certificate holds
    assert np.all(m_eff.block_min_sv[:n_ok] >= sv_tol)
    # radon's own condition test truncates at the same checkpoint
    assert u_d.blowup_flag and len(u_d.times) == n_ok
    # the certificate fails exactly where the path was truncated
    direct_sv = np.abs(np.cos(grid))  # |P0 M(t) P0| on the block
    assert direct_sv[n_ok] < sv_tol
    # effective evolution loses invertibility at the same checkpoint
    assert m_eff.block_min_sv[n_ok].min() < sv_tol
    assert np.all(m_eff.block_min_sv[:n_ok].min(axis=1) >= sv_tol)


def test_riccati_pole_flagged_by_event_near_pi_half():
    # the default norm threshold is reached between checkpoints: the event
    # time is the blow-up time and the path keeps the checkpoints before it
    frame = rotating_coupling_frame()
    _, grid, _ = _pure_coupling_setup()
    u = integrate_riccati(frame, identity_ic(frame.blocks), 0.0, grid)
    assert u.blowup_flag
    assert abs(u.blowup_time - np.pi / 2) < 1e-5
    assert np.array_equal(u.times, grid[grid < u.blowup_time])
    # exact solution off the pole: U = D (1 - i tan(t) X) D†, where the
    # drifting frame's flow D turns -iX into the drive C = -i D X D†
    expected = np.eye(2) + np.tan(u.times)[:, None, None] * frame.model.drive(u.times)
    assert np.max(spectral_norm(u.matrices - expected)) < 1e-6


@pytest.mark.parametrize("solve", ["riccati", "propagate"])
def test_grid_of_one_time_or_two_dimensions_is_refused(solve):
    frame = build_frame(three_level_model(10.0, 1.0), 0.0, 1.0)
    for grid in (np.array([0.0]), np.linspace(0.0, 1.0, 6).reshape(2, 3)):
        with pytest.raises(ValueError, match="grid"):
            if solve == "riccati":
                integrate_riccati(frame, identity_ic(frame.blocks), 0.0, grid)
            else:
                propagate(frame, 0.0, grid)


# -------------------------------------------------- effective evolutions

def test_effective_evolution_equals_m_for_block_diagonal_h():
    h = -1j * np.diag([1.0, 4.0]).astype(complex)
    grid = np.linspace(0.0, 3.0, 13)
    m_path = propagate(constant(h), 0.0, grid, tol=1e-12)
    m_eff = bloch_effective_evolution(m_path, identity_ic(DIAG_BLOCKS), DIAG_BLOCKS)
    for m, me in zip(m_path.matrices, m_eff.matrices):
        assert spectral_norm(m - me) < 1e-12


def test_effective_evolution_reconstructs_m(random_bundle):
    # M(t) = U(t) M_eff(t) U(t0)^{-1}
    u = random_bundle.u_closed
    m_eff = random_bundle.m_eff
    u0_inv = np.linalg.inv(u.matrices[0])
    for i in range(len(u.times)):
        rebuilt = u.matrices[i] @ m_eff.matrices[i] @ u0_inv
        assert spectral_norm(random_bundle.m_path.matrices[i] - rebuilt) < 1e-8


def test_effective_evolution_block_commutes(tl_bundle):
    for me in tl_bundle.m_eff.matrices:
        for p in tl_bundle.blocks:
            assert spectral_norm(me @ p - p @ me) < 1e-12


def test_wave_operator_from_effective_inverse(random_bundle):
    # U(t) = M(t) U(t0) M_eff^{-1}(t), M_eff inverted block by block (the
    # pseudo-inverse of P_k M_eff P_k inverts it on its block)
    u = random_bundle.u_riccati
    m_eff = random_bundle.m_eff
    u0 = random_bundle.ic.matrix
    for i in range(0, len(u.times), 10):
        inv = sum(np.linalg.pinv(p @ m_eff.matrices[i] @ p) for p in random_bundle.blocks)
        rebuilt = random_bundle.m_path.matrices[i] @ u0 @ inv
        assert spectral_norm(u.matrices[i] - rebuilt) < 1e-8


def test_effective_generator_identity_case():
    h = -1j * X
    out = effective_generator(h, np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
    assert np.allclose(out, h)


def test_effective_generator_block_diagonal_on_solution(random_bundle):
    from blochwave import offblock_norm

    frame = random_bundle.frame
    u_path = random_bundle.u_riccati
    for i in range(5, len(u_path.times), 17):
        t = u_path.times[i]
        h = frame.hamiltonian_at(t)
        u = u_path.matrices[i]
        u_dot = riccati_rhs(h, u, random_bundle.blocks)
        h_eff = effective_generator(h, u, u_dot)
        assert offblock_norm(h_eff, frame.basis) < 1e-8
        # consistency: substituting back reproduces the derivative
        assert spectral_norm(h @ u - u @ h_eff - u_dot) < 1e-10


def test_effective_generator_singular_raises():
    from blochwave import SingularBlock

    with pytest.raises(SingularBlock):
        effective_generator(
            -1j * X, np.diag([1.0, 0.0]).astype(complex), np.zeros((2, 2), dtype=complex)
        )


def test_zeno_generator_cases():
    h_diag = -1j * np.diag([1.0, 2.0]).astype(complex)
    assert np.allclose(zeno_generator(h_diag, DIAG_BLOCKS), h_diag)
    assert np.allclose(zeno_generator(-1j * X, DIAG_BLOCKS), 0.0)


def test_zeno_first_order_accuracy_improves_with_gamma():
    grid = np.linspace(0.0, 5.0, 11)
    errs = []
    for gamma in (10.0, 40.0):
        model = three_level_model(gamma, 1.0)
        frame = build_frame(model, 0.0, 5.0)
        m_path = propagate(frame.hamiltonian_at, 0.0, grid, tol=1e-11)
        zeno_path = propagate(
            lambda ts: zeno_generator(frame.hamiltonian_at(ts), frame.blocks),
            0.0,
            grid,
            tol=1e-11,
        )
        errs.append(
            max(
                spectral_norm(a - b)
                for a, b in zip(m_path.matrices, zeno_path.matrices)
            )
        )
    assert errs[1] < errs[0]


# ------------------------------------------------------------ defect recording

def test_wave_operator_path_deviation_norms():
    times = np.array([0.0, 1.0])
    mats = np.stack([np.eye(2, dtype=complex), np.array([[1.0, 0.6], [0.0, 1.0]])])
    path = WaveOperatorPath(
        t0=0.0,
        times=times,
        matrices=mats,
        basis=block_basis(DIAG_BLOCKS),
        bloch_defects=np.zeros(2),
        route="manual",
    )
    assert abs(path.sup_deviation("frobenius") - 0.6) < 1e-14
    assert abs(path.sup_deviation("spectral") - 0.6) < 1e-14
    assert path.deviation("spectral")[-1] == path.sup_deviation("spectral")
