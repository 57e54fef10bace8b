"""Wave-operator routes, initial conditions, effective evolutions, blow-up."""

import numpy as np
import pytest

from blochwave import (
    AmbiguousClustering,
    BadInitialCondition,
    SpectralDecomposition,
    bloch_effective_evolution,
    closed_form_wave,
    custom_ic,
    effective_generator,
    identity_ic,
    integrate_riccati,
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
from blochwave import build_frame
from blochwave.bloch import WaveOperatorPath

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
    h = -1j * np.diag([1.0, 3.0]).astype(complex)
    grid = np.linspace(0.0, 5.0, 21)
    u = integrate_riccati(lambda t: h, identity_ic(DIAG_BLOCKS), DIAG_BLOCKS, 0.0, grid)
    assert u.sup_deviation() == 0.0
    assert not u.blowup_flag


def test_riccati_lz_final_deviation_matches_formula(lz_bundle):
    _, tan_phi = lz_asymptotic_amplitude(2.0)
    final = lz_bundle.u_riccati.final_deviation("spectral")
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


def test_route_agreement_random_two_block():
    model = random_smooth_model(4, 2, seed=27, gamma=12.0)
    frame = build_frame(model, 0.0, 5.0, tol=1e-11)
    grid = np.linspace(0.0, 5.0, 51)
    m_path = propagate(frame.hamiltonian_at, 0.0, grid, tol=1e-11)
    ic = identity_ic(frame.blocks)
    u_r = integrate_riccati(frame.hamiltonian_at, ic, frame.blocks, 0.0, grid, tol=1e-11)
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
    assert np.all(u.min_block_sv == 1.0)


def test_bloch_condition_preserved_along_riccati(random_bundle):
    assert random_bundle.u_riccati.max_bloch_defect() < 1e-10


def test_bloch_defect_scales_with_tolerance():
    model = random_smooth_model(4, 2, seed=33, gamma=10.0)
    frame = build_frame(model, 0.0, 4.0, tol=1e-11)
    grid = np.linspace(0.0, 4.0, 17)
    ic = identity_ic(frame.blocks)
    defects = []
    for tol in (1e-6, 1e-8, 1e-10):
        u = integrate_riccati(
            frame.hamiltonian_at, ic, frame.blocks, 0.0, grid, tol=tol, reproject=False
        )
        defects.append(u.max_bloch_defect())
    assert defects[0] < 1e-3
    assert defects[2] < defects[0]


# -------------------------------------------------------------------- blow-up

def _pure_coupling_setup(n_checkpoints=41, t_final=3.0):
    h = -1j * X  # purely off-block: the wave operator has a pole at pi/2
    grid = np.linspace(0.0, t_final, n_checkpoints)
    m_path = propagate(lambda t: h, 0.0, grid, tol=1e-12)
    return h, grid, m_path


def test_blowup_detected_by_all_routes():
    h, grid, m_path = _pure_coupling_setup()
    ic = identity_ic(DIAG_BLOCKS)

    u_c = closed_form_wave(m_path, ic, DIAG_BLOCKS, sv_tol=1e-2)
    u_d = radon_wave(m_path, ic, DIAG_BLOCKS, sv_tol=1e-2)
    u_r = integrate_riccati(
        lambda t: h, ic, DIAG_BLOCKS, 0.0, grid, blowup_norm=1e2
    )
    for u in (u_c, u_d, u_r):
        assert u.blowup_flag
        assert u.blowup_time is not None
        assert abs(u.blowup_time - np.pi / 2) < 0.2
        assert len(u.times) < len(grid)  # truncated


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
    assert np.all(u_c.min_block_sv >= sv_tol)
    # radon's own condition test truncates at the same checkpoint
    assert u_d.blowup_flag and len(u_d.times) == n_ok
    assert len(u_c.min_block_sv) == len(u_d.min_block_sv) == n_ok
    # the certificate fails exactly where the path was truncated
    direct_sv = np.abs(np.cos(grid))  # |P0 M(t) P0| on the block
    assert direct_sv[n_ok] < sv_tol
    # effective evolution loses invertibility at the same checkpoint
    assert not m_eff.invertible(sv_tol)
    assert m_eff.block_min_sv[n_ok].min() < sv_tol
    assert np.all(m_eff.block_min_sv[:n_ok].min(axis=1) >= sv_tol)


def test_riccati_blowup_event_is_raise_optional():
    from blochwave import BlowUp

    h, grid, _ = _pure_coupling_setup()
    ic = identity_ic(DIAG_BLOCKS)
    with pytest.raises(BlowUp):
        integrate_riccati(
            lambda t: h, ic, DIAG_BLOCKS, 0.0, grid, blowup_norm=1e2,
            raise_on_blowup=True,
        )


# -------------------------------------------------- effective evolutions

def test_effective_evolution_equals_m_for_block_diagonal_h():
    h = -1j * np.diag([1.0, 4.0]).astype(complex)
    grid = np.linspace(0.0, 3.0, 13)
    m_path = propagate(lambda t: h, 0.0, grid, tol=1e-12)
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
    # U(t) = M(t) U(t0) M_eff^{-1}(t) with the block pseudo-inverse
    from blochwave import block_pseudo_inverse

    u = random_bundle.u_riccati
    m_eff = random_bundle.m_eff
    u0 = random_bundle.ic.matrix
    for i in range(0, len(u.times), 10):
        inv = sum(
            block_pseudo_inverse(m_eff.matrices[i], p) for p in random_bundle.blocks
        )
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
        assert offblock_norm(h_eff, random_bundle.blocks) < 1e-8
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
            lambda t: zeno_generator(frame.hamiltonian_at(t), frame.blocks),
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
        blocks=DIAG_BLOCKS,
        bloch_defects=np.zeros(2),
        route="manual",
    )
    assert abs(path.sup_deviation("frobenius") - 0.6) < 1e-14
    assert abs(path.sup_deviation("spectral") - 0.6) < 1e-14
    assert path.final_deviation("spectral") == path.sup_deviation("spectral")
