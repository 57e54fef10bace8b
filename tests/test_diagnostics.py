"""Leakage, certified bounds, polar unitarization."""

import numpy as np
import pytest

from blochwave import (
    BadInitialCondition,
    BoundViolated,
    OutOfRange,
    PropagatorPath,
    bloch_effective_evolution,
    build_frame,
    closed_form_wave,
    distance_report,
    identity_ic,
    landau_zener_model,
    leakage,
    leakage_bound,
    lz_asymptotic_amplitude,
    offblock_norm,
    propagate,
    random_smooth_model,
    spectral_norm,
    unitarize,
    v_bound,
)
from blochwave.bloch import IC_TOL, WaveOperatorPath
from blochwave.operators import block_basis

DIAG_BLOCKS = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))


def _manual_u_path(mats, blocks=DIAG_BLOCKS):
    mats = np.asarray(mats, dtype=complex)
    times = np.linspace(0.0, 1.0, len(mats))
    return WaveOperatorPath(
        t0=0.0,
        times=times,
        matrices=mats,
        basis=block_basis(blocks),
        bloch_defects=np.zeros(len(mats)),
        route="manual",
    )


def _manual_m_path(mats):
    mats = np.asarray(mats, dtype=complex)
    times = np.linspace(0.0, 1.0, len(mats))
    eye = np.eye(mats.shape[-1])
    defects = np.array([spectral_norm(m.conj().T @ m - eye) for m in mats])
    return PropagatorPath(0.0, times, mats, defects, tol=1e-12)


# ------------------------------------------------------------------- leakage

def test_leakage_block_diagonal_is_zero():
    mats = [np.diag(np.exp([1j * t, -2j * t])) for t in np.linspace(0, 1, 5)]
    assert np.all(leakage(_manual_m_path(mats), DIAG_BLOCKS) == 0.0)


def test_leakage_lz_final_value(lz_bundle):
    sin_phi, _ = lz_asymptotic_amplitude(2.0)
    p0 = lz_bundle.blocks[0]
    final_leak = spectral_norm(
        (np.eye(2) - p0) @ lz_bundle.m_path.final @ p0
    )
    assert abs(final_leak - sin_phi) / sin_phi < 0.02


def test_leakage_bounded_by_transformation_distance():
    # M = U D U0^{-1} with block-diagonal unitary D and Bloch-valid U
    rng = np.random.default_rng(12)
    for _ in range(20):
        eps = rng.uniform(0.0, 0.3)
        u = np.eye(2, dtype=complex)
        u[0, 1] = eps * np.exp(1j * rng.uniform(0, 2 * np.pi))
        d = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
        m = u @ d @ np.linalg.inv(u)
        delta = spectral_norm(u - np.eye(2))
        leak = max(leakage(_manual_m_path([m]), DIAG_BLOCKS))
        assert leak <= leakage_bound(delta) + 1e-12


def test_leakage_frame_invariance(lz_bundle):
    # leakage from the lab-frame evolution with moving projectors equals the
    # frame-evolution value with frozen projectors (both norms)
    model = lz_bundle.model
    grid = lz_bundle.grid
    f_path = propagate(model.full_generator, grid[0], grid, tol=1e-10)
    frozen = lz_bundle.frame.frozen
    for norm, ord_ in (("spectral", 2), ("frobenius", "fro")):
        frame_leak = leakage(lz_bundle.m_path, lz_bundle.blocks, norm)
        lab = np.zeros(len(frozen.projectors))
        for i, t in enumerate(grid):
            moving = model.analytic_spectral(t)
            for k, (pk0, pkt) in enumerate(
                zip(frozen.projectors, moving.projectors)
            ):
                val = np.linalg.norm(
                    (np.eye(2) - pkt) @ f_path.matrices[i] @ pk0, ord_
                )
                lab[k] = max(lab[k], val)
        assert np.allclose(lab, frame_leak, atol=5e-7)


# -------------------------------------------------------------------- bounds

def test_leakage_bound_values():
    assert leakage_bound(0.0) == 0.0
    assert leakage_bound(0.5) == 2.0
    assert abs(leakage_bound(0.043254) - 0.090419) < 1e-6


def test_leakage_bound_domain():
    with pytest.raises(OutOfRange):
        leakage_bound(1.0)
    with pytest.raises(OutOfRange):
        leakage_bound(-0.1)


def test_v_bound_values():
    assert v_bound(0.0) == 0.0
    assert abs(v_bound(0.1) - (1.1 / np.sqrt(0.79) - 1.0)) < 1e-15
    assert abs(v_bound(0.1) - 0.23760) < 5e-5


def test_v_bound_domain():
    with pytest.raises(OutOfRange):
        v_bound(0.42)  # 2d + d^2 > 1
    with pytest.raises(OutOfRange):
        v_bound(-0.05)


# ----------------------------------------------------------------- unitarize

def test_unitarize_unitary_input_is_fixed_point():
    theta = 0.3
    rot = np.array(
        [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]],
        dtype=complex,
    )
    path = _manual_u_path([np.eye(2), rot])
    v = unitarize(path)
    assert spectral_norm(v.matrices[1] - rot) < 1e-14
    assert v.max_unitarity_defect() < 1e-14


def test_unitarize_small_offblock_respects_bound():
    for eps in (0.01, 0.1, 0.3):
        u = np.eye(2, dtype=complex)
        u[0, 1] = eps
        path = _manual_u_path([np.eye(2), u])
        v = unitarize(path)
        dev = v.deviation("spectral").max()
        delta = spectral_norm(u - np.eye(2))
        assert dev <= v_bound(delta) + 1e-12


def test_unitarize_three_level_block_diagonalizes(tl_bundle):
    v = unitarize(tl_bundle.u_closed, m_path=tl_bundle.m_path)
    assert v.max_unitarity_defect() <= 1e-10
    assert v.gram_offblock_defect <= 1e-8
    assert v.conjugated_offblock_defect <= 1e-6


def test_unitarize_rejects_incompatible_initial_condition():
    u0 = np.eye(2, dtype=complex)
    u0[0, 1] = 0.2  # gram does not commute with the blocks
    path = _manual_u_path([u0, u0])
    with pytest.raises(BadInitialCondition):
        unitarize(path)


@pytest.mark.parametrize("coupling, raises", [(0.8 * IC_TOL, True), (0.6 * IC_TOL, False)])
def test_unitarize_checks_the_initial_gram_block_by_block(coupling, raises):
    # three blocks (ranks 1, 1, 2) in a basis other than the coordinate one;
    # U0 couples block 0 to blocks 1 and 2 by `coupling` each, so that
    # ‖[U0†U0, P_k]‖ is √2 coupling for block 0 and coupling for the others:
    # at 0.8 IC_TOL block 0 alone exceeds the tolerance, at 0.6 none does
    rng = np.random.default_rng(41)
    v, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    blocks = [v[:, ix] @ v[:, ix].conj().T for ix in ([0], [1], [2, 3])]
    e = np.zeros((4, 4), dtype=complex)
    e[1, 0] = e[2, 0] = coupling
    u0 = np.eye(4) + v @ e @ v.conj().T
    gram = u0.conj().T @ u0
    commutators = [spectral_norm(gram @ p - p @ gram) for p in blocks]
    assert (commutators[0] > IC_TOL) == raises and max(commutators[1:]) < IC_TOL
    path = _manual_u_path([u0, u0], blocks)
    if raises:
        with pytest.raises(BadInitialCondition, match=r"\[U0†U0, P_0\] = 1\.13"):
            unitarize(path)
    else:
        # the gram's whole off-block part: block 0's column of couplings
        assert abs(unitarize(path).gram_offblock_defect - np.sqrt(2) * coupling) < 1e-15


def test_unitarize_requires_matching_grid(tl_bundle):
    short = _manual_m_path([np.eye(3)] * 3)
    with pytest.raises(ValueError):
        unitarize(tl_bundle.u_closed, m_path=short)


# ------------------------------------------------------------ distance report

def test_distance_report_identity_everything():
    eye_mats = [np.eye(2, dtype=complex)] * 4
    u = _manual_u_path(eye_mats)
    m = _manual_m_path(eye_mats)
    m_eff = bloch_effective_evolution(m, identity_ic(DIAG_BLOCKS), DIAG_BLOCKS)
    v = unitarize(u, m_path=m)
    report = distance_report(u, m, m_eff, v_path=v)
    assert report.delta_spectral == 0.0
    assert report.bound_leakage == 0.0
    assert np.all(report.per_block_leakage == 0.0)
    assert report.max_effective_distance == 0.0


def test_distance_report_lz_pipeline(lz_bundle):
    ic = identity_ic(lz_bundle.blocks)
    u = lz_bundle.u_closed
    v = unitarize(u, m_path=lz_bundle.m_path)
    report = distance_report(u, lz_bundle.m_path, lz_bundle.m_eff, v_path=v)
    assert report.delta_in_range
    assert report.max_effective_distance <= report.bound_leakage + 1e-12
    assert report.v_deviation_max <= report.bound_v + 1e-12
    # record of the grid makes the suprema reproducible
    assert np.array_equal(report.grid, u.times)


def test_distance_report_detects_forged_violation():
    # U close to identity but M far from the claimed effective evolution:
    # impossible for a correct solver, so the report must raise
    u = _manual_u_path([np.eye(2, dtype=complex)] * 3)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    m = _manual_m_path([np.eye(2), flip, flip])
    m_eff = bloch_effective_evolution(
        _manual_m_path([np.eye(2)] * 3), identity_ic(DIAG_BLOCKS), DIAG_BLOCKS
    )
    with pytest.raises(BoundViolated):
        distance_report(u, m, m_eff)


def test_distance_report_flags_out_of_range_delta():
    big = np.eye(2, dtype=complex)
    big[0, 1] = 3.0  # delta > 1: bound vacuous
    u = _manual_u_path([np.eye(2), big])
    m = _manual_m_path([np.eye(2)] * 2)
    m_eff = bloch_effective_evolution(m, identity_ic(DIAG_BLOCKS), DIAG_BLOCKS)
    report = distance_report(u, m, m_eff)
    assert not report.delta_in_range
    assert np.isinf(report.bound_leakage)


# ------------------------------------------ operator-norm inequality chains

def test_inequality_chains_on_bundles(lz_bundle, tl_bundle, random_bundle):
    for bundle in (lz_bundle, tl_bundle, random_bundle):
        u_path = bundle.u_closed
        delta = u_path.sup_deviation("spectral")
        assert delta < 1.0
        eye = np.eye(u_path.dim)
        for u in u_path.matrices:
            u_inv = np.linalg.inv(u)
            assert spectral_norm(u) <= 1.0 + delta + 1e-10
            assert spectral_norm(u_inv) <= 1.0 / (1.0 - delta) + 1e-10
            assert spectral_norm(u_inv - eye) <= delta / (1.0 - delta) + 1e-10
            gram = u.conj().T @ u
            assert spectral_norm(gram - eye) <= 2 * delta + delta**2 + 1e-10


@pytest.mark.parametrize(
    "model, span",
    [
        (lambda: landau_zener_model(2.0), (-5.0, 5.0)),
        (lambda: random_smooth_model(6, 3, seed=11), (0.0, 1.0)),
    ],
    ids=["landau_zener", "random_6x6_three_blocks"],
)
def test_block_algebra_slices_match_the_projector_products(model, span):
    # leakage, Bloch defect, off-block norm and M_eff are slices or masks of
    # into(.) in the frozen eigenbasis; each must give what the projector
    # sandwiches give, on a frame whose blocks are not coordinate blocks
    from blochwave.bloch import _bloch_defect
    from blochwave.diagnostics import _leakage_trace
    from tests.helpers import (
        projector_block_project,
        projector_bloch_defect,
        projector_leakage,
        projector_offblock_norm,
    )

    frame = build_frame(model(), *span)
    blocks = frame.blocks
    assert np.any(np.abs(np.asarray(blocks)) * ~np.eye(frame.model.dim, dtype=bool) > 0.05)
    m_path = propagate(frame, span[0], np.linspace(*span, 41))
    ic = identity_ic(blocks)
    u_path = closed_form_wave(m_path, ic, blocks)
    rng = np.random.default_rng(3)
    noise = rng.normal(size=m_path.matrices.shape) + 1j * rng.normal(size=m_path.matrices.shape)
    for ord_ in (2, "fro"):
        ours = _leakage_trace(m_path.matrices, frame.basis, ord_)
        assert np.max(np.abs(ours - projector_leakage(m_path.matrices, blocks, ord_))) < 1e-13
    for x in (m_path.matrices, u_path.matrices, noise):
        assert np.max(np.abs(_bloch_defect(x, frame.basis) - projector_bloch_defect(x, blocks))) < 1e-13
        assert np.max(np.abs(offblock_norm(x, frame.basis) - projector_offblock_norm(x, blocks))) < 1e-13
    # M_eff is the block-diagonal mask of into(M U0), mapped back
    diff = bloch_effective_evolution(m_path, ic, blocks).matrices
    diff = diff - projector_block_project(m_path.matrices @ ic.matrix, blocks)
    for ord_ in (2, "fro"):
        assert np.max(np.linalg.norm(diff, ord_, axis=(-2, -1))) < 1e-13
