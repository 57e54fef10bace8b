"""Spectral decomposition, label tracking, and block algebra."""

import numpy as np
import pytest

from blochwave import (
    CrossingDetected,
    NotSkewHermitian,
    SingularBlock,
    block_project,
    block_pseudo_inverse,
    decompose,
    landau_zener_model,
    match_labels,
    offblock_norm,
    projector_derivative,
    spectral_norm,
    three_level_model,
    track_spectral_path,
)
from blochwave.operators import DEFAULT_GAP_FACTOR

TOL = 1e-10

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_skew(dim, rng, gap=None):
    """Random skew-Hermitian matrix; optionally with eigenvalue gaps >= gap."""
    if gap is None:
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return 0.5 * (z - z.conj().T)
    lam = np.cumsum(gap + rng.uniform(0.0, 1.0, size=dim))
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    return q @ np.diag(1j * lam) @ q.conj().T


# ---------------------------------------------------------------- decompose

def test_decompose_diagonal():
    a = np.diag([0.0, -1.0j])
    dec = decompose(a, gap_tol=1e-8)
    # ascending imaginary part: -i first, then 0
    assert np.allclose(dec.eigenvalues, [-1.0j, 0.0])
    assert np.allclose(dec.projectors[0], np.diag([0.0, 1.0]))
    assert np.allclose(dec.projectors[1], np.diag([1.0, 0.0]))


def test_decompose_lz_at_zero():
    dec = decompose(-1j * X)
    assert np.allclose(dec.eigenvalues, [-1j, 1j])
    assert np.allclose(dec.projectors[0], 0.5 * (np.eye(2) + X), atol=1e-14)
    assert np.allclose(dec.projectors[1], 0.5 * (np.eye(2) - X), atol=1e-14)


def test_decompose_reconstruction_random():
    rng = np.random.default_rng(3)
    a = random_skew(4, rng)
    dec = decompose(a)
    assert spectral_norm(dec.reconstruct() - a) < 1e-12
    defects = dec.validation_defects()
    assert max(defects.values()) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_decompose_invariants_random(dim):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        a = random_skew(dim, rng, gap=1e-3)
        dec = decompose(a)
        defects = dec.validation_defects()
        assert max(defects.values()) < 1e-10
        assert spectral_norm(dec.reconstruct() - a) < 1e-10 * max(1.0, spectral_norm(a))


def test_decompose_groups_degenerate_eigenvalues():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(z)
    a = q @ np.diag([1j, 1j, 2j]) @ q.conj().T
    dec = decompose(a)
    assert dec.multiplicities == (2, 1)
    assert np.allclose(dec.eigenvalues, [1j, 2j])
    assert abs(np.trace(dec.projectors[0]).real - 2.0) < 1e-12


def test_decompose_gap_tol_merges():
    a = np.diag([1j, 1j * (1 + 1e-9), 2j])
    assert decompose(a, gap_tol=1e-6).multiplicities == (2, 1)
    assert decompose(a, gap_tol=1e-12).multiplicities == (1, 1, 1)


def test_decompose_rejects_non_skew():
    with pytest.raises(NotSkewHermitian):
        decompose(X)  # Hermitian, not skew
    with pytest.raises(NotSkewHermitian):
        decompose(np.array([[np.nan + 0j, 0], [0, 0]]))


def test_default_gap_tol_scales_with_norm():
    # two eigenvalues split by more than the scaled default remain separate
    a = np.diag([1j, 1j * (1 + 1e-7), 3j]) * 1.0
    dec = decompose(a)
    assert dec.n_blocks == 3
    assert DEFAULT_GAP_FACTOR == 1e-8


# -------------------------------------------------------------- match_labels

def test_match_labels_identity():
    dec = decompose(random_skew(4, np.random.default_rng(0), gap=0.5))
    out = match_labels(dec, dec)
    for p, q in zip(dec.projectors, out.projectors):
        assert np.allclose(p, q)


def test_match_labels_swap():
    dec = decompose(random_skew(4, np.random.default_rng(1), gap=0.5))
    swapped_order = list(range(dec.n_blocks))[::-1]
    from blochwave import SpectralDecomposition

    swapped = SpectralDecomposition(
        eigenvalues=dec.eigenvalues[swapped_order],
        projectors=tuple(dec.projectors[i] for i in swapped_order),
        multiplicities=tuple(dec.multiplicities[i] for i in swapped_order),
    )
    out = match_labels(dec, swapped)
    for p, q in zip(dec.projectors, out.projectors):
        assert np.allclose(p, q)
    assert np.allclose(out.eigenvalues, dec.eigenvalues)


def test_match_labels_is_permutation_involution():
    rng = np.random.default_rng(5)
    mat = random_skew(5, rng, gap=0.5)
    a = decompose(mat)
    b = decompose(mat + 0.01 * random_skew(5, rng))
    perm = rng.permutation(b.n_blocks)
    from blochwave import SpectralDecomposition

    scrambled = SpectralDecomposition(
        eigenvalues=b.eigenvalues[perm],
        projectors=tuple(b.projectors[i] for i in perm),
        multiplicities=tuple(b.multiplicities[i] for i in perm),
    )
    ab = match_labels(a, scrambled)
    # matched blocks align with a's labels ...
    for p, q in zip(a.projectors, ab.projectors):
        assert np.trace(p @ q).real > 0.9
    # ... and matching back restores the original labeling exactly
    back = match_labels(ab, a)
    for p, q in zip(back.projectors, a.projectors):
        assert np.allclose(p, q)


def test_match_labels_follows_continuous_branch():
    model = landau_zener_model(1.0)
    prev = decompose(model.drift(-0.1))
    nxt = match_labels(prev, decompose(model.drift(0.1)))
    analytic = model.analytic_spectral(0.1)
    for k in range(2):
        assert spectral_norm(nxt.projectors[k] - analytic.projectors[k]) < 1e-12
    assert np.allclose(nxt.eigenvalues, analytic.eigenvalues)


def test_match_labels_crossing_on_block_count_change():
    fine = decompose(np.diag([1j, 2j]), gap_tol=1e-8)
    merged = decompose(np.diag([1j, 1j + 1e-10j]), gap_tol=1e-6)
    with pytest.raises(CrossingDetected):
        match_labels(fine, merged)


def test_match_labels_crossing_on_low_overlap():
    # mutually unbiased bases: every overlap is 1/3 < 1/2
    eye = np.eye(3, dtype=complex)
    omega = np.exp(2j * np.pi / 3)
    f = np.array([[omega ** (j * k) for k in range(3)] for j in range(3)]) / np.sqrt(3)
    from blochwave import SpectralDecomposition

    basis = SpectralDecomposition(
        eigenvalues=np.array([0j, 1j, 2j]),
        projectors=tuple(np.outer(eye[:, k], eye[:, k].conj()) for k in range(3)),
        multiplicities=(1, 1, 1),
    )
    fourier = SpectralDecomposition(
        eigenvalues=np.array([0j, 1j, 2j]),
        projectors=tuple(np.outer(f[:, k], f[:, k].conj()) for k in range(3)),
        multiplicities=(1, 1, 1),
    )
    with pytest.raises(CrossingDetected):
        match_labels(basis, fourier)


# ------------------------------------------------------ projector_derivative

def test_projector_derivative_static_model_is_zero():
    model = three_level_model(10.0, 1.0)
    for k in range(2):
        assert spectral_norm(projector_derivative(model, k, 1.3)) == 0.0


def test_projector_derivative_lz_analytic():
    model = landau_zener_model(1.0)
    t = 0.8
    s3 = np.hypot(1.0, t) ** 3
    expected_block0 = 0.5 * (Z - t * X) / s3
    assert spectral_norm(projector_derivative(model, 0, t) - expected_block0) < 1e-14
    assert spectral_norm(projector_derivative(model, 1, t) + expected_block0) < 1e-14


def test_projector_derivative_central_difference_matches_analytic():
    import dataclasses

    model = landau_zener_model(1.0)
    numeric = dataclasses.replace(
        model,
        analytic_spectral=None,
        analytic_projector_derivative=None,
        analytic_eigenvalues=None,
        analytic_kato=None,
    )
    for t in (-1.2, 0.0, 0.7):
        for k in range(2):
            exact = model.analytic_projector_derivative(k, t)
            approx = projector_derivative(numeric, k, t, h=1e-4)
            assert spectral_norm(approx - exact) < 1e-7
            assert spectral_norm(approx - approx.conj().T) < 1e-12  # Hermitian


# ------------------------------------------------------ block pseudo-inverse

def test_block_pseudo_inverse_identity():
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    x = block_pseudo_inverse(np.eye(3, dtype=complex), p)
    assert np.allclose(x, p)


def test_block_pseudo_inverse_scalar_block():
    a = np.diag([2.0, 5.0]).astype(complex)
    p = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(block_pseudo_inverse(a, p), np.diag([0.5, 0.0]))


def test_block_pseudo_inverse_random_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
        p = q @ q.conj().T
        x = block_pseudo_inverse(a, p)
        pap = p @ a @ p
        assert spectral_norm(x @ pap - p) < 1e-10
        assert spectral_norm(pap @ x - p) < 1e-10
        assert spectral_norm(x - p @ x @ p) < 1e-12  # zero outside the block


def test_block_pseudo_inverse_singular_raises():
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    a = np.zeros((3, 3), dtype=complex)
    a[2, 2] = 1.0
    with pytest.raises(SingularBlock):
        block_pseudo_inverse(a, p, sv_tol=1e-12)


# -------------------------------------------------------------- block_project

def test_block_project_keeps_block_diagonal():
    blocks = [np.diag([1.0, 1.0, 0.0]).astype(complex), np.diag([0.0, 0.0, 1.0]).astype(complex)]
    a = np.zeros((3, 3), dtype=complex)
    a[:2, :2] = np.array([[1, 2], [3, 4]])
    a[2, 2] = 5.0
    assert np.allclose(block_project(a, blocks), a)


def test_block_project_kills_off_block():
    blocks = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    a = np.array([[0, 3], [7, 0]], dtype=complex)
    assert np.allclose(block_project(a, blocks), 0.0)


def test_block_project_elementwise_masking_oracle():
    blocks = [np.diag([1.0, 1.0, 0.0]).astype(complex), np.diag([0.0, 0.0, 1.0]).astype(complex)]
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    masked = a.copy()
    for i, j in [(0, 2), (1, 2), (2, 0), (2, 1)]:
        masked[i, j] = 0.0
    assert np.allclose(block_project(a, blocks), masked)


def test_block_project_idempotent_and_linear():
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    blocks = [q[:, :2] @ q[:, :2].conj().T, q[:, 2:] @ q[:, 2:].conj().T]
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    once = block_project(a, blocks)
    assert spectral_norm(block_project(once, blocks) - once) < 1e-13
    assert spectral_norm(
        block_project(a + 2.0 * b, blocks) - once - 2.0 * block_project(b, blocks)
    ) < 1e-13


def test_block_project_identity_on_commuting_input():
    blocks = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    a = np.diag([2.0 + 1j, -3.0]).astype(complex)  # commutes with both blocks
    assert np.allclose(block_project(a, blocks), a)


def test_stack_primitives_equal_per_matrix_results():
    rng = np.random.default_rng(29)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    blocks = [q[:, :1] @ q[:, :1].conj().T, q[:, 1:] @ q[:, 1:].conj().T]
    stack = rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
    assert isinstance(spectral_norm(stack[0]), float)
    assert np.array_equal(spectral_norm(stack), [spectral_norm(a) for a in stack])
    assert np.array_equal(
        block_project(stack, blocks), [block_project(a, blocks) for a in stack]
    )
    assert np.array_equal(
        offblock_norm(stack, blocks), [offblock_norm(a, blocks) for a in stack]
    )


# ---------------------------------------------------------------- path tools

def test_track_spectral_path_lz():
    model = landau_zener_model(1.0)
    grid = np.linspace(-2.0, 2.0, 41)
    path = track_spectral_path(model.drift, grid)
    assert path.min_gap() > 1.9  # 2*sqrt(1+t^2) >= 2
    for dec, t in zip(path.decompositions, grid):
        analytic = model.analytic_spectral(t)
        for k in range(2):
            assert spectral_norm(dec.projectors[k] - analytic.projectors[k]) < 1e-10


def test_track_spectral_path_rejects_bad_grid():
    model = landau_zener_model(1.0)
    with pytest.raises(ValueError):
        track_spectral_path(model.drift, np.array([0.0, 0.0, 1.0]))
