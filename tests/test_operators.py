"""Spectral decomposition, label matching, and block algebra."""

import numpy as np
import pytest

from blochwave import (
    CrossingDetected,
    NotSkewHermitian,
    SingularBlock,
    block_project,
    decompose,
    landau_zener_model,
    match_labels,
    offblock_norm,
    spectral_norm,
)
from blochwave.operators import (
    DEFAULT_GAP_FACTOR,
    SUMMED_MATMUL_MAX_DIM,
    block_basis,
    stack_matmul,
    stack_product,
)

TOL = 1e-10

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


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

def test_projector_stack_is_one_array_under_the_projectors():
    rng = np.random.default_rng(4)
    a = random_skew(5, rng, gap=0.5)
    dec = decompose(a)
    stack = dec.projector_stack
    assert stack.shape == (dec.n_blocks, 5, 5)
    for k, p in enumerate(dec.projectors):
        assert p.base is stack and np.array_equal(p, stack[k])
    relabeled = match_labels(dec, decompose(a + 1e-3 * random_skew(5, rng)))
    assert all(p.base is relabeled.projector_stack for p in relabeled.projectors)
    # built from a sequence, the stack is the stacked sequence
    assert np.array_equal(
        type(dec)(dec.eigenvalues, tuple(dec.projectors), dec.multiplicities).projector_stack,
        stack,
    )


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


def test_decompose_takes_one_eigh_and_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("decompose took an SVD")

    # np.linalg.norm(a, 2) reaches svd through numpy's implementation module
    for module in (np.linalg, np.linalg._linalg):
        monkeypatch.setattr(module, "svd", no_svd)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h) or eigh(h))
    dec = decompose(random_skew(6, np.random.default_rng(3), gap=0.5))
    assert len(calls) == 1 and dec.n_blocks == 6


@pytest.mark.parametrize("ratio", [1.0 + 1e-6, 1.01, 2.0])
@pytest.mark.parametrize("seed", range(4))
def test_decompose_raises_wherever_the_spectral_norm_check_did(seed, ratio):
    # the spectral-norm check raised once ‖a† + a‖_2 > TOL * max(1, ‖a‖_2);
    # a rank-one Hermitian part puts the Frobenius defect at its spectral
    # value, the closest the Frobenius check can come to letting it pass
    rng = np.random.default_rng(seed)
    skew = random_skew(5, rng, gap=0.5)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    herm = np.outer(v, v.conj()) / np.vdot(v, v).real
    eps = 0.5 * ratio * TOL * spectral_norm(skew)
    for _ in range(3):  # ‖a‖ moves with eps; settle the ratio
        a = skew + eps * herm
        eps *= ratio * TOL * max(1.0, spectral_norm(a)) / spectral_norm(a.conj().T + a)
    a = skew + eps * herm
    assert spectral_norm(a.conj().T + a) > TOL * max(1.0, spectral_norm(a))
    with pytest.raises(NotSkewHermitian):
        decompose(a, hermiticity_tol=TOL)


def per_matrix_decompose(a):
    """One matrix at a time, with the default gap: the reference a stacked
    decomposition must equal entry by entry."""
    lam, vec = np.linalg.eigh(-1j * a)
    scale = max(1.0, max(-lam[0], lam[-1]) - np.linalg.norm(a.conj().T + a))
    labels = np.concatenate(([0], np.cumsum(np.diff(lam) > DEFAULT_GAP_FACTOR * scale)))
    counts = np.bincount(labels)
    members = labels == np.arange(len(counts))[:, None]
    projectors = (vec * members[:, None, :]) @ vec.conj().T
    projectors = 0.5 * (projectors + projectors.conj().swapaxes(-1, -2))
    eigenvalues = 1j * (np.bincount(labels, weights=lam) / counts)
    return eigenvalues, projectors, tuple(counts.tolist())


@pytest.mark.parametrize("multiplicities", [(1, 1), (1, 1, 1, 1), (2, 1), (1, 3, 2), (4, 2), (6,)])
def test_stacked_decompose_is_the_per_matrix_one_bit_for_bit(multiplicities):
    rng = np.random.default_rng(sum(multiplicities) * len(multiplicities))
    levels = np.repeat(np.cumsum(0.5 + rng.uniform(size=len(multiplicities))), multiplicities)
    dim = len(levels)
    stack = []
    for i in range(9):  # moving eigenvectors and levels, fixed multiplicities
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        stack.append(q @ np.diag(1j * levels * (1.0 + 0.1 * i)) @ q.conj().T)
    stack = np.array(stack)
    dec = decompose(stack)
    assert dec.multiplicities == multiplicities
    assert dec.eigenvalues.shape == (9, len(multiplicities))
    assert dec.projector_stack.shape == (9, len(multiplicities), dim, dim)
    for i, a in enumerate(stack):
        eigenvalues, projectors, counts = per_matrix_decompose(a)
        single = decompose(a)
        assert counts == single.multiplicities == multiplicities
        for got in (dec[i], single):
            assert got.eigenvalues.tobytes() == eigenvalues.tobytes()
            assert got.projector_stack.tobytes() == projectors.tobytes()
        assert [p.shape for p in dec.projectors] == [(9, dim, dim)] * len(multiplicities)
    assert max(dec.validation_defects().values()) < 1e-12
    assert spectral_norm(dec.reconstruct() - stack).max() < 1e-12


def test_stacked_decompose_names_the_first_offending_matrix():
    rng = np.random.default_rng(11)
    stack = np.array([random_skew(3, rng, gap=0.5) for _ in range(6)])
    times = np.linspace(0.0, 2.5, 6)
    herm = stack.copy()
    herm[[2, 4]] += 1e-6 * np.eye(3)
    for i in (2, 4):
        with pytest.raises(NotSkewHermitian):
            decompose(herm[i])
    with pytest.raises(NotSkewHermitian, match="at t=1 is not skew"):
        decompose(herm, times=times)
    with pytest.raises(NotSkewHermitian, match=r"\[2\] is not skew"):
        decompose(herm)
    broken = stack.copy()
    broken[3, 0, 1] = np.nan
    with pytest.raises(NotSkewHermitian, match="at t=1.5 contains non-finite"):
        decompose(broken, times=times)
    merged = stack.copy()
    merged[5] = np.diag([1j, 1j, 3j])  # two levels in one block
    with pytest.raises(CrossingDetected, match="t=2.5"):
        decompose(merged, times=times)
    assert decompose(stack, times=times).n_blocks == 3


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


# -------------------------------------------------------------- block_basis

def test_block_basis_of_coordinate_projectors_is_the_identity():
    blocks = [np.diag([0.0, 1.0, 0.0]).astype(complex), np.diag([1.0, 0.0, 1.0]).astype(complex)]
    labels, into, out_of = block_basis(blocks)
    assert labels.tolist() == [1, 0, 1]
    a = np.random.default_rng(5).normal(size=(2, 3, 3)) + 0j
    assert into(a) is a and out_of(a) is a


def test_block_basis_refuses_an_empty_block():
    # a zero projector has no column in the basis, in either branch
    p = np.full((2, 2), 0.5, dtype=complex)
    zero, eye = np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex)
    for blocks in ((eye, zero), (zero, eye), (p, eye - p, zero), (p, zero, eye - p)):
        with pytest.raises(SingularBlock, match="empty range"):
            block_basis(blocks)


def test_block_basis_slices_are_the_block_restrictions():
    # P_k X P_k, read in the eigenbasis, is the slice of block k's indices
    rng = np.random.default_rng(19)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    blocks = np.stack([q[:, ix] @ q[:, ix].conj().T for ix in ([0, 3], [1], [2, 4])])
    labels, into, out_of = block_basis(blocks)
    assert np.bincount(labels).tolist() == [2, 1, 2]
    x = rng.normal(size=(2, 5, 5)) + 1j * rng.normal(size=(2, 5, 5))
    assert np.max(spectral_norm(out_of(into(x)) - x)) < 1e-13
    xv = into(x)
    for k, p in enumerate(blocks):
        mask = (labels == k)[:, None] & (labels == k)[None, :]
        assert np.max(spectral_norm(out_of(xv * mask) - p @ x @ p)) < 1e-13
        # the singular values of a restriction do not depend on the basis within the block
        ix = np.flatnonzero(labels == k)
        ref = np.linalg.svd(p @ x @ p, compute_uv=False)[:, : len(ix)]
        assert np.allclose(np.linalg.svd(xv[:, ix[:, None], ix], compute_uv=False), ref, atol=1e-13)


def sandwich_inputs(dim, rng):
    """A random matrix, 3-D and 4-D stacks, and a non-contiguous view."""
    def draw(*shape):
        return rng.normal(size=(*shape, dim, dim)) + 1j * rng.normal(size=(*shape, dim, dim))

    view = draw(2, 4).swapaxes(-1, -2)[1, ::2]
    return {"matrix": draw(), "stack": draw(7), "4d": draw(2, 3), "view": view}


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_stack_product_is_the_product_by_constant_matrices(dim):
    rng = np.random.default_rng(40 + dim)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    blocks = [q[:, ix] @ q[:, ix].conj().T for ix in (slice(0, dim // 2), slice(dim // 2, dim))]
    _, into, out_of = block_basis(blocks)
    v = np.linalg.eigh(np.tensordot(np.arange(2), np.asarray(blocks), axes=1))[1]  # block_basis's V
    left, right = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
    gain_l, gain_r = np.linalg.norm(left, 2), np.linalg.norm(right, 2)
    for name, x in sandwich_inputs(dim, rng).items():
        if name == "view":
            assert not x.flags.c_contiguous
        for got, want, gain in [
            (into(x), v.conj().T @ x @ v, 1.0),
            (out_of(x), v @ x @ v.conj().T, 1.0),
            (stack_product(x, right, left), left @ x @ right, gain_l * gain_r),
            (stack_product(x, right), x @ right, gain_r),
        ]:
            assert got.shape == x.shape
            error = np.linalg.norm(got - want, 2, axis=(-2, -1))
            assert np.all(error <= 1e-14 * gain * np.linalg.norm(x, 2, axis=(-2, -1)))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_stack_product_gives_each_matrix_of_a_stack_its_solo_bits(dim):
    # a lockstep solve rotates the stage times of all its problems in one call,
    # and its paths stay bit for bit the solo ones only if this holds
    rng = np.random.default_rng(dim)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    left, right = q.conj().T, q
    stack = rng.normal(size=(3096 // dim, dim, dim)) + 1j * rng.normal(size=(3096 // dim, dim, dim))
    for factors in [(right,), (right, left)]:
        whole = stack_product(stack, *factors)
        for i, x in enumerate(stack):
            assert stack_product(x, *factors).tobytes() == whole[i].tobytes()
        # and a 4-D stack row by row as the 3-D one
        assert stack_product(stack[:12].reshape(3, 4, dim, dim), *factors).tobytes() == whole[:12].tobytes()


# -------------------------------------------------------------- stack_matmul

def norms(x):
    return np.linalg.norm(x, 2, axis=(-2, -1))


@pytest.mark.parametrize("dim", range(1, 7))
def test_stack_matmul_is_the_matrix_product(dim):
    rng = np.random.default_rng(60 + dim)
    first, second = sandwich_inputs(dim, rng), sandwich_inputs(dim, rng)
    constant = first.pop("matrix")
    for name, a in first.items():
        b = second[name]
        # stack by stack, and a constant factor broadcast on either side
        for x, y in [(a, b), (a, constant), (constant, a)]:
            got, want = stack_matmul(x, y), x @ y
            assert got.shape == want.shape
            assert np.all(norms(got - want) <= 1e-14 * norms(x) * norms(y))
            if not 2 <= dim <= SUMMED_MATMUL_MAX_DIM:
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", range(1, 7))
def test_stack_matmul_gives_each_matrix_of_a_stack_its_solo_bits(dim):
    # the integrators multiply stacks of every size, one matrix included, and
    # a matrix must not change its bits with the company it is in
    rng = np.random.default_rng(dim)
    a, b = rng.normal(size=(2, 3000, dim, dim)) + 1j * rng.normal(size=(2, 3000, dim, dim))
    for right in (b, b[0]):
        whole = stack_matmul(a, right)
        for i in range(len(a)):
            solo = stack_matmul(a[i : i + 1], right[i : i + 1] if right.ndim == 3 else right)
            assert solo.tobytes() == whole[i].tobytes()
        # and a 4-D stack row by row as the 3-D one
        four = right[:12].reshape(3, 4, dim, dim) if right.ndim == 3 else right
        assert stack_matmul(a[:12].reshape(3, 4, dim, dim), four).tobytes() == whole[:12].tobytes()


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


def loop_block_project(a, blocks):
    """``sum_k P_k a P_k`` block by block, the reference for the broadcast."""
    out = np.zeros_like(a)
    for p in blocks:
        out += p @ a @ p
    return out


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_block_project_is_bitwise_the_loop_over_the_blocks(dim):
    rng = np.random.default_rng(dim)
    for n_blocks in range(1, dim + 1):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        cuts = np.sort(rng.choice(np.arange(1, dim), n_blocks - 1, replace=False))
        blocks = [q[:, i:j] @ q[:, i:j].conj().T for i, j in zip([0, *cuts], [*cuts, dim])]
        for shape in [(dim, dim), (5, dim, dim), (2, 3, dim, dim)]:
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            expected = loop_block_project(a, blocks)
            assert block_project(a, blocks).tobytes() == expected.tobytes()
            assert block_project(a, np.stack(blocks)).tobytes() == expected.tobytes()


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
    basis = block_basis(blocks)
    assert np.array_equal(offblock_norm(stack, basis), [offblock_norm(a, basis) for a in stack])


# ------------------------------------------------------------ spectral_norm

EPS = np.finfo(float).eps
NORM_SHAPES = [(20, 1, 3), (20, 3, 1), (20, 1, 1), (20, 2, 2), (20, 3, 3), (20, 4, 4), (20, 6, 6)]


def svd_norm(a):
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def norm_cases(shape, rng):
    """Stacks of one shape: random, rank-1, exactly degenerate (three times a
    partial isometry, whose singular values are all 3), zero, and random
    scaled by 1e-200 and 1e200."""
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    *stack, rows, cols = shape
    tall = rng.normal(size=(*stack, max(rows, cols), min(rows, cols)))
    isometry = np.linalg.qr(tall + 1j * rng.normal(size=tall.shape))[0]
    if rows < cols:
        isometry = isometry.conj().swapaxes(-1, -2)
    return {
        "random": z,
        "rank-1": z[..., :, :1] * z[..., :1, :],
        "degenerate": 3.0 * isometry,
        "zero": np.zeros(shape, dtype=complex),
        "tiny": 1e-200 * z,
        "huge": 1e200 * z,
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", NORM_SHAPES)
def test_spectral_norm_is_the_largest_singular_value(shape):
    rng = np.random.default_rng(sum(shape))
    for name, a in norm_cases(shape, rng).items():
        got, want = spectral_norm(a), svd_norm(a)
        assert np.all(np.abs(got - want) <= 4 * EPS * want), name
        # a stack is its matrices one at a time, bit for bit
        assert got.tobytes() == np.array([spectral_norm(m) for m in a]).tobytes(), name
        assert all(isinstance(spectral_norm(m), float) for m in a[:2])


def test_spectral_norm_of_views_is_that_of_their_copies():
    rng = np.random.default_rng(41)
    a = rng.normal(size=(30, 4, 4)) + 1j * rng.normal(size=(30, 4, 4))
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    labels, into, _ = block_basis([q[:, :1] @ q[:, :1].conj().T, q[:, 1:] @ q[:, 1:].conj().T])
    assert labels.tolist() == [0, 1, 1, 1]
    mv = into(a)
    views = [mv[..., 1:, :1], mv[..., :1, 1:], mv[..., 1:, 1:]]  # block slices
    views += [a[::3, ::2, 1:], a.swapaxes(-1, -2), a.real]
    for view in views:
        assert not view.flags.c_contiguous
        got = spectral_norm(view)
        assert got.tobytes() == spectral_norm(np.ascontiguousarray(view)).tobytes()
        assert np.all(np.abs(got - svd_norm(view)) <= 4 * EPS * svd_norm(view))


def test_spectral_norm_of_a_non_finite_matrix_is_never_finite():
    a = np.eye(3, dtype=complex) * np.ones((4, 1, 1))
    a[2, 0, 1] = np.nan
    for x in (a, a[2]):
        with pytest.raises(np.linalg.LinAlgError):
            spectral_norm(x)
    a[2, 0, 1] = np.inf
    assert not np.isfinite(spectral_norm(a[2]))
    assert not np.isfinite(spectral_norm(a)[2])
    assert spectral_norm(np.zeros((0, 2, 2))).shape == (0,)


# ---------------------------------------------------------------- path tools

def test_stacked_decompose_follows_the_lz_branches():
    # ascending order is the continuous labeling while the levels stay apart
    model = landau_zener_model(1.0)
    grid = np.linspace(-2.0, 2.0, 41)
    stack = decompose(model.drift(grid), times=grid)
    assert stack.min_gap() > 1.9  # 2*sqrt(1+t^2) >= 2
    analytic = model.analytic_spectral(grid)
    assert np.max(spectral_norm(stack.projector_stack - analytic.projector_stack)) < 1e-10
