"""Complex dense-matrix foundation.

Skew-Hermitian validation, spectral decomposition with degeneracy grouping,
label matching between two decompositions, products of stacks of small
matrices (:func:`stack_matmul`, :func:`stack_product`), and block algebra,
including the one eigenbasis of a block family in which every block
restriction is a slice (:func:`block_basis`).  Everything here is a pure
function of its inputs; the returned objects are treated as immutable.

The spectral layer is batched: :func:`decompose` takes a stack of matrices
(one per time) in one pass, a single matrix being the one-element case.

Conventions
-----------
A skew-Hermitian matrix ``A`` is diagonalized through the Hermitian matrix
``-iA``; its eigenvalues are purely imaginary, ``b_k = i * lam_k`` with
``lam_k`` real, and blocks are always listed with ``lam_k`` ascending.
Under the non-crossing assumption this ordering is the continuous labeling;
:func:`~blochwave.frame.frozen_decomposition` checks it along a frame's span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CrossingDetected, NotSkewHermitian, SingularBlock

__all__ = [
    "SpectralDecomposition",
    "spectral_norm",
    "require_skew_hermitian",
    "decompose",
    "match_labels",
    "stack_matmul",
    "stack_product",
    "block_basis",
    "block_project",
    "offblock_norm",
]

#: relative eigenvalue-gap threshold below which eigenvalues merge into
#: one degenerate block (scaled by the spectral norm of the input)
DEFAULT_GAP_FACTOR = 1e-8

#: tolerance of the skew-Hermiticity check, relative to ``max(1, ‖a‖)``
SKEW_TOL = 1e-10

#: the largest inner dimension that :func:`stack_matmul` sums as broadcast
#: products: NumPy's stacked matmul makes one BLAS call per matrix (about
#: 0.3 µs at any size), which the summed products undercut by 6x at d = 2;
#: at d = 3 they win 2x in isolation but no run was measurably faster
SUMMED_MATMUL_MAX_DIM = 2


def spectral_norm(a: np.ndarray) -> float | np.ndarray:
    """Largest singular value of ``a``; one value per matrix for a stack.

    No SVD per matrix: the norm is the square root of the top eigenvalue of
    the Gram matrix ``G = B†B`` of each matrix's shorter side, which keeps
    full relative accuracy (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., §6).  ``B`` is the matrix divided by the power of
    two that puts its largest real or imaginary part in [1/2, 1), an exact
    scaling, so that entries near 1e±160 neither overflow nor underflow, and
    a zero matrix gives 0.  A ``G`` of one entry is the squared vector norm;
    of 2×2 its top eigenvalue is ``(g00 + g11)/2 + sqrt(((g00 - g11)/2)² +
    |g01|²)``, a sum of non-negative terms, both in real arithmetic; a
    larger one takes ``eigvalsh`` of ``B†B`` formed by ``matmul``.  The
    kernel depends on the shape only and is elementwise up to one BLAS and
    one LAPACK call per matrix, so each matrix of a stack comes out bit for
    bit as alone.  A non-finite input takes ``np.linalg.norm``: its SVD
    raises ``LinAlgError`` on a NaN and never yields a finite norm.
    """
    a = np.asarray(a)
    if not np.isfinite(a).all():
        norms = np.linalg.norm(a, 2, axis=(-2, -1))
        return float(norms) if norms.ndim == 0 else norms
    if a.shape[-2] < a.shape[-1]:  # (B^T)† B^T = conj(B B†) has the eigenvalues of B B†
        a = a.swapaxes(-1, -2)
    *stack, rows, cols = a.shape
    flat = np.asarray(a, dtype=complex).reshape(-1, rows, cols)
    # the real and imaginary parts with the stack innermost: (2, rows, cols, matrices)
    parts = np.empty((2, rows, cols, len(flat)))
    parts[0], parts[1] = flat.real.transpose(1, 2, 0), flat.imag.transpose(1, 2, 0)
    largest = np.abs(parts.reshape(2 * rows * cols, -1))
    while len(largest) > 1:  # halves that overlap by one entry for an odd count
        largest = np.maximum(largest[: (len(largest) + 1) // 2], largest[len(largest) // 2 :])
    exponent = np.maximum(np.frexp(largest[0])[1], -1000)  # a scale of 2**1000 at most
    scale = np.ldexp(1.0, -exponent)
    if cols > 2:
        b = flat * scale[:, None, None]
        top = np.maximum(np.linalg.eigvalsh(b.conj().swapaxes(-1, -2) @ b)[:, -1], 0.0)
    else:  # G = B†B in real arithmetic, its terms summed over the rows in order
        x, y = parts * scale
        xl, yl, xr, yr = x[:, :, None], y[:, :, None], x[:, None], y[:, None]
        re_terms, im_terms = xl * xr + yl * yr, xl * yr - yl * xr
        re, im = re_terms[0], im_terms[0]
        for row in range(1, rows):
            re, im = re + re_terms[row], im + im_terms[row]
        top = re[0, 0]
        if cols == 2:
            mean, half = (re[0, 0] + re[1, 1]) / 2, (re[0, 0] - re[1, 1]) / 2
            top = mean + np.sqrt(half * half + re[0, 1] ** 2 + im[0, 1] ** 2)
    with np.errstate(over="ignore"):  # a norm beyond the largest float is inf, as the SVD's
        norms = np.ldexp(np.sqrt(top), exponent).reshape(stack)
    return float(norms) if norms.ndim == 0 else norms


def require_skew_hermitian(a: np.ndarray, tol: float = SKEW_TOL, what: str = "matrix", name=None):
    """Raise :class:`NotSkewHermitian`, naming the first offender, unless each
    matrix of ``a`` (one or a stack) is finite with ``‖a† + a‖_F <= tol *
    max(1, ‖a‖)``; ``name(i)`` names matrix ``i`` of a stack (by default
    ``what`` and ``i``).

    The check costs no more than its ``eigh`` of the Hermitian ``-i a``: the
    Frobenius defect bounds the spectral one, and ``‖a‖`` is read off the
    eigenvalues.  Returns ``(lam, vec, scale)``: the ascending eigenvalues,
    the eigenvectors and ``max(1, ‖a‖)``, per matrix.
    """
    a = np.asarray(a, dtype=complex)
    subject = name or (lambda i: what if a.ndim == 2 else f"{what} [{i}]")
    finite = np.isfinite(a).reshape(-1, a.shape[-1] ** 2).all(axis=1)
    if not finite.all():
        raise NotSkewHermitian(f"{subject(int(np.argmin(finite)))} contains non-finite entries")
    lam, vec = np.linalg.eigh(-1j * a)
    defect = np.linalg.norm(a.conj().swapaxes(-1, -2) + a, axis=(-2, -1))
    # the largest |lam| is ‖a‖ for a skew-Hermitian a; eigh reads one triangle
    # only, so otherwise it may exceed ‖a‖ by up to half the defect, which the
    # scale takes off to never exceed that of a spectral-norm check
    scale = np.maximum(1.0, np.maximum(-lam[..., 0], lam[..., -1]) - defect)
    bad = (defect > tol * scale).reshape(-1)
    if bad.any():
        i = int(np.argmax(bad))
        raise NotSkewHermitian(
            f"{subject(i)} is not skew-Hermitian: defect {defect.flat[i]:.3e} > "
            f"{tol:.1e} * {scale.flat[i]:.3e}"
        )
    return lam, vec, scale


@dataclass(frozen=True)
class SpectralDecomposition:
    """Grouped spectral decomposition of a skew-Hermitian matrix, or of a
    stack of them (one per time) sharing one block structure.

    ``eigenvalues[..., k]`` is the purely imaginary value ``b_k`` shared by
    block ``k`` (the mean over the grouped cluster), ``projector_stack[...,
    k, :, :]`` the Hermitian orthogonal projector onto its eigenspace, and
    ``multiplicities[k]`` its rank.  Blocks are ordered by ascending
    imaginary part.  ``projectors`` may be passed as a sequence or as the
    projector stack, and is kept as the tuple of per-block views of it.
    Indexing picks times like an array (``None`` makes a one-element stack).
    """

    eigenvalues: np.ndarray
    projectors: tuple[np.ndarray, ...]
    multiplicities: tuple[int, ...]
    projector_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stack = np.asarray(self.projectors)
        object.__setattr__(self, "projector_stack", stack)
        object.__setattr__(self, "projectors", tuple(np.moveaxis(stack, -3, 0)))

    def __getitem__(self, index) -> SpectralDecomposition:
        stack = self.projector_stack[index]
        return SpectralDecomposition(self.eigenvalues[index], stack, self.multiplicities)

    @property
    def dim(self) -> int:
        return self.projector_stack.shape[-1]

    @property
    def n_blocks(self) -> int:
        return len(self.multiplicities)

    def reconstruct(self) -> np.ndarray:
        """Sum of ``b_k P_k`` (per time for a stack)."""
        return np.einsum("...k,...kij->...ij", self.eigenvalues, self.projector_stack)

    def validation_defects(self) -> dict[str, float]:
        """Worst-case defect of each structural invariant (over every time
        of a stack)."""
        p = self.projector_stack
        upper = np.triu_indices(self.n_blocks, 1)
        products = p[..., upper[0], :, :] @ p[..., upper[1], :, :]
        ranks = np.trace(p, axis1=-2, axis2=-1).real
        return {
            "hermiticity": float(np.max(spectral_norm(p.conj().swapaxes(-1, -2) - p))),
            "idempotency": float(np.max(spectral_norm(p @ p - p))),
            "orthogonality": float(np.max(spectral_norm(products), initial=0.0)),
            "completeness": float(np.max(spectral_norm(p.sum(axis=-3) - np.eye(self.dim)))),
            "rank": float(np.max(np.abs(ranks - self.multiplicities))),
        }

    def min_gap(self) -> float:
        """Smallest distance between distinct block eigenvalues (over every
        time of a stack)."""
        gaps = np.diff(np.sort(self.eigenvalues.imag, axis=-1), axis=-1)
        return float(np.min(gaps, initial=np.inf))


def decompose(
    a: np.ndarray,
    gap_tol: float | None = None,
    hermiticity_tol: float = SKEW_TOL,
    times=None,
) -> SpectralDecomposition:
    """Spectral decomposition of a skew-Hermitian matrix with degeneracy
    grouping; of a stack ``(n, d, d)`` in one pass.

    Eigenvalues closer than ``gap_tol`` (default ``1e-8 * ‖a‖``) merge into a
    single degenerate block; each block's projector is the sum of outer
    products of its orthonormal eigenvectors, so no eigenvector phase
    convention leaks into the result.  The precondition is
    :func:`require_skew_hermitian`.  A stack takes one batched ``eigh``, one
    skew check and one clustering pass, and gives one stacked decomposition
    (eigenvalues ``(n, K)``, projector stack ``(n, K, d, d)``) whose
    multiplicities all its matrices share.  ``times``, the stack's sample
    times, name the offending matrix in errors.

    Raises:
        NotSkewHermitian: if ``a`` violates the precondition.
        CrossingDetected: if the block count or multiplicities differ
            across a stack.
    """
    a = np.asarray(a, dtype=complex)
    stack = a.reshape(-1, *a.shape[-2:])
    ts = None if times is None else np.reshape(times, -1)

    def subject(i: int) -> str:
        where = f" at t={ts[i]:g}" if ts is not None else f" [{i}]" if a.ndim == 3 else ""
        return "decompose input" + where

    lam, vec, scale = require_skew_hermitian(stack, hermiticity_tol, name=subject)
    gap = DEFAULT_GAP_FACTOR * scale if gap_tol is None else np.full(len(stack), gap_tol)

    # a new block starts wherever the ascending eigenvalues jump by more than the gap
    jumps = np.diff(lam, axis=1) > gap[:, None]
    differs = (jumps != jumps[0]).any(axis=1)
    if differs.any():
        raise CrossingDetected(
            f"block multiplicities differ between {subject(0)} and "
            f"{subject(int(np.argmax(differs)))}: a crossing within one batch"
        )
    labels = np.concatenate(([0], np.cumsum(jumps[0])))
    counts = tuple(np.bincount(labels).tolist())
    members = labels == np.arange(len(counts))[:, None]  # (block, eigenvector)
    projectors = (vec[:, None] * members[:, None, :]) @ vec.conj().swapaxes(-1, -2)[:, None]
    projectors = 0.5 * (projectors + projectors.conj().swapaxes(-1, -2))
    # one bincount over all times sums each block's eigenvalues in order
    bins = (labels + len(counts) * np.arange(len(stack))[:, None]).ravel()
    sums = np.bincount(bins, weights=lam.ravel(), minlength=len(stack) * len(counts))
    eigenvalues = 1j * (sums.reshape(-1, len(counts)) / counts)
    if a.ndim == 2:  # the one-element case, owning its projector stack
        eigenvalues, projectors = eigenvalues[0], projectors[0].copy()
    return SpectralDecomposition(eigenvalues, projectors, counts)


def match_labels(
    prev: SpectralDecomposition,
    new: SpectralDecomposition,
) -> SpectralDecomposition:
    """Permute the blocks of ``new`` to continue the labeling of ``prev``.

    The permutation greedily maximizes the overlap ``tr(P_k_prev P_l_new)``;
    for the small block counts targeted here greedy coincides with the
    optimal assignment.

    Raises:
        CrossingDetected: if block counts/multiplicities are incompatible or
            the best overlap for some block falls below ``multiplicity / 2``.
    """
    if prev.dim != new.dim:
        raise ValueError("dimension mismatch between decompositions")
    if prev.n_blocks != new.n_blocks:
        raise CrossingDetected(
            f"block count changed ({prev.n_blocks} -> {new.n_blocks}); "
            "grid too coarse near a (avoided) crossing"
        )

    n = prev.n_blocks
    overlap = np.einsum("kij,lji->kl", prev.projector_stack, new.projector_stack).real

    perm = [-1] * n
    work = overlap.copy()
    for _ in range(n):
        k, l = np.unravel_index(np.argmax(work), work.shape)
        perm[k] = l
        work[k, :] = -np.inf
        work[:, l] = -np.inf

    for k in range(n):
        l = perm[k]
        if prev.multiplicities[k] != new.multiplicities[l]:
            raise CrossingDetected(
                f"multiplicity of block {k} changed "
                f"({prev.multiplicities[k]} -> {new.multiplicities[l]})"
            )
        if overlap[k, l] < prev.multiplicities[k] / 2:
            raise CrossingDetected(
                f"overlap {overlap[k, l]:.3f} of block {k} below "
                f"{prev.multiplicities[k] / 2}; time step straddles a crossing"
            )

    return SpectralDecomposition(
        eigenvalues=new.eigenvalues[perm],
        projectors=new.projector_stack[perm],
        multiplicities=tuple(new.multiplicities[l] for l in perm),
    )


def stack_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` matrix by matrix, for stacks broadcast as ``np.matmul`` does.

    For an inner dimension from 2 to :data:`SUMMED_MATMUL_MAX_DIM` a stack's
    product is the sum of the broadcast products ``a[..., :, j:j+1] *
    b[..., j:j+1, :]`` in the order of ``j``, into a C-ordered result: an
    elementwise kernel, so each matrix comes out bit for bit as in a
    one-matrix stack.  Other dimensions take ``np.matmul``, whose BLAS call
    rounds differently.  The choice depends on the dimension only, so a
    stack of one matrix takes the same kernel as a stack of many.
    """
    dim = a.shape[-1]
    # 1 x 1 products would be one loop along the stack, whose kernel NumPy
    # picks by the loop's length and strides, and so its rounding
    if not 2 <= dim <= SUMMED_MATMUL_MAX_DIM:
        return np.matmul(a, b)
    total = np.multiply(a[..., :, :1], b[..., :1, :], order="C")
    for j in range(1, dim):
        total += a[..., :, j : j + 1] * b[..., j : j + 1, :]
    return total


def stack_product(x: np.ndarray, right: np.ndarray, left: np.ndarray | None = None) -> np.ndarray:
    """``left @ x @ right`` (``x @ right`` without ``left``) for a matrix or a
    stack of them, as one GEMM per constant factor over the flattened stack's
    rows, the left one as ``(x^T left^T)^T``.  A GEMM row depends on its own
    input row only: each matrix of a stack comes out bit for bit as alone."""
    d = x.shape[-1]
    if left is not None:
        x = (x.swapaxes(-1, -2).reshape(-1, d) @ left.T).reshape(x.shape).swapaxes(-1, -2)
    return (x.reshape(-1, d) @ right).reshape(x.shape)


def block_basis(blocks):
    """An orthonormal eigenbasis ``V`` of a complete family of orthogonal
    projectors ``P_k`` (a sequence or a stack); an empty one raises
    :class:`~blochwave.errors.SingularBlock`.

    Returns ``(labels, into, out_of)``: ``labels[i]`` is the block of column
    ``i`` of ``V``, ``into(x) = V† x V`` and ``out_of(x) = V x V†`` (per
    matrix for a stack: two flat GEMMs, :func:`stack_product`).  There ``P_k``
    is the mask of the indices ``labels == k``, and ``P_k X P_k`` the slice of
    ``into(X)`` on them.  Coordinate projectors give ``V = 1``: ``into`` and
    ``out_of`` return their argument.
    """
    proj = np.asarray(blocks, dtype=complex)
    if not np.any(proj * ~np.eye(proj.shape[-1], dtype=bool)):  # V = 1
        labels = np.argmax(np.einsum("kii->ki", proj).real, axis=0)
        into = out_of = lambda x: x
    else:
        # sum_k k P_k has the eigenvalue k on block k, so its eigh labels columns
        weights, basis = np.linalg.eigh(np.tensordot(np.arange(len(proj)), proj, axes=1))
        basis_h = basis.conj().T
        labels = np.rint(weights).astype(int)
        into = lambda x: stack_product(x, basis, basis_h)
        out_of = lambda x: stack_product(x, basis_h, basis)
    if np.any(np.bincount(labels, minlength=len(proj)) == 0):
        raise SingularBlock("projector has empty range")
    return labels, into, out_of


def block_project(a: np.ndarray, blocks) -> np.ndarray:
    """Project onto the block-diagonal part, ``sum_k P_k a P_k`` (per matrix
    for a stack), as one broadcast product over the stacked projectors."""
    proj = np.asarray(blocks, dtype=complex)
    terms = proj @ np.asarray(a, dtype=complex)[..., None, :, :] @ proj
    # summed in block order, as a loop from zeros would; + 0.0 turns -0.0 into 0.0 as it does
    return terms.sum(axis=-3) + 0.0


def offblock_norm(a: np.ndarray, basis) -> float | np.ndarray:
    """Spectral norm of the part of ``a`` outside the block diagonal of a
    complete family (per matrix for a stack): the off-block mask of
    ``into(a)`` in the family's eigenbasis ``basis`` (:func:`block_basis`)."""
    labels, into, _ = basis
    return spectral_norm(into(np.asarray(a, dtype=complex)) * (labels[:, None] != labels))
