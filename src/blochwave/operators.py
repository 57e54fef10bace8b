"""Complex dense-matrix foundation.

Skew-Hermitian validation, spectral decomposition with degeneracy grouping,
smooth eigenprojector tracking across time, block algebra, and block
pseudo-inverses.  Everything here is a pure function of its inputs; the
returned objects are treated as immutable.

Conventions
-----------
A skew-Hermitian matrix ``A`` is diagonalized through the Hermitian matrix
``-iA``; its eigenvalues are purely imaginary, ``b_k = i * lam_k`` with
``lam_k`` real, and blocks are always listed with ``lam_k`` ascending.
Under the non-crossing assumption this ordering is the continuous labeling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CrossingDetected, NotSkewHermitian, SingularBlock

__all__ = [
    "SpectralDecomposition",
    "SpectralPath",
    "spectral_norm",
    "require_skew_hermitian",
    "skew_defect",
    "decompose",
    "match_labels",
    "track_spectral_path",
    "block_pseudo_inverse",
    "block_project",
    "offblock_norm",
]

#: relative eigenvalue-gap threshold below which eigenvalues merge into
#: one degenerate block (scaled by the spectral norm of the input)
DEFAULT_GAP_FACTOR = 1e-8


def spectral_norm(a: np.ndarray) -> float | np.ndarray:
    """Largest singular value of ``a``; one value per matrix for a stack."""
    norms = np.linalg.norm(a, 2, axis=(-2, -1))
    return float(norms) if norms.ndim == 0 else norms


def skew_defect(a: np.ndarray) -> float:
    """Spectral norm of ``a† + a`` (zero for skew-Hermitian input)."""
    return spectral_norm(a.conj().T + a)


def require_skew_hermitian(a: np.ndarray, tol: float = 1e-10, what: str = "matrix") -> float:
    """Raise :class:`NotSkewHermitian` if ``‖a† + a‖`` exceeds ``tol * max(1, ‖a‖)``.

    Returns ``‖a‖``, which the check computes for its scale anyway.
    """
    if not np.all(np.isfinite(a)):
        raise NotSkewHermitian(f"{what} contains non-finite entries")
    defect = skew_defect(a)
    norm = spectral_norm(a)
    scale = max(1.0, norm)
    if defect > tol * scale:
        raise NotSkewHermitian(
            f"{what} is not skew-Hermitian: defect {defect:.3e} > {tol:.1e} * {scale:.3e}"
        )
    return norm


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class SpectralDecomposition:
    """Grouped spectral decomposition of a skew-Hermitian matrix.

    ``eigenvalues[k]`` is the purely imaginary value ``b_k`` shared by block
    ``k`` (the mean over the grouped cluster), ``projectors[k]`` the Hermitian
    orthogonal projector onto its eigenspace, and ``multiplicities[k]`` its
    rank.  Blocks are ordered by ascending imaginary part.

    ``projectors`` may be passed as a sequence or as one ``(n_blocks, dim,
    dim)`` array; ``projector_stack`` is that array, and ``projectors`` its
    tuple of per-block views.
    """

    eigenvalues: np.ndarray
    projectors: tuple[np.ndarray, ...]
    multiplicities: tuple[int, ...]
    projector_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stack = np.asarray(self.projectors)
        object.__setattr__(self, "projector_stack", stack)
        object.__setattr__(self, "projectors", tuple(stack))

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def n_blocks(self) -> int:
        return len(self.projectors)

    def reconstruct(self) -> np.ndarray:
        """Sum of ``b_k P_k``."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for b, p in zip(self.eigenvalues, self.projectors):
            out += b * p
        return out

    def validation_defects(self) -> dict[str, float]:
        """Worst-case defect of each structural invariant."""
        herm = max(spectral_norm(p.conj().T - p) for p in self.projectors)
        idem = max(spectral_norm(p @ p - p) for p in self.projectors)
        orth = 0.0
        for k in range(self.n_blocks):
            for l in range(k + 1, self.n_blocks):
                orth = max(orth, spectral_norm(self.projectors[k] @ self.projectors[l]))
        comp = spectral_norm(sum(self.projectors) - np.eye(self.dim))
        rank = max(
            abs(np.trace(p).real - m)
            for p, m in zip(self.projectors, self.multiplicities)
        )
        return {
            "hermiticity": herm,
            "idempotency": idem,
            "orthogonality": orth,
            "completeness": comp,
            "rank": rank,
        }

    def min_gap(self) -> float:
        """Smallest distance between distinct block eigenvalues."""
        if self.n_blocks < 2:
            return np.inf
        lam = self.eigenvalues.imag
        return float(np.min(np.diff(np.sort(lam))))


@dataclass
class SpectralPath:
    """Smoothly labeled spectral decompositions on a strictly increasing grid."""

    grid: np.ndarray
    decompositions: list[SpectralDecomposition] = field(default_factory=list)

    def min_gap(self) -> float:
        return min(d.min_gap() for d in self.decompositions)


def decompose(
    a: np.ndarray,
    gap_tol: float | None = None,
    hermiticity_tol: float = 1e-10,
) -> SpectralDecomposition:
    """Spectral decomposition of a skew-Hermitian matrix with degeneracy grouping.

    Eigenvalues closer than ``gap_tol`` (default ``1e-8 * ‖a‖``) merge into a
    single degenerate block; each block's projector is the sum of outer
    products of its orthonormal eigenvectors, so no eigenvector phase
    convention leaks into the result.  The precondition costs no more than
    the one ``eigh``: the skew defect is taken in the Frobenius norm, an upper
    bound of the spectral one, and ``‖a‖`` is read off the eigenvalues.

    Raises:
        NotSkewHermitian: if ``a`` violates the precondition.
    """
    a = _as_square(a)
    if not np.isfinite(a).all():
        raise NotSkewHermitian("decompose input contains non-finite entries")
    lam, vec = np.linalg.eigh(-1j * a)
    defect = np.linalg.norm(a.conj().T + a)
    # the largest |lam| is ‖a‖ for a skew-Hermitian a; eigh reads one triangle
    # only, so otherwise it may exceed ‖a‖ by up to half the defect, which the
    # scale takes off to never exceed that of a spectral-norm check
    scale = max(1.0, max(-lam[0], lam[-1]) - defect)
    if defect > hermiticity_tol * scale:
        raise NotSkewHermitian(
            f"decompose input is not skew-Hermitian: defect {defect:.3e} > "
            f"{hermiticity_tol:.1e} * {scale:.3e}"
        )
    if gap_tol is None:
        gap_tol = DEFAULT_GAP_FACTOR * scale

    # a new block starts wherever the ascending eigenvalues jump by more than gap_tol
    labels = np.concatenate(([0], np.cumsum(np.diff(lam) > gap_tol)))
    counts = np.bincount(labels)
    members = labels == np.arange(len(counts))[:, None]  # (block, eigenvector)
    projectors = (vec * members[:, None, :]) @ vec.conj().T
    projectors = 0.5 * (projectors + projectors.conj().swapaxes(-1, -2))
    return SpectralDecomposition(
        eigenvalues=1j * (np.bincount(labels, weights=lam) / counts),
        projectors=projectors,
        multiplicities=tuple(counts.tolist()),
    )


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


def track_spectral_path(
    drift,
    grid: np.ndarray,
    gap_tol: float | None = None,
    overlap_slack: float = 0.5,
) -> SpectralPath:
    """Decompose ``drift(t)`` along ``grid`` with sequentially matched labels.

    Validates the path invariants: adjacent overlaps must stay above
    ``multiplicity - overlap_slack`` and the eigenvalue gap must stay positive.

    Args:
        drift: callable ``t -> skew-Hermitian matrix``.
        grid: strictly increasing sample times.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be one-dimensional and strictly increasing")

    decs = [decompose(drift(grid[0]), gap_tol)]
    for t in grid[1:]:
        nxt = match_labels(decs[-1], decompose(drift(t), gap_tol))
        for k, p in enumerate(decs[-1].projectors):
            ov = np.trace(p @ nxt.projectors[k]).real
            if ov < decs[-1].multiplicities[k] - overlap_slack:
                raise CrossingDetected(
                    f"label consistency lost at t={t:g} for block {k}: "
                    f"overlap {ov:.3f} < {decs[-1].multiplicities[k] - overlap_slack}"
                )
        decs.append(nxt)
    return SpectralPath(grid=grid, decompositions=decs)


def _range_basis(p: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the range of a Hermitian projector."""
    w, v = np.linalg.eigh(p)
    cols = v[:, w > 0.5]
    if cols.shape[1] == 0:
        raise SingularBlock("projector has empty range")
    return cols


def block_pseudo_inverse(
    a: np.ndarray,
    projector: np.ndarray,
    sv_tol: float = 1e-12,
) -> np.ndarray:
    """Inverse of ``P a P`` on the range of ``P``, zero elsewhere.

    The result ``X`` satisfies ``X (P a P) = (P a P) X = P`` and
    ``X = P X P``.

    Raises:
        SingularBlock: if the smallest singular value of ``P a P`` restricted
            to the range of ``P`` is below ``sv_tol`` (the blow-up condition of
            the block-diagonal effective evolution).
    """
    a = _as_square(a)
    q = _range_basis(np.asarray(projector, dtype=complex))
    restricted = q.conj().T @ a @ q
    smin = np.linalg.svd(restricted, compute_uv=False)[-1]
    if smin < sv_tol:
        raise SingularBlock(
            f"block restriction singular: min singular value {smin:.3e} < {sv_tol:.1e}"
        )
    return q @ np.linalg.inv(restricted) @ q.conj().T


def block_project(a: np.ndarray, blocks) -> np.ndarray:
    """Project onto the block-diagonal part, ``sum_k P_k a P_k`` (per matrix
    for a stack)."""
    a = np.asarray(a, dtype=complex)
    out = np.zeros_like(a)
    for p in blocks:
        out += p @ a @ p
    return out


def offblock_norm(a: np.ndarray, blocks) -> float | np.ndarray:
    """Spectral norm of the part of ``a`` outside the block diagonal (per
    matrix for a stack)."""
    return spectral_norm(np.asarray(a, dtype=complex) - block_project(a, blocks))
