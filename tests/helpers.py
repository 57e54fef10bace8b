"""Shared test machinery: reference pipelines and corpus generation."""

import numpy as np

from blochwave import (
    GeneratorModel,
    bloch_effective_evolution,
    build_frame,
    closed_form_wave,
    decompose,
    identity_ic,
    integrate_riccati,
    propagate,
    radon_wave,
    random_smooth_model,
    riccati_rhs,
    spectral_norm,
)
from blochwave.bloch import BLOWUP_NORM
from blochwave.dop853 import Staged
from blochwave.models import _three_level_coupling
from blochwave.propagation import _estimate_max_step, solve_matrix_ivp


class PipelineBundle:
    """One model pushed through frame -> M -> all wave-operator routes."""

    def __init__(self, model, t0, t1, n_checkpoints=101, tol=1e-10, ic=None):
        self.model = model
        self.t0 = t0
        self.t1 = t1
        self.tol = tol
        self.frame = build_frame(model, t0, t1, tol=tol)
        self.blocks = self.frame.blocks
        self.grid = np.linspace(t0, t1, n_checkpoints)
        self.m_path = propagate(self.frame, t0, self.grid, tol=tol)
        self.ic = ic if ic is not None else identity_ic(self.blocks)
        self.u_riccati = integrate_riccati(self.frame, self.ic, t0, self.grid, tol=tol)
        self.u_closed = closed_form_wave(self.m_path, self.ic, self.blocks)
        self.u_radon = radon_wave(self.m_path, self.ic, self.blocks)
        self.m_eff = bloch_effective_evolution(self.m_path, self.ic, self.blocks)

    @property
    def routes(self):
        return {
            "riccati": self.u_riccati,
            "closed_form": self.u_closed,
            "radon": self.u_radon,
        }

    def route_disagreement(self):
        paths = list(self.routes.values())
        worst = 0.0
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                n = min(len(paths[i].times), len(paths[j].times))
                worst = max(
                    worst,
                    max(
                        np.linalg.norm(a - b, 2)
                        for a, b in zip(paths[i].matrices[:n], paths[j].matrices[:n])
                    ),
                )
        return worst


def validation_defects(dec):
    """Worst-case defect of each structural invariant of a
    :class:`~blochwave.SpectralDecomposition` (over every time of a stack)."""
    p = dec.projector_stack
    upper = np.triu_indices(dec.n_blocks, 1)
    products = p[..., upper[0], :, :] @ p[..., upper[1], :, :]
    ranks = np.trace(p, axis1=-2, axis2=-1).real
    return {
        "hermiticity": float(np.max(spectral_norm(p.conj().swapaxes(-1, -2) - p))),
        "idempotency": float(np.max(spectral_norm(p @ p - p))),
        "orthogonality": float(np.max(spectral_norm(products), initial=0.0)),
        "completeness": float(np.max(spectral_norm(p.sum(axis=-3) - np.eye(dec.dim)))),
        "rank": float(np.max(np.abs(ranks - dec.multiplicities))),
    }


def reference_kato(model, t):
    """Kato's generator at one time ``t`` as the pair sum ``sum_{k != l}
    P_l B' P_k / (b_k - b_l)`` over the drift's decomposition: the oracle
    for the eigenbasis formula of :func:`~blochwave.kato_generator`.
    Returns the decomposition and the sum."""
    anchor = decompose(model.drift(t))
    bdot = model.drift_derivative(t)
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for l, (b_l, p_l) in enumerate(zip(anchor.eigenvalues, anchor.projectors)):
        for k, (b_k, p_k) in enumerate(zip(anchor.eigenvalues, anchor.projectors)):
            if k != l:
                out += p_l @ bdot @ p_k / (b_k - b_l)
    return anchor, out


def three_level_lab_frame(gamma, a, omega=1.0):
    """Lab-frame generator of the driven three-level system and the rotating
    transformation linking it to the interaction picture.

    Returns ``(generator, rotation)`` with ``generator(t)`` the skew-Hermitian
    ``-i H(t)`` for ``H(t) = diag(0, w, w(2+gamma)) + a cos(w t) K`` and
    ``rotation(t) = exp(-i t diag(0, w, 2w))``, stacked for an array of times
    like the model callables.  Used to cross-check the analytic frame
    transformation against direct numerical conjugation.
    """
    coupling = 1j * _three_level_coupling()  # Hermitian drive pattern
    h0 = np.diag([0.0, omega, omega * (2.0 + gamma)]).astype(complex)
    rot_freqs = np.array([0.0, omega, 2.0 * omega])

    def generator(t):
        return -1j * (h0 + np.asarray(a * np.cos(omega * t))[..., None, None] * coupling)

    def rotation(t):
        out = np.zeros((*np.shape(t), 3, 3), dtype=complex)
        out[..., range(3), range(3)] = np.exp(-1j * rot_freqs * np.asarray(t)[..., None])
        return out

    return generator, rotation


def constant(h):
    """The generator ``t -> h``: the one matrix at every time of an array."""
    h = np.asarray(h, dtype=complex)
    return lambda ts: np.broadcast_to(h, (len(ts), *h.shape))


def plain_riccati(hamiltonian, u0, blocks, grid, tol=1e-10, max_step=None, blowup_norm=BLOWUP_NORM):
    """The Riccati flow ``U' = H U - U Q(U)`` of a callable ``ts -> H(ts)``,
    stepped as it stands (no rotating frame) by the same DOP853 loop and
    stopped by the same norm event: the plain reference for the rotating
    solve of ``integrate_riccati``.  ``max_step`` defaults to the cap
    estimated from ``hamiltonian``.

    Returns the checkpoints reached, ``U`` there and the time the event
    fired (``None`` if it did not).
    """
    u0 = np.asarray(u0, dtype=complex)
    if max_step is None:
        max_step = _estimate_max_step(hamiltonian, grid[0], grid[-1])
    rhs = Staged(hamiltonian, lambda h, u: riccati_rhs(h, u, blocks))
    event = lambda t, y: np.linalg.norm(y) - blowup_norm
    sol = solve_matrix_ivp(rhs, u0, grid, tol, max_step=max_step, event=event)
    mats = sol.y.T.reshape(-1, *u0.shape)
    return grid[: len(mats)], mats, sol.event_time


def magnus_propagator(generator, grid, steps):
    """``F(t, grid[0])`` of ``F' = G(t) F`` at the checkpoints ``grid``, from
    the fixed-step fourth-order Magnus integrator with ``steps`` equal steps
    per checkpoint interval (Iserles & Nørsett, Phil. Trans. R. Soc. A 357,
    983 (1999); Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).

    Each step takes ``G`` at its two Gauss points, ``Omega = h/2 (A1 + A2) +
    sqrt(3)/12 h^2 [A2, A1]``, and ``exp(Omega)`` from ``eigh(i Omega)``, so
    every factor is unitary to roundoff; the factors are composed in a plain
    loop.  Shares no code with the package's DOP853 steppers: an independent
    oracle for ``M``."""
    h = (np.diff(grid) / steps).repeat(steps)
    starts = (grid[:-1, None] + np.diff(grid)[:, None] * (np.arange(steps) / steps)).ravel()
    a1, a2 = (generator(starts + (0.5 + sign * np.sqrt(3) / 6) * h) for sign in (-1, 1))
    h = h[:, None, None]
    omega = h / 2 * (a1 + a2) + np.sqrt(3) / 12 * h**2 * (a2 @ a1 - a1 @ a2)
    lam, vec = np.linalg.eigh(1j * omega)
    factors = (vec * np.exp(-1j * lam)[:, None, :]) @ vec.conj().swapaxes(-1, -2)
    x = np.eye(omega.shape[-1], dtype=complex)
    out = [x]
    for i, factor in enumerate(factors, start=1):
        x = factor @ x
        if i % steps == 0:
            out.append(x)
    return np.array(out)


def projector_bloch_defect(u, blocks):
    """``max_k ‖P_k U P_k - P_k‖`` per matrix, as plain projector products:
    the reference for the slices of ``bloch._bloch_defect``."""
    return np.max([np.linalg.norm(p @ u @ p - p, 2, axis=(-2, -1)) for p in blocks], axis=0)


def projector_leakage(m, blocks, ord_=2):
    """``‖(1 - P_k) M P_k‖`` per matrix (rows) and block (columns), as plain
    projector products: the reference for ``diagnostics._leakage_trace``."""
    eye = np.eye(m.shape[-1])
    return np.stack([np.linalg.norm((eye - p) @ m @ p, ord_, axis=(-2, -1)) for p in blocks], axis=-1)


def projector_block_project(a, blocks):
    """``sum_k P_k a P_k`` block by block, as plain projector products."""
    return sum(p @ a @ p for p in blocks)


def projector_offblock_norm(a, blocks, ord_=2):
    """The norm of ``a - sum_k P_k a P_k`` per matrix, as plain projector
    products: the reference for the mask of ``operators.offblock_norm``."""
    return np.linalg.norm(a - projector_block_project(a, blocks), ord_, axis=(-2, -1))


def crossing_model(gamma=5.0):
    """Two levels that cross at ``t = 0``: drift ``-i t Z`` under a weak
    ``X`` drive.  Ascending order swaps the blocks' eigenspaces there."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    return GeneratorModel(
        name="crossing",
        dim=2,
        gamma=gamma,
        drift=lambda t: -1j * np.asarray(t)[..., None, None] * z,
        drive=lambda t: np.broadcast_to(-0.1j * x, (*np.shape(t), 2, 2)),
        drift_derivative=lambda t: np.broadcast_to(-1j * z, (*np.shape(t), 2, 2)),
    )


def lz_projector_derivative(k, t):
    """Closed-form time derivative of the Landau-Zener eigenprojector ``k``
    (block 0 is ``(1 + (X + tZ)/sqrt(1+t²))/2``), as an oracle."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    sign = 1.0 if k == 0 else -1.0
    return sign * 0.5 * (z - t * x) / np.hypot(1.0, t) ** 3


def make_corpus(n_models, seed0=100, analytic=True):
    """Deterministic corpus of small perturbative random models
    (4 to 6 dimensions, two or three blocks)."""
    models = []
    rng = np.random.default_rng(seed0)
    for i in range(n_models):
        dim = int(rng.integers(4, 7))
        n_blocks = int(rng.integers(2, 4))
        models.append(
            random_smooth_model(
                dim,
                n_blocks,
                seed=seed0 + i,
                gamma=float(rng.uniform(8.0, 16.0)),
                drive_strength=float(rng.uniform(0.5, 1.5)),
                analytic=analytic,
            )
        )
    return models


def tabulated_lines(model, times):
    """A model's drift/drive samples as the lines of a tabulated CSV file."""
    dim = model.dim
    header = (
        ["time"]
        + [f"B_{i}{j}" for i in range(dim) for j in range(dim)]
        + [f"C_{i}{j}" for i in range(dim) for j in range(dim)]
    )
    lines = [",".join(header)]
    for t in times:
        row = [repr(float(t))]
        row += [str(complex(x)) for x in model.drift(t).ravel()]
        row += [str(complex(x)) for x in model.drive(t).ravel()]
        lines.append(",".join(row))
    return lines


def write_tabulated(path, model, times):
    """Write a model's drift/drive samples in the tabulated CSV format."""
    path.write_text("\n".join(tabulated_lines(model, times)) + "\n")
