"""Matrix-ODE propagator: closed forms, unitarity monitoring, convergence."""

import numpy as np
import pytest

from blochwave import (
    NotSkewHermitian,
    PropagatorPath,
    landau_zener_model,
    lz_asymptotic_amplitude,
    build_frame,
    propagate,
    spectral_norm,
    unitarity_defect,
)

Z = np.array([[1, 0], [0, -1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_constant_generator_closed_form():
    grid = np.linspace(0.0, np.pi, 9)
    path = propagate(lambda t: -1j * Z, 0.0, grid, tol=1e-12)
    assert np.allclose(path.final, -np.eye(2), atol=1e-10)
    assert np.array_equal(path.matrices[0], np.eye(2))  # exactly identity at t0


def test_commuting_family_exact_integral():
    # G(t) = -i t Z integrates to exp(-i t^2/2 Z)
    grid = np.linspace(0.0, 2.0, 21)
    path = propagate(lambda t: -1j * t * Z, 0.0, grid, tol=1e-12)
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
    assert unitarity_defect(path) == 0.0


def test_unitarity_defect_scaled_checkpoint():
    grid = np.linspace(0.0, 1.0, 3)
    mats = np.stack([np.eye(2, dtype=complex)] * 3)
    mats[1] *= 1.01
    defects = np.array([spectral_norm(m.conj().T @ m - np.eye(2)) for m in mats])
    path = PropagatorPath(0.0, grid, mats, defects, tol=1e-10)
    assert abs(unitarity_defect(path) - 0.0201) < 1e-12


def test_lz_defect_small_at_tight_tolerance():
    model = landau_zener_model(2.0)
    frame = build_frame(model, -20.0, 20.0, tol=1e-10)
    grid = np.linspace(-20.0, 20.0, 81)
    path = propagate(frame.hamiltonian_at, -20.0, grid, tol=1e-10)
    assert unitarity_defect(path) <= 1e-7


def test_defect_converges_with_tolerance():
    model = landau_zener_model(2.0)
    frame = build_frame(model, -5.0, 5.0, tol=1e-11)
    grid = np.linspace(-5.0, 5.0, 21)
    defects = [
        unitarity_defect(propagate(frame.hamiltonian_at, -5.0, grid, tol=tol))
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
        propagate(lambda t: X, 0.0, np.linspace(0.0, 1.0, 5), tol=1e-10)


def test_rejects_bad_grid():
    gen = lambda t: -1j * Z
    with pytest.raises(ValueError):
        propagate(gen, 0.0, np.array([0.0, 0.5, 0.5, 1.0]), tol=1e-10)
    with pytest.raises(ValueError):
        propagate(gen, 0.5, np.array([0.0, 1.0]), tol=1e-10)


def test_dense_output_interpolates():
    model = landau_zener_model(1.0)
    grid = np.linspace(0.0, 2.0, 5)
    path = propagate(model.full_generator, 0.0, grid, tol=1e-11, dense=True)
    fine = propagate(model.full_generator, 0.0, np.linspace(0.0, 2.0, 33), tol=1e-12)
    t_probe = fine.times[17]
    assert spectral_norm(path.at(t_probe) - fine.at(t_probe)) < 1e-8
