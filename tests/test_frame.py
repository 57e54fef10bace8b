"""Adiabatic frame: transporter, frame generators, intertwining and
factorization consistency."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blochwave.frame
import blochwave.models
import blochwave.operators
from blochwave import (
    ConfigError,
    CrossingDetected,
    GeneratorModel,
    SpectralDecomposition,
    build_frame,
    factorization_defect,
    frozen_decomposition,
    intertwining_defect,
    kato_generator,
    landau_zener_model,
    random_smooth_model,
    spectral_norm,
    three_level_model,
    transporter,
)
from blochwave.dop853 import MAX_NODES
from blochwave.models import load_tabulated_model

from tests.helpers import crossing_model, reference_kato, write_tabulated

Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def strip_analytic(model):
    return dataclasses.replace(
        model,
        analytic_spectral=None,
        analytic_kato=None,
        analytic_transporter=None,
    )


# ------------------------------------------------------------ kato generator

def test_kato_zero_for_static_model():
    model = three_level_model(10.0, 1.0)
    assert spectral_norm(kato_generator(model, np.array([2.0]))) == 0.0


def test_kato_lz_closed_form_from_derivatives():
    # force the generic reduced-resolvent formula (no analytic_kato shortcut)
    model = dataclasses.replace(landau_zener_model(1.0), analytic_kato=None)
    for t in (-3.0, 0.0, 1.0, 2.5):
        expected = 1j * Y / (2.0 * (1.0 + t * t))
        assert spectral_norm(kato_generator(model, np.array([t]))[0] - expected) < 1e-13


def test_kato_lz_numeric_route():
    model = strip_analytic(landau_zener_model(1.0))
    for t in (-1.0, 0.4):
        expected = 1j * Y / (2.0 * (1.0 + t * t))
        assert spectral_norm(kato_generator(model, np.array([t]))[0] - expected) < 1e-12


def test_kato_skew_hermitian_random_model():
    model = random_smooth_model(4, 2, seed=6)
    for a in kato_generator(model, np.array([0.0, 1.3, 2.9])):
        assert spectral_norm(a + a.conj().T) < 1e-10


@settings(max_examples=20, deadline=None)
@given(
    dim=st.integers(2, 6),
    block_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
    analytic=st.booleans(),
    t=st.floats(0.0, 10.0),
)
def test_kato_generator_properties_random_models(dim, block_fraction, seed, analytic, t):
    n_blocks = 1 + int(block_fraction * (dim - 1))
    model = random_smooth_model(dim, n_blocks, seed=seed, analytic=analytic)
    twin = random_smooth_model(dim, n_blocks, seed=seed)  # analytic projectors
    a = kato_generator(model, np.array([t]))[0]
    assert spectral_norm(a + a.conj().T) < 1e-13
    h = 1e-5
    below, at, above = (twin.spectral_at(s).projectors for s in (t - h, t, t + h))
    for p_below, p, p_above in zip(below, at, above):
        assert spectral_norm(p @ a @ p) < 1e-12
        pdot = (p_above - p_below) / (2.0 * h)
        assert spectral_norm(a @ p - p @ a - pdot) < 1e-8


# ----------------------------------- one drift decomposition per time point

def numeric_frame(dim=4, n_blocks=3):
    model = random_smooth_model(dim, n_blocks, seed=8, analytic=False)
    return model, build_frame(model, 0.0, 2.0, tol=1e-8, checkpoints=9)


@pytest.mark.parametrize(
    "make",
    [numeric_frame, lambda: (None, build_frame(landau_zener_model(2.0), -5.0, 5.0))],
    ids=["numeric", "landau_zener"],
)
def test_frame_basis_diagonalizes_the_frozen_drift(make):
    # in the frame's one eigenbasis the frozen drift is diag(rates[labels])
    _, frame = make()
    labels, into, out_of = frame.basis
    ts = np.linspace(frame.t0, frame.t1, 7)
    rates, drive = frame.split_at(ts)
    hamiltonians = frame.hamiltonian_at(ts)
    drift = into(hamiltonians - drive)
    assert np.max(np.abs(drift - rates[:, labels][:, :, None] * np.eye(frame.model.dim))) < 1e-12
    assert np.max(spectral_norm(out_of(into(hamiltonians)) - hamiltonians)) < 1e-12
    assert np.bincount(labels).tolist() == list(frame.frozen.multiplicities)


#: the eigenbasis Kato term against the pair sum, in units of ‖B'‖ / min gap
#: (both are that exact up to a few roundoffs; 1.3 eps was the largest seen)
KATO_ROUNDOFF = 1e-14


def kato_scale(model, anchor, t):
    """``‖B'(t)‖ / min gap``, the size of Kato's generator at ``t``."""
    return spectral_norm(model.drift_derivative(t)) / anchor.min_gap()


def test_shared_anchor_is_bit_identical_to_per_block_reference():
    # the eigenbasis formula agrees with the pair sum, and the frame
    # Hamiltonian with the one built from the pair sum, to roundoff
    for dim, n_blocks in [(4, 3), (6, 4)]:
        model, frame = numeric_frame(dim, n_blocks)
        proj_stack = np.stack(frame.blocks)
        for t in (0.3, 1.1, 1.7):
            anchor, kato = reference_kato(model, t)
            scale = kato_scale(model, anchor, t)
            assert spectral_norm(kato_generator(model, np.array([t]))[0] - kato) <= KATO_ROUNDOFF * scale
            w = frame.w_path.at(t)
            expected = np.einsum(
                "k,kij->ij", model.gamma * anchor.eigenvalues, proj_stack
            ) + w.conj().T @ (model.drive(t) - kato) @ w
            gap = spectral_norm(frame.hamiltonian_at(np.array([t]))[0] - expected)
            assert gap <= KATO_ROUNDOFF * (scale + spectral_norm(expected))


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(2, 6),
    block_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
    t=st.floats(0.0, 10.0),
)
def test_eigenbasis_kato_term_is_the_pair_sum(dim, block_fraction, seed, t):
    # degenerate blocks included: random_smooth spreads dim over n_blocks
    n_blocks = 1 + int(block_fraction * (dim - 1))
    model = random_smooth_model(dim, n_blocks, seed=seed, analytic=False)
    anchor, pairs = reference_kato(model, t)
    kato = kato_generator(model, np.array([t]))[0]
    if n_blocks == 1:  # no pair: every weight is zero, and so is the sum
        assert not kato.any()
    else:
        assert spectral_norm(kato - pairs) <= KATO_ROUNDOFF * kato_scale(model, anchor, t)


def test_kato_term_is_the_same_in_any_eigenbasis_of_a_degenerate_block():
    # a decomposition given its projectors alone takes its eigenvectors from
    # sum_k k P_k: another basis of each degenerate block than the drift's eigh
    model = random_smooth_model(5, 2, seed=4, analytic=False)
    ts = np.array([0.3, 1.7])
    anchor = model.spectral_at(ts)
    assert max(anchor.multiplicities) > 1
    rebuilt = SpectralDecomposition(anchor.eigenvalues, anchor.projector_stack, anchor.multiplicities)
    q = rebuilt.eigenvectors
    assert np.max(spectral_norm(q.conj().swapaxes(-1, -2) @ q - np.eye(5))) < 1e-14
    for k in range(rebuilt.n_blocks):
        columns = q[:, :, rebuilt.labels == k]
        assert np.max(np.abs(rebuilt.projector_stack[:, k] @ columns - columns)) < 1e-14
    scale = max(kato_scale(model, anchor[i], t) for i, t in enumerate(ts))
    gap = spectral_norm(kato_generator(model, ts, rebuilt) - kato_generator(model, ts, anchor))
    assert np.max(gap) <= KATO_ROUNDOFF * scale
    with pytest.raises(ValueError, match="needs its projectors or its eigenvectors"):
        SpectralDecomposition(anchor.eigenvalues, None, anchor.multiplicities)


def test_numeric_frame_evaluation_decomposes_once(monkeypatch):
    model, frame = numeric_frame()
    calls, batches = [], []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            batches.append(np.shape(args[0])[:-2])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(blochwave.models, "decompose")
    counted(blochwave.operators, "match_labels")
    counted(blochwave.frame, "match_labels")
    frame.hamiltonian_at(np.array([0.9]))
    assert calls == ["decompose"]  # at t only, and no label matching
    calls.clear()
    kato_generator(model, np.array([0.9]))
    assert calls == ["decompose"]
    # a batch of n times is one decomposition of the n drifts, stacked
    ts = np.linspace(0.1, 1.9, 12)
    for evaluate in (frame.hamiltonian_at, frame.split_at, lambda t: kato_generator(model, t)):
        calls.clear(), batches.clear()
        evaluate(ts)
        assert calls == ["decompose"] and batches == [(12,)]
    calls.clear()
    analytic = random_smooth_model(4, 3, seed=8)
    build_frame(analytic, 0.0, 2.0, tol=1e-8, checkpoints=9).hamiltonian_at(np.array([0.9]))
    assert calls == []


def test_numeric_frame_call_memory_holds_no_projector_stack(tmp_path):
    # propagate asks for up to 600 node times at once: each (600, 6, 6)
    # complex stack is 0.35 MB, and the spline's values of drift, drive and
    # derivative 1.04 MB.  With a projector stack per call and the Kato term
    # summed pair by pair the two calls below peaked at 3.68 and 3.64 MB;
    # from the eigenvectors they take 2.86 and 2.65 MB
    import tracemalloc

    table = tmp_path / "model.csv"
    write_tabulated(table, random_smooth_model(6, 2, seed=3), np.linspace(-0.5, 1.5, 81))
    model = load_tabulated_model(table, gamma=16.0)
    frame = build_frame(model, 0.0, 1.0, tol=1e-8)
    rng = np.random.default_rng(0)
    for call in (frame.rotated_at, lambda t: kato_generator(model, t)):
        call(rng.uniform(0.0, 1.0, 600))
        ts = rng.uniform(0.0, 1.0, 600)  # new times: the spline is evaluated in the call
        tracemalloc.start()
        try:
            call(ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.2e6


@pytest.mark.parametrize("analytic", [True, False])
def test_integrated_transporter_asks_for_the_kato_generator_once_per_chunk(monkeypatch, analytic):
    model = random_smooth_model(4, 3, seed=8, analytic=analytic)
    sizes = []
    kato = blochwave.frame.kato_generator

    def counted(model, t, *anchor):
        sizes.append(np.size(t))
        return kato(model, t, *anchor)

    monkeypatch.setattr(blochwave.frame, "kato_generator", counted)
    w = transporter(model, 0.0, 2.0, tol=1e-8)
    attempts = w.stats["n_accepted"] + w.stats["n_rejected"]
    # the skew check's 7 times and the step cap's 95 in one call each; then,
    # for each chunk of a round's segments, one call of their 12 stage times
    # each and one of 3 per accepted segment's step polynomial (all are kept)
    assert sizes[:2] == [7, 95]
    calls = sizes[2:]
    assert max(calls) <= MAX_NODES
    assert sum(calls) == w.stats["nfev"] == 12 * attempts + 3 * w.stats["n_accepted"]
    assert 10 * len(calls) <= attempts


def test_static_drift_hamiltonian_is_bit_identical_to_its_parts():
    model = three_level_model(10.0, 1.0)
    frame = build_frame(model, 0.0, 5.0)
    ts = np.array([0.0, 0.7, 3.3])
    for t, h in zip(ts, frame.hamiltonian_at(ts)):
        drift = np.einsum("k,kij->ij", model.spectral_at(t).eigenvalues, frame.frozen.projector_stack)
        assert np.array_equal(h, model.gamma * drift + model.drive(t))


def test_batch_straddling_a_block_merge_raises_crossing_detected():
    # the drift -i(1e-9 X + t Z) has one degenerate block within about 5e-9
    # of t = 0 and two elsewhere: a batch cannot share its multiplicities
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    model = GeneratorModel(
        name="merging",
        dim=2,
        gamma=1.0,
        drift=lambda t: -1j * (1e-9 * x + np.asarray(t)[..., None, None] * z),
        drive=lambda t: np.zeros((*np.shape(t), 2, 2), dtype=complex),
        drift_derivative=lambda t: np.broadcast_to(-1j * z, (*np.shape(t), 2, 2)),
    )
    with pytest.raises(CrossingDetected, match=r"t=0(?![.\d])"):
        kato_generator(model, np.array([-0.01, 0.0, 0.01]))
    with pytest.raises(CrossingDetected, match=r"t=0(?![.\d])"):
        model.spectral_at(np.array([-0.01, 0.0, 0.01]))
    assert kato_generator(model, np.array([-0.01, 0.01])).shape == (2, 2, 2)


def test_build_frame_refuses_levels_that_cross_between_checkpoints(monkeypatch):
    # -i t Z crosses at t = 0, which is no checkpoint of [-1, 1.1]: ascending
    # order would hand block 0 the rate -2.5i at t = 0.5, where its level
    # (the one it had at t0) has +2.5i.  The crossing is refused, naming the
    # checkpoints around it, before any transporter is integrated.
    model = crossing_model()
    assert not np.any(np.isclose(np.linspace(-1.0, 1.1, 65), 0.0))
    integrated = []
    monkeypatch.setattr(blochwave.frame, "transporter", lambda *a, **k: integrated.append(a))
    with pytest.raises(CrossingDetected, match=r"t=-0\.015625 and t=0\.0171875"):
        build_frame(model, -1.0, 1.1)
    assert integrated == []
    # on one side of the crossing the same model builds
    frozen = frozen_decomposition(model, -1.0, -0.1)
    assert frozen.multiplicities == (1, 1)


def test_frozen_decomposition_checks_numeric_models_only():
    # analytic spectral data is the model's own labeling, taken at t0
    model = landau_zener_model(1.0)
    assert np.array_equal(
        frozen_decomposition(model, -2.0, 2.0).projector_stack,
        model.spectral_at(-2.0).projector_stack,
    )
    numeric = strip_analytic(model)
    frozen = frozen_decomposition(numeric, -2.0, 2.0)
    assert np.array_equal(
        frozen.projector_stack,
        numeric.spectral_at(np.linspace(-2.0, 2.0, 65)).projector_stack[0],
    )


# -------------------------------------------------------------- transporter

def test_transporter_static_model_is_identity():
    model = three_level_model(8.0, 0.7)
    w = transporter(model, 0.0, 10.0)
    for m in w.matrices:
        assert np.array_equal(m, np.eye(3, dtype=complex))
    assert w.max_unitarity_defect() == 0.0


def numeric_transporter_model(model):
    """``model`` without its closed-form transporter, so ``W`` is integrated."""
    return dataclasses.replace(model, analytic_transporter=None)


def test_transporter_lz_matches_closed_form():
    model = landau_zener_model(2.0)
    w = transporter(numeric_transporter_model(model), -20.0, 20.0, tol=1e-10)
    closed = model.analytic_transporter(-20.0, 20.0)
    assert spectral_norm(w.final - closed) <= 1e-8
    assert w.max_unitarity_defect() <= 1e-8


def test_transporter_lz_wide_window_near_asymptote():
    model = landau_zener_model(1.0)
    w = transporter(numeric_transporter_model(model), -50.0, 50.0, tol=1e-10)
    closed = model.analytic_transporter(-50.0, 50.0)
    assert spectral_norm(w.final - closed) <= 1e-3


def test_transporter_uses_closed_form_when_present(monkeypatch):
    import blochwave.frame

    def no_integration(*args, **kwargs):
        raise AssertionError("closed-form transporter must not be integrated")

    monkeypatch.setattr(blochwave.frame, "propagate", no_integration)
    model = landau_zener_model(2.0)
    w = transporter(model, -20.0, 20.0, checkpoints=9)
    for t, m in zip(w.times, w.matrices):
        assert np.array_equal(m, model.analytic_transporter(-20.0, t))
    assert np.array_equal(w.matrices[0], np.eye(2))
    assert np.array_equal(w.at(3.7), model.analytic_transporter(-20.0, 3.7))
    assert w.max_unitarity_defect() < 1e-15


# ---------------------------------------------------------- frame generators

def test_frame_generators_at_initial_time():
    model = landau_zener_model(2.0)
    frame = build_frame(model, -5.0, 5.0)
    t0 = np.array([-5.0])
    rates, c = frame.split_at(t0)
    b = np.einsum("tk,kij->tij", rates / model.gamma, frame.frozen.projector_stack)
    a0 = kato_generator(model, t0)
    assert spectral_norm(b - model.drift(t0)) < 1e-12
    assert spectral_norm(c - (model.drive(t0) - a0)) < 1e-10


def test_frame_drive_lz_closed_form():
    model = landau_zener_model(2.0)
    frame = build_frame(model, -10.0, 10.0, tol=1e-11)
    ts = np.array([-10.0, -2.0, 0.0, 3.7, 10.0])
    for t, drive in zip(ts, frame.split_at(ts)[1]):
        expected = -1j * Y / (2.0 * (1.0 + t * t))
        assert spectral_norm(drive - expected) < 1e-8


def test_frame_drift_commutes_with_frozen_blocks():
    model = random_smooth_model(5, 3, seed=14)
    frame = build_frame(model, 0.0, 4.0)
    ts = np.array([0.0, 1.1, 2.6, 4.0])
    for b in (frame.hamiltonian_at(ts) - frame.split_at(ts)[1]) / model.gamma:
        for p in frame.blocks:
            assert spectral_norm(b @ p - p @ b) < 1e-10


def test_frame_hamiltonian_skew_hermitian():
    model = random_smooth_model(4, 2, seed=15)
    frame = build_frame(model, 0.0, 3.0)
    for h in frame.hamiltonian_at(np.array([0.2, 1.5, 2.9])):
        assert spectral_norm(h + h.conj().T) < 1e-10


# ----------------------------------------------------- consistency defects

def test_intertwining_defect_lz():
    model = landau_zener_model(2.0)
    frame = build_frame(model, -20.0, 20.0, tol=1e-10)
    assert intertwining_defect(frame) <= 1e-6


def test_intertwining_defect_static_model_zero():
    frame = build_frame(three_level_model(10.0, 1.0), 0.0, 10.0)
    assert intertwining_defect(frame) < 1e-14


def test_intertwining_defect_random_model():
    model = random_smooth_model(4, 2, seed=23)
    frame = build_frame(model, 0.0, 5.0, tol=1e-10)
    assert intertwining_defect(frame) <= 1e-6


@pytest.mark.parametrize(
    "model, t0, t1",
    [
        (landau_zener_model(2.0), -5.0, 5.0),
        (numeric_transporter_model(landau_zener_model(2.0)), -5.0, 5.0),
        (random_smooth_model(4, 3, seed=8, analytic=False), 0.0, 2.0),
    ],
    ids=["landau_zener", "landau_zener_integrated", "random_numeric"],
)
def test_intertwining_defect_is_the_per_time_formula(model, t0, t1):
    frame = build_frame(model, t0, t1, tol=1e-8, checkpoints=9)
    times = np.concatenate([frame.w_path.times, np.linspace(t0, t1, 7)[1:-1] + 0.01])
    expected = 0.0
    for t in times:
        w, moving = frame.w_path.at(t), frame.model.spectral_at(t).projectors
        for p0, p in zip(frame.blocks, moving):
            expected = max(expected, spectral_norm(w @ p0 - p @ w))
    assert intertwining_defect(frame, times) == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert intertwining_defect(frame) <= intertwining_defect(frame, times)


def test_factorization_defect_static_model():
    tol = 1e-10
    model = three_level_model(10.0, 1.0)
    assert factorization_defect(model, 0.0, 5.0, tol=tol) <= 10 * tol


def test_factorization_defect_lz():
    assert factorization_defect(landau_zener_model(2.0), -10.0, 10.0, tol=1e-10) <= 1e-6


def test_factorization_defect_three_level():
    assert factorization_defect(three_level_model(10.0, 1.0), 0.0, 20.0, tol=1e-10) <= 1e-6


def test_factorization_defect_random_model():
    model = random_smooth_model(4, 2, seed=31)
    assert factorization_defect(model, 0.0, 4.0, tol=1e-10) <= 1e-6


def test_factorization_defect_converges_with_tolerance():
    model = landau_zener_model(2.0)
    defects = [
        factorization_defect(model, -5.0, 5.0, tol=tol) for tol in (1e-6, 1e-8, 1e-10)
    ]
    assert defects[0] > defects[1] > defects[2]


def test_numeric_label_verification_path():
    # a model without analytic data goes through the numerical decomposition
    # and its crossing check
    model = strip_analytic(random_smooth_model(4, 2, seed=19))
    frame = build_frame(model, 0.0, 2.0, tol=1e-9, checkpoints=17)
    assert intertwining_defect(frame) <= 1e-5


def test_transporter_requires_forward_interval():
    with pytest.raises(ValueError):
        transporter(landau_zener_model(1.0), 1.0, 1.0)


# ------------------------------------------- batched frame evaluation

def static_model():
    """A static drift with a drive rotating against it, built by hand."""
    z = np.diag([1.0, -1.0]).astype(complex)

    def drive(t):
        phase = np.exp(-3j * np.asarray(t))
        out = np.zeros((*phase.shape, 2, 2), dtype=complex)
        out[..., 0, 1], out[..., 1, 0] = phase, -np.conj(phase)
        return out

    return GeneratorModel(
        name="static",
        dim=2,
        gamma=5.0,
        drift=lambda t: np.broadcast_to(-1j * z, (*np.shape(t), 2, 2)),
        drive=drive,
        drift_derivative=lambda t: np.zeros((*np.shape(t), 2, 2), dtype=complex),
        static_drift=True,
    )


def tabulated_model(tmp_path):
    table = tmp_path / "model.csv"
    write_tabulated(table, random_smooth_model(4, 3, seed=8), np.linspace(-0.5, 2.5, 61))
    return load_tabulated_model(table, gamma=8.0)


FRAME_CASES = {
    "landau_zener": lambda _: (landau_zener_model(2.0), -5.0, 5.0),
    "three_level": lambda _: (three_level_model(10.0, 1.0), 0.0, 5.0),
    "three_level_envelope": lambda _: (
        three_level_model(10.0, 1.0, envelope=lambda t: np.cos(0.3 * t) ** 2),
        0.0,
        5.0,
    ),
    "random_analytic": lambda _: (random_smooth_model(4, 3, seed=8), 0.0, 2.0),
    "random_numeric": lambda _: (random_smooth_model(4, 3, seed=8, analytic=False), 0.0, 2.0),
    "tabulated": lambda tmp_path: (tabulated_model(tmp_path), 0.0, 2.0),
    "static": lambda _: (static_model(), 0.0, 2.0),
}


@pytest.mark.parametrize("case", sorted(FRAME_CASES))
def test_batched_frame_evaluation_is_the_per_time_one_bit_for_bit(case, tmp_path):
    model, t0, t1 = FRAME_CASES[case](tmp_path)
    frame = build_frame(model, t0, t1, tol=1e-8, checkpoints=9)
    knots = frame.w_path.times  # both ends among them
    between = 0.5 * (knots[:-1] + knots[1:])
    rng = np.random.default_rng(0)
    # shuffled, as a step's stage times are, and spread over several steps of
    # an integrated transporter
    ts = rng.permutation(np.concatenate([knots, between, rng.uniform(t0, t1, 8)]))
    rates, drives = frame.split_at(ts)
    hamiltonians = frame.hamiltonian_at(ts)
    rotated = frame.rotated_at(ts)
    transporters = frame.w_path.at(ts)
    assert rates.shape == (len(ts), len(frame.blocks))
    stack = (len(ts), model.dim, model.dim)
    assert drives.shape == hamiltonians.shape == rotated.shape == transporters.shape == stack
    for i, t in enumerate(ts):
        one = ts[i : i + 1]  # the frame takes one time as a one-element batch
        rate, drive = frame.split_at(one)
        assert rate.tobytes() == rates[i : i + 1].tobytes()
        assert drive.tobytes() == drives[i : i + 1].tobytes()
        assert frame.hamiltonian_at(one).tobytes() == hamiltonians[i : i + 1].tobytes()
        assert frame.rotated_at(one).tobytes() == rotated[i : i + 1].tobytes()
        for time in (t, float(t)):
            assert frame.w_path.at(time).tobytes() == transporters[i].tobytes()
            for part in (model.drift, model.drive, model.drift_derivative):
                assert part(time).tobytes() == part(ts)[i].tobytes()


@pytest.mark.parametrize("case", sorted(FRAME_CASES))
def test_rotated_generator_is_the_frame_hamiltonian_rotated_exactly(case, tmp_path):
    # E (R + gamma diag(Phi'[labels])) E† = V† H V for the rotated generator
    # R, with the phases' own derivative: b where they are exact, the spline
    # where they are interpolated
    model, t0, t1 = FRAME_CASES[case](tmp_path)
    frame = build_frame(model, t0, t1, tol=1e-8, checkpoints=9)
    labels, into, _ = frame.basis
    ts = np.random.default_rng(1).uniform(t0, t1, 40)
    phi, slope = frame.phases(ts)
    assert np.array_equal(frame.phases(np.array([t0]))[0], np.zeros((1, len(frame.blocks))))
    assert (slope is None) == (model.static_drift or model.analytic_phases is not None)
    if slope is None:
        slope = model.spectral_at(ts).eigenvalues
    e = np.exp(frame.phases_at(ts))
    assert np.array_equal(e, np.exp(model.gamma * phi[:, labels]))
    rotated = frame.rotated_at(ts) + model.gamma * slope[:, labels][:, :, None] * np.eye(model.dim)
    back = e[:, :, None] * rotated * e.conj()[:, None, :]
    hamiltonians = into(frame.hamiltonian_at(ts))
    scale = np.max(spectral_norm(hamiltonians))
    assert np.max(spectral_norm(back - hamiltonians)) < 1e-13 * scale


def test_landau_zener_phases_are_the_integral_of_the_eigenvalues():
    frame = build_frame(landau_zener_model(2.0), -20.0, 20.0)
    ts = np.linspace(-20.0, 20.0, 41)
    phi, slope = frame.phases(ts)
    assert slope is None
    # composite Simpson on 4,000 panels per checkpoint interval
    fine = np.linspace(-20.0, 20.0, 40 * 8000 + 1)
    b = frame.model.spectral_at(fine).eigenvalues
    h = 40.0 / (40 * 8000)
    panels = h / 3 * (b[:-1:2] + 4 * b[1::2] + b[2::2])
    # pairwise sums within an interval, so that roundoff does not grow with the panels
    intervals = panels.reshape(40, 4000, 2).sum(axis=1)
    quadrature = np.concatenate([[np.zeros(2)], np.cumsum(intervals, axis=0)])
    assert np.max(np.abs(phi - quadrature) / np.maximum(1.0, np.abs(phi))) < 1e-12


def test_build_frame_refuses_analytic_phases_that_are_not_the_integral_of_the_eigenvalues():
    # exact phases add no residual to the rotated generator, so phases off by
    # 0.1% would give a wrong M without an error
    model = landau_zener_model(2.0)
    scaled = dataclasses.replace(model, analytic_phases=lambda t: 1.001 * model.analytic_phases(t))
    message = r"model 'landau_zener': analytic_phases .* at t=-25 \(block 0: derivative off by 2\.50e-02\)"
    with pytest.raises(ValueError, match=message):
        build_frame(scaled, -25.0, 25.0)
    build_frame(model, -200.0, 200.0)  # the closed form passes on a wide span
    for seed in range(3):
        build_frame(random_smooth_model(4, 3, seed=seed), 0.0, 10.0)


@pytest.mark.parametrize("case, calls", [("landau_zener", 0), ("three_level", 0), ("tabulated", 1)])
def test_rotated_generator_asks_for_the_rates_only_for_spline_phases(case, calls, tmp_path, monkeypatch):
    # exact phases leave no residual, so no decomposition is taken for its
    # rates; spline phases take one stacked decomposition of all the times
    model, t0, t1 = FRAME_CASES[case](tmp_path)
    frame = build_frame(model, t0, t1, tol=1e-8, checkpoints=9)
    sizes = []
    spectral_at = GeneratorModel.spectral_at

    def counted(self, t):
        sizes.append(np.shape(t))
        return spectral_at(self, t)

    monkeypatch.setattr(GeneratorModel, "spectral_at", counted)
    frame.rotated_at(np.linspace(t0, t1, 12))
    assert sizes == [(12,)] * calls


def test_tabulated_model_refuses_a_batch_reaching_outside_its_span(tmp_path):
    model = tabulated_model(tmp_path)
    inside = np.array([0.0, 1.0, 2.0])
    assert model.drift(inside).shape == (3, 4, 4)
    for part in (model.drift, model.drive, model.drift_derivative):
        with pytest.raises(ConfigError, match="t=3 outside"):
            part(np.array([0.0, 3.0, 1.0]))
    frame = build_frame(model, 0.0, 2.0, tol=1e-8, checkpoints=9)
    with pytest.raises(ConfigError, match="outside"):
        frame.split_at(np.array([1.0, -0.75]))
    # the cache keys on the whole array, not on its first time
    at_one, at_two = model.drift(np.array([0.0, 1.0]))[1], model.drift(np.array([0.0, 2.0]))[1]
    assert not np.array_equal(at_one, at_two)
    assert model.drift(0.0).tobytes() == model.drift(np.array([0.0, 2.0]))[0].tobytes()


@pytest.mark.parametrize("part", ["drive", "drift", "drift_derivative"])
def test_model_callable_returning_one_matrix_fails_at_frame_build(part):
    model = static_model()
    single = getattr(model, part)(0.0)
    broken = dataclasses.replace(model, **{part: lambda t: single})
    with pytest.raises(ValueError, match=f"{part} returned shape \\(2, 2\\)"):
        build_frame(broken, 0.0, 2.0)
