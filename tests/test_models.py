"""Built-in models: analytic data against numerics, asymptotic formulas,
frame-consistency of the interaction picture, and the tabulated loader."""

import re
from dataclasses import replace

import numpy as np
import pytest

from blochwave import (
    build_frame,
    ConfigError,
    NotSkewHermitian,
    decompose,
    identity_ic,
    integrate_riccati,
    landau_zener_model,
    load_tabulated_model,
    lz_asymptotic_amplitude,
    propagate,
    random_smooth_model,
    spectral_norm,
    three_level_lab_frame,
    three_level_model,
)
from tests.helpers import lz_projector_derivative
from tests.helpers import write_tabulated as _write_tabulated

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


# ------------------------------------------------------------- Landau-Zener

def test_lz_spectral_analytic_vs_numeric():
    model = landau_zener_model(1.0)
    rng = np.random.default_rng(2)
    for t in rng.uniform(-5.0, 5.0, size=10):
        num = decompose(model.drift(t))
        ana = model.analytic_spectral(t)
        for k in range(2):
            assert spectral_norm(num.projectors[k] - ana.projectors[k]) < 1e-10
        assert np.allclose(num.eigenvalues, ana.eigenvalues, atol=1e-12)


def test_lz_eigenprojectors_at_zero():
    dec = landau_zener_model(1.0).analytic_spectral(0.0)
    assert np.allclose(dec.eigenvalues, [-1j, 1j])
    assert np.allclose(dec.projectors[0], 0.5 * (np.eye(2) + X))
    assert np.allclose(dec.projectors[1], 0.5 * (np.eye(2) - X))


def test_lz_commutator_value_at_one():
    # [P'_k, P_k] summed with the 1/2 factor gives iY/(2(1+t^2)); at t=1 -> iY/4
    model = landau_zener_model(1.0)
    a = model.analytic_kato(1.0)
    assert spectral_norm(a - 0.25j * Y) < 1e-14


def test_lz_kato_matches_projector_commutators():
    model = landau_zener_model(1.0)
    for t in (-2.0, 0.3, 4.0):
        dec = model.analytic_spectral(t)
        total = np.zeros((2, 2), dtype=complex)
        for k in range(2):
            pdot = lz_projector_derivative(k, t)
            p = dec.projectors[k]
            total += 0.5 * (pdot @ p - p @ pdot)
        assert spectral_norm(total - model.analytic_kato(t)) < 1e-14


def test_lz_transporter_asymptotic_limit():
    model = landau_zener_model(1.0)
    w = model.analytic_transporter(-100.0, 100.0)
    assert spectral_norm(w - 1j * Y) <= 1e-2


def test_lz_asymptotic_amplitude_values():
    sin1, tan1 = lz_asymptotic_amplitude(2.0)
    assert abs(sin1 - 4.32139e-2) < 1e-6
    assert abs(tan1 - 4.32543e-2) < 1e-6
    sin2, tan2 = lz_asymptotic_amplitude(4.0)
    assert abs(sin2 - 1.86744e-3) < 1e-7
    assert abs(tan2 - sin2) / sin2 < 1e-5  # correction below 1e-5 relative
    sin3, tan3 = lz_asymptotic_amplitude(50.0)
    assert sin3 < 1e-30 and tan3 < 1e-30


def test_lz_rejects_bad_gamma():
    with pytest.raises(ValueError):
        landau_zener_model(0.0)
    with pytest.raises(ValueError):
        lz_asymptotic_amplitude(-1.0)


# ---------------------------------------------------------------- three-level

def test_three_level_drive_entries():
    a = 0.8
    model = three_level_model(10.0, a)
    assert abs(model.drive(0.0)[1, 0] - a / 2) < 1e-14
    assert abs(model.drive(np.pi / 2)[1, 0]) < 1e-14


def test_three_level_drive_is_the_nested_list_formula_bit_for_bit():
    a, omega = 1.3, 0.7
    model = three_level_model(10.0, a, omega)
    # the reference builds the counter-rotating pattern from a nested list
    static = np.array(
        [[0.0, -0.5, 0.0], [0.5, 0.0, -1.0 / np.sqrt(2.0)], [0.0, 1.0 / np.sqrt(2.0), 0.0]],
        dtype=complex,
    )
    for t in np.random.default_rng(3).uniform(-100.0, 100.0, 500):
        e = np.exp(2j * omega * t)
        kt = np.array(
            [
                [0.0, -0.5 / e, 0.0],
                [0.5 * e, 0.0, -1.0 / (np.sqrt(2.0) * e)],
                [0.0, e / np.sqrt(2.0), 0.0],
            ],
            dtype=complex,
        )
        assert model.drive(t).tobytes() == ((a / 2.0) * (static + kt)).tobytes()


def test_three_level_skew_hermitian_everywhere():
    model = three_level_model(7.0, 1.3)
    rng = np.random.default_rng(4)
    for t in rng.uniform(0.0, 50.0, size=100):
        g = model.gamma * model.drift(t) + model.drive(t)
        assert spectral_norm(g + g.conj().T) < 1e-14


def test_three_level_uncoupled_is_static():
    model = three_level_model(10.0, 0.0)
    from blochwave import build_frame

    frame = build_frame(model, 0.0, 5.0)
    grid = np.linspace(0.0, 5.0, 21)
    u = integrate_riccati(frame, identity_ic(frame.blocks), 0.0, grid)
    assert u.sup_deviation() < 1e-12
    assert not u.blowup_flag


def test_three_level_lab_vs_interaction_picture():
    gamma, a = 10.0, 1.0
    model = three_level_model(gamma, a)
    grid = np.linspace(0.0, 8.0, 33)
    interaction = propagate(model.full_generator, 0.0, grid, tol=1e-11)
    gen_lab, rot = three_level_lab_frame(gamma, a)
    lab = propagate(gen_lab, 0.0, grid, tol=1e-11)
    conjugated = rot(grid).conj().swapaxes(-1, -2) @ lab.matrices @ rot(0.0)
    assert np.max(spectral_norm(conjugated - interaction.matrices)) < 1e-8
    # an array of times gives, bit for bit, the matrix of each time
    for fn in (gen_lab, rot):
        assert all(m.tobytes() == fn(t).tobytes() for t, m in zip(grid, fn(grid)))


def test_three_level_blocks():
    dec = three_level_model(5.0, 1.0).spectral_at(0.0)
    assert dec.multiplicities == (1, 2)
    assert np.allclose(dec.eigenvalues, [-1j, 0.0])
    assert np.allclose(dec.projectors[0], np.diag([0.0, 0.0, 1.0]))


def test_three_level_envelope_hook():
    model = three_level_model(10.0, 1.0, envelope=lambda t: 0.0)
    assert spectral_norm(model.drive(1.0)) == 0.0


def test_three_level_warns_outside_perturbative_regime():
    with pytest.warns(UserWarning, match="perturbative"):
        three_level_model(1.0, 1.0)


# -------------------------------------------------------------- random model

def test_random_model_deterministic():
    a = random_smooth_model(5, 3, seed=42)
    b = random_smooth_model(5, 3, seed=42)
    for t in (0.0, 1.7, 3.2):
        assert np.array_equal(a.drift(t), b.drift(t))
        assert np.array_equal(a.drive(t), b.drive(t))


def test_random_model_gap_floor():
    model = random_smooth_model(6, 3, seed=5, min_gap=1.0)
    gaps = []
    for t in np.linspace(0.0, 20.0, 400):
        lam = np.sort(model.eigenvalues_at(t).imag)
        gaps.append(np.min(np.diff(lam)))
    assert min(gaps) >= 1.0


def test_random_model_adiabatic_assumptions_hold():
    model = random_smooth_model(4, 2, seed=8, analytic=False)
    grid = np.linspace(0.0, 10.0, 1000)
    assert model.spectral_at(grid).min_gap() > 0.5


def test_random_model_analytic_reconstruction():
    model = random_smooth_model(5, 2, seed=3)
    model.validate(np.linspace(0.0, 6.0, 9))


def test_builtin_models_self_validate():
    landau_zener_model(2.0).validate(np.linspace(-10.0, 10.0, 9))
    three_level_model(10.0, 1.0).validate(np.linspace(0.0, 30.0, 9))


def test_period_is_model_data_of_the_undriven_envelope_only(tmp_path):
    assert three_level_model(10.0, 1.0).period == np.pi
    assert three_level_model(10.0, 1.0, omega=2.0).period == np.pi / 2.0
    assert three_level_model(10.0, 1.0, envelope=lambda t: np.cos(0.1 * t)).period is None
    assert landau_zener_model(2.0).period is None
    assert random_smooth_model(4, 2, seed=1).period is None
    table = tmp_path / "model.csv"
    _write_tabulated(table, three_level_model(10.0, 1.0), np.linspace(0.0, 4.0, 41))
    assert load_tabulated_model(table, gamma=10.0).period is None


def test_validate_refuses_an_inconsistent_period():
    model = three_level_model(10.0, 1.0)
    times = np.linspace(0.0, 30.0, 9)
    model.validate(times)
    model.validate(np.linspace(0.0, 1e5, 9))  # the phase t/T rounds, the period holds
    for period in (1.0, np.pi / 2.0, 0.0, -np.pi, np.inf, np.nan):
        with pytest.raises(ValueError, match="period"):
            replace(model, period=period).validate(times)
    with pytest.raises(ValueError, match="static drift"):
        replace(landau_zener_model(2.0), period=1.0).validate(times)
    # the propagator trusts the period, so the frame refuses a wrong one
    with pytest.raises(ValueError, match="period"):
        build_frame(replace(model, period=1.0), 0.0, 10.0)


def test_random_model_numeric_twin_agrees():
    ana = random_smooth_model(4, 2, seed=21, analytic=True)
    num = random_smooth_model(4, 2, seed=21, analytic=False)
    t = 2.3
    dec_a = ana.spectral_at(t)
    dec_n = num.spectral_at(t)
    for k in range(2):
        assert spectral_norm(dec_a.projectors[k] - dec_n.projectors[k]) < 1e-10


def tabulated_random_model(tmp_path):
    source = random_smooth_model(3, 2, seed=4)
    file = tmp_path / "random.csv"
    _write_tabulated(file, source, np.linspace(0.0, 4.0, 201))
    return load_tabulated_model(file, gamma=source.gamma)


@pytest.mark.parametrize(
    "name", ["landau_zener", "three_level", "random_smooth", "tabulated"]
)
def test_drift_derivative_matches_central_difference(name, tmp_path):
    model = {
        "landau_zener": lambda: landau_zener_model(1.0),
        "three_level": lambda: three_level_model(10.0, 1.0),
        "random_smooth": lambda: random_smooth_model(5, 3, seed=9),
        "tabulated": lambda: tabulated_random_model(tmp_path),
    }[name]()
    h = 1e-5
    for t in (0.4, 1.3, 2.9):
        difference = (model.drift(t + h) - model.drift(t - h)) / (2.0 * h)
        assert spectral_norm(model.drift_derivative(t) - difference) < 1e-8


# ------------------------------------------------------------- tabulated I/O


def test_tabulated_model_roundtrip(tmp_path):
    source = three_level_model(10.0, 1.0)
    times = np.linspace(0.0, 10.0, 501)
    file = tmp_path / "model.csv"
    _write_tabulated(file, source, times)
    loaded = load_tabulated_model(file, gamma=10.0)
    assert loaded.dim == 3
    for t in (0.05, 3.33, 9.71):
        assert spectral_norm(loaded.drift(t) - source.drift(t)) < 1e-8
        assert spectral_norm(loaded.drive(t) - source.drive(t)) < 1e-7
        g = loaded.full_generator(t)
        assert spectral_norm(g + g.conj().T) < 1e-12  # spline preserves skewness


def test_tabulated_model_rejects_bad_shape(tmp_path):
    file = tmp_path / "bad.csv"
    file.write_text("time,B_00,C_00,extra\n0.0,1j,0j,0j\n1.0,1j,0j,0j\n")
    with pytest.raises(ConfigError):
        load_tabulated_model(file, gamma=1.0)


def test_tabulated_model_rejects_decreasing_times(tmp_path):
    file = tmp_path / "bad.csv"
    file.write_text("time,B_00,C_00\n1.0,1j,0j\n0.0,1j,0j\n")
    with pytest.raises(ConfigError):
        load_tabulated_model(file, gamma=1.0)


@pytest.mark.parametrize("time", ["1.0", "nan", "inf", "(2+1j)"])
def test_tabulated_model_rejects_repeated_non_finite_or_complex_times(tmp_path, time):
    file = tmp_path / "bad.csv"
    file.write_text(f"time,B_00,C_00\n1.0,1j,0j\n{time},1j,0j\n3.0,1j,0j\n")
    with pytest.raises(ConfigError, match="times must be"):
        load_tabulated_model(file, gamma=1.0)


def test_tabulated_model_refuses_extrapolation(tmp_path):
    file = tmp_path / "m.csv"
    _write_tabulated(file, three_level_model(5.0, 0.5), np.linspace(0.0, 1.0, 21))
    loaded = load_tabulated_model(file, gamma=5.0)
    with pytest.raises(ConfigError):
        loaded.drift(2.0)
    with pytest.raises(ConfigError):
        loaded.drive(-0.5)
    with pytest.raises(ConfigError):
        loaded.drift_derivative(2.0)
    # a batch is refused by its first time outside the span, a NaN time included
    for batch, first in (([0.5, 2.0, -0.5], "2"), ([0.0, np.nan, 1.5], "nan")):
        for accessor in (loaded.drift, loaded.drive, loaded.drift_derivative):
            with pytest.raises(ConfigError, match=re.escape(f"at t={first} outside its span [0, 1]")):
                accessor(np.array(batch))
    assert loaded.drift(np.array([0.0, 1.0])).shape == (2, 3, 3)  # both ends are inside


@pytest.mark.parametrize("seed", range(3))
def test_tabulated_loader_accepts_a_sample_exactly_when_decompose_does(tmp_path, seed):
    # one skew-Hermiticity check for both: the loader refusing a sample that
    # decompose accepts, or the reverse, would let validate and run disagree
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    skew = z - z.conj().T  # its norm is above 1, so the tolerance scales
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    herm = q @ np.diag([1.0, -1.0, 0.5]) @ q.conj().T / 1.5  # Frobenius 1, spectral 2/3
    header = ["time"] + [f"{p}_{i}{j}" for p in "BC" for i in range(3) for j in range(3)]
    verdicts = []
    for ratio in np.linspace(0.5, 2.0, 31):
        drift = skew + 0.5e-10 * ratio * spectral_norm(skew) * herm
        cells = [str(complex(x)) for x in drift.ravel()] + ["0j"] * 9
        file = tmp_path / "m.csv"
        file.write_text("\n".join([",".join(header)] + [f"{t},{','.join(cells)}" for t in (0, 1, 2)]))
        try:
            load_tabulated_model(file, gamma=1.0)
            loader = True
        except ConfigError:
            loader = False
        try:
            decompose(drift)
            direct = True
        except NotSkewHermitian:
            direct = False
        assert loader == direct, ratio
        verdicts.append(direct)
    assert verdicts[0] and not verdicts[-1]


def test_tabulated_accessors_equal_separate_splines_bit_for_bit(tmp_path):
    from scipy.interpolate import CubicSpline

    source = random_smooth_model(4, 2, seed=11)
    times = np.linspace(-0.5, 3.5, 81)
    file = tmp_path / "m.csv"
    _write_tabulated(file, source, times)
    loaded = load_tabulated_model(file, gamma=source.gamma)

    def spline(f):
        return CubicSpline(times, np.stack([f(t) for t in times]), axis=0, extrapolate=False)

    drift = spline(source.drift)
    reference = {
        "drift": drift,
        "drive": spline(source.drive),
        "drift_derivative": drift.derivative(),
    }
    rng = np.random.default_rng(5)
    calls = [(t, name) for t in rng.uniform(-0.5, 3.5, 20) for name in reference]
    for i in rng.permutation(len(calls)):
        t, name = calls[i]
        value = getattr(loaded, name)(t)
        assert np.array_equal(value, reference[name](t))
        assert not value.flags.writeable


# The spline is SciPy's CubicSpline replayed in NumPy; SciPy stays the
# reference here, compared byte for byte, signed zeros included.


def spline_knots(rows, spacing, rng):
    if spacing == "uniform":
        return np.linspace(-0.5, 3.5, rows)
    gaps = np.exp(rng.uniform(-7.0, 3.0, rows - 1))
    if rows > 3:
        # a third gap above the first two together makes zgtsv interchange
        # the second and third rows of the not-a-knot system
        gaps[2] = 100.0 * (gaps[0] + gaps[1])
    return rng.uniform(-1.0, 1.0) + np.concatenate(([0.0], np.cumsum(gaps)))


def with_signed_zeros(samples, rng):
    """``samples`` with some cells ``±0 ± 0j``, and the real parts of a
    diagonal (zero for skew-Hermitian samples) as signed zeros."""
    samples = samples.copy()
    dim = samples.shape[-1]
    diagonal = samples.real[..., range(dim), range(dim)]
    samples.real[..., range(dim), range(dim)] = np.copysign(0.0, rng.normal(size=diagonal.shape))
    zero = rng.random(samples.shape) < 0.1
    zero |= zero.swapaxes(-1, -2)  # in pairs, so that skew samples stay skew
    samples.real[zero] = np.copysign(0.0, rng.normal(size=zero.sum()))
    samples.imag[zero] = np.copysign(0.0, rng.normal(size=zero.sum()))
    return samples


def times_to_ask(knots, rng):
    """Batches of the sizes a frame asks for, the knots, and 0-d times."""
    inside = [np.sort(rng.uniform(knots[0], knots[-1], size)) for size in (1, 12, 95, 600)]
    return [*inside, knots, knots[-1:], knots[-1], knots[0], knots[1], float(rng.uniform(knots[0], knots[-1]))]


@pytest.mark.parametrize("spacing", ["uniform", "non_uniform"])
@pytest.mark.parametrize("rows", [2, 3, 4, 5, 81])
def test_spline_is_scipys_cubic_spline_bit_for_bit(rows, spacing):
    from scipy.interpolate import CubicSpline, PPoly

    from blochwave.models import _not_a_knot_spline, _piecewise_cubic

    rng = np.random.default_rng(rows)
    knots = spline_knots(rows, spacing, rng)
    samples = with_signed_zeros(
        rng.normal(size=(rows, 2, 2, 2)) + 1j * rng.normal(size=(rows, 2, 2, 2)), rng
    )
    coeffs = _not_a_knot_spline(knots, samples)
    table = _piecewise_cubic(coeffs, knots)
    for k in (0, 1):
        spline = CubicSpline(knots, samples[:, k], axis=0, extrapolate=False)
        assert np.ascontiguousarray(coeffs[:, :, k]).tobytes() == spline.c.tobytes()
        for t in times_to_ask(knots, rng):
            assert table(t)[..., k, :, :].tobytes() == spline(t).tobytes()
    # the NaN of a time outside the span is PPoly's too
    outside = np.array([np.nextafter(knots[0], -np.inf), np.nextafter(knots[-1], np.inf)])
    assert table(outside).tobytes() == PPoly(coeffs, knots, extrapolate=False)(outside).tobytes()


@pytest.mark.parametrize("rows", [2, 3, 4, 5, 81])
def test_tabulated_model_is_scipys_spline_and_derivative_bit_for_bit(tmp_path, rows):
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(100 + rows)
    knots = spline_knots(rows, "non_uniform", rng)
    z = rng.normal(size=(rows, 2, 3, 3)) + 1j * rng.normal(size=(rows, 2, 3, 3))
    samples = with_signed_zeros(z - z.conj().swapaxes(-1, -2), rng)
    header = ["time"] + [f"{p}_{i}{j}" for p in "BC" for i in range(3) for j in range(3)]
    lines = [",".join(header)]
    for t, sample in zip(knots, samples):
        lines.append(",".join([repr(float(t))] + [str(complex(x)) for x in sample.ravel()]))
    file = tmp_path / "m.csv"
    file.write_text("\n".join(lines) + "\n")
    loaded = load_tabulated_model(file, gamma=1.0)

    drift = CubicSpline(knots, samples[:, 0], axis=0, extrapolate=False)
    reference = {
        "drift": drift,
        "drive": CubicSpline(knots, samples[:, 1], axis=0, extrapolate=False),
        "drift_derivative": drift.derivative(),
    }
    for t in times_to_ask(knots, rng):
        for name, spline in reference.items():
            assert getattr(loaded, name)(t).tobytes() == spline(t).tobytes(), name
    for name in reference:
        for t in (np.nextafter(knots[0], -np.inf), np.nextafter(knots[-1], np.inf)):
            with pytest.raises(ConfigError, match="outside its span"):
                getattr(loaded, name)(t)
