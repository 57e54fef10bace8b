"""End-to-end acceptance suite.

Each test pins one headline guarantee of the package at its certified
tolerance and prints a PASS/FAIL line (visible with ``pytest -s``):

1. two-level sweep: settled wave-operator deviation matches the asymptotic
   transition formula tan(phi), sin(phi) = exp(-pi*gamma/2), within 2%;
2. two-level sweep: transition probability matches exp(-pi*gamma) within 2%;
3. three-level detuning sweep: log-log slope of sup-deviation vs gamma is
   -1.0 +/- 0.15 for identity and stationary initial conditions;
4. three-level long-horizon run: no secular growth over [0, 1000];
5. theorem suite: operator-norm inequality chains hold exactly (1e-10
   numerical slack) on every reference run and a 50-model random corpus;
6. the three wave-operator routes agree within 1e-5; the linearization
   operator is block-diagonal within 1e-12;
7. adiabatic-frame consistency: intertwining and factorization defects at
   most 1e-6 at tol 1e-10; the integrated transporter matches the closed
   form within 1e-8;
8. stationary initial condition: vanishing initial derivative within
   1e-8 * ||H(t0)||;
9. the propagator agrees with an independent fixed-step Magnus propagator
   of the lab-frame generator, ``‖F - W M‖`` within 1e-8, on the three-level
   system, the two-level sweep and a tabulated model.
"""

import csv
import dataclasses

import numpy as np
import pytest

from blochwave import (
    build_frame,
    propagate,
    random_smooth_model,
    factorization_defect,
    intertwining_defect,
    landau_zener_model,
    lz_asymptotic_amplitude,
    spectral_norm,
    stationary_ic,
    three_level_model,
    transporter,
    unitarize,
)
from blochwave.cli import ExperimentConfig, run_experiment, sweep
from blochwave.models import load_tabulated_model

from tests.helpers import PipelineBundle, magnus_propagator, make_corpus, write_tabulated

NOISE = 1e-10  # numerical slack on exact inequalities


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _config(**kw) -> ExperimentConfig:
    base = dict(
        model_name="three_level",
        model_params={},
        t0=0.0,
        t_final=1.0,
        checkpoint_count=101,
        integrator_tol=1e-10,
        ic_kind="identity",
        ic_path=None,
        route="riccati",
        norms=("spectral", "frobenius"),
        sweep_gammas=None,
        output_dir=None,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _read_trace(path):
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def lz_runs(tmp_path_factory):
    """Two-level pipeline runs at T = 50 for gamma in {1, 2, 4}."""
    out = tmp_path_factory.mktemp("lz_runs")
    runs = {}
    for gamma in (1.0, 2.0, 4.0):
        config = _config(
            model_name="landau_zener",
            model_params={"gamma": gamma},
            t0=-50.0,
            t_final=50.0,
            checkpoint_count=801,
            integrator_tol=1e-10,
            route="closed_form",
            output_dir=out / f"gamma_{gamma:g}",
        )
        runs[gamma] = run_experiment(config)
        assert runs[gamma].status == "ok"
    return runs


@pytest.fixture(scope="module")
def gamma_sweep(tmp_path_factory):
    """Three-level detuning sweep over [0, 200] for both initial conditions."""
    config = _config(
        model_params={"a": 1.0, "gamma": 10.0},
        t_final=200.0,
        checkpoint_count=1001,
        sweep_gammas=(10.0, 20.0, 40.0, 80.0),
        output_dir=tmp_path_factory.mktemp("sweep"),
    )
    return sweep(config)


@pytest.fixture(scope="module")
def eternity_run(tmp_path_factory):
    """Three-level run over [0, 1000] at gamma = 10."""
    config = _config(
        model_params={"a": 1.0, "gamma": 10.0},
        t_final=1000.0,
        checkpoint_count=2001,
        output_dir=tmp_path_factory.mktemp("eternity"),
    )
    summary = run_experiment(config)
    assert summary.status == "ok"
    return summary


@pytest.fixture(scope="module")
def corpus_bundles():
    """Fifty seeded random perturbative models, full pipeline each."""
    bundles = []
    for model in make_corpus(50, seed0=500):
        bundles.append(PipelineBundle(model, 0.0, 3.0, n_checkpoints=41, tol=1e-10))
    return bundles


@pytest.fixture(scope="module")
def builtin_bundles():
    return {
        "landau_zener": PipelineBundle(
            landau_zener_model(2.0), -20.0, 20.0, n_checkpoints=161
        ),
        "three_level": PipelineBundle(
            three_level_model(10.0, 1.0), 0.0, 20.0, n_checkpoints=121
        ),
    }


# --------------------------------------------------------------- criteria

def test_criterion_1_lz_wave_operator(lz_runs):
    worst = 0.0
    details = []
    for gamma, summary in lz_runs.items():
        _, tan_phi = lz_asymptotic_amplitude(gamma)
        measured = summary.fields["delta_spectral_final"]
        rel = abs(measured - tan_phi) / tan_phi
        worst = max(worst, rel)
        details.append(f"gamma={gamma:g}: {measured:.6g} vs {tan_phi:.6g}")
    _criterion(
        "criterion 1 (wave-operator deviation, 2%)",
        worst < 0.02,
        f"worst rel err {worst:.2e}; " + "; ".join(details),
    )


def test_criterion_2_lz_transition_probability(lz_runs):
    worst = 0.0
    details = []
    for gamma, summary in lz_runs.items():
        expected = np.exp(-np.pi * gamma)
        trace = _read_trace(summary.config.output_dir / "trace.csv")
        amp = float(trace[-1]["leakage_block_0"])
        rel = abs(amp**2 - expected) / expected
        worst = max(worst, rel)
        details.append(f"gamma={gamma:g}: {amp**2:.4g} vs {expected:.4g}")
    _criterion(
        "criterion 2 (transition probability, 2%)",
        worst < 0.02,
        f"worst rel err {worst:.2e}; " + "; ".join(details),
    )


def test_criterion_3_gamma_scaling_slope(gamma_sweep):
    slopes = gamma_sweep["slopes"]
    s_id = slopes[("identity", "frobenius")]
    s_st = slopes[("stationary", "frobenius")]
    ok = abs(s_id + 1.0) <= 0.15 and abs(s_st + 1.0) <= 0.15
    _criterion(
        "criterion 3 (1/gamma scaling slope, -1.0 +/- 0.15)",
        ok,
        f"identity slope {s_id:.4f}, stationary slope {s_st:.4f}",
    )


def test_criterion_4_no_secular_growth(eternity_run):
    trace = _read_trace(eternity_run.config.output_dir / "trace.csv")
    dev = np.array([float(r["norm_U_minus_1_fro"]) for r in trace])
    n = len(dev) // 10
    first, last = dev[:n].max(), dev[-n:].max()
    ok = (last <= 1.1 * first) and not eternity_run.blowup
    _criterion(
        "criterion 4 (no secular growth over [0, 1000])",
        ok,
        f"first-10% max {first:.5f}, last-10% max {last:.5f}, "
        f"ratio {last / first:.4f}, blowup={eternity_run.blowup}",
    )


def _theorem_checks(u_path, m_path, m_eff, label):
    """Inequality chains for one run; returns worst slacks and defects."""
    delta = u_path.sup_deviation("spectral")
    assert delta < 1.0, f"{label}: delta={delta} out of theorem range"
    eye = np.eye(u_path.dim)
    worst = 0.0
    n = len(u_path.times)
    for i in range(n):
        u = u_path.matrices[i]
        u_inv = np.linalg.inv(u)
        gram = u.conj().T @ u
        worst = max(worst, spectral_norm(u) - (1.0 + delta))
        worst = max(worst, spectral_norm(u_inv) - 1.0 / (1.0 - delta))
        worst = max(worst, spectral_norm(u_inv - eye) - delta / (1.0 - delta))
        worst = max(worst, spectral_norm(gram - eye) - (2 * delta + delta**2))
        worst = max(
            worst,
            spectral_norm(m_path.matrices[i] - m_eff.matrices[i])
            - 2 * delta / (1 - delta),
        )
    v_path = unitarize(u_path, m_path=m_path)
    from blochwave import v_bound

    assert 2 * delta + delta**2 < 1.0, f"{label}: V bound out of range"
    worst = max(worst, v_path.deviation("spectral").max() - v_bound(delta))
    return (
        worst,
        v_path.max_unitarity_defect(),
        v_path.gram_offblock_defect,
        v_path.conjugated_offblock_defect,
        m_path.max_unitarity_defect(),
    )


def test_criterion_5_theorem_suite(builtin_bundles, corpus_bundles, lz_runs, eternity_run):
    worst_slack = -np.inf
    worst_unitarity = 0.0
    worst_offblock = 0.0
    n_runs = 0

    bundle_paths = [
        (b.u_closed, b.m_path, b.m_eff, name)
        for name, b in builtin_bundles.items()
    ] + [
        (b.u_closed, b.m_path, b.m_eff, f"corpus_{i}")
        for i, b in enumerate(corpus_bundles)
    ]
    for summary in lz_runs.values():
        paths = summary.paths
        route = next(iter(paths["u"].values()))
        bundle_paths.append((route, paths["m"], paths["m_eff"], summary.label))

    for u_path, m_path, m_eff, label in bundle_paths:
        slack, unitarity, gram_off, conj_off, _ = _theorem_checks(u_path, m_path, m_eff, label)
        worst_slack = max(worst_slack, slack)
        worst_unitarity = max(worst_unitarity, unitarity)
        worst_offblock = max(worst_offblock, gram_off, conj_off)
        n_runs += 1

    # the 1000-unit horizon: inequality chains hold unconditionally, while the
    # block-diagonality of the conjugated evolution is limited from below by
    # the propagator's own unitarity drift, so it is certified relative to it
    paths = eternity_run.paths
    route = next(iter(paths["u"].values()))
    slack, unitarity, gram_off, conj_off, m_unit = _theorem_checks(
        route, paths["m"], paths["m_eff"], eternity_run.label
    )
    worst_slack = max(worst_slack, slack)
    worst_unitarity = max(worst_unitarity, unitarity)
    worst_offblock = max(worst_offblock, gram_off)
    eternity_conj_ok = conj_off <= max(1e-8, 10.0 * m_unit)
    n_runs += 1

    ok = (
        worst_slack <= NOISE
        and worst_unitarity <= 1e-10
        and worst_offblock <= 1e-8
        and eternity_conj_ok
    )
    _criterion(
        "criterion 5 (theorem suite, 1e-10 slack)",
        ok,
        f"{n_runs} runs; worst inequality slack {worst_slack:.2e}, "
        f"worst V unitarity defect {worst_unitarity:.2e}, "
        f"worst off-block defect {worst_offblock:.2e}, "
        f"long-horizon conjugation defect {conj_off:.2e} "
        f"(unitarity floor {m_unit:.2e})",
    )


def test_criterion_6_route_equivalence(builtin_bundles, corpus_bundles):
    worst_gap = 0.0
    worst_pi = 0.0
    for bundle in list(builtin_bundles.values()) + corpus_bundles:
        worst_gap = max(worst_gap, bundle.route_disagreement())
        worst_pi = max(worst_pi, bundle.u_radon.diagnostics["pi_offblock_defect"])
    ok = worst_gap <= 1e-5 and worst_pi <= 1e-12
    _criterion(
        "criterion 6 (route equivalence 1e-5, linearization block-diagonality 1e-12)",
        ok,
        f"worst route gap {worst_gap:.2e}, worst off-block residue {worst_pi:.2e}",
    )


def test_criterion_7_frame_consistency(builtin_bundles):
    lz = builtin_bundles["landau_zener"]
    tl = builtin_bundles["three_level"]
    inter_lz = intertwining_defect(lz.frame)
    inter_tl = intertwining_defect(tl.frame)
    fact_lz = factorization_defect(landau_zener_model(2.0), -10.0, 10.0, tol=1e-10)
    fact_tl = factorization_defect(three_level_model(10.0, 1.0), 0.0, 20.0, tol=1e-10)

    model = landau_zener_model(2.0)
    # the integrated transporter against its closed form
    numeric = dataclasses.replace(model, analytic_transporter=None)
    w = transporter(numeric, -20.0, 20.0, tol=1e-10)
    w_gap = spectral_norm(w.final - model.analytic_transporter(-20.0, 20.0))

    ok = (
        max(inter_lz, inter_tl) <= 1e-6
        and max(fact_lz, fact_tl) <= 1e-6
        and w_gap <= 1e-8
    )
    _criterion(
        "criterion 7 (frame consistency 1e-6, transporter closed form 1e-8)",
        ok,
        f"intertwining {inter_lz:.2e}/{inter_tl:.2e}, "
        f"factorization {fact_lz:.2e}/{fact_tl:.2e}, transporter gap {w_gap:.2e}",
    )


def test_criterion_8_stationary_initial_condition():
    worst = 0.0
    details = []
    for model, t0, t1 in (
        (three_level_model(10.0, 1.0), 0.0, 1.0),
        (landau_zener_model(2.0), -20.0, 20.0),
    ):
        frame = build_frame(model, t0, t1, tol=1e-10)
        ic = stationary_ic(frame)
        rel = ic.stationarity_defect / spectral_norm(frame.hamiltonian_at(np.array([t0]))[0])
        worst = max(worst, rel)
        details.append(f"{model.name}: {rel:.2e}")
    _criterion(
        "criterion 8 (stationary initial derivative, 1e-8 relative)",
        worst <= 1e-8,
        "defect/||H(t0)||: " + "; ".join(details),
    )


def test_criterion_9_independent_magnus_propagator(tmp_path):
    table = tmp_path / "model.csv"
    write_tabulated(table, random_smooth_model(4, 2, seed=12), np.linspace(-0.5, 3.5, 81))
    cases = {  # (model, checkpoint grid, Magnus steps per checkpoint interval)
        "three_level": (three_level_model(10.0, 1.0), np.linspace(0.0, 50.0, 251), 64),
        "landau_zener": (landau_zener_model(2.0), np.linspace(-20.0, 20.0, 161), 100),
        "tabulated": (load_tabulated_model(table, gamma=8.0), np.linspace(0.0, 3.0, 31), 100),
    }
    gaps = {}
    for name, (model, grid, steps) in cases.items():
        frame = build_frame(model, grid[0], grid[-1], tol=1e-10)
        m_path = propagate(frame, grid[0], grid, tol=1e-10)
        lab = magnus_propagator(model.full_generator, grid, steps)
        # W is the identity for a static drift, the closed form for the sweep
        gaps[name] = float(np.max(spectral_norm(lab - frame.w_path.at(grid) @ m_path.matrices)))
    _criterion(
        "criterion 9 (independent Magnus propagator, 1e-8)",
        max(gaps.values()) <= 1e-8,
        ", ".join(f"{name} {gap:.2e}" for name, gap in gaps.items()),
    )
