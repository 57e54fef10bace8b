"""Config parsing, the batch runner, CSV contracts, sweep mode, exit codes."""

import csv
import numpy as np
import pytest

from blochwave import ConfigError
from blochwave.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    build_model,
    load_config,
    main,
    run_experiment,
    sweep,
)

BASE_CFG = """
[model]
name = three_level
gamma = 10.0
a = 1.0

[run]
t0 = 0.0
t_final = 10.0
checkpoint_count = 51
integrator_tol = 1e-10
ic = identity
route = all

[output]
dir = {out}
"""


def write_cfg(tmp_path, text=None, name="exp.cfg", **fmt):
    out = fmt.pop("out", tmp_path / "out")
    cfg = tmp_path / name
    cfg.write_text((text or BASE_CFG).format(out=out, **fmt))
    return cfg


def read_csv(path):
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


def data_bytes(path):
    """CSV content without the commented metadata header."""
    with open(path, "rb") as fh:
        return b"".join(line for line in fh if not line.startswith(b"#"))


# -------------------------------------------------------------------- config

def test_load_config_roundtrip(tmp_path):
    config = load_config(write_cfg(tmp_path))
    assert config.model_name == "three_level"
    assert config.model_params["gamma"] == 10.0
    assert config.checkpoint_count == 51
    assert config.routes == ("riccati", "closed_form", "radon")


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path), overrides=["run.integrator_tol=1.0"])
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path), overrides=["run.t_final=-5.0"])
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path), overrides=["run.route=magic"])
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path), overrides=["run.checkpoint_count=1"])
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path), overrides=["model.name=unknown"])


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/exp.cfg")


def test_command_line_override_wins(tmp_path):
    config = load_config(write_cfg(tmp_path), overrides=["model.gamma=40.0"])
    assert config.model_params["gamma"] == 40.0
    assert build_model(config).gamma == 40.0


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCHWAVE_OUTPUT_DIR", str(tmp_path / "env_out"))
    config = load_config(write_cfg(tmp_path))
    assert config.output_dir == tmp_path / "env_out"


def test_bad_override_syntax(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path), overrides=["gamma=40"])


# ---------------------------------------------------------------- subcommands

def test_main_validate_and_models(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["validate", str(cfg)]) == EXIT_OK
    assert main(["models"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "landau_zener" in out and "three_level" in out


def test_main_validate_bad_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[run]\nt0 = 0\n")
    assert main(["validate", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "overrides",
    [
        ["model.name=custom"],
        ["model.name=custom", "model.path={missing}"],
        ["run.ic=custom", "run.ic_path={missing}"],
    ],
)
def test_missing_input_file_is_a_config_error(tmp_path, overrides):
    # caught by validate, before any run starts, not left to the run's reader
    cfg = write_cfg(tmp_path)
    sets = []
    for item in overrides:
        sets += ["--set", item.format(missing=tmp_path / "missing.csv")]
    assert main(["validate", str(cfg), *sets]) == EXIT_CONFIG
    assert main(["run", str(cfg), *sets]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, caught_by_validate",
    [
        (["output.seed=abc"], True),
        (["model.gamma=-1"], True),
        (["model.gamma=nan"], True),
        (["sweep.gamma=10, -5"], True),
        (["model.a=-1"], False),
        (["model.name=random_smooth", "model.dim=1", "model.n_blocks=1"], False),
    ],
    ids=["seed", "gamma_negative", "gamma_nan", "sweep_gamma_negative", "a_negative", "dim_1"],
)
def test_malformed_input_exits_config(tmp_path, overrides, caught_by_validate):
    # what the config alone shows is caught by validate; what only the model
    # constructor checks fails the run; either way exit 2, never a traceback
    cfg = write_cfg(tmp_path)
    sets = [arg for item in overrides for arg in ("--set", item)]
    if caught_by_validate:
        assert main(["validate", str(cfg), *sets]) == EXIT_CONFIG
    assert main(["run", str(cfg), *sets]) == EXIT_CONFIG


def test_input_file_read_error_at_run_time_exits_config(tmp_path):
    from blochwave.cli import _exit_code

    ic_file = tmp_path / "u0.csv"
    ic_file.write_text("1,0,0\n0,1,0\n0,0,1\n")
    config = load_config(
        write_cfg(tmp_path), overrides=["run.ic=custom", f"run.ic_path={ic_file}"]
    )
    ic_file.unlink()  # gone between validation and the run
    summary = run_experiment(config)
    assert summary.error_code == "io_error"
    assert _exit_code([summary]) == EXIT_CONFIG


# -------------------------------------------------------------------- running

def test_run_experiment_trace_and_summary(tmp_path):
    config = load_config(write_cfg(tmp_path))
    summary = run_experiment(config)
    assert summary.status == "ok"

    trace = read_csv(config.output_dir / "trace.csv")
    assert len(trace) == 51
    expected_cols = {
        "t",
        "norm_U_minus_1_fro",
        "norm_U_minus_1_spec",
        "leakage_block_0",
        "leakage_block_1",
        "bloch_defect",
        "min_block_sv",
        "unitarity_defect",
    }
    assert expected_cols == set(trace[0].keys())
    assert float(trace[0]["norm_U_minus_1_fro"]) == 0.0
    assert float(trace[0]["min_block_sv"]) == 1.0

    rows = read_csv(config.output_dir / "summary.csv")
    assert len(rows) == 1
    row = rows[0]
    assert row["status"] == "ok"
    assert float(row["delta_spectral"]) > 0.0
    assert float(row["agreement_riccati_closed_form"]) < 1e-5


def test_trace_leakage_and_certificate_match_direct_evaluation(tmp_path):
    from blochwave import spectral_norm

    config = load_config(
        write_cfg(tmp_path), overrides=["run.t_final=2", "run.checkpoint_count=11"]
    )
    summary = run_experiment(config)
    assert summary.status == "ok"
    trace = read_csv(config.output_dir / "trace.csv")
    m_path = summary.paths["m"]
    eye = np.eye(m_path.dim)
    for k, p in enumerate(summary.paths["frame"].blocks):
        column = [float(row[f"leakage_block_{k}"]) for row in trace]
        assert column == [spectral_norm((eye - p) @ m @ p) for m in m_path.matrices]
        assert summary.fields[f"leakage_block_{k}"] == max(column)
    closed = summary.paths["u"]["closed_form"]
    assert [float(row["min_block_sv"]) for row in trace] == list(closed.min_block_sv)


def test_run_uncoupled_three_level_has_no_leakage(tmp_path):
    config = load_config(write_cfg(tmp_path), overrides=["model.a=0.0"])
    run_experiment(config)
    for row in read_csv(config.output_dir / "trace.csv"):
        assert float(row["leakage_block_0"]) <= 1e-10
        assert float(row["leakage_block_1"]) <= 1e-10
        assert float(row["norm_U_minus_1_spec"]) <= 1e-10


def test_run_deterministic_output(tmp_path):
    cfg_a = load_config(write_cfg(tmp_path), overrides=[f"output.dir={tmp_path}/a"])
    cfg_b = load_config(write_cfg(tmp_path), overrides=[f"output.dir={tmp_path}/b"])
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    assert data_bytes(tmp_path / "a" / "trace.csv") == data_bytes(
        tmp_path / "b" / "trace.csv"
    )
    assert data_bytes(tmp_path / "a" / "summary.csv") == data_bytes(
        tmp_path / "b" / "summary.csv"
    )


def test_run_stationary_ic(tmp_path):
    config = load_config(write_cfg(tmp_path), overrides=["run.ic=stationary"])
    summary = run_experiment(config)
    assert summary.status == "ok"
    h_norm = 10.0  # leading order of the frame generator norm
    assert summary.fields["stationarity_defect"] <= 1e-8 * h_norm


def test_run_custom_model_matches_builtin(tmp_path):
    from blochwave import three_level_model
    from tests.helpers import write_tabulated

    source = three_level_model(10.0, 1.0)
    table = tmp_path / "tab.csv"
    write_tabulated(table, source, np.linspace(-0.5, 10.5, 551))

    cfg_text = BASE_CFG.replace("name = three_level", "name = custom\npath = {table}")
    cfg_text = cfg_text.replace("a = 1.0", "")
    cfg = write_cfg(tmp_path, cfg_text, table="{table}")
    # format() placeholder for table resolved manually
    cfg.write_text(cfg.read_text().replace("{table}", str(table)))

    builtin = load_config(write_cfg(tmp_path, out=tmp_path / "builtin_out"))
    custom = load_config(cfg)
    s_b = run_experiment(builtin)
    s_c = run_experiment(custom)
    assert s_c.status == "ok"
    assert abs(s_c.fields["delta_spectral"] - s_b.fields["delta_spectral"]) < 1e-5


def test_run_custom_ic_from_file(tmp_path):
    ic_file = tmp_path / "u0.csv"
    eye = np.eye(3, dtype=complex)
    ic_file.write_text(
        "\n".join(",".join(str(complex(x)) for x in row) for row in eye) + "\n"
    )
    config = load_config(
        write_cfg(tmp_path),
        overrides=["run.ic=custom", f"run.ic_path={ic_file}"],
    )
    summary = run_experiment(config)
    assert summary.status == "ok"


def test_bound_violation_yields_defect_exit_code(tmp_path, monkeypatch):
    # a theorem violation is a defect signal: nonzero exit, never a warning
    import blochwave.cli as cli_mod
    from blochwave.cli import EXIT_BOUND, _exit_code
    from blochwave.errors import BoundViolated

    def forged(*args, **kwargs):
        raise BoundViolated("forged violation for exit-code plumbing")

    monkeypatch.setattr(cli_mod, "distance_report", forged)
    config = load_config(write_cfg(tmp_path))
    summary = run_experiment(config)
    assert summary.status == "error"
    assert summary.error_code == "bound_violated"
    assert _exit_code([summary]) == EXIT_BOUND


def test_exit_code_precedence_bound_over_solver_over_blowup(tmp_path):
    # a solver error must not mask the theorem-violation defect signal
    from blochwave.cli import EXIT_BOUND, EXIT_SOLVER, RunSummary, _exit_code

    config = load_config(write_cfg(tmp_path))

    def failed(code):
        return RunSummary("run", config, 10.0, {}, False, "error", error_code=code)

    bound, solver = failed("bound_violated"), failed("integrator_failure")
    blowup, bad_config = failed("blow_up"), failed("config_error")
    assert _exit_code([bound, solver]) == EXIT_BOUND
    assert _exit_code([solver, bound, blowup]) == EXIT_BOUND
    assert _exit_code([blowup, solver]) == EXIT_SOLVER
    assert _exit_code([bad_config, blowup]) == EXIT_BLOWUP
    assert _exit_code([bad_config]) == EXIT_CONFIG


def test_blowup_run_marks_and_exits_nonzero(tmp_path):
    # strong pure coupling with a vanishing drift gap: the wave operator
    # leaves its invertibility region within the window
    from tests.helpers import write_tabulated
    from blochwave import GeneratorModel

    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    static = GeneratorModel(
        name="static",
        dim=2,
        gamma=1e-7,
        drift=lambda t: -1j * z,
        drive=lambda t: -1j * x,
    )
    table = tmp_path / "blow.csv"
    write_tabulated(table, static, np.linspace(-0.5, 4.5, 26))

    text = """
[model]
name = custom
path = {table}
gamma = 1e-7

[run]
t0 = 0.0
t_final = 4.0
checkpoint_count = 41
integrator_tol = 1e-10
ic = identity
route = riccati

[output]
dir = {out}
"""
    cfg = write_cfg(tmp_path, text, name="blow.cfg", table=table)
    config = load_config(cfg)
    summary = run_experiment(config)
    assert summary.blowup
    assert summary.status == "error"
    assert summary.error_code == "blow_up"
    assert main(["run", str(cfg)]) == EXIT_BLOWUP


# --------------------------------------------------------------------- sweep

def test_sweep_single_gamma_matches_run(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG + "\n[sweep]\ngamma = 10.0\n", name="sw.cfg")
    config = load_config(cfg)
    result = sweep(config)
    sub = result["summaries"]["gamma_10_identity"]

    direct = load_config(write_cfg(tmp_path, out=tmp_path / "direct"))
    ref = run_experiment(direct)
    assert sub.fields["delta_spectral"] == ref.fields["delta_spectral"]
    assert sub.fields["delta_frobenius"] == ref.fields["delta_frobenius"]

    rows = read_csv(config.output_dir / "sweep.csv")
    # identity and stationary initial conditions, one gamma each
    assert {r["ic"] for r in rows} == {"identity", "stationary"}
    slopes = read_csv(config.output_dir / "slopes.csv")
    assert all(r["slope"] == "nan" for r in slopes)  # one point, no fit

    # the runs sharing one frame and M write what separate runs write
    for ic_kind in ("identity", "stationary"):
        label = f"gamma_10_{ic_kind}"
        alone = load_config(
            write_cfg(tmp_path, out=tmp_path / "alone" / label),
            overrides=[f"run.ic={ic_kind}"],
        )
        run_experiment(alone, label)
        for name in ("trace.csv", "summary.csv"):
            assert data_bytes(config.output_dir / label / name) == data_bytes(
                alone.output_dir / name
            )


def test_sweep_two_gammas_fits_slope(tmp_path):
    text = BASE_CFG + "\n[sweep]\ngamma = 10.0, 20.0\n"
    config = load_config(write_cfg(tmp_path, text, name="sw2.cfg"))
    result = sweep(config)
    for (ic_kind, norm), slope in result["slopes"].items():
        assert -1.6 < slope < -0.4  # O(1/gamma) scaling visible even with 2 points
    assert (config.output_dir / "gamma_20_stationary" / "trace.csv").exists()


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


SHORT_SWEEP = ["run.t_final=2", "run.checkpoint_count=11", "run.route=riccati"]


def test_sweep_builds_frame_and_m_once_per_gamma(tmp_path, monkeypatch):
    import blochwave.cli as cli_mod

    frames = _count_calls(monkeypatch, cli_mod, "build_frame")
    propagations = _count_calls(monkeypatch, cli_mod, "propagate")
    cfg = write_cfg(tmp_path, BASE_CFG + "\n[sweep]\ngamma = 10.0, 20.0\n")
    result = sweep(load_config(cfg, overrides=SHORT_SWEEP))
    assert all(s.status == "ok" for s in result["summaries"].values())
    assert len(result["summaries"]) == 4
    assert len(frames) == 2
    assert len(propagations) == 2


def test_route_all_runs_closed_form_once(tmp_path, monkeypatch):
    import blochwave.cli as cli_mod

    # Riccati is the primary route; min_block_sv comes from the closed form
    calls = _count_calls(monkeypatch, cli_mod, "closed_form_wave")
    config = load_config(
        write_cfg(tmp_path), overrides=["run.t_final=2", "run.checkpoint_count=11"]
    )
    summary = run_experiment(config)
    assert summary.status == "ok" and summary.fields["primary_route"] == "riccati"
    assert len(calls) == 1


def test_sweep_failed_propagation_fails_every_initial_condition(tmp_path, monkeypatch):
    import blochwave.cli as cli_mod
    from blochwave.cli import EXIT_SOLVER
    from blochwave.errors import IntegratorFailure

    def failing(*args, **kwargs):
        raise IntegratorFailure("forged step underflow")

    monkeypatch.setattr(cli_mod, "propagate", failing)
    calls = _count_calls(monkeypatch, cli_mod, "propagate")
    cfg = write_cfg(tmp_path, BASE_CFG + "\n[sweep]\ngamma = 10.0, 20.0\n")
    result = sweep(load_config(cfg, overrides=SHORT_SWEEP))
    assert {s.error_code for s in result["summaries"].values()} == {"integrator_failure"}
    rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert len(rows) == 4 and all(r["status"] == "error" for r in rows)
    # no M to share: each initial condition tried its own propagation
    assert len(calls) == 4
    sets = [arg for item in SHORT_SWEEP for arg in ("--set", item)]
    assert main(["sweep", str(cfg), *sets]) == EXIT_SOLVER


@pytest.mark.parametrize("gammas", ["10, 10.0000001", "10, 20, 10"])
def test_sweep_gammas_sharing_a_label_are_rejected(tmp_path, gammas):
    # both runs would write one output directory and one summaries key
    cfg = write_cfg(tmp_path, BASE_CFG + "\n[sweep]\ngamma = {gammas}\n", gammas=gammas)
    with pytest.raises(ConfigError, match=r"10\.0, 10\.0.*'gamma_10'"):
        load_config(cfg)
    assert main(["validate", str(cfg)]) == EXIT_CONFIG
    assert main(["sweep", str(cfg)]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_sweep_continues_past_blowup_runs(tmp_path):
    # every run of this sweep blows up; the sweep must mark them and finish
    from tests.helpers import write_tabulated
    from blochwave import GeneratorModel

    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    static = GeneratorModel(
        name="static", dim=2, gamma=1e-7,
        drift=lambda t: -1j * z, drive=lambda t: -1j * x,
    )
    table = tmp_path / "blow.csv"
    write_tabulated(table, static, np.linspace(-0.5, 4.5, 26))

    text = """
[model]
name = custom
path = {table}
gamma = 1e-7

[run]
t0 = 0.0
t_final = 4.0
checkpoint_count = 41
integrator_tol = 1e-10
ic = identity
route = riccati

[sweep]
gamma = 1e-7, 2e-7

[output]
dir = {out}
"""
    config = load_config(write_cfg(tmp_path, text, name="blowsweep.cfg", table=table))
    result = sweep(config)  # must not raise
    rows = read_csv(config.output_dir / "sweep.csv")
    assert all(r["status"] == "error" for r in rows)
    # identity runs reach the blow-up; stationary ones already fail to cluster
    assert all(r["blowup"] == "1" for r in rows if r["ic"] == "identity")
    codes = {
        s.error_code for s in result["summaries"].values() if s.status == "error"
    }
    assert codes == {"blow_up", "ambiguous_clustering"}
    slopes = read_csv(config.output_dir / "slopes.csv")
    assert all(r["n_points"] == "0" for r in slopes)  # nothing left to fit


def test_shipped_example_configs_validate():
    import pathlib

    examples = pathlib.Path(__file__).parent.parent / "docs" / "examples"
    for cfg in sorted(examples.glob("*.cfg")):
        config = load_config(cfg)
        config.validate()
