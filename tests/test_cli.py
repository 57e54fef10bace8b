"""Config parsing, the batch runner, CSV contracts, sweep mode, exit codes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochwave import ConfigError, load_tabulated_model
from blochwave.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
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


def test_checkpoint_count_too_large_to_allocate_is_a_config_error(tmp_path):
    # 1e11 checkpoints would ask numpy for hundreds of GiB; only validate runs
    cfg, sets = write_cfg(tmp_path), ["--set", "run.checkpoint_count=100000000000"]
    with pytest.raises(ConfigError, match="checkpoint_count"):
        load_config(cfg, overrides=[sets[1]])
    assert main(["validate", str(cfg), *sets]) == EXIT_CONFIG
    assert load_config(cfg, overrides=["run.checkpoint_count=1000000"]).checkpoint_count == 10**6


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
    "overrides",
    [
        ["output.seed=abc"],
        ["model.gamma=-1"],
        ["model.gamma=nan"],
        ["sweep.gamma=10, -5"],
        ["model.a=-1"],
        ["model.name=random_smooth", "model.dim=1", "model.n_blocks=1"],
        ["run.t0=-inf"],
        ["run.t_final=inf"],
        ["model.a=nan"],
        ["model.a=inf"],
        ["model.name=random_smooth", "model.dim=4", "model.n_blocks=2", "model.drive_strength=nan"],
        # refused, not truncated; a huge dim before any matrix of it is allocated
        ["model.name=random_smooth", "model.dim=2.5", "model.n_blocks=2"],
        ["model.name=random_smooth", "model.dim=4", "model.n_blocks=1.9"],
        ["model.name=random_smooth", "model.dim=4", "model.n_blocks=2", "model.seed=1.5"],
        ["model.name=random_smooth", "model.dim=1e7", "model.n_blocks=9999999"],
    ],
    ids=[
        "seed", "gamma_negative", "gamma_nan", "sweep_gamma_negative", "a_negative", "dim_1",
        "t0_inf", "t_final_inf", "a_nan", "a_inf", "drive_strength_nan",
        "dim_fractional", "n_blocks_fractional", "model_seed_fractional", "dim_huge",
    ],
)
def test_malformed_input_exits_config(tmp_path, overrides):
    # validate builds the model too, so it also catches what only the model
    # constructor checks; either way exit 2, never a traceback
    cfg = write_cfg(tmp_path)
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main(["validate", str(cfg), *sets]) == EXIT_CONFIG
    assert main(["run", str(cfg), *sets]) == EXIT_CONFIG


def test_non_utf8_config_is_a_config_error(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"\xff\xfe" + BASE_CFG.format(out=tmp_path / "out").encode())
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(cfg)
    assert main(["validate", str(cfg)]) == EXIT_CONFIG
    assert main(["run", str(cfg)]) == EXIT_CONFIG


def test_validate_builds_the_model_of_every_sweep_gamma(tmp_path):
    # a sweep config needs no model gamma of its own: each run takes its own
    text = BASE_CFG.replace("gamma = 10.0\n", "") + "\n[sweep]\ngamma = 10, 20\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["validate", str(cfg)]) == EXIT_OK
    assert main(["validate", str(cfg), "--set", "model.a=-1"]) == EXIT_CONFIG


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


def lz_table_lines(times):
    """A valid two-level tabulated model (the Landau-Zener drift, no drive)
    as CSV lines split into cells, header first."""
    from blochwave import landau_zener_model
    from tests.helpers import tabulated_lines

    return [line.split(",") for line in tabulated_lines(landau_zener_model(1.0), times)]


def custom_model_args(tmp_path, lines):
    """Command-line arguments running the table ``lines`` over [0, 2]."""
    table = tmp_path / "model.csv"
    table.write_text("\n".join(",".join(cells) for cells in lines) + "\n")
    cfg = write_cfg(tmp_path)
    sets = [
        "model.name=custom",
        f"model.path={table}",
        "run.t_final=2",
        "run.checkpoint_count=5",
        "run.integrator_tol=1e-6",
    ]
    return [str(cfg), *[arg for item in sets for arg in ("--set", item)]]


@pytest.mark.parametrize("cell", ["nan", "1"], ids=["non_finite", "hermitian"])
def test_bad_tabulated_sample_exits_config(tmp_path, cell):
    lines = lz_table_lines(np.linspace(-0.5, 2.5, 13))
    lines[3][1] = cell  # B_00 of the third sample
    args = custom_model_args(tmp_path, lines)
    assert main(["validate", *args]) == EXIT_CONFIG
    assert main(["run", *args]) == EXIT_CONFIG
    with pytest.raises(ConfigError, match="row 3"):
        load_tabulated_model(tmp_path / "model.csv", gamma=1.0)


def test_tabulated_span_short_of_the_run_exits_config_at_validation(tmp_path):
    args = custom_model_args(tmp_path, lz_table_lines(np.linspace(-0.5, 1.5, 9)))
    assert main(["validate", *args]) == EXIT_CONFIG
    assert main(["run", *args]) == EXIT_CONFIG


@st.composite
def mutated_table(draw):
    """A small valid table with one cell or row broken."""
    lines = lz_table_lines(np.linspace(-0.5, 2.5, 7))
    row = draw(st.integers(1, len(lines) - 1))
    kind = draw(st.sampled_from(["literal", "hermitian", "drop", "time"]))
    if kind == "literal":
        col = draw(st.integers(0, len(lines[0]) - 1))
        lines[row][col] = draw(
            st.sampled_from(["abc", "1+", "", "nan", "inf", "-infj", "(nan+1j)", "1e400", "(2+1j)"])
        )
    elif kind == "hermitian":
        col = draw(st.integers(1, len(lines[0]) - 1))
        lines[row][col] = draw(st.sampled_from(["1", "(0.5+1j)", "-3e-2"]))
    elif kind == "drop":
        del lines[draw(st.integers(0, len(lines) - 1))][draw(st.integers(0, len(lines[0]) - 1))]
    else:
        row = max(row, 2)
        earlier = float(lines[row - 1][0])
        lines[row][0] = repr(draw(st.sampled_from([earlier, earlier - 0.25])))
    return lines


@settings(max_examples=40, deadline=None)
@given(lines=mutated_table())
def test_fuzzed_tabulated_model_never_raises(tmp_path_factory, lines):
    args = custom_model_args(tmp_path_factory.mktemp("fuzz"), lines)
    code = main(["validate", *args])
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_CONFIG:
        assert main(["run", *args]) == EXIT_CONFIG


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
    from blochwave import bloch_effective_evolution, identity_ic
    from tests.helpers import projector_leakage

    config = load_config(
        write_cfg(tmp_path), overrides=["run.t_final=2", "run.checkpoint_count=11"]
    )
    summary = run_experiment(config)
    assert summary.status == "ok"
    trace = read_csv(config.output_dir / "trace.csv")
    m_path = summary.paths["m"]
    # the SVD of the projector products, against the Gram kernel of the slices
    expected = projector_leakage(m_path.matrices, summary.paths["frame"].blocks)
    for k in range(expected.shape[1]):
        column = np.array([float(row[f"leakage_block_{k}"]) for row in trace])
        assert np.all(np.abs(column - expected[:, k]) <= 4 * np.finfo(float).eps * expected[:, k])
        assert summary.fields[f"leakage_block_{k}"] == max(column)
    # the existence certificate, taken anew from the frame's blocks
    blocks = summary.paths["frame"].blocks
    m_eff = bloch_effective_evolution(m_path, identity_ic(blocks), blocks)
    assert [float(row["min_block_sv"]) for row in trace] == list(m_eff.block_min_sv.min(axis=1))
    # radon's block-diagonality self-check reaches the summary
    (row,) = read_csv(config.output_dir / "summary.csv")
    radon = summary.paths["u"]["radon"]
    assert float(row["radon_pi_offblock_defect"]) == radon.diagnostics["pi_offblock_defect"]
    assert float(row["radon_pi_offblock_defect"]) < 1e-12


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


def test_riccati_run_reads_min_block_sv_off_the_effective_evolution(tmp_path, monkeypatch):
    # the existence certificate comes from the SVDs M_eff already takes,
    # without a closed form run for it alone
    import blochwave.cli
    from blochwave import bloch_effective_evolution, identity_ic

    closed_form_wave = blochwave.cli.closed_form_wave
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return closed_form_wave(*args, **kwargs)

    monkeypatch.setattr(blochwave.cli, "closed_form_wave", counted)
    config = load_config(
        write_cfg(tmp_path),
        overrides=["run.route=riccati", "run.t_final=2", "run.checkpoint_count=11"],
    )
    summary = run_experiment(config)
    assert summary.status == "ok" and calls == []
    blocks = summary.paths["frame"].blocks
    m_eff = bloch_effective_evolution(summary.paths["m"], identity_ic(blocks), blocks)
    expected = m_eff.block_min_sv.min(axis=1)
    trace = read_csv(tmp_path / "out" / "trace.csv")
    assert [float(row["min_block_sv"]) for row in trace] == expected.tolist()
    assert summary.fields["min_block_sv_min"] == expected.min()


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


def custom_ic_args(tmp_path, text):
    """Command-line arguments running a short three-level job from the IC
    file holding ``text``."""
    ic_file = tmp_path / "u0.csv"
    ic_file.write_text(text)
    sets = [
        "run.ic=custom",
        f"run.ic_path={ic_file}",
        "run.t_final=1",
        "run.checkpoint_count=5",
        "run.integrator_tol=1e-6",
    ]
    return [str(write_cfg(tmp_path)), *[arg for item in sets for arg in ("--set", item)]]


@pytest.mark.parametrize(
    "text",
    ["1,0,0\n", "", "1,0\n0,1\n", "1,0,0\n0,nan,0\n0,0,1\n", "1,0,0\n0,1\n0,0,1\n"],
    ids=["one_row", "empty", "wrong_dim", "nan", "ragged"],
)
def test_malformed_custom_ic_exits_config(tmp_path, text, capsys):
    args = custom_ic_args(tmp_path, text)
    assert main(["validate", *args]) == EXIT_CONFIG
    assert main(["run", *args]) == EXIT_CONFIG
    assert "u0.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["1,0,0\n0,2,0\n0,0,1\n", "1,0,0\n0,1,0.5\n0,0,1\n"],
    ids=["diagonal", "off_block"],
)
def test_custom_ic_breaking_the_bloch_condition_exits_config(tmp_path, text, capsys):
    # a finite 3x3 matrix, but P_k U0 P_k != P_k on a block of the drift at t0
    args = custom_ic_args(tmp_path, text)
    assert main(["validate", *args]) == EXIT_CONFIG
    assert "u0.csv" in capsys.readouterr().err
    assert main(["run", *args]) == EXIT_CONFIG
    assert "u0.csv" in capsys.readouterr().out
    assert main(["sweep", *args, "--set", "sweep.gamma=10 20"]) == EXIT_CONFIG


def test_validate_of_a_custom_ic_fails_as_the_run_does_on_an_undecomposable_drift(tmp_path, capsys):
    # every sample passes the skew check (Frobenius defect 0.9e-10), but the
    # defects alternate in sign with the spline's weights at t0 = 0, midway
    # between two samples, where the interpolated defect reaches 1.33e-10:
    # the loader's check of the interpolant refuses the table for both
    from scipy.interpolate import CubicSpline

    times = np.linspace(-0.625, 3.125, 16)
    signs = np.sign(CubicSpline(times, np.eye(len(times)), axis=0)(0.0))
    rows = ["time,B_00,B_01,B_10,B_11,C_00,C_01,C_10,C_11"]
    for t, sign in zip(times, signs):
        drift = np.diag([-1j, 1j]) + sign * 0.45e-10 / np.sqrt(2.0) * np.eye(2)
        cells = [repr(float(t))] + [str(complex(x)) for x in drift.ravel()] + ["0j"] * 4
        rows.append(",".join(cells))
    table = tmp_path / "model.csv"
    table.write_text("\n".join(rows) + "\n")
    args = custom_ic_args(tmp_path, "1,0\n0,1\n")
    args += ["--set", "model.name=custom", "--set", f"model.path={table}", "--set", "model.gamma=5"]
    assert main(["validate", *args]) == EXIT_CONFIG
    assert "interpolant at t=" in capsys.readouterr().err
    assert main(["run", *args]) == EXIT_CONFIG


def test_table_whose_spline_overshoots_the_skew_check_exits_config(tmp_path, capsys):
    # every sample passes the skew check (Frobenius defect 0.9e-10 or 0),
    # t0 = 0 and t_final = 2 are samples, but the four samples around t =
    # 1.125 carry defects with the signs of the spline's weights there, so the
    # interpolated defect exceeds 1e-10 from the quarter point t = 1.0625 on
    from scipy.interpolate import CubicSpline

    times = np.linspace(-0.5, 2.5, 13)
    weights = CubicSpline(times, np.eye(len(times)), axis=0)(1.125)
    signs = np.sign(weights) * (np.abs(weights) > 0.1)
    lines = [["time", "B_00", "B_01", "B_10", "B_11", "C_00", "C_01", "C_10", "C_11"]]
    for t, sign in zip(times, signs):
        drift = np.diag([-1j, 1j]) + sign * 0.45e-10 / np.sqrt(2.0) * np.eye(2)
        lines.append([repr(float(t))] + [str(complex(x)) for x in drift.ravel()] + ["0j"] * 4)
    args = custom_model_args(tmp_path, lines)
    for command in ("validate", "run"):
        assert main([command, *args]) == EXIT_CONFIG
        assert "interpolant at t=1.0625: drift" in "".join(capsys.readouterr())


def test_drift_failing_the_decompose_skew_check_exits_config(tmp_path, capsys):
    # diag(-i, i) + 0.45e-10·1 has the skew defect 0.9e-10 in the spectral
    # norm and 1.27e-10 in the Frobenius norm that decompose takes; the loader
    # refuses what decompose would, so validate and run agree on exit 2
    drift = np.diag([-1j, 1j]) + 0.45e-10 * np.eye(2)
    lines = [["time", "B_00", "B_01", "B_10", "B_11", "C_00", "C_01", "C_10", "C_11"]]
    for t in np.linspace(-0.5, 2.5, 13):
        lines.append([repr(float(t))] + [str(complex(x)) for x in drift.ravel()] + ["0j"] * 4)
    args = custom_model_args(tmp_path, lines)
    assert main(["validate", *args]) == EXIT_CONFIG
    assert "not skew-Hermitian" in capsys.readouterr().err
    assert main(["run", *args]) == EXIT_CONFIG
    with pytest.raises(ConfigError, match="row 1 "):
        load_tabulated_model(tmp_path / "model.csv", gamma=1.0)


def test_run_whose_drift_merges_two_levels_at_t0_exits_solver(tmp_path, capsys):
    # the drift -i(1e-9 X + t Z) has one degenerate block at t = 0 and two
    # elsewhere; a batch of times straddling t = 0 is a crossing (exit 5)
    lines = [["time", "B_00", "B_01", "B_10", "B_11", "C_00", "C_01", "C_10", "C_11"]]
    for t in np.linspace(-0.5, 2.5, 13):
        drift = -1j * np.array([[t, 1e-9], [1e-9, -t]])
        lines.append([repr(float(t))] + [str(complex(x)) for x in drift.ravel()] + ["0j"] * 4)
    args = custom_model_args(tmp_path, lines)
    assert main(["run", *args]) == EXIT_SOLVER
    assert "crossing_detected" in capsys.readouterr().out


def crossing_args(tmp_path):
    """Command-line arguments running the crossing model of
    ``tests.helpers``, tabulated, over [-1, 1.2] at gamma = 5."""
    from tests.helpers import crossing_model, write_tabulated

    table = tmp_path / "crossing.csv"
    write_tabulated(table, crossing_model(), np.linspace(-1.5, 1.6, 32))
    sets = [
        "model.name=custom",
        f"model.path={table}",
        "model.gamma=5",
        "run.t0=-1",
        "run.t_final=1.2",
        "run.checkpoint_count=22",
        "run.integrator_tol=1e-8",
    ]
    return [str(write_cfg(tmp_path)), *[arg for item in sets for arg in ("--set", item)]]


def test_drift_whose_levels_cross_exits_solver_from_validate_and_run(tmp_path, capsys):
    # -i t Z crosses at t = 0, between two of the frame's 65 checkpoints; past
    # it ascending order would hand each block the other level's rate
    args = crossing_args(tmp_path)
    assert main(["validate", *args]) == EXIT_SOLVER
    assert "crossing_detected" in capsys.readouterr().err
    assert main(["run", *args]) == EXIT_SOLVER
    (row,) = read_csv(tmp_path / "out" / "summary.csv")
    assert row["status"] == "error" and row["error_code"] == "crossing_detected"


def test_validate_checks_the_labels_at_the_frame_times_without_a_transporter(tmp_path, monkeypatch):
    # validate and build_frame decompose the drift once, at the same 65
    # times; validate integrates no transporter, build_frame checks first
    import blochwave.frame
    import blochwave.models
    from blochwave import build_frame, random_smooth_model
    from tests.helpers import write_tabulated

    table = tmp_path / "model.csv"
    write_tabulated(table, random_smooth_model(4, 2, seed=3), np.linspace(-0.2, 2.2, 49))
    args = [str(write_cfg(tmp_path)), "--set", "model.name=custom", "--set", f"model.path={table}",
            "--set", "run.t_final=2"]
    decomposed = []
    decompose = blochwave.models.decompose

    def recorded(a, *rest, times=None, **kwargs):
        decomposed.append(np.array(times))
        return decompose(a, *rest, times=times, **kwargs)

    def no_transporter(*args, **kwargs):
        raise AssertionError("transporter integrated")

    monkeypatch.setattr(blochwave.models, "decompose", recorded)
    monkeypatch.setattr(blochwave.frame, "transporter", no_transporter)
    assert main(["validate", *args]) == EXIT_OK
    (checked,) = decomposed
    decomposed.clear()
    with pytest.raises(AssertionError, match="transporter integrated"):
        build_frame(load_tabulated_model(table, gamma=10.0), 0.0, 2.0)
    assert len(checked) == 65 and len(decomposed) == 1
    assert np.array_equal(decomposed[0], checked)


def test_tabulated_sweep_reads_and_decomposes_its_table_once(tmp_path, monkeypatch):
    # a table's drift and drive do not depend on gamma: validate reads the
    # file and decomposes its 65 checkpoint drifts once for four gammas, and
    # a sweep reads it once, each gamma's run writing what a standalone run
    # of that gamma writes; every gamma is still checked
    import builtins

    import blochwave.models
    from blochwave import random_smooth_model
    from tests.helpers import write_tabulated

    table = tmp_path / "model.csv"
    write_tabulated(table, random_smooth_model(4, 2, seed=3), np.linspace(-0.2, 2.2, 49))
    cfg = write_cfg(tmp_path, BASE_CFG + "\n[sweep]\ngamma = 10, 20, 40, 80\n")
    sets = ["model.name=custom", f"model.path={table}", "run.t_final=1",
            "run.checkpoint_count=6", "run.integrator_tol=1e-8", "run.route=closed_form"]
    args = [str(cfg), *[arg for item in sets for arg in ("--set", item)]]
    reads, decomposed = [], []
    decompose = blochwave.models.decompose

    def counted_open(path, *rest, **kwargs):
        reads.append(str(path))
        return builtins.open(path, *rest, **kwargs)

    def recorded(a, *rest, times=None, **kwargs):
        decomposed.append(len(times))
        return decompose(a, *rest, times=times, **kwargs)

    monkeypatch.setattr(blochwave.models, "open", counted_open, raising=False)
    monkeypatch.setattr(blochwave.models, "decompose", recorded)
    assert main(["validate", *args]) == EXIT_OK
    assert reads == [str(table)] and decomposed == [65]
    assert main(["validate", *args, "--set", "sweep.gamma=10, 0"]) == EXIT_CONFIG

    reads.clear()
    result = sweep(load_config(cfg, overrides=sets + ["sweep.gamma=10, 20"]))
    assert reads == [str(table)]
    assert {s.gamma for s in result["summaries"].values()} == {10.0, 20.0}
    alone = write_cfg(tmp_path, name="alone.cfg", out=tmp_path / "alone")
    run_experiment(load_config(alone, overrides=sets + ["model.gamma=20"]))
    for name in ("trace.csv", "summary.csv"):
        ours = read_csv(tmp_path / "out" / "gamma_20_identity" / name)
        theirs = read_csv(tmp_path / "alone" / name)
        if name == "summary.csv":  # the label and the run's own output names differ
            for row in ours + theirs:
                row.pop("label")
        assert ours == theirs


@st.composite
def mutated_ic(draw):
    """The 3x3 identity as IC CSV text with one cell, row or column broken."""
    rows = [[str(complex(x)) for x in row] for row in np.eye(3)]
    kinds = ["literal", "value", "drop_cell", "drop_row", "add_row", "add_col"]
    kind = draw(st.sampled_from(kinds))
    i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    if kind == "literal":
        rows[i][j] = draw(st.sampled_from(["abc", "1+", "", "nan", "inf", "-infj", "1e400"]))
    elif kind == "value":
        rows[i][j] = draw(st.sampled_from(["0", "2", "(0.5+1j)", "-1e-3"]))
    elif kind == "drop_cell":
        del rows[i][j]
    elif kind == "drop_row":
        del rows[i]
    elif kind == "add_row":
        rows.append(["0"] * 3)
    else:
        for row in rows:
            row.append("0")
    return "".join(",".join(row) + "\n" for row in rows)


@settings(max_examples=25, deadline=None)
@given(text=mutated_ic())
def test_fuzzed_custom_ic_never_raises(tmp_path_factory, text):
    # a malformed matrix, or a well-formed one that breaks the Bloch
    # condition, exits 2 from validate and from the run alike; any other
    # matrix passes validate, and the run ends in exit 0 or 5
    args = custom_ic_args(tmp_path_factory.mktemp("fuzz"), text)
    code = main(["validate", *args])
    assert code in (EXIT_OK, EXIT_CONFIG)
    run_code = main(["run", *args])
    assert run_code == EXIT_CONFIG if code == EXIT_CONFIG else run_code in (EXIT_OK, EXIT_SOLVER)


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
        drift_derivative=lambda t: np.zeros((2, 2), dtype=complex),
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


def test_sweep_runs_write_what_standalone_runs_write(tmp_path, monkeypatch):
    # the runs of a gamma integrate their Riccati paths in one lockstep
    # call per sweep of its windows; each run still writes its own
    # standalone data and statistics
    import blochwave.bloch

    calls = _count_calls(monkeypatch, blochwave.bloch, "solve_matrix_ivp")
    short = ["run.t_final=30", "run.checkpoint_count=151"]
    cfg = write_cfg(tmp_path, BASE_CFG + "\n[sweep]\ngamma = 10.0, 20.0\n", name="sw.cfg")
    config = load_config(cfg, overrides=short)
    summaries = sweep(config)["summaries"]
    headers = {label: read_header(config.output_dir / label / "summary.csv") for label in summaries}
    assert all(int(header["riccati_windows"]) > 1 for header in headers.values())
    sweeps = {label: int(header["riccati_sweeps"]) for label, header in headers.items()}
    per_gamma = sum(max(sweeps[f"gamma_{g}_{ic}"] for ic in ("identity", "stationary")) for g in ("10", "20"))
    assert len(calls) == per_gamma  # one per sweep of each gamma
    for gamma in ("10", "20"):
        for ic_kind in ("identity", "stationary"):
            label = f"gamma_{gamma}_{ic_kind}"
            assert summaries[label].status == "ok"
            alone = load_config(
                write_cfg(tmp_path, out=tmp_path / "alone" / label),
                overrides=[*short, f"model.gamma={gamma}", f"run.ic={ic_kind}"],
            )
            run_experiment(alone, label)
            for name in ("trace.csv", "summary.csv"):
                assert data_bytes(config.output_dir / label / name) == data_bytes(
                    alone.output_dir / name
                )
            header, alone_header = (
                read_header(out / "summary.csv") for out in (config.output_dir / label, alone.output_dir)
            )
            riccati = {k: v for k, v in header.items() if k.startswith("riccati_")}
            assert riccati and riccati == {k: alone_header[k] for k in riccati}
    assert len(calls) == per_gamma + sum(sweeps.values())  # and one per sweep of each standalone run


def test_sweep_lockstep_failure_leaves_each_run_to_itself(tmp_path, monkeypatch):
    # a failed lockstep call fails no run: each integrates its own condition
    import blochwave.cli as cli_mod
    from blochwave.errors import IntegratorFailure

    original = cli_mod.integrate_riccati

    def failing_together(frame, ic, *args, **kwargs):
        if isinstance(ic, list):
            raise IntegratorFailure("forged step underflow")
        return original(frame, ic, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "integrate_riccati", failing_together)
    cfg = write_cfg(tmp_path, BASE_CFG + "\n[sweep]\ngamma = 10.0\n", name="sw.cfg")
    config = load_config(cfg, overrides=SHORT_SWEEP)
    summaries = sweep(config)["summaries"]
    monkeypatch.setattr(cli_mod, "integrate_riccati", original)
    for label in ("gamma_10_identity", "gamma_10_stationary"):
        assert summaries[label].status == "ok"
        alone = load_config(
            write_cfg(tmp_path, out=tmp_path / "alone" / label),
            overrides=[*SHORT_SWEEP, f"run.ic={label.split('_')[-1]}"],
        )
        run_experiment(alone, label)
        assert data_bytes(config.output_dir / label / "trace.csv") == data_bytes(
            alone.output_dir / "trace.csv"
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

    # Riccati is the primary route; the closed form runs once, as its own route
    calls = _count_calls(monkeypatch, cli_mod, "closed_form_wave")
    config = load_config(
        write_cfg(tmp_path), overrides=["run.t_final=2", "run.checkpoint_count=11"]
    )
    summary = run_experiment(config)
    assert summary.status == "ok" and summary.fields["primary_route"] == "riccati"
    assert len(calls) == 1


def test_a_run_takes_the_block_basis_once_with_its_frame(tmp_path, monkeypatch):
    # the frame diagonalizes its frozen projectors and the pipeline hands that
    # basis down (stationary_ic reads it off the frame); only radon_wave,
    # handed bare blocks, takes one of its own
    import blochwave.operators

    calls = []
    original = blochwave.operators.block_basis

    def counted(blocks):
        calls.append(1)
        return original(blocks)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "blochwave" and getattr(module, "block_basis", None) is original:
            monkeypatch.setattr(module, "block_basis", counted)

    def count(cfg, overrides, out):
        calls.clear()
        config = load_config(cfg, overrides=overrides + [f"output.dir={tmp_path / out}"])
        if config.sweep_gammas is None:
            assert run_experiment(config).status == "ok"
        else:
            assert all(s.status == "ok" for s in sweep(config)["summaries"].values())
        return len(calls)

    short = ["run.t_final=2", "run.checkpoint_count=11"]
    assert count(write_cfg(tmp_path), short, "all") == 2  # the frame and radon
    lz = ["run.t0=-2", "run.t_final=2", "run.checkpoint_count=9"]
    assert count("docs/examples/landau_zener.cfg", lz, "lz") == 1  # closed form only
    sweep_cfg = write_cfg(tmp_path, BASE_CFG + "\n[sweep]\ngamma = 10.0, 20.0\n", name="sweep.cfg")
    assert count(sweep_cfg, SHORT_SWEEP, "sweep") == 2  # the frame of each gamma


def test_step_cap_estimated_once_per_run_and_per_gamma(tmp_path, monkeypatch):
    import blochwave.bloch
    import blochwave.cli as cli_mod
    import blochwave.propagation

    # propagate and the Riccati route integrate the same frame Hamiltonian
    calls = []
    original = blochwave.propagation._estimate_max_step

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (blochwave.propagation, blochwave.bloch, cli_mod):
        monkeypatch.setattr(module, "_estimate_max_step", counted, raising=False)
    config = load_config(
        write_cfg(tmp_path), overrides=["run.t_final=2", "run.checkpoint_count=11"]
    )
    assert run_experiment(config).status == "ok"
    assert len(calls) == 1
    calls.clear()
    cfg = write_cfg(tmp_path, BASE_CFG + "\n[sweep]\ngamma = 10.0, 20.0\n", name="sweep.cfg")
    sweep(load_config(cfg, overrides=SHORT_SWEEP))
    assert len(calls) == 2


def read_header(path):
    """The ``# key = value`` lines of a CSV file as a dict of strings."""
    with open(path) as fh:
        return dict(line[2:].rstrip("\n").split(" = ", 1) for line in fh if line.startswith("# "))


def test_summary_header_records_integrator_statistics(tmp_path, monkeypatch):
    import blochwave.bloch
    import blochwave.dop853
    import blochwave.propagation
    from blochwave.dop853 import MAX_NODES, Staged

    # count the right-hand-side evaluations and step attempts of every solve
    # from outside the step arithmetic.  Riccati, summed over the solver
    # calls of its sweeps: one evaluation per state a stage is taken of, and
    # per attempted step of each running window one batch of its twelve
    # stage times, which twelve stage calls then take.  Propagation: one
    # evaluation per node time asked for, in batches of at most MAX_NODES,
    # and one attempt per segment tried
    seen = {}
    original = blochwave.bloch.solve_matrix_ivp

    def counted(rhs, y0, grid, tol, max_step, *args, **kw):
        count = seen.setdefault("riccati", {"nfev": 0, "attempts": 0, "max_step": max_step})
        batches = []  # per batch of times: its size and the stage calls it served

        def coefficients(ts):
            batches.append([len(ts), 0])
            return rhs.coefficients(ts)

        def step(c, y):
            batches[-1][1] += 1
            count["nfev"] += len(y)
            return rhs.step(c, y)

        sols = original(Staged(coefficients, step), y0, grid, tol, max_step, *args, **kw)
        count["attempts"] += sum(size // 12 for size, stages in batches if stages == 12)
        return sols

    monkeypatch.setattr(blochwave.bloch, "solve_matrix_ivp", counted)
    linear, attempt = blochwave.propagation.integrate_linear, blochwave.dop853._attempt

    def counted_linear(generator, grid, atol, max_step, **kw):
        count = seen["propagate"] = {"nfev": 0, "attempts": 0, "max_step": max_step}

        def nodes(ts):
            assert len(ts) <= MAX_NODES
            count["nfev"] += len(ts)
            return generator(ts)

        def tried(generator, lo, *args):
            count["attempts"] += len(lo)
            return attempt(generator, lo, *args)

        monkeypatch.setattr(blochwave.dop853, "_attempt", tried)
        return linear(nodes, grid, atol, max_step=max_step, **kw)

    monkeypatch.setattr(blochwave.propagation, "integrate_linear", counted_linear)
    config = load_config(
        write_cfg(tmp_path), overrides=["run.t_final=30", "run.checkpoint_count=151"]
    )
    assert run_experiment(config).status == "ok"
    header = read_header(config.output_dir / "summary.csv")
    assert int(header["riccati_windows"]) > 1 and int(header["riccati_sweeps"]) > 1
    assert float(header["riccati_max_jump"]) <= config.integrator_tol
    for stage in ("propagate", "riccati"):
        count = seen[stage]
        assert int(header[f"{stage}_nfev"]) == count["nfev"] > 0
        steps = int(header[f"{stage}_n_accepted"]) + int(header[f"{stage}_n_rejected"])
        assert steps == count["attempts"] > 0
        assert float(header[f"{stage}_max_step"]) == count["max_step"]
    # the data rows carry none of it
    assert "nfev" not in data_bytes(config.output_dir / "summary.csv").decode()


def test_summary_header_records_the_composed_periods(tmp_path):
    config = load_config(write_cfg(tmp_path), overrides=["run.checkpoint_count=21"])
    assert run_experiment(config).status == "ok"
    header = read_header(config.output_dir / "summary.csv")
    assert int(header["propagate_periods"]) == int(np.floor((10.0 - 0.0) / np.pi)) == 3
    assert "periods" not in data_bytes(config.output_dir / "summary.csv").decode()
    config = load_config(
        "docs/examples/landau_zener.cfg",
        overrides=["run.t0=-2", "run.t_final=2", "run.checkpoint_count=9", f"output.dir={tmp_path / 'lz'}"],
    )
    assert run_experiment(config).status == "ok"
    header = read_header(config.output_dir / "summary.csv")
    assert "propagate_nfev" in header and "propagate_periods" not in header


def test_riccati_states_are_row_major_whatever_the_solver_layout(tmp_path, monkeypatch):
    # the CSV bytes must not depend on the memory layout of the solver's states
    import blochwave.bloch

    original = blochwave.bloch.solve_matrix_ivp
    data = {}
    for name, layout in (("C", np.ascontiguousarray), ("F", np.asfortranarray)):

        def relaid(*args, _layout=layout, **kwargs):
            sols = original(*args, **kwargs)
            for sol in sols:  # one result per problem of the call
                sol.y = _layout(sol.y)
            return sols

        monkeypatch.setattr(blochwave.bloch, "solve_matrix_ivp", relaid)
        config = load_config(
            write_cfg(tmp_path, out=tmp_path / name),
            overrides=["run.t_final=5", "run.checkpoint_count=26"],
        )
        summary = run_experiment(config)
        assert summary.paths["u"]["riccati"].matrices.flags.c_contiguous
        data[name] = [data_bytes(config.output_dir / f) for f in ("trace.csv", "summary.csv")]
    assert data["C"] == data["F"]


def test_validate_exits_config_on_an_inconsistent_period(tmp_path, monkeypatch):
    from dataclasses import replace

    import blochwave.cli as cli_mod

    cfg = write_cfg(tmp_path)
    assert main(["validate", str(cfg)]) == EXIT_OK
    original = cli_mod.build_model
    monkeypatch.setattr(cli_mod, "build_model", lambda c: replace(original(c), period=1.0))
    assert main(["validate", str(cfg)]) == EXIT_CONFIG


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma", ["1e160", "1e308"])
def test_a_huge_gamma_is_a_solver_failure_with_its_error_row(tmp_path, gamma):
    # at 1e308 gamma b overflows to inf in the frame Hamiltonian the step cap
    # samples; at 1e160 it stays finite, but the rotation's phases gamma Phi
    # keep no digit of their angles.  Either is the failure it reports, so it
    # warns nowhere
    lz = Path("docs/examples/landau_zener.cfg").read_text()
    cfg = tmp_path / "lz.cfg"
    cfg.write_text(lz + f"\n[sweep]\ngamma = 2.0, {gamma}\n")
    short = ["run.t0=-2", "run.t_final=2", "run.checkpoint_count=9"]
    sets = [arg for item in short for arg in ("--set", item)]
    out = tmp_path / "run"
    run = ["run", str(cfg), *sets, "--set", f"model.gamma={gamma}", "--set", f"output.dir={out}"]
    assert main(run) == EXIT_SOLVER
    (row,) = read_csv(out / "summary.csv")
    assert (row["status"], row["error_code"]) == ("error", "integrator_failure")
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), *sets, "--set", f"output.dir={out}"]) == EXIT_SOLVER
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 4  # both initial conditions of both gammas
    assert all(r["status"] == ("ok" if float(r["gamma"]) == 2.0 else "error") for r in rows)
    summaries = [row for path in out.glob("gamma_*/summary.csv") for row in read_csv(path)]
    failed = {r["error_code"] for r in summaries if float(r["gamma"]) != 2.0}
    assert len(summaries) == 4 and failed == {"integrator_failure"}


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
        drift_derivative=lambda t: np.zeros((2, 2), dtype=complex),
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


#: replacement values for a fuzzed config line: numbers out of range, odd
#: literals, other keys' values, interpolation syntax and section headers
ODD_VALUES = [
    "", "nan", "-inf", "1e400", "1e-320", "-1", "0", "1,2", "10 20", "abc", "%", "%(a)s",
    "%%", "custom", "stationary", "radon", "landau_zener", "random_smooth", "1e9", "[run]",
]


@st.composite
def mutated_config(draw):
    """The three-level example config with one to three lines changed:
    mostly a value replaced, else a key renamed, a line dropped,
    duplicated or moved, or a stray line inserted."""
    lines = (REPO / "docs" / "examples" / "three_level.cfg").read_text().splitlines()
    text = st.sampled_from(ODD_VALUES) | st.text(
        st.characters(min_codepoint=32, max_codepoint=126), max_size=8
    )
    for _ in range(draw(st.integers(1, 3))):
        kinds = ["value"] * 4 + ["key", "drop", "duplicate", "move", "insert"]
        kind = draw(st.sampled_from(kinds))
        assignments = [i for i, line in enumerate(lines) if "=" in line]
        if kind in ("value", "key") and assignments:
            i = draw(st.sampled_from(assignments))
            key, _, value = lines[i].partition("=")
            if kind == "value":
                lines[i] = f"{key}= {draw(text)}"
            else:
                lines[i] = f"{draw(st.sampled_from(['gamma', 'omega', 'ic_path', 'path', 'x']))} ={value}"
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "move":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        else:
            lines.insert(i, draw(text))
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None)
@given(text=mutated_config())
def test_fuzzed_config_validates_or_exits_config(tmp_path_factory, text):
    cfg = tmp_path_factory.mktemp("fuzz") / "three_level.cfg"
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) in (EXIT_OK, EXIT_CONFIG)


def test_percent_in_a_config_value_is_literal(tmp_path):
    # no interpolation: '%' is a character like any other, never a traceback
    cfg = write_cfg(tmp_path, BASE_CFG.replace("name = three_level", "name = three%level"))
    assert main(["validate", str(cfg)]) == EXIT_CONFIG
    with pytest.raises(ConfigError, match="three%level"):
        load_config(cfg)
    assert main(["validate", str(write_cfg(tmp_path)), "--set", "output.dir=100%"]) == EXIT_OK


def test_shipped_example_configs_validate():
    import pathlib

    examples = pathlib.Path(__file__).parent.parent / "docs" / "examples"
    for cfg in sorted(examples.glob("*.cfg")):
        config = load_config(cfg)
        config.validate()


# ------------------------------------------------------------------ imports

REPO = Path(__file__).resolve().parents[1]

#: validates, runs a tiny three-level and Landau-Zener job, reports the SciPy
#: modules loaded by then, then loads a tabulated model
FRESH_RUN = """
import sys
from blochwave import load_tabulated_model
from blochwave.cli import main

out, table = sys.argv[1:]
three, lz = "docs/examples/three_level.cfg", "docs/examples/landau_zener.cfg"
tiny = ["--set", "run.t_final=1", "--set", "run.checkpoint_count=5"]
assert main(["validate", three]) == 0
assert main(["run", three, *tiny, "--set", f"output.dir={out}/three"]) == 0
assert main(["run", lz, *tiny, "--set", "run.t0=-1", "--set", f"output.dir={out}/lz"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
assert load_tabulated_model(table, gamma=1.0).dim == 2
"""


def test_runs_of_analytic_models_import_no_scipy(tmp_path):
    from tests.helpers import write_tabulated

    from blochwave import landau_zener_model

    table = tmp_path / "model.csv"
    write_tabulated(table, landau_zener_model(1.0), np.linspace(-1.0, 1.0, 9))
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, str(tmp_path / "out"), str(table)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


#: validates and runs a tiny tabulated-model job, then reports the SciPy
#: modules loaded by then
FRESH_TABULATED_RUN = """
import sys
from blochwave.cli import main

out, table = sys.argv[1:]
custom = ["docs/examples/three_level.cfg", "--set", "model.name=custom", "--set", f"model.path={table}"]
tiny = ["--set", "run.t_final=1", "--set", "run.checkpoint_count=5"]
assert main(["validate", *custom, *tiny]) == 0
assert main(["run", *custom, *tiny, "--set", f"output.dir={out}"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_validate_and_run_of_a_tabulated_model_import_no_scipy(tmp_path):
    from tests.helpers import write_tabulated

    from blochwave import random_smooth_model

    table = tmp_path / "model.csv"
    write_tabulated(table, random_smooth_model(3, 2, seed=1), np.linspace(-0.2, 1.2, 29))
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-c", FRESH_TABULATED_RUN, str(tmp_path / "out"), str(table)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_benchmark_tracer_wraps_names_that_exist_and_restores_them(monkeypatch):
    # the benchmark's traced run patches these module and class attributes;
    # deleting or renaming one would crash it, so a missing name fails here
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look it up
    spec.loader.exec_module(tracer)
    with tracer.Tracer() as traced:
        patched = list(traced._patches)
        assert patched and all(getattr(owner, attr) is not fn for owner, attr, fn in patched)
    assert all(getattr(owner, attr) is fn for owner, attr, fn in patched)
    import blochwave.bloch
    import blochwave.cli

    names = {(owner, attr) for owner, attr, _ in patched}
    assert {(blochwave.cli, stage) for stage in tracer.CLI_STAGES} <= names
    assert (blochwave.bloch, "solve_matrix_ivp") in names
