"""Sweep configuration, CSV output, the delta companion, and the CLI."""

import contextlib
import io
import math
import sys
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georobust import (
    FAMILIES,
    ConfigError,
    SweepConfig,
    beta_grid,
    check_src_report,
    delta_rows,
    deltas_to_csv,
    family_build,
    load_schedule,
    open_gate_metrics,
    propagator_fidelity,
    rows_to_csv,
    run_sweep,
    schedule_from_text,
    schedule_to_text,
    standard_channels,
    src_residual,
    sweep_beta,
)
from georobust.cli import load_config_file, main
from georobust.gates import NAMED_GATES, GateSpec

SMALL = dict(beta_min=-0.05, beta_max=0.05, beta_points=5)


def test_sweep_config_defaults():
    config = SweepConfig()
    assert config.families == ("dg", "ngqc", "sr-ngqc", "nhqc", "sr-nhqc")
    assert config.gammas == (0.0,)
    np.testing.assert_allclose(beta_grid(config), np.linspace(-0.1, 0.1, 41))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(families=()),
        dict(families=("dg", "bogus")),
        dict(gate="swap"),
        dict(beta_min=0.2, beta_max=0.1),
        dict(beta_max=0.7),
        dict(beta_points=0),
        dict(gammas=(math.inf,)),
        dict(gammas=(0.0, -0.0)),  # -0.0 is 0.0, so this repeats a rate
        dict(gammas=()),
        dict(gammas=(-1e-4,)),
        dict(gammas=(math.nan,)),
    ],
)
def test_sweep_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        SweepConfig(**kwargs)


def one_point(family, gate, beta, gamma):
    config = SweepConfig(families=(family,), gate=gate, beta_min=beta, beta_max=beta,
                         beta_points=1, gammas=(gamma,))
    (row,) = run_sweep(config)
    return row


def test_sweep_point_closed_matches_direct():
    sched = family_build("dg", GateSpec.not_gate())
    row = one_point("dg", "not", 0.05, 0.0)
    assert row.family == "dg"
    assert row.fidelity == pytest.approx(propagator_fidelity(sched, 0.05), abs=1e-12)
    assert row.infidelity == pytest.approx(1.0 - row.fidelity, abs=1e-15)
    assert row.leakage == 0.0
    assert row.src_residual == pytest.approx(abs(src_residual(sched)), abs=1e-9)


def test_sweep_point_open_matches_direct():
    sched = family_build("nhqc", GateSpec.hadamard())
    row = one_point("nhqc", "hadamard", 0.02, 1e-4)
    fid, leak = open_gate_metrics(sched, standard_channels("lambda", 1e-4, 1e-4), beta=0.02)
    assert row.fidelity == pytest.approx(fid, abs=1e-12)
    assert row.leakage == pytest.approx(leak, abs=1e-12)


def test_sweep_config_names_repeated_inputs():
    with pytest.raises(ConfigError, match="family 'dg' is given more than once"):
        SweepConfig(families=("dg", "ngqc", "dg"))
    with pytest.raises(ConfigError, match="gamma 0.0 is given more than once"):
        SweepConfig(gammas=(0.0, 1e-4, -0.0))
    assert SweepConfig(gammas=(-0.0, 1e-4)).gammas == (0.0, 1e-4)
    assert math.copysign(1.0, SweepConfig(gammas=(-0.0,)).gammas[0]) == 1.0


def test_beta_blocks_do_not_change_bytes(monkeypatch):
    import georobust.sweep

    config = SweepConfig(families=("dg", "nhqc"), gammas=(0.0, 1e-3), **SMALL)
    whole = rows_to_csv(run_sweep(config))
    monkeypatch.setattr(georobust.sweep, "BETA_BLOCK", 2)
    assert rows_to_csv(run_sweep(config)) == whole


def test_run_sweep_builds_each_family_once(monkeypatch):
    import georobust.sweep
    from georobust.gates import _certified

    certified = []

    def counting(family, spec):
        certified.append(family)
        return _certified(family, spec)

    monkeypatch.setattr(georobust.sweep, "_certified", counting)
    rows = run_sweep(SweepConfig(families=("ngqc", "dg"), gammas=(0.0, 1e-4), **SMALL))
    assert len(rows) == 20
    assert sorted(certified) == ["dg", "ngqc"]


@pytest.mark.parametrize("command,families", [
    (lambda: main(["build", "--family", "sr-nhqc", "--gate", "not"]), 1),
    (lambda: check_src_report(("ngqc", "sr-ngqc")), 2),
    (lambda: run_sweep(SweepConfig(families=("ngqc", "sr-ngqc"), **SMALL)), 2),
], ids=["build", "check-src", "sweep"])
def test_each_family_is_assembled_and_src_checked_once(command, families, monkeypatch, capsys):
    import georobust

    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for mod in (georobust.gates, georobust.sweep, georobust.cli):
        for name in ("assemble_schedule", "src_residual"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    command()
    capsys.readouterr()
    assert sorted(calls) == ["assemble_schedule"] * families + ["src_residual"] * families


def test_open_sweep_propagates_each_family_once_at_zero_beta(monkeypatch):
    # the certificate's U0 serves the gamma = 0 column and the open targets
    import georobust

    ideal = []

    def counted(real):
        def wrapper(schedule, beta=0.0):
            if np.ndim(beta) == 0:
                ideal.append(schedule)
            return real(schedule, beta)
        return wrapper

    for mod in (georobust.gates, georobust.robustness, georobust.lindblad):
        monkeypatch.setattr(mod, "schedule_propagator", counted(mod.schedule_propagator))
    rows = run_sweep(SweepConfig(families=("ngqc", "sr-nhqc"), gammas=(0.0, 1e-3), **SMALL))
    assert len(rows) == 20
    assert sorted(s.system for s in ideal) == ["lambda", "two"]


def test_run_sweep_row_order_and_repeatability():
    config = SweepConfig(families=("ngqc", "dg"), **SMALL)
    rows = run_sweep(config)
    assert len(rows) == 10
    keys = [(r.family, r.beta, r.gamma) for r in rows]
    assert keys == sorted(keys)
    assert rows_to_csv(rows) == rows_to_csv(run_sweep(config))


def test_sweep_beta_forces_closed_system():
    config = SweepConfig(families=("dg",), gammas=(1e-3,), **SMALL)
    rows = sweep_beta(config)
    assert all(r.gamma == 0.0 for r in rows)


def test_csv_shape_and_parseability():
    config = SweepConfig(families=("dg",), **SMALL)
    text = rows_to_csv(run_sweep(config))
    lines = text.splitlines()
    assert lines[0] == "family,beta,gamma,fidelity,infidelity,leakage,src_residual"
    assert len(lines) == 6
    cells = lines[1].split(",")
    assert cells[0] == "dg"
    # repr floats must round-trip
    assert float(cells[3]) <= 1.0 + 1e-9
    assert text.endswith("\n")
    assert "\r" not in text


def test_delta_rows_pair_families():
    config = SweepConfig(families=("dg", "ngqc", "sr-ngqc"), beta_min=0.0, beta_max=0.04,
                         beta_points=2)
    rows = run_sweep(config)
    drows = delta_rows(rows)
    pairs = {d[0] for d in drows}
    assert pairs == {"sr-ngqc-minus-dg", "ngqc-minus-dg"}
    by_key = {(r.family, r.beta, r.gamma): r.fidelity for r in rows}
    for pair, beta, gamma, delta in drows:
        first = pair.split("-minus-")[0]
        assert delta == pytest.approx(by_key[(first, beta, gamma)] - by_key[("dg", beta, gamma)], abs=1e-15)
    text = deltas_to_csv(drows)
    assert text.splitlines()[0] == "pair,beta,gamma,delta_fidelity"


def test_config_file_parsing(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# sweep setup\n"
        "family = dg, ngqc   # alias for families\n"
        "beta_min = -0.02\n"
        "beta_max = 0.02\n"
        "beta_points = 3\n"
        "gamma = 0, 1e-4\n",
        encoding="utf-8",
    )
    kwargs = load_config_file(str(path))
    assert kwargs["families"] == ("dg", "ngqc")
    assert kwargs["gammas"] == (0.0, 1e-4)
    assert kwargs["beta_points"] == 3
    config = SweepConfig(**kwargs)
    assert config.beta_min == -0.02


@pytest.mark.parametrize(
    "content",
    [
        "families dg\n",              # missing =
        "color = red\n",              # unknown key
        "beta_points = three\n",      # bad int
    ],
)
def test_config_file_rejects_bad_lines(tmp_path, content):
    path = tmp_path / "bad.cfg"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(str(path))


def test_config_file_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"gate = \xe9\n")
    with pytest.raises(ConfigError):
        load_config_file(str(path))


def test_config_file_missing():
    with pytest.raises(ConfigError):
        load_config_file("/nonexistent/sweep.cfg")


def test_cli_build_stdout(capsys):
    rc = main(["build", "--family", "ngqc", "--gate", "not"])
    captured = capsys.readouterr()
    assert rc == 0
    sched = schedule_from_text(captured.out)
    assert sched == family_build("ngqc", GateSpec.not_gate())
    assert "converged=True" in captured.err


def test_cli_build_to_file(tmp_path, capsys):
    out = tmp_path / "pulse.txt"
    rc = main(["build", "--family", "nhqc", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert load_schedule(out) == family_build("nhqc", GateSpec.not_gate())


def test_cli_build_rejects_unknown_family(capsys):
    rc = main(["build", "--family", "nope"])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_cli_build_solver_failure_is_exit_2(tmp_path, capsys):
    # sr-ngqc reaches only equatorial pi rotations: refused at once, nothing written
    for gate in ("hadamard", "identity", "x90", "z90"):
        out = tmp_path / f"{gate}.txt"
        rc = main(["build", "--family", "sr-ngqc", "--gate", gate, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2, gate
        assert "sr-ngqc reaches only equatorial pi rotations" in captured.err
        assert f"gamma={NAMED_GATES[gate].gamma!r}" in captured.err
        assert captured.out == ""
        assert not out.exists()


def test_cli_sweep_of_unreachable_gate_is_exit_2(capsys):
    rc = main(["sweep-beta", "--families", "dg,sr-ngqc", "--gate", "x90", "--beta-points", "3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "equatorial pi rotations" in captured.err
    assert captured.out == ""


def test_cli_build_dg_off_equator_is_exit_4(capsys):
    # an unreachable axis is the caller's mistake, reported before any search
    rc = main(["build", "--family", "dg", "--gate", "hadamard"])
    assert rc == 4
    assert "needs detuning" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--family", "ngqc"],
        ["sweep-beta", "--families", "dg", "--beta-points", "2"],
        ["sweep-grid", "--families", "dg", "--beta-points", "2"],
    ],
)
def test_cli_out_in_missing_directory_is_exit_4(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "result.txt"
    rc = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 4
    assert f"cannot write output file {str(out)!r}" in captured.err
    assert not out.parent.exists()


def test_cli_sweep_beta_deterministic_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep-beta", "--families", "dg", "--beta-min", "-0.05", "--beta-max", "0.05",
            "--beta-points", "5", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    capsys.readouterr()
    rc = main(argv[:-2])  # stdout instead of --out
    assert rc == 0
    assert capsys.readouterr().out.encode() == first


@pytest.mark.parametrize("flag", ["--beta-min", "--beta-max"])
def test_cli_negative_beta_in_exponent_form(tmp_path, capsys, flag):
    # "-1e-3" is a value, with or without "=", like "-0.001"
    bounds = {"--beta-min": "-2e-3", "--beta-max": "1e-3"}
    outputs = []
    for spelled in ([flag, "-1e-3"], [f"{flag}=-1e-3"], [flag, "-0.001"]):
        other = "--beta-max" if flag == "--beta-min" else "--beta-min"
        out = tmp_path / f"sweep{len(outputs)}.csv"
        argv = ["sweep-beta", "--families", "dg", "--beta-points", "3", *spelled,
                other, bounds[other], "--out", str(out)]
        assert main(argv) == 0, argv
        outputs.append(out.read_bytes())
    assert capsys.readouterr().err == ""
    assert outputs[0] == outputs[1] == outputs[2]
    assert b"dg,-0.001," in outputs[0]


@pytest.mark.parametrize("gate,longest", [("not", math.pi), ("x90", math.pi / 2)])
def test_cli_refuses_rate_past_overflow_bound(tmp_path, capsys, monkeypatch, gate, longest):
    # gamma * duration must stay finite: the bound is the largest float over
    # the longest segment, refused as bad input before anything is propagated
    import georobust

    bound = sys.float_info.max / longest
    out = tmp_path / "grid.csv"
    argv = ["sweep-grid", "--families", "dg", "--gate", gate, "--beta-points", "1",
            "--out", str(out)]
    with monkeypatch.context() as patched:
        patched.setattr(georobust.gates, "schedule_propagator", None)  # calling it fails
        for gamma in (math.nextafter(bound, math.inf),
                      1e308 if gate == "not" else sys.float_info.max):
            assert main([*argv, "--gamma", f"0,{gamma!r}"]) == 4
            err = capsys.readouterr().err
            assert f"exceeds {bound!r}" in err and "dg segment duration" in err
            assert "overflow" not in err
            assert not out.exists()
    with pytest.raises(ConfigError, match="exceeds"):
        SweepConfig(families=("nhqc", "dg"), gammas=(6e307,))
    assert main([*argv, "--gamma", repr(bound)]) == 0
    rows = out.read_text(encoding="ascii").splitlines()[1:]
    assert len(rows) == 1 and float(rows[0].split(",")[3]) == pytest.approx(0.5)


def test_cli_large_finite_rate_gives_finite_rows(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    argv = ["sweep-grid", "--families", "dg,sr-nhqc", "--beta-points", "2", "--gamma", "0,1e300",
            "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in out.read_text(encoding="ascii").splitlines()[1:]]
    assert len(rows) == 8
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:])


def test_cli_sweep_beta_rejects_bad_points(capsys):
    rc = main(["sweep-beta", "--families", "dg", "--beta-points", "0"])
    assert rc == 4
    capsys.readouterr()


def test_cli_sweep_grid_needs_out(capsys):
    rc = main(["sweep-grid", "--families", "dg"])
    assert rc == 4
    assert "--out" in capsys.readouterr().err


def test_cli_sweep_grid_fully_relaxed_point(tmp_path, capsys):
    # gamma * duration = 2000 pi: the exact channel relaxes every input to the
    # steady state, and six cardinal-state overlaps with any trace-1 state
    # average to exactly 1/2
    out = tmp_path / "grid.csv"
    rc = main(["sweep-grid", "--families", "dg", "--beta-points", "1", "--beta-min", "0",
               "--beta-max", "0", "--gamma", "0,2000", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [row[2] for row in rows] == ["0.0", "2000.0"]
    assert float(rows[1][3]) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize(
    "argv, config",
    [
        (["sweep-beta", "--steps-per-pi", "300"], None),
        (["sweep-grid", "--gamma", "0,1e-4", "--steps-per-pi", "300"], None),
        (["sweep-beta"], "steps_per_pi = 300\n"),
        (["sweep-grid", "--gamma", "0,1e-4", "--jobs", "2"], None),
        (["sweep-beta"], "jobs = 2\n"),
    ],
)
def test_cli_rejects_step_count(tmp_path, capsys, argv, config):
    # open-system points are exact, so there is no step count to set, and
    # sweeps run serially, so there is no worker count either
    knob = "jobs" if "jobs" in " ".join(argv) + (config or "") else "steps"
    extra = []
    if config is not None:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(config, encoding="utf-8")
        extra = ["--config", str(cfg)]
    out = tmp_path / "out.csv"
    rc = main([*argv, "--families", "dg", "--beta-points", "2", *extra, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 4
    assert knob in captured.err
    assert not out.exists()


def test_cli_sweep_grid_writes_delta_companion(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main(["sweep-grid", "--families", "dg,ngqc,sr-ngqc", "--gamma", "0,1e-4",
               "--beta-min", "0", "--beta-max", "0.02", "--beta-points", "2",
               "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    delta_text = (tmp_path / "grid.csv.delta.csv").read_text(encoding="utf-8")
    assert text.splitlines()[0].startswith("family,")
    # 3 families x 2 betas x 2 gammas
    assert len(text.splitlines()) == 13
    assert "sr-ngqc-minus-dg" in delta_text
    assert "ngqc-minus-dg" in delta_text


def test_cli_grid_zero_gamma_matches_sweep_beta(tmp_path, capsys):
    shared = ["--families", "dg,ngqc", "--beta-min", "-0.04", "--beta-max", "0.04",
              "--beta-points", "3"]
    beta_out = tmp_path / "beta.csv"
    grid_out = tmp_path / "grid.csv"
    assert main(["sweep-beta", *shared, "--out", str(beta_out)]) == 0
    assert main(["sweep-grid", *shared, "--gamma", "0", "--out", str(grid_out)]) == 0
    capsys.readouterr()
    assert grid_out.read_bytes() == beta_out.read_bytes()


def test_cli_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("families = dg\nbeta_points = 3\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    rc = main(["sweep-beta", "--config", str(cfg), "--beta-points", "2", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    # the command-line flag overrides the file: 2 rows + header
    assert len(out.read_text(encoding="utf-8").splitlines()) == 3


def test_cli_report_table1(capsys):
    rc = main(["report-table1"])
    captured = capsys.readouterr()
    assert rc == 0
    for fam in ("dg", "ngqc", "sr-ngqc", "nhqc", "sr-nhqc"):
        assert fam in captured.out
    assert "PASS" in captured.out
    assert "FAIL" not in captured.out


def test_cli_check_src(capsys):
    rc = main(["check-src"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "sr-ngqc" in captured.out
    assert "PASS" in captured.out
    assert "FAIL" not in captured.out


def test_cli_check_src_rejects_unknown_family(capsys):
    rc = main(["check-src", "--families", "dg,bogus"])
    assert rc == 4
    capsys.readouterr()


def test_cli_check_src_rejects_empty_family_list(capsys):
    # an empty string is a given, empty list too, not the default
    for families in (",", ""):
        rc = main(["check-src", "--families", families])
        captured = capsys.readouterr()
        assert rc == 4, families
        assert "families must not be empty" in captured.err
        assert captured.out == ""


def test_check_src_report_rejects_unknown_gate():
    with pytest.raises(ConfigError, match=r"unknown gate 'bogus', expected one of \['hadamard'"):
        check_src_report(("dg",), gate="bogus")


def test_schedule_text_round_trip_through_cli_format():
    sched = family_build("sr-nhqc", GateSpec.not_gate())
    assert schedule_from_text(schedule_to_text(sched)) == sched


@pytest.mark.parametrize(
    "argv, repeated",
    [
        (["sweep-beta", "--families", "dg,dg", "--beta-points", "2"], "family 'dg'"),
        (["sweep-grid", "--families", "dg", "--gamma", "0,1e-4,0", "--beta-points", "2"],
         "gamma 0.0"),
        (["sweep-grid", "--families", "dg", "--gamma", "0,-0", "--beta-points", "2"], "gamma 0.0"),
        (["check-src", "--families", "sr-ngqc,dg,sr-ngqc"], "family 'sr-ngqc'"),
    ],
)
def test_cli_rejects_repeated_inputs(tmp_path, capsys, argv, repeated):
    out = tmp_path / "out.csv"
    rc = main([*argv, "--out", str(out)] if argv[0] != "check-src" else argv)
    captured = capsys.readouterr()
    assert rc == 4
    assert f"{repeated} is given more than once" in captured.err
    assert captured.out == ""
    assert not out.exists()


ORDER_FAMILIES = ("sr-nhqc", "dg", "sr-ngqc", "ngqc")
ORDER_GAMMAS = (1e-3, 0.0, 1e-5)
ORDER_GRID = dict(beta_min=-0.03, beta_max=0.03, beta_points=3)


@lru_cache(maxsize=None)
def canonical_sweep_csv() -> str:
    config = SweepConfig(families=tuple(sorted(ORDER_FAMILIES)), gammas=tuple(sorted(ORDER_GAMMAS)),
                         **ORDER_GRID)
    rows = run_sweep(config)
    return rows_to_csv(rows) + deltas_to_csv(delta_rows(rows))


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(families=st.permutations(ORDER_FAMILIES), gammas=st.permutations(ORDER_GAMMAS))
def test_sweep_csv_does_not_depend_on_input_order(families, gammas):
    rows = run_sweep(SweepConfig(families=tuple(families), gammas=tuple(gammas), **ORDER_GRID))
    assert rows_to_csv(rows) + deltas_to_csv(delta_rows(rows)) == canonical_sweep_csv()


FAMILY_LISTS = ["dg", "sr-nhqc", "ngqc,sr-ngqc", "nhqc,dg", ",".join(FAMILIES), "bogus", "",
                "dg,dg"]
GATES = [*sorted(NAMED_GATES), "swap"]
SPECIAL_NUMBERS = ["-1e-3", "1e-3", "-1E-2", "-0.1", "0", "-.05", "nan", "inf", "-inf", "x"]
BETA_MIN = st.one_of(st.floats(min_value=-0.6, max_value=0.1).map(repr),
                     st.sampled_from(SPECIAL_NUMBERS))
BETA_MAX = st.one_of(st.floats(min_value=-0.1, max_value=0.6).map(repr),
                     st.sampled_from(SPECIAL_NUMBERS))
POINTS = st.sampled_from(["1", "2", "3", "0", "-1", "1e3", "x"])
GAMMAS = st.sampled_from(["0", "0,1e-4", "1e-5,2000", "0,1e300", "1e308", "-1e-4", "nan", "inf",
                          "0,0", "1e-4,-0", "x", ""])
CONFIGS = {
    "good": "families = dg, ngqc\nbeta_points = 2\ngamma = 0, 1e-4\n",
    "bad-key": "color = red\n",
    "bad-int": "beta_points = three\n",
    "negative": "beta_min = -1e-3\nbeta_max = 1e-3\nbeta_points = 2\n",
}
# most argv are well formed; the rest carry one fault
FAULTS = ["none"] * 5 + ["value missing", "unknown flag", "required flag missing"]


@st.composite
def cli_argv(draw, root):
    """A random argv over every documented subcommand and flag, with values
    valid or not; --beta-points stays at most 3, so each call is quick."""
    command = draw(st.sampled_from(["build", "sweep-beta", "sweep-grid", "report-table1",
                                    "check-src"]))
    out = str(root / draw(st.sampled_from(["out.csv", "out.csv", "missing/out.csv"])))
    config = str(root / draw(st.sampled_from([*CONFIGS, "good", "negative", "absent"])))
    families = st.sampled_from(FAMILY_LISTS)
    sweep_flags = {
        "--families": families, "--family": families, "--gate": st.sampled_from(GATES),
        "--beta-min": BETA_MIN, "--beta-max": BETA_MAX, "--beta-points": POINTS,
        "--config": st.just(config),
    }
    optional, required = {
        "build": ({"--gate": st.sampled_from(GATES), "--out": st.just(out)},
                  {"--family": st.sampled_from([*FAMILIES, "bogus"])}),
        "sweep-beta": ({**sweep_flags, "--out": st.just(out)}, {}),
        "sweep-grid": ({**sweep_flags, "--gamma": GAMMAS, "--gammas": GAMMAS},
                       {"--out": st.just(out)}),
        "report-table1": ({}, {}),
        "check-src": ({"--families": families, "--family": families,
                       "--gate": st.sampled_from(GATES)}, {}),
    }[command]
    fault = draw(st.sampled_from(FAULTS))
    chosen = [flag for flag in optional if draw(st.booleans())]
    if fault != "required flag missing":
        chosen += list(required)
    argv = [command]
    for flag in chosen:
        argv += [flag, draw({**optional, **required}[flag])]
    if command.startswith("sweep") and "--beta-points" not in chosen:
        argv += ["--beta-points", draw(st.sampled_from(["1", "2", "3"]))]
    if fault == "value missing" and len(argv) > 1:
        argv.pop()
    elif fault == "unknown flag":
        argv += ["--jobs", "2"]
    return argv


@pytest.fixture(scope="module")
def probe_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv-probe")
    for name, text in CONFIGS.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_cli_argv_probe(probe_root, data):
    # any argv over the documented flags ends in a documented exit code, with
    # a one-line reason on stderr and never a traceback or a numpy warning
    argv = data.draw(cli_argv(probe_root))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), argv
    assert [str(w.message) for w in caught] == [], argv
