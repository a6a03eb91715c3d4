"""End-to-end tests of the command-line surface."""

import argparse
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvlbi import cli, interferometer
from cvlbi.cli import MAX_EPS_POINTS, build_parser, main
from cvlbi.estimate import MAX_REPLICATIONS, MAX_SHOTS, MIN_REPLICATIONS
from cvlbi.fisher import MAX_MC_SAMPLES, MIN_MC_SAMPLES
from cvlbi.serialize import CSV_FLOAT_DIGITS, format_float, json_dumps

FISHER_DIAG_VACUUM = 2.0 * 0.1**2 / (4.0 + 4.0 * 0.1 + 0.1**2)

#: default stdout captured by the benchmark, one file per argv below (read only)
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "bench" / "golden"
GOLDEN_ARGV = {
    "state": ["state"],
    "fisher": ["fisher"],
    "compare": ["compare"],
    "estimate": ["estimate", "--shots", "1000", "--replications", "30", "--seed", "0"],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", list(GOLDEN_ARGV))
def test_default_stdout_is_byte_identical_to_golden(capsys, name):
    code, out, err = run_cli(capsys, *GOLDEN_ARGV[name])
    assert code == 0, err
    assert out.encode() == (GOLDEN_DIR / f"{name}.out").read_bytes()


#: CSV stdout of each emitter, plus exact-mode JSON at g2 != 0 and a bandwidth
#: other than 1, one file per argv below; --mc is left out because its last
#: digits depend on the BLAS kernel
CSV_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CSV_GOLDEN_ARGV = {
    "state.csv": ["state", "--format", "csv"],
    "fisher.csv": ["fisher", "--format", "csv"],
    "compare_exact.csv": [
        "compare", "--format", "csv", "--exact-cv", "--g1", "0.3", "--eps-points", "17",
    ],
    "compare_exact.json": [
        "compare", "--exact-cv", "--g1", "0.3", "--g2", "0.2", "--delta-nu", "2.5",
        "--eps-points", "17",
    ],
}


@pytest.mark.parametrize("name", list(CSV_GOLDEN_ARGV))
def test_csv_stdout_is_byte_identical_to_golden(capsys, name):
    code, out, err = run_cli(capsys, *CSV_GOLDEN_ARGV[name])
    assert code == 0, err
    assert out.encode() == (CSV_GOLDEN_DIR / name).read_bytes()


class TestStateCommand:
    def test_reference_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "state", "--epsilon", "0.1", "--g1", "0.5", "--n-bar", "1", "--theta", "0"
        )
        assert code == 0
        payload = json.loads(out)
        v_r = payload["v_reduced"]["entries"]
        assert math.isclose(v_r[0][0], 2.05, rel_tol=1e-12)
        assert payload["v_reduced"]["ordering"] == ["x_A1", "p_A2", "x_B1", "p_B2"]
        assert payload["abbreviations"]["b"] == 3.0
        assert payload["pipeline_gap"] <= 1e-12

    def test_zero_epsilon_exits_2_naming_field(self, capsys):
        code, _, err = run_cli(capsys, "state", "--epsilon", "0")
        assert code == 2
        assert "epsilon must be > 0" in err

    def test_coherence_out_of_disk_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "state", "--g1", "0.9", "--g2", "0.9")
        assert code == 2
        assert err == "error: need finite g with |g| <= 1 (g1=0.9, g2=0.9)\n"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "state", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "matrix,row_label,col_label,value"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_pipeline_runs_once(self, capsys, monkeypatch, fmt):
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return original(cfg)

        original = interferometer.full_output_covariance
        # wherever the command could reach the pipeline from
        for module in (interferometer, cli):
            monkeypatch.setattr(module, "full_output_covariance", counted, raising=False)
        code, _, err = run_cli(capsys, "state", "--format", fmt)
        assert code == 0, err
        assert len(calls) == 1


class TestFisherCommand:
    def test_vacuum_resource_diagonal(self, capsys):
        code, out, _ = run_cli(
            capsys, "fisher", "--epsilon", "0.1", "--n-bar", "0", "--g1", "0", "--g2", "0"
        )
        assert code == 0
        payload = json.loads(out)
        diag = payload["analytic"]["entries"][0][0]
        assert math.isclose(diag, FISHER_DIAG_VACUUM, rel_tol=1e-10)
        assert math.isclose(diag, 0.0045351, rel_tol=1e-4)

    def test_monte_carlo_block_reproducible(self, tmp_path, capsys):
        args = [
            "fisher", "--mc", "--samples", "100000", "--seed", "7",
            "--epsilon", "0.1", "--n-bar", "1",
        ]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(first)]) == 0
        assert main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert payload["monte_carlo"]["samples"] == 100000

    def test_small_eps_large_squeezing_trace_norm(self, capsys):
        code, out, _ = run_cli(
            capsys, "fisher", "--epsilon", "1e-3", "--n-bar", "1e8", "--g1", "0", "--g2", "0"
        )
        assert code == 0
        payload = json.loads(out)
        trace = payload["analytic"]["trace_norm"]
        assert abs(trace / (2.0 * 1e-6) - 1.0) <= 0.05

    def test_too_few_samples_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "fisher", "--mc", "--samples", "10")
        assert code == 2
        assert "samples" in err

    def test_negative_seed_exits_2_naming_seed(self, capsys):
        code, out, err = run_cli(capsys, "fisher", "--mc", "--seed", "-1", "--samples", "1000")
        assert (code, out, err) == (2, "", "error: seed must be >= 0\n")


class TestCompareCommand:
    def test_default_grid_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "epsilon,scheme,bound,mode"
        assert len(lines) == 1 + 5 * 200

    def test_reference_row_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--format", "csv",
            "--eps-min", "0.1", "--eps-max", "1", "--eps-points", "5",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        first = {row[1]: float(row[2]) for row in rows if row[0] == "0.1"}
        assert math.isclose(first["DD"], 0.1, rel_tol=1e-9)
        assert math.isclose(first["GJC12"], 0.05, rel_tol=1e-9)
        assert math.isclose(first["CV_INF"], 0.02, rel_tol=1e-9)
        assert math.isclose(first["CV_0"], 0.01, rel_tol=1e-9)
        assert math.isclose(first["LOCAL"], 0.01, rel_tol=1e-9)

    def test_bandwidth_scaling(self, capsys):
        base = run_cli(capsys, "compare", "--format", "csv", "--eps-points", "10")[1]
        scaled = run_cli(
            capsys, "compare", "--format", "csv", "--eps-points", "10", "--delta-nu", "1e9"
        )[1]
        for row_base, row_scaled in zip(base.splitlines()[1:], scaled.splitlines()[1:]):
            bound_base = float(row_base.split(",")[2])
            bound_scaled = float(row_scaled.split(",")[2])
            assert math.isclose(bound_scaled, 1e9 * bound_base, rel_tol=1e-9)

    def test_json_report_includes_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--eps-points", "12")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["curves"]) == 5
        assert payload["ordering_report"]["entries"][0]["ranking"][0] == ["DD"]

    def test_invalid_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--eps-min", "0.5", "--eps-max", "0.1")
        assert code == 2
        assert "eps" in err

    @pytest.mark.parametrize("delta_nu", ["1e308", "inf"])
    def test_bandwidth_whose_bounds_overflow_exits_2(self, capsys, delta_nu):
        code, out, err = run_cli(capsys, "compare", "--delta-nu", delta_nu)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: delta_nu = {float(delta_nu)} is too large")


class TestEstimateCommand:
    def test_json_fields_present(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--shots", "300", "--replications", "30", "--seed", "3"
        )
        assert code == 0
        payload = json.loads(out)
        for key in ("config", "shots", "replications", "g_hat_mean", "cov_hat",
                    "crb", "trace_ratio", "seed"):
            assert key in payload
        assert payload["shots"] == 300

    def test_single_shot_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--shots", "1", "--replications", "30", "--seed", "2"
        )
        assert code == 0
        assert json.loads(out)["trace_ratio"] > 0.0

    def test_says_when_no_fit_left_its_start(self, capsys):
        # at eps 1e-9 the gradient is already below tolerance at both starts
        args = ["estimate", "--epsilon", "1e-9", "--shots", "1000", "--replications", "30"]
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        assert err == (
            "warning: every fit stopped at 0 iterations; the estimates are the "
            "starting points, not maximum-likelihood estimates\n"
        )
        assert json.loads(out)["trace_ratio"] < 1e-10

    def test_too_few_replications_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--replications", "10")
        assert code == 2
        assert "replications must be in [30, 100000]" in err

    def test_csv_format_rejected(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--format", "csv", "--replications", "30")
        assert code == 2
        assert "unrecognized arguments: --format csv" in err

    def test_negative_seed_exits_2_naming_seed(self, capsys):
        code, out, err = run_cli(
            capsys, "estimate", "--seed", "-1", "--shots", "100", "--replications", "30"
        )
        assert (code, out, err) == (2, "", "error: seed must be >= 0\n")

    def test_deterministic_output(self, tmp_path):
        args = ["estimate", "--shots", "200", "--replications", "30", "--seed", "11"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_run_hits_efficiency_window(self, capsys):
        # defaults: 10^4 shots, 100 replications, seed 0
        code, out, err = run_cli(capsys, "estimate")
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["shots"] == 10_000 and payload["replications"] == 100
        assert 0.8 <= payload["trace_ratio"] <= 1.5
        assert payload["efficiency_ok"]


class TestConfigFile:
    def test_config_file_supplies_values(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("epsilon = 0.2\ng1 = 0.5\nn-bar = 1\ntheta = 0\n")
        code, out, _ = run_cli(capsys, "state", "--config", str(config))
        assert code == 0
        payload = json.loads(out)
        assert math.isclose(payload["abbreviations"]["a"], 1.2, rel_tol=1e-12)
        assert math.isclose(payload["abbreviations"]["c"], 0.1, rel_tol=1e-12)

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("epsilon = 0.2\n")
        code, out, _ = run_cli(capsys, "state", "--config", str(config), "--epsilon", "0.4")
        assert code == 0
        assert math.isclose(json.loads(out)["abbreviations"]["a"], 1.4, rel_tol=1e-12)

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("fluxcapacitor = 1\n")
        code, _, err = run_cli(capsys, "state", "--config", str(config))
        assert code == 2
        assert "unknown config key" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "state", "--config", "/nonexistent/run.cfg")
        assert code == 2


class TestRoundTrips:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fisher", "--epsilon", "0.3", "--g1", "0.25"],
            ["state"],
            ["fisher", "--mc", "--samples", "2000"],
            ["estimate", "--shots", "100", "--replications", "30"],
        ],
        ids=["fisher", "state", "fisher-mc", "estimate"],
    )
    def test_json_reemission_byte_identical(self, tmp_path, argv):
        path = tmp_path / "out.json"
        assert main([*argv, "--output", str(path)]) == 0
        text = path.read_text()
        assert json_dumps(json.loads(text)) == text

    @pytest.mark.parametrize(
        "argv",
        [
            ["state"],
            ["fisher", "--mc", "--samples", "2000"],
            ["compare"],
            ["compare", "--exact-cv", "--g1", "0.3"],
        ],
        ids=["state", "fisher-mc", "compare", "compare-exact"],
    )
    def test_csv_floats_reformat_to_themselves(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0, err
        header, *rows = (line.split(",") for line in out.splitlines())
        columns = [i for i, name in enumerate(header) if name in ("epsilon", "bound", "value")]
        values = [row[i] for row in rows for i in columns]
        assert values and [format_float(float(v), CSV_FLOAT_DIGITS) for v in values] == values

    def test_csv_reemission_byte_identical(self, tmp_path):
        from cvlbi.schemes import curves_from_csv, curves_to_csv

        path = tmp_path / "curves.csv"
        assert main(["compare", "--format", "csv", "--output", str(path)]) == 0
        text = path.read_text()
        assert curves_to_csv(curves_from_csv(text)) == text


class TestExitCodes:
    def test_numerical_failure_exits_3(self, capsys):
        # extreme squeezing drives the measured covariance past the condition limit;
        # state never checks it, so it still reports the covariance
        code, _, err = run_cli(capsys, "fisher", "--n-bar", "1e13")
        assert code == 3
        assert "numerically singular" in err
        code, out, _ = run_cli(capsys, "state", "--n-bar", "1e13")
        assert code == 0 and out

    def test_capped_fits_warn_and_exit_0(self, capsys, monkeypatch):
        import cvlbi.estimate as estimate_module

        monkeypatch.setattr(estimate_module, "MAX_ITERATIONS", 1)
        code, out, err = run_cli(
            capsys, "estimate", "--g1", "0.3", "--shots", "1000", "--replications", "30"
        )
        assert code == 0
        assert json.loads(out)["replications"] == 30
        assert "warning: 30 of 30 fits stopped at the iteration cap (1 iterations)\n" in err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "state", "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: output: ")
        assert not target.exists()


class TestOverflowingSqueezing:
    @pytest.mark.parametrize("command", ["state", "fisher"])
    def test_exits_2_naming_n_bar_without_warnings(self, capsys, command):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, command, "--n-bar", "1e200")
        assert code == 2 and out == ""
        assert err.startswith("error: n_bar")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["state", "fisher"])
    def test_subprocess_stderr_has_no_runtime_warning(self, command):
        proc = subprocess.run(
            [sys.executable, "-m", "cvlbi", command, "--n-bar", "1e200"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith("error: n_bar")


class TestSizeLimits:
    """Absurd sizes exit 2 naming the field, before anything of that size is allocated."""

    #: far below what even one shot, sample or grid point of 10**12 would take
    PEAK_BYTES = 2_000_000

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["estimate", "--shots"], "shots"),
            (["estimate", "--replications"], "replications"),
            (["compare", "--eps-points"], "eps_points"),
            (["fisher", "--mc", "--samples"], "samples"),
        ],
    )
    def test_exits_2_without_allocating(self, capsys, argv, field):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv, str(10**12))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith(f"error: {field} must be ")
        assert peak < self.PEAK_BYTES


class TestProcessInterface:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cvlbi", "state", "--epsilon", "0.1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["abbreviations"]["a"] == 1.1

    def test_validation_exit_code_in_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cvlbi", "state", "--epsilon", "-4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_import_loads_no_scipy(self):
        code = "import sys, cvlbi; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_missing_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cvlbi"], capture_output=True, text=True
        )
        assert proc.returncode == 2


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser, read from build_parser()."""
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def option_strings(command: str) -> set[str]:
    """Every option string the subcommand's parser takes."""
    return {s for action in subcommand_parsers()[command]._actions for s in action.option_strings}


COMMON_OPTIONS = {"-h", "--help", "--config", "--output", "-o"}
MODEL_OPTIONS = {"--epsilon", "--g1", "--g2", "--n-bar", "--theta"}

#: the option strings of each subcommand; a new or dropped option shows up as a diff here
OPTIONS = {
    "state": COMMON_OPTIONS | MODEL_OPTIONS | {"--format"},
    "fisher": COMMON_OPTIONS | MODEL_OPTIONS | {"--format", "--seed", "--mc", "--samples"},
    "compare": COMMON_OPTIONS | {"--g1", "--g2", "--delta-nu", "--format",
                                 "--eps-min", "--eps-max", "--eps-points", "--exact-cv"},
    "estimate": COMMON_OPTIONS | MODEL_OPTIONS | {"--seed", "--shots", "--replications"},
}

#: a non-default value for every value flag
FLAG_VALUES = {
    "--epsilon": "0.2", "--g1": "0.3", "--g2": "-0.2", "--n-bar": "2", "--theta": "0.5",
    "--delta-nu": "2e9", "--seed": "5", "--format": "csv", "--samples": "2000",
    "--eps-min": "0.01", "--eps-max": "0.5", "--eps-points": "7",
    "--shots": "150", "--replications": "31",
}

#: flags that keep each run small; a flag under test replaces its entry here
SMALL_RUN = {
    "state": {},
    "fisher": {"--mc": "true", "--samples": "1000"},
    "compare": {"--eps-points": "5"},
    "estimate": {"--shots": "100", "--replications": "30"},
}

SWITCHES = {"fisher": "--mc", "compare": "--exact-cv"}


def small_argv(command: str, without: str = "") -> list[str]:
    argv = [command]
    for flag, value in SMALL_RUN[command].items():
        if flag != without:
            argv += [flag, value]
    return argv


def write_config(tmp_path, text: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestOptionStrings:
    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_each_subcommand_keeps_its_option_strings(self, command):
        assert option_strings(command) == OPTIONS[command]

    def test_every_value_flag_has_a_config_case(self):
        not_values = {"-h", "--help", "--config", "--output", "-o", *SWITCHES.values()}
        flags = set().union(*OPTIONS.values()) - not_values
        assert flags == set(FLAG_VALUES)

    def test_parser_declares_39_options(self):
        # one option per add_argument call; --help is argparse's own
        parsers = subcommand_parsers().values()
        assert sum(len(parser._actions) - 1 for parser in parsers) == 39


#: every flag of every subcommand but those that pick where input and output go
READ_CASES = [
    (command, flag)
    for command in OPTIONS
    for flag in sorted(option_strings(command) - {"-h", "--help", "--config", "--output", "-o"})
]


def read_case_base(command: str, flag: str) -> list[str]:
    """A small run that the flag can change; compare reads --g1 and --g2 only under --exact-cv."""
    if flag == SWITCHES.get(command):
        return small_argv(command, without=flag)
    if command == "compare" and flag in ("--g1", "--g2"):
        return small_argv(command) + ["--exact-cv"]
    return small_argv(command)


class TestEveryFlagChangesTheRun:
    """A subcommand takes no flag it ignores: a non-default, valid value changes stdout."""

    @pytest.mark.parametrize("command, flag", READ_CASES)
    def test_non_default_value_changes_stdout(self, capsys, command, flag):
        base = read_case_base(command, flag)
        changed = [flag] if flag == SWITCHES.get(command) else [flag, FLAG_VALUES[flag]]
        code, default_out, err = run_cli(capsys, *base)
        assert code == 0, err
        code, out, err = run_cli(capsys, *base, *changed)
        assert code == 0, err
        assert out != default_out


#: flags a subcommand reads only under its switch, each with a value the run rejects
READ_UNDER_SWITCH = [
    ("compare", "--g1", "nan"), ("compare", "--g2", "1.5"),
    ("fisher", "--samples", "5"), ("fisher", "--seed", "-3"),
]


class TestFlagsCheckedWithoutTheirSwitch:
    """A flag read only under a switch is checked on every run, with the switch's message."""

    @pytest.mark.parametrize("command, flag, value", READ_UNDER_SWITCH)
    def test_bad_value_exits_2_as_under_the_switch(self, capsys, command, flag, value):
        base = small_argv(command, without=SWITCHES[command])
        under_switch = run_cli(capsys, *base, SWITCHES[command], flag, value)
        assert under_switch[:2] == (2, "")
        assert run_cli(capsys, *base, flag, value) == under_switch


class TestConfigLinesAreFlags:
    @pytest.mark.parametrize("command, flag", [(c, f) for c in OPTIONS for f in sorted(FLAG_VALUES)])
    def test_config_line_matches_flag(self, tmp_path, capsys, command, flag):
        """A line does what its flag does: the same run, or exit 2 if the subcommand lacks it."""
        value, key = FLAG_VALUES[flag], flag[2:].replace("-", "_")
        base = small_argv(command, without=flag)
        config = write_config(tmp_path, f"{key} = {value}\n")
        from_flag = run_cli(capsys, *base, flag, value)
        from_config = run_cli(capsys, *base, "--config", config)
        if flag in OPTIONS[command]:
            assert from_config == from_flag
        else:
            assert from_flag[:2] == (2, "")
            assert f"unrecognized arguments: {flag} {value}" in from_flag[2]
            assert from_config == (2, "", f"error: unknown config key: {key}\n")

    def test_output_key_writes_the_same_bytes(self, tmp_path, capsys):
        by_flag, by_key = tmp_path / "flag.json", tmp_path / "key.json"
        config = write_config(tmp_path, f"output = {by_key}\n")
        assert main(["state", "--output", str(by_flag)]) == 0
        assert main(["state", "--config", config]) == 0
        assert capsys.readouterr().out == ""
        assert by_key.read_bytes() == by_flag.read_bytes()

    @pytest.mark.parametrize("command", list(SWITCHES))
    @pytest.mark.parametrize("value, on", [("true", True), ("false", False), ("1", True),
                                           ("0", False), ("True", True), ("FALSE", False)])
    def test_switch_takes_true_false_1_0(self, tmp_path, capsys, command, value, on):
        flag = SWITCHES[command]
        base = small_argv(command, without=flag)
        expected = run_cli(capsys, *base, *([flag] if on else []))
        assert expected[0] == 0
        key = flag[2:]  # the dashed spelling, e.g. exact-cv
        config = write_config(tmp_path, f"{key} = {value}\n")
        assert run_cli(capsys, *base, "--config", config) == expected
        assert run_cli(capsys, *base, f"{flag}={value}") == expected
        assert run_cli(capsys, *base, flag, value) == expected

    def test_bare_switch_overrides_config_false(self, tmp_path, capsys):
        config = write_config(tmp_path, "mc = false\n")
        base = small_argv("fisher", without="--mc")
        with_mc = run_cli(capsys, *base, "--mc")
        assert run_cli(capsys, *base, "--config", config, "--mc") == with_mc
        assert "monte_carlo" in json.loads(with_mc[1])

    @pytest.mark.parametrize("command, key", [("state", "shots"), ("state", "mc"),
                                              ("fisher", "eps_points"), ("compare", "samples"),
                                              ("estimate", "exact-cv"), ("state", "output_path")])
    def test_key_the_subcommand_does_not_take_exits_2(self, tmp_path, capsys, command, key):
        config = write_config(tmp_path, f"g1 = 0.2\n{key} = 1\n")
        code, out, err = run_cli(capsys, command, "--config", config)
        assert (code, out, err) == (2, "", f"error: unknown config key: {key}\n")

    def test_config_key_inside_config_exits_2(self, tmp_path, capsys):
        other = write_config(tmp_path, "epsilon = 0.2\n")
        config = tmp_path / "outer.cfg"
        config.write_text(f"config = {other}\n")
        code, out, err = run_cli(capsys, "state", "--config", str(config))
        assert (code, out, err) == (2, "", "error: unknown config key: config\n")

    @pytest.mark.parametrize("line, flag", [("seed = abc", "--seed"), ("epsilon = x", "--epsilon"),
                                            ("mc = maybe", "--mc"), ("format = xml", "--format")])
    def test_badly_typed_value_exits_2_naming_flag(self, tmp_path, capsys, line, flag):
        config = write_config(tmp_path, line + "\n")
        code, out, err = run_cli(capsys, "fisher", "--config", config)
        assert (code, out) == (2, "")
        assert f"argument {flag}" in err

    def test_unknown_explicit_flag_keeps_argparse_error(self, tmp_path, capsys):
        config = write_config(tmp_path, "epsilon = 0.2\n")
        code, out, err = run_cli(capsys, "state", "--config", config, "--shots", "5")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --shots 5" in err

    @pytest.mark.parametrize("command", ["state", "compare"])
    def test_prefix_of_a_flag_is_an_unknown_key(self, tmp_path, capsys, command):
        config = write_config(tmp_path, "eps = 0.3\n")
        code, out, err = run_cli(capsys, command, "--config", config)
        assert (code, out, err) == (2, "", "error: unknown config key: eps\n")

    def test_prefix_of_a_flag_is_rejected_on_the_command_line(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--rep", "30", "--sho", "100")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --rep 30 --sho 100" in err

    @pytest.mark.parametrize("line", ["epsilon 0.2", "= 0.2"])
    def test_line_without_key_exits_2(self, tmp_path, capsys, line):
        config = write_config(tmp_path, line + "\n")
        code, _, err = run_cli(capsys, "state", "--config", config)
        assert code == 2
        assert err.startswith("error: config line 1 is not key=value")

    def test_last_line_wins_and_comments_are_skipped(self, tmp_path, capsys):
        config = write_config(tmp_path, "# flux\n\nepsilon = 0.2\nepsilon = 0.3\nepsilon=0.2\n")
        expected = run_cli(capsys, "state", "--epsilon", "0.2")
        assert run_cli(capsys, "state", "--config", config) == expected

    def test_subprocess_matches_in_process(self, tmp_path, capsys):
        config = write_config(tmp_path, "epsilon = 0.2\ng1 = 0.5\nn_bar = 3\n")
        argv = ["fisher", "--config", config, "--epsilon", "0.35"]
        proc = subprocess.run(
            [sys.executable, "-m", "cvlbi", *argv], capture_output=True, text=True
        )
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        assert json.loads(out)["parameters"] == {
            "epsilon": 0.35, "g1": 0.5, "g2": 0.0, "n_bar": 3.0, "theta": 0.0,
        }


class TestOverflowingFlux:
    @pytest.mark.parametrize("epsilon", ["1e200", "1.3e154"])
    def test_subprocess_exits_2_naming_epsilon(self, epsilon):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "cvlbi",
             "fisher", "--epsilon", epsilon, "--g1", "0.5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: epsilon = {float(epsilon)} is too large")

    @pytest.mark.parametrize(
        "argv",
        [
            ["state"],
            ["fisher", "--g1", "0.5"],
            ["estimate", "--shots", "200", "--replications", "30"],
        ],
    )
    def test_both_sides_of_the_threshold(self, capsys, largest_epsilon, argv):
        too_large = math.nextafter(largest_epsilon, math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, *argv, "--epsilon", repr(largest_epsilon))
            assert code == 0, err
            code, out, err = run_cli(capsys, *argv, "--epsilon", repr(too_large))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: epsilon = {too_large} is too large")


class TestConditioningFailure:
    def test_huge_squeezing_reports_numerically_singular(self, capsys):
        code, out, err = run_cli(capsys, "fisher", "--n-bar", "1e150")
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: measured covariance is numerically singular")


class TestUnderflowingFlux:
    def test_subprocess_exits_2_naming_epsilon(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "cvlbi",
             "fisher", "--epsilon", "1e-170"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: epsilon = 1e-170 is too small")

    @pytest.mark.parametrize(
        "argv",
        [
            ["state"],
            ["fisher", "--g1", "0.5"],
            ["estimate", "--shots", "200", "--replications", "30"],
        ],
    )
    def test_both_sides_of_the_threshold(self, capsys, smallest_epsilon, argv):
        too_small = math.nextafter(smallest_epsilon, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, *argv, "--epsilon", repr(smallest_epsilon))
            assert code == 0, err
            code, out, err = run_cli(capsys, *argv, "--epsilon", repr(too_small))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: epsilon = {too_small} is too small")


#: values for the fuzzed runs: signed zeros, a subnormal, both sides of each epsilon
#: limit, the largest floats, non-finite values, a negative and a non-number
FUZZ_TOKENS = ["0", "-0.0", "5e-324", "1e-170", "1e-9", "1", "6.7e153", "1e308",
               "inf", "-inf", "nan", "-1", "x"]

#: small valid sizes and the sizes just past each limit; never a valid but large one
FUZZ_SIZES = {
    "--shots": ["100", "1000", "0", str(MAX_SHOTS + 1)],
    "--replications": [str(MIN_REPLICATIONS), str(MIN_REPLICATIONS + 1),
                       str(MIN_REPLICATIONS - 1), str(MAX_REPLICATIONS + 1)],
    "--samples": [str(MIN_MC_SAMPLES), str(2 * MIN_MC_SAMPLES),
                  str(MIN_MC_SAMPLES - 1), str(MAX_MC_SAMPLES + 1)],
    "--eps-points": ["2", "5", "1", str(MAX_EPS_POINTS + 1)],
}

#: every flag and field name a message may cite, dashed and underscored
FIELD_NAMES = {
    name
    for parser in subcommand_parsers().values()
    for action in parser._actions
    for name in (action.dest, *(s.lstrip("-") for s in action.option_strings))
} - {"h", "help", "o"}


def fuzz_values(command: str, flag: str) -> list:
    """The values a fuzzed run may give the flag; None stands for a bare switch."""
    action = next(a for a in subcommand_parsers()[command]._actions if flag in a.option_strings)
    if flag in FUZZ_SIZES:
        return FUZZ_SIZES[flag] + FUZZ_TOKENS
    if flag == SWITCHES.get(command):
        return [None, "true", "false", *FUZZ_TOKENS]
    return [*(action.choices or ()), *FUZZ_TOKENS]


def assert_clean_exit(argv: list[str]) -> None:
    """The run returns 0, 2 or 3 with no warning or exception, and a 2 names what it rejects.

    That is a flag or field, or, for a value like -inf that argparse takes for an option
    after a switch, the argument itself.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    message = err.getvalue()
    assert code in (0, 2, 3), (argv, message)
    if code == 2:
        cited = [n for n in FIELD_NAMES if re.search(rf"\b{re.escape(n)}\b", message)]
        unrecognized = re.search(r"unrecognized arguments: (.*)", message)
        named = unrecognized and set(unrecognized.group(1).split()) <= set(argv)
        assert cited or named, (argv, message)


@st.composite
def fuzzed_runs(draw, workdir: Path):
    """argv for one run: every size flag, a third of the others, some as config lines."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv, lines = [command], []
    for flag in (f for c, f in READ_CASES if c == command):
        if flag not in FUZZ_SIZES and draw(st.integers(0, 2)) > 0:
            continue
        value = draw(st.sampled_from(fuzz_values(command, flag)))
        if value is not None and draw(st.booleans()):
            lines.append(f"{flag[2:]} = {value}")
        else:
            argv += [flag] if value is None else [flag, value]
    if lines:
        config = workdir / "run.cfg"
        config.write_text("\n".join(lines) + "\n")
        argv += ["--config", str(config)]
    output = draw(st.sampled_from([None, workdir / "out.txt", workdir]))
    if output is not None:
        argv += [draw(st.sampled_from(["--output", "-o"])), str(output)]
    return argv


class TestFuzzedCommandLine:
    """Every input exits 0, 2 or 3, and a 2 names the flag or field it rejects."""

    @pytest.mark.parametrize("command, flag", READ_CASES)
    def test_every_value_on_its_own(self, command, flag):
        # one bad value among good ones: a random draw meets a given pair about once in 10^3
        for value in fuzz_values(command, flag):
            assert_clean_exit(
                read_case_base(command, flag) + ([flag] if value is None else [flag, value])
            )

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    def test_drawn_flag_sets(self, workdir):
        @settings(max_examples=100)
        @given(fuzzed_runs(workdir))
        def run(argv):
            assert_clean_exit(argv)

        run()
