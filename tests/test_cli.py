"""End-to-end tests of the command-line surface."""

import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from cvlbi.cli import main
from cvlbi.serialize import json_dumps

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
        assert "|g| <= 1 violated" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "state", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "matrix,row_label,col_label,value"


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

    def test_too_few_replications_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--replications", "10")
        assert code == 2
        assert "replications must be >= 30" in err

    def test_csv_format_rejected(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--format", "csv", "--replications", "30")
        assert code == 2
        assert "format" in err

    def test_deterministic_output(self, tmp_path):
        args = ["estimate", "--shots", "200", "--replications", "30", "--seed", "11"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_run_hits_efficiency_window(self, capsys):
        # defaults: 10^4 shots, 100 replications, seed 0
        code, out, _ = run_cli(capsys, "estimate")
        assert code == 0
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
    def test_json_reemission_byte_identical(self, tmp_path):
        path = tmp_path / "fisher.json"
        assert main(["fisher", "--epsilon", "0.3", "--g1", "0.25", "--output", str(path)]) == 0
        text = path.read_text()
        assert json_dumps(json.loads(text)) == text

    def test_csv_reemission_byte_identical(self, tmp_path):
        from cvlbi.schemes import curves_from_csv, curves_to_csv

        path = tmp_path / "curves.csv"
        assert main(["compare", "--format", "csv", "--output", str(path)]) == 0
        text = path.read_text()
        assert curves_to_csv(curves_from_csv(text)) == text


class TestExitCodes:
    def test_numerical_failure_exits_3(self, capsys):
        # extreme squeezing drives the measured covariance past the condition limit
        code, _, err = run_cli(capsys, "fisher", "--n-bar", "1e13")
        assert code == 3
        assert "singular" in err

    def test_convergence_failure_exits_3(self, capsys, monkeypatch):
        import cvlbi.estimate as estimate_module

        monkeypatch.setattr(estimate_module, "MAX_ITERATIONS", 1)
        code, out, err = run_cli(
            capsys, "estimate", "--g1", "0.3", "--shots", "1000", "--replications", "30"
        )
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: MLE did not converge")

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
