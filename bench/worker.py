"""Benchmark worker: runs one workload in this process and prints what it measured.

Started by ``run.py`` with BLAS threads pinned to 1 and ``PYTHONPATH`` set to the
checkout's ``src``. It prints ``ready`` once set-up (imports, inputs, warm-up) is
done, then one JSON object as its last line.

Every run executes four segments, each a public entry point of cvlbi timed from
outside:

* ``crb``: ``crb_experiment`` at the CLI default config with g = (0.3, 0.2);
  one unit is one call (10k shots x 100 replications). The (eps, n_bar, theta)
  triple repeats, so a per-config cache would pay off here.
* ``sweep``: the per-config work of ``cvlbi state`` plus ``cvlbi fisher`` on
  1000 distinct random configs per unit. Nothing repeats, so no cache helps;
  the time goes to object construction and validation.
* ``mc``: ``fisher_monte_carlo`` with 1e6 samples; a vectorised numpy kernel
  where per-call overhead is negligible.
* ``cli``: each subcommand and a bare ``import cvlbi`` in a cold subprocess,
  one at a time (one per unit), stdout compared byte for byte with a golden.

The workload names the segment that gets the largest share of the run's time;
the segments are interleaved unit by unit, so every run reports every
end-to-end metric. With ``--trace 1`` each unit runs untraced and then traced
on the same seed (the difference is the tracing overhead), followed by direct
calls to every traced function, and the per-layer numbers come from the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import cvlbi
from cvlbi import cli, core, estimate, fisher, interferometer, schemes, states
from cvlbi.interferometer import InterferometerConfig
from spans import Tracer, instrumented

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SEGMENTS = ("crb", "sweep", "mc", "cli")

#: the CLI default config with a non-zero coherence
CRB_CONFIG = {"epsilon": 0.1, "g1": 0.3, "g2": 0.2, "n_bar": 1.0, "theta": 0.0}

#: fixed argv per cold subprocess; stdout of each is compared with golden/<name>.out
CLI_ARGV = {
    "import": ["-c", "import cvlbi"],
    "state": ["-m", "cvlbi", "state"],
    "fisher": ["-m", "cvlbi", "fisher"],
    "compare": ["-m", "cvlbi", "compare"],
    "estimate": ["-m", "cvlbi", "estimate", "--shots", "1000", "--replications", "30", "--seed", "0"],
}

SIZES = {
    "full": {"shots": 10_000, "replications": 100, "configs": 1000, "mc_samples": 1_000_000,
             "layer_reps": 200, "layer_slow_reps": 10},
    "tiny": {"shots": 1000, "replications": 30, "configs": 100, "mc_samples": 10_000,
             "layer_reps": 10, "layer_slow_reps": 1},
}

#: share of the measuring time each segment gets; the workload's own segment gets
#: FOCUS_SHARE on top. Segments are interleaved unit by unit in these proportions,
#: so every metric samples the whole run.
BASE_SHARES = {"crb": 0.15, "sweep": 0.15, "mc": 0.10, "cli": 0.35}
FOCUS_SHARE = 0.25
#: units every run measures whatever its length (a cli unit is one subprocess)
MIN_UNITS = {"crb": 1, "sweep": 1, "mc": 1, "cli": len(CLI_ARGV)}
#: units per segment in a traced run, doubled for the workload's own segment;
#: fixed, so that the exact counts repeat for a given seed
TRACE_UNITS = {"crb": 2, "sweep": 2, "mc": 2, "cli": len(CLI_ARGV)}

#: functions wrapped in spans during a traced run, by module
TRACED = {
    "core": [
        "matrix_exponential", "check_physicality", "direct_sum",
        "permute_modes", "apply_symplectic", "reduce",
    ],
    "states": ["astronomical_covariance", "tmsv_covariance_closed", "tmsv_covariance_exponential"],
    "interferometer": ["reduced_covariance_closed", "full_output_covariance", "reduced_covariance"],
    "fisher": ["fisher_analytic", "fisher_limit_closed_form", "score_vectors", "fisher_monte_carlo"],
    "estimate": ["log_likelihood", "log_likelihood_gradient", "mle", "sample_records", "crb_experiment"],
    "schemes": ["cumulative_curves", "ordering_report", "curves_to_csv"],
    "serialize": ["json_dumps"],
}

#: per-layer timing metric -> (span name, required parent span or None, factor from seconds)
LAYER_TIMINGS = {
    "core.matrix_exponential_us": ("matrix_exponential", None, 1e6),
    "core.check_physicality_us": ("check_physicality", None, 1e6),
    "states.astronomical_covariance_us": ("astronomical_covariance", None, 1e6),
    "states.tmsv_covariance_closed_us": ("tmsv_covariance_closed", None, 1e6),
    "states.tmsv_covariance_exponential_us": ("tmsv_covariance_exponential", None, 1e6),
    "interferometer.reduced_covariance_closed_us": ("reduced_covariance_closed", None, 1e6),
    "interferometer.full_output_covariance_us": ("full_output_covariance", None, 1e6),
    "interferometer.reduced_covariance_us": ("reduced_covariance", None, 1e6),
    "fisher.fisher_analytic_us": ("fisher_analytic", None, 1e6),
    "fisher.fisher_limit_closed_form_us": ("fisher_limit_closed_form", None, 1e6),
    "fisher.fisher_monte_carlo_s": ("fisher_monte_carlo", None, 1.0),
    "estimate.log_likelihood_us": ("log_likelihood", None, 1e6),
    "estimate.log_likelihood_gradient_us": ("log_likelihood_gradient", None, 1e6),
    "estimate.mle_ms": ("mle", None, 1e3),
    "estimate.sample_records_ms": ("sample_records", None, 1e3),
    "estimate.crb_experiment_s": ("crb_experiment", None, 1.0),
    "schemes.cumulative_curves_exact_ms": ("cumulative_curves", "layers", 1e3),
    "schemes.ordering_report_ms": ("ordering_report", None, 1e3),
    "schemes.curves_to_csv_ms": ("curves_to_csv", None, 1e3),
    "serialize.json_dumps_compare_ms": ("json_dumps", "main_compare", 1e3),
    "serialize.json_dumps_estimate_ms": ("json_dumps", "main_estimate", 1e3),
    "cli.main_state_ms": ("main_state", None, 1e3),
    "cli.main_fisher_ms": ("main_fisher", None, 1e3),
    "cli.main_compare_ms": ("main_compare", None, 1e3),
    "cli.main_estimate_ms": ("main_estimate", None, 1e3),
}

#: bytes one Monte Carlo sample moves through the kernel, from its array sizes:
#: normals written; Cholesky product read and written; two einsum quadratic
#: forms reading x twice; two score arrays; three products with their sums and
#: squares; the score sums and squares
MC_BYTES_PER_SAMPLE = 32 + 64 + 2 * (64 + 8) + 2 * 32 + 3 * 24 + 3 * 8 + 3 * 24 + 3 * 8 + 2 * 8 + 2 * 24 + 2 * 8

#: pipeline against closed form, scaled by the matrix's largest entry (float resolution)
PIPELINE_TOL = 1e-12
#: closed-form against exponential TMSV, scaled the same way
TMSV_TOL = 1e-10
#: every k-th sweep config also gets the TMSV cross-check, outside the timed region
TMSV_CHECK_EVERY = 50

_SEGMENT_IDS = {"crb": 1, "sweep": 2, "mc": 3, "layers": 4}


def unit_seed(seed: int, segment: str, index: int) -> int:
    """The seed of one unit, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, _SEGMENT_IDS[segment], index]).generate_state(1)[0])


def sweep_inputs(seed: int, index: int, n: int):
    """n random configs: eps log-uniform on [1e-4, 1], g uniform on the unit disk,
    n_bar log-uniform on [1e-6, 1e4], theta uniform; as Python floats."""
    rng = np.random.default_rng(unit_seed(seed, "sweep", index))
    eps = 10.0 ** rng.uniform(-4.0, 0.0, n)
    radius = np.sqrt(rng.uniform(0.0, 1.0, n))
    phase = rng.uniform(0.0, 2.0 * math.pi, n)
    n_bar = 10.0 ** rng.uniform(-6.0, 4.0, n)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return list(zip(*(a.tolist() for a in (eps, radius * np.cos(phase), radius * np.sin(phase), n_bar, theta))))


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(a, dtype=float)))) for a in arrays)


def _not_psd(matrices: np.ndarray) -> np.ndarray:
    """Mask of the 2x2 matrices in a stack that fail FisherMatrix's PSD floor."""
    scale = np.maximum(1.0, np.max(np.abs(matrices), axis=(1, 2)))
    return np.linalg.eigvalsh(matrices)[:, 0] < fisher.PSD_FLOOR * scale


class Bench:
    def __init__(self, workload: str, seed: int, size: str):
        self.workload = workload
        self.seed = seed
        self.size = SIZES[size]
        self.cfg = InterferometerConfig.from_values(**CRB_CONFIG)
        self.analytic = fisher.fisher_analytic(self.cfg).entries
        self.goldens = {name: (GOLDEN_DIR / f"{name}.out").read_bytes() for name in CLI_ARGV}
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.fingerprints: dict[tuple, tuple] = {}
        #: per crb unit, (iterations, on_boundary) of each replication's MLE (traced runs)
        self.mle_counts: dict[int, list] = {}
        self.child_rss_kb = 0
        #: (segment, start s, duration s) of each measured unit
        self.unit_log: list[tuple[str, float, float]] = []

    # -- bookkeeping ---------------------------------------------------------

    def tally(self, what: str, ops: int, problems: list[str]) -> None:
        self.attempted += ops
        self.failures.extend(f"{what}: {p}" for p in problems)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext(-1)

    def run_unit(self, segment: str, index: int, rerun: bool = False) -> int:
        """Run one unit; a rerun is compared bitwise with the first run of that unit.
        Returns the index of the unit's root span (-1 untraced)."""
        unit = getattr(self, f"{segment}_unit")
        with self.span("loop") as root:
            try:
                ops, problems = unit(index, rerun)
            except Exception as exc:  # a failed unit counts in error_rate; the run goes on
                ops, problems = 1, [f"{type(exc).__name__}: {exc}"]
        self.tally(f"{segment}[{index}]", ops, problems)
        return root

    @staticmethod
    def _one_op(problems: list[str]) -> list[str]:
        """The problems of a one-operation unit, as one failure."""
        return ["; ".join(problems)] if problems else []

    def _fingerprint(self, key, value, rerun) -> list[str]:
        if not rerun:
            self.fingerprints[key] = value
            return []
        return [] if value == self.fingerprints[key] else ["rerun with the same seed is not bitwise identical"]

    # -- segments: each unit returns (operations attempted, problems) ---------

    def crb_unit(self, index: int, rerun: bool):
        seed = unit_seed(self.seed, "crb", index)
        mle_before = len(self.tracer.results["mle"]) if self.tracer else 0
        start = time.perf_counter()
        result = estimate.crb_experiment(self.cfg, self.size["shots"], self.size["replications"], seed)
        elapsed = time.perf_counter() - start
        problems = []
        if not _finite(result.g_hat_mean, result.covariance_hat, result.crb, result.trace_ratio):
            problems.append("non-finite estimate")
        if math.hypot(*result.g_hat_mean) > 1.0:
            problems.append("|g_hat_mean| > 1")
        fingerprint = (
            np.asarray(result.g_hat_mean).tobytes(), result.covariance_hat.tobytes(),
            result.crb.tobytes(), result.trace_ratio, result.boundary_count,
        )
        if self.tracer:
            fits = self.tracer.results["mle"][mle_before:]
            if any(math.hypot(*fit.g) > 1.0 for fit in fits):
                problems.append("an estimate has |g| > 1")
            counts = [(fit.iterations, fit.on_boundary) for fit in fits]
            if self.mle_counts.setdefault(index, counts) != counts:
                problems.append("MLE iteration or boundary counts differ between same-seed runs")
        problems += self._fingerprint(("crb", index), fingerprint, rerun)
        if not rerun:
            self.samples["crb"].append(elapsed)
            self.samples["trace_ratio"].append(result.trace_ratio)
        return 1, self._one_op(problems)

    def sweep_unit(self, index: int, rerun: bool):
        configs = sweep_inputs(self.seed, index, self.size["configs"])
        latencies, outputs = [], []
        bad: dict[int, list[str]] = defaultdict(list)  # at most one failure per config
        pass_start = time.perf_counter()
        for k, (eps, g1, g2, n_bar, theta) in enumerate(configs):
            start = time.perf_counter()
            try:
                cfg = InterferometerConfig.from_values(eps, g1, g2, n_bar, theta)
                reduced = interferometer.reduced_covariance(cfg)
                gap = reduced.pipeline_gap
                analytic = fisher.fisher_analytic(cfg)
                zero = fisher.fisher_limit_closed_form(eps, g1, g2, fisher.LIMIT_ZERO)
                inf = fisher.fisher_limit_closed_form(eps, g1, g2, fisher.LIMIT_INFINITY)
            except Exception as exc:  # counted per config in error_rate
                bad[k].append(f"{type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - start)
            outputs.append((k, cfg, reduced.v_r.entries, gap, analytic.entries, zero.entries, inf.entries))
        elapsed = time.perf_counter() - pass_start
        if not rerun:
            self.samples["sweep"].append(elapsed)
            self.samples["config_latency"].extend(latencies)

        # checks outside the timed region
        if outputs:
            v_r = np.stack([o[2] for o in outputs])
            gaps = np.array([o[3] for o in outputs])
            fishers = np.stack([m for o in outputs for m in o[4:]])
            scale = np.maximum(1.0, np.max(np.abs(v_r), axis=(1, 2)))
            finite = np.isfinite(v_r).all(axis=(1, 2)) & np.isfinite(fishers).reshape(len(outputs), -1).all(axis=1)
            for i in np.flatnonzero(~finite):
                bad[outputs[i][0]].append("non-finite output")
            for i in np.flatnonzero(~(gaps <= PIPELINE_TOL * scale)):
                bad[outputs[i][0]].append(f"pipeline_gap {gaps[i]:.3e}")
            for i in np.flatnonzero(_not_psd(fishers)):
                bad[outputs[i // 3][0]].append("Fisher matrix not PSD")
        failures = [f"config {k}: {'; '.join(messages)}" for k, messages in sorted(bad.items())]
        checked = outputs[::TMSV_CHECK_EVERY]
        for k, cfg, *_ in checked:
            closed = states.tmsv_covariance_closed(cfg.resource).entries
            expo = states.tmsv_covariance_exponential(cfg.resource).entries
            tmsv_gap = float(np.max(np.abs(closed - expo)))
            if not tmsv_gap <= TMSV_TOL * max(1.0, float(np.max(np.abs(closed)))):
                failures.append(f"config {k}: TMSV closed vs exponential gap {tmsv_gap:.3e}")
        return len(configs) + len(checked), failures

    def mc_unit(self, index: int, rerun: bool):
        seed = unit_seed(self.seed, "mc", index)
        start = time.perf_counter()
        result = fisher.fisher_monte_carlo(self.cfg, self.size["mc_samples"], seed)
        elapsed = time.perf_counter() - start
        entries = result.fisher.entries
        problems = []
        if not _finite(entries, result.standard_error, result.score_mean, result.score_se):
            problems.append("non-finite output")
        elif _not_psd(entries[None]).any():
            problems.append("Fisher matrix not PSD")
        fingerprint = tuple(a.tobytes() for a in (entries, result.standard_error, result.score_mean, result.score_se))
        problems += self._fingerprint(("mc", index), fingerprint, rerun)
        if not rerun:
            self.samples["mc"].append(elapsed)
            self.samples["mc_deviation_se"].append(
                float(np.max(np.abs(entries - self.analytic) / result.standard_error))
            )
        return 1, self._one_op(problems)

    def cli_unit(self, index: int, rerun: bool):
        name = list(CLI_ARGV)[index % len(CLI_ARGV)]
        with self.span(name):
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *CLI_ARGV[name]], cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL
            )
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            elapsed = time.perf_counter() - start
        self.samples[f"cli_{name}"].append(elapsed)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            return 1, [f"{name}: exit code {proc.returncode}"]
        if out != self.goldens[name]:
            return 1, [f"{name}: stdout differs from golden/{name}.out"]
        return 1, []

    # -- schedules -------------------------------------------------------------

    def setup(self) -> None:
        """Warm-up: one small call into every segment's code path."""
        estimate.crb_experiment(self.cfg, 100, estimate.MIN_REPLICATIONS, 0)
        fisher.fisher_monte_carlo(self.cfg, fisher.MIN_MC_SAMPLES, 0)
        for eps, g1, g2, n_bar, theta in sweep_inputs(self.seed, 0, 3):
            cfg = InterferometerConfig.from_values(eps, g1, g2, n_bar, theta)
            interferometer.reduced_covariance(cfg).pipeline_gap
            fisher.fisher_analytic(cfg)
            fisher.fisher_limit_closed_form(eps, g1, g2, fisher.LIMIT_ZERO)

    def measure(self, seconds: float) -> None:
        """Run next the segment furthest below its share of the time spent so far,
        until the budget is spent and every segment has its minimum."""
        share = {s: BASE_SHARES[s] + (FOCUS_SHARE if s == self.workload else 0.0) for s in SEGMENTS}
        spent = dict.fromkeys(SEGMENTS, 0.0)
        done = dict.fromkeys(SEGMENTS, 0)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or any(done[s] < MIN_UNITS[s] for s in SEGMENTS):
            segment = min(SEGMENTS, key=lambda s: (done[s] >= MIN_UNITS[s], spent[s] / share[s]))
            unit_start = time.perf_counter()
            self.run_unit(segment, done[segment])
            elapsed = time.perf_counter() - unit_start
            self.unit_log.append((segment, unit_start - start, elapsed))
            spent[segment] += elapsed
            done[segment] += 1
        # the first crb and mc units again, untimed: results must be bitwise equal
        self.run_unit("crb", 0, rerun=True)
        self.run_unit("mc", 0, rerun=True)

    def trace(self, spans_path: str | None) -> dict:
        """Each unit untraced and then traced on the same seed, then the direct calls.

        Alternating the two keeps the machine's drift out of the tracing overhead.
        The traced run of a unit is compared bitwise with the untraced one, and one
        more traced crb unit checks that the MLE counts repeat.
        """
        tracer = Tracer(keep_results=["mle"])
        values, roots = {}, {}
        units = {s: n * (2 if s == self.workload else 1) for s, n in TRACE_UNITS.items()}
        for segment in SEGMENTS:
            walls, roots[segment] = [0.0, 0.0], []
            for index in range(units[segment]):
                start = time.perf_counter()
                self.run_unit(segment, index)
                walls[0] += time.perf_counter() - start
                self.tracer = tracer
                with instrumented(tracer, TRACED):
                    start = time.perf_counter()
                    roots[segment].append(self.run_unit(segment, index, rerun=True))
                    walls[1] += time.perf_counter() - start
                self.tracer = None
            values[f"{segment}.untraced_ms"] = walls[0] * 1e3
            values[f"{segment}.trace_overhead_ms"] = (walls[1] - walls[0]) * 1e3
        self.tracer = tracer
        with instrumented(tracer, TRACED):
            self.run_unit("crb", 0, rerun=True)
            self.layers()
        self.tracer = None
        if spans_path:
            tracer.write_csv(spans_path)
        for segment in SEGMENTS:
            for name, seconds in tracer.self_times(roots[segment]).items():
                values[f"{segment}.{name}.self_ms"] = seconds * 1e3
        return self.layer_values(tracer, values)

    def layers(self) -> None:
        """Direct calls to every traced function at the crb config."""
        cfg, reps = self.cfg, self.size["layer_reps"]
        with self.span("layers"):
            record = estimate.sample_records(cfg, self.size["shots"], unit_seed(self.seed, "layers", 0))
            full = interferometer.full_output_covariance(cfg)
            generator = states.tmsv_generator(cfg.resource)
            g1, g2 = CRB_CONFIG["g1"], CRB_CONFIG["g2"]
            grid = np.geomspace(1e-4, 1.0, 200)  # the compare subcommand's default grid
            for _ in range(reps):
                core.matrix_exponential(generator)
                core.check_physicality(full)
                states.astronomical_covariance(cfg.source)
                states.tmsv_covariance_closed(cfg.resource)
                states.tmsv_covariance_exponential(cfg.resource)
                interferometer.reduced_covariance_closed(cfg)
                interferometer.full_output_covariance(cfg)
                interferometer.reduced_covariance(cfg)
                fisher.fisher_analytic(cfg)
                fisher.fisher_limit_closed_form(cfg.source.epsilon, g1, g2, fisher.LIMIT_ZERO)
                estimate.log_likelihood(record, g1, g2)
                estimate.log_likelihood_gradient(record, g1, g2)
            for j in range(1, 1 + self.size["layer_slow_reps"]):
                fisher.score_vectors(cfg, record.outcomes)
                estimate.sample_records(cfg, self.size["shots"], unit_seed(self.seed, "layers", j))
                estimate.mle(record)
                curves = schemes.cumulative_curves(grid, 1.0, exact_cv=True)
                schemes.ordering_report(grid, 1.0)
                schemes.curves_to_csv(curves)
            problems = []
            for name, argv in CLI_ARGV.items():
                if name == "import":
                    continue
                for _ in range(3):
                    out = io.StringIO()
                    with self.span(f"main_{name}"), contextlib.redirect_stdout(out):
                        code = cli.main(argv[2:])
                    text = out.getvalue().encode()
                    if code != 0 or text != self.goldens[name]:
                        problems.append(f"in-process {name}: exit {code} or stdout differs from golden")
                self.samples[f"output_bytes_{name}"].append(len(text))
        self.tally("layers", 4 * 3, problems)

    def layer_values(self, tracer: Tracer, values: dict) -> dict:
        for metric, (name, parent, factor) in LAYER_TIMINGS.items():
            durations = tracer.durations(name, parent)
            if durations:
                values[metric] = statistics.median(durations) * factor
        rows = self.size["shots"]
        values["fisher.score_vectors_ns_per_row"] = statistics.median(tracer.durations("score_vectors")) * 1e9 / rows
        values["fisher.monte_carlo_computed_mb"] = MC_BYTES_PER_SAMPLE * self.size["mc_samples"] / 1e6
        values["fisher.monte_carlo_deviation_se"] = statistics.median(self.samples["mc_deviation_se"])
        fits = [fit for counts in self.mle_counts.values() for fit in counts]
        values["estimate.mle_iterations"] = sum(iterations for iterations, _ in fits)
        values["estimate.mle_boundary_hits"] = sum(int(on_boundary) for _, on_boundary in fits)
        values["estimate.mle_zero_iterations"] = sum(int(iterations == 0) for iterations, _ in fits)
        values["estimate.trace_ratio"] = statistics.median(self.samples["trace_ratio"])
        values["serialize.output_bytes_compare"] = self.samples["output_bytes_compare"][-1]
        values["serialize.output_bytes_estimate"] = self.samples["output_bytes_estimate"][-1]
        return values

    def end_to_end(self) -> dict:
        s = self.samples
        latency_us = np.asarray(s["config_latency"]) * 1e6
        values = {
            "replications_per_s": statistics.median(self.size["replications"] / t for t in s["crb"]),
            "configs_per_s": statistics.median(self.size["configs"] / t for t in s["sweep"]),
            "config_p50_us": float(np.percentile(latency_us, 50)),
            "config_p99_us": float(np.percentile(latency_us, 99)),
            "samples_per_s": statistics.median(self.size["mc_samples"] / t for t in s["mc"]),
        }
        for name in CLI_ARGV:
            values["import_s" if name == "import" else f"cli_{name}_s"] = statistics.median(s[f"cli_{name}"])
        return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=SEGMENTS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true", help="exit once set-up is done")
    parser.add_argument("--spans", metavar="PATH", help="write the traced run's spans here as CSV")
    args = parser.parse_args(argv)

    bench = Bench(args.workload, args.seed, args.size)
    bench.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        values = bench.trace(args.spans)
    else:
        bench.measure(args.seconds)
        values = bench.end_to_end()
    own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values["peak_rss_mb"] = max(own_rss_kb, bench.child_rss_kb) / 1024.0
    counts = {k: len(v) for k, v in bench.samples.items()}
    report = {
        "values": values,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "failures": bench.failures[:1000],
        "sample_counts": counts,
        "unit_log": bench.unit_log,
        "seeds": {
            segment: [unit_seed(args.seed, segment, i) for i in range(counts.get(segment, 0))]
            for segment in ("crb", "sweep", "mc")
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cvlbi": cvlbi.__version__,
            "size": args.size,
            "sizes": bench.size,
        },
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
