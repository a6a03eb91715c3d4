"""Layered benchmark for cvlbi.

Run from the repository root:

    python3 bench/run.py --workload {crb,sweep} --seed N --seconds S --trace {0,1}

Workloads, metrics, units and bounds are declared in BENCHMARK.json. With
``--trace 0`` the last line of stdout is one JSON object with every end-to-end
metric; with ``--trace 1`` it holds every per-layer metric, taken from spans
recorded around calls into each module's public functions. The measuring is
done by ``worker.py`` in a child process with BLAS threads pinned to 1; this
script times set-up, records the environment and the ``-X importtime``
breakdown, writes ``bench/results/<workload>-seed<N>-trace<T>.json`` and
prints each metric's change against an earlier results file (``--compare``,
by default the committed ``bench/baseline.json``).

Exit code 0 with a result line, or non-zero without one when the package is
missing or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
RESULTS = BENCH / "results"
BASELINE = BENCH / "baseline.json"

#: set-up is timed this many times per untraced run (plus the measuring worker's own)
SETUP_SPAWNS = 2
#: -X importtime probes per run; their median gives the import per-layer metrics
IMPORTTIME_PROBES = {0: 1, 1: 3}
#: a worker that takes longer than this is killed and the run fails
WORKER_TIMEOUT_S = 170.0

PINNED_THREADS = "1"


def pinned_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = PINNED_THREADS
    return env


def spawn_worker(argv: list[str], env: dict) -> tuple[float, str]:
    """Start a worker; return the seconds until it reported ``ready`` and its remaining stdout."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return ready, rest


def import_breakdown(env: dict) -> dict[str, list[int]]:
    """Module -> [self_us, cumulative_us] from ``python -X importtime -c 'import cvlbi'``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import cvlbi"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    modules = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        modules[name.strip()] = [int(own), int(cumulative)]
    return modules


def package_version(name: str) -> str | None:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def load_metrics(path: Path, workload: str, trace: int) -> dict:
    """Metric values from a results file or, per workload, from a baseline file."""
    data = json.loads(path.read_text())
    if "workloads" in data:
        data = data["workloads"].get(workload, {}).get(f"trace{trace}", {})
    return {name: m["value"] for name, m in data.get("metrics", {}).items()}


def change_report(path: Path, workload: str, trace: int, metrics: dict, spec: dict) -> None:
    earlier = load_metrics(path, workload, trace)
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m for m in spec[kind]}
    print(f"change against {path.name} ({workload}, trace {trace}):")
    for name, metric in metrics.items():
        if name not in earlier:
            continue
        old, new = earlier[name], metric["value"]
        share = (new - old) / abs(old) if old else float("nan")
        line = f"  {name:<44} {old:>14.6g} -> {new:<14.6g} {metric['unit']:<8} {share:+.1%}"
        bound = declared[name].get("bound")
        if bound is not None:
            worse = -share if declared[name]["better"] == "higher" else share
            if worse > bound:
                line += f"  worse by more than the bound {bound:.0%}"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark for cvlbi.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--compare", type=Path, default=BASELINE, metavar="PATH",
                        help="earlier results or baseline file to print changes against")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for a smoke test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cvlbi" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a checkout holding src/cvlbi and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = pinned_env()
    # byte-compile first, so that no timed import pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], env=env, check=True)
    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.size == "tiny" else "")
    try:
        setup = [] if args.trace else [
            spawn_worker([*worker_args, "--setup-only"], env)[0] for _ in range(SETUP_SPAWNS)
        ]
        imports = [import_breakdown(env) for _ in range(IMPORTTIME_PROBES[args.trace])]
        extra = ["--trace", "1", "--spans", str(RESULTS / f"{stem}-spans.csv")] if args.trace else []
        ready, out = spawn_worker([*worker_args, "--seconds", str(args.seconds), *extra], env)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = json.loads(out.splitlines()[-1])
    values = report["values"]
    setup.append(ready)
    values["setup_s"] = statistics.median(setup)
    values["cvlbi.import_total_ms"] = statistics.median(m["cvlbi"][1] for m in imports) / 1e3
    values["cvlbi.import_scipy_optimize_ms"] = statistics.median(
        m.get("scipy.optimize", [0, 0])[1] for m in imports
    ) / 1e3

    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name = metric["name"]
        value = values.get(name, 0.0 if name.endswith(".self_ms") else None)
        if value is None:
            print(f"error: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": metric["unit"]}

    attempted, failed = report["attempted"], report["failed"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "metrics": metrics,
        "error_rate": {"value": failed / attempted, "unit": "ratio", "failed": failed, "attempted": attempted},
        "failures": report["failures"],
        "sample_counts": report["sample_counts"],
        "unit_log": report["unit_log"],
        "setup_samples_s": setup,
        "unit_seeds": report["seeds"],
        "unlisted_values": {k: v for k, v in values.items() if k not in metrics},
        "environment": {
            **report["environment"],
            "scipy": package_version("scipy"),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": PINNED_THREADS,
            "import_time_us": imports[0],
        },
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    for failure in report["failures"][:20]:
        print(f"failed: {failure}")
    if failed > 20:
        print(f"failed: ... {failed - 20} more in {RESULTS.name}/{stem}.json")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.4g} ratio")
    if args.compare.is_file():
        change_report(args.compare, args.workload, args.trace, metrics, spec)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
