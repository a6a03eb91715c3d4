"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 bench/spread.py --workloads crb sweep mc cli --seeds 10 [--trace 0|1] [--out bench/baseline.json]

Spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, printed next to
the metric's bound from BENCHMARK.json and a third of it. ``--out`` merges the
medians into a baseline file that ``run.py`` prints changes against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--compare", "/dev/null"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="baseline file to merge the medians into")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    baseline = json.loads(args.out.read_text()) if args.out and args.out.is_file() else {}
    worst = 0.0
    for workload in args.workloads:
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed operations, all correct: "
              f"{all(r['correct'] for r in runs)}")
        medians = {}
        for name, metric in declared.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / abs(median) if median else float("nan")
            bound = metric.get("bound")
            flag = ""
            if bound is not None:
                flag = f"bound {bound:.2f} third {bound / 3:.3f} {'OK' if share < bound / 3 else 'WIDE'}"
                if name != "setup_s":
                    worst = max(worst, share / bound)
            print(f"  {name:<44} median {median:<14.6g} {metric['unit']:<7} spread {share:7.3f}  {flag}")
            medians[name] = {"value": median, "unit": metric["unit"], "q1": q1, "q3": q3, "runs": len(values)}
        baseline.setdefault("workloads", {}).setdefault(workload, {})[f"trace{args.trace}"] = {
            "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
            "metrics": medians,
        }
    print(f"largest spread as a share of its bound: {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
