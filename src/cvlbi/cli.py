"""Command-line surface: state | fisher | compare | estimate.

Every subcommand is deterministic given its full flag set (seeds included) and
writes either JSON (default) or CSV to stdout or --output. Exit codes: 0 on
success, 2 on validation errors (the message names the offending field), 3 on
numerical failures.

A flat key=value file can predefine any flag via --config; explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields

import numpy as np

from .core import NumericalError, ValidationError
from .estimate import crb_experiment
from .fisher import (
    LIMIT_INFINITY,
    LIMIT_ZERO,
    fisher_analytic,
    fisher_limit_closed_form,
    fisher_monte_carlo,
)
from .interferometer import (
    InterferometerConfig,
    full_output_covariance,
    reduced_covariance,
)
from .serialize import format_float, json_dumps
from .schemes import cumulative_curves, curves_to_csv, ordering_report
from .states import astronomical_covariance, tmsv_covariance_closed

FORMAT_CHOICES = ("json", "csv")

#: largest comparison grid; each point becomes one row per scheme in the output
MAX_EPS_POINTS = 100_000

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class RunConfig:
    """Merged flag/config-file values feeding one subcommand run."""

    epsilon: float = 0.1
    g1: float = 0.0
    g2: float = 0.0
    n_bar: float = 1.0
    theta: float = 0.0
    delta_nu: float = 1.0
    seed: int = 0
    samples: int = 1_000_000
    shots: int = 10_000
    replications: int = 100
    eps_min: float = 1e-4
    eps_max: float = 1.0
    eps_points: int = 200
    mc: bool = False
    exact_cv: bool = False
    output_path: str | None = None
    format: str = "json"


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOL_KEYS = {"mc", "exact_cv"}
_INT_KEYS = {"seed", "samples", "shots", "replications", "eps_points"}


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"config line {lineno} is not key=value: {line!r}")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key in ("output", "output_path"):
            values["output_path"] = value
        elif key == "format":
            values["format"] = value
        elif key in _BOOL_KEYS:
            if value.lower() not in ("true", "false", "0", "1"):
                raise ValidationError(f"config key {key} must be true/false, got {value!r}")
            values[key] = value.lower() in ("true", "1")
        elif key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise ValidationError(f"config key {key} must be an integer, got {value!r}")
        elif key in _FIELD_TYPES:
            try:
                values[key] = float(value)
            except ValueError:
                raise ValidationError(f"config key {key} must be a number, got {value!r}")
        else:
            raise ValidationError(f"unknown config key: {key}")
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_values = _parse_config_file(args.config) if args.config else {}
    merged = dict(file_values)
    for name in _FIELD_TYPES:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            merged[name] = flag_value
    if merged.get("format", "json") not in FORMAT_CHOICES:
        raise ValidationError(f"format must be one of {FORMAT_CHOICES}")
    return RunConfig(**merged)


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key=value file; flags override it")
    parser.add_argument("--epsilon", type=float, help="photon flux per coherence time (> 0)")
    parser.add_argument("--g1", type=float, help="Re of the mutual coherence")
    parser.add_argument("--g2", type=float, help="Im of the mutual coherence")
    parser.add_argument("--n-bar", dest="n_bar", type=float, help="TMSV mean photon number (>= 0)")
    parser.add_argument("--theta", type=float, help="TMSV squeezing phase (rad)")
    parser.add_argument("--delta-nu", dest="delta_nu", type=float, help="spectral bandwidth (Hz)")
    parser.add_argument("--seed", type=int, help="RNG seed (default 0)")
    parser.add_argument("--output", "-o", dest="output_path", metavar="PATH")
    parser.add_argument("--format", choices=FORMAT_CHOICES, help="output format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvlbi",
        description=(
            "Continuous-variable entanglement-assisted baseline interferometry: "
            "Gaussian state pipeline, homodyne Fisher information, scheme comparison, "
            "and Cramer-Rao experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="emit the input, output, and measured covariances")
    _add_common_options(p_state)

    p_fisher = sub.add_parser("fisher", help="emit Fisher information of the mutual coherence")
    _add_common_options(p_fisher)
    p_fisher.add_argument("--mc", action="store_true", default=None,
                          help="add a Monte Carlo estimate with standard errors")
    p_fisher.add_argument("--samples", type=int, help="Monte Carlo sample count (>= 1000)")

    p_compare = sub.add_parser("compare", help="emit cumulative Fisher bounds per scheme")
    _add_common_options(p_compare)
    p_compare.add_argument("--eps-min", dest="eps_min", type=float, help="grid minimum (> 0)")
    p_compare.add_argument("--eps-max", dest="eps_max", type=float, help="grid maximum (<= 1)")
    p_compare.add_argument("--eps-points", dest="eps_points", type=int, help="grid size")
    p_compare.add_argument("--exact-cv", dest="exact_cv", action="store_true", default=None,
                           help="use exact finite-eps trace norms for the CV schemes")

    p_estimate = sub.add_parser("estimate", help="replicated MLE against the Cramer-Rao bound")
    _add_common_options(p_estimate)
    p_estimate.add_argument("--shots", type=int, help="measurements per replication (>= 1)")
    p_estimate.add_argument("--replications", type=int, help="independent replications (>= 30)")

    return parser


def _matrix_payload(cov) -> dict:
    return {"ordering": list(cov.ordering.names), "entries": cov.entries.tolist()}


def _interferometer_config(cfg: RunConfig) -> InterferometerConfig:
    return InterferometerConfig.from_values(cfg.epsilon, cfg.g1, cfg.g2, cfg.n_bar, cfg.theta)


def _state_payload(cfg: RunConfig) -> dict:
    icfg = _interferometer_config(cfg)
    reduced = reduced_covariance(icfg)
    return {
        "v_rho": _matrix_payload(astronomical_covariance(icfg.source)),
        "v_sigma": _matrix_payload(tmsv_covariance_closed(icfg.resource)),
        "v_full": _matrix_payload(full_output_covariance(icfg)),
        "v_reduced": _matrix_payload(reduced.v_r),
        "abbreviations": {
            "a": reduced.a, "b": reduced.b, "c": reduced.c,
            "d": reduced.d, "e": reduced.e, "f": reduced.f,
        },
        "pipeline_gap": reduced.pipeline_gap,
    }


def _matrix_csv(rows: list[tuple[str, list[str], np.ndarray]]) -> str:
    lines = ["matrix,row_label,col_label,value"]
    for name, labels, entries in rows:
        for i, row_label in enumerate(labels):
            for j, col_label in enumerate(labels):
                lines.append(f"{name},{row_label},{col_label},{format_float(entries[i, j], 10)}")
    return "\n".join(lines) + "\n"


def cmd_state(cfg: RunConfig) -> str:
    if cfg.format == "csv":
        icfg = _interferometer_config(cfg)
        reduced = reduced_covariance(icfg)
        v_rho = astronomical_covariance(icfg.source)
        v_sigma = tmsv_covariance_closed(icfg.resource)
        v_full = full_output_covariance(icfg)
        return _matrix_csv(
            [
                ("v_rho", list(v_rho.ordering.names), v_rho.entries),
                ("v_sigma", list(v_sigma.ordering.names), v_sigma.entries),
                ("v_full", list(v_full.ordering.names), v_full.entries),
                ("v_reduced", list(reduced.v_r.ordering.names), reduced.v_r.entries),
            ]
        )
    return json_dumps(_state_payload(cfg))


def cmd_fisher(cfg: RunConfig) -> str:
    icfg = _interferometer_config(cfg)
    analytic = fisher_analytic(icfg)
    limit_zero = fisher_limit_closed_form(cfg.epsilon, cfg.g1, cfg.g2, LIMIT_ZERO)
    limit_inf = fisher_limit_closed_form(cfg.epsilon, cfg.g1, cfg.g2, LIMIT_INFINITY)

    def gap(limit) -> float:
        return float(
            np.max(np.abs(analytic.entries - limit.entries)) / np.max(np.abs(limit.entries))
        )

    payload = {
        "parameters": {
            "epsilon": cfg.epsilon, "g1": cfg.g1, "g2": cfg.g2,
            "n_bar": cfg.n_bar, "theta": cfg.theta,
        },
        "analytic": {"entries": analytic.entries.tolist(), "trace_norm": analytic.trace_norm},
        "limit_nbar_zero": {
            "entries": limit_zero.entries.tolist(),
            "trace_norm": limit_zero.trace_norm,
            "rel_gap_to_analytic": gap(limit_zero),
        },
        "limit_nbar_infinity": {
            "entries": limit_inf.entries.tolist(),
            "trace_norm": limit_inf.trace_norm,
            "rel_gap_to_analytic": gap(limit_inf),
        },
    }
    if cfg.mc:
        mc = fisher_monte_carlo(icfg, cfg.samples, cfg.seed)
        payload["monte_carlo"] = {
            "entries": mc.fisher.entries.tolist(),
            "standard_error": mc.standard_error.tolist(),
            "score_mean": mc.score_mean.tolist(),
            "score_se": mc.score_se.tolist(),
            "samples": mc.samples,
            "seed": mc.seed,
        }
    if cfg.format == "csv":
        lines = ["quantity,i,j,value"]
        blocks = [("analytic", payload["analytic"]["entries"]),
                  ("limit_nbar_zero", payload["limit_nbar_zero"]["entries"]),
                  ("limit_nbar_infinity", payload["limit_nbar_infinity"]["entries"])]
        if cfg.mc:
            blocks.append(("monte_carlo", payload["monte_carlo"]["entries"]))
            blocks.append(("monte_carlo_se", payload["monte_carlo"]["standard_error"]))
        for name, entries in blocks:
            for i in range(2):
                for j in range(2):
                    lines.append(f"{name},{i},{j},{format_float(entries[i][j], 10)}")
        return "\n".join(lines) + "\n"
    return json_dumps(payload)


def _eps_grid(cfg: RunConfig) -> np.ndarray:
    if not (0.0 < cfg.eps_min < cfg.eps_max <= 1.0):
        raise ValidationError("eps grid must satisfy 0 < eps_min < eps_max <= 1")
    if not 2 <= cfg.eps_points <= MAX_EPS_POINTS:
        raise ValidationError(f"eps_points must be in [2, {MAX_EPS_POINTS}]")
    return np.geomspace(cfg.eps_min, cfg.eps_max, cfg.eps_points)


def cmd_compare(cfg: RunConfig) -> str:
    grid = _eps_grid(cfg)
    curves = cumulative_curves(grid, cfg.delta_nu, exact_cv=cfg.exact_cv, g1=cfg.g1, g2=cfg.g2)
    if cfg.format == "csv":
        return curves_to_csv(curves)
    report = ordering_report(grid, cfg.delta_nu)
    payload = {
        "delta_nu": cfg.delta_nu,
        "curves": [
            {
                "scheme": curve.scheme.value,
                "mode": curve.mode,
                "points": [[e, b] for e, b in curve.points],
            }
            for curve in curves
        ],
        "ordering_report": report,
    }
    return json_dumps(payload)


def cmd_estimate(cfg: RunConfig) -> str:
    if cfg.format == "csv":
        raise ValidationError("format: estimate emits JSON only")
    icfg = _interferometer_config(cfg)
    result = crb_experiment(icfg, cfg.shots, cfg.replications, cfg.seed)
    return json_dumps(result.to_json_dict())


_COMMANDS = {
    "state": cmd_state,
    "fisher": cmd_fisher,
    "compare": cmd_compare,
    "estimate": cmd_estimate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        text = _COMMANDS[args.command](cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: output: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
