"""Command-line surface: state | fisher | compare | estimate.

Every subcommand is deterministic given its full flag set (seeds included) and
writes JSON, or CSV under --format csv, to stdout or --output. Exit codes: 0 on
success, 2 on validation errors (the message names the offending field), 3 on
numerical failures; ``main`` returns them, argparse's own errors included.
``estimate`` warns on stderr when no fit left its starting point, and prints
``warning: K of R fits stopped at the iteration cap (N iterations)`` but exits 0
when fits are capped; it exits 3 only when the measured covariance fails its
check or a LAPACK routine fails.

argparse is the only parser. Each flag, with its default, is declared once, and
each subcommand takes only the flags it reads (``_COMMANDS``).
A --config file holds flat ``key = value`` lines; blank lines and lines
starting with # are skipped. A key is a flag name without the leading dashes,
written with ``_`` or ``-`` (``n_bar`` and ``n-bar`` both mean --n-bar), and
each line is read as the token ``--key=value``. The subcommand parses those
tokens ahead of the explicit arguments, so explicit flags win. A key the
subcommand does not take, ``config`` included, exits 2 naming it; so does a
prefix of a flag name, which no argument may be. --mc and --exact-cv take an
optional true/false/1/0 value, so ``mc = false`` works too.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import NumericalError, ValidationError, _check_integer
from .estimate import MIN_REPLICATIONS, crb_experiment
from .fisher import (
    LIMIT_INFINITY,
    LIMIT_ZERO,
    MIN_MC_SAMPLES,
    _check_sampling,
    fisher_analytic,
    fisher_limit_closed_form,
    fisher_monte_carlo,
)
from .interferometer import InterferometerConfig, abbreviations, reduced_covariance
from .serialize import csv_dumps, json_dumps
from .schemes import (
    DEFAULT_GRID_MAX,
    DEFAULT_GRID_MIN,
    DEFAULT_GRID_POINTS,
    cumulative_curves,
    curves_to_csv,
    ordering_report,
)
from .states import astronomical_covariance, tmsv_covariance_closed

#: largest comparison grid; each point becomes one row per scheme in the output
MAX_EPS_POINTS = 100_000

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _switch(value: str) -> bool:
    """Value of an on/off flag: true/false/1/0 in any case."""
    if value.lower() not in ("true", "false", "1", "0"):
        raise argparse.ArgumentTypeError(f"expected true, false, 1 or 0, got {value!r}")
    return value.lower() in ("true", "1")


def _config_tokens(path: str) -> list[tuple[str, str]]:
    """Each ``key = value`` line of a config file as its key and the token ``--key=value``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from exc
    pairs = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise ValidationError(f"config line {lineno} is not key=value: {line!r}")
        pairs.append((key, f"--{key.replace('_', '-')}={value}"))
    return pairs


def _apply_config(parser, argv: list[str], args: argparse.Namespace) -> argparse.Namespace:
    """Parse argv again with the config file's tokens ahead of the explicit arguments."""
    pairs = _config_tokens(args.config)
    tokens = [token for _, token in pairs]
    known, unknown = parser.parse_known_args([args.command, *tokens])
    bad = ["config"] if known.config is not None else []
    bad += [key for key, token in pairs if token in unknown]
    if bad:
        raise ValidationError(f"unknown config key: {bad[0]}")
    at = argv.index(args.command) + 1
    return parser.parse_args([*argv[:at], *tokens, *argv[at:]])


#: an on/off flag; the optional value lets a config line set it either way
_SWITCH = {"nargs": "?", "const": True, "default": False, "type": _switch, "metavar": "BOOL"}

#: the model's five inputs: the source (epsilon, g) and the squeezed resource (n_bar, theta)
_MODEL = ("epsilon", "g1", "g2", "n-bar", "theta")

#: each flag, declared once by its name and add_argument keywords
_FLAGS = {
    "epsilon": {"type": float, "default": 0.1, "help": "photon flux per coherence time (> 0)"},
    "g1": {"type": float, "default": 0.0, "help": "Re of the mutual coherence"},
    "g2": {"type": float, "default": 0.0, "help": "Im of the mutual coherence"},
    "n-bar": {"type": float, "default": 1.0, "help": "TMSV mean photon number (>= 0)"},
    "theta": {"type": float, "default": 0.0, "help": "TMSV squeezing phase (rad)"},
    "delta-nu": {"type": float, "default": 1.0, "help": "spectral bandwidth (Hz)"},
    "seed": {"type": int, "default": 0, "help": "RNG seed (>= 0, default %(default)s)"},
    "format": {"choices": ("json", "csv"), "default": "json",
               "help": "output format (default %(default)s)"},
    "mc": {"help": "add a Monte Carlo estimate with standard errors", **_SWITCH},
    "samples": {"type": int, "default": 1_000_000,
                "help": f"Monte Carlo sample count (>= {MIN_MC_SAMPLES})"},
    "eps-min": {"type": float, "default": DEFAULT_GRID_MIN, "help": "grid minimum (> 0)"},
    "eps-max": {"type": float, "default": DEFAULT_GRID_MAX, "help": "grid maximum (<= 1)"},
    "eps-points": {"type": int, "default": DEFAULT_GRID_POINTS, "help": "grid size"},
    "exact-cv": {"help": "use exact finite-eps trace norms for the CV schemes", **_SWITCH},
    "shots": {"type": int, "default": 10_000, "help": "measurements per replication (>= 1)"},
    "replications": {"type": int, "default": 100,
                     "help": f"independent replications (>= {MIN_REPLICATIONS})"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvlbi", allow_abbrev=False,
        description=(
            "Continuous-variable entanglement-assisted baseline interferometry: "
            "Gaussian state pipeline, homodyne Fisher information, scheme comparison, "
            "and Cramer-Rao experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, flags) in _COMMANDS.items():
        add = sub.add_parser(name, help=help, allow_abbrev=False).add_argument
        add("--config", metavar="PATH", help="key=value file; flags override it")
        add("--output", "-o", metavar="PATH")
        for flag in flags:
            add(f"--{flag}", **_FLAGS[flag])
    return parser


def _interferometer_config(args: argparse.Namespace) -> InterferometerConfig:
    return InterferometerConfig.from_values(args.epsilon, args.g1, args.g2, args.n_bar, args.theta)


def cmd_state(args: argparse.Namespace) -> str:
    icfg = _interferometer_config(args)
    reduced = reduced_covariance(icfg)
    matrices = {
        "v_rho": astronomical_covariance(icfg.source),
        "v_sigma": tmsv_covariance_closed(icfg.resource),
        "v_full": reduced.v_full,
        "v_reduced": reduced.v_r,
    }
    if args.format == "csv":
        rows = (
            (name, cov.ordering.names[i], cov.ordering.names[j], cov.entries[i, j])
            for name, cov in matrices.items()
            for i, j in np.ndindex(cov.entries.shape)
        )
        return csv_dumps(("matrix", "row_label", "col_label", "value"), rows)
    payload = {
        name: {"ordering": list(cov.ordering.names), "entries": cov.entries.tolist()}
        for name, cov in matrices.items()
    }
    payload["abbreviations"] = dict(zip("abcdef", abbreviations(icfg)))
    payload["pipeline_gap"] = reduced.pipeline_gap
    return json_dumps(payload)


def cmd_fisher(args: argparse.Namespace) -> str:
    # checked on every run, not only under --mc, so that no bad value is accepted unread
    _check_sampling(args.samples, args.seed)
    icfg = _interferometer_config(args)
    analytic = fisher_analytic(icfg)
    payload = {
        "parameters": {
            "epsilon": args.epsilon, "g1": args.g1, "g2": args.g2,
            "n_bar": args.n_bar, "theta": args.theta,
        },
        "analytic": {"entries": analytic.entries.tolist(), "trace_norm": analytic.trace_norm},
    }
    for key, which in (("limit_nbar_zero", LIMIT_ZERO), ("limit_nbar_infinity", LIMIT_INFINITY)):
        limit = fisher_limit_closed_form(args.epsilon, args.g1, args.g2, which)
        gap = np.max(np.abs(analytic.entries - limit.entries)) / np.max(np.abs(limit.entries))
        payload[key] = {"entries": limit.entries.tolist(), "trace_norm": limit.trace_norm,
                        "rel_gap_to_analytic": float(gap)}
    if args.mc:
        mc = fisher_monte_carlo(icfg, args.samples, args.seed)
        payload["monte_carlo"] = {
            "entries": mc.fisher.entries.tolist(),
            "standard_error": mc.standard_error.tolist(),
            "score_mean": mc.score_mean.tolist(),
            "score_se": mc.score_se.tolist(),
            "samples": mc.samples,
            "seed": mc.seed,
        }
    if args.format == "csv":
        blocks = [(name, payload[name]["entries"]) for name in list(payload)[1:]]
        if args.mc:
            blocks.append(("monte_carlo_se", payload["monte_carlo"]["standard_error"]))
        rows = ((name, i, j, block[i][j]) for name, block in blocks for i, j in np.ndindex(2, 2))
        return csv_dumps(("quantity", "i", "j", "value"), rows)
    return json_dumps(payload)


def _eps_grid(args: argparse.Namespace) -> np.ndarray:
    if not (0.0 < args.eps_min < args.eps_max <= 1.0):
        raise ValidationError("eps grid must satisfy 0 < eps_min < eps_max <= 1")
    _check_integer("eps_points", args.eps_points, 2, MAX_EPS_POINTS)
    return np.geomspace(args.eps_min, args.eps_max, args.eps_points)


def cmd_compare(args: argparse.Namespace) -> str:
    grid = _eps_grid(args)
    curves = cumulative_curves(
        grid, args.delta_nu, exact_cv=args.exact_cv, g1=args.g1, g2=args.g2
    )
    if args.format == "csv":
        return curves_to_csv(curves)
    report = ordering_report(grid, args.delta_nu)
    payload = {
        "delta_nu": args.delta_nu,
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


def cmd_estimate(args: argparse.Namespace) -> str:
    icfg = _interferometer_config(args)
    result = crb_experiment(icfg, args.shots, args.replications, args.seed)
    capped = [fit.iterations for fit in result.fits if fit.reason == "capped"]
    if capped:
        print(f"warning: {len(capped)} of {len(result.fits)} fits stopped at the iteration "
              f"cap ({capped[0]} iterations)", file=sys.stderr)
    if all(fit.iterations == 0 for fit in result.fits):
        print(
            "warning: every fit stopped at 0 iterations; the estimates are the "
            "starting points, not maximum-likelihood estimates",
            file=sys.stderr,
        )
    return json_dumps(result.to_json_dict())


#: each subcommand's function, help and flags; every one also takes --config and --output/-o
_COMMANDS = {
    "state": (cmd_state, "emit the input, output, and measured covariances", (*_MODEL, "format")),
    "fisher": (cmd_fisher, "emit Fisher information of the mutual coherence",
               (*_MODEL, "format", "seed", "mc", "samples")),
    "compare": (cmd_compare, "emit cumulative Fisher bounds per scheme",
                ("g1", "g2", "delta-nu", "format", "eps-min", "eps-max", "eps-points", "exact-cv")),
    "estimate": (cmd_estimate, "replicated MLE against the Cramer-Rao bound",
                 (*_MODEL, "seed", "shots", "replications")),
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _apply_config(parser, argv, args)
        text = _COMMANDS[args.command][0](args)
    except SystemExit as exc:
        # argparse has written its usage and message (or the help) already
        return exc.code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: output: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
