"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines
and the measured margins. Every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
from oracles import curves_from_csv

from cvlbi.core import check_physicality
from cvlbi.estimate import crb_experiment, sample_records
from cvlbi.fisher import (
    LIMIT_INFINITY,
    LIMIT_ZERO,
    fisher_analytic,
    fisher_limit_closed_form,
    fisher_monte_carlo,
    score_vectors,
)
from cvlbi.interferometer import (
    InterferometerConfig,
    full_output_covariance,
    reduced_covariance,
)
from cvlbi.schemes import (
    DEFAULT_GRID_MAX,
    DEFAULT_GRID_MIN,
    DEFAULT_GRID_POINTS,
    cumulative_curves,
    curves_to_csv,
    pairwise_crossings,
)
from cvlbi.states import (
    SourceParams,
    TmsvParams,
    astronomical_covariance,
    tmsv_covariance_closed,
    tmsv_covariance_exponential,
)

#: the grid ``cvlbi compare`` runs on by default
DEFAULT_GRID = np.geomspace(DEFAULT_GRID_MIN, DEFAULT_GRID_MAX, DEFAULT_GRID_POINTS)
EPS_G_GRID = [(eps, g) for eps in (1e-3, 1e-2, 1e-1) for g in ((0.0, 0.0), (0.3, 0.4), (0.9, 0.0))]


def report(number: int, passed: bool, detail: str, elapsed: float, limit: float):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {verdict}: {detail} [{elapsed:.2f}s < {limit:.0f}s]")
    assert passed, detail
    assert elapsed < limit, f"criterion {number} exceeded its {limit:.0f}s budget ({elapsed:.2f}s)"


def random_config(rng) -> InterferometerConfig:
    phase = rng.uniform(0, 2 * np.pi)
    mag = math.sqrt(rng.uniform(0, 1))
    return InterferometerConfig(
        SourceParams(rng.uniform(1e-4, 1.0), mag * math.cos(phase), mag * math.sin(phase)),
        TmsvParams(rng.uniform(0, 10), rng.uniform(0, 2 * np.pi)),
    )


def test_criterion_1_tmsv_dual_construction():
    start = time.perf_counter()
    worst = 0.0
    for r in np.arange(0.0, 2.25, 0.25):
        for theta in np.arange(0.0, 2 * np.pi, np.pi / 4):
            params = TmsvParams.from_r(r, theta)
            gap = np.max(
                np.abs(
                    tmsv_covariance_closed(params).entries
                    - tmsv_covariance_exponential(params).entries
                )
            )
            worst = max(worst, float(gap))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-10, f"closed vs exponential TMSV, max gap {worst:.2e} <= 1e-10 on 9x8 grid", elapsed, 1.0)


def test_criterion_2_pipeline_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        worst = max(worst, reduced_covariance(random_config(rng)).pipeline_gap)
    elapsed = time.perf_counter() - start
    report(2, worst <= 1e-12, f"pipeline vs closed-form measured covariance, max gap {worst:.2e} <= 1e-12 on 1000 configs", elapsed, 5.0)


def test_criterion_3_fisher_limit_oracles():
    start = time.perf_counter()
    worst = 0.0
    for eps, (g1, g2) in EPS_G_GRID:
        for n_bar, which in ((1e-6, LIMIT_ZERO), (1e8, LIMIT_INFINITY)):
            analytic = fisher_analytic(
                InterferometerConfig.from_values(eps, g1, g2, n_bar=n_bar)
            ).entries
            limit = fisher_limit_closed_form(eps, g1, g2, which).entries
            scale = float(np.max(np.abs(limit)))
            for i in range(2):
                for j in range(2):
                    gap = abs(analytic[i, j] - limit[i, j])
                    rel = gap / abs(limit[i, j]) if limit[i, j] != 0.0 else gap / scale
                    worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(3, worst <= 1e-3, f"analytic vs limit matrices at n_bar 1e-6/1e8, worst elementwise rel {worst:.2e} <= 1e-3", elapsed, 1.0)


def test_criterion_4_small_eps_trace_scaling():
    start = time.perf_counter()
    eps = 1e-3
    ok = True
    details = []
    for g1, g2 in ((0.0, 0.0), (0.3, 0.4), (0.9, 0.0)):
        t_zero = fisher_limit_closed_form(eps, g1, g2, LIMIT_ZERO).trace_norm
        t_inf = fisher_limit_closed_form(eps, g1, g2, LIMIT_INFINITY).trace_norm
        ok &= abs(t_zero / eps**2 - 1.0) <= 0.05
        ok &= abs(t_inf / (2.0 * eps**2) - 1.0) <= 0.05
        details.append(f"g=({g1},{g2}): t0/e2={t_zero / eps**2:.4f} ti/2e2={t_inf / (2 * eps**2):.4f}")
    # the factor-of-two advantage is an eps -> 0 statement; evaluate the limit
    # (at eps = 1e-3 the exact ratio is 2 - 2 eps + O(eps^2), recorded below)
    eps_limit = 1e-8
    ratio_limit = (
        fisher_limit_closed_form(eps_limit, 0.0, 0.0, LIMIT_INFINITY).trace_norm
        / fisher_limit_closed_form(eps_limit, 0.0, 0.0, LIMIT_ZERO).trace_norm
    )
    ok &= abs(ratio_limit - 2.0) <= 1e-3
    ratio_finite = (
        fisher_limit_closed_form(eps, 0.0, 0.0, LIMIT_INFINITY).trace_norm
        / fisher_limit_closed_form(eps, 0.0, 0.0, LIMIT_ZERO).trace_norm
    )
    elapsed = time.perf_counter() - start
    report(
        4,
        ok,
        f"trace norms at eps=1e-3 within 5% ({'; '.join(details)}); "
        f"small-eps ratio {ratio_limit:.8f} = 2 +- 1e-3 (finite-eps ratio {ratio_finite:.6f})",
        elapsed,
        1.0,
    )


def test_criterion_5_monte_carlo_fisher():
    start = time.perf_counter()
    cfg = InterferometerConfig.from_values(0.1, 0.3, 0.2, n_bar=1.0, theta=0.0)
    mc = fisher_monte_carlo(cfg, 1_000_000, seed=0)
    analytic = fisher_analytic(cfg).entries
    deviations = np.abs(mc.fisher.entries - analytic) / mc.standard_error
    worst = float(np.max(deviations))
    elapsed = time.perf_counter() - start
    report(5, bool(np.all(deviations <= 3.0)), f"1e6-sample MC vs analytic, worst deviation {worst:.2f} <= 3 standard errors", elapsed, 30.0)


def test_criterion_6_scheme_ordering_and_crossover():
    start = time.perf_counter()
    text = curves_to_csv(cumulative_curves(DEFAULT_GRID))
    by_eps: dict[str, dict[str, float]] = {}
    for line in text.splitlines()[1:]:
        eps_s, scheme, bound_s, _ = line.split(",")
        by_eps.setdefault(eps_s, {})[scheme] = float(bound_s)
    ordered = True
    checked = 0
    for eps_s, bounds in by_eps.items():
        if float(eps_s) >= 0.25:
            continue
        checked += 1
        ordered &= bounds["DD"] > bounds["GJC12"] > bounds["CV_INF"] > bounds["CV_0"]
        ordered &= bounds["CV_0"] == bounds["LOCAL"]
    crossover = next(
        c["epsilon"] for c in pairwise_crossings(0.0, 1.0) if set(c["schemes"]) == {"CV_INF", "GJC12"}
    )
    crossover_ok = abs(crossover - 0.25) <= 1e-12
    elapsed = time.perf_counter() - start
    report(
        6,
        ordered and crossover_ok and checked > 0,
        f"DD > GJC12 > CV_INF > CV_0 = LOCAL on {checked} grid points below 0.25; "
        f"CV_INF/GJC12 crossover at {crossover!r}",
        elapsed,
        1.0,
    )


def test_criterion_7_cramer_rao_experiment():
    start = time.perf_counter()
    cfg = InterferometerConfig.from_values(0.1, 0.0, 0.0, n_bar=1.0, theta=0.0)
    result = crb_experiment(cfg, shots=10_000, replications=100, seed=0)
    in_window = 0.8 <= result.trace_ratio <= 1.5
    respected = result.min_eig_gap >= -result.min_eig_slack
    elapsed = time.perf_counter() - start
    report(
        7,
        in_window and respected,
        f"MLE covariance / CRB trace ratio {result.trace_ratio:.4f} in [0.8, 1.5]; "
        f"min eig gap {result.min_eig_gap:.2e} >= -{result.min_eig_slack:.2e}",
        elapsed,
        300.0,
    )


def test_criterion_8_moment_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    exact = True
    for _ in range(100):
        phase = rng.uniform(0, 2 * np.pi)
        mag = math.sqrt(rng.uniform(0, 1))
        params = SourceParams(rng.uniform(1e-4, 1.0), mag * math.cos(phase), mag * math.sin(phase))
        eps, g1, g2 = params.epsilon, params.g1, params.g2
        xx = (eps + 1.0) / 2.0
        xaxb = (eps / 2.0) * g1
        xbpa = (eps / 2.0) * g2
        moments = np.array(
            [
                [xx, 0.0, xaxb, -xbpa],
                [0.0, xx, xbpa, xaxb],
                [xaxb, xbpa, xx, 0.0],
                [-xbpa, xaxb, 0.0, xx],
            ]
        )
        exact &= bool(np.array_equal(astronomical_covariance(params).entries, 2.0 * moments))
    elapsed = time.perf_counter() - start
    report(8, exact, "thermal covariance equals exactly twice the moment matrix on 100 random draws", elapsed, 1.0)


class TestCriterion9Properties:
    """Property suites at their stated tolerances."""

    def test_physicality_preservation(self):
        start = time.perf_counter()
        rng = np.random.default_rng(91)
        ok = True
        for _ in range(300):
            cfg = random_config(rng)
            ok &= check_physicality(full_output_covariance(cfg)).min_eigenvalue >= -1e-9
        report(9, ok, "beam-splitter outputs stay physical (min eig >= -1e-9, 300 configs)", time.perf_counter() - start, 60.0)

    def test_score_zero_mean(self):
        start = time.perf_counter()
        cfg = InterferometerConfig.from_values(0.1, 0.3, 0.2, n_bar=1.0, theta=0.0)
        record = sample_records(cfg, 100_000, seed=9)
        scores = score_vectors(cfg, record.outcomes)
        mean = scores.mean(axis=0)
        se = scores.std(axis=0, ddof=1) / math.sqrt(record.shots)
        ok = bool(np.all(np.abs(mean) <= 3.0 * se))
        report(9, ok, f"score mean {mean} within 3 standard errors of zero", time.perf_counter() - start, 60.0)

    def test_determinism_by_seed(self):
        start = time.perf_counter()
        cfg = InterferometerConfig.from_values(0.1, 0.3, 0.2, n_bar=1.0, theta=0.0)
        mc_a = fisher_monte_carlo(cfg, 50_000, seed=5)
        mc_b = fisher_monte_carlo(cfg, 50_000, seed=5)
        rec_a = sample_records(cfg, 5_000, seed=6)
        rec_b = sample_records(cfg, 5_000, seed=6)
        crb_a = crb_experiment(cfg, 300, 30, seed=7)
        crb_b = crb_experiment(cfg, 300, 30, seed=7)
        ok = (
            np.array_equal(mc_a.fisher.entries, mc_b.fisher.entries)
            and np.array_equal(rec_a.outcomes, rec_b.outcomes)
            and np.array_equal(crb_a.covariance_hat, crb_b.covariance_hat)
        )
        report(9, ok, "Monte Carlo, sampling, and replication runs are bitwise seed-deterministic", time.perf_counter() - start, 60.0)

    def test_csv_round_trip(self):
        start = time.perf_counter()
        original = curves_to_csv(cumulative_curves(DEFAULT_GRID))
        ok = curves_to_csv(curves_from_csv(original)) == original
        report(9, ok, "scheme CSV reparse and re-emission is byte-identical", time.perf_counter() - start, 60.0)
