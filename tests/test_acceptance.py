"""Acceptance gate: nine scientific criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they complete.  Every criterion both prints its line and asserts, so the
suite fails loudly if any tolerance is violated.
"""

import functools
import math
import time

import numpy as np
from scipy import stats as scipy_stats
from scipy.integrate import quad

from conftest import oracle_quantities, plugin_rate_oracle, random_positive_pmf
from ctdi.capacity import binary_rate, capacity_curve, optimize_binary, unit_cost_identity_check
from ctdi.core import FinitePmf, RngSpec
from ctdi.gaussian import (
    closed_form_di_constant_signal,
    constant_signal_model,
    delayed_echo_model,
    directed_info_gaussian_mc,
    directed_info_gaussian_sweep,
    discrete_prior_filter,
    exact_filter_constant_signal,
    mismatched_relent_gaussian,
)
from ctdi.partition_di import (
    Grouping,
    conservation_residual,
    directed_info,
    grouped_directed_info,
    mutual_information,
    random_joint,
)
from ctdi.poisson import (
    PoissonFeedbackModel,
    default_burn_in,
    di_rate_analytic,
    di_rate_mc,
    mean_inverse_intensity,
    mismatched_relent_poisson,
    occupancy_fractions,
    simulate_channel,
    state_at,
    stationary_intensity_pmf,
)

BINARY = FinitePmf([1.0, 2.0], [0.5, 0.5])


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line, flush=True)
    assert ok, line


def test_criterion_1_gaussian_di_matches_closed_form():
    horizons = (0.5, 1.0, 2.0)
    models = [constant_signal_model(horizon, 1e-3) for horizon in horizons]
    t0 = time.perf_counter()
    estimates = directed_info_gaussian_sweep(models, rng=11, replicas=100_000)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    parts = []
    for horizon, est in zip(horizons, estimates):
        target = closed_form_di_constant_signal(horizon)
        err = abs(est.value - target)
        tol = max(0.01 * target, 3.0 * est.stderr)
        ok = ok and err <= tol
        parts.append(f"T={horizon:g} err={err:.2e} tol={tol:.2e}")
    _verdict(1, ok, "constant-signal MC vs 0.5*ln(1+T) at 1e5 replicas, one sweep over the "
                    f"horizons in {elapsed:.1f}s; " + "; ".join(parts))


def test_criterion_2_delayed_echo_di_is_zero():
    dt = 1e-3
    model = delayed_echo_model(1.0, dt, 10 * dt)
    est = directed_info_gaussian_mc(model, rng=22, replicas=200)
    ok = est.value == 0.0 and est.stderr == 0.0
    _verdict(2, ok, f"echo policy with delay 10*dt gives DI estimate {est.value!r} "
                    f"(stderr {est.stderr!r}), exact zero required")


def _quad_rate(p, lambda1, lambda2):
    """I(X;Y)/E[1/X] of one exponential wait, h(Y) by scipy quad on its mixture density."""
    def minus_f_ln_f(y):
        f = p * lambda1 * math.exp(-lambda1 * y) + (1.0 - p) * lambda2 * math.exp(-lambda2 * y)
        return -f * math.log(f) if f > 0 else 0.0

    h_y, _ = quad(minus_f_ln_f, 0.0, math.inf, epsabs=1e-13, epsrel=1e-13)
    info = h_y - 1.0 + p * math.log(lambda1) + (1.0 - p) * math.log(lambda2)
    return info / (p / lambda1 + (1.0 - p) / lambda2)


def test_criterion_3_poisson_rate_mc_matches_analytic():
    t0 = time.perf_counter()
    max_gap = 0.0
    max_oracle_gap = 0.0
    weights = [round(0.1 * i, 1) for i in range(1, 10)]
    # deterministic oracle: the same rates by an independent quadrature
    max_quad_gap = max(abs(binary_rate(p, 1.0, lam2) - _quad_rate(p, 1.0, lam2))
                       for p in weights for lam2 in (2.0, 10.0, 100.0))
    ok = max_quad_gap < 1e-10
    for k, p in enumerate(weights):
        pmf = FinitePmf([1.0, 2.0], [p, 1.0 - p])
        analytic = di_rate_analytic(pmf)
        oracle = plugin_rate_oracle(pmf, 10_000_000, seed=9000 + k)
        oracle_gap = abs(analytic - oracle)
        max_oracle_gap = max(max_oracle_gap, oracle_gap)
        model = PoissonFeedbackModel(pmf, 1e4)
        est = di_rate_mc(model, rng=300 + k, replicas=6)
        gap = abs(est.value - analytic)
        max_gap = max(max_gap, gap)
        ok = ok and gap <= max(0.02 * analytic, 3.0 * est.stderr) and oracle_gap < 1e-3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _verdict(3, ok, f"9-point weight sweep at horizon 1e4: max |mc - analytic| = {max_gap:.2e}, "
                    f"max |analytic - 1e7-sample oracle| = {max_oracle_gap:.2e}, "
                    f"max |analytic - quad oracle| over lambda2 in {{2, 10, 100}} = "
                    f"{max_quad_gap:.2e}, {elapsed:.0f}s")


def test_criterion_4_capacity_curve_shape():
    levels = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    points = capacity_curve(1.0, levels)
    rates = {pt.lambda2: pt.rate_star for pt in points}
    ok = rates[0.0] <= 1e-12 and rates[1.0] <= 1e-12
    ok = ok and rates[0.25] > 0.0 and rates[0.5] > 0.0
    ok = ok and rates[2.0] < rates[4.0] < rates[8.0] < rates[16.0]
    _verdict(4, ok, "optimized rate zero at lambda2 in {0, lambda1}, positive off the "
                    "diagonal, strictly increasing on {2,4,8,16}; "
                    + ", ".join(f"r({l:g})={rates[l]:.4g}" for l in levels))


def test_criterion_5_conservation_sweep():
    gen = RngSpec(55).stream(0)
    t0 = time.perf_counter()
    max_resid = 0.0
    ok = True
    for _ in range(1000):
        n = int(gen.integers(1, 4))
        xs = [int(gen.integers(2, 4)) for _ in range(n)]
        ys = [int(gen.integers(2, 4)) for _ in range(n)]
        joint = random_joint(gen, xs, ys)
        resid = abs(conservation_residual(joint))
        max_resid = max(max_resid, resid)
        di = directed_info(joint)
        mi = mutual_information(joint)
        ok = ok and resid < 1e-9 and di >= -1e-12 and di <= mi + 1e-12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict(5, ok, f"1000 random joints (n <= 3, alphabets <= 3): "
                    f"max |di + rev_di - mi| = {max_resid:.2e} < 1e-9, "
                    f"sandwich 0 <= di <= mi held, {elapsed:.1f}s")


def test_criterion_6_grouping_monotonicity():
    gen = RngSpec(66).stream(0)
    max_increase = -math.inf
    max_end_gap = 0.0
    ok = True
    for _ in range(200):
        n = 4
        xs = [int(gen.integers(2, 4)) for _ in range(n)]
        ys = [int(gen.integers(2, 4)) for _ in range(n)]
        joint = random_joint(gen, xs, ys)
        cuts = [1, 2, 3]
        gen.shuffle(cuts)
        ends = [n]
        groupings = [Grouping(sorted(ends))]
        for cut in cuts:
            ends.append(cut)
            groupings.append(Grouping(sorted(ends)))
        vals = [grouped_directed_info(joint, g) for g in groupings]
        for hi, lo in zip(vals[:-1], vals[1:]):
            max_increase = max(max_increase, lo - hi)
        # both ends against the brute-force oracle, not the engine's own walks
        di, _, mi, _ = oracle_quantities(joint.probs, n)
        max_end_gap = max(max_end_gap, abs(vals[0] - mi), abs(vals[-1] - di))
        ok = ok and max_increase <= 1e-12 and max_end_gap <= 1e-10
    _verdict(6, ok, f"200 refinement chains of length 4: max increase under refinement = "
                    f"{max_increase:.2e} (<= 1e-12), one-block = MI and singletons = DI "
                    f"within {max_end_gap:.2e} (<= 1e-10)")


def test_criterion_7_poisson_trajectory_diagnostics():
    pmf = BINARY
    horizon = 1e4
    burn = default_burn_in(pmf)
    traj = simulate_channel(PoissonFeedbackModel(pmf, horizon), RngSpec(77).stream(0))

    edges = np.linspace(burn, horizon, 21)
    target = stationary_intensity_pmf(pmf).probs[0]
    blocks = np.array([
        occupancy_fractions(traj, pmf.support, a, b)[0]
        for a, b in zip(edges[:-1], edges[1:])
    ])
    se = blocks.std(ddof=1) / math.sqrt(blocks.size)
    occ_gap = abs(blocks.mean() - target)
    ok = occ_gap < 3.0 * se

    # chi-square fit of the elapsed-time law with 20 equiprobable bins;
    # inspection spacing of 5 time units makes draws effectively independent
    times = np.arange(burn, horizon, 5.0)
    elapsed, _ = state_at(traj, times)
    mean_inv = mean_inverse_intensity(pmf)

    def cdf(t):
        return float(np.dot(pmf.probs / pmf.support,
                            1.0 - np.exp(-t * pmf.support))) / mean_inv

    qs = []
    for level in np.linspace(0.05, 0.95, 19):
        lo, hi = 0.0, 60.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if cdf(mid) < level:
                lo = mid
            else:
                hi = mid
        qs.append(0.5 * (lo + hi))
    bins = np.concatenate(([0.0], qs, [np.inf]))
    counts, _ = np.histogram(elapsed, bins)
    expected = times.size / 20.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    crit = float(scipy_stats.chi2.ppf(0.99, 19))
    ok = ok and chi2 <= crit
    _verdict(7, ok, f"occupancy gap {occ_gap:.2e} < 3 se ({3 * se:.2e}); elapsed-time "
                    f"chi-square {chi2:.1f} <= {crit:.1f} (1% level, 19 dof)")


def _random_signed_pmf(gen):
    k = int(gen.integers(2, 5))
    while True:
        support = np.round(gen.uniform(-2.0, 2.0, size=k), 6)
        if np.unique(support).size == k:
            break
    return FinitePmf(support, gen.dirichlet(np.ones(k)))


def test_criterion_8_mismatched_estimation_nonnegative():
    gen = np.random.default_rng(88)
    ok = True
    min_t_gauss = math.inf
    for pair in range(20):
        p_pmf = _random_signed_pmf(gen)
        q_pmf = _random_signed_pmf(gen)
        model = constant_signal_model(1.0, 5e-3, prior=p_pmf)
        est = mismatched_relent_gaussian(model, functools.partial(discrete_prior_filter, q_pmf),
                                         rng=800 + pair, replicas=1500)
        ok = ok and est.value >= -3.0 * est.stderr
        if est.stderr > 0:
            min_t_gauss = min(min_t_gauss, est.value / est.stderr)
    model = constant_signal_model(1.0, 5e-3)
    eq_gauss = mismatched_relent_gaussian(model, functools.partial(exact_filter_constant_signal,
                                                                   prior_var=1.0),
                                          rng=899, replicas=200)
    ok = ok and abs(eq_gauss.value) <= 3.0 * eq_gauss.stderr

    min_t_poisson = math.inf
    for pair in range(20):
        p_pmf = random_positive_pmf(gen)
        q_pmf = random_positive_pmf(gen)
        est = mismatched_relent_poisson(p_pmf, q_pmf, 250.0, rng=850 + pair,
                                        replicas=2)
        ok = ok and est.value >= -3.0 * est.stderr
        if est.stderr > 0:
            min_t_poisson = min(min_t_poisson, est.value / est.stderr)
    eq_poisson = mismatched_relent_poisson(BINARY, BINARY, 250.0, rng=898, replicas=2)
    ok = ok and abs(eq_poisson.value) <= 3.0 * eq_poisson.stderr
    _verdict(8, ok, f"20 random (P, Q) pairs per channel all >= -3 stderr "
                    f"(min t-stat gaussian {min_t_gauss:.1f}, poisson {min_t_poisson:.1f}); "
                    f"Q = P gave {eq_gauss.value!r} and {eq_poisson.value!r}")


def test_criterion_9_capacity_scale_law():
    base = optimize_binary(1.0, 2.0)
    ok = True
    parts = []
    for c in (0.5, 2.0):
        scaled = optimize_binary(c * 1.0, c * 2.0)
        rate_gap = abs(scaled.rate_star - c * base.rate_star) / (c * base.rate_star)
        p_gap = abs(scaled.p_star - base.p_star)
        ok = ok and rate_gap <= 1e-6 and p_gap <= 1e-6
        parts.append(f"c={c:g}: rel rate gap {rate_gap:.1e}, p* gap {p_gap:.1e}")
    gen = np.random.default_rng(99)
    max_resid = max(unit_cost_identity_check(random_positive_pmf(gen)) for _ in range(5))
    max_resid = max(max_resid, unit_cost_identity_check(BINARY))
    ok = ok and max_resid < 1e-8
    _verdict(9, ok, "dilation scale law on the optimized binary rate; "
                    + "; ".join(parts) + f"; unit-cost residual {max_resid:.1e} < 1e-8")
