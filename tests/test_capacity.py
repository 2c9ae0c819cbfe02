import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import peak_limited_capacity, random_positive_pmf
from ctdi import capacity
from ctdi.capacity import (
    CapacityPoint,
    binary_rate,
    capacity_curve,
    optimize_binary,
    unit_cost_identity_check,
)
from ctdi.core import FinitePmf
from ctdi.poisson import PoissonFeedbackModel, di_rate_analytic, di_rate_mc


def test_binary_rate_endpoints_and_degenerate_levels():
    assert binary_rate(0.0, 1.0, 2.0) == 0.0
    assert binary_rate(1.0, 1.0, 2.0) == 0.0
    assert binary_rate(0.4, 2.0, 2.0) == 0.0
    assert binary_rate(0.5, 1.0, 2.0) > 0.0


def test_binary_rate_validation():
    with pytest.raises(ValueError):
        binary_rate(-0.1, 1.0, 2.0)
    with pytest.raises(ValueError):
        binary_rate(1.1, 1.0, 2.0)
    with pytest.raises(ValueError):
        binary_rate(0.5, 0.0, 2.0)
    with pytest.raises(ValueError):
        binary_rate(0.5, 1.0, -2.0)
    for lam1, lam2 in ((0.0, 2.0), (1.0, -2.0)):
        with pytest.raises(ValueError, match="strictly positive"):
            optimize_binary(lam1, lam2)
    # a level that is not finite is refused by the same guard, and named
    for refused, named in ((lambda: binary_rate(0.5, math.inf, math.inf), "lambda1=inf"),
                           (lambda: optimize_binary(math.inf, math.inf), "lambda1=inf"),
                           (lambda: binary_rate(0.5, math.nan, 1.0), "lambda1=nan"),
                           (lambda: optimize_binary(1.0, math.nan), "lambda2=nan")):
        with pytest.raises(ValueError, match=f"finite, strictly positive and at least .*{named}"):
            refused()


def test_coincident_and_silent_levels_meet_the_level_floor():
    # no rate is computed for these, yet a level below the smallest normal
    # float is refused as for any other pair
    for refused in (lambda: optimize_binary(1e-310, 1e-310),
                    lambda: binary_rate(0.5, 1e-310, 1e-310),
                    lambda: capacity_curve(1e-310, [0.0]),
                    lambda: capacity_curve(1e-310, [0.0, 0.0])):
        with pytest.raises(ValueError, match="lambda1=1e-310"):
            refused()
    # the coincident and silent shortcuts themselves stand above the floor
    assert binary_rate(0.5, 2.0, 2.0) == 0.0
    assert optimize_binary(2.0, 2.0).degenerate
    assert capacity_curve(2.0, [0.0])[0].rate_star == 0.0


def test_levels_below_the_smallest_normal_float_are_refused():
    # 1/x overflows below np.finfo(float).tiny, so the rate there would read
    # 0 at a p_star near 1; at tiny itself the scale law still holds
    with pytest.raises(ValueError, match="lambda1=1e-310"):
        optimize_binary(1e-310, 3e-310)
    tiny = np.finfo(float).tiny
    low = optimize_binary(tiny, 3 * tiny)
    assert abs(low.p_star - optimize_binary(1.0, 3.0).p_star) <= 1e-6
    assert low.rate_star > 0.0


def test_binary_rate_swap_symmetry():
    for p in (0.1, 0.35, 0.5, 0.8):
        a = binary_rate(p, 1.0, 2.0)
        b = binary_rate(1.0 - p, 2.0, 1.0)
        assert math.isclose(a, b, rel_tol=1e-12)


def test_rate_profile_is_unimodal_with_interior_peak():
    ps = np.linspace(0.0, 1.0, 21)
    vals = np.array([binary_rate(p, 1.0, 2.0) for p in ps])
    assert vals[0] == 0.0 and vals[-1] == 0.0
    k = int(vals.argmax())
    assert 0 < k < 20
    assert np.all(np.diff(vals[: k + 1]) > 0)
    assert np.all(np.diff(vals[k:]) < 0)


def test_optimize_binary_finds_local_max():
    point = optimize_binary(1.0, 2.0)
    assert 0.0 < point.p_star < 0.5
    assert point.rate_star == pytest.approx(binary_rate(point.p_star, 1.0, 2.0),
                                            abs=1e-11)
    for eps in (-10e-6, 10e-6):
        assert binary_rate(point.p_star + eps * 10, 1.0, 2.0) <= point.rate_star + 1e-9
    grid = max(binary_rate(p, 1.0, 2.0) for p in np.linspace(0.01, 0.99, 99))
    assert point.rate_star >= grid - 1e-6


def test_optimize_binary_degenerate_levels():
    point = optimize_binary(3.0, 3.0)
    assert point.degenerate
    assert point.rate_star == 0.0


def count_rate_points(monkeypatch):
    """Each batched rate call's points, as (weight on the first level, first level, second level)."""
    rounds = []
    batched = capacity._binary_rates

    def counted(p, lambda1, lambda2):
        rounds.append(list(zip(*np.broadcast_arrays(p, lambda1, lambda2))))
        return batched(p, lambda1, lambda2)

    monkeypatch.setattr(capacity, "_binary_rates", counted)
    return rounds


def test_tol_range_and_stop_at_float_resolution(monkeypatch):
    for tol in (0.0, -1.0, 1.0, math.nan):
        with pytest.raises(ValueError):
            optimize_binary(1.0, 2.0, tol=tol)
        with pytest.raises(ValueError):
            capacity_curve(1.0, [0.0], tol=tol)
    reference = optimize_binary(1.0, 2.0)
    rounds = count_rate_points(monkeypatch)
    # no bracket of floats is as narrow as tol = 1e-300 asks; the search
    # must stop once its interior points stop being distinct
    point = optimize_binary(1.0, 2.0, tol=1e-300)
    assert sum(map(len, rounds)) < 200
    assert abs(point.p_star - reference.p_star) <= 1e-6
    assert point.rate_star >= reference.rate_star - 1e-12


def test_brent_search_evaluations_per_level(monkeypatch):
    # golden-section search spent 33-35 rate evaluations on each of these levels
    rounds = count_rate_points(monkeypatch)
    capacity_curve(1.0, [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    per_level = {}
    for points in rounds:
        for _, slow, fast in points:
            # the search passes the slower level first, so lambda2 is either level but 1
            (lam2,) = {float(slow), float(fast)} - {1.0}
            per_level[lam2] = per_level.get(lam2, 0) + 1
    assert sorted(per_level) == [0.25, 0.5, 2.0, 4.0, 8.0, 16.0]
    assert max(per_level.values()) <= 15
    # the levels' searches advance together, one batched rate call per round
    assert len(rounds) <= 15


def test_optimize_binary_against_a_reference_argmax():
    tol = 1e-6
    for lam2 in (0.25, 2.0, 16.0, 1e4):
        ref = minimize_scalar(lambda p: -binary_rate(p, 1.0, lam2),
                              bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12})
        point = optimize_binary(1.0, lam2, tol=tol)
        assert abs(point.p_star - ref.x) <= 2 * tol * min(ref.x, 1.0 - ref.x)
        assert point.rate_star >= -ref.fun - 1e-12


def brent_max(fn, tol):
    """Drive the search generator with fn; (best point, its value)."""
    search = capacity._brent_max(tol)
    try:
        point = next(search)
        while True:
            point = search.send(fn(point))
    except StopIteration as stop:
        return stop.value


def test_brent_search_on_synthetic_quasi_concave_functions():
    tol = 1e-6
    for fn, argmax in ((lambda p: -abs(p - 0.3), 0.3),
                       (lambda p: -(p - 0.8) ** 4, 0.8),
                       # a sharp peak near 0, where the rate of lambda2 = 1e8 peaks
                       (lambda p: -math.log(p / 1.6e-7) ** 2 if p > 0.0 else -math.inf, 1.6e-7)):
        calls = []

        def counted(p):
            calls.append(p)
            return fn(p)

        p_star, value = brent_max(counted, tol)
        assert abs(p_star - argmax) <= 2 * tol * min(argmax, 1.0 - argmax)
        assert value == fn(p_star)
        assert len(calls) < 100


def test_scale_law_is_exact_for_powers_of_two():
    # the rate scales exactly with the levels, and so does every parabola
    # ratio, so the search takes the same steps
    base = optimize_binary(1.0, 2.0)
    for c in (0.25, 0.5, 2.0, 4.0):
        assert optimize_binary(c, 2.0 * c).p_star == base.p_star


def test_capacity_curve_shape():
    lam2 = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
    pts = capacity_curve(1.0, lam2)
    rates = [pt.rate_star for pt in pts]
    assert rates[0] == 0.0
    assert pts[0].degenerate
    assert rates[3] == 0.0
    assert rates[1] > 0.0 and rates[2] > 0.0
    assert rates[5] > rates[4] > rates[3]
    with pytest.raises(ValueError):
        capacity_curve(1.0, [-1.0])
    for lam1 in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            capacity_curve(lam1, [0.0])


def test_capacity_curve_checks_every_level_first(monkeypatch):
    # a bad level anywhere in the list, levels too far apart for the rate
    # quadrature included, fails before any level is optimized
    rounds = count_rate_points(monkeypatch)
    for levels in ([2.0, -1.0], [2.0, math.nan], [2.0, math.inf], [2.0, 1e307], [1e-307, 2.0],
                   [2.0, 1e-310]):
        with pytest.raises(ValueError, match="lambda2"):
            capacity_curve(1.0, levels)
    assert rounds == []


def test_batched_rates_equal_each_law_alone():
    # 200 binary laws at level ratios up to e^5 either way, with weights 0, 1
    # and 1e-20 among them: the batched rate of each equals its rate alone,
    # bit for bit, and binary_rate is di_rate_analytic of the same law
    gen = np.random.default_rng(37)
    lam1 = np.exp(gen.uniform(-3.0, 3.0, size=200))
    lam2 = lam1 * np.exp(gen.choice([-1.0, 1.0], size=200) * gen.uniform(0.1, 5.0, size=200))
    p = gen.uniform(0.0, 1.0, size=200)
    p[:3] = 0.0, 1.0, 1e-20
    gen.shuffle(p)
    batch = capacity._binary_rates(p, lam1, lam2)
    for i in range(200):
        alone = binary_rate(p[i], lam1[i], lam2[i])
        assert batch[i] == alone
        assert alone == di_rate_analytic(FinitePmf([lam1[i], lam2[i]], [p[i], 1.0 - p[i]]))
    assert (batch[p == 0.0] == 0.0).all() and (batch[p == 1.0] == 0.0).all()
    assert batch[p == 1e-20] > 0.0
    # the weights of one level pair in one call, as poisson-rate asks for them
    assert binary_rate(p[:5], 1.0, 2.0).tolist() == [binary_rate(w, 1.0, 2.0) for w in p[:5]]


def test_capacity_curve_equals_optimize_binary_level_by_level():
    levels = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 1e-20, 1e8]
    for point, lam2 in zip(capacity_curve(1.0, levels), levels):
        alone = optimize_binary(1.0, lam2)
        if lam2 == 0.0:
            assert point.degenerate and point.q_star == 0.0
            assert alone == point
            continue
        assert (point.p_star, point.rate_star, point.q_star) == (alone.p_star, alone.rate_star,
                                                                  alone.q_star)


def test_q_star_reproduces_rate_star_where_p_star_rounds_to_1():
    # below lambda1 by more than about 1e16 the weight 1 - q on lambda1 rounds
    # to 1.0, a law with no rate; q_star, the weight on the slower level, is
    # the one the search found
    # (1e-300 is checked with the other wide ratios below)
    for point in capacity_curve(1.0, [1e-20, 1e-30]):
        assert point.p_star == 1.0
        assert binary_rate(point.p_star, 1.0, point.lambda2) == 0.0
        assert point.q_star > 0.0
        assert binary_rate(point.q_star, point.lambda2, 1.0) == point.rate_star > 0.0
    point = optimize_binary(1.0, 4.0)
    assert point.q_star == point.p_star
    assert binary_rate(point.q_star, 1.0, 4.0) == point.rate_star


def test_rate_at_wide_ratios_matches_high_precision_references():
    # I / (p + q / r), with I = sum_i p_i int x_i e^{-x_i y} ln(x_i e^{-x_i y} / f(y)) dy
    # over the law {1: p, r: q}, q = 1 - p held exactly, by mpmath.quad at 60
    # digits on breakpoints 0, 2^k / r (up to 1), 10, 60 and inf.  Below
    # p = 2^-53 the pmf stores q as 1.0, and reading ln q as 0 would put the
    # rate a nat low at p = 1e-20.
    references = {(1e-20, 1e16): 0.004704699716016454511, (1e-20, 1e30): 47.05170185517574349,
                  (1e-29, 1e16): 6.777496769681999990e-12, (1e-29, 1e30): 61.61360699711574985}
    for (p, r), reference in references.items():
        assert abs(binary_rate(p, 1.0, r) - reference) <= 1e-12 * reference


def test_optimum_up_to_level_ratios_of_1e300():
    # the search runs on the slower level's weight, which nears ln(r) / r,
    # so the optimum keeps growing with the ratio, beats a log grid of
    # weights, and mirrors exactly: levels {1, 10^-k} are {10^k, 1} scaled
    # by 10^-k
    grid = np.logspace(-307.0, 0.0, 600)
    up, down = [], []
    for k in (4, 16, 30, 100, 300):
        far = optimize_binary(1.0, 10.0**k)
        assert far.rate_star >= max(binary_rate(p, 1.0, 10.0**k) for p in grid)
        up.append(far.rate_star)
        near = optimize_binary(1.0, 10.0**-k)
        down.append(near.rate_star / 10.0**-k)
        # the weight on the slower level reproduces the rate where p_star rounds to 1
        assert near.q_star > 0.0 and binary_rate(near.q_star, 10.0**-k, 1.0) == near.rate_star
    assert all(lo <= hi for lo, hi in zip(up, up[1:]))
    assert down == pytest.approx(up, rel=1e-9)


def test_rate_grows_with_level_separation():
    r2 = optimize_binary(1.0, 2.0).rate_star
    r10 = optimize_binary(1.0, 10.0).rate_star
    r100 = optimize_binary(1.0, 100.0).rate_star
    r10k = optimize_binary(1.0, 1e4).rate_star
    # at lambda2 = 1e8 the optimal weight is near 1.6e-7, below an absolute
    # width of 1e-6 in p, so only a relative stopping rule resolves it
    far = optimize_binary(1.0, 1e8)
    assert far.rate_star > r10k > r100 > r10 > r2
    for scale in (1.0 - 1e-2, 1.0 + 1e-2):
        assert far.rate_star >= binary_rate(far.p_star * scale, 1.0, 1e8)


def test_dilation_scale_law():
    base = optimize_binary(1.0, 2.0)
    up = optimize_binary(2.0, 4.0)
    down = optimize_binary(0.5, 1.0)
    assert abs(up.p_star - base.p_star) <= 1e-6
    assert abs(down.p_star - base.p_star) <= 1e-6
    assert abs(up.rate_star - 2.0 * base.rate_star) <= 1e-6 * up.rate_star
    assert abs(down.rate_star - 0.5 * base.rate_star) <= 1e-6 * down.rate_star


def test_general_dilation_of_rate():
    gen = np.random.default_rng(33)
    for _ in range(5):
        pmf = random_positive_pmf(gen)
        base = di_rate_analytic(pmf)
        scaled = di_rate_analytic(type(pmf)(pmf.support * 3.0, pmf.probs))
        assert scaled == pytest.approx(3.0 * base, rel=1e-9)


def test_unit_cost_identity_random_pmfs():
    gen = np.random.default_rng(34)
    for _ in range(8):
        pmf = random_positive_pmf(gen)
        assert unit_cost_identity_check(pmf) < 1e-8


def test_capacity_point_validation():
    with pytest.raises(ValueError):
        CapacityPoint(1.0, 2.0, p_star=1.5, rate_star=0.1)
    with pytest.raises(ValueError):
        CapacityPoint(1.0, 2.0, p_star=0.5, rate_star=-0.1)
    with pytest.raises(ValueError):
        CapacityPoint(1.0, 2.0, p_star=0.5, rate_star=0.1, q_star=1.5)
    # left out, q_star is the weight on the slower level taken from p_star
    assert CapacityPoint(1.0, 2.0, p_star=0.25, rate_star=0.1).q_star == 0.25
    assert CapacityPoint(2.0, 1.0, p_star=0.25, rate_star=0.1).q_star == 0.75


def test_rates_stay_below_the_peak_limited_capacity():
    # feedback does not raise the capacity C(a, b) of the Poisson channel with
    # intensity in [a, b], so no rate of a law on [a, b] exceeds it
    levels = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    for pt in capacity_curve(1.0, levels):
        assert pt.rate_star <= peak_limited_capacity(1.0, pt.lambda2)
    gen = np.random.default_rng(36)
    for atoms in (2, 2, 2, 2, 2, 3, 3, 3, 3, 3):
        support = np.sort(gen.uniform(0.2, 20.0, size=atoms))
        pmf = FinitePmf(support, gen.dirichlet(np.ones(atoms)))
        assert di_rate_analytic(pmf) <= peak_limited_capacity(support[0], support[-1])
    # the binary optimum falls away from C as the levels part: a finding, not a bound
    for ratio, share in ((2.0, 0.900), (4.0, 0.700), (10.0, 0.438)):
        rate = optimize_binary(1.0, ratio).rate_star
        assert rate / peak_limited_capacity(1.0, ratio) == pytest.approx(share, abs=1e-3)


def test_peak_limited_capacity_scales_linearly_under_dilation():
    for a, b in ((1.0, 2.0), (0.25, 1.0), (1.0, 100.0), (0.0, 3.0)):
        base = peak_limited_capacity(a, b)
        assert base > 0.0
        for k in (0.5, 3.0, 1e3):
            assert peak_limited_capacity(k * a, k * b) == pytest.approx(k * base, rel=1e-12)


def test_monte_carlo_rates_stay_below_the_peak_limited_capacity():
    # the poisson-rate benchmark's size: levels {1, 2}, horizon 50, 48 replicas
    bound = peak_limited_capacity(1.0, 2.0)
    for p in np.linspace(0.1, 0.9, 9):
        model = PoissonFeedbackModel(FinitePmf([1.0, 2.0], [p, 1.0 - p]), 50.0)
        est = di_rate_mc(model, rng=0, replicas=48)
        assert est.value <= bound + 4.0 * est.stderr
