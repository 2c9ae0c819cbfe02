import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import random_positive_pmf
from ctdi import capacity
from ctdi.capacity import (
    CapacityPoint,
    binary_rate,
    capacity_curve,
    optimize_binary,
    unit_cost_identity_check,
)
from ctdi.poisson import di_rate_analytic


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


def test_tol_range_and_stop_at_float_resolution(monkeypatch):
    for tol in (0.0, -1.0, 1.0, math.nan):
        with pytest.raises(ValueError):
            optimize_binary(1.0, 2.0, tol=tol)
        with pytest.raises(ValueError):
            capacity_curve(1.0, [0.0], tol=tol)
    reference = optimize_binary(1.0, 2.0)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return binary_rate(*args, **kwargs)

    monkeypatch.setattr(capacity, "binary_rate", counted)
    # no bracket of floats is as narrow as tol = 1e-300 asks; the search
    # must stop once its interior points stop being distinct
    point = optimize_binary(1.0, 2.0, tol=1e-300)
    assert len(calls) < 200
    assert abs(point.p_star - reference.p_star) <= 1e-6
    assert point.rate_star >= reference.rate_star - 1e-12


def test_brent_search_evaluations_per_level(monkeypatch):
    # golden-section search spent 33-35 rate evaluations on each of these levels
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return binary_rate(*args, **kwargs)

    monkeypatch.setattr(capacity, "binary_rate", counted)
    capacity_curve(1.0, [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    per_level = {}
    for args in calls:
        per_level[args[2]] = per_level.get(args[2], 0) + 1
    assert sorted(per_level) == [0.25, 0.5, 2.0, 4.0, 8.0, 16.0]
    assert max(per_level.values()) <= 15


def test_optimize_binary_against_a_reference_argmax():
    tol = 1e-6
    for lam2 in (0.25, 2.0, 16.0, 1e4):
        ref = minimize_scalar(lambda p: -binary_rate(p, 1.0, lam2),
                              bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12})
        point = optimize_binary(1.0, lam2, tol=tol)
        assert abs(point.p_star - ref.x) <= 2 * tol * min(ref.x, 1.0 - ref.x)
        assert point.rate_star >= -ref.fun - 1e-12


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

        p_star, value = capacity._brent_max(counted, tol)
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
    evaluations = []
    monkeypatch.setattr(capacity, "binary_rate", lambda *args, **kwargs: evaluations.append(args))
    for levels in ([2.0, -1.0], [2.0, math.nan], [2.0, math.inf], [2.0, 1e95], [1e-95, 2.0],
                   [2.0, 1e-310]):
        with pytest.raises(ValueError, match="lambda2"):
            capacity_curve(1.0, levels)
    assert evaluations == []


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
