import math

import numpy as np
import pytest

from conftest import random_positive_pmf
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


def test_rate_grows_with_level_separation():
    r2 = optimize_binary(1.0, 2.0).rate_star
    r10 = optimize_binary(1.0, 10.0).rate_star
    r100 = optimize_binary(1.0, 100.0).rate_star
    r10k = optimize_binary(1.0, 1e4).rate_star
    assert r10k > r100 > r10 > r2


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
