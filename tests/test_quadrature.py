import math

import numpy as np
import pytest

from ctdi.quadrature import adaptive_simpson, composite_simpson, integrate_panels


def test_composite_simpson_exact_on_cubics():
    val = composite_simpson(lambda t: t**3 - 2 * t, 0.0, 2.0, 2)
    assert val == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        composite_simpson(lambda t: t, 0.0, 1.0, 3)


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-12)
    assert adaptive_simpson(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)
    decay = adaptive_simpson(lambda t: np.exp(-3.0 * t), 0.0, 40.0)
    assert decay == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_adaptive_simpson_reports_nonconvergence():
    with pytest.raises(RuntimeError):
        adaptive_simpson(lambda t: np.sin(1e6 * t), 0.0, 1.0, tol=1e-14,
                         n0=4, max_doublings=2)


def integral(fn, edges, tol):
    """One integral of a one-argument fn, a batch of one."""
    return integrate_panels(lambda y, _: fn(y), [edges], tol=tol)[0]


def test_integrate_panels_known_integrals():
    assert integral(np.exp, [0.0, 1.0], tol=1e-12) == pytest.approx(math.e - 1.0, abs=1e-12)
    assert integral(np.sin, [0.0, math.pi], tol=1e-12) == pytest.approx(2.0, abs=1e-12)
    decay = integral(lambda t: np.exp(-3.0 * t), [0.0, 40.0], tol=1e-12)
    assert decay == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_integrate_panels_reports_nonconvergence():
    # a jump: the 10- and 20-node sums on the panel holding it differ by an
    # amount proportional to the panel width, as does the panel's share of tol
    with pytest.raises(RuntimeError):
        integral(lambda t: np.where(t < 1.0 / 3.0, 0.0, 1.0), [0.0, 1.0], tol=1e-12)
    # a fast oscillation over a long range outgrows the panel budget first
    with pytest.raises(RuntimeError, match="panels unconverged"):
        integral(lambda t: np.sin(1e4 * t) ** 2 * np.exp(-t), [0.0, 1e3], tol=1e-13)
    for edges in ([[1.0, 0.0]], [[0.0, 1.0], [2.0]], []):
        with pytest.raises(ValueError):
            integrate_panels(lambda y, _: np.exp(y), edges)


def test_integrate_panels_batch_equals_each_integral_alone():
    # integrals on their own panels, with their own bisections and shares of
    # tol (y^1.5 bisects towards 0 for many rounds): each value in
    # a batch is the value alone, bit for bit
    rates = np.array([0.5, 3.0, 40.0, 1e3])
    layouts = [[0.0, 1.0], [0.0, 0.1, 0.5, 4.0], np.geomspace(1e-4, 2.0, 9), [0.5, 0.75, 1.0]]

    def fn(y, k):
        return y * np.sqrt(y) * np.exp(-rates[k, None] * y) * np.cos(rates[k, None] * y)

    batch = integrate_panels(fn, layouts, tol=1e-10)
    for i, edges in enumerate(layouts):
        alone = integrate_panels(lambda y, _: fn(y, np.full(y.shape[0], i)), [edges], tol=1e-10)
        assert batch[i] == alone[0]
    # int_0^1 y^1.5 e^{-y/2} cos(y/2) dy
    assert batch[0] == pytest.approx(0.26325377432515993, abs=1e-10)
