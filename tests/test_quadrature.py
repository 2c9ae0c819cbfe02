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


def test_integrate_panels_known_integrals():
    assert integrate_panels(np.exp, [0.0, 1.0], tol=1e-12) == pytest.approx(math.e - 1.0, abs=1e-12)
    assert integrate_panels(np.sin, [0.0, math.pi], tol=1e-12) == pytest.approx(2.0, abs=1e-12)
    decay = integrate_panels(lambda t: np.exp(-3.0 * t), [0.0, 40.0], tol=1e-12)
    assert decay == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_integrate_panels_reports_nonconvergence():
    # a jump: the 10- and 20-node sums on the panel holding it differ by an
    # amount proportional to the panel width, as does the panel's share of tol
    with pytest.raises(RuntimeError):
        integrate_panels(lambda t: np.where(t < 1.0 / 3.0, 0.0, 1.0), [0.0, 1.0], tol=1e-12)
    # a fast oscillation over a long range outgrows the panel budget first
    with pytest.raises(RuntimeError, match="panels unconverged"):
        integrate_panels(lambda t: np.sin(1e4 * t) ** 2 * np.exp(-t), [0.0, 1e3], tol=1e-13)
    with pytest.raises(ValueError):
        integrate_panels(np.exp, [1.0, 0.0])
