"""Capacity per unit cost of the feedback Poisson channel over binary inputs.

The admissible cost of an input law is its mean interarrival time E[Y] =
E[1/X], so the figure of merit for a binary law on {lambda1, lambda2} is the
analytic directed-information rate as a function of the mixing weight p.
That rate is I(p) / E_p[1/X]: the one-event mutual information I(p) is
concave in the input law, and the mean cost E_p[1/X] is positive and affine
in p, so every superlevel set {I(p) >= r E_p[1/X]} is an interval and the
rate is quasi-concave (Dinkelbach, 1967).  Golden-section search on [0, 1]
therefore finds its maximum without a preliminary scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FinitePmf
from .poisson import di_rate_analytic, mean_interarrival_quadrature, mean_inverse_intensity

__all__ = [
    "CapacityPoint",
    "binary_rate",
    "optimize_binary",
    "capacity_curve",
    "unit_cost_identity_check",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CapacityPoint:
    """Optimized binary input: weight p_star on lambda1 and the achieved rate."""

    lambda1: float
    lambda2: float
    p_star: float
    rate_star: float
    degenerate: bool = False

    def __post_init__(self):
        if not 0.0 <= self.p_star <= 1.0:
            raise ValueError("p_star must lie in [0, 1]")
        if self.rate_star < 0:
            raise ValueError("rate_star must be nonnegative")


def binary_rate(p: float, lambda1: float, lambda2: float, tol: float = 1e-10) -> float:
    """Analytic rate of the binary input putting weight p on lambda1.

    Exactly zero at p in {0, 1} and whenever the two levels coincide.
    """
    if lambda1 <= 0 or lambda2 <= 0:
        raise ValueError("intensities must be strictly positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0 or p == 1.0 or lambda1 == lambda2:
        return 0.0
    pmf = FinitePmf(np.array([lambda1, lambda2]), np.array([p, 1.0 - p]))
    return di_rate_analytic(pmf, tol=tol)


def _golden_max(fn, a: float, b: float, tol: float):
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


def optimize_binary(lambda1: float, lambda2: float, tol: float = 1e-6,
                    quad_tol: float = 1e-11) -> CapacityPoint:
    """Maximize the quasi-concave binary rate over p by golden-section search.

    Coincident levels carry no information for any p; that case returns a
    zero rate flagged degenerate (the objective is flat).
    """
    if lambda1 <= 0 or lambda2 <= 0:
        raise ValueError("intensities must be strictly positive")
    if lambda1 == lambda2:
        return CapacityPoint(lambda1, lambda2, 0.5, 0.0, degenerate=True)

    def fn(p):
        return binary_rate(p, lambda1, lambda2, tol=quad_tol)

    p_star, rate_star = _golden_max(fn, 0.0, 1.0, tol)
    return CapacityPoint(lambda1, lambda2, p_star, max(rate_star, 0.0))


def capacity_curve(lambda1: float, lambda2_values, tol: float = 1e-6) -> list[CapacityPoint]:
    """Optimized points for each lambda2; lambda2 = 0 is the silent-symbol limit.

    A zero second level can never fire, so no information flows and the rate
    is zero by convention (reported with all mass on the live symbol).
    """
    out = []
    for lam2 in lambda2_values:
        lam2 = float(lam2)
        if lam2 < 0:
            raise ValueError("intensities must be nonnegative")
        if lam2 == 0.0:
            out.append(CapacityPoint(lambda1, 0.0, 1.0, 0.0, degenerate=True))
        else:
            out.append(optimize_binary(lambda1, lam2, tol=tol))
    return out


def unit_cost_identity_check(pmf: FinitePmf, tol: float = 1e-11) -> float:
    """|E[Y] by quadrature - E[1/X] in closed form|; the cost identity residual."""
    return abs(mean_interarrival_quadrature(pmf, tol=tol) - mean_inverse_intensity(pmf))
