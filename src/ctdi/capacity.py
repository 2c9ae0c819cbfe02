"""Capacity per unit cost of the feedback Poisson channel over binary inputs.

The admissible cost of an input law is its mean interarrival time E[Y] =
E[1/X], so the figure of merit for a binary law on {lambda1, lambda2} is the
analytic directed-information rate as a function of the mixing weight p.
That rate is I(p) / E_p[1/X]: the one-event mutual information I(p) is
concave in the input law, and the mean cost E_p[1/X] is positive and affine
in p, so every superlevel set {I(p) >= r E_p[1/X]} is an interval and the
rate is quasi-concave (Dinkelbach, 1967).  Brent's method on [0, 1] (Brent,
1973, Algorithms for Minimization without Derivatives, ch. 5) therefore
finds its maximum without a preliminary scan.  Brent shrinks the bracket by
comparisons alone: a point worse than the best so far rules out everything
beyond it, since any point between the best and the maximum of a
quasi-concave function is at least as good as the best.  Its parabolic
steps, which pay off because the rate is smooth, only choose where to look
next, so the maximum stays inside the bracket whatever they propose.  It
runs on the slower level's weight, whose optimum nears 0 as the levels part,
and capacity_curve checks every level with the rate's guard, _check_ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FinitePmf
from .poisson import (_check_levels, _check_ratio, di_rate_analytic,
                      mean_interarrival_quadrature, mean_inverse_intensity)

__all__ = [
    "CapacityPoint",
    "binary_rate",
    "optimize_binary",
    "capacity_curve",
    "unit_cost_identity_check",
]

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # the golden-section fraction


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


def binary_rate(p: float, lambda1: float, lambda2: float) -> float:
    """Analytic rate of the binary input putting weight p on lambda1.

    Exactly zero at p in {0, 1} and whenever the two levels coincide.  A
    level below the smallest normal float raises ValueError, coincident or not.
    """
    _check_levels(np.array([lambda1, lambda2], dtype=float))
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if lambda1 == lambda2:
        return 0.0
    pmf = FinitePmf(np.array([lambda1, lambda2]), np.array([p, 1.0 - p]))
    return di_rate_analytic(pmf)


def _brent_max(fn, tol: float):
    """Maximize a quasi-concave fn on [0, 1] by Brent's method; (best point, its value).

    The bracket [a, b] always holds the maximum.  x is the best point so far,
    w the second best and v the previous w.  The next point is the vertex of
    the parabola through them when that lies inside the bracket and moves
    less than half the step before last, and a golden-section step into the
    larger side of x otherwise (Brent 1973, ch. 5).  No step is shorter than
    a third of the target width, so once the parabola has converged the
    bracket closes on x.
    """
    a, b = 0.0, 1.0
    x = w = v = _CGOLD
    fx = fw = fv = fn(x)
    d = e = 0.0  # the last step and the one before it
    # 2 tol min(m, 1 - m), m the midpoint
    while b - a > (width := tol * min(a + b, 2.0 - a - b)):
        shortest = width / 3.0
        golden = True
        if abs(e) > shortest:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # the vertex is x + p/q
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                golden = False
                e, d = d, p / q
                if min(x + d - a, b - x - d) < 2.0 * shortest:
                    d = math.copysign(shortest, a + b - 2.0 * x)
        if golden:
            e = (a - x) if 2.0 * x >= a + b else (b - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= shortest else math.copysign(shortest, d))
        # at float resolution no new point inside (a, b) differs from x
        if u == x or not a < u < b:
            break
        fu = fn(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def optimize_binary(lambda1: float, lambda2: float, tol: float = 1e-6) -> CapacityPoint:
    """Maximize the quasi-concave binary rate by Brent's method on the slower level's weight q.

    q nears 0 as the levels part (about ln(r) / r at ratio r), and p_star,
    the weight on lambda1, is q or 1 - q.  Golden-section steps bracket the
    maximum and parabolic steps through the three best points converge on it
    (Brent, 1973).  It stops once the bracket is narrower than 2*tol*min(m,
    1 - m), m its midpoint, so tol is relative to the nearer end of [0, 1]
    and optima near q = 0 are resolved.  q is the best point evaluated in the
    final bracket and rate_star its rate.  tol must lie in (0, 1); a tol
    below float resolution stops once no new point inside the bracket
    differs from the best one.  Coincident levels carry no information for
    any p; that case returns a zero rate flagged degenerate (the objective
    is flat).  A level below the smallest normal float raises ValueError
    first, and levels more than about 3.6e306 apart at the first rate.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    _check_levels(np.array([lambda1, lambda2], dtype=float))
    if lambda1 == lambda2:
        return CapacityPoint(lambda1, lambda2, 0.5, 0.0, degenerate=True)
    slow, fast = sorted((lambda1, lambda2))
    q, rate_star = _brent_max(lambda q: binary_rate(q, slow, fast), tol)
    return CapacityPoint(lambda1, lambda2, q if slow == lambda1 else 1.0 - q, rate_star)


def capacity_curve(lambda1: float, lambda2_values, tol: float = 1e-6) -> list[CapacityPoint]:
    """Optimized points for each lambda2; lambda2 = 0 is the silent-symbol limit.

    A zero second level can never fire, so no information flows and the rate
    is zero by convention (reported with all mass on the live symbol).
    Every level is checked before any is optimized, lambda1 against the
    smallest normal float even when every lambda2 is 0.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if not 0.0 < lambda1 < math.inf:
        raise ValueError(f"lambda1 must be positive and finite, got {lambda1}")
    _check_levels(np.array([lambda1], dtype=float))
    levels = [float(lam2) for lam2 in lambda2_values]
    for lam2 in levels:
        if not 0.0 <= lam2 < math.inf:
            raise ValueError(f"intensities must be nonnegative and finite, got lambda2={lam2!r}")
        if lam2 > 0.0:
            _check_ratio((lambda1, lam2))
    out = []
    for lam2 in levels:
        if lam2 == 0.0:
            out.append(CapacityPoint(lambda1, 0.0, 1.0, 0.0, degenerate=True))
        else:
            out.append(optimize_binary(lambda1, lam2, tol=tol))
    return out


def unit_cost_identity_check(pmf: FinitePmf) -> float:
    """|E[Y] by quadrature - E[1/X] in closed form|; the cost identity residual."""
    return abs(mean_interarrival_quadrature(pmf) - mean_inverse_intensity(pmf))
