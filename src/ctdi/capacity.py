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
runs on the slower level's weight q, whose optimum nears 0 as the levels
part, and reports it as q_star beside p_star, the weight on lambda1.
capacity_curve checks every level with the rate's guard, _check_ratio, then
advances every level's search in lock-step, one batched rate quadrature per
round; optimize_binary is capacity_curve of one level, lambda2 = 0 allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FinitePmf
from .poisson import (_check_levels, _check_ratio, _rates, mean_interarrival_quadrature,
                      mean_inverse_intensity)

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
    """Optimized binary input: weight p_star on lambda1, the rate, and q_star on the slower level.

    The search runs on q_star, and p_star is q_star or 1 - q_star: below
    2^-53 beside a faster lambda1, p_star rounds to 1, a law of rate 0.
    Left out, q_star is taken from p_star.
    """

    lambda1: float
    lambda2: float
    p_star: float
    rate_star: float
    degenerate: bool = False
    q_star: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.p_star <= 1.0:
            raise ValueError("p_star must lie in [0, 1]")
        if self.rate_star < 0:
            raise ValueError("rate_star must be nonnegative")
        if self.q_star is None:
            q = self.p_star if self.lambda1 < self.lambda2 else 1.0 - self.p_star
            object.__setattr__(self, "q_star", q)
        if not 0.0 <= self.q_star <= 1.0:
            raise ValueError("q_star must lie in [0, 1]")


def binary_rate(p, lambda1: float, lambda2: float):
    """Analytic rate of the binary input putting weight p on lambda1; p a weight or an array of them.

    Weights strictly inside (0, 1) of distinct levels get their rates from
    one batched rate quadrature (_binary_rates), each what it is alone, and
    every other weight reads exactly zero.  Levels that fail _check_ratio
    raise ValueError, coincident or not, and so does a weight outside [0, 1].
    """
    _check_ratio((lambda1, lambda2))
    weights = np.asarray(p, dtype=float)
    if not ((0.0 <= weights) & (weights <= 1.0)).all():
        raise ValueError("p must lie in [0, 1]")
    rates = np.zeros_like(weights)
    inner = (0.0 < weights) & (weights < 1.0) & (lambda1 != lambda2)
    # integrate_panels refuses an empty batch
    if inner.any():
        rates[inner] = _binary_rates(weights[inner], lambda1, lambda2)
    return float(rates) if rates.ndim == 0 else rates


def _binary_rates(p, lambda1, lambda2) -> np.ndarray:
    """Rates of the binary laws with weight p on lambda1 and 1 - p on lambda2, elementwise.

    One di_rate_analytic batch (poisson._rates) over the broadcast
    arguments; the level pairs must be distinct and pass _check_ratio.
    """
    p, lambda1, lambda2 = np.broadcast_arrays(p, lambda1, lambda2)
    levels = np.stack((lambda1, lambda2), axis=-1).reshape(-1, 2)
    probs = np.stack((p, 1.0 - p), axis=-1).reshape(-1, 2)
    return _rates(levels, probs).reshape(p.shape)


def _brent_max(tol: float):
    """Maximize a quasi-concave fn on [0, 1] by Brent's method, as a generator.

    It yields each point to evaluate and is sent fn's value there (fu =
    yield u); it returns (best point, its value) in its StopIteration.
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
    fx = fw = fv = yield x
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
        fu = yield u
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

    q nears 0 as the levels part (about ln(r) / r at ratio r); q_star is the
    best q and p_star, the weight on lambda1, is q or 1 - q.  Golden-section
    steps bracket the maximum and parabolic steps through the three best
    points converge on it (Brent, 1973).  It stops once the bracket is
    narrower than 2*tol*min(m, 1 - m), m its midpoint, so tol is relative to
    the nearer end of [0, 1] and optima near q = 0 are resolved.  q is the
    best point evaluated in the final bracket and rate_star its rate.  tol
    must lie in (0, 1); a tol below float resolution stops once no new point
    inside the bracket differs from the best one.  It is capacity_curve of one level.
    """
    return capacity_curve(lambda1, [lambda2], tol)[0]


def capacity_curve(lambda1: float, lambda2_values, tol: float = 1e-6) -> list[CapacityPoint]:
    """Optimized points for each lambda2, every level's search advancing together.

    A silent lambda2 = 0 never fires and a lambda2 equal to lambda1 carries
    no information, so both read a zero rate flagged degenerate, at p = 1 and
    p = 0.5.  Every level is checked before any is optimized: lambda1 by
    _check_levels, even when every lambda2 is 0, and each nonzero lambda2 by
    _check_ratio.  Each round sends every pending search (_brent_max on the
    slower level's weight q) its point's rate from one _binary_rates call; a
    rate does not depend on its batch, so each search takes its own steps.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    _check_levels(np.array([lambda1], dtype=float))
    levels = [float(lam2) for lam2 in lambda2_values]
    for lam2 in levels:
        if lam2 != 0.0:
            _check_ratio((lambda1, lam2))
    # -0.0 is silent too, and is written as 0
    out = [CapacityPoint(lambda1, 0.0, 1.0, 0.0, degenerate=True) if lam2 == 0.0
           else CapacityPoint(lambda1, lam2, 0.5, 0.0, degenerate=True) if lam2 == lambda1
           else None for lam2 in levels]
    pairs = {i: sorted((lambda1, lam2)) for i, lam2 in enumerate(levels) if out[i] is None}
    searches = {i: _brent_max(tol) for i in pairs}
    points = {i: next(search) for i, search in searches.items()}
    while points:
        pending = list(points)
        slow, fast = np.array([pairs[i] for i in pending]).T
        rates = _binary_rates(np.array([points[i] for i in pending]), slow, fast)
        for i, rate in zip(pending, rates.tolist()):
            try:
                points[i] = searches[i].send(rate)
            except StopIteration as stop:
                del points[i]
                q, rate_star = stop.value
                p_star = q if pairs[i][0] == lambda1 else 1.0 - q
                out[i] = CapacityPoint(lambda1, levels[i], p_star, rate_star, q_star=q)
    return out


def unit_cost_identity_check(pmf: FinitePmf) -> float:
    """|E[Y] by quadrature - E[1/X] in closed form|; the cost identity residual."""
    return abs(mean_interarrival_quadrature(pmf) - mean_inverse_intensity(pmf))
