"""Gauss-Legendre panel quadrature, plus the uniform Simpson rules.

Callers of `integrate_panels` place the initial edges where the integrand
changes scale (geometric panels for the exponential mixtures of the Poisson
channel), so the panel count grows with the logarithm of the scale ratio.
No estimator calls the Simpson rules any more; they stay public because the
benchmark's tracer reports per-layer counters under their names.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["gauss_legendre", "integrate_panels", "composite_simpson", "adaptive_simpson"]

_MAX_ROUNDS = 40
_MAX_PANELS = 1 << 14


@functools.cache
def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Built on first use: importing numpy.polynomial costs a few milliseconds
    that a run with no quadrature should not pay.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def integrate_panels(fn, edges, tol: float = 1e-10) -> float:
    """Integral of a vectorized fn over [edges[0], edges[-1]] by 20-node Gauss-Legendre.

    Each panel is bisected until its 10- and 20-node sums differ by at most
    its share of tol: the initial panels share tol equally and each half of a
    bisected panel gets half of its share.  Raises RuntimeError when panels
    remain unconverged after a fixed number of rounds or outgrow a budget.
    """
    lo = np.asarray(edges, dtype=float)
    if lo.ndim != 1 or lo.size < 2 or np.any(np.diff(lo) <= 0):
        raise ValueError("edges must be a strictly increasing sequence of at least two points")
    lo, hi = lo[:-1], lo[1:]
    share = np.full(lo.size, tol / lo.size)
    x10, w10 = gauss_legendre(10)
    x20, w20 = gauss_legendre(20)
    nodes = np.concatenate((x10, x20))
    total = 0.0
    for _ in range(_MAX_ROUNDS):
        half = 0.5 * (hi - lo)
        mid = lo + half
        vals = fn((mid[:, None] + half[:, None] * nodes).ravel()).reshape(mid.size, nodes.size)
        coarse = half * (vals[:, :10] @ w10)
        fine = half * (vals[:, 10:] @ w20)
        done = np.abs(fine - coarse) <= share
        total += float(fine[done].sum())
        if done.all():
            return total
        lo, mid, hi, share = lo[~done], mid[~done], hi[~done], 0.5 * share[~done]
        if 2 * lo.size > _MAX_PANELS:
            break
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        share = np.concatenate((share, share))
    raise RuntimeError(f"Gauss-Legendre panels did not reach tol={tol}: "
                       f"{lo.size} panels unconverged, the narrowest {float((hi - lo).min()):.3g} wide")


def composite_simpson(fn, a: float, b: float, n: int) -> float:
    """Simpson's rule with n uniform intervals (n even); fn must be vectorized."""
    if n < 2 or n % 2:
        raise ValueError("need an even number of intervals, at least 2")
    x = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / (3.0 * n) * np.dot(w, fn(x)))


def adaptive_simpson(fn, a: float, b: float, tol: float = 1e-10,
                     n0: int = 32, max_doublings: int = 22) -> float:
    """Refine a uniform Simpson mesh until |S_2n - S_n| / 15 < tol.

    Returns the Richardson-extrapolated value.  Raises if the estimate fails
    to converge within the doubling budget.
    """
    if b <= a:
        raise ValueError("need a nonempty interval")
    n = max(2, n0 + n0 % 2)
    prev = composite_simpson(fn, a, b, n)
    for _ in range(max_doublings):
        n *= 2
        cur = composite_simpson(fn, a, b, n)
        err = abs(cur - prev) / 15.0
        if err < tol:
            return cur + (cur - prev) / 15.0
        prev = cur
    raise RuntimeError(f"Simpson refinement did not reach tol={tol} within {max_doublings} doublings")
