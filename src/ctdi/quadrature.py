"""Gauss-Legendre panel quadrature, plus the uniform Simpson rules.

Callers of `integrate_panels` place the initial edges where the integrand
changes scale (geometric panels for the exponential mixtures of the Poisson
channel), so the panel count grows with the logarithm of the scale ratio.
It integrates a batch of integrals at once, each on its own panels with its
own share of the error target, in one integrand call per round; every sum
is a row sum or runs over one integral's panels in order, so a value does
not depend on its batch.
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


def integrate_panels(fn, edges, tol: float = 1e-10) -> np.ndarray:
    """Integrals of a vectorized fn over a batch of panel layouts, by 20-node Gauss-Legendre.

    edges holds one strictly increasing sequence of at least two points per
    integral.  fn(y, k) gets the nodes of P panels as a (P, 30) array y and
    the (P,) integral index k of each panel.  Each panel is bisected until
    its 10- and 20-node sums differ by at most its share of tol: an
    integral's initial panels share tol equally and each half of a bisected
    panel gets half of its share.  Raises RuntimeError when panels remain
    unconverged after a fixed number of rounds or an integral's panels
    outgrow a budget.
    """
    edges = [np.asarray(e, dtype=float) for e in edges]
    if not edges or any(e.ndim != 1 or e.size < 2 for e in edges):
        raise ValueError("edges must be a strictly increasing sequence of at least two points")
    lo, hi = np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges])
    if not (hi > lo).all():
        raise ValueError("edges must be a strictly increasing sequence of at least two points")
    panels = np.array([e.size - 1 for e in edges])
    k = np.repeat(np.arange(panels.size), panels)
    share = tol / panels[k]
    x10, w10 = gauss_legendre(10)
    x20, w20 = gauss_legendre(20)
    nodes = np.concatenate((x10, x20))
    total = np.zeros(panels.size)
    for _ in range(_MAX_ROUNDS):
        half = 0.5 * (hi - lo)
        mid = lo + half
        vals = fn(mid[:, None] + half[:, None] * nodes, k)
        # row sums of products: einsum sums each panel's row alone, whatever
        # the row count, where a BLAS product need not
        coarse = half * np.einsum("pn,n->p", vals[:, :10], w10)
        fine = half * np.einsum("pn,n->p", vals[:, 10:], w20)
        done = np.abs(fine - coarse) <= share
        # each integral's converged panels, summed in panel order
        total += np.bincount(k[done], weights=fine[done], minlength=panels.size)
        if done.all():
            return total
        left = ~done
        lo, mid, hi, k, share = lo[left], mid[left], hi[left], k[left], 0.5 * share[left]
        if 2 * np.bincount(k).max() > _MAX_PANELS:
            break
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        k, share = np.concatenate((k, k)), np.concatenate((share, share))
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
