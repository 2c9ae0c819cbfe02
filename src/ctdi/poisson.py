"""Feedback Poisson channel whose input redraws at every output event.

Between events the input intensity is constant, so the causal posterior mean
of the intensity given the whole output past depends only on the elapsed
time since the last event: an exponentially tilted average of the input pmf.
That renewal structure gives closed forms for the stationary intensity law,
the interarrival density and the directed-information rate; the trajectory
Monte Carlo estimators integrate the causal-estimation loss along simulated
paths instead, so the two routes check each other.  Their block draws one
trajectory per Generator, a row group at a time (_groups: one draw pass and
one check per group, each trajectory bit for bit what its Generator draws
alone), and integrates each segment in closed form (_path_block): both
integrands are x a(s) + b(s) in the elapsed time s, and the posterior mean g
is the hazard of the interarrival law, so a segment needs only g's log-ratio
integral L(s) = int_0^s ln(g / min x), read from one table per pmf plus one
16-node Gauss-Legendre piece (_LogHazard).  Each estimate fits three
controls, each of mean exactly 0 because the counting process N less the
integral of its intensity is a martingale (Bremaud, Point Processes and
Queues, 1981): the compensated count of the log predictor ratio, N - int x,
and int (g - x) of the model's own posterior mean g.  Every step is
elementwise or sums one trajectory's own segments, so a value does not
depend on its block.  trajectory_integral, the generic piecewise integrator
for integrands with no closed form, takes one trajectory at a time and calls
its integrand on _CHUNK_SEGMENTS segments at a time, the bound _LogHazard's
pieces share.

Rates are in nats per second.  Every input level must be finite and at least
_TINY, the smallest normal float (_check_levels).  Every analytic integral
here runs to one error target, _QUAD_TOL; the interarrival integrals run on
fixed panels up to 50 on the support divided by its smallest level
(_normalized), which first refuses levels more than about 3.6e306 apart
(_check_ratio).  The analytic rate integrates a batch of laws with equal
atom counts in one quadrature (_rates); di_rate_analytic is a batch of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import DiEstimate, FinitePmf, _inverse_cdf, _readonly, replicated_estimates
from .quadrature import gauss_legendre, integrate_panels

__all__ = [
    "PoissonFeedbackModel",
    "ChannelTrajectory",
    "simulate_channel",
    "renewal_posterior_mean",
    "stationary_intensity_pmf",
    "interarrival_density",
    "mean_inverse_intensity",
    "mean_interarrival_quadrature",
    "di_rate_analytic",
    "di_rate_mc",
    "mismatched_relent_poisson",
    "trajectory_integral",
    "state_at",
    "occupancy_fractions",
]

_EVENT_CAP = 1_000_000
_QUAD_TOL = 1e-11  # error target of every analytic integral in this module
_TINY = float(np.finfo(float).tiny)  # the smallest level: below it 1/x overflows


def _check_levels(levels: np.ndarray) -> np.ndarray:
    """levels, after refusing any not finite or below _TINY; the first is named lambda<i>."""
    if (bad := ~((_TINY <= levels) & (levels < math.inf))).any():
        raise ValueError(f"channel input intensities must be finite, strictly positive and at least "
                         f"{_TINY:.6g}: lambda{bad.argmax() + 1}={levels[bad][0]:.6g}")
    return levels


def _positive_atoms(pmf: FinitePmf):
    """Support/probs restricted to atoms with positive mass, after _check_levels."""
    _check_levels(pmf.support)
    mask = pmf.probs > 0
    return pmf.support[mask], pmf.probs[mask]


@dataclass(frozen=True, eq=False)
class PoissonFeedbackModel:
    """Input pmf (positive support) and finite observation horizon.

    The horizon may expect at most _EVENT_CAP events, horizon / E[1/X]; a
    trajectory holds an epoch and an intensity per event, so none grows
    past a few tens of megabytes.  The fastest level's mean wait 1/max(x)
    may not be below the float spacing of the horizon: shorter waits round
    to zero-length segments near its end, so that level would lose most of
    its time on the path (at horizon 50, levels above about 1.4e14).
    """

    pmf: FinitePmf
    horizon: float

    def __post_init__(self):
        support, _ = _positive_atoms(self.pmf)
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        events = self.horizon / mean_inverse_intensity(self.pmf)
        if events > _EVENT_CAP:
            raise ValueError(f"horizon {self.horizon:g} expects {events:.3g} events, more than "
                             f"the event cap {_EVENT_CAP}")
        wait, spacing = 1.0 / support.max(), np.spacing(self.horizon)
        if wait < spacing:
            raise ValueError(f"levels {', '.join(f'{x:.6g}' for x in support)}: the fastest waits "
                             f"{wait:.3g} on average, less than the float spacing {spacing:.3g} "
                             f"of epochs near the horizon {self.horizon:g}")
        object.__setattr__(self, "horizon", float(self.horizon))


def _check_trajectories(horizon: float, epochs: np.ndarray, vals: np.ndarray, bounds) -> None:
    """Raise ValueError unless every row epochs[bounds[k]:bounds[k + 1]] is a trajectory's events.

    vals holds each event's intensity, and every row shares the horizon.  The
    rows are checked together; a row may start below the end of the row
    before it, since each starts at 0.
    """
    bounds = np.asarray(bounds)
    firsts, lasts = bounds[:-1], bounds[1:] - 1
    if not (lasts >= firsts).all() or (epochs[firsts] != 0.0).any():
        raise ValueError("trajectories start at an event at time 0")
    if (epochs[lasts] >= horizon).any():
        raise ValueError("event epochs must lie in [0, horizon)")
    rises = epochs[1:] > epochs[:-1]
    rises[firsts[1:] - 1] = True
    if not rises.all():
        raise ValueError("event epochs must be strictly increasing")
    if not ((vals > 0) & (vals < math.inf)).all():
        raise ValueError("intensities must be strictly positive and finite")


@dataclass(frozen=True, eq=False)
class ChannelTrajectory:
    """Event epochs on [0, horizon) and the intensity in force after each one.

    The epochs are strictly increasing and the first is 0, so every instant
    in [0, horizon) belongs to exactly one constant-intensity segment whose
    left endpoint is an event; len(events) counts the events.
    """

    horizon: float
    events: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        epochs = _readonly(self.events)
        vals = _readonly(self.intensities)
        if epochs.ndim != 1 or vals.shape != epochs.shape:
            raise ValueError("need a one-dimensional array of epochs and one intensity per event")
        _check_trajectories(self.horizon, epochs, vals, [0, epochs.size])
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "events", epochs)
        object.__setattr__(self, "intensities", vals)

    def segments(self):
        """(starts, ends, intensities) arrays; the last segment ends at the horizon."""
        return self.events, np.append(self.events[1:], self.horizon), self.intensities


def simulate_channel(model: PoissonFeedbackModel, gen: np.random.Generator) -> ChannelTrajectory:
    """Draw a trajectory from gen: X ~ pmf at each event, Exp(X) waits, truncated at the horizon.

    Draws come in batches of at most _BLOCK_SEGMENTS events, which bounds the
    temporaries on a long horizon, and of float-coincident epochs only the
    last is kept (_kept).  This is the row group of one of _groups, so gen
    draws the same trajectory here as in any block.
    """
    epochs, xs, _ = next(_groups(model, [gen]))
    return ChannelTrajectory(model.horizon, epochs, xs)


def _draws(pmf: FinitePmf, gens, size: int):
    """(intensities, waits) of size events per Generator, one row each.

    Row i holds what gens[i].choice(pmf.support, p=pmf.probs, size=size) and
    then gens[i].exponential(1.0 / intensities) draw: the same uniforms and
    standard exponentials, mapped through the same normalized cdf and scaled
    the same way (core._inverse_cdf).
    """
    u = np.empty((len(gens), size))
    e = np.empty_like(u)
    for gen, row_u, row_e in zip(gens, u, e):
        gen.random(out=row_u)
        gen.standard_exponential(out=row_e)
    xs = _inverse_cdf(pmf, u)
    return xs, e * (1.0 / xs)


def _kept(epochs: np.ndarray, horizon: float) -> np.ndarray:
    """Mask of the epochs each row keeps: below the horizon and below every later kept one.

    A wait below the float spacing of its epoch repeats that epoch (or, where
    batch sums round apart, falls just below it): only the last of such
    epochs is kept, as the others bound no time.
    """
    inside = epochs < horizon
    later = np.minimum.accumulate(np.where(inside, epochs, np.inf)[:, ::-1], axis=1)[:, ::-1]
    inside[:, :-1] &= epochs[:, :-1] < later[:, 1:]
    return inside


def _groups(model: PoissonFeedbackModel, gens):
    """Each Generator's trajectory in order, drawn a row group at a time and yielded lazily.

    A trajectory draws in batches of at most _BLOCK_SEGMENTS events, each
    sized from the time left, and depends on its Generator alone.  The first
    batch's size depends only on the model, so a row group of as many rows
    as fit in _BLOCK_SEGMENTS cells draws it together (_draws): one cdf
    search, one scaling and one row-wise cumsum.  A row that falls short of
    the horizon draws on alone.  The rows of a group are checked together,
    once, and each group is yielded as read-only (epochs, intensities,
    bounds) arrays, row k being epochs[bounds[k]:bounds[k + 1]].
    """
    horizon = model.horizon
    mean_wait = mean_inverse_intensity(model.pmf)

    def size(t):
        """Events in the batch a row draws from its epoch t on."""
        return min(_BLOCK_SEGMENTS, max(16, int(1.3 * (horizon - t) / mean_wait) + 10))

    def batch(group, t):
        """One draw batch per row from its epoch t on: (epochs, intensities, t + the waits' sum).

        The size follows t[0]: rows draw together only from t = 0.
        """
        xs, waits = _draws(model.pmf, group, size(t[0]))
        epochs = np.empty_like(waits)
        epochs[:, 0] = 0.0
        np.cumsum(waits[:, :-1], axis=1, out=epochs[:, 1:])
        epochs += t[:, None]
        return epochs, xs, t + waits.sum(axis=1)

    def rows(group):
        """The group's kept epochs and intensities, concatenated in row order, and the row bounds."""
        epochs, xs, ends = batch(group, np.zeros(len(group)))
        keep = _kept(epochs, horizon)
        row_epochs, row_xs = [], []
        for i in range(len(group)):
            e, x, k = epochs[i:i + 1], xs[i:i + 1], keep[i:i + 1]
            if ends[i] < horizon:
                parts, t = [(e, x)], ends[i:i + 1]
                while t[0] < horizon:
                    *part, t = batch(group[i:i + 1], t)
                    parts.append(part)
                e, x = (np.hstack(arrays) for arrays in zip(*parts))
                k = _kept(e, horizon)
            row_epochs.append(e[k])
            row_xs.append(x[k])
        bounds = np.cumsum([0] + [r.size for r in row_epochs])
        return np.concatenate(row_epochs), np.concatenate(row_xs), bounds

    per_group = _BLOCK_SEGMENTS // size(0.0)
    for g in range(0, len(gens), per_group):
        epochs, xs, bounds = rows(gens[g:g + per_group])
        _check_trajectories(horizon, epochs, xs, bounds)
        epochs.flags.writeable = False
        xs.flags.writeable = False
        yield epochs, xs, bounds


def _excess_hazard(support: np.ndarray, probs: np.ndarray, s):
    """(g(s) - lam, D(s)) at the elapsed times s, lam the smallest of the positive-mass atoms.

    g(s) = sum x p(x) e^{-xs} / sum p(x) e^{-xs} and D(s) = sum p(x)
    e^{-(x - lam) s}, which lies in (0, 1] for every finite s; g - lam is
    the ratio of sum (x - lam) p(x) e^{-(x - lam) s} to D, so a point mass
    reads exactly 0.  The sums run atom by atom, so a point's value does not
    depend on the points beside it.
    """
    excess, den = np.zeros_like(s), np.zeros_like(s)
    for gap, p in zip(support - support.min(), probs):
        if gap == 0.0:
            den += p
            continue
        w = np.exp(-gap * s)
        w *= p
        den += w
        w *= gap
        excess += w
    return excess / den, den


def renewal_posterior_mean(pmf: FinitePmf, elapsed):
    """Causal posterior mean of the intensity given a quiet spell of the given length.

    E[X | no event for s seconds] = sum x p(x) e^{-sx} / sum p(x) e^{-sx},
    evaluated as the smallest positive-mass atom plus its excess
    (_excess_hazard), so the ratio never degenerates for finite s and a
    point's value does not depend on the points beside it.
    """
    support, probs = _positive_atoms(pmf)
    s = np.asarray(elapsed, dtype=float)
    if not (s >= 0).all():
        raise ValueError("elapsed time must be nonnegative")
    out = support.min() + _excess_hazard(support, probs, s)[0]
    if out.ndim == 0:
        return float(out)
    return out


def stationary_intensity_pmf(pmf: FinitePmf) -> FinitePmf:
    """Long-run time-fraction law of the intensity: proportional to p(x)/x."""
    _positive_atoms(pmf)
    q = pmf.probs / pmf.support
    return FinitePmf(pmf.support, q / q.sum())


def mean_inverse_intensity(pmf: FinitePmf) -> float:
    """E[1/X]; also the mean interarrival time and the mean cost E[Y]."""
    _positive_atoms(pmf)
    return float(np.dot(pmf.probs, 1.0 / pmf.support))


def interarrival_density(pmf: FinitePmf, y):
    """Density of the wait between events: f(y) = sum_x p(x) x e^{-xy}, summed atom by atom."""
    support, probs = _positive_atoms(pmf)
    y_arr = np.asarray(y, dtype=float)
    if not np.all(y_arr >= 0):
        raise ValueError("interarrival time must be nonnegative")
    vals = np.zeros_like(y_arr)
    for x, weight in zip(support, probs * support):
        vals += weight * np.exp(-x * y_arr)
    if vals.ndim == 0:
        return float(vals)
    return vals


def _geometric_edges(first: float, end: float) -> np.ndarray:
    """Panel edges 0, first, 2*first, 4*first, ... up to and including end."""
    doublings = first * 2.0 ** np.arange(max(0, math.ceil(math.log2(end / first))))
    return np.concatenate(([0.0], doublings[doublings < end], [end]))


def _check_ratio(levels) -> None:
    """Refuse levels whose ratio r overflows 50 r, the normalized panels' span: r above about 3.6e306."""
    levels = _check_levels(np.asarray(levels, dtype=float))
    i, j = sorted((int(levels.argmin()), int(levels.argmax())))
    # a ratio of Python floats overflows to inf without a warning
    if not 50.0 * (float(levels.max()) / float(levels.min())) < math.inf:
        raise ValueError(f"levels lambda{i + 1}={levels[i]:.6g} and lambda{j + 1}={levels[j]:.6g} "
                         f"are more than 3.6e+306 apart, the widest ratio the rate quadrature spans")


def _normalized(pmf: FinitePmf):
    """(x, p, lam, edges): the positive-mass levels divided by lam, their weights, lam and panels.

    lam is the smallest positive-mass level, so every x >= 1; _check_ratio runs first.
    For y >= 2, x e^{-xy} <= e^{-y} and x^2 y e^{-xy} <= y e^{-y}, so y f (f
    the wait density) and di_rate_analytic's integrand are below (H(p) + y)
    e^{-y}, whose tail past 50 is (H(p) + 51) e^{-50} < 1e-19 for up to 1e9
    atoms.  The panels are fixed: 0, 1 / max x, doubling up to 50 (_geometric_edges).
    """
    support, probs = _positive_atoms(pmf)
    _check_ratio(support)
    lam = float(support.min())
    x = support / lam
    return x, probs, lam, _geometric_edges(1.0 / float(x.max()), 50.0)


def mean_interarrival_quadrature(pmf: FinitePmf) -> float:
    """E[Y] by quadrature on the support divided by its smallest level (_normalized)."""
    x, p, lam, edges = _normalized(pmf)
    norm = FinitePmf(x, p)
    return integrate_panels(lambda y, _: y * interarrival_density(norm, y), [edges],
                            tol=0.9 * _QUAD_TOL)[0] / lam


def di_rate_analytic(pmf: FinitePmf) -> float:
    """Directed-information rate of the feedback channel, nats per second.

    One event's mutual information per mean wait, I / E[1/X], with I = sum_i
    p_i D(Exp(x_i) || f), f the wait density (Cover and Thomas, Elements of
    Information Theory, 2006, sec. 2.4): _rates over a batch of one law, its
    positive-mass atoms, after the guards of _normalized.
    """
    support, probs = _positive_atoms(pmf)
    _check_ratio(support)
    return float(_rates(support[None], probs[None])[0])


def _rates(levels: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """di_rate_analytic of a batch of laws: (B, K) levels and weights, K atoms each; (B,) rates.

    Every row must pass _check_ratio; a weight may be 0.  On each row's
    levels divided by their smallest, as in _normalized, I = int sum_i w_i
    l_i dy, w_i = p_i x_i e^{-x_i y} and l_i = ln(x_i e^{-x_i y} / f) =
    -logsumexp_j(ln p_j + ln(x_j / x_i) - (x_j - x_i) y), summed atom by
    atom: every term is of the size of I, so nothing cancels, and a point
    mass reads exactly 0.  ln p of the heaviest atom is log1p(-(sum of the
    others)): beside a weight below 2^-53 it is stored as 1.0, and ln 1.0
    would put the rate a nat low at weights near 1e-20.  One integrate_panels
    call integrates every law on its own panels; the integrand broadcasts
    each panel's column of its law's parameters over the panel's nodes, so a
    law's rate does not depend on its batch.  The rate scales exactly with
    the levels under powers of two, and a rounding residue below 0 (nearly
    equal levels) is clamped to 0.
    """
    x = levels / levels.min(axis=1, keepdims=True)
    atoms = np.arange(x.shape[1])
    heavy = probs.argmax(axis=1)[:, None] == atoms
    log_p = np.log(probs, out=np.full(probs.shape, -np.inf), where=probs > 0.0)
    log_p[heavy] = np.log1p(-np.where(heavy, 0.0, probs).sum(axis=1))
    log_x = np.log(x).T
    # [j, i, b]: ln p_j + ln(x_j / x_i) and x_j - x_i of law b, atoms j and i;
    # the log ratio is formed first, so the heavy atom's ln p survives
    offsets = log_p.T[:, None] + (log_x[:, None] - log_x)
    gaps = x.T[:, None] - x.T
    xs, px = x.T, (probs * x).T

    def columns(a, k):
        # a[..., law of each panel] as a column against the panels' (P, 30)
        # nodes; one law's parameters broadcast as scalars, the same products
        # by numpy's fastest loops
        return (a if len(levels) == 1 else np.take(a, k, axis=-1))[..., None]

    def relent(y, k):
        offset, gap = columns(offsets, k), columns(gaps, k)
        acc = offset[0] - gap[0] * y
        for off, gp in zip(offset[1:], gap[1:]):
            np.logaddexp(acc, off - gp * y, out=acc)
        return -(columns(px, k) * np.exp(-columns(xs, k) * y) * acc).sum(axis=0)

    edges = [_geometric_edges(1.0 / top, 50.0) for top in x.max(axis=1).tolist()]
    per_event = integrate_panels(relent, edges, tol=0.9 * _QUAD_TOL)
    return np.where(per_event > 0.0, per_event, 0.0) / (probs / levels).sum(axis=1)


def default_burn_in(pmf: FinitePmf) -> float:
    """Settling time before rate averaging: ten slow-atom time constants."""
    support, _ = _positive_atoms(pmf)
    return 10.0 / float(support.min())


def _panel_width(*pmfs) -> float:
    """First path-integral panel: 1/(max x - min x) over the atoms of all the pmfs.

    That is the fastest time scale of their renewal posterior means; inf
    when they share a single atom.
    """
    support = np.concatenate([_positive_atoms(pmf)[0] for pmf in pmfs])
    spread = float(support.max() - support.min())
    return 1.0 / spread if spread > 0 else math.inf


# events per draw batch and cells per draw row group of _groups: bounds the
# draw temporaries, and a horizon-1e4 trajectory of the {1, 2} channel (about
# 2e4 segments) is one batch
_BLOCK_SEGMENTS = 2**15
# segments per integrand call of both path integrals: _LogHazard._pieces holds
# 17 points per segment in a few temporaries, and trajectory_integral 16 per
# piece, a few pieces per segment, so this bounds them
_CHUNK_SEGMENTS = 2**8


def trajectory_integral(trajs, integrand, t_lo: float = 0.0, panel: float = math.inf) -> list:
    """int integrand(x_t, s_t) dt over [t_lo, horizon) along each trajectory, in order.

    trajs is any iterable of ChannelTrajectory, consumed lazily; s_t is the
    elapsed time since the last event.  Each constant-intensity segment is
    split at elapsed times panel, 2*panel, 4*panel, ... (_geometric_edges)
    and every piece gets a 16-node Gauss-Legendre rule; panel lies in
    (0, inf] and may not be below any trajectory's math.ulp(horizon), the
    float spacing of its epochs near the end: a finer panel resolves nothing
    and would cut a segment thousands of times.  The default inf (one piece
    per segment) suits integrands that do not depend on s; for the renewal
    posterior mean pass 1/(max x - min x), its fastest time scale.

    Returns one float per trajectory.  Each trajectory is integrated on its
    own: the integrand, which must act pointwise, is called on the pieces of
    at most _CHUNK_SEGMENTS of its segments at a time, and the piece
    integrals, elementwise in the pieces, are summed in order by one
    np.add.reduce, so a value depends neither on the trajectories beside it
    nor on the chunk size.
    """
    if not panel > 0:
        raise ValueError(f"panel must be positive, got {panel!r}")
    nodes, weights = gauss_legendre(16)
    totals = []
    for traj in trajs:
        if not 0.0 <= t_lo < traj.horizon:
            raise ValueError("need 0 <= t_lo < horizon")
        if panel < math.ulp(traj.horizon):
            raise ValueError(f"panel {panel!r} is below the float spacing "
                             f"{math.ulp(traj.horizon)!r} of the horizon {traj.horizon!r}")
        starts, ends, xs = traj.segments()
        lo = np.maximum(t_lo, starts) - starts
        hi = ends - starts
        keep = hi > lo
        lo, hi, xs = lo[keep], hi[keep], xs[keep]
        top = float(hi.max())
        cuts = _geometric_edges(min(panel, top), top)
        pieces = []
        for c in range(0, lo.size, _CHUNK_SEGMENTS):
            a, b = lo[c:c + _CHUNK_SEGMENTS, None], hi[c:c + _CHUNK_SEGMENTS, None]
            p_lo, p_hi = np.clip(cuts[:-1], a, b), np.clip(cuts[1:], a, b)
            inside = p_hi > p_lo
            half = 0.5 * (p_hi[inside] - p_lo[inside])
            s = (p_lo[inside] + half)[:, None] + half[:, None] * nodes
            x = np.broadcast_to(xs[c:c + _CHUNK_SEGMENTS, None], inside.shape)[inside]
            vals = integrand(np.repeat(x, nodes.size), s.ravel()).reshape(s.shape)
            pieces.append((vals * weights).sum(axis=1) * half)
        totals.append(float(np.add.reduce(np.concatenate(pieces))))
    return totals


class _LogHazard:
    """Closed-form path integrals of one pmf's renewal posterior mean g.

    g is the hazard -d/ds ln S(s) of the interarrival law, S(s) = sum p(x)
    e^{-xs}.  Relative to lam, the smallest positive-mass atom, and D(s) =
    S(s) e^{lam s}: int_lo^hi g ds = lam (hi - lo) - [ln D]_lo^hi, writing
    [F]_lo^hi for F(hi) - F(lo), and int_lo^hi ln g ds = ln(lam) (hi - lo) +
    [L]_lo^hi with L(s) = int_0^s ln(g / lam).  L is tabulated once per
    estimate, at the panel starts 0, panel, 2 panel, 4 panel, ... below top
    (_geometric_edges; the estimators pass the horizon, the longest elapsed
    time), one 16-node Gauss-Legendre piece per panel, cumulatively summed;
    at a point it is the table value at its panel's start plus one piece
    from there.  A point's values depend on the point alone, not on top or
    its neighbours.
    """

    def __init__(self, pmf: FinitePmf, panel: float, top: float):
        self.support, self.probs = _positive_atoms(pmf)
        self.lam = float(self.support.min())
        # g / lam <= max x / lam, which overflows only for levels over about 1e308 apart
        self.near = math.isfinite(float(self.support.max()) / self.lam)
        self.starts = _geometric_edges(min(panel, top), top)[:-1]
        self.table = np.zeros(self.starts.size)
        np.cumsum(self._pieces(self.starts[:-1], self.starts[1:])[0], out=self.table[1:])
        self.ln_d0 = float(self._pieces(np.zeros(1), np.zeros(1))[2][0])

    def _pieces(self, a: np.ndarray, b: np.ndarray):
        """(int_a^b ln(g / lam), ln(g(b) / lam), ln D(b)) for each pair of points a <= b.

        In runs of _CHUNK_SEGMENTS pairs, each with 16 Gauss-Legendre nodes and b.
        """
        nodes, weights = gauss_legendre(16)
        out = np.empty((3, b.size))
        for c in range(0, b.size, _CHUNK_SEGMENTS):
            lo, hi = a[c:c + _CHUNK_SEGMENTS], b[c:c + _CHUNK_SEGMENTS]
            half = 0.5 * (hi - lo)
            s = np.empty((hi.size, nodes.size + 1))
            np.add((lo + half)[:, None], half[:, None] * nodes, out=s[:, :-1])
            s[:, -1] = hi
            excess, den = _excess_hazard(self.support, self.probs, s)
            if self.near:
                log_g = np.log1p(excess / self.lam)
            else:
                log_g = np.log(self.lam + excess) - math.log(self.lam)
            out[0, c:c + hi.size] = (log_g[:, :-1] * weights).sum(axis=1) * half
            out[1, c:c + hi.size] = log_g[:, -1]
            out[2, c:c + hi.size] = np.log(den[:, -1])
        return out

    def segments(self, lo: np.ndarray, hi: np.ndarray):
        """([L]_lo^hi, ln(g(hi) / lam), [ln D]_lo^hi) of each segment [lo, hi) of elapsed time.

        Only the segments that start inside, lo > 0 (the one that straddles
        the burn-in), need L and ln D at lo; L(0) = 0 and ln D(0) = ln_d0.
        """
        k = self.starts.searchsorted(hi, side="right") - 1
        piece, log_g, ln_d = self._pieces(self.starts[k], hi)
        ell = self.table[k] + piece
        ln_d_lo = np.full_like(ln_d, self.ln_d0)
        inside = np.flatnonzero(lo > 0)
        k = self.starts.searchsorted(lo[inside], side="right") - 1
        piece, _, ln_d_lo[inside] = self._pieces(self.starts[k], lo[inside])
        ell[inside] -= self.table[k] + piece
        return ell, log_g, ln_d - ln_d_lo


def _path_block(model, hazards, t_lo, scale, gens) -> np.ndarray:
    """Each Generator's (Z, M, C, D) over [t_lo, horizon), divided by scale: one row per replica.

    hazards is (A, B): each is a _LogHazard, whose predictor is its pmf's
    renewal posterior mean, or None, whose predictor is the true intensity
    x; the model's own predictor g is A's, or B's where A is x.  Z
    integrates the excess loss x ln(g_A / g_B) + g_B - g_A along the path.
    The three controls have mean exactly 0, since N - int x dt is a
    martingale and every predictor reads only the past:
    - M, the compensated counting process of ln(g_A / g_B): its sum over
      the events in (t_lo, horizon) less int x ln(g_A / g_B) dt.  Where A
      and B are both pmfs the constant ln(lam_A / lam_B) is left out, as it
      would add a multiple of C;
    - C = N - int x dt, the events less the true intensity's integral;
    - D = int (g - x) dt = (N - int x dt) - (N - int g dt), which reads
      exactly 0 for a point mass, where N - int g dt would equal C.
    On a segment of intensity x each predictor contributes its
    _LogHazard.segments terms (all 0 for the true intensity, with lam = x),
    so a point mass reads exactly 0 in Z, M and D, and A equal to B in Z
    and M.  The trajectories come a row group at a time (_groups), and each
    row sums its own segments in order (np.bincount), so its values do not
    depend on the rows beside it.
    """
    horizon = model.horizon
    rows = []
    for epochs, xs, bounds in _groups(model, gens):
        last = bounds[1:] - 1  # each row's last segment ends at the horizon, not at an event
        ends = np.append(epochs[1:], horizon)
        ends[last] = horizon
        event = np.ones(epochs.size, bool)
        event[last] = False
        owner = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        lo = np.maximum(t_lo, epochs) - epochs
        hi = ends - epochs
        keep = hi > lo
        lo, hi, x, event, owner = lo[keep], hi[keep], xs[keep], event[keep], owner[keep]
        terms = [(0.0, 0.0, 0.0, x) if h is None else (*h.segments(lo, hi), h.lam) for h in hazards]
        (ell_a, log_a, ln_d_a, lam_a), (ell_b, log_b, ln_d_b, lam_b) = terms
        _, _, ln_d_own, lam_own = terms[hazards[0] is None]
        log_lam = np.log(lam_a) - np.log(lam_b)
        dt = hi - lo
        x_ell = x * (ell_a - ell_b)
        z = x_ell + dt * (x * log_lam + lam_b - lam_a) + ln_d_a - ln_d_b
        # for two point masses M would be a multiple of C, and the normal equations singular
        m_lam = log_lam if hazards[0] is None else 0.0
        m = np.where(event, log_a - log_b + m_lam, 0.0) - x_ell - dt * x * m_lam
        c = event - x * dt
        d = dt * (lam_own - x) - ln_d_own
        count = len(bounds) - 1
        rows.append(np.column_stack([np.bincount(owner, v, count) for v in (z, m, c, d)]))
    return np.concatenate(rows) / scale


def di_rate_mc(model: PoissonFeedbackModel, rng, replicas: int = 4,
               burn_in: float | None = None, jobs: int = 1) -> DiEstimate:
    """Monte Carlo rate: time-average of loss(X_t, posterior mean) after burn-in.

    The integrand realizes the causal-estimation identity, so its long-run
    time average converges to di_rate_analytic.  Each replica's integral
    comes in closed form (_path_block), with three controls of mean 0: the
    compensated counting process of ln(X / g), N - int X dt and int (g - X)
    dt (core.replicated_estimates).
    """
    if burn_in is None:
        burn_in = default_burn_in(model.pmf)
    if burn_in >= model.horizon:
        raise ValueError("burn-in must be shorter than the horizon")
    if not burn_in >= 0.0:
        raise ValueError(f"burn-in must be nonnegative, got {burn_in!r}")
    hazard = _LogHazard(model.pmf, _panel_width(model.pmf), model.horizon)
    block = functools.partial(_path_block, model, (None, hazard), burn_in, model.horizon - burn_in)
    (est,) = replicated_estimates(block, rng, replicas, jobs, controls=3)
    return est


def mismatched_relent_poisson(p_pmf: FinitePmf, q_pmf: FinitePmf, horizon: float,
                              rng, replicas: int = 4, jobs: int = 1) -> DiEstimate:
    """Relative entropy between the output laws under input laws P and Q.

    Estimated over [0, horizon) as E_P of the integrated excess loss of the
    Q-matched causal predictor over the P-matched one; nonnegative up to
    Monte Carlo noise, and identically zero when Q equals P.  The controls
    are the compensated counting process of ln(g_P / g_Q) less its constant,
    N - int X dt and int (g_P - X) dt (_path_block).
    """
    model = PoissonFeedbackModel(p_pmf, horizon)
    panel = _panel_width(p_pmf, q_pmf)
    hazards = tuple(_LogHazard(pmf, panel, model.horizon) for pmf in (p_pmf, q_pmf))
    block = functools.partial(_path_block, model, hazards, 0.0, 1.0)
    (est,) = replicated_estimates(block, rng, replicas, jobs, controls=3)
    return est


def state_at(traj: ChannelTrajectory, times):
    """(elapsed time since last event, intensity in force) at each query time."""
    t = np.asarray(times, dtype=float)
    if not np.all((t >= 0) & (t < traj.horizon)):
        raise ValueError("query times must lie in [0, horizon)")
    idx = np.searchsorted(traj.events, t, side="right") - 1
    return t - traj.events[idx], traj.intensities[idx]


def occupancy_fractions(traj: ChannelTrajectory, support, t_lo: float = 0.0,
                        t_hi: float | None = None) -> np.ndarray:
    """Fraction of [t_lo, t_hi) spent at each support value, in support order."""
    if t_hi is None:
        t_hi = traj.horizon
    if not 0.0 <= t_lo < t_hi <= traj.horizon:
        raise ValueError("need 0 <= t_lo < t_hi <= horizon")
    starts, ends, xs = traj.segments()
    overlap = np.clip(np.minimum(ends, t_hi) - np.maximum(starts, t_lo), 0.0, None)
    support = np.asarray(support, dtype=float)
    out = np.array([overlap[xs == v].sum() for v in support])
    return out / (t_hi - t_lo)

