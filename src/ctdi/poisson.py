"""Feedback Poisson channel whose input redraws at every output event.

Between events the input intensity is constant, so the causal posterior mean
of the intensity given the whole output past depends only on the elapsed
time since the last event: an exponentially tilted average of the input pmf.
That renewal structure gives closed forms for the stationary intensity law,
the interarrival density and the directed-information rate; the trajectory
Monte Carlo estimators integrate the causal-estimation loss along simulated
paths instead, so the two routes check each other.  Their block draws one
trajectory per Generator, a row group at a time (_trajectories: one draw pass
and one check per group, each trajectory bit for bit what its Generator draws
alone), and integrates the whole block in one trajectory_integral call as the
trajectories come: the pieces of every trajectory share integrand calls of at
most _CHUNK_PIECES pieces, and every other step is elementwise or sums one
trajectory's own pieces, so its value does not depend on its block.

Rates are in nats per second.  Every input level must be at least _TINY, the
smallest normal float.  Every analytic integral here runs to one error
target, _QUAD_TOL, and di_rate_analytic first refuses levels too far apart
to resolve at it (_check_resolvable, beside the panel layout _panel_edges).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import DiEstimate, FinitePmf, _readonly, poisson_loss, replicated_estimates
from .quadrature import gauss_legendre, integrate_panels

__all__ = [
    "PoissonFeedbackModel",
    "ChannelTrajectory",
    "simulate_channel",
    "renewal_posterior_mean",
    "stationary_intensity_pmf",
    "interarrival_density",
    "interarrival_entropy",
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
    """levels, after refusing any below _TINY; the first is named lambda<i>, i its place."""
    if (low := levels < _TINY).any():
        raise ValueError(f"channel input intensities must be strictly positive and at least "
                         f"{_TINY:.6g}: lambda{low.argmax() + 1}={levels[low][0]:.6g}")
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
        self._own(float(self.horizon), epochs, vals)

    @classmethod
    def _drawn(cls, horizon: float, epochs: np.ndarray, vals: np.ndarray) -> "ChannelTrajectory":
        """A trajectory over read-only arrays that _check_trajectories has passed."""
        traj = object.__new__(cls)
        traj._own(horizon, epochs, vals)
        return traj

    def _own(self, horizon, epochs, vals) -> None:
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "events", epochs)
        object.__setattr__(self, "intensities", vals)

    def segments(self):
        """(starts, ends, intensities) arrays; the last segment ends at the horizon."""
        return self.events, np.append(self.events[1:], self.horizon), self.intensities


def simulate_channel(model: PoissonFeedbackModel, gen: np.random.Generator) -> ChannelTrajectory:
    """Draw a trajectory from gen: X ~ pmf at each event, Exp(X) waits, truncated at the horizon.

    Draws come in batches of at most _BLOCK_SEGMENTS events, which bounds the
    temporaries on a long horizon, and of float-coincident epochs only the
    last is kept (_kept).  This is the block of one of _trajectories, so gen
    draws the same trajectory here as in any block.
    """
    return next(_trajectories(model, [gen]))


def _draws(pmf: FinitePmf, gens, size: int):
    """(intensities, waits) of size events per Generator, one row each.

    Row i holds what gens[i].choice(pmf.support, p=pmf.probs, size=size) and
    then gens[i].exponential(1.0 / intensities) draw: the same uniforms and
    standard exponentials, mapped through the same normalized cdf and scaled
    the same way.  FinitePmf has already checked what choice would.
    """
    u = np.empty((len(gens), size))
    e = np.empty_like(u)
    for gen, row_u, row_e in zip(gens, u, e):
        gen.random(out=row_u)
        gen.standard_exponential(out=row_e)
    cdf = pmf.probs.cumsum()
    cdf /= cdf[-1]
    xs = pmf.support[cdf.searchsorted(u, side="right")]
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


def _trajectories(model: PoissonFeedbackModel, gens):
    """Each Generator's trajectory in order, drawn a row group at a time and yielded lazily.

    A trajectory draws in batches of at most _BLOCK_SEGMENTS events, each
    sized from the time left, and depends on its Generator alone.  The first
    batch's size depends only on the model, so a row group of as many rows
    as fit in _BLOCK_SEGMENTS cells draws it together (_draws): one cdf
    search, one scaling and one row-wise cumsum.  A row that falls short of
    the horizon draws on alone.  The rows of a group are checked together,
    once, and become trajectories without a second check.
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
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            yield ChannelTrajectory._drawn(horizon, epochs[a:b], xs[a:b])


def renewal_posterior_mean(pmf: FinitePmf, elapsed):
    """Causal posterior mean of the intensity given a quiet spell of the given length.

    E[X | no event for s seconds] = sum x p(x) e^{-sx} / sum p(x) e^{-sx},
    evaluated with the smallest positive-mass atom factored out of the
    exponentials, so the ratio never degenerates for finite s.  The sums run
    atom by atom, so a point's value does not depend on the points beside it.
    """
    support, probs = _positive_atoms(pmf)
    s = np.asarray(elapsed, dtype=float)
    if not (s >= 0).all():
        raise ValueError("elapsed time must be nonnegative")
    lowest, num, den = support.min(), 0.0, 0.0
    for x, p in zip(support, probs):
        w = p * np.exp(-(x - lowest) * s)
        num = num + w * x
        den = den + w
    out = num / den
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
    """Density of the wait between events: f(y) = sum_x p(x) x e^{-xy}."""
    support, probs = _positive_atoms(pmf)
    y_arr = np.asarray(y, dtype=float)
    if not np.all(y_arr >= 0):
        raise ValueError("interarrival time must be nonnegative")
    vals = np.exp(-np.multiply.outer(y_arr, support)) @ (probs * support)
    if vals.ndim == 0:
        return float(vals)
    return vals


def _geometric_edges(first: float, end: float) -> np.ndarray:
    """Panel edges 0, first, 2*first, 4*first, ... up to and including end."""
    doublings = first * 2.0 ** np.arange(max(0, math.ceil(math.log2(end / first))))
    return np.concatenate(([0.0], doublings[doublings < end], [end]))


def _panel_edges(pmf: FinitePmf, weight: str) -> np.ndarray:
    """Geometric panel edges from 0 to a truncation point a whose tail bound is below 0.1*_QUAD_TOL.

    The first panel is one fast time constant 1/max(x) wide and each later
    one doubles.  For y >= a the density is dominated by C e^{-lam y} with
    lam the smallest positive-mass atom; the bound integrates that envelope
    against either -u ln u (entropy tail) or y (mean tail).
    """
    support, probs = _positive_atoms(pmf)
    lam = float(support.min())
    a = 50.0 / lam
    for _ in range(32):
        c = float(np.dot(probs * support, np.exp(-(support - lam) * a)))
        peak = c * math.exp(-lam * a)
        if weight == "entropy":
            # valid once the envelope is below 1/e, where -u ln u is increasing
            tail = math.inf if peak >= 1 / math.e else peak * (lam * a + 1 - math.log(c)) / lam
        else:
            tail = peak * (a + 1 / lam) / lam
        if tail < 0.1 * _QUAD_TOL:
            return _geometric_edges(1.0 / float(support.max()), a)
        a *= 2.0
    raise RuntimeError("analytic tail bound did not reach the error target")


def _check_resolvable(levels) -> None:
    """Refuse positive levels too far apart for the entropy quadrature to resolve at _QUAD_TOL.

    Normalized to {1, r}, r the ratio of the extreme levels, the entropy
    integral runs over N <= log2(50 r) + 2 doubling panels from 1/r
    (_panel_edges) that share 0.9 _QUAD_TOL.  The first panel holds up to
    (1 - 1/e) ln r nats, so its 10- and 20-node sums differ by ulps of up to
    eps (1 - 1/e) ln r, and bisection halves ulp and share alike: it
    converges only if eps (1 - 1/e) ln(r) N <= 0.9 _QUAD_TOL, that is up to
    about r = 1e90, with ln r a difference of logs so that no ratio overflows.
    """
    levels = _check_levels(np.asarray(levels, dtype=float))
    i, j = sorted((int(levels.argmin()), int(levels.argmax())))
    ln_r = abs(math.log(levels[j]) - math.log(levels[i]))
    ulp = np.finfo(float).eps * (1.0 - 1.0 / math.e) * ln_r
    if ulp * (math.log2(50.0) + ln_r / math.log(2.0) + 2.0) > 0.9 * _QUAD_TOL:
        raise ValueError(f"levels lambda{i + 1}={levels[i]:.6g} and lambda{j + 1}={levels[j]:.6g} "
                         f"are 10^{ln_r / math.log(10.0):.3g} apart, more than the rate quadrature "
                         f"resolves (about 1e90)")


def interarrival_entropy(pmf: FinitePmf) -> float:
    """Differential entropy of the wait between events, -int f ln f, in nats.

    Gauss-Legendre panels out to a point where the analytic tail bound is
    negligible against _QUAD_TOL.
    """
    def integrand(y):
        f = interarrival_density(pmf, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(f > 0, -f * np.log(f), 0.0)

    return integrate_panels(integrand, _panel_edges(pmf, "entropy"), tol=0.9 * _QUAD_TOL)


def mean_interarrival_quadrature(pmf: FinitePmf) -> float:
    """E[Y] by quadrature on the support divided by its smallest level, as di_rate_analytic does."""
    lowest = float(_positive_atoms(pmf)[0].min())
    norm = FinitePmf(pmf.support / lowest, pmf.probs)
    return integrate_panels(lambda y: y * interarrival_density(norm, y),
                            _panel_edges(norm, "mean"), tol=0.9 * _QUAD_TOL) / lowest


def di_rate_analytic(pmf: FinitePmf) -> float:
    """Directed-information rate of the feedback channel, nats per second.

    Equals one event's worth of mutual information per mean interarrival:
    (h(Y) - h(Y|X)) / E[1/X].  The entropy difference is dilation invariant,
    so it is evaluated on the support normalized by its smallest point; the
    computed rate then scales exactly linearly when the support is scaled by
    a power of two.  The per-event information is clamped at 0, where nearly
    equal levels would otherwise leave a cancellation residue below it.
    Levels more than about 1e90 apart raise ValueError (_check_resolvable).
    """
    support, probs = _positive_atoms(pmf)
    _check_resolvable(support)
    if support.size == 1:
        return 0.0
    norm = FinitePmf(support / support.min(), probs)
    per_event = (
        interarrival_entropy(norm)
        - 1.0
        + float(np.dot(probs, np.log(norm.support)))
    )
    return max(per_event, 0.0) / mean_inverse_intensity(pmf)


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


# events per draw batch and cells per draw row group of _trajectories, and
# segments per window of trajectory_integral: bounds their memory, and a
# horizon-1e4 trajectory of the {1, 2} channel (about 2e4 segments) is one window
_BLOCK_SEGMENTS = 2**15
# pieces per integrand call of trajectory_integral: bounds the integrand's temporaries
_CHUNK_PIECES = 2**8


def trajectory_integral(trajs, integrand, t_lo: float = 0.0, panel: float = math.inf) -> list:
    """int integrand(x_t, s_t) dt over [t_lo, horizon) along each trajectory, in order.

    trajs is any iterable of ChannelTrajectory, consumed lazily; s_t is the
    elapsed time since the last event.  Each constant-intensity segment is
    split at elapsed times panel, 2*panel, 4*panel, ... and every piece gets
    a 16-node Gauss-Legendre rule; panel lies in (0, inf] and may not be
    below any trajectory's math.ulp(horizon), the float spacing of its
    epochs near the end: a finer panel resolves nothing and would cut a
    segment thousands of times.  The default inf
    (one piece per segment) suits integrands that do not depend on s; for the
    renewal posterior mean pass 1/(max x - min x), its fastest time scale.

    Returns one float per trajectory.  The kept segments of consecutive
    trajectories share windows of at most _BLOCK_SEGMENTS segments, a longer
    trajectory taking several, and the integrand, which must act pointwise,
    is called on runs of at most _CHUNK_PIECES pieces of a window.  A piece's
    integral, the sum of its node values times the weights times its half
    width, is elementwise in the pieces, and each trajectory sums its own
    piece integrals per window, so its value does not depend on the
    trajectories beside it or on the piece limit.
    """
    if not panel > 0:
        raise ValueError(f"panel must be positive, got {panel!r}")
    totals, window, size = [], [], 0
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
        totals.append(0.0)
        for b in range(0, lo.size, _BLOCK_SEGMENTS):
            group = (lo[b:b + _BLOCK_SEGMENTS], hi[b:b + _BLOCK_SEGMENTS], xs[b:b + _BLOCK_SEGMENTS])
            if size + group[0].size > _BLOCK_SEGMENTS:
                _integrate_window(window, integrand, panel, totals)
                window, size = [], 0
            window.append((len(totals) - 1,) + group)
            size += group[0].size
    _integrate_window(window, integrand, panel, totals)
    return totals


def _integrate_window(window, integrand, panel, totals) -> None:
    """Add each (owner, lo, hi, xs) group's integral over its pieces to totals[owner]."""
    if not window:
        return
    owners, lo, hi, xs = zip(*window)
    seg_bounds = np.cumsum([0] + [a.size for a in lo])
    lo, hi, xs = np.concatenate(lo), np.concatenate(hi), np.concatenate(xs)
    top = float(hi.max())
    cuts = _geometric_edges(min(panel, top), top)
    p_lo = np.clip(cuts[:-1], lo[:, None], hi[:, None])
    p_hi = np.clip(cuts[1:], lo[:, None], hi[:, None])
    keep = p_hi > p_lo
    lo, hi = p_lo[keep], p_hi[keep]
    xs = np.broadcast_to(xs[:, None], keep.shape)[keep]
    bounds = np.append(0, np.cumsum(keep.sum(axis=1)))[seg_bounds].tolist()
    half = 0.5 * (hi - lo)
    mid = lo + half
    nodes, weights = gauss_legendre(16)
    pieces = np.empty_like(half)
    for c in range(0, pieces.size, _CHUNK_PIECES):
        d = min(c + _CHUNK_PIECES, pieces.size)
        s = mid[c:d, None] + half[c:d, None] * nodes
        vals = integrand(np.repeat(xs[c:d], nodes.size), s.ravel()).reshape(s.shape)
        pieces[c:d] = (vals * weights).sum(axis=1) * half[c:d]
    for owner, a, b in zip(owners, bounds[:-1], bounds[1:]):
        totals[owner] += float(np.add.reduce(pieces[a:b]))


def _posterior_loss(pmf, x, s):
    return poisson_loss(x, renewal_posterior_mean(pmf, s))


def _path_block(model, integrand, t_lo, panel, scale, gens) -> list:
    """Each Generator's trajectory integral from t_lo, divided by scale: one replica each.

    The trajectories are drawn in order as the one integral call consumes them.
    """
    values = trajectory_integral(_trajectories(model, gens), integrand, t_lo, panel)
    return [v / scale for v in values]


def di_rate_mc(model: PoissonFeedbackModel, rng, replicas: int = 4,
               burn_in: float | None = None, jobs: int = 1) -> DiEstimate:
    """Monte Carlo rate: time-average of loss(X_t, posterior mean) after burn-in.

    The integrand realizes the causal-estimation identity, so its long-run
    time average converges to di_rate_analytic.
    """
    if burn_in is None:
        burn_in = default_burn_in(model.pmf)
    if burn_in >= model.horizon:
        raise ValueError("burn-in must be shorter than the horizon")
    block = functools.partial(_path_block, model, functools.partial(_posterior_loss, model.pmf),
                              burn_in, _panel_width(model.pmf), model.horizon - burn_in)
    (est,) = replicated_estimates(block, rng, replicas, jobs)
    return est


def _excess_loss(p_pmf, q_pmf, x, s):
    gp = renewal_posterior_mean(p_pmf, s)
    gq = renewal_posterior_mean(q_pmf, s)
    return x * (np.log(gp) - np.log(gq)) + gq - gp


def mismatched_relent_poisson(p_pmf: FinitePmf, q_pmf: FinitePmf, horizon: float,
                              rng, replicas: int = 4, jobs: int = 1) -> DiEstimate:
    """Relative entropy between the output laws under input laws P and Q.

    Estimated over [0, horizon) as E_P of the integrated excess loss of the
    Q-matched causal predictor over the P-matched one; nonnegative up to
    Monte Carlo noise, and identically zero when Q equals P.
    """
    model = PoissonFeedbackModel(p_pmf, horizon)
    block = functools.partial(_path_block, model, functools.partial(_excess_loss, p_pmf, q_pmf),
                              0.0, _panel_width(p_pmf, q_pmf), 1.0)
    (est,) = replicated_estimates(block, rng, replicas, jobs)
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

