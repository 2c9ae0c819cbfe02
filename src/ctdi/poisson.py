"""Feedback Poisson channel whose input redraws at every output event.

Between events the input intensity is constant, so the causal posterior mean
of the intensity given the whole output past depends only on the elapsed
time since the last event: an exponentially tilted average of the input pmf.
That renewal structure gives closed forms for the stationary intensity law,
the elapsed-time density, the interarrival density, and the directed-
information rate, each of which is checked here against Monte Carlo.

Rates are in nats per second.  All input pmfs must have strictly positive
support.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DiEstimate,
    EventTimes,
    FinitePmf,
    RngSpec,
    as_generator,
    poisson_loss,
    replicated_estimate,
)
from .quadrature import gauss_legendre, integrate_panels

__all__ = [
    "PoissonFeedbackModel",
    "ChannelTrajectory",
    "simulate_channel",
    "renewal_posterior_mean",
    "stationary_intensity_pmf",
    "elapsed_time_density",
    "interarrival_density",
    "interarrival_entropy",
    "interarrival_entropy_given_input",
    "mean_inverse_intensity",
    "mean_log_intensity",
    "mean_interarrival_quadrature",
    "di_rate_analytic",
    "di_rate_mc",
    "mismatched_relent_poisson",
    "trajectory_integral",
    "trajectory_time_average",
    "state_at",
    "occupancy_fractions",
    "write_trajectory_csv",
]


def _positive_atoms(pmf: FinitePmf):
    """Support/probs restricted to atoms with positive mass, after validation."""
    if np.any(pmf.support <= 0):
        raise ValueError("channel input intensities must be strictly positive")
    mask = pmf.probs > 0
    return pmf.support[mask], pmf.probs[mask]


@dataclass(frozen=True, eq=False)
class PoissonFeedbackModel:
    """Input pmf (positive support) and observation horizon."""

    pmf: FinitePmf
    horizon: float

    def __post_init__(self):
        _positive_atoms(self.pmf)
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        object.__setattr__(self, "horizon", float(self.horizon))


@dataclass(frozen=True, eq=False)
class ChannelTrajectory:
    """Events plus the intensity in force after each one.

    The trajectory starts at an event at time 0, so every instant in
    [0, horizon) belongs to exactly one constant-intensity segment whose left
    endpoint is an event.
    """

    events: EventTimes
    intensities: np.ndarray

    def __post_init__(self):
        vals = np.array(self.intensities, dtype=float)
        vals.flags.writeable = False
        if vals.shape != self.events.epochs.shape:
            raise ValueError("need one intensity per event")
        if len(self.events) == 0 or self.events.epochs[0] != 0.0:
            raise ValueError("trajectories start at an event at time 0")
        if np.any(vals <= 0):
            raise ValueError("intensities must be strictly positive")
        object.__setattr__(self, "intensities", vals)

    def segments(self):
        """(starts, ends, intensities) arrays; the last segment ends at the horizon."""
        starts = self.events.epochs
        ends = np.append(starts[1:], self.events.horizon)
        return starts, ends, self.intensities


def simulate_channel(model: PoissonFeedbackModel, rng) -> ChannelTrajectory:
    """Draw a trajectory: X ~ pmf at each event, Exp(X) waits, truncated at the horizon."""
    gen = as_generator(rng)
    support, probs = model.pmf.support, model.pmf.probs
    horizon = model.horizon
    mean_wait = float(np.dot(model.pmf.probs, 1.0 / model.pmf.support))
    epochs_parts, x_parts = [], []
    t = 0.0
    while t < horizon:
        batch = max(16, int(1.3 * (horizon - t) / mean_wait) + 10)
        xs = gen.choice(support, p=probs, size=batch)
        waits = gen.exponential(1.0 / xs)
        starts = t + np.concatenate(([0.0], np.cumsum(waits[:-1])))
        keep = starts < horizon
        epochs_parts.append(starts[keep])
        x_parts.append(xs[keep])
        t += float(waits.sum())
    epochs = np.concatenate(epochs_parts)
    return ChannelTrajectory(EventTimes(horizon, epochs), np.concatenate(x_parts))


def renewal_posterior_mean(pmf: FinitePmf, elapsed):
    """Causal posterior mean of the intensity given a quiet spell of the given length.

    E[X | no event for s seconds] = sum x p(x) e^{-sx} / sum p(x) e^{-sx},
    evaluated with the smallest positive-mass atom factored out of the
    exponentials, so the ratio never degenerates for finite s.
    """
    support, probs = _positive_atoms(pmf)
    s = np.asarray(elapsed, dtype=float)
    if np.any(s < 0):
        raise ValueError("elapsed time must be nonnegative")
    w = probs * np.exp(-np.multiply.outer(s, support - support.min()))
    out = (w @ support) / w.sum(axis=-1)
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


def mean_log_intensity(pmf: FinitePmf) -> float:
    """E[ln X] over positive-mass atoms."""
    support, probs = _positive_atoms(pmf)
    return float(np.dot(probs, np.log(support)))


def elapsed_time_density(pmf: FinitePmf, t):
    """Stationary density of the time elapsed since the last event.

    f(t) = sum_x p(x) e^{-tx} / E[1/X]; integrates to one over [0, inf).
    """
    support, probs = _positive_atoms(pmf)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("elapsed time must be nonnegative")
    vals = np.exp(-np.multiply.outer(t_arr, support)) @ probs / mean_inverse_intensity(pmf)
    if vals.ndim == 0:
        return float(vals)
    return vals


def interarrival_density(pmf: FinitePmf, y):
    """Density of the wait between events: f(y) = sum_x p(x) x e^{-xy}."""
    support, probs = _positive_atoms(pmf)
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr < 0):
        raise ValueError("interarrival time must be nonnegative")
    vals = np.exp(-np.multiply.outer(y_arr, support)) @ (probs * support)
    if vals.ndim == 0:
        return float(vals)
    return vals


def interarrival_entropy_given_input(pmf: FinitePmf) -> float:
    """h(Y|X) = 1 - E[ln X], exact: each conditional law is exponential."""
    return 1.0 - mean_log_intensity(pmf)


def _geometric_edges(first: float, end: float) -> np.ndarray:
    """Panel edges 0, first, 2*first, 4*first, ... up to and including end."""
    doublings = first * 2.0 ** np.arange(max(0, math.ceil(math.log2(end / first))))
    return np.concatenate(([0.0], doublings[doublings < end], [end]))


def _panel_edges(pmf: FinitePmf, weight: str, tol: float) -> np.ndarray:
    """Geometric panel edges from 0 to a truncation point a whose tail bound is below 0.1*tol.

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
        if tail < 0.1 * tol:
            return _geometric_edges(1.0 / float(support.max()), a)
        a *= 2.0
    raise RuntimeError("analytic tail bound did not reach the error target")


def interarrival_entropy(pmf: FinitePmf, tol: float = 1e-9) -> float:
    """Differential entropy of the wait between events, -int f ln f, in nats.

    Gauss-Legendre panels out to a point where the analytic tail bound is
    negligible against tol.
    """
    def integrand(y):
        f = interarrival_density(pmf, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(f > 0, -f * np.log(f), 0.0)

    return integrate_panels(integrand, _panel_edges(pmf, "entropy", tol), tol=0.9 * tol)


def mean_interarrival_quadrature(pmf: FinitePmf, tol: float = 1e-11) -> float:
    """E[Y] evaluated by quadrature against the interarrival density."""
    return integrate_panels(lambda y: y * interarrival_density(pmf, y),
                            _panel_edges(pmf, "mean", tol), tol=0.9 * tol)


def di_rate_analytic(pmf: FinitePmf, tol: float = 1e-10) -> float:
    """Directed-information rate of the feedback channel, nats per second.

    Equals one event's worth of mutual information per mean interarrival:
    (h(Y) - h(Y|X)) / E[1/X].  The entropy difference is dilation invariant,
    so it is evaluated on the support normalized by its smallest point; the
    computed rate then scales exactly linearly when the support is scaled by
    a power of two.
    """
    support, probs = _positive_atoms(pmf)
    if support.size == 1:
        return 0.0
    norm = FinitePmf(support / support.min(), probs)
    per_event = (
        interarrival_entropy(norm, tol=tol)
        - 1.0
        + float(np.dot(probs, np.log(norm.support)))
    )
    return per_event / mean_inverse_intensity(pmf)


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


def trajectory_integral(traj: ChannelTrajectory, integrand, t_lo: float = 0.0,
                        t_hi: float | None = None, panel: float = math.inf) -> float:
    """int integrand(x_t, s_t) dt over [t_lo, t_hi) along the trajectory.

    s_t is the elapsed time since the last event.  Each constant-intensity
    segment is split at elapsed times panel, 2*panel, 4*panel, ... and every
    piece gets a 16-node Gauss-Legendre rule, all in one vectorized call of
    the integrand.  The default, one piece per segment, suits integrands that
    do not depend on s; for the renewal posterior mean pass the width
    1/(max x - min x) of its fastest time scale.
    """
    horizon = traj.events.horizon
    if t_hi is None:
        t_hi = horizon
    if not 0.0 <= t_lo < t_hi <= horizon:
        raise ValueError("need 0 <= t_lo < t_hi <= horizon")
    starts, ends, xs = traj.segments()
    lo = np.maximum(t_lo, starts) - starts
    hi = np.minimum(t_hi, ends) - starts
    keep = hi > lo
    lo, hi, xs = lo[keep], hi[keep], xs[keep]
    if math.isfinite(panel):
        cuts = _geometric_edges(panel, float(hi.max()))
        p_lo = np.clip(cuts[:-1], lo[:, None], hi[:, None])
        p_hi = np.clip(cuts[1:], lo[:, None], hi[:, None])
        keep = p_hi > p_lo
        lo, hi, xs = p_lo[keep], p_hi[keep], np.broadcast_to(xs[:, None], keep.shape)[keep]
    nodes, weights = gauss_legendre(16)
    half = 0.5 * (hi - lo)
    s = (lo + half)[:, None] + half[:, None] * nodes
    vals = integrand(np.repeat(xs, nodes.size), s.ravel()).reshape(s.shape)
    return float(half @ (vals @ weights))


def trajectory_time_average(traj: ChannelTrajectory, integrand, t_lo: float = 0.0,
                            t_hi: float | None = None, panel: float = math.inf) -> float:
    """Time average of integrand(x_t, s_t) over [t_lo, t_hi)."""
    if t_hi is None:
        t_hi = traj.events.horizon
    return trajectory_integral(traj, integrand, t_lo, t_hi, panel) / (t_hi - t_lo)


def _loss_vs_posterior(pmf: FinitePmf):
    def fn(x, s):
        return poisson_loss(x, renewal_posterior_mean(pmf, s))
    return fn


def _rate_replicas(model, burn_in, master_seed, r0, r1):
    spec = RngSpec(master_seed)
    fn = _loss_vs_posterior(model.pmf)
    panel = _panel_width(model.pmf)
    out = []
    for r in range(r0, r1):
        traj = simulate_channel(model, spec.stream(r))
        out.append(trajectory_time_average(traj, fn, t_lo=burn_in, panel=panel))
    return out


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
    worker = functools.partial(_rate_replicas, model, burn_in)
    return replicated_estimate(worker, rng, replicas, jobs)


def _mismatch_replicas(model, q_pmf, master_seed, r0, r1):
    spec = RngSpec(master_seed)
    p_pmf = model.pmf
    panel = _panel_width(p_pmf, q_pmf)

    def fn(x, s):
        gp = renewal_posterior_mean(p_pmf, s)
        gq = renewal_posterior_mean(q_pmf, s)
        return x * (np.log(gp) - np.log(gq)) + gq - gp

    out = []
    for r in range(r0, r1):
        traj = simulate_channel(model, spec.stream(r))
        out.append(trajectory_integral(traj, fn, panel=panel))
    return out


def mismatched_relent_poisson(p_pmf: FinitePmf, q_pmf: FinitePmf, horizon: float,
                              rng, replicas: int = 4, jobs: int = 1) -> DiEstimate:
    """Relative entropy between the output laws under input laws P and Q.

    Estimated over [0, horizon) as E_P of the integrated excess loss of the
    Q-matched causal predictor over the P-matched one; nonnegative up to
    Monte Carlo noise, and identically zero when Q equals P.
    """
    _positive_atoms(q_pmf)
    model = PoissonFeedbackModel(p_pmf, horizon)
    worker = functools.partial(_mismatch_replicas, model, q_pmf)
    return replicated_estimate(worker, rng, replicas, jobs)


def state_at(traj: ChannelTrajectory, times):
    """(elapsed time since last event, intensity in force) at each query time."""
    t = np.asarray(times, dtype=float)
    if np.any(t < 0) or np.any(t >= traj.events.horizon):
        raise ValueError("query times must lie in [0, horizon)")
    idx = np.searchsorted(traj.events.epochs, t, side="right") - 1
    return t - traj.events.epochs[idx], traj.intensities[idx]


def occupancy_fractions(traj: ChannelTrajectory, support, t_lo: float = 0.0,
                        t_hi: float | None = None) -> np.ndarray:
    """Fraction of [t_lo, t_hi) spent at each support value, in support order."""
    if t_hi is None:
        t_hi = traj.events.horizon
    if not 0.0 <= t_lo < t_hi <= traj.events.horizon:
        raise ValueError("need 0 <= t_lo < t_hi <= horizon")
    starts, ends, xs = traj.segments()
    overlap = np.clip(np.minimum(ends, t_hi) - np.maximum(starts, t_lo), 0.0, None)
    support = np.asarray(support, dtype=float)
    out = np.array([overlap[xs == v].sum() for v in support])
    return out / (t_hi - t_lo)


def write_trajectory_csv(dest, traj: ChannelTrajectory) -> None:
    """Dump events as CSV rows (event_index, event_time, intensity_after_event)."""
    close = False
    if not hasattr(dest, "write"):
        dest = open(dest, "w", newline="\n")
        close = True
    try:
        dest.write("event_index,event_time,intensity_after_event\n")
        for i, (t, x) in enumerate(zip(traj.events.epochs, traj.intensities)):
            dest.write(f"{i},{t:.12g},{x:.12g}\n")
    finally:
        if close:
            dest.close()
