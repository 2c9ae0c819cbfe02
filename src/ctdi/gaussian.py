"""Additive white-Gaussian-noise channel with feedback.

Simulation uses per-step observation increments inc_k = X_k dt + sqrt(dt) Z_k
rather than cumulative values, which keeps likelihood updates well
conditioned.  The Monte Carlo directed-information estimate is half the
integrated causal mean-square error of the optimal filter, which for this
channel equals the directed information between the input and output paths;
filters therefore always estimate X at time t from increments strictly
before t.

Feedback delays are quantized to whole grid steps: a policy invoked at step
k sees increments up to step k - delay_steps only, and a finite delay below
one grid step is rejected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DiEstimate,
    FinitePmf,
    RngSpec,
    SamplePath,
    as_generator,
    replicated_estimate,
)

DEFAULT_POWER_BOUND = 1e3

__all__ = [
    "GaussianFeedbackModel",
    "FilterPath",
    "constant_signal_model",
    "delayed_echo_model",
    "simulate_awgn",
    "exact_filter_constant_signal",
    "discrete_prior_filter",
    "replay_filter",
    "particle_filter",
    "causal_mmse_integral",
    "closed_form_di_constant_signal",
    "directed_info_gaussian_mc",
    "mismatched_relent_gaussian",
    "gaussian_prior_filter",
    "finite_prior_filter",
    "write_path_csv",
]


def _constant_policy(u, k, visible_increments):
    return u


def _echo_policy(u, k, visible_increments):
    # the input replays the delayed cumulative output; zero until the delay elapses
    return float(visible_increments.sum())


@dataclass(frozen=True, eq=False)
class GaussianFeedbackModel:
    """Signal policy driving dY = X dt + dB on a uniform grid of step dt.

    policy(u, k, visible) returns X at step k from the latent draw u and the
    observation increments visible to the encoder at that time (an empty
    array while the delay has not elapsed, or always when delay is inf).
    latent=None marks a standard-normal latent; otherwise a finite prior.
    constant_signal marks policies that ignore feedback and hold X = u, which
    unlocks vectorized simulation and closed-form filtering.
    """

    horizon: float
    dt: float
    policy: object
    delay: float = math.inf
    latent: FinitePmf | None = None
    power_bound: float = DEFAULT_POWER_BOUND
    constant_signal: bool = False

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        n = int(round(self.horizon / self.dt))
        if abs(n * self.dt - self.horizon) > 1e-9 * max(self.dt, self.horizon):
            raise ValueError("horizon must be a whole number of grid steps")
        if math.isfinite(self.delay):
            if self.delay < self.dt * (1 - 1e-9):
                raise ValueError("a finite feedback delay must be at least one grid step")
            d = int(round(self.delay / self.dt))
            if abs(d * self.dt - self.delay) > 1e-9 * self.delay:
                raise ValueError("feedback delay must be a whole number of grid steps")
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "delay", float(self.delay))

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def delay_steps(self) -> int | None:
        if math.isinf(self.delay):
            return None
        return int(round(self.delay / self.dt))


def constant_signal_model(horizon: float, dt: float,
                          prior: FinitePmf | None = None) -> GaussianFeedbackModel:
    """X_t held at a latent draw: standard normal by default, else a finite prior."""
    bound = math.inf if prior is None else DEFAULT_POWER_BOUND
    return GaussianFeedbackModel(horizon, dt, _constant_policy, delay=math.inf,
                                 latent=prior, power_bound=bound, constant_signal=True)


def delayed_echo_model(horizon: float, dt: float, delay: float) -> GaussianFeedbackModel:
    """X_{t+delay} = Y_t: the input replays the delayed output, zero before the delay."""
    latent = FinitePmf(np.array([0.0]), np.array([1.0]))
    return GaussianFeedbackModel(horizon, dt, _echo_policy, delay=delay, latent=latent)


def simulate_awgn(model: GaussianFeedbackModel, rng):
    """Draw (signal path, observation-increment path) for one replica.

    The latent is drawn first, then the step noises, so a replay from the
    same stream is bit-identical.
    """
    gen = as_generator(rng)
    n = model.n_steps
    if n == 0:
        raise ValueError("horizon shorter than one grid step")
    if model.latent is None:
        u = float(gen.standard_normal())
    else:
        u = float(gen.choice(model.latent.support, p=model.latent.probs))
    z = gen.standard_normal(n)
    dt = model.dt
    sq = math.sqrt(dt)
    if model.constant_signal:
        if not abs(u) <= model.power_bound:
            raise ValueError(f"signal level {u} exceeds the power bound {model.power_bound}")
        x = np.full(n, u)
        inc = x * dt + sq * z
    else:
        d = model.delay_steps
        x = np.empty(n)
        inc = np.empty(n)
        for k in range(n):
            visible = inc[: max(0, k - d)] if d is not None else inc[:0]
            xk = float(model.policy(u, k, visible))
            if not abs(xk) <= model.power_bound:
                raise ValueError(f"policy output {xk} exceeds the power bound {model.power_bound}")
            x[k] = xk
            inc[k] = xk * dt + sq * z[k]
    return SamplePath(0.0, dt, x), SamplePath(0.0, dt, inc)


@dataclass(frozen=True, eq=False)
class FilterPath:
    """Causal estimates on the observation grid, with optional posterior variances."""

    estimates: SamplePath
    variances: SamplePath | None = None


def _cumulative_before(yinc: SamplePath) -> np.ndarray:
    """Cumulative observation at each grid time, using increments strictly before it."""
    out = np.empty(len(yinc))
    out[0] = 0.0
    np.cumsum(yinc.values[:-1], out=out[1:])
    return out


def _require_from_origin(yinc: SamplePath):
    if yinc.t0 != 0.0:
        raise ValueError("filters expect an observation path starting at time 0")


def exact_filter_constant_signal(yinc: SamplePath, prior_var: float = 1.0) -> FilterPath:
    """Posterior mean/variance of a constant signal under a centered Gaussian prior.

    With prior variance v the posterior at time t is Gaussian with mean
    v Y_t / (1 + v t) and variance v / (1 + v t).
    """
    _require_from_origin(yinc)
    if not prior_var > 0:
        raise ValueError("prior variance must be positive")
    y = _cumulative_before(yinc)
    gain = prior_var / (1.0 + prior_var * yinc.times)
    return FilterPath(
        SamplePath(0.0, yinc.dt, gain * y),
        SamplePath(0.0, yinc.dt, gain),
    )


def discrete_prior_filter(prior: FinitePmf, yinc: SamplePath) -> FilterPath:
    """Exact Bayes filter for a constant signal drawn from a finite prior.

    Posterior weights at time t are proportional to p(a) exp(a Y_t - a^2 t/2).
    """
    _require_from_origin(yinc)
    y = _cumulative_before(yinc)
    t = yinc.times
    a = prior.support
    loglik = (
        np.log(np.where(prior.probs > 0, prior.probs, 1.0))
        + np.where(prior.probs > 0, 0.0, -np.inf)
        + np.multiply.outer(y, a)
        - 0.5 * np.multiply.outer(t, a * a)
    )
    loglik -= loglik.max(axis=1, keepdims=True)
    w = np.exp(loglik)
    w /= w.sum(axis=1, keepdims=True)
    est = w @ a
    var = w @ (a * a) - est * est
    return FilterPath(SamplePath(0.0, yinc.dt, est), SamplePath(0.0, yinc.dt, var))


def replay_filter(model: GaussianFeedbackModel, yinc: SamplePath) -> FilterPath:
    """Exact filter for deterministic policies (point-mass latent).

    The signal is a function of the observed past, so the causal posterior
    mean just replays the policy on the observed increments.
    """
    _require_from_origin(yinc)
    if model.latent is None or len(model.latent) != 1:
        raise ValueError("replay filtering needs a point-mass latent")
    u = float(model.latent.support[0])
    d = model.delay_steps
    n = len(yinc)
    est = np.empty(n)
    for k in range(n):
        visible = yinc.values[: max(0, k - d)] if d is not None else yinc.values[:0]
        est[k] = model.policy(u, k, visible)
    return FilterPath(SamplePath(0.0, yinc.dt, est), SamplePath(0.0, yinc.dt, np.zeros(n)))


def _systematic_resample(weights: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    positions = (gen.random() + np.arange(weights.size)) / weights.size
    return np.searchsorted(np.cumsum(weights), positions)


def particle_filter(model: GaussianFeedbackModel, yinc: SamplePath,
                    n_particles: int, rng) -> FilterPath:
    """Bootstrap particle filter over the latent for a finite-prior model.

    Log-domain weight increments x dy - x^2 dt / 2 per step, with systematic
    resampling whenever the effective sample size drops below half the
    particle count.  Estimates at step k use increments before k only.
    """
    _require_from_origin(yinc)
    if model.latent is None:
        raise ValueError("particle filtering needs a finite-support latent prior")
    if n_particles < 100:
        raise ValueError("need at least 100 particles")
    gen = as_generator(rng)
    latents = gen.choice(model.latent.support, p=model.latent.probs, size=n_particles)
    logw = np.zeros(n_particles)
    dt = yinc.dt
    d = model.delay_steps
    n = len(yinc)
    est = np.empty(n)
    var = np.empty(n)
    for k in range(n):
        if model.constant_signal:
            x = latents
        else:
            # particles share the observed increments; only the latent differs
            visible = yinc.values[: max(0, k - d)] if d is not None else yinc.values[:0]
            uniq, inverse = np.unique(latents, return_inverse=True)
            x = np.array([model.policy(u, k, visible) for u in uniq])[inverse]
        shifted = logw - logw.max()
        w = np.exp(shifted)
        w /= w.sum()
        est[k] = np.dot(w, x)
        var[k] = np.dot(w, x * x) - est[k] ** 2
        logw = logw + x * yinc.values[k] - 0.5 * x * x * dt
        if not np.any(np.isfinite(logw)):
            raise RuntimeError(
                f"all particle weights degenerated at step {k} (t={k * dt:.6g}); "
                "the prior may not cover the signal"
            )
        shifted = logw - logw.max()
        w = np.exp(shifted)
        w /= w.sum()
        if 1.0 / np.dot(w, w) < 0.5 * n_particles:
            latents = latents[_systematic_resample(w, gen)]
            logw = np.zeros(n_particles)
    return FilterPath(SamplePath(0.0, dt, est), SamplePath(0.0, dt, var))


def causal_mmse_integral(x: SamplePath, filt: FilterPath) -> float:
    """Half the integrated squared filtering error, 0.5 * sum (x - xhat)^2 dt."""
    est = filt.estimates
    if (
        len(x) != len(est)
        or abs(x.dt - est.dt) > 1e-12 * x.dt
        or abs(x.t0 - est.t0) > 1e-12 * max(1.0, abs(x.t0))
    ):
        raise ValueError("signal and filter paths live on different grids")
    diff = x.values - est.values
    return 0.5 * float(np.dot(diff, diff)) * x.dt


def closed_form_di_constant_signal(horizon: float) -> float:
    """Directed information 0.5 * ln(1 + T) for a unit-Gaussian constant signal."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    return 0.5 * math.log1p(horizon)


def _exact_filter(model: GaussianFeedbackModel, yinc: SamplePath) -> FilterPath:
    if model.constant_signal and model.latent is None:
        return exact_filter_constant_signal(yinc)
    if model.constant_signal:
        return discrete_prior_filter(model.latent, yinc)
    if model.latent is not None and len(model.latent) == 1:
        return replay_filter(model, yinc)
    raise ValueError("no exact causal filter known for this model; use filter_strategy='particle'")


def _di_replicas(model, filter_strategy, n_particles, master_seed, r0, r1):
    if model.n_steps == 0:
        return [0.0] * (r1 - r0)
    spec = RngSpec(master_seed)
    out = []
    for r in range(r0, r1):
        gen = spec.stream(r)
        x, inc = simulate_awgn(model, gen)
        if filter_strategy == "exact":
            fp = _exact_filter(model, inc)
        else:
            fp = particle_filter(model, inc, n_particles, gen)
        out.append(causal_mmse_integral(x, fp))
    return out


def directed_info_gaussian_mc(model: GaussianFeedbackModel, rng, replicas: int,
                              filter_strategy: str = "exact", n_particles: int = 1000,
                              jobs: int = 1) -> DiEstimate:
    """Directed information estimated as the mean causal-MMSE integral over replicas."""
    if filter_strategy not in ("exact", "particle"):
        raise ValueError("filter_strategy must be 'exact' or 'particle'")
    worker = functools.partial(_di_replicas, model, filter_strategy, n_particles)
    return replicated_estimate(worker, rng, replicas, jobs)


def gaussian_prior_filter(prior_var: float):
    """Filter callable for a constant signal with a centered Gaussian prior."""
    return functools.partial(exact_filter_constant_signal, prior_var=prior_var)


def finite_prior_filter(prior: FinitePmf):
    """Filter callable for a constant signal with the given finite prior."""
    return functools.partial(discrete_prior_filter, prior)


def _mismatch_replicas(model, q_filter, master_seed, r0, r1):
    spec = RngSpec(master_seed)
    out = []
    for r in range(r0, r1):
        x, inc = simulate_awgn(model, spec.stream(r))
        excess = causal_mmse_integral(x, q_filter(inc)) - causal_mmse_integral(x, _exact_filter(model, inc))
        out.append(excess)
    return out


def mismatched_relent_gaussian(model: GaussianFeedbackModel, q_filter, rng,
                               replicas: int, jobs: int = 1) -> DiEstimate:
    """Relative entropy between output laws under the true and a mismatched prior.

    Estimated as half the integrated excess squared error of the mismatched
    causal filter over the matched one, averaged over replicas of the true
    model; nonnegative up to Monte Carlo noise, and identically zero when the
    mismatched filter coincides with the matched one.
    """
    worker = functools.partial(_mismatch_replicas, model, q_filter)
    return replicated_estimate(worker, rng, replicas, jobs)


def write_path_csv(dest, x: SamplePath, yinc: SamplePath, filt: FilterPath) -> None:
    """Dump one replica as CSV rows (time, x, y_increment, x_hat)."""
    est = filt.estimates
    if not len(x) == len(yinc) == len(est):
        raise ValueError("paths live on different grids")
    close = False
    if not hasattr(dest, "write"):
        dest = open(dest, "w", newline="\n")
        close = True
    try:
        dest.write("time,x,y_increment,x_hat\n")
        for t, xv, dy, xh in zip(x.times, x.values, yinc.values, est.values):
            dest.write(f"{t:.12g},{xv:.12g},{dy:.12g},{xh:.12g}\n")
    finally:
        if close:
            dest.close()
