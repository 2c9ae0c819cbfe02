"""Additive white-Gaussian-noise channel with feedback.

Simulation uses per-step observation increments inc_k = X_k dt + sqrt(dt) Z_k
rather than cumulative values, which keeps likelihood updates well
conditioned.  The Monte Carlo directed-information estimate is half the
integrated causal mean-square error of the optimal filter, which for this
channel equals the directed information between the input and output paths;
filters therefore always estimate X at time t from increments strictly
before t.

Feedback delays are quantized to whole grid steps: the encoder at step k
sees the cumulative output Y at step k - delay_steps, the sum of the
increments before that step, and a finite delay below one grid step is
rejected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (DiEstimate, FinitePmf, SamplePath, per_replica, replicated_estimate,
                   replicated_estimates)

DEFAULT_POWER_BOUND = 1e3
_STEP_CAP = 1_000_000

__all__ = [
    "GaussianFeedbackModel",
    "constant_signal_model",
    "delayed_echo_model",
    "simulate_awgn",
    "exact_filter_constant_signal",
    "discrete_prior_filter",
    "replay_filter",
    "causal_mmse_integral",
    "closed_form_di_constant_signal",
    "directed_info_gaussian_mc",
    "directed_info_gaussian_sweep",
    "mismatched_relent_gaussian",
]


def _echo_policy(u, y):
    return y


@dataclass(frozen=True, eq=False)
class GaussianFeedbackModel:
    """Signal policy driving dY = X dt + dB on a uniform grid of step dt.

    policy(u, y) returns X at step k from the latent draw u and the
    cumulative output y = Y_{(k - delay_steps) dt} the encoder sees (0 while
    the delay has not elapsed, and always when delay is inf).  policy=None
    holds X = u, which unlocks vectorized simulation and closed-form
    filtering.  latent=None marks a standard-normal latent; otherwise a
    finite prior, under which every policy has an exact filter: each atom's
    signal is a known function of the observed past, so the posterior is a
    likelihood mixture over the atoms.  A standard-normal latent has an
    exact filter only with policy=None.  The grid has at most _STEP_CAP
    steps, so no simulation buffer grows past a few hundred megabytes.
    """

    horizon: float
    dt: float
    policy: object
    delay: float = math.inf
    latent: FinitePmf | None = None
    power_bound: float = DEFAULT_POWER_BOUND

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.horizon < math.inf:
            raise ValueError(f"horizon must be nonnegative and finite, got {self.horizon}")
        steps = self.horizon / self.dt
        if steps > _STEP_CAP:
            raise ValueError(f"{steps:.3g} grid steps exceed the step cap {_STEP_CAP}")
        n = int(round(steps))
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
    return GaussianFeedbackModel(horizon, dt, None, delay=math.inf,
                                 latent=prior, power_bound=bound)


def delayed_echo_model(horizon: float, dt: float, delay: float) -> GaussianFeedbackModel:
    """X_{t+delay} = Y_t: the input replays the delayed output, zero before the delay."""
    latent = FinitePmf(np.array([0.0]), np.array([1.0]))
    return GaussianFeedbackModel(horizon, dt, _echo_policy, delay=delay, latent=latent)


def _drive(model: GaussianFeedbackModel, u: float, inc: np.ndarray, z=None) -> np.ndarray:
    """Signal path X_k = policy(u, Y_{k - delay_steps}) along the increments inc.

    With step noises z the loop writes the channel output inc_k = X_k dt +
    sqrt(dt) z_k into inc as it goes; without them inc is an observed path
    and the signal is replayed on it.  Simulation and the replay filter
    share this loop, so a replay reproduces a simulated signal bit for bit.
    """
    dt = model.dt
    sq = math.sqrt(dt)
    if model.policy is None:
        if not abs(u) <= model.power_bound:
            raise ValueError(f"signal level {u} exceeds the power bound {model.power_bound}")
        x = np.full(inc.size, u)
        if z is not None:
            inc[:] = x * dt + sq * z
        return x
    d = model.delay_steps
    lag = inc.size if d is None else d  # without feedback the encoder never sees Y
    x = np.empty(inc.size)
    y = 0.0
    for k in range(inc.size):
        if k > lag:
            y += inc[k - lag - 1]
        xk = float(model.policy(u, y))
        if not abs(xk) <= model.power_bound:
            raise ValueError(f"policy output {xk} exceeds the power bound {model.power_bound}")
        x[k] = xk
        if z is not None:
            inc[k] = xk * dt + sq * z[k]
    return x


def simulate_awgn(model: GaussianFeedbackModel, gen: np.random.Generator):
    """Draw (signal path, observation-increment path) for one replica from gen.

    The latent is drawn first, then the step noises, so a replay from the
    same stream is bit-identical.
    """
    n = model.n_steps
    if n == 0:
        raise ValueError("horizon shorter than one grid step")
    if model.latent is None:
        u = float(gen.standard_normal())
    else:
        u = float(gen.choice(model.latent.support, p=model.latent.probs))
    z = gen.standard_normal(n)
    inc = np.empty(n)
    x = _drive(model, u, inc, z)
    return SamplePath(model.dt, x), SamplePath(model.dt, inc)


def _cumulative_before(inc: np.ndarray) -> np.ndarray:
    """Cumulative observation at each grid time (last axis), from increments strictly before it."""
    out = np.empty_like(inc)
    out[..., 0] = 0.0
    np.cumsum(inc[..., :-1], axis=-1, out=out[..., 1:])
    return out


def _gaussian_prior_mean(y: np.ndarray, t: np.ndarray, prior_var: float) -> np.ndarray:
    """Posterior mean v Y_t / (1 + v t) of a constant N(0, v) signal, in place in y."""
    y *= prior_var / (1.0 + prior_var * t)
    return y


def exact_filter_constant_signal(yinc: SamplePath, prior_var: float = 1.0) -> SamplePath:
    """Posterior-mean path of a constant signal under a centered Gaussian prior.

    With prior variance v the posterior at time t is Gaussian with mean
    v Y_t / (1 + v t) and variance v / (1 + v t).
    """
    if not prior_var > 0:
        raise ValueError("prior variance must be positive")
    est = _gaussian_prior_mean(_cumulative_before(yinc.values), yinc.times, prior_var)
    return SamplePath(yinc.dt, est)


def _mixture_mean(loglik: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """Posterior mean of the signal over K latent atoms, along the last axis.

    loglik is (..., n, K): each atom's unnormalized log posterior weight at
    each step.  signals is the atoms' signal, (K,) when it is constant in
    time, else (n, K).  A single atom gets weight 1 exactly.
    """
    loglik = loglik - loglik.max(axis=-1, keepdims=True)
    w = np.exp(loglik)
    w /= w.sum(axis=-1, keepdims=True)
    return w @ signals if signals.ndim == 1 else np.sum(w * signals, axis=-1)


def _finite_prior_mean(prior: FinitePmf, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Posterior mean of a constant signal from a finite prior given Y_t, along the last axis.

    Posterior weights at time t are proportional to p(a) exp(a Y_t - a^2 t/2).
    """
    a = prior.support
    loglik = (
        np.log(np.where(prior.probs > 0, prior.probs, 1.0))
        + np.where(prior.probs > 0, 0.0, -np.inf)
        + np.multiply.outer(y, a)
        - 0.5 * np.multiply.outer(t, a * a)
    )
    return _mixture_mean(loglik, a)


def discrete_prior_filter(prior: FinitePmf, yinc: SamplePath) -> SamplePath:
    """Posterior-mean path of a constant signal drawn from a finite prior."""
    return SamplePath(yinc.dt, _finite_prior_mean(prior, _cumulative_before(yinc.values), yinc.times))


def replay_filter(model: GaussianFeedbackModel, yinc: SamplePath) -> SamplePath:
    """Exact posterior-mean path for a finite-prior model, with or without feedback.

    Each atom's signal is a known function of the observed past, so the
    posterior weight of atom a at step k is proportional to
    p(a) exp(sum_{j<k} x_a,j inc_j - x_a,j^2 dt / 2).  Each positive-mass
    atom is replayed once on the observed increments; with a point-mass
    latent the estimate is the replayed signal bit for bit.
    """
    if model.latent is None:
        raise ValueError("replay filtering needs a finite-support latent prior")
    prior = model.latent.trimmed()
    signals = np.array([_drive(model, float(u), yinc.values) for u in prior.support]).T
    steps = signals * yinc.values[:, None] - 0.5 * yinc.dt * signals * signals
    loglik = np.empty_like(signals)
    loglik[0] = 0.0
    np.cumsum(steps[:-1], axis=0, out=loglik[1:])
    return SamplePath(yinc.dt, _mixture_mean(loglik + np.log(prior.probs), signals))


def causal_mmse_integral(x: SamplePath, est: SamplePath) -> float:
    """Half the integrated squared filtering error, 0.5 * sum (x - est)^2 dt.

    est is a filter's posterior-mean path on the grid of x.
    """
    if len(x) != len(est) or abs(x.dt - est.dt) > 1e-12 * x.dt:
        raise ValueError("signal and filter paths live on different grids")
    diff = x.values - est.values
    return 0.5 * float(np.dot(diff, diff)) * x.dt


def closed_form_di_constant_signal(horizon: float) -> float:
    """Directed information 0.5 * ln(1 + T) for a unit-Gaussian constant signal."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    return 0.5 * math.log1p(horizon)


def _exact_filter(model: GaussianFeedbackModel, yinc: SamplePath) -> SamplePath:
    if model.policy is None and model.latent is None:
        return exact_filter_constant_signal(yinc)
    if model.policy is None:
        return discrete_prior_filter(model.latent, yinc)
    return replay_filter(model, yinc)


def _constant_signal_block(model, steps, gens) -> np.ndarray:
    """Causal-MMSE integrals over the first k steps, each k in steps, of a block of replicas.

    model is a policy=None model; its grid step, latent and power bound
    apply, and the paths run to the longest prefix.  Each stream draws its
    latent and then its step noises, the draws of simulate_awgn, into its
    row of one (C, n) buffer, which becomes the increments in place; the
    cumulative output and then the filter error fill one more (C, n) array.
    The filter at step j reads only the steps before it, so a prefix of a
    row is the row a shorter horizon draws and filters.  Row by row the
    arithmetic is that of simulate_awgn, the exact filter and
    causal_mmse_integral, so every value is bit-identical to that
    composition at its own horizon.  Returns a (C, len(steps)) array.
    """
    n, dt = max(steps), model.dt
    if n == 0:
        return np.zeros((len(gens), len(steps)))
    u = np.empty((len(gens), 1))
    inc = np.empty((len(gens), n))
    for i, gen in enumerate(gens):
        if model.latent is None:
            u[i] = gen.standard_normal()
        else:
            u[i] = gen.choice(model.latent.support, p=model.latent.probs)
        gen.standard_normal(out=inc[i])
    over = ~(np.abs(u) <= model.power_bound)
    if over.any():
        raise ValueError(f"signal level {u[over][0]} exceeds the power bound {model.power_bound}")
    inc *= math.sqrt(dt)
    inc += u * dt
    if not np.all(np.isfinite(inc)):
        raise ValueError("sample values must be finite")
    t = dt * np.arange(n)
    err = _cumulative_before(inc)
    if model.latent is None:
        err = _gaussian_prior_mean(err, t, 1.0)
    else:
        # row by row: (C, n, K) log weights would grow with the atom count
        # and fall out of cache
        err = np.array([_finite_prior_mean(model.latent, y, t) for y in err])
    if not np.all(np.isfinite(err)):
        raise ValueError("sample values must be finite")
    np.subtract(u, err, out=err)
    return np.array([[0.5 * float(np.dot(d[:k], d[:k])) * dt for k in steps] for d in err])


def _di_replica(model, gen):
    if model.n_steps == 0:
        return 0.0
    x, inc = simulate_awgn(model, gen)
    return causal_mmse_integral(x, replay_filter(model, inc))


def _same_latent(a: FinitePmf | None, b: FinitePmf | None) -> bool:
    if a is None or b is None:
        return a is b
    return np.array_equal(a.support, b.support) and np.array_equal(a.probs, b.probs)


def directed_info_gaussian_sweep(models, rng, replicas: int, jobs: int = 1) -> list[DiEstimate]:
    """directed_info_gaussian_mc of each policy=None model, in one pass over the replicas.

    The models may differ only in their horizons, which may come in any
    order and repeat: they share dt, latent and power bound.  Replica r
    draws its stream once, at the longest horizon, and each model's value
    is the causal-MMSE integral over its own prefix of that path, which is
    what the model alone draws from replica r's stream.  Each estimate is
    therefore bit-identical to directed_info_gaussian_mc of its model.
    Estimates come in the order of models.
    """
    models = list(models)
    if not models:
        raise ValueError("a sweep needs at least one model")
    longest = max(models, key=lambda m: m.n_steps)
    for m in models:
        if m.policy is not None:
            raise ValueError("a sweep runs only policy=None models")
        if (m.dt != longest.dt or m.power_bound != longest.power_bound
                or not _same_latent(m.latent, longest.latent)):
            raise ValueError("swept models must share dt, latent and power bound")
    block = functools.partial(_constant_signal_block, longest, [m.n_steps for m in models])
    return replicated_estimates(block, rng, replicas, jobs)


def directed_info_gaussian_mc(model: GaussianFeedbackModel, rng, replicas: int,
                              jobs: int = 1) -> DiEstimate:
    """Directed information estimated as the mean causal-MMSE integral over replicas.

    Every replica is filtered exactly.  Without a policy the replicas run in
    blocks, as the one-model case of directed_info_gaussian_sweep: the
    conjugate filter for a Gaussian latent, the finite-prior likelihood
    mixture otherwise.  Replica r draws from the stream of replica r of rng
    whatever the horizon, so estimates at several horizons share their
    draws: a sweep over horizons with one dt draws each stream once, at the
    longest horizon, and returns these same estimates.  Under a policy each
    replica runs alone through the replay filter; a Gaussian latent there
    has no exact filter and raises ValueError.
    """
    if model.policy is None:
        return directed_info_gaussian_sweep([model], rng, replicas, jobs)[0]
    return replicated_estimate(per_replica(functools.partial(_di_replica, model)),
                               rng, replicas, jobs)


def _mismatch_replica(model, q_filter, gen):
    x, inc = simulate_awgn(model, gen)
    return causal_mmse_integral(x, q_filter(inc)) - causal_mmse_integral(x, _exact_filter(model, inc))


def mismatched_relent_gaussian(model: GaussianFeedbackModel, q_filter, rng,
                               replicas: int, jobs: int = 1) -> DiEstimate:
    """Relative entropy between output laws under the true and a mismatched prior.

    Estimated as half the integrated excess squared error of the mismatched
    causal filter over the matched one, averaged over replicas of the true
    model; nonnegative up to Monte Carlo noise, and identically zero when the
    mismatched filter coincides with the matched one.  q_filter(yinc) returns
    the mismatched posterior-mean path on the grid of yinc.
    """
    return replicated_estimate(per_replica(functools.partial(_mismatch_replica, model, q_filter)),
                               rng, replicas, jobs)

