"""Additive white-Gaussian-noise channel with feedback, on blocks of replicas.

A block is a (C, n) array: C replicas on a grid of n steps, time along the
last axis.  Simulation uses per-step observation increments inc_k = X_k dt +
sqrt(dt) Z_k, which keeps likelihood updates well conditioned.  By Duncan's
relation with feedback the directed information between the input and
output paths is half the integrated causal mean-square error of the optimal
filter, so every estimator runs one pipeline on each block: draw it
(simulate_awgn), filter it exactly, integrate the error
(causal_mmse_integral).  Filters estimate X at time t from increments
strictly before t, and each row's values depend on its own stream alone.

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

from .core import DiEstimate, FinitePmf, replicated_estimate, replicated_estimates

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

    policy(u, y) returns X at step k for a block of rows at once: u is the
    (R,) array of latent draws and y the (R,) array of cumulative outputs
    Y_{(k - delay_steps) dt} the encoder sees (0 while the delay has not
    elapsed, and always when delay is inf).  It returns an (R,) array, or a
    scalar that holds for every row, and must treat each row on its own
    (np.where, not if).  policy=None holds X = u.  latent=None marks a
    standard-normal latent; otherwise a finite prior, under which every
    policy has an exact filter: each atom's signal is a known function of
    the observed past, so the posterior is a likelihood mixture over the
    atoms.  A standard-normal latent has an exact filter only with
    policy=None.  The grid has at most _STEP_CAP steps, so no simulation
    buffer grows past a few hundred megabytes.
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


def _check_power(values: np.ndarray, bound: float, what: str) -> None:
    over = ~(np.abs(values) <= bound)
    if over.any():
        raise ValueError(f"{what} {values[over][0]} exceeds the power bound {bound}")


def _drive(model: GaussianFeedbackModel, u: np.ndarray, inc: np.ndarray,
           simulate: bool = False) -> np.ndarray:
    """Signal rows X_k = policy(u, Y_{k - delay_steps}) along the (R, n) increments inc.

    With simulate, inc holds the step noises z on entry and becomes the
    channel output X_k dt + sqrt(dt) z_k in place; otherwise the signal is
    replayed on the observed inc.  Simulation and the replay filter share
    this loop, so a replay reproduces a simulated signal bit for bit.
    """
    dt = model.dt
    sq = math.sqrt(dt)
    if model.policy is None:
        _check_power(u, model.power_bound, "signal level")
        if simulate:
            inc *= sq
            inc += u[:, None] * dt
        return np.broadcast_to(u[:, None], inc.shape)
    n = inc.shape[1]
    d = model.delay_steps
    lag = n if d is None else d  # without feedback the encoder never sees Y
    x = np.empty((len(u), n))
    y = np.zeros(len(u))
    for k in range(n):
        if k > lag:
            y += inc[:, k - lag - 1]
        x[:, k] = model.policy(u, y)
        if simulate:
            inc[:, k] = x[:, k] * dt + sq * inc[:, k]
    _check_power(x, model.power_bound, "policy output")
    return x


def simulate_awgn(model: GaussianFeedbackModel, gens) -> tuple[np.ndarray, np.ndarray]:
    """Draw a block: (signal, observation increments), (C, n) arrays, row i from gens[i].

    Each stream draws its latent and then its step noises, so a replay from
    the same stream is bit-identical, and a shorter horizon draws a prefix
    of the same row.  Without a policy the signal is a read-only broadcast.
    """
    n = model.n_steps
    if n == 0:
        raise ValueError("horizon shorter than one grid step")
    u = np.empty(len(gens))
    inc = np.empty((len(gens), n))
    for i, gen in enumerate(gens):
        if model.latent is None:
            u[i] = gen.standard_normal()
        else:
            u[i] = gen.choice(model.latent.support, p=model.latent.probs)
        gen.standard_normal(out=inc[i])
    return _drive(model, u, inc, simulate=True), inc


def _cumulative_before(inc: np.ndarray) -> np.ndarray:
    """Cumulative observation at each grid time (last axis), from increments strictly before it."""
    out = np.empty_like(inc)
    out[..., 0] = 0.0
    np.cumsum(inc[..., :-1], axis=-1, out=out[..., 1:])
    return out


def exact_filter_constant_signal(inc: np.ndarray, dt: float, prior_var: float = 1.0) -> np.ndarray:
    """Posterior means of a constant signal under a centered Gaussian prior, along the last axis.

    With prior variance v the posterior at time t is Gaussian with mean
    v Y_t / (1 + v t) and variance v / (1 + v t).
    """
    if not prior_var > 0:
        raise ValueError("prior variance must be positive")
    est = _cumulative_before(inc)
    est *= prior_var / (1.0 + prior_var * (dt * np.arange(inc.shape[-1])))
    return est


def _mixture_mean(loglik: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """Posterior mean of the signal over K latent atoms, along the last axis.

    loglik is (..., n, K): each atom's unnormalized log posterior weight at
    each step.  signals is the atoms' signal, (K,) when it is constant in
    time, else shaped like loglik.  A single atom gets weight 1 exactly.
    """
    loglik = loglik - loglik.max(axis=-1, keepdims=True)
    w = np.exp(loglik)
    w /= w.sum(axis=-1, keepdims=True)
    return w @ signals if signals.ndim == 1 else np.sum(w * signals, axis=-1)


def discrete_prior_filter(prior: FinitePmf, inc: np.ndarray, dt: float) -> np.ndarray:
    """Posterior means of a constant signal drawn from a finite prior, along the last axis.

    Posterior weights at time t are proportional to p(a) exp(a Y_t - a^2 t/2).
    """
    a, p = prior.support, prior.probs
    logp = np.log(np.where(p > 0, p, 1.0)) + np.where(p > 0, 0.0, -np.inf)
    t = dt * np.arange(inc.shape[-1])
    est = _cumulative_before(inc)
    # row by row: (C, n, K) log weights would grow with the atom count and
    # fall out of cache
    for y in est.reshape(-1, est.shape[-1]):
        y[:] = _mixture_mean(logp + np.multiply.outer(y, a) - 0.5 * np.multiply.outer(t, a * a), a)
    return est


def replay_filter(model: GaussianFeedbackModel, inc: np.ndarray) -> np.ndarray:
    """Exact posterior means along the last axis for a finite prior, with or without feedback.

    Each atom's signal is a known function of the observed past, so the
    posterior weight of atom a at step k is proportional to
    p(a) exp(sum_{j<k} x_a,j inc_j - x_a,j^2 dt / 2).  Every positive-mass
    atom of every row is replayed once, all in one pass of the signal loop;
    with a point-mass latent the estimate is the replayed signal bit for bit.
    """
    if model.latent is None:
        raise ValueError("replay filtering needs a finite-support latent prior")
    prior = model.latent.trimmed()
    rows = inc.reshape(-1, inc.shape[-1])
    (r, n), k = rows.shape, len(prior)
    # row i * k + j replays atom j on row i, so each row's signals are laid
    # out as those of one row alone, which fixes the order of the sums over atoms
    x = _drive(model, np.tile(prior.support, r), np.repeat(rows, k, axis=0))
    signals = x.reshape(r, k, n).transpose(0, 2, 1)
    steps = signals * rows[:, :, None] - 0.5 * model.dt * signals * signals
    loglik = np.empty_like(steps)
    loglik[:, 0] = 0.0
    np.cumsum(steps[:, :-1], axis=1, out=loglik[:, 1:])
    est = _mixture_mean(loglik + np.log(prior.probs), signals)
    return np.ascontiguousarray(est).reshape(inc.shape)


def causal_mmse_integral(x: np.ndarray, est: np.ndarray, dt: float, steps) -> np.ndarray:
    """Half the integrated squared filtering error of each row over its first k steps, k in steps.

    x and est are (..., n) arrays on one grid of step dt; est, a filter's
    posterior means, is overwritten with the error x - est.  Returns an
    (..., len(steps)) array of 0.5 * sum_{j<k} (x_j - est_j)^2 dt.
    """
    if np.shape(x) != est.shape:
        raise ValueError(f"signal {np.shape(x)} and filter {est.shape} blocks differ in shape")
    err = np.subtract(x, est, out=est).reshape(-1, est.shape[-1])
    out = np.array([[0.5 * float(np.dot(d[:k], d[:k])) * dt for k in steps] for d in err])
    return out.reshape(est.shape[:-1] + (len(steps),))


def closed_form_di_constant_signal(horizon: float) -> float:
    """Directed information 0.5 * ln(1 + T) for a unit-Gaussian constant signal."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    return 0.5 * math.log1p(horizon)


def _block(model, steps, q_filter, gens) -> np.ndarray:
    """Causal-MMSE integrals over the first k steps, each k in steps, of a block of replicas.

    Draws the block at model's horizon, the longest of steps, filters it
    exactly and integrates the error; with a q_filter, the mismatched
    filter's integrals minus the exact ones.  A filter at step j reads only
    the steps before it, so a row's prefix is the row a shorter horizon
    draws.  Returns a (C, len(steps)) array.
    """
    if model.n_steps == 0:
        return np.zeros((len(gens), len(steps)))
    x, inc = simulate_awgn(model, gens)
    if model.policy is not None:
        est = replay_filter(model, inc)
    elif model.latent is None:
        est = exact_filter_constant_signal(inc, model.dt)
    else:
        est = discrete_prior_filter(model.latent, inc, model.dt)
    vals = causal_mmse_integral(x, est, model.dt, steps)
    if q_filter is not None:
        q = np.array(q_filter(inc, model.dt), dtype=float)  # a copy: the integral overwrites it
        if q.shape != inc.shape:
            raise ValueError(f"q_filter returned shape {q.shape}, not the increments' {inc.shape}")
        vals = causal_mmse_integral(x, q, model.dt, steps) - vals
    if not np.all(np.isfinite(vals)):
        raise ValueError("sample values must be finite")
    return vals


def _pipeline(model, steps, q_filter=None):
    """The block function of model's estimates, checked before any stream is drawn."""
    if model.policy is not None and model.latent is None:
        raise ValueError("a standard-normal latent has an exact filter only with policy=None")
    return functools.partial(_block, model, steps, q_filter)


def _shared(m: GaussianFeedbackModel) -> tuple:
    """Everything of a model but its horizon."""
    latent = None if m.latent is None else (tuple(m.latent.support), tuple(m.latent.probs))
    return m.dt, m.policy, m.delay, m.power_bound, latent


def directed_info_gaussian_sweep(models, rng, replicas: int, jobs: int = 1) -> list[DiEstimate]:
    """directed_info_gaussian_mc of each model, in one pass over the replicas.

    The models may differ only in their horizons, which may come in any
    order and repeat: they share dt, policy, delay, latent and power bound.
    Replica r draws its stream once, at the longest horizon, and each
    model's value is the causal-MMSE integral over its own prefix of that
    path, which is what the model alone draws from replica r's stream.
    Estimates come in the order of models.
    """
    models = list(models)
    if not models:
        raise ValueError("a sweep needs at least one model")
    longest = max(models, key=lambda m: m.n_steps)
    if any(_shared(m) != _shared(longest) for m in models):
        raise ValueError("swept models must share dt, policy, delay, latent and power bound")
    block = _pipeline(longest, [m.n_steps for m in models])
    return replicated_estimates(block, rng, replicas, jobs)


def directed_info_gaussian_mc(model: GaussianFeedbackModel, rng, replicas: int,
                              jobs: int = 1) -> DiEstimate:
    """Directed information estimated as the mean causal-MMSE integral over replicas.

    The one-model case of directed_info_gaussian_sweep.  Every replica is
    filtered exactly: by the conjugate filter for a Gaussian latent without
    a policy, by the finite-prior likelihood mixture otherwise.  A Gaussian
    latent under a policy has no exact filter and raises ValueError before
    any stream is drawn.
    """
    return directed_info_gaussian_sweep([model], rng, replicas, jobs)[0]


def mismatched_relent_gaussian(model: GaussianFeedbackModel, q_filter, rng,
                               replicas: int, jobs: int = 1) -> DiEstimate:
    """Relative entropy between output laws under the true and a mismatched prior.

    Estimated as half the integrated excess squared error of the mismatched
    causal filter over the matched one, averaged over replicas of the true
    model; nonnegative up to Monte Carlo noise, and identically zero when the
    mismatched filter coincides with the matched one.  q_filter(inc, dt)
    maps a (C, n) block of observation increments to the mismatched
    posterior means, an array of that shape; any other shape raises ValueError.
    """
    return replicated_estimate(_pipeline(model, [model.n_steps], q_filter), rng, replicas, jobs)
