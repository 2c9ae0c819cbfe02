"""Additive white-Gaussian-noise channel with feedback, on blocks of replicas.

A block is a (C, n) array: C replicas on a grid of n steps, time along the
last axis.  Simulation uses per-step observation increments inc_k = X_k dt +
sqrt(dt) z_k, which keeps likelihood updates well conditioned.  By Duncan's
relation with feedback the directed information between the input and
output paths is half the integrated causal mean-square error of the optimal
filter, so every estimator runs one pipeline on each block: draw it with
simulate_awgn, filter it exactly, integrate the error (as
causal_mmse_integral does).  Filters estimate X at time t from increments
strictly before t, and each row's values depend on its own stream alone.
A zero horizon is the empty block, (C, 0): the same pipeline draws only
the latents, every filter returns (C, 0) and every integral reads 0.

The directed-information estimate is the mean of Z + c1 M + c2 H over
replicas, Z = 0.5 sum_k (X_k - Xhat_k)^2 dt the Duncan integral and M =
sum_k (X_k - Xhat_k)(inc_k - X_k dt) the filtering error integrated against
the channel's own noise.  Xhat_k reads only the increments before step k,
so M has mean exactly 0, and Z + M is the pathwise log-likelihood ratio
(Kadota, Zakai & Ziv 1971).  H = u^2 - E[u^2] is the latent's squared draw
less its second moment, 1 for the standard normal and sum_a p(a) a^2 for a
finite prior, so it has mean exactly 0 too; it adds nothing where u^2 is
constant (the +-1 prior, the delayed echo's point mass), and the fit then
drops it.  core.replicated_estimates fits (c1, c2) on the same replicas
(a multiple regression control variate), or keeps the plain mean of Z
below 32 replicas.  The mismatched relative entropy keeps the plain mean.
One estimate call's exact pipeline reuses one block's increment buffer,
each worker process its own, and never hands it to caller code.

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

from .core import DiEstimate, FinitePmf, replicated_estimates

DEFAULT_POWER_BOUND = 1e3
_STEP_CAP = 1_000_000
_REPLAY_CELLS = 2**20  # (row, step, atom) cells per replay group: bounds its temporaries

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
    buffer grows past a few hundred megabytes.  A delay is inf or at least
    one grid step, and a power bound is nonnegative (NaN is neither).
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
        if not self.delay >= self.dt * (1 - 1e-9):  # NaN and -inf too
            raise ValueError(f"feedback delay must be at least one grid step, or inf, "
                             f"got {self.delay}")
        if not self.power_bound >= 0:
            raise ValueError(f"power bound must be nonnegative, got {self.power_bound}")
        if math.isfinite(self.delay):
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


def simulate_awgn(model: GaussianFeedbackModel, gens, inc: np.ndarray | None = None, *,
                  latents: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw a block: (signal, observation increments), (C, n) arrays, row i from gens[i].

    The increments are drawn into inc, a (len(gens), n) buffer, or into a
    fresh one when inc is None, and the latents into latents, a (len(gens),)
    buffer, when it is given.  Each stream draws its latent and then its
    step noises, so a replay from the same stream is bit-identical, and a
    shorter horizon draws a prefix of the same row; a zero horizon draws
    only the latents and returns (C, 0) arrays.  Without a policy the
    signal is a read-only broadcast of the latents.
    """
    if inc is None:
        inc = np.empty((len(gens), model.n_steps))
    u = np.empty(len(gens)) if latents is None else latents
    for i, gen in enumerate(gens):
        if model.latent is None:
            u[i] = gen.standard_normal()
        else:
            u[i] = gen.choice(model.latent.support, p=model.latent.probs)
        gen.standard_normal(out=inc[i])
    return _drive(model, u, inc, simulate=True), inc


class _Workspace:
    """One block's increment buffer, reused by every block of one estimate call.

    It pickles empty, so each worker process allocates its own, and a block
    shorter than the first gets a row-prefix view.  Reusing it spares the
    allocator from handing a fresh buffer back to the OS after every block.
    """

    _inc = None

    def __reduce__(self):
        return _Workspace, ()

    def rows(self, count: int, n: int) -> np.ndarray:
        if self._inc is None or len(self._inc) < count:
            self._inc = np.empty((count, n))
        return self._inc[:count]


def exact_filter_constant_signal(inc: np.ndarray, dt: float, prior_var: float = 1.0) -> np.ndarray:
    """Posterior means of a constant signal under a centered Gaussian prior, along the last axis.

    With prior variance v the posterior at time t is Gaussian with mean
    v Y_t / (1 + v t) and variance v / (1 + v t).
    """
    if not prior_var > 0:
        raise ValueError("prior variance must be positive")
    est = np.empty_like(inc)  # Y at each step: the sum of the increments before it
    est[..., :1] = 0.0
    np.cumsum(inc[..., :-1], axis=-1, out=est[..., 1:])
    est *= prior_var / (1.0 + prior_var * (dt * np.arange(inc.shape[-1])))
    return est


def discrete_prior_filter(prior: FinitePmf, inc: np.ndarray, dt: float) -> np.ndarray:
    """Posterior means of a constant signal drawn from a finite prior, along the last axis.

    Posterior weights at time t are proportional to p(a) exp(a Y_t - a^2 t/2):
    the replay filter of the no-policy model on inc's grid, with no power bound.
    """
    model = GaussianFeedbackModel(inc.shape[-1] * dt, dt, None, latent=prior, power_bound=math.inf)
    return replay_filter(model, inc)


def replay_filter(model: GaussianFeedbackModel, inc: np.ndarray) -> np.ndarray:
    """Exact posterior means along the last axis for a finite prior, with or without feedback.

    Each atom's signal is a known function of the observed past, so the
    posterior weight of atom a at step k is proportional to
    p(a) exp(sum_{j<k} x_a,j inc_j - x_a,j^2 dt / 2).  Every positive-mass
    atom is replayed once per row, in one signal-loop pass per group of rows
    of up to _REPLAY_CELLS cells; a row's values do not depend on its group,
    and with a point-mass latent they are the replayed signal bit for bit.
    """
    if model.latent is None:
        raise ValueError("replay filtering needs a finite-support latent prior")
    prior = model.latent.trimmed()
    n = inc.shape[-1]
    rows = inc.reshape(math.prod(inc.shape[:-1]), n)
    est = np.empty_like(rows)
    group = max(1, _REPLAY_CELLS // max(1, n * len(prior)))
    for a in range(0, len(rows), group):
        est[a:a + group] = _replay_rows(model, prior, rows[a:a + group])
    return est.reshape(inc.shape)


def _replay_rows(model: GaussianFeedbackModel, prior: FinitePmf, rows: np.ndarray) -> np.ndarray:
    """Posterior means of one group of (r, n) rows, over the atoms of a trimmed prior.

    Each atom's signal is replayed on the row and its log weight summed
    over the steps before; the weights are normalized in place after their
    maximum is subtracted, so a single atom gets weight 1 exactly.
    """
    (r, n), k = rows.shape, len(prior)
    # row i * k + j replays atom j on row i, so each row's signals are laid
    # out as those of one row alone, which fixes the order of the sums over atoms
    x = _drive(model, np.tile(prior.support, r), np.repeat(rows, k, axis=0))
    signals = x.reshape(r, k, n).transpose(0, 2, 1)
    steps = signals * rows[:, :, None]
    steps -= 0.5 * model.dt * signals * signals
    loglik = np.empty_like(steps)
    loglik[:, :1] = 0.0
    np.cumsum(steps[:, :-1], axis=1, out=loglik[:, 1:])
    del steps  # one (r, n, k) array fewer alive in the mixture below
    loglik += np.log(prior.probs)
    loglik -= loglik.max(axis=-1, keepdims=True)
    w = np.exp(loglik, out=loglik)
    w /= w.sum(axis=-1, keepdims=True)
    return np.sum(w * signals, axis=-1)


def causal_mmse_integral(x: np.ndarray, est: np.ndarray, dt: float, steps) -> np.ndarray:
    """Half the integrated squared filtering error of each row over its first k steps, k in steps.

    x and est are (..., n) arrays on one grid of step dt; est, a filter's
    posterior means, is overwritten with the squared error.  Returns an
    (..., len(steps)) array of 0.5 * sum_{j<k} (x_j - est_j)^2 dt, each sum
    along its own row alone, so a row's values do not depend on its neighbours.
    A k that is not an integer in [0, n] raises ValueError.
    """
    if np.shape(x) != est.shape:
        raise ValueError(f"signal {np.shape(x)} and filter {est.shape} blocks differ in shape")
    if not all(isinstance(k, (int, np.integer)) and 0 <= k <= est.shape[-1] for k in steps):
        raise ValueError(f"steps {list(steps)} must be integers in [0, {est.shape[-1]}]")
    err = np.subtract(x, est, out=est)
    err *= err
    return 0.5 * _prefix_sums(err, steps) * dt


def _prefix_sums(terms: np.ndarray, steps) -> np.ndarray:
    """sum_{j<k} terms_j along the last axis for each k in steps, each row reduced alone."""
    out = np.empty(terms.shape[:-1] + (len(steps),))
    for i, k in enumerate(steps):
        out[..., i] = np.add.reduce(terms[..., :k], axis=-1)
    return out


def closed_form_di_constant_signal(horizon: float) -> float:
    """Directed information 0.5 * ln(1 + T) for a unit-Gaussian constant signal."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    return 0.5 * math.log1p(horizon)


def _exact_filter(model, inc: np.ndarray) -> np.ndarray:
    """The exact posterior means of model on inc, a fresh array: conjugate or likelihood mixture."""
    if model.latent is None:
        return exact_filter_constant_signal(inc, model.dt)
    return replay_filter(model, inc)


def _second_moment(model) -> float:
    """E[u^2] of model's latent: 1 for the standard normal, sum_a p(a) a^2 for a finite prior."""
    if model.latent is None:
        return 1.0
    return float(np.sum(model.latent.probs * model.latent.support ** 2))


def _block(model, steps, ws, gens) -> np.ndarray:
    """Duncan integrals and their two controls over the first k steps, each k in steps.

    Draws a block of replicas at model's horizon, the longest of steps, into
    the workspace ws, filters it exactly and returns a (C, 3 len(steps))
    array: the causal-MMSE integrals Z, then the prefixes of
    M = sum_j (x_j - est_j)(inc_j - x_j dt), the integral of the filtering
    error against the channel's own noise, then H = u^2 - E[u^2] of each
    row's latent u, the same for every k.  A filter at step j reads only
    the steps before it, so a row's prefix is the row a shorter horizon
    draws.  A non-finite value raises RuntimeError.
    """
    u = np.empty(len(gens))
    x, inc = simulate_awgn(model, gens, ws.rows(len(gens), model.n_steps), latents=u)
    est = _exact_filter(model, inc)
    err = np.subtract(x, est, out=est)
    # M = sum_j err_j (inc_j - x_j dt), summed over (inc_j / dt - x_j) err_j in place
    inc *= 1.0 / model.dt
    inc -= x
    mart = _prefix_sums(np.multiply(inc, err, out=inc), steps) * model.dt
    err *= err
    second = np.broadcast_to((u * u - _second_moment(model))[:, None], mart.shape)
    vals = np.concatenate((0.5 * _prefix_sums(err, steps) * model.dt, mart, second), axis=1)
    if not np.isfinite(vals).all():
        duncan_finite = np.isfinite(vals[:, :len(steps)]).all()
        what = "a martingale control" if duncan_finite else "a causal-MMSE integral"
        raise RuntimeError(f"{what} is not finite")
    return vals


def _mismatch_block(model, steps, q_filter, gens) -> np.ndarray:
    """Mismatched minus exact causal-MMSE integrals of a block, a (C, len(steps)) array.

    q_filter is the caller's code, so it gets fresh arrays, never a reused
    buffer.  A non-finite q_filter value raises ValueError, any other
    non-finite integral RuntimeError.
    """
    x, inc = simulate_awgn(model, gens)
    vals = causal_mmse_integral(x, _exact_filter(model, inc), model.dt, steps)
    q = np.array(q_filter(inc, model.dt), dtype=float)  # a copy: the integral overwrites it
    if q.shape != inc.shape or not np.isfinite(q).all():
        raise ValueError(f"q_filter must return finite values of the increments' shape "
                         f"{inc.shape}, got shape {q.shape}")
    with np.errstate(over="ignore"):  # a huge finite q squares to inf, refused below
        vals = causal_mmse_integral(x, q, model.dt, steps) - vals
    if not np.isfinite(vals).all():
        raise RuntimeError("a causal-MMSE integral is not finite")
    return vals


def _pipeline(model, steps, q_filter=None):
    """The block function of model's estimates, checked before any stream is drawn.

    The exact pipeline binds a fresh workspace, so one estimate call reuses
    one block's buffer.
    """
    if model.policy is not None and model.latent is None:
        raise ValueError("a standard-normal latent has an exact filter only with policy=None")
    if q_filter is None:
        return functools.partial(_block, model, steps, _Workspace())
    return functools.partial(_mismatch_block, model, steps, q_filter)


def _shared(m: GaussianFeedbackModel) -> tuple:
    """Everything of a model but its horizon."""
    latent = None if m.latent is None else (tuple(m.latent.support), tuple(m.latent.probs))
    return m.dt, m.policy, m.delay, m.power_bound, latent


def directed_info_gaussian_sweep(models, rng, replicas: int, jobs: int = 1) -> list[DiEstimate]:
    """directed_info_gaussian_mc of each model, in one pass over the replicas.

    The models may differ only in their horizons, which may come in any
    order and repeat: they share dt, policy, delay, latent and power bound.
    Replica r draws its stream once, at the longest horizon, and each
    model's values are the causal-MMSE integral and its martingale control
    over its own prefix of that path, which is what the model alone draws
    from replica r's stream, and the replica's second-moment control.
    Estimates come in the order of models.
    """
    models = list(models)
    if not models:
        raise ValueError("a sweep needs at least one model")
    longest = max(models, key=lambda m: m.n_steps)
    if any(_shared(m) != _shared(longest) for m in models):
        raise ValueError("swept models must share dt, policy, delay, latent and power bound")
    block = _pipeline(longest, [m.n_steps for m in models])
    return replicated_estimates(block, rng, replicas, jobs, controls=2)


def directed_info_gaussian_mc(model: GaussianFeedbackModel, rng, replicas: int,
                              jobs: int = 1) -> DiEstimate:
    """Directed information estimated as the mean causal-MMSE integral over replicas.

    Its martingale and second-moment control variates take out most of the
    noise (see the module docstring).  The one-model case of
    directed_info_gaussian_sweep.  Every replica is filtered exactly: by the
    conjugate filter for a Gaussian latent without a policy, by the
    finite-prior likelihood mixture otherwise.  A Gaussian latent under a
    policy has no exact filter and raises ValueError before any stream is
    drawn.
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
    (est,) = replicated_estimates(_pipeline(model, [model.n_steps], q_filter), rng, replicas, jobs)
    return est
