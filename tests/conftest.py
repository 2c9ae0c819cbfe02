"""Shared independent oracles for the test suite.

These deliberately avoid the library's own quadrature/closed forms wherever
they are used to judge it: entropies and information rates are re-estimated
by plain Monte Carlo against the analytic densities, and the Gaussian
mismatch value comes from a conjugate-prior derivation done here from
scratch.  The discrete engine is judged against a brute-force conditional
mutual information in relative-entropy form.  The Gaussian and Poisson block
estimators are judged against their own stages composed one replica at a
time.  Poisson trajectories are drawn here one Generator at a time with
numpy's own choice and exponential, so the block draw is judged against
them.  count_streams counts the streams a run derives, so tests can show
that a refused input draws none.  The Poisson mismatch and the Poisson
directed information have finite-horizon value oracles that solve their
renewal equations by quadrature, from the pmfs alone, without the package,
and the Poisson channel's peak-limited capacity has Kabanov's closed form.
The Poisson directed-information rate also follows the paper's partition
definition: the exact rate of the output sampled at step dt, which tends to
it as dt shrinks, and on n steps the enumerated joint of the sampled channel
gives the exact engine a directed information that a recursion over the
quiet-step count gives too.  The analytic rate's second oracle is its
entropy form, (h(Y) - h(Y|X)) / E[1/X]: two terms of size ln(max x / min x)
that cancel, integrated on the rate's own normalized panels.  It checks the
relative-entropy integrand, and the entropy's own tests check the panels.
"""

import math

import numpy as np

from ctdi.core import FinitePmf, RngSpec
from ctdi.gaussian import (
    causal_mmse_integral,
    exact_filter_constant_signal,
    replay_filter,
    simulate_awgn,
)
from ctdi.partition_di import JointSequencePmf
from ctdi import core, poisson
from ctdi.poisson import interarrival_density, mean_inverse_intensity
from ctdi.quadrature import gauss_legendre, integrate_panels


def plugin_rate_oracle(pmf, n_samples, seed):
    """I(X;Y)/E[1/X] by sampling one event: I = E[ln f(Y|X) - ln f(Y)]."""
    gen = np.random.default_rng(seed)
    x = core._inverse_cdf(pmf, gen.random(n_samples))
    y = gen.exponential(1.0 / x)
    ll = np.log(x) - x * y - np.log(interarrival_density(pmf, y))
    return float(ll.mean()) / mean_inverse_intensity(pmf)


def interarrival_entropy(pmf):
    """h(Y) = -int f ln f in nats, on the support divided by its smallest level lam.

    Dividing the wait by lam adds ln lam to the entropy, so the normalized
    integral is shifted by -ln lam.
    """
    x, p, lam, edges = poisson._normalized(pmf)
    norm = FinitePmf(x, p)

    def neg_f_log_f(y, _):
        f = interarrival_density(norm, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(f > 0, -f * np.log(f), 0.0)

    h = integrate_panels(neg_f_log_f, [edges], tol=0.9 * poisson._QUAD_TOL)[0]
    return h - math.log(lam)


def entropy_form_rate(pmf):
    """I(X; Y) / E[1/X] with I = h(Y) - h(Y | X) and h(Y | X) = 1 - E[ln X].

    Evaluated on the support normalized by its smallest positive-mass level,
    where I is the same, and clamped at 0.
    """
    pmf = pmf.trimmed()
    if len(pmf) == 1:
        return 0.0
    norm = FinitePmf(pmf.support / pmf.support.min(), pmf.probs)
    per_event = interarrival_entropy(norm) - 1.0 + float(np.dot(norm.probs, np.log(norm.support)))
    return max(per_event, 0.0) / mean_inverse_intensity(pmf)


def mc_entropy_oracle(pmf, n_samples, seed):
    """h(Y) as -mean ln f(Y) over exact draws from the interarrival law."""
    gen = np.random.default_rng(seed)
    x = gen.choice(pmf.support, p=pmf.probs, size=n_samples)
    y = gen.exponential(1.0 / x)
    vals = -np.log(interarrival_density(pmf, y))
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))


def quantized_normal_prior(n_atoms=101, span=5.0):
    """Standard normal discretized to a uniform atom grid on [-span, span]."""
    atoms = np.linspace(-span, span, n_atoms)
    w = np.exp(-0.5 * atoms * atoms)
    return FinitePmf(atoms, w / w.sum())


def gaussian_mismatch_closed_form(horizon, q_var):
    """Relative entropy between output laws for constant-signal priors.

    True prior N(0,1), mismatched prior N(0, q_var).  The output law given
    the prior variance v has log-density (vs the noise-only law) equal to
    -ln(1+vT)/2 + v Y_T^2 / (2(1+vT)), and E[Y_T^2] = T + T^2 under the
    true prior; taking the expectation of the log-ratio gives the value.
    """
    t = float(horizon)
    return (
        -0.5 * np.log1p(t)
        + 0.5 * t
        + 0.5 * np.log1p(q_var * t)
        - q_var * t * (1 + t) / (2 * (1 + q_var * t))
    )


def random_positive_pmf(gen, max_atoms=3, lo=0.5, hi=3.0):
    """Random finite intensity law with distinct positive support."""
    k = int(gen.integers(2, max_atoms + 1))
    while True:
        support = np.round(gen.uniform(lo, hi, size=k), 6)
        if np.unique(support).size == k:
            break
    probs = gen.dirichlet(np.ones(k))
    return FinitePmf(support, probs)


def per_replica_gaussian_values(model, seed, replicas, q_filter=None):
    """Each replica's Gaussian estimate value and its two controls, run alone as a one-row block.

    Replica r draws from RngSpec(seed).stream(r) through simulate_awgn, the
    model's exact filter and causal_mmse_integral over the whole horizon;
    with a q_filter the value is the mismatched integral minus the exact
    one.  The block estimators must reproduce these values bit for bit.  The
    martingale control is sum_k (x_k - est_k)(inc_k - x_k dt) of the exact
    filter.  The second-moment control is u^2 - E[u^2], with u the first
    draw of a fresh RngSpec(seed).stream(r), drawn here with numpy's own
    standard_normal or choice, and E[u^2] 1 for the standard normal and
    sum_a p(a) a^2 for a finite prior.  Returns (values, martingales,
    second moments), three lists.
    """
    n = model.n_steps
    if model.latent is None:
        moment = 1.0
    else:
        moment = sum(p * a * a for a, p in zip(model.latent.support, model.latent.probs))
    values, martingales, seconds = [], [], []
    for rep in range(replicas):
        x, inc = simulate_awgn(model, [RngSpec(seed).stream(rep)])
        if model.latent is None:
            est = exact_filter_constant_signal(inc, model.dt)
        else:
            est = replay_filter(model, inc)
        martingales.append(float(np.sum((x - est) * (inc - x * model.dt))))
        value = causal_mmse_integral(x, est, model.dt, [n])[0, 0]
        if q_filter is not None:
            value = causal_mmse_integral(x, q_filter(inc, model.dt), model.dt, [n])[0, 0] - value
        values.append(float(value))
        gen = RngSpec(seed).stream(rep)
        if model.latent is None:
            u = gen.standard_normal()
        else:
            u = gen.choice(model.latent.support, p=model.latent.probs)
        seconds.append(float(u * u - moment))
    return values, martingales, seconds


def controlled_values(values, *controls):
    """Each replica's control-variate value, recomputed from per-replica values and k controls.

    Z + sum_a c_a M_a with c the least-squares fit (np.linalg.lstsq) of the
    centred -Z on the centred controls that vary, or Z itself below the
    estimator's replica threshold or when no control varies.
    """
    z = np.asarray(values, dtype=float)
    ms = [np.asarray(m, dtype=float) for m in controls if np.var(m) > 0]
    if z.size < core._CONTROL_MIN or not ms:
        return z
    centred = np.column_stack([m - m.mean() for m in ms])
    coef = np.linalg.lstsq(centred, z.mean() - z, rcond=None)[0]
    return z + np.column_stack(ms) @ coef


def controlled_mean(values, *controls):
    """The control-variate estimate: the mean of controlled_values."""
    return float(np.mean(controlled_values(values, *controls)))


def peak_limited_capacity(a, b):
    """Capacity of the Poisson channel with intensity in [a, b], feedback or not, nats per second.

    C(a, b) = max_q [q phi(b) + (1 - q) phi(a) - phi(q b + (1 - q) a)] with
    phi(x) = x ln x (Kabanov, Theory Probab. Appl. 23(1), 1978; Davis, IEEE
    Trans. IT 26(6), 1980), at the maximizing mean intensity m = exp((phi(b) -
    phi(a)) / (b - a) - 1); 0 when a = b.
    """
    a, b = sorted((float(a), float(b)))
    if a == b:
        return 0.0

    def phi(x):
        return x * math.log(x) if x > 0 else 0.0

    m = math.exp((phi(b) - phi(a)) / (b - a) - 1.0)
    q = (m - a) / (b - a)
    return q * phi(b) + (1.0 - q) * phi(a) - phi(m)


def cmi_oracle(probs, a_axes, b_axes, c_axes):
    """Brute-force I(A; B | C): move the axes to (A, B, C, rest), view the
    tensor as 4-D, and sum p ln(p p_c / (p_ac p_bc)) over the cells with p > 0."""
    groups = [list(a_axes), list(b_axes), list(c_axes)]
    groups.append([ax for ax in range(probs.ndim) if not any(ax in g for g in groups)])
    order = [ax for g in groups for ax in g]
    shape = [math.prod(probs.shape[ax] for ax in g) for g in groups]
    p = np.transpose(probs, order).reshape(shape).sum(axis=3)
    p_ac = p.sum(axis=1, keepdims=True)
    p_bc = p.sum(axis=0, keepdims=True)
    p_c = p.sum(axis=(0, 1), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p * p_c / (p_ac * p_bc))
    return float(np.sum(terms[p > 0]))


def oracle_quantities(probs, n):
    """(di, reverse di, mi, {grouping ends: grouped di}) from cmi_oracle alone;
    axes 0..n-1 are X_1..X_n and n..2n-1 are Y_1..Y_n."""
    x = list(range(n))
    y = list(range(n, 2 * n))
    di = sum(cmi_oracle(probs, x[:i], [y[i - 1]], y[: i - 1]) for i in range(1, n + 1))
    rdi = sum(cmi_oracle(probs, y[: i - 1], [x[i - 1]], x[: i - 1]) for i in range(2, n + 1))
    mi = cmi_oracle(probs, x, y, [])
    grouped = {}
    for mask in range(2 ** (n - 1)):
        ends = tuple(e for e in range(1, n) if mask >> (e - 1) & 1) + (n,)
        starts = (0,) + ends[:-1]
        grouped[ends] = sum(cmi_oracle(probs, x[:e], y[s:e], y[:s])
                            for s, e in zip(starts, ends))
    return di, rdi, mi, grouped


def reference_trajectory(model, gen):
    """(epochs, intensities) of one trajectory drawn from gen alone.

    Draws come in batches of at most poisson._BLOCK_SEGMENTS events, each
    sized from the time left: gen.choice for the intensities, then
    gen.exponential for the waits, epochs from the running sum of the waits
    and the next batch from the total.  Epochs at or past the horizon are
    dropped, and of epochs not below every later one (waits below the float
    spacing of their epoch) only the last is kept.  The block draw must
    reproduce these arrays bit for bit.
    """
    support, probs = model.pmf.support, model.pmf.probs
    horizon = model.horizon
    mean_wait = mean_inverse_intensity(model.pmf)
    epochs_parts, x_parts = [], []
    t = 0.0
    while t < horizon:
        batch = min(poisson._BLOCK_SEGMENTS, max(16, int(1.3 * (horizon - t) / mean_wait) + 10))
        xs = gen.choice(support, p=probs, size=batch)
        waits = gen.exponential(1.0 / xs)
        starts = t + np.concatenate(([0.0], np.cumsum(waits[:-1])))
        keep = starts < horizon
        epochs_parts.append(starts[keep])
        x_parts.append(xs[keep])
        t += float(waits.sum())
    epochs = np.concatenate(epochs_parts)
    later = np.minimum.accumulate(epochs[::-1])[::-1]
    keep = np.append(epochs[:-1] < later[1:], True)
    return epochs[keep], np.concatenate(x_parts)[keep]


def per_trajectory_poisson_values(model, integrand, t_lo, panel, scale, seed, replicas):
    """Each replica's Poisson estimate value, its trajectory integrated alone.

    Replica r draws from RngSpec(seed).stream(r) through reference_trajectory.
    The kept part of each segment is split at elapsed times panel,
    2 panel, 4 panel, ... (no split for an infinite panel), every piece gets
    16 Gauss-Legendre nodes, and the trajectory's integral is one integrand
    call on all its nodes, each piece's node values times the weights summed
    and times its half width, and one sum of those piece integrals, divided
    by scale.  The block estimators must reproduce these values bit for bit.
    """
    nodes, weights = gauss_legendre(16)
    values = []
    for rep in range(replicas):
        starts, xs = reference_trajectory(model, RngSpec(seed).stream(rep))
        ends = np.append(starts[1:], model.horizon)
        lo = np.maximum(t_lo, starts) - starts
        hi = ends - starts
        keep = hi > lo
        lo, hi, xs = lo[keep], hi[keep], xs[keep]
        if math.isfinite(panel):
            end = float(hi.max())
            doublings = panel * 2.0 ** np.arange(max(0, math.ceil(math.log2(end / panel))))
            cuts = np.concatenate(([0.0], doublings[doublings < end], [end]))
            p_lo = np.clip(cuts[:-1], lo[:, None], hi[:, None])
            p_hi = np.clip(cuts[1:], lo[:, None], hi[:, None])
            keep = p_hi > p_lo
            lo, hi = p_lo[keep], p_hi[keep]
            xs = np.broadcast_to(xs[:, None], keep.shape)[keep]
        half = 0.5 * (hi - lo)
        s = (lo + half)[:, None] + half[:, None] * nodes
        vals = integrand(np.repeat(xs, nodes.size), s.ravel()).reshape(s.shape)
        values.append(float(np.add.reduce((vals * weights).sum(axis=1) * half)) / scale)
    return values


def count_streams(monkeypatch):
    """Count every Generator RngSpec derives from here on; returns the one-element counter.

    Both derivations count: each stream(r) call and each Generator that
    streams(start, stop) yields.
    """
    calls = [0]
    real_stream, real_streams = RngSpec.stream, RngSpec.streams

    def stream(self, replica=0):
        calls[0] += 1
        return real_stream(self, replica)

    def streams(self, start, stop):
        for gen in real_streams(self, start, stop):
            calls[0] += 1
            yield gen

    monkeypatch.setattr(RngSpec, "stream", stream)
    monkeypatch.setattr(RngSpec, "streams", streams)
    return calls


def _renewal_laws(pmf, t):
    """(f, S, g) of pmf's interarrival law at the times t: density, survival function, and
    the posterior mean of the intensity after a quiet spell t, f / S."""
    x, p = np.asarray(pmf.support, dtype=float), np.asarray(pmf.probs, dtype=float)
    w = p * np.exp(-np.multiply.outer(t, x))
    surv = w.sum(axis=-1)
    dens = (w * x).sum(axis=-1)
    return dens, surv, dens / surv


def _cumulative_trapezoid(y, h):
    return np.concatenate(([0.0], np.cumsum(0.5 * h * (y[1:] + y[:-1]))))


def _solve_renewal(a, f, h):
    """V on the grid t_i = i h from V(t) = A(t) + int_0^t f(w) V(t - w) dw by the trapezoid rule.

    A(0) = 0, so V(0) = 0 and the rule's end term f(t_i) V(0) drops out.
    """
    fh = h * f
    v = np.zeros_like(a)
    for i in range(1, a.size):
        v[i] = (a[i] + fh[1:i] @ v[i - 1:0:-1]) / (1.0 - 0.5 * fh[0])
    return v


def mismatch_renewal_values(p_pmf, q_pmf, horizon, h):
    """E_P of the integrated excess loss over [0, horizon), solved twice: (estimation, definition).

    The input redraws at every event, so the output is a renewal process
    and V(T) solves V(T) = A(T) + int_0^T f_P(w) V(T - w) dw (Feller, vol.
    II, ch. XI), with A the expectation over the first segment:
    - estimation side, A(T) = sum_x p(x) int_0^T e^{-xs} [x ln(g_P / g_Q) +
      g_Q - g_P] ds = int_0^T f_P ln(g_P / g_Q) + S_P (g_Q - g_P) ds;
    - definition side, the relative entropy of the first segment's law,
      A(T) = int_0^T f_P ln(f_P / f_Q) dw + S_P(T) ln(S_P(T) / S_Q(T)).
    Their equality at every T is the mismatched-estimation relation of Atar &
    Weissman (IEEE Trans. IT 58(3), 2012).  Each side is solved at steps h
    and h / 2 (horizon a whole number of steps) and combined by one
    Richardson step, (4 V_{h/2} - V_h) / 3.
    """
    def sides(step):
        t = step * np.arange(round(horizon / step) + 1)
        fp, sp, gp = _renewal_laws(p_pmf, t)
        fq, sq, gq = _renewal_laws(q_pmf, t)
        estimation = _cumulative_trapezoid(fp * np.log(gp / gq) + sp * (gq - gp), step)
        definition = _cumulative_trapezoid(fp * np.log(fp / fq), step) + sp * np.log(sp / sq)
        return [float(_solve_renewal(a, fp, step)[-1]) for a in (estimation, definition)]

    return _richardson(sides, h)


def di_renewal_values(pmf, horizon, h):
    """E of the integrated causal-estimation loss over [0, horizon), solved twice: (estimation, definition).

    The same renewal equation as mismatch_renewal_values, with f the
    interarrival density of pmf and S its survival function:
    - estimation side, A(T) = sum_x p(x) int_0^T e^{-xs} l(x, g(s)) ds, with
      the Poisson loss l(x, g) = x ln(x / g) - x + g;
    - definition side, the mutual information between the input and the
      first segment's law, A(T) = int_0^T sum_x p(x) x e^{-xw} ln(x e^{-xw}
      / f(w)) dw + sum_x p(x) e^{-xT} ln(e^{-xT} / S(T)).
    V(T) is then the directed information over [0, T], and the equality of
    the sides at every T is the paper's causal-estimation identity for the
    Poisson channel.  Solved at h and h / 2 with one Richardson step, as there.
    """
    x, p = np.asarray(pmf.support, dtype=float), np.asarray(pmf.probs, dtype=float)

    def sides(step):
        t = step * np.arange(round(horizon / step) + 1)
        f, surv, g = _renewal_laws(pmf, t)
        xt = np.multiply.outer(t, x)
        w = p * np.exp(-xt)  # p(x) e^{-xt}
        loss = x * np.log(x / g[:, None]) - x + g[:, None]
        log_ratio = np.log(x) - xt - np.log(f)[:, None]  # ln(x e^{-xw} / f(w))
        estimation = _cumulative_trapezoid((w * loss).sum(axis=1), step)
        definition = (_cumulative_trapezoid((w * x * log_ratio).sum(axis=1), step)
                      + (w * (-xt - np.log(surv)[:, None])).sum(axis=1))
        return [float(_solve_renewal(a, f, step)[-1]) for a in (estimation, definition)]

    return _richardson(sides, h)


def _binary_entropy(u):
    """h(u) = -u ln u - (1 - u) ln(1 - u) in nats, for u in (0, 1)."""
    return -u * np.log(u) - (1.0 - u) * np.log1p(-u)


def sampled_poisson_di_rate(pmf, dt):
    """Directed-information rate of the output sampled at step dt, by the paper's partition definition.

    On a grid of step dt the output is one event indicator per step, 1 with
    probability q(x) = 1 - e^{-x dt}, and X is redrawn after every event.
    Given the output past, the next indicator depends only on the count e of
    quiet steps since the last event, and in the stationary regime (x, e)
    has the law pi(x, e) proportional to p(x) (1 - q(x))^e, whose total is
    sum p / q.  With h the binary entropy in nats and g(e) = sum_x pi(x, e)
    q(x) / pi(e), the directed information per step is sum_e pi(e) h(g(e)) -
    sum pi(x, e) h(q(x)); divided by dt it is the rate.  The summand at e
    is a Jensen gap that shrinks like p(x) e^{-x dt e} for the second
    smallest level x, once the posterior settles on the smallest, so the
    sum stops where that is below e^{-60} of the smallest level's mass.
    """
    x, p = np.asarray(pmf.support, dtype=float), np.asarray(pmf.probs, dtype=float)
    q = -np.expm1(-x * dt)
    second = np.sort(x)[1]
    e = np.arange(math.ceil((60.0 - math.log(p[x.argmin()])) / (second * dt)))
    pi = p * np.exp(-np.multiply.outer(e, x) * dt) / (p / q).sum()
    pi_e = pi.sum(axis=1)
    return float((pi_e * _binary_entropy(pi @ q / pi_e) - pi @ _binary_entropy(q)).sum()) / dt


def sampled_poisson_joint(pmf, dt, n):
    """JointSequencePmf of (X^n, Y^n) for the output sampled at step dt, by enumeration.

    X_1 ~ pmf, Y_k = 1 with probability q(X_k) = 1 - e^{-X_k dt}, and X_{k+1}
    is X_k after Y_k = 0 and a fresh draw from pmf after Y_k = 1.  The law is
    built on the axes (x_1, y_1, ..., x_n, y_n), one emission and one
    transition factor per step, and then reordered to (x^n, y^n).
    """
    x, p = np.asarray(pmf.support, dtype=float), np.asarray(pmf.probs, dtype=float)
    q = -np.expm1(-x * dt)
    emit = np.column_stack([1.0 - q, q])  # [x, y]
    move = np.empty((x.size, 2, x.size))  # [x, y, next x]
    move[:, 0] = np.eye(x.size)
    move[:, 1] = p
    law = p
    for k in range(n):
        law = law[..., None] * emit
        if k < n - 1:
            law = law[..., None] * move
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return JointSequencePmf((x.size,) * n, (2,) * n, np.transpose(law, order))


def sampled_poisson_di(pmf, dt, n):
    """The n per-step terms I(X^k; Y_k | Y^{k-1}) of the output sampled at step dt, by recursion.

    w[e, x] = P(e quiet steps since the last event or the start, X_k = x)
    starts at w[0] = pmf.  Y^{k-1} fixes e, so with h the binary entropy
    and g(e) = sum_x w[e, x] q(x) / P(e), the k-th term is sum_e P(e) h(g(e))
    - sum w h(q).  Then w'[e + 1] = w[e] (1 - q) and w'[0] = (sum w q) pmf.
    """
    x, p = np.asarray(pmf.support, dtype=float), np.asarray(pmf.probs, dtype=float)
    q = -np.expm1(-x * dt)
    w = p[None, :]
    terms = np.empty(n)
    for k in range(n):
        mass = w.sum(axis=1)
        terms[k] = (mass * _binary_entropy(w @ q / mass)).sum() - (w @ _binary_entropy(q)).sum()
        w = np.vstack([(w @ q).sum() * p, w * (1.0 - q)])
    return terms


def _richardson(sides, h):
    """(4 V_{h/2} - V_h) / 3 for each value sides(step) returns."""
    return tuple((4.0 * b - a) / 3.0 for a, b in zip(sides(h), sides(0.5 * h)))
