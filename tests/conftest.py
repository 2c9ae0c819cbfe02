"""Shared independent oracles for the test suite.

These deliberately avoid the library's own quadrature/closed forms wherever
they are used to judge it: entropies and information rates are re-estimated
by plain Monte Carlo against the analytic densities, and the Gaussian
mismatch value comes from a conjugate-prior derivation done here from
scratch.  The discrete engine is judged against a brute-force conditional
mutual information in relative-entropy form.  The Gaussian and Poisson block
estimators are judged against their own stages composed one replica at a
time.
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
from ctdi.poisson import interarrival_density, mean_inverse_intensity, simulate_channel
from ctdi.quadrature import gauss_legendre


def plugin_rate_oracle(pmf, n_samples, seed):
    """I(X;Y)/E[1/X] by sampling one event: I = E[ln f(Y|X) - ln f(Y)]."""
    gen = np.random.default_rng(seed)
    x = gen.choice(pmf.support, p=pmf.probs, size=n_samples)
    y = gen.exponential(1.0 / x)
    ll = np.log(x) - x * y - np.log(interarrival_density(pmf, y))
    return float(ll.mean()) / mean_inverse_intensity(pmf)


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
    """Each replica's Gaussian estimate value, run alone as a one-row block.

    Replica r draws from RngSpec(seed).stream(r) through simulate_awgn, the
    model's exact filter and causal_mmse_integral over the whole horizon;
    with a q_filter the value is the mismatched integral minus the exact
    one.  The block estimators must reproduce these values bit for bit.
    """
    n = model.n_steps
    values = []
    for rep in range(replicas):
        x, inc = simulate_awgn(model, [RngSpec(seed).stream(rep)])
        if model.latent is None:
            est = exact_filter_constant_signal(inc, model.dt)
        else:
            est = replay_filter(model, inc)
        value = causal_mmse_integral(x, est, model.dt, [n])[0, 0]
        if q_filter is not None:
            value = causal_mmse_integral(x, q_filter(inc, model.dt), model.dt, [n])[0, 0] - value
        values.append(float(value))
    return values


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


def per_trajectory_poisson_values(model, integrand, t_lo, panel, scale, seed, replicas):
    """Each replica's Poisson estimate value, its trajectory integrated alone.

    Replica r draws from RngSpec(seed).stream(r) through simulate_channel.
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
        starts, ends, xs = simulate_channel(model, RngSpec(seed).stream(rep)).segments()
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
