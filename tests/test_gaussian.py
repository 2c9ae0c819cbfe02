import ast
import functools
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    controlled_mean,
    controlled_values,
    count_streams,
    gaussian_mismatch_closed_form,
    per_replica_gaussian_values,
    quantized_normal_prior,
)
from ctdi import core, gaussian
from ctdi.core import FinitePmf, RngSpec
from ctdi.gaussian import (
    GaussianFeedbackModel,
    causal_mmse_integral,
    closed_form_di_constant_signal,
    constant_signal_model,
    delayed_echo_model,
    directed_info_gaussian_mc,
    directed_info_gaussian_sweep,
    discrete_prior_filter,
    exact_filter_constant_signal,
    mismatched_relent_gaussian,
    replay_filter,
    simulate_awgn,
)

TWO_POINT = FinitePmf([-1.0, 1.0], [0.5, 0.5])
THREE_POINT = FinitePmf([-1.0, 0.5, 2.0], [0.2, 0.5, 0.3])


def _gate(u, y):
    # amplifies u while the delayed output agrees with it; module level, so
    # a model using it pickles for jobs > 1
    return u * np.where(u * y > 0, 2.0, 0.5)


def _streams(seed, replicas):
    return [RngSpec(seed).stream(rep) for rep in range(replicas)]


def test_model_validation():
    with pytest.raises(ValueError):
        GaussianFeedbackModel(1.0, -0.1, lambda u, y: 0.0)
    with pytest.raises(ValueError):
        GaussianFeedbackModel(1.05, 0.1, lambda u, y: 0.0)
    with pytest.raises(ValueError):
        delayed_echo_model(1.0, 0.1, 0.05)
    with pytest.raises(ValueError):
        delayed_echo_model(1.0, 0.1, 0.25)
    assert delayed_echo_model(1.0, 0.1, 0.3).delay_steps == 3
    assert constant_signal_model(1.0, 0.1).delay_steps is None
    # a non-finite grid would overflow the step count or leave no steps
    for horizon, dt in ((math.inf, 0.1), (math.nan, 0.1), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            constant_signal_model(horizon, dt)
    # a subnormal step overflows the martingale control; the smallest normal one does not
    for dt in (5e-324, 1e-310):
        with pytest.raises(ValueError, match="dt must be finite and at least"):
            constant_signal_model(dt, dt)
    tiny = float(np.finfo(float).tiny)
    assert constant_signal_model(tiny, tiny).n_steps == 1
    # grids are capped at 1e6 steps; the cap itself is allowed
    assert constant_signal_model(1.0, 1e-6).n_steps == 1_000_000
    for horizon, dt in ((1.0, 1e-7), (2.0, 1e-6), (1e300, 1e-300)):
        with pytest.raises(ValueError, match="step cap"):
            constant_signal_model(horizon, dt)
    # a NaN delay would fail only at the first draw, and -inf would run as
    # no feedback at all; both are refused when the model is built
    for delay in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="feedback delay"):
            GaussianFeedbackModel(1.0, 0.1, _gate, delay=delay, latent=TWO_POINT)
    for bound in (math.nan, -1.0):
        with pytest.raises(ValueError, match="power bound"):
            GaussianFeedbackModel(1.0, 0.1, None, latent=TWO_POINT, power_bound=bound)
    assert GaussianFeedbackModel(1.0, 0.1, None, latent=TWO_POINT, power_bound=math.inf)


def test_zero_signal_increments_are_pure_noise():
    prior = FinitePmf([0.0], [1.0])
    model = constant_signal_model(1.0, 0.01, prior=prior)
    x, incs = simulate_awgn(model, _streams(61, 400))
    assert np.all(x == 0.0)
    assert abs(incs.mean()) < 4.0 * math.sqrt(0.01 / incs.size)
    assert abs(incs.var() - 0.01) < 4.0 * 0.01 * math.sqrt(2.0 / incs.size)


def test_constant_signal_output_variance():
    # Y_T = A T + B_T so Var(Y_T) = T^2 + T
    model = constant_signal_model(1.0, 0.01)
    y_end = simulate_awgn(model, _streams(62, 4000))[1].sum(axis=1)
    target = 2.0
    se = target * math.sqrt(2.0 / (y_end.size - 1))
    assert abs(y_end.var(ddof=1) - target) < 4.0 * se


def test_simulation_reproducible():
    model = delayed_echo_model(2.0, 0.01, 0.1)
    x1, y1 = simulate_awgn(model, [RngSpec(63).stream(7)])
    x2, y2 = simulate_awgn(model, [RngSpec(63).stream(7)])
    assert np.array_equal(x1, x2)
    assert np.array_equal(y1, y2)
    # a zero horizon draws only the latent: the empty prefix of every row
    x, inc = simulate_awgn(constant_signal_model(0.0, 0.01), [RngSpec(63).stream(7)])
    assert x.shape == inc.shape == (1, 0)


def test_finite_prior_latents_are_choice_draws():
    # the block maps its streams' uniforms through the prior's cdf at once:
    # each latent, and the step noises after it, are what its stream draws alone
    model = constant_signal_model(0.2, 0.01, prior=THREE_POINT)
    gens = [RngSpec(71).stream(r) for r in range(200)]
    latents = np.empty(len(gens))
    _, inc = simulate_awgn(model, gens, latents=latents)
    for r, (u, row) in enumerate(zip(latents, inc)):
        alone = RngSpec(71).stream(r)
        assert u == alone.choice(THREE_POINT.support, p=THREE_POINT.probs)
        noise = alone.standard_normal(model.n_steps) * math.sqrt(model.dt)
        assert np.array_equal(row, noise + u * model.dt)
    assert set(latents.tolist()) == set(THREE_POINT.support.tolist())


def test_power_bound_guards_runaway_policies():
    latent = FinitePmf([0.0], [1.0])
    model = GaussianFeedbackModel(1.0, 0.1, lambda u, y: 50.0, delay=0.1,
                                  latent=latent, power_bound=10.0)
    with pytest.raises(ValueError, match="power bound"):
        simulate_awgn(model, [RngSpec(0).stream(0)])
    # the block path of a constant signal checks every latent draw
    held = GaussianFeedbackModel(0.5, 0.01, None, latent=FinitePmf([0.0, 5.0], [0.5, 0.5]),
                                 power_bound=1.0)
    with pytest.raises(ValueError, match="power bound"):
        directed_info_gaussian_mc(held, rng=89, replicas=20)


def test_exact_filter_gain_formula():
    inc = np.array([0.5, -0.2])
    filt = exact_filter_constant_signal(inc, 0.5)
    assert np.allclose(filt, [0.0, 0.5 / 1.5])
    wide = exact_filter_constant_signal(inc, 0.5, prior_var=4.0)
    assert np.allclose(wide, [0.0, 4.0 * 0.5 / 3.0])
    for prior_var in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="prior variance"):
            exact_filter_constant_signal(inc, 0.5, prior_var=prior_var)


def test_exact_filter_posterior_variance_is_achieved():
    # E[(A - Ahat_t)^2] = 1/(1+t); check at t = 1 across replicas
    dt = 0.01
    model = constant_signal_model(1.0 + dt, dt)
    errs = []
    for start in range(0, 30_000, 1000):
        gens = [RngSpec(64).stream(rep) for rep in range(start, start + 1000)]
        x, inc = simulate_awgn(model, gens)
        errs.append(x[:, -1] - exact_filter_constant_signal(inc, dt)[:, -1])
    errs = np.concatenate(errs)
    mse = float((errs**2).mean())
    se = float((errs**2).std(ddof=1) / math.sqrt(errs.size))
    assert abs(mse - 0.5) < max(4.0 * se, 0.01)


def test_two_point_prior_filter_is_tanh():
    gen = np.random.default_rng(65)
    inc = gen.normal(scale=0.1, size=200)
    filt = discrete_prior_filter(TWO_POINT, inc, 0.01)
    y_before = np.concatenate(([0.0], np.cumsum(inc[:-1])))
    assert np.allclose(filt, np.tanh(y_before), atol=1e-12)


def test_filters_do_not_look_ahead():
    gen = np.random.default_rng(66)
    vals = gen.normal(size=50)
    tampered = vals.copy()
    tampered[30:] += 5.0
    for fn in (functools.partial(exact_filter_constant_signal, dt=0.02),
               functools.partial(discrete_prior_filter, TWO_POINT, dt=0.02)):
        ea = fn(vals)
        eb = fn(tampered)
        assert np.array_equal(ea[:31], eb[:31])
        assert not np.array_equal(ea[31:], eb[31:])


def test_replay_filter_reconstructs_echo_signal_exactly():
    model = delayed_echo_model(1.0, 0.001, 0.01)
    x, inc = simulate_awgn(model, [RngSpec(67).stream(0)])
    filt = replay_filter(model, inc)
    assert np.array_equal(filt, x)
    assert causal_mmse_integral(x, filt, model.dt, [model.n_steps])[0, 0] == 0.0
    with pytest.raises(ValueError):
        replay_filter(constant_signal_model(1.0, 0.001), inc)


def _closed_form_mixture(prior, inc, dt):
    # weights p(a) exp(a Y_t - a^2 t / 2), Y_t the sum of the increments before t
    y = np.concatenate((np.zeros((len(inc), 1)), np.cumsum(inc[:, :-1], axis=1)), axis=1)
    t = dt * np.arange(inc.shape[1])
    a = prior.support
    logw = np.log(prior.probs) + y[:, :, None] * a - 0.5 * t[:, None] * a * a
    w = np.exp(logw - logw.max(axis=-1, keepdims=True))
    return (w * a).sum(axis=-1) / w.sum(axis=-1)


def test_replay_filter_tracks_discrete_posterior():
    # without feedback the exact filter is the closed-form likelihood mixture;
    # the +-2e3 prior lies beyond DEFAULT_POWER_BOUND, which
    # discrete_prior_filter does not apply
    wide = FinitePmf([-2e3, 2e3], [0.5, 0.5])
    assert wide.support.max() > gaussian.DEFAULT_POWER_BOUND
    for prior in (quantized_normal_prior(101), wide):
        model = GaussianFeedbackModel(1.0, 0.01, None, latent=prior, power_bound=math.inf)
        _, inc = simulate_awgn(model, _streams(70, 8))
        exact = _closed_form_mixture(prior, inc, model.dt)
        for filt in (replay_filter(model, inc), discrete_prior_filter(prior, inc, model.dt)):
            assert np.max(np.abs(filt - exact)) < 1e-12


def test_replay_filter_two_point_prior_matches_tanh():
    model = constant_signal_model(0.5, 0.01, prior=TWO_POINT)
    _, inc = simulate_awgn(model, [RngSpec(81).stream(0)])
    filt = replay_filter(model, inc[0])
    y_before = np.concatenate(([0.0], np.cumsum(inc[0, :-1])))
    assert np.max(np.abs(filt - np.tanh(y_before))) < 1e-12


def test_replay_filter_tracks_feedback_posterior():
    # X = U + Y_{t-d}/2 with U = +-1: each atom's signal is a known function of
    # the observed past, so the exact posterior weighs two likelihoods
    dt, d = 0.01, 5
    model = GaussianFeedbackModel(0.5, dt, lambda u, y: u + 0.5 * y, delay=d * dt,
                                  latent=TWO_POINT)
    x, inc = simulate_awgn(model, [RngSpec(84).stream(0)])
    x, inc = x[0], inc[0]
    y_seen = np.concatenate((np.zeros(d + 1), np.cumsum(inc)))[: inc.size]
    signals = TWO_POINT.support[:, None] + 0.5 * y_seen
    steps = signals * inc - 0.5 * signals**2 * dt
    loglik = np.concatenate((np.zeros((2, 1)), np.cumsum(steps, axis=1)[:, :-1]), axis=1)
    w = np.exp(loglik - loglik.max(axis=0))
    exact = (w * signals).sum(axis=0) / w.sum(axis=0)
    filt = replay_filter(model, inc)
    assert np.max(np.abs(filt - exact)) < 1e-12
    assert np.max(np.abs(signals[int(x[0] > 0)] - x)) < 1e-12


def test_replay_filter_memory_is_bounded_by_row_groups(monkeypatch):
    # a 101-atom prior on 2000 steps, with a policy and without: replaying a
    # whole 16-row block at once held about seven (16, 2000, 101)
    # temporaries, some 150 MB
    prior = quantized_normal_prior(101)
    for model in (GaussianFeedbackModel(2.0, 1e-3, _gate, delay=1e-3, latent=prior),
                  constant_signal_model(2.0, 1e-3, prior=prior)):
        tracemalloc.start()
        try:
            directed_info_gaussian_mc(model, rng=5, replicas=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 50 * 2**20
    # each row's arithmetic is its own, so any grouping gives the same bits:
    # 16 rows of 200 steps fit one group of the default budget
    short = GaussianFeedbackModel(0.2, 1e-3, _gate, delay=1e-3, latent=quantized_normal_prior(101))
    _, inc = simulate_awgn(short, _streams(5, 16))
    whole = replay_filter(short, inc)
    for cells in (1, 5 * 200 * 101):
        monkeypatch.setattr(gaussian, "_REPLAY_CELLS", cells)
        assert np.array_equal(replay_filter(short, inc), whole)


def test_gaussian_module_makes_no_matrix_product():
    # a row's value must not depend on where the row sits in a BLAS call
    tree = ast.parse(Path(gaussian.__file__).read_text(encoding="utf-8"))
    banned = {"dot", "matmul", "einsum", "inner", "tensordot"}
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in banned]
    assert found == []


def test_duncan_with_feedback_matches_terminal_posterior_information():
    # For a deterministic encoder with feedback the directed information is
    # I(U; Y^T) (Massey 1990) = ln 2 - E[H(U | Y^T)], computed here from the
    # terminal posterior of a separate vectorized copy of the policy.  The
    # gate amplifies u while the delayed output agrees with it, so feedback
    # moves the information away from the no-feedback value for X = U.
    dt, replicas = 2e-3, 2000
    model = GaussianFeedbackModel(1.0, dt, _gate, delay=dt, latent=TWO_POINT)
    est = directed_info_gaussian_mc(model, rng=85, replicas=replicas)
    u = TWO_POINT.support[:, None]
    mmse, controls, info = [], [], []
    for x, inc in zip(*simulate_awgn(model, _streams(85, replicas))):
        y_seen = np.concatenate(([0.0, 0.0], np.cumsum(inc)[:-2]))
        signals = u * np.where(u * y_seen > 0, 2.0, 0.5)
        assert np.max(np.abs(signals[int(x[0] > 0)] - x)) < 1e-12
        loglik = np.cumsum(signals * inc - 0.5 * signals**2 * dt, axis=1)
        before = np.concatenate((np.zeros((2, 1)), loglik[:, :-1]), axis=1)
        w = np.exp(before - before.max(axis=0))
        xhat = (w * signals).sum(axis=0) / w.sum(axis=0)
        mmse.append(0.5 * float(np.sum((x - xhat) ** 2)) * dt)
        controls.append(float(np.sum((x - xhat) * (inc - x * dt))))
        end = loglik[:, -1] - loglik[:, -1].max()
        log_post = end - math.log(np.exp(end).sum())
        info.append(math.log(2.0) + float(np.sum(np.exp(log_post) * log_post)))
    assert est.value == pytest.approx(controlled_mean(mmse, controls), rel=1e-12)
    diff = np.asarray(mmse) - np.asarray(info)
    assert abs(diff.mean()) < 4.0 * diff.std(ddof=1) / math.sqrt(replicas)
    # no feedback, X = U = +-1: I = T - E[ln cosh(T + sqrt(T) Z)] at T = 1
    z, wz = np.polynomial.hermite_e.hermegauss(80)
    no_feedback = 1.0 - float(np.dot(wz, np.log(np.cosh(1.0 + z)))) / math.sqrt(2.0 * math.pi)
    assert abs(est.value - no_feedback) > 4.0 * est.stderr


def test_causal_integral_trivial_values():
    x = np.ones(4)
    assert causal_mmse_integral(x, np.zeros(4), 0.5, [4])[0] == pytest.approx(1.0, abs=1e-14)
    assert causal_mmse_integral(x, np.ones(4), 0.5, [4])[0] == 0.0


def test_causal_mmse_integral_requires_matching_grids():
    x = np.array([1.0, 1.0])
    short = np.array([0.0])
    with pytest.raises(ValueError):
        causal_mmse_integral(x, short, 0.1, [1])


def test_causal_mmse_integral_refuses_steps_off_its_grid():
    x = np.ones(4)
    # a unit error at dt 0.5: each step adds 0.25
    values = causal_mmse_integral(x, np.zeros(4), 0.5, [0, np.int64(2), 4])
    assert values.tolist() == [0.0, 0.5, 1.0]
    # past the end once read as the whole path, and -1 as all but the last step
    for steps in ([9], [-1], [5], [0, 4, 5], [2.0], [np.float64(2.0)]):
        with pytest.raises(ValueError, match="must be integers in \\[0, 4\\]"):
            causal_mmse_integral(x, np.zeros(4), 0.5, steps)


def test_closed_form_reference_values():
    assert closed_form_di_constant_signal(0.0) == 0.0
    assert closed_form_di_constant_signal(0.5) == pytest.approx(
        0.2027325540540822, abs=1e-12)
    assert closed_form_di_constant_signal(1.0) == pytest.approx(
        0.3465735902799726, abs=1e-12)
    assert closed_form_di_constant_signal(2.0) == pytest.approx(
        0.5493061443340549, abs=1e-12)
    assert closed_form_di_constant_signal(math.e - 1.0) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        closed_form_di_constant_signal(-1.0)


def test_mc_di_matches_closed_form_quick():
    model = constant_signal_model(0.5, 0.005)
    est = directed_info_gaussian_mc(model, rng=72, replicas=3000)
    target = closed_form_di_constant_signal(0.5)
    assert abs(est.value - target) < max(0.02 * target, 4.0 * est.stderr)


def test_mc_di_zero_signal_is_exactly_zero():
    model = constant_signal_model(0.5, 0.01, prior=FinitePmf([0.0], [1.0]))
    est = directed_info_gaussian_mc(model, rng=83, replicas=50)
    assert est.value == 0.0 and est.stderr == 0.0


def test_mc_di_insensitive_to_dt_below_threshold():
    a = directed_info_gaussian_mc(constant_signal_model(1.0, 1e-3), rng=82,
                                  replicas=1500)
    b = directed_info_gaussian_mc(constant_signal_model(1.0, 5e-4), rng=82,
                                  replicas=1500)
    assert abs(a.value - b.value) < 3.0 * math.hypot(a.stderr, b.stderr)


def test_mc_di_zero_horizon():
    model = constant_signal_model(0.0, 0.01)
    est = directed_info_gaussian_mc(model, rng=73, replicas=10)
    assert est.value == 0.0 and est.stderr == 0.0


def test_mc_di_parallel_matches_serial():
    model = constant_signal_model(0.2, 0.01)
    q_filter = functools.partial(exact_filter_constant_signal, prior_var=4.0)
    finite = constant_signal_model(0.2, 0.01, prior=THREE_POINT)
    gate = GaussianFeedbackModel(0.2, 0.01, _gate, delay=0.01, latent=TWO_POINT)
    for estimate in (functools.partial(directed_info_gaussian_mc, model),
                     functools.partial(mismatched_relent_gaussian, model, q_filter),
                     functools.partial(directed_info_gaussian_mc, delayed_echo_model(0.2, 0.01, 0.03)),
                     functools.partial(directed_info_gaussian_mc, gate),
                     functools.partial(mismatched_relent_gaussian, finite,
                                       functools.partial(discrete_prior_filter, TWO_POINT))):
        a = estimate(rng=74, replicas=100, jobs=1)
        b = estimate(rng=74, replicas=100, jobs=2)
        assert a.value == b.value and a.stderr == b.stderr
    # 37 replicas cross both the 16-replica blocks and the job chunks
    for prior in (None, THREE_POINT):
        model = constant_signal_model(0.3, 0.01, prior=prior)
        a = directed_info_gaussian_mc(model, rng=88, replicas=37, jobs=1)
        b = directed_info_gaussian_mc(model, rng=88, replicas=37, jobs=2)
        assert a.value == b.value and a.stderr == b.stderr


def _replay_q(inc, dt):
    # the exact filter of the gate policy under a skewed prior
    skewed = GaussianFeedbackModel(0.2, dt, _gate, delay=dt, latent=FinitePmf([-1.0, 1.0], [0.3, 0.7]))
    return replay_filter(skewed, inc)


@pytest.mark.parametrize("prior", [None, THREE_POINT])
def test_block_path_is_the_per_replica_composition(monkeypatch, prior):
    # the replicas run in blocks of 16; each value must be bit for bit the
    # simulate -> filter -> error integral of its own stream run alone, with
    # and without a policy, and for the mismatch estimator too
    constant = constant_signal_model(0.5, 0.01, prior=prior)
    if prior is None:
        policy = delayed_echo_model(0.3, 0.01, 0.02)
        q_filter = functools.partial(exact_filter_constant_signal, prior_var=4.0)
    else:
        policy = GaussianFeedbackModel(0.2, 0.01, _gate, delay=0.01, latent=prior)
        q_filter = functools.partial(discrete_prior_filter, TWO_POINT)
    seen = []

    def spy_estimates(block, rng, replicas, jobs=1, controls=0):
        def spy(gens):
            vals = block(gens)
            seen.extend(vals)
            return vals

        return core.replicated_estimates(spy, rng, replicas, jobs, controls)

    monkeypatch.setattr(gaussian, "replicated_estimates", spy_estimates)
    for model, q in ((constant, None), (policy, None), (constant, q_filter), (policy, _replay_q)):
        # on both sides of the replica count below which the plain mean stays
        for replicas in (1, 16, 17, 37):
            seen.clear()
            if q is None:
                est = directed_info_gaussian_mc(model, rng=86, replicas=replicas)
            else:
                est = mismatched_relent_gaussian(model, q, rng=86, replicas=replicas)
            oracle, martingales, seconds = per_replica_gaussian_values(model, 86, replicas, q)
            rows = np.array(seen)
            assert list(rows[:, 0]) == oracle
            if q is None:
                # the value, its martingale control, then its second-moment control
                assert rows.shape == (replicas, 3)
                assert list(rows[:, 1]) == pytest.approx(martingales, rel=1e-12, abs=1e-15)
                assert list(rows[:, 2]) == pytest.approx(seconds, rel=1e-12, abs=1e-15)
            else:
                assert rows.shape == (replicas, 1)  # the mismatch estimator has no control
            if q is None and replicas >= core._CONTROL_MIN:
                assert est.value == pytest.approx(controlled_mean(oracle, martingales, seconds),
                                                  rel=1e-12)
            else:
                assert est.value == float(np.mean(oracle))


@pytest.mark.parametrize("prior", [None, THREE_POINT])
def test_sweep_matches_each_horizon_alone(prior):
    # unsorted, with a duplicate: each estimate reads its own prefix of one
    # path, with and without a policy
    latent = TWO_POINT if prior is None else prior
    for make in (functools.partial(constant_signal_model, dt=0.01, prior=prior),
                 functools.partial(GaussianFeedbackModel, dt=0.01, policy=_gate, delay=0.02,
                                   latent=latent)):
        models = [make(t) for t in (1.0, 0.3, 1.0, 0.05)]
        for replicas in (1, 16, 17, 37):
            sweep = directed_info_gaussian_sweep(models, rng=89, replicas=replicas)
            alone = [directed_info_gaussian_mc(m, rng=89, replicas=replicas) for m in models]
            assert [(e.value, repr(e.stderr), e.replicas) for e in sweep] == [
                (e.value, repr(e.stderr), e.replicas) for e in alone]
        assert directed_info_gaussian_sweep(models, rng=89, replicas=37, jobs=2) == sweep


def test_sweep_rejects_models_it_cannot_share_a_path_between():
    base = constant_signal_model(1.0, 0.01)
    for other in (constant_signal_model(0.5, 0.005),
                  constant_signal_model(0.5, 0.01, prior=THREE_POINT),
                  GaussianFeedbackModel(0.5, 0.01, None, power_bound=10.0),
                  delayed_echo_model(0.5, 0.01, 0.02)):
        with pytest.raises(ValueError):
            directed_info_gaussian_sweep([base, other], rng=89, replicas=2)
    gate = GaussianFeedbackModel(1.0, 0.01, _gate, delay=0.01, latent=TWO_POINT)
    for other in (GaussianFeedbackModel(0.5, 0.01, _gate, delay=0.02, latent=TWO_POINT),
                  GaussianFeedbackModel(0.5, 0.01, lambda u, y: _gate(u, y), delay=0.01,
                                        latent=TWO_POINT),
                  GaussianFeedbackModel(0.5, 0.01, _gate, delay=0.01, latent=THREE_POINT)):
        with pytest.raises(ValueError):
            directed_info_gaussian_sweep([gate, other], rng=89, replicas=2)
    with pytest.raises(ValueError):
        directed_info_gaussian_sweep([], rng=89, replicas=2)


def test_gaussian_latent_under_a_policy_is_refused_before_any_draw(monkeypatch):
    # a standard-normal latent under a policy has no exact filter
    streams = count_streams(monkeypatch)
    model = GaussianFeedbackModel(0.5, 0.01, lambda u, y: u, delay=0.01)
    q_filter = functools.partial(exact_filter_constant_signal, prior_var=4.0)
    for estimate in (functools.partial(directed_info_gaussian_mc, model),
                     functools.partial(directed_info_gaussian_sweep, [model]),
                     functools.partial(mismatched_relent_gaussian, model, q_filter)):
        with pytest.raises(ValueError, match="exact filter"):
            estimate(rng=90, replicas=3)
    assert streams == [0]


def test_mismatched_filter_must_keep_the_block_shape():
    model = constant_signal_model(0.2, 0.01)
    for q_filter in (lambda inc, dt: exact_filter_constant_signal(inc, dt)[:, :-1],
                     lambda inc, dt: exact_filter_constant_signal(inc, dt)[0],
                     lambda inc, dt: 0.0):
        with pytest.raises(ValueError, match="shape"):
            mismatched_relent_gaussian(model, q_filter, rng=91, replicas=3)


def test_non_finite_values_name_their_cause(monkeypatch):
    model = constant_signal_model(0.2, 0.01)
    # a non-finite mismatched filter is the caller's input
    with pytest.raises(ValueError, match="finite values"):
        mismatched_relent_gaussian(model, lambda inc, dt: np.full(inc.shape, np.nan), rng=91, replicas=3)
    # finite values whose squared error overflows are a breakdown, with no warning
    with pytest.raises(RuntimeError, match="causal-MMSE integral is not finite"):
        mismatched_relent_gaussian(model, lambda inc, dt: np.full(inc.shape, 1e200), rng=91, replicas=3)
    # a non-finite exact filter is a breakdown of the pipeline itself
    monkeypatch.setattr(gaussian, "exact_filter_constant_signal", lambda inc, dt: np.full(inc.shape, np.nan))
    with pytest.raises(RuntimeError, match="not finite"):
        directed_info_gaussian_mc(model, rng=91, replicas=3)


def test_block_memory_stays_within_three_buffers():
    # one block of 16 replicas at T = 2, dt = 1e-3 reuses its (16, 2000)
    # buffers in place; a copy per step of the pipeline would need about five
    model = constant_signal_model(2.0, 1e-3)
    directed_info_gaussian_mc(model, rng=87, replicas=16)
    tracemalloc.start()
    try:
        directed_info_gaussian_mc(model, rng=87, replicas=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (16 * 2000 * 8)


def _peeking_filter(inc, dt):
    # the conjugate posterior mean given the increments up to and including step k
    return np.cumsum(inc, axis=-1) / (1.0 + dt * np.arange(1, inc.shape[-1] + 1))


def test_martingale_control_has_zero_mean_only_under_a_causal_filter(monkeypatch):
    # E[M] = 0 because the filter at step k reads only the increments before
    # it; one that also reads inc_k correlates with that step's noise.  The
    # second-moment control H = u^2 - E[u^2] has mean 0 too, and is exactly
    # 0 under the +-1 prior, whose u^2 is 1
    for model in (constant_signal_model(1.0, 1e-3),
                  constant_signal_model(1.0, 1e-2, prior=THREE_POINT),
                  GaussianFeedbackModel(1.0, 1e-2, _gate, delay=2e-2, latent=TWO_POINT)):
        _, mart, second = core.replicated_estimates(
            gaussian._pipeline(model, [model.n_steps]), 93, 4000)
        assert abs(mart.value) < 4.0 * mart.stderr
        if model.latent is TWO_POINT:
            assert (second.value, second.stderr) == (0.0, 0.0)
        else:
            assert abs(second.value) < 4.0 * second.stderr
    monkeypatch.setattr(gaussian, "exact_filter_constant_signal", _peeking_filter)
    model = constant_signal_model(1.0, 1e-3)
    _, mart, _ = core.replicated_estimates(gaussian._pipeline(model, [model.n_steps]), 93, 4000)
    assert mart.value < -10.0 * mart.stderr


def test_second_moment_control_reads_a_wrong_moment(monkeypatch):
    # the zero-mean check of H has the power to catch a second moment 5 %
    # off: a zero horizon draws only the latents, so 150,000 replicas are
    # cheap, and their H reads the true moment within 4 stderr and the wrong
    # one more than 10 stderr away (about 14 expected)
    real = gaussian._second_moment
    monkeypatch.setattr(gaussian, "_second_moment", lambda model: 1.05 * real(model))
    model = constant_signal_model(0.0, 0.01)
    *_, wrong = core.replicated_estimates(gaussian._pipeline(model, [0]), 93, 150_000)
    assert wrong.value < -10.0 * wrong.stderr
    assert abs(wrong.value + 0.05) < 4.0 * wrong.stderr


def test_second_moment_control_cuts_the_variance_of_the_bench_sweep():
    # the benchmark's gaussian-duncan configuration: with H as well as M the
    # pooled stderr^2 of the three rows is at least 5 times below that of M
    # alone (7.5 times at this seed), the same replicas fitted both ways
    models = [constant_signal_model(t, 1e-3) for t in (0.5, 1.0, 2.0)]
    rows = []

    def recording(gens):
        rows.append(block(gens))
        return rows[-1]

    block = gaussian._pipeline(models[-1], [m.n_steps for m in models])
    both = core.replicated_estimates(recording, 0, 4000, controls=2)
    vals = np.concatenate(rows)
    alone = [controlled_values(vals[:, j], vals[:, 3 + j]) for j in range(3)]
    pooled_alone = sum(v.var(ddof=1) / v.size for v in alone)
    assert sum(e.stderr ** 2 for e in both) * 5.0 < pooled_alone


def test_zero_horizon_blocks_return_zero_pairs():
    # the integrals and martingales are exactly 0; the second-moment
    # controls are each latent's u^2 - 1, which the fit weights by 0
    block = gaussian._pipeline(constant_signal_model(0.0, 0.01), [0, 0])
    vals = block(_streams(94, 3))
    assert np.array_equal(vals[:, :4], np.zeros((3, 4)))
    u = np.array([gen.standard_normal() for gen in _streams(94, 3)])
    assert np.array_equal(vals[:, 4:], np.column_stack((u * u - 1.0, u * u - 1.0)))
    est = directed_info_gaussian_mc(constant_signal_model(0.0, 0.01), rng=94, replicas=40)
    assert est.value == 0.0 and est.stderr == 0.0
    q_filter = functools.partial(exact_filter_constant_signal, prior_var=4.0)
    est = mismatched_relent_gaussian(constant_signal_model(0.0, 0.01), q_filter, rng=94, replicas=40)
    assert est.value == 0.0 and est.stderr == 0.0
    # the general pipeline on (C, 0) blocks, for every filter: each
    # estimate reads exactly 0 with stderr 0
    finite = constant_signal_model(0.0, 0.01, prior=THREE_POINT)
    for model in (finite, delayed_echo_model(0.0, 0.01, 0.03),
                  GaussianFeedbackModel(0.0, 0.01, _gate, delay=0.01, latent=TWO_POINT)):
        est = directed_info_gaussian_mc(model, rng=94, replicas=40)
        assert (est.value, est.stderr) == (0.0, 0.0)
    est = mismatched_relent_gaussian(finite, functools.partial(discrete_prior_filter, TWO_POINT),
                                     rng=94, replicas=40)
    assert (est.value, est.stderr) == (0.0, 0.0)
    models = [constant_signal_model(t, 0.01) for t in (0.0, 0.3, 0.0, 0.1, 0.0)]
    sweep = directed_info_gaussian_sweep(models, rng=94, replicas=40)
    assert [(e.value, e.stderr) for e in sweep[::2]] == [(0.0, 0.0)] * 3
    assert all(e.value > 0.0 for e in sweep[1::2])
    zeros = directed_info_gaussian_sweep(models[::2], rng=94, replicas=40)
    assert [(e.value, e.stderr) for e in zeros] == [(0.0, 0.0)] * 3


@pytest.mark.parametrize("shape", [(3, 0), (0, 0), (0,)])
def test_public_filters_take_empty_blocks(shape):
    inc = np.empty(shape)
    gate = GaussianFeedbackModel(0.0, 0.01, _gate, delay=0.01, latent=TWO_POINT)
    for est in (exact_filter_constant_signal(inc, 0.01),
                discrete_prior_filter(THREE_POINT, inc, 0.01),
                replay_filter(gate, inc)):
        assert est.shape == shape
    assert causal_mmse_integral(np.empty(shape), np.empty(shape), 0.01, [0]).shape == shape[:-1] + (1,)


def test_block_buffers_are_reused_across_blocks():
    # counted in a fresh interpreter, whose allocator no earlier test has
    # tuned: there a fresh pair of (16, 2000) buffers per block cost 93 minor
    # page faults (glibc, x86-64 Linux), as the allocator handed them back
    # to the OS; the difference of two sweeps leaves out each call's one
    # workspace
    pytest.importorskip("resource")
    import subprocess
    import sys

    code = ("import resource\n"
            "from ctdi.gaussian import constant_signal_model, directed_info_gaussian_sweep\n"
            "model = constant_signal_model(2.0, 1e-3)\n"
            "def faults(blocks):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    directed_info_gaussian_sweep([model], rng=95, replicas=16 * blocks)\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "faults(10)\n"
            "print(faults(10), faults(50))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    few, many = map(int, proc.stdout.split())
    assert many - few < 2 * 40


def test_workspace_stays_private_to_one_estimate():
    model = constant_signal_model(0.5, 0.01)
    block = gaussian._pipeline(model, [model.n_steps])
    block(_streams(96, 16))
    # a worker gets an empty workspace, not the block's buffer
    assert len(pickle.dumps(block)) < 16 * model.n_steps * 8
    assert pickle.loads(pickle.dumps(block))(_streams(96, 16)).shape == (16, 3)
    # arrays of the public functions are fresh: a later estimate leaves them alone
    x, inc = simulate_awgn(model, _streams(96, 16))
    est = exact_filter_constant_signal(inc, model.dt)
    kept = [a.copy() for a in (x, inc, est)]
    directed_info_gaussian_mc(model, rng=96, replicas=40)
    assert all(np.array_equal(a, b) for a, b in zip((x, inc, est), kept))


def test_delayed_echo_di_is_exactly_zero():
    model = delayed_echo_model(0.5, 0.005, 0.05)
    est = directed_info_gaussian_mc(model, rng=76, replicas=100)
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_mismatch_zero_when_q_equals_p():
    model = constant_signal_model(0.5, 0.01)
    est = mismatched_relent_gaussian(model, functools.partial(exact_filter_constant_signal, prior_var=1.0), rng=77,
                                     replicas=50)
    assert est.value == 0.0 and est.stderr == 0.0


def test_mismatch_against_conjugate_prior_closed_form():
    q_var = 4.0
    model = constant_signal_model(1.0, 0.002)
    est = mismatched_relent_gaussian(model, functools.partial(exact_filter_constant_signal, prior_var=q_var), rng=78,
                                     replicas=20_000)
    target = gaussian_mismatch_closed_form(1.0, q_var)
    # hand reduction at these parameters: 0.5 ln(5/2) - 3/10
    assert target == pytest.approx(0.5 * math.log(2.5) - 0.3, abs=1e-12)
    assert abs(est.value - target) < max(0.02 * target, 4.0 * est.stderr)


def test_constant_bias_penalty_matches_quadratic_law():
    # estimating with xhat + b costs exactly b^2 T / 2 in relative entropy
    model = constant_signal_model(1.0, 0.01)

    def biased(b):
        def q_filter(inc, dt):
            return exact_filter_constant_signal(inc, dt) + b

        return q_filter

    for b in (-0.5, -0.1, 0.1, 0.5):
        est = mismatched_relent_gaussian(model, biased(b), rng=79, replicas=4000)
        assert est.value > 3.0 * est.stderr
        assert abs(est.value - 0.5 * b * b) < 4.0 * est.stderr


def test_halving_dt_halves_filter_discretization_bias():
    # couple coarse and fine grids through shared fine noise; the exact
    # filter bias is dt T / (4 (1+T)) to first order, so the paired gap
    # between dt and dt/2 runs sits near dt T / (8 (1+T))
    t_end = 1.0
    dt = 0.02
    gaps = []
    for rep in range(6000):
        gen = RngSpec(80).stream(rep)
        a = gen.normal()
        z = gen.normal(size=100)
        fine_inc = a * (dt / 2) + math.sqrt(dt / 2) * z
        coarse_inc = fine_inc[0::2] + fine_inc[1::2]
        fine = causal_mmse_integral(
            np.full(100, a), exact_filter_constant_signal(fine_inc, dt / 2), dt / 2, [100])[0]
        coarse = causal_mmse_integral(
            np.full(50, a), exact_filter_constant_signal(coarse_inc, dt), dt, [50])[0]
        gaps.append(coarse - fine)
    gaps = np.asarray(gaps)
    se = gaps.std(ddof=1) / math.sqrt(gaps.size)
    predicted = dt * t_end / (8.0 * (1.0 + t_end))
    assert gaps.mean() > 3.0 * se
    assert abs(gaps.mean() - predicted) < max(4.0 * se, 0.3 * predicted)


def test_rng_type_rejected():
    model = constant_signal_model(0.1, 0.01)
    with pytest.raises(TypeError):
        directed_info_gaussian_mc(model, rng=np.random.default_rng(0), replicas=5)

