import functools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import gaussian_mismatch_closed_form, quantized_normal_prior
from ctdi import gaussian
from ctdi.core import FinitePmf, RngSpec, SamplePath
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
    # grids are capped at 1e6 steps; the cap itself is allowed
    assert constant_signal_model(1.0, 1e-6).n_steps == 1_000_000
    for horizon, dt in ((1.0, 1e-7), (2.0, 1e-6), (1e300, 1e-300)):
        with pytest.raises(ValueError, match="step cap"):
            constant_signal_model(horizon, dt)


def test_zero_signal_increments_are_pure_noise():
    prior = FinitePmf([0.0], [1.0])
    model = constant_signal_model(1.0, 0.01, prior=prior)
    incs = []
    for rep in range(400):
        x, yinc = simulate_awgn(model, RngSpec(61).stream(rep))
        assert np.all(x.values == 0.0)
        incs.append(yinc.values)
    incs = np.concatenate(incs)
    assert abs(incs.mean()) < 4.0 * math.sqrt(0.01 / incs.size)
    assert abs(incs.var() - 0.01) < 4.0 * 0.01 * math.sqrt(2.0 / incs.size)


def test_constant_signal_output_variance():
    # Y_T = A T + B_T so Var(Y_T) = T^2 + T
    model = constant_signal_model(1.0, 0.01)
    y_end = np.array([
        simulate_awgn(model, RngSpec(62).stream(rep))[1].values.sum()
        for rep in range(4000)
    ])
    target = 2.0
    se = target * math.sqrt(2.0 / (y_end.size - 1))
    assert abs(y_end.var(ddof=1) - target) < 4.0 * se


def test_simulation_reproducible():
    model = delayed_echo_model(2.0, 0.01, 0.1)
    x1, y1 = simulate_awgn(model, RngSpec(63).stream(7))
    x2, y2 = simulate_awgn(model, RngSpec(63).stream(7))
    assert np.array_equal(x1.values, x2.values)
    assert np.array_equal(y1.values, y2.values)


def test_power_bound_guards_runaway_policies():
    latent = FinitePmf([0.0], [1.0])
    model = GaussianFeedbackModel(1.0, 0.1, lambda u, y: 50.0, delay=0.1,
                                  latent=latent, power_bound=10.0)
    with pytest.raises(ValueError):
        simulate_awgn(model, RngSpec(0).stream(0))
    # the block path of a constant signal checks every latent draw
    held = GaussianFeedbackModel(0.5, 0.01, None, latent=FinitePmf([0.0, 5.0], [0.5, 0.5]),
                                 power_bound=1.0)
    with pytest.raises(ValueError, match="power bound"):
        directed_info_gaussian_mc(held, rng=89, replicas=20)


def test_exact_filter_gain_formula():
    yinc = SamplePath(0.5, [0.5, -0.2])
    filt = exact_filter_constant_signal(yinc)
    assert np.allclose(filt.values, [0.0, 0.5 / 1.5])
    wide = exact_filter_constant_signal(yinc, prior_var=4.0)
    assert np.allclose(wide.values, [0.0, 4.0 * 0.5 / 3.0])


def test_exact_filter_posterior_variance_is_achieved():
    # E[(A - Ahat_t)^2] = 1/(1+t); check at t = 1 across replicas
    dt = 0.01
    model = constant_signal_model(1.0 + dt, dt)
    errs = []
    for rep in range(30_000):
        x, yinc = simulate_awgn(model, RngSpec(64).stream(rep))
        filt = exact_filter_constant_signal(yinc)
        errs.append(x.values[-1] - filt.values[-1])
    errs = np.asarray(errs)
    mse = float((errs**2).mean())
    se = float((errs**2).std(ddof=1) / math.sqrt(errs.size))
    assert abs(mse - 0.5) < max(4.0 * se, 0.01)


def test_two_point_prior_filter_is_tanh():
    gen = np.random.default_rng(65)
    yinc = SamplePath(0.01, gen.normal(scale=0.1, size=200))
    filt = discrete_prior_filter(TWO_POINT, yinc)
    y_before = np.concatenate(([0.0], np.cumsum(yinc.values[:-1])))
    assert np.allclose(filt.values, np.tanh(y_before), atol=1e-12)


def test_filters_do_not_look_ahead():
    gen = np.random.default_rng(66)
    vals = gen.normal(size=50)
    tampered = vals.copy()
    tampered[30:] += 5.0
    a = SamplePath(0.02, vals)
    b = SamplePath(0.02, tampered)
    for fn in (exact_filter_constant_signal,
               lambda y: discrete_prior_filter(TWO_POINT, y)):
        ea = fn(a).values
        eb = fn(b).values
        assert np.array_equal(ea[:31], eb[:31])
        assert not np.array_equal(ea[31:], eb[31:])


def test_replay_filter_reconstructs_echo_signal_exactly():
    model = delayed_echo_model(1.0, 0.001, 0.01)
    x, yinc = simulate_awgn(model, RngSpec(67).stream(0))
    filt = replay_filter(model, yinc)
    assert np.array_equal(filt.values, x.values)
    assert causal_mmse_integral(x, filt) == 0.0
    with pytest.raises(ValueError):
        replay_filter(constant_signal_model(1.0, 0.001), yinc)


def test_replay_filter_tracks_discrete_posterior():
    # without feedback the replayed likelihood mixture is the closed-form filter
    prior = quantized_normal_prior(101)
    model = constant_signal_model(1.0, 0.01, prior=prior)
    for rep in range(8):
        _, yinc = simulate_awgn(model, RngSpec(70).stream(rep))
        exact = discrete_prior_filter(prior, yinc)
        replayed = replay_filter(model, yinc)
        assert np.max(np.abs(replayed.values - exact.values)) < 1e-12


def test_replay_filter_two_point_prior_matches_tanh():
    model = constant_signal_model(0.5, 0.01, prior=TWO_POINT)
    _, yinc = simulate_awgn(model, RngSpec(81).stream(0))
    filt = replay_filter(model, yinc)
    y_before = np.concatenate(([0.0], np.cumsum(yinc.values[:-1])))
    assert np.max(np.abs(filt.values - np.tanh(y_before))) < 1e-12


def test_replay_filter_tracks_feedback_posterior():
    # X = U + Y_{t-d}/2 with U = +-1: each atom's signal is a known function of
    # the observed past, so the exact posterior weighs two likelihoods
    dt, d = 0.01, 5
    model = GaussianFeedbackModel(0.5, dt, lambda u, y: u + 0.5 * y, delay=d * dt,
                                  latent=TWO_POINT)
    x, yinc = simulate_awgn(model, RngSpec(84).stream(0))
    y_seen = np.concatenate((np.zeros(d + 1), np.cumsum(yinc.values)))[: len(yinc)]
    signals = TWO_POINT.support[:, None] + 0.5 * y_seen
    steps = signals * yinc.values - 0.5 * signals**2 * dt
    loglik = np.concatenate((np.zeros((2, 1)), np.cumsum(steps, axis=1)[:, :-1]), axis=1)
    w = np.exp(loglik - loglik.max(axis=0))
    exact = (w * signals).sum(axis=0) / w.sum(axis=0)
    filt = replay_filter(model, yinc)
    assert np.max(np.abs(filt.values - exact)) < 1e-12
    assert np.max(np.abs(signals[int(x.values[0] > 0)] - x.values)) < 1e-12


def test_duncan_with_feedback_matches_terminal_posterior_information():
    # For a deterministic encoder with feedback the directed information is
    # I(U; Y^T) (Massey 1990) = ln 2 - E[H(U | Y^T)], computed here from the
    # terminal posterior of a separate vectorized copy of the policy.  The
    # gate amplifies u while the delayed output agrees with it, so feedback
    # moves the information away from the no-feedback value for X = U.
    dt, replicas = 2e-3, 2000
    model = GaussianFeedbackModel(1.0, dt, lambda u, y: u * (2.0 if u * y > 0 else 0.5),
                                  delay=dt, latent=TWO_POINT)
    est = directed_info_gaussian_mc(model, rng=85, replicas=replicas)
    u = TWO_POINT.support[:, None]
    mmse, info = [], []
    for rep in range(replicas):
        x, yinc = simulate_awgn(model, RngSpec(85).stream(rep))
        inc = yinc.values
        y_seen = np.concatenate(([0.0, 0.0], np.cumsum(inc)[:-2]))
        signals = u * np.where(u * y_seen > 0, 2.0, 0.5)
        assert np.max(np.abs(signals[int(x.values[0] > 0)] - x.values)) < 1e-12
        loglik = np.cumsum(signals * inc - 0.5 * signals**2 * dt, axis=1)
        before = np.concatenate((np.zeros((2, 1)), loglik[:, :-1]), axis=1)
        w = np.exp(before - before.max(axis=0))
        xhat = (w * signals).sum(axis=0) / w.sum(axis=0)
        mmse.append(0.5 * float(np.sum((x.values - xhat) ** 2)) * dt)
        end = loglik[:, -1] - loglik[:, -1].max()
        log_post = end - math.log(np.exp(end).sum())
        info.append(math.log(2.0) + float(np.sum(np.exp(log_post) * log_post)))
    assert est.value == pytest.approx(float(np.mean(mmse)), rel=1e-12)
    diff = np.asarray(mmse) - np.asarray(info)
    assert abs(diff.mean()) < 4.0 * diff.std(ddof=1) / math.sqrt(replicas)
    # no feedback, X = U = +-1: I = T - E[ln cosh(T + sqrt(T) Z)] at T = 1
    z, wz = np.polynomial.hermite_e.hermegauss(80)
    no_feedback = 1.0 - float(np.dot(wz, np.log(np.cosh(1.0 + z)))) / math.sqrt(2.0 * math.pi)
    assert abs(est.value - no_feedback) > 4.0 * est.stderr


def test_causal_integral_trivial_values():
    x = SamplePath(0.5, np.ones(4))
    zero = SamplePath(0.5, np.zeros(4))
    assert causal_mmse_integral(x, zero) == pytest.approx(1.0, abs=1e-14)
    perfect = SamplePath(0.5, np.ones(4))
    assert causal_mmse_integral(x, perfect) == 0.0


def test_causal_mmse_integral_requires_matching_grids():
    x = SamplePath(0.1, [1.0, 1.0])
    filt = SamplePath(0.05, [0.0, 0.0])
    with pytest.raises(ValueError):
        causal_mmse_integral(x, filt)
    short = SamplePath(0.1, [0.0])
    with pytest.raises(ValueError):
        causal_mmse_integral(x, short)


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
    for estimate in (functools.partial(directed_info_gaussian_mc, model),
                     functools.partial(mismatched_relent_gaussian, model, q_filter)):
        a = estimate(rng=74, replicas=100, jobs=1)
        b = estimate(rng=74, replicas=100, jobs=2)
        assert a.value == b.value and a.stderr == b.stderr
    # 37 replicas cross both the 16-replica blocks and the job chunks
    for prior in (None, THREE_POINT):
        model = constant_signal_model(0.3, 0.01, prior=prior)
        a = directed_info_gaussian_mc(model, rng=88, replicas=37, jobs=1)
        b = directed_info_gaussian_mc(model, rng=88, replicas=37, jobs=2)
        assert a.value == b.value and a.stderr == b.stderr


@pytest.mark.parametrize("prior", [None, THREE_POINT])
def test_block_path_is_the_per_replica_composition(monkeypatch, prior):
    # without a policy the replicas run in blocks of 16; each value must be
    # bit for bit the simulate -> filter -> error integral of its own stream
    model = constant_signal_model(0.5, 0.01, prior=prior)
    seen = []
    real = gaussian.replicated_estimates

    def recording(block, rng, replicas, jobs=1):
        def spy(gens):
            vals = block(gens)
            seen.extend(vals[:, 0])
            return vals

        return real(spy, rng, replicas, jobs)

    monkeypatch.setattr(gaussian, "replicated_estimates", recording)
    for replicas in (1, 16, 17, 37):
        seen.clear()
        est = directed_info_gaussian_mc(model, rng=86, replicas=replicas)
        oracle = []
        for rep in range(replicas):
            x, yinc = simulate_awgn(model, RngSpec(86).stream(rep))
            if prior is None:
                filt = exact_filter_constant_signal(yinc)
            else:
                filt = discrete_prior_filter(prior, yinc)
            oracle.append(causal_mmse_integral(x, filt))
        assert seen == oracle
        assert est.value == float(np.mean(oracle))


@pytest.mark.parametrize("prior", [None, THREE_POINT])
def test_sweep_matches_each_horizon_alone(prior):
    # unsorted, with a duplicate: each estimate reads its own prefix of one path
    models = [constant_signal_model(t, 0.01, prior=prior) for t in (1.0, 0.3, 1.0, 0.05)]
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
    with pytest.raises(ValueError):
        directed_info_gaussian_sweep([], rng=89, replicas=2)


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
        def q_filter(yinc):
            return SamplePath(yinc.dt, exact_filter_constant_signal(yinc).values + b)

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
        fine_x = SamplePath(dt / 2, np.full(100, a))
        coarse_x = SamplePath(dt, np.full(50, a))
        fine = causal_mmse_integral(
            fine_x, exact_filter_constant_signal(SamplePath(dt / 2, fine_inc)))
        coarse = causal_mmse_integral(
            coarse_x, exact_filter_constant_signal(SamplePath(dt, coarse_inc)))
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

