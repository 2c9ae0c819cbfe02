import io
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import mc_entropy_oracle, plugin_rate_oracle, random_positive_pmf
from ctdi.core import FinitePmf, RngSpec
from ctdi.poisson import (
    ChannelTrajectory,
    PoissonFeedbackModel,
    default_burn_in,
    di_rate_analytic,
    di_rate_mc,
    elapsed_time_density,
    interarrival_density,
    interarrival_entropy,
    interarrival_entropy_given_input,
    mean_interarrival_quadrature,
    mean_inverse_intensity,
    mean_log_intensity,
    mismatched_relent_poisson,
    occupancy_fractions,
    renewal_posterior_mean,
    simulate_channel,
    state_at,
    stationary_intensity_pmf,
    trajectory_integral,
    trajectory_time_average,
    write_trajectory_csv,
)
BINARY = FinitePmf([1.0, 2.0], [0.5, 0.5])


def test_model_validation():
    with pytest.raises(ValueError):
        PoissonFeedbackModel(FinitePmf([0.0, 1.0], [0.5, 0.5]), 10.0)
    with pytest.raises(ValueError):
        PoissonFeedbackModel(BINARY, 0.0)


def test_point_mass_channel_is_homogeneous_poisson():
    lam = 2.0
    horizon = 2000.0
    model = PoissonFeedbackModel(FinitePmf([lam], [1.0]), horizon)
    traj = simulate_channel(model, RngSpec(5).stream(0))
    assert traj.events.epochs[0] == 0.0
    n = len(traj.events.epochs) - 1
    expected = lam * horizon
    assert abs(n - expected) < 3.0 * math.sqrt(expected)
    gaps = np.diff(traj.events.epochs)
    assert abs(gaps.mean() - 1.0 / lam) < 3.0 / (lam * math.sqrt(n))


def test_simulation_is_reproducible():
    model = PoissonFeedbackModel(BINARY, 500.0)
    a = simulate_channel(model, RngSpec(9).stream(3))
    b = simulate_channel(model, RngSpec(9).stream(3))
    assert np.array_equal(a.events.epochs, b.events.epochs)
    assert np.array_equal(a.intensities, b.intensities)


def test_trajectory_segments_shape():
    traj = ChannelTrajectory(
        events=_events(5.0, [0.0, 1.0, 3.5]), intensities=[1.0, 2.0, 1.0]
    )
    starts, ends, xs = traj.segments()
    assert np.allclose(starts, [0.0, 1.0, 3.5])
    assert np.allclose(ends, [1.0, 3.5, 5.0])
    assert np.allclose(xs, [1.0, 2.0, 1.0])


def _events(horizon, epochs):
    from ctdi.core import EventTimes

    return EventTimes(horizon, epochs)


def test_posterior_mean_from_prior_to_min_intensity():
    g0 = renewal_posterior_mean(BINARY, 0.0)
    assert g0 == pytest.approx(1.5)
    s = np.linspace(0.0, 30.0, 400)
    g = renewal_posterior_mean(BINARY, s)
    assert np.all(np.diff(g) <= 1e-12)
    assert g[-1] == pytest.approx(1.0, abs=1e-9)
    far = renewal_posterior_mean(BINARY, 1e6)
    assert np.isfinite(far) and far == pytest.approx(1.0)


def test_posterior_mean_matches_bayes_formula():
    pmf = FinitePmf([0.5, 1.5, 4.0], [0.2, 0.5, 0.3])
    s = 0.8
    w = pmf.probs * np.exp(-s * pmf.support)
    direct = float((w * pmf.support).sum() / w.sum())
    assert renewal_posterior_mean(pmf, s) == pytest.approx(direct, rel=1e-12)


def test_stationary_quantities_binary():
    st = stationary_intensity_pmf(BINARY)
    assert np.allclose(st.probs, [2.0 / 3.0, 1.0 / 3.0])
    assert mean_inverse_intensity(BINARY) == pytest.approx(0.75)
    assert mean_log_intensity(BINARY) == pytest.approx(0.5 * math.log(2.0))
    assert elapsed_time_density(BINARY, 0.0) == pytest.approx(4.0 / 3.0)


def test_stationary_x_log_x_identity():
    st = stationary_intensity_pmf(BINARY)
    lhs = float(np.dot(st.probs, st.support * np.log(st.support)))
    rhs = mean_log_intensity(BINARY) / mean_inverse_intensity(BINARY)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_point_mass_elapsed_density_and_posterior():
    lam = 2.5
    pm = FinitePmf([lam], [1.0])
    t = np.linspace(0.0, 3.0, 7)
    assert np.allclose(elapsed_time_density(pm, t), lam * np.exp(-lam * t),
                       rtol=1e-12)
    assert np.allclose(renewal_posterior_mean(pm, t), lam)


def test_elapsed_time_density_integrates_to_one():
    for pmf in (BINARY, FinitePmf([0.5, 3.0], [0.3, 0.7])):
        total, _ = quad(lambda t: elapsed_time_density(pmf, t), 0.0,
                        200.0 / pmf.support.min(), epsabs=1e-12, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_interarrival_density_normalization_and_mean():
    total, _ = quad(lambda y: interarrival_density(BINARY, y), 0.0, 80.0, epsabs=1e-12, limit=200)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert mean_interarrival_quadrature(BINARY) == pytest.approx(0.75, abs=1e-9)


def test_interarrival_entropy_point_mass():
    assert interarrival_entropy(FinitePmf([1.0], [1.0])) == pytest.approx(1.0, abs=1e-9)
    lam = 3.0
    val = interarrival_entropy(FinitePmf([lam], [1.0]))
    assert val == pytest.approx(1.0 - math.log(lam), abs=1e-9)


def test_interarrival_entropy_against_mc_oracle():
    quad = interarrival_entropy(BINARY)
    mc, se = mc_entropy_oracle(BINARY, 1_000_000, seed=101)
    assert abs(quad - mc) < max(1e-3, 3.0 * se)


def test_conditional_entropy_identity():
    pmf = FinitePmf([0.5, 2.0, 5.0], [0.25, 0.5, 0.25])
    direct = float(np.dot(pmf.probs, 1.0 - np.log(pmf.support)))
    assert interarrival_entropy_given_input(pmf) == pytest.approx(direct, rel=1e-14)


def test_rate_zero_for_deterministic_intensity():
    assert di_rate_analytic(FinitePmf([3.0], [1.0])) == 0.0
    pm = FinitePmf([1.0, 3.0], [1.0, 0.0])
    assert di_rate_analytic(pm) == 0.0


def test_rate_nonnegative_random_sweep():
    gen = np.random.default_rng(31)
    for _ in range(10):
        pmf = random_positive_pmf(gen)
        assert di_rate_analytic(pmf) >= 0.0


def test_rate_against_plugin_oracle():
    rate = di_rate_analytic(BINARY)
    oracle = plugin_rate_oracle(BINARY, 1_000_000, seed=77)
    assert abs(rate - oracle) < 1e-3


def test_rate_mc_point_mass_is_exactly_zero():
    model = PoissonFeedbackModel(FinitePmf([2.0], [1.0]), 200.0)
    est = di_rate_mc(model, rng=3, replicas=2, burn_in=5.0)
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_rate_mc_matches_analytic_binary():
    model = PoissonFeedbackModel(BINARY, 3000.0)
    est = di_rate_mc(model, rng=12, replicas=3)
    target = di_rate_analytic(BINARY)
    assert abs(est.value - target) < max(0.03 * target, 4.0 * est.stderr)


def test_rate_mc_parallel_matches_serial():
    model = PoissonFeedbackModel(BINARY, 300.0)
    a = di_rate_mc(model, rng=8, replicas=4, jobs=1)
    b = di_rate_mc(model, rng=8, replicas=4, jobs=2)
    assert a.value == b.value and a.stderr == b.stderr


def test_rate_mc_validation():
    model = PoissonFeedbackModel(BINARY, 20.0)
    with pytest.raises(ValueError):
        di_rate_mc(model, rng=1, replicas=2, burn_in=25.0)
    with pytest.raises(TypeError):
        di_rate_mc(model, rng=np.random.default_rng(0), replicas=2)


def test_hazard_log_hazard_time_average_identity():
    # the long-run time average of g ln g equals (1 - h(Y)) / E[1/X]
    # because g is the hazard rate of the interarrival law and the survival
    # function evaluated at an interarrival draw is uniform on (0, 1)
    target = (1.0 - interarrival_entropy(BINARY)) / mean_inverse_intensity(BINARY)
    model = PoissonFeedbackModel(BINARY, 3000.0)
    vals = []
    for rep in range(3):
        traj = simulate_channel(model, RngSpec(41).stream(rep))

        def glng(x, s):
            g = renewal_posterior_mean(BINARY, s)
            return g * np.log(g)

        vals.append(
            # the first panel is 1/(max x - min x) wide
            trajectory_time_average(traj, glng, t_lo=default_burn_in(BINARY), panel=1.0)
        )
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) < max(0.02 * abs(target), 4.0 * se)


def test_trajectory_integral_of_constant_is_window_length():
    model = PoissonFeedbackModel(BINARY, 50.0)
    traj = simulate_channel(model, RngSpec(2).stream(0))
    val = trajectory_integral(traj, lambda x, s: np.ones_like(s), t_lo=10.0)
    assert val == pytest.approx(40.0, rel=1e-9)


@pytest.mark.parametrize("lam2", [2.0, 100.0, 1e4])
def test_trajectory_integral_of_posterior_mean_matches_closed_form(lam2):
    # with Z(s) = sum p(x) e^{-sx}, g = -d ln Z / ds, so the piece [a, b] of
    # elapsed time in a segment contributes -ln Z(b) + ln Z(a)
    def neg_log_z(s):
        return s - np.log(0.5 + 0.5 * np.exp(-s * (lam2 - 1.0)))

    pmf = FinitePmf([1.0, lam2], [0.5, 0.5])
    traj = simulate_channel(PoissonFeedbackModel(pmf, 200.0), RngSpec(23).stream(0))
    starts, ends, _ = traj.segments()
    for t_lo, t_hi in ((0.0, 200.0), (37.3, 150.1)):
        inside = (ends > t_lo) & (starts < t_hi)
        lo = np.maximum(starts, t_lo)[inside] - starts[inside]
        hi = np.minimum(ends, t_hi)[inside] - starts[inside]
        closed = float(np.sum(neg_log_z(hi) - neg_log_z(lo)))
        val = trajectory_integral(traj, lambda x, s: renewal_posterior_mean(pmf, s),
                                  t_lo, t_hi, panel=1.0 / (lam2 - 1.0))
        assert val == pytest.approx(closed, rel=1e-12, abs=0.0)


def test_state_at_and_occupancy_manual():
    traj = ChannelTrajectory(events=_events(4.0, [0.0, 1.0, 3.0]),
                             intensities=[1.0, 2.0, 1.0])
    elapsed, inten = state_at(traj, [0.5, 2.5, 3.5])
    assert np.allclose(elapsed, [0.5, 1.5, 0.5])
    assert np.allclose(inten, [1.0, 2.0, 1.0])
    occ = occupancy_fractions(traj, [1.0, 2.0])
    assert np.allclose(occ, [0.5, 0.5])
    occ_tail = occupancy_fractions(traj, [1.0, 2.0], t_lo=2.0, t_hi=4.0)
    assert np.allclose(occ_tail, [0.5, 0.5])
    with pytest.raises(ValueError):
        state_at(traj, [4.0])


def test_occupancy_converges_to_stationary_law():
    model = PoissonFeedbackModel(BINARY, 4000.0)
    traj = simulate_channel(model, RngSpec(6).stream(0))
    occ = occupancy_fractions(traj, BINARY.support, t_lo=default_burn_in(BINARY))
    assert abs(occ[0] - 2.0 / 3.0) < 0.03
    assert occ.sum() == pytest.approx(1.0, rel=1e-12)


def test_renewal_filter_matches_binned_conditional_means():
    # stationary joint density of (elapsed, intensity) factors as
    # p(x) exp(-s x) / E[1/X]; the bin-conditional mean of X has the closed
    # form below, and the empirical intensity average per elapsed-time bin
    # must agree with it within Monte Carlo error
    pmf = BINARY
    model = PoissonFeedbackModel(pmf, 4000.0)
    traj = simulate_channel(model, RngSpec(51).stream(0))
    times = np.arange(default_burn_in(pmf), model.horizon, 2.0)
    elapsed, inten = state_at(traj, times)
    edges = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (elapsed >= a) & (elapsed < b)
        n = int(sel.sum())
        assert n > 50
        numer = float(np.dot(pmf.probs, np.exp(-a * pmf.support) - np.exp(-b * pmf.support)))
        denom = float(np.dot(pmf.probs / pmf.support,
                             np.exp(-a * pmf.support) - np.exp(-b * pmf.support)))
        closed = numer / denom
        sample_mean = inten[sel].mean()
        se = inten[sel].std(ddof=1) / math.sqrt(n)
        assert abs(sample_mean - closed) < 4.0 * se + 1e-9


def test_mismatch_zero_when_q_equals_p():
    est = mismatched_relent_poisson(BINARY, BINARY, 100.0, rng=4, replicas=2)
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_mismatch_nonnegative_and_seed_stable():
    q = FinitePmf([1.0, 2.0], [0.9, 0.1])
    a = mismatched_relent_poisson(BINARY, q, 400.0, rng=14, replicas=4)
    b = mismatched_relent_poisson(BINARY, q, 400.0, rng=15, replicas=4)
    assert a.value > 0.0
    assert b.value > 0.0
    spread = math.hypot(a.stderr, b.stderr)
    assert abs(a.value - b.value) < 4.0 * spread


def test_trajectory_csv_format(tmp_path):
    traj = ChannelTrajectory(events=_events(4.0, [0.0, 1.25]), intensities=[1.0, 2.0])
    buf = io.StringIO()
    write_trajectory_csv(buf, traj)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "event_index,event_time,intensity_after_event"
    assert lines[1] == "0,0,1"
    assert lines[2] == "1,1.25,2"
    dest = tmp_path / "traj.csv"
    write_trajectory_csv(dest, traj)
    assert dest.read_text().splitlines() == lines
