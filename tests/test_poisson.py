import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (
    controlled_mean,
    count_streams,
    di_renewal_values,
    entropy_form_rate,
    interarrival_entropy,
    mc_entropy_oracle,
    mismatch_renewal_values,
    per_trajectory_poisson_values,
    plugin_rate_oracle,
    random_positive_pmf,
    reference_trajectory,
    sampled_poisson_di,
    sampled_poisson_di_rate,
    sampled_poisson_joint,
)
from ctdi import poisson
from ctdi.capacity import unit_cost_identity_check
from ctdi.core import FinitePmf, RngSpec, poisson_loss, replicated_estimates
from ctdi.partition_di import directed_info, mutual_information
from ctdi.poisson import (
    ChannelTrajectory,
    PoissonFeedbackModel,
    default_burn_in,
    di_rate_analytic,
    di_rate_mc,
    interarrival_density,
    mean_interarrival_quadrature,
    mean_inverse_intensity,
    mismatched_relent_poisson,
    occupancy_fractions,
    renewal_posterior_mean,
    simulate_channel,
    state_at,
    stationary_intensity_pmf,
    trajectory_integral,
)
BINARY = FinitePmf([1.0, 2.0], [0.5, 0.5])


def test_model_validation():
    with pytest.raises(ValueError):
        PoissonFeedbackModel(FinitePmf([0.0, 1.0], [0.5, 0.5]), 10.0)
    with pytest.raises(ValueError):
        PoissonFeedbackModel(BINARY, 0.0)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError):
            PoissonFeedbackModel(BINARY, horizon)
    # E[1/X] = 0.75 for BINARY, so the event cap of 1e6 expected events allows
    # horizons up to 7.5e5
    PoissonFeedbackModel(BINARY, 7.4e5)
    tracemalloc.start()
    try:
        for pmf, horizon in ((BINARY, 7.6e5), (BINARY, 1e9),
                             (FinitePmf([1e7, 2e7], [0.5, 0.5]), 50.0)):
            with pytest.raises(ValueError, match="horizon .* event cap 1000000"):
                PoissonFeedbackModel(pmf, horizon)
        with pytest.raises(ValueError, match="event cap"):
            mismatched_relent_poisson(BINARY, BINARY, 1e9, rng=4, replicas=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_point_mass_channel_is_homogeneous_poisson():
    lam = 2.0
    horizon = 2000.0
    model = PoissonFeedbackModel(FinitePmf([lam], [1.0]), horizon)
    traj = simulate_channel(model, RngSpec(5).stream(0))
    assert traj.events[0] == 0.0
    n = len(traj.events) - 1
    expected = lam * horizon
    assert abs(n - expected) < 3.0 * math.sqrt(expected)
    gaps = np.diff(traj.events)
    assert abs(gaps.mean() - 1.0 / lam) < 3.0 / (lam * math.sqrt(n))


def test_simulation_is_reproducible():
    model = PoissonFeedbackModel(BINARY, 500.0)
    a = simulate_channel(model, RngSpec(9).stream(3))
    b = simulate_channel(model, RngSpec(9).stream(3))
    assert np.array_equal(a.events, b.events)
    assert np.array_equal(a.intensities, b.intensities)


def test_block_draws_are_choice_and_exponential():
    # the float sum of ten 0.1s, as choice's cdf makes it, is not exactly 1
    ten = FinitePmf(np.arange(1.0, 11.0), np.full(10, 0.1))
    assert ten.probs.cumsum()[-1] != 1.0
    for pmf in (FinitePmf([2.0], [1.0]), BINARY, FinitePmf([0.5, 1.3, 2.9], [0.2, 0.5, 0.3]),
                FinitePmf(np.linspace(0.5, 4.5, 9), np.arange(1.0, 10.0) / 45.0),
                FinitePmf([1.0, 3.0, 5.0], [0.3, 0.0, 0.7]), ten):
        for seed, size in ((0, 16), (1, 97), (2, 500), (3, 1)):
            gens = [RngSpec(seed).stream(r) for r in range(3)]
            xs, waits = poisson._draws(pmf, gens, size)
            for r, gen in enumerate(gens):
                alone = RngSpec(seed).stream(r)
                want = alone.choice(pmf.support, p=pmf.probs, size=size)
                assert np.array_equal(xs[r], want)
                assert np.array_equal(waits[r], alone.exponential(1.0 / want))
                assert gen.random() == alone.random()


@pytest.mark.parametrize("pmf, horizon, block, first", [
    (BINARY, 100.0, 64, 64),
    (FinitePmf([0.5, 40.0], [0.5, 0.5]), 30.0, None, 48),
    (FinitePmf([0.5, 40.0], [0.5, 0.5]), 30.0, 100, 48),
], ids=["several-batches", "second-batches", "two-row-groups"])
def test_block_trajectories_match_each_generator_alone(pmf, horizon, block, first, monkeypatch):
    # first: events in a row's first batch; 64 cells give every row several
    # batches and a group of its own, 100 cells groups of two rows
    if block is not None:
        monkeypatch.setattr(poisson, "_BLOCK_SEGMENTS", block)
    model = PoissonFeedbackModel(pmf, horizon)
    rows = [(epochs[a:b], xs[a:b])
            for epochs, xs, bounds in poisson._groups(model, [RngSpec(66).stream(r) for r in range(64)])
            for a, b in zip(bounds[:-1], bounds[1:])]
    assert len(rows) == 64
    for r, (events, intensities) in enumerate(rows):
        epochs, xs = reference_trajectory(model, RngSpec(66).stream(r))
        assert np.array_equal(events, epochs) and np.array_equal(intensities, xs)
        assert not events.flags.writeable and not intensities.flags.writeable
    assert sum(len(events) > first for events, _ in rows) >= 2
    for r in range(16):
        alone = simulate_channel(model, RngSpec(66).stream(r))
        assert alone.horizon == horizon
        assert np.array_equal(alone.events, rows[r][0])
        assert np.array_equal(alone.intensities, rows[r][1])


def test_trajectory_segments_shape():
    traj = ChannelTrajectory(5.0, [0.0, 1.0, 3.5], [1.0, 2.0, 1.0])
    starts, ends, xs = traj.segments()
    assert np.allclose(starts, [0.0, 1.0, 3.5])
    assert np.allclose(ends, [1.0, 3.5, 5.0])
    assert np.allclose(xs, [1.0, 2.0, 1.0])
    assert len(traj.events) == 3
    with pytest.raises(ValueError):
        traj.events[0] = 7.0


def test_channel_trajectory_validation():
    ChannelTrajectory(2.0, [0.0, 0.5, 1.9], [1.0, 2.0, 1.0])
    ChannelTrajectory(2.0, [0.0], [1.0])
    for horizon, epochs, match in ((2.0, [0.0, 0.5, 0.5], "strictly increasing"),
                                   (2.0, [0.0, 0.5, 2.0], r"lie in \[0, horizon\)"),
                                   (2.0, [-0.1, 0.5, 1.0], "start at an event at time 0"),
                                   (2.0, [0.0, -0.1, 1.0], "strictly increasing"),
                                   (2.0, [], "start at an event at time 0"),
                                   (0.0, [0.0], "horizon must be positive"),
                                   (2.0, [[0.0, 1.0]], "one-dimensional")):
        with pytest.raises(ValueError, match=match):
            ChannelTrajectory(horizon, epochs, np.ones(np.shape(epochs)))
    with pytest.raises(ValueError, match="one intensity per event"):
        ChannelTrajectory(2.0, [0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="strictly positive"):
        ChannelTrajectory(2.0, [0.0, 1.0], [1.0, 0.0])
    # NaN fails every comparison, so each check asks that all values pass
    for horizon, epochs, match in ((10.0, [0.0, math.nan], "strictly increasing"),
                                   (10.0, [0.0, math.nan, 5.0], "strictly increasing"),
                                   (math.nan, [0.0], "horizon must be positive and finite"),
                                   (math.inf, [0.0], "horizon must be positive and finite")):
        with pytest.raises(ValueError, match=match):
            ChannelTrajectory(horizon, epochs, np.ones(len(epochs)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="strictly positive and finite"):
            ChannelTrajectory(10.0, [0.0, 1.0], [1.0, bad])


def test_row_checks_name_a_bad_row_as_channel_trajectory_does(monkeypatch):
    good = ([0.0, 0.5, 1.9], [1.0, 2.0, 1.0])
    # each row starts at 0, so a row boundary may go backwards
    rows = [good, ([0.0, 1.0], [2.0, 1.0]), ([0.0], [1.0])]
    epochs, vals = (np.concatenate(arrays) for arrays in zip(*rows))
    poisson._check_trajectories(2.0, epochs, vals, [0, 3, 5, 6])
    for bad in (([0.1, 0.5], [1.0, 2.0]), ([0.0, 0.5, 0.5], [1.0, 2.0, 1.0]),
                ([0.0, 2.0], [1.0, 2.0]), ([0.0, 0.5, 3.0], [1.0, 2.0, 1.0]),
                ([0.0, 1.0], [1.0, math.nan]), ([0.0, 1.0], [0.0, 1.0])):
        with pytest.raises(ValueError) as alone:
            ChannelTrajectory(2.0, *bad)
        for place in (1, 2):
            group = [good, good]
            group.insert(place, bad)
            epochs, vals = (np.concatenate(arrays) for arrays in zip(*group))
            bounds = np.cumsum([0] + [len(row[0]) for row in group])
            with pytest.raises(ValueError) as together:
                poisson._check_trajectories(2.0, epochs, vals, bounds)
            assert str(together.value) == str(alone.value)
    # drawn rows pass the same check: keeping the epochs past the horizon fails it
    monkeypatch.setattr(poisson, "_kept", lambda epochs, horizon: np.ones(epochs.shape, bool))
    with pytest.raises(ValueError, match=r"lie in \[0, horizon\)"):
        simulate_channel(PoissonFeedbackModel(BINARY, 20.0), RngSpec(1).stream(0))


def test_elapsed_and_query_times_refuse_nan():
    for elapsed in (math.nan, [0.5, math.nan], -1.0):
        with pytest.raises(ValueError, match="elapsed time must be nonnegative"):
            renewal_posterior_mean(BINARY, elapsed)
    with pytest.raises(ValueError, match="interarrival time must be nonnegative"):
        interarrival_density(BINARY, [1.0, math.nan])
    traj = ChannelTrajectory(4.0, [0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="query times"):
        state_at(traj, [0.5, math.nan])


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


def test_posterior_mean_does_not_depend_on_its_neighbours():
    # a point's value is the same alone, as a scalar or a one-point array,
    # and at any offset in a longer array
    gen = np.random.default_rng(65)
    for atoms in (2, 3, 9):
        pmf = FinitePmf(np.sort(gen.uniform(0.5, 5.0, size=atoms)), gen.dirichlet(np.ones(atoms)))
        s = gen.exponential(2.0, size=4096)
        full = renewal_posterior_mean(pmf, s)
        assert [renewal_posterior_mean(pmf, v) for v in s] == full.tolist()
        alone = np.concatenate([renewal_posterior_mean(pmf, s[i:i + 1]) for i in range(s.size)])
        assert alone.tolist() == full.tolist()
        for lo, hi in ((1, None), (3, None), (5, 4001), (7, 20), (4093, None)):
            assert renewal_posterior_mean(pmf, s[lo:hi]).tolist() == full[lo:hi].tolist()


def test_stationary_quantities_binary():
    st = stationary_intensity_pmf(BINARY)
    assert np.allclose(st.probs, [2.0 / 3.0, 1.0 / 3.0])
    assert mean_inverse_intensity(BINARY) == pytest.approx(0.75)


def test_stationary_x_log_x_identity():
    st = stationary_intensity_pmf(BINARY)
    lhs = float(np.dot(st.probs, st.support * np.log(st.support)))
    rhs = float(np.dot(BINARY.probs, np.log(BINARY.support))) / mean_inverse_intensity(BINARY)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_point_mass_elapsed_density_and_posterior():
    lam = 2.5
    pm = FinitePmf([lam], [1.0])
    t = np.linspace(0.0, 3.0, 7)
    assert np.allclose(renewal_posterior_mean(pm, t), lam)


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


def test_level_ratio_cap_follows_the_panel_layout():
    # levels {1, r} take at most log2(50 r) + 2 normalized panels, which stay
    # finite while 50 r does: up to r of about 3.6e306
    for r in (2.0, 1e50, 1e90, 1e300, 3.5e306):
        edges = poisson._geometric_edges(1.0 / r, 50.0)
        assert len(edges) - 1 <= math.log2(50.0 * r) + 2.0
    for r in (1e95, 3.5e306):
        rate = di_rate_analytic(FinitePmf([1.0, r], [0.5, 0.5]))
        assert math.isfinite(rate) and rate > 0.0
    # past the cap both integrals refuse the levels, naming them, and warn of nothing
    for support, named in (([1e-300, 1e10], r"lambda1=1e-300 and lambda2=1e\+10"),
                           ([1.0, 3.7e306], r"lambda1=1 and lambda2=3\.7e\+306"),
                           ([3.0, 1e-307, 2.0, 7e-307], r"lambda1=3 and lambda2=1e-307")):
        pmf = FinitePmf(support, np.full(len(support), 1.0 / len(support)))
        for fn in (di_rate_analytic, mean_interarrival_quadrature):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=named):
                    fn(pmf)


def test_levels_below_the_smallest_normal_float_are_refused():
    # below np.finfo(float).tiny 1/x overflows, so E[1/X] and the rate would
    # read inf and 0; the first such level is named by its place
    tiny = np.finfo(float).tiny
    base = di_rate_analytic(FinitePmf([1.0, 3.0], [0.5, 0.5]))
    at = di_rate_analytic(FinitePmf([2.0**-1000, 3 * 2.0**-1000], [0.5, 0.5]))
    assert at == base * 2.0**-1000
    assert di_rate_analytic(FinitePmf([tiny, 3 * tiny], [0.5, 0.5])) > 0.0
    for support, named in (([2.0**-1030, 3 * 2.0**-1030], "lambda1=8.69169e-311"),
                           ([1.0, 3e-310], "lambda2=3e-310"),
                           ([1.0, 0.0], "lambda2=0")):
        pmf = FinitePmf(support, [0.5, 0.5])
        for fn in (di_rate_analytic, mean_inverse_intensity, mean_interarrival_quadrature,
                   lambda pmf: PoissonFeedbackModel(pmf, 10.0)):
            with pytest.raises(ValueError, match=f"strictly positive and at least .*{named}"):
                fn(pmf)


def test_level_ratio_guard_does_not_overflow():
    # the ratio of levels 1e-300 and 1e300 overflows; its log does not
    for support in ([1e-300, 1e300], [1e300, 2.0, 1e-300]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"lambda1=1e[-+]300 and lambda\d=1e[-+]300"):
                di_rate_analytic(FinitePmf(support, np.full(len(support), 1.0 / len(support))))


def test_mean_interarrival_scales_exactly_at_small_levels():
    # the integral runs on the support normalized by its smallest level, so
    # the absolute error target holds at any scale
    base = mean_interarrival_quadrature(BINARY)
    for k in (18, 30, 60):
        pmf = FinitePmf([2.0**-k, 2.0**(1 - k)], [0.5, 0.5])
        assert mean_interarrival_quadrature(pmf) == base * 2**k


def test_entropy_at_fast_levels_shifts_by_the_log_scale():
    # at levels 2^80 {1, 2} the entropy is that of {1, 2}, integrated on the
    # same normalized panels, less 80 ln 2
    fast = interarrival_entropy(FinitePmf([2.0**80, 2.0**81], [0.5, 0.5]))
    assert abs(fast - (interarrival_entropy(BINARY) - 80 * math.log(2.0))) <= 1e-12


def test_zero_mass_level_is_not_normalized():
    # only positive-mass atoms are divided by the smallest level, so a
    # zero-mass atom at 1e-300 leaves no level of 1e-310 behind
    pmf = FinitePmf([1e-300, 1e10], [0.0, 1.0])
    assert mean_interarrival_quadrature(pmf) == pytest.approx(1e-10, rel=1e-12)
    assert unit_cost_identity_check(pmf) < 1e-8


def test_entropy_at_wide_raw_levels_is_integrated_normalized():
    # on the raw scale these levels left the Gauss-Legendre panels
    # unconverged; normalized, they are the panels di_rate_analytic uses
    support = [1.3289927154989756e198, 3.2654420053080986e244, 7.288230913433954e270]
    probs = [0.03220621648965967, 0.1699530815117523, 0.797840701998588]
    h = interarrival_entropy(FinitePmf(support, probs))
    lam = support[0]
    norm = interarrival_entropy(FinitePmf([x / lam for x in support], probs))
    assert math.isfinite(h)
    assert abs(h - (norm - math.log(lam))) <= 1e-9


def test_float_coincident_epochs_keep_the_last():
    # near t = 50 epochs are 7.1e-15 apart, so at lambda2 = 1e14 many fast
    # waits round to zero-length segments; in replica 283 of seed 0 one also
    # ends a draw batch, whose sums round apart, just below the epoch before it
    model = PoissonFeedbackModel(FinitePmf([1.0, 1e14], [0.5, 0.5]), 50.0)
    for replica in (0, 283):
        traj = simulate_channel(model, RngSpec(0).stream(replica))
        assert np.all(np.diff(traj.events) > 0)
        assert trajectory_integral([traj], lambda x, s: np.ones_like(s))[0] == pytest.approx(50.0, rel=1e-14)
    # a level whose mean wait is below that spacing is refused before any draw
    PoissonFeedbackModel(FinitePmf([1.0, 1.4e14], [0.5, 0.5]), 50.0)
    with pytest.raises(ValueError, match=r"levels 1, 1\.5e\+14: .* horizon 50"):
        PoissonFeedbackModel(FinitePmf([1.0, 1.5e14], [0.5, 0.5]), 50.0)


def test_rate_zero_for_deterministic_intensity():
    assert di_rate_analytic(FinitePmf([3.0], [1.0])) == 0.0
    pm = FinitePmf([1.0, 3.0], [1.0, 0.0])
    assert di_rate_analytic(pm) == 0.0
    # nearly equal levels: a rounding residue below zero is clamped
    assert di_rate_analytic(FinitePmf([1.0, 1.0 + 1e-9], [0.5, 0.5])) >= 0.0


def test_rate_nonnegative_random_sweep():
    gen = np.random.default_rng(31)
    for _ in range(10):
        pmf = random_positive_pmf(gen)
        assert di_rate_analytic(pmf) >= 0.0


def test_rate_against_plugin_oracle():
    rate = di_rate_analytic(BINARY)
    oracle = plugin_rate_oracle(BINARY, 1_000_000, seed=77)
    assert abs(rate - oracle) < 1e-3


def test_rate_matches_the_entropy_form_oracle():
    # the relative-entropy integral against h(Y) - h(Y|X) on random laws of
    # 2-4 atoms with levels from e^-5 to e^5
    gen = np.random.default_rng(38)
    for _ in range(300):
        k = int(gen.integers(2, 5))
        pmf = FinitePmf(np.exp(gen.uniform(-5.0, 5.0, size=k)), gen.dirichlet(np.ones(k)))
        oracle = entropy_form_rate(pmf)
        assert abs(di_rate_analytic(pmf) - oracle) <= 1e-10 * oracle


def test_rate_mc_point_mass_is_exactly_zero():
    # from 32 replicas on the controls are fitted: M and D read exactly 0 and
    # are dropped for their zero variance, and C, which varies, fits a
    # coefficient of 0 on the constant Z
    model = PoissonFeedbackModel(FinitePmf([2.0], [1.0]), 200.0)
    for replicas in (2, 40):
        est = di_rate_mc(model, rng=3, replicas=replicas, burn_in=5.0)
        assert est.value == 0.0
        assert est.stderr == 0.0
    # a zero-weight level is no level: both weight endpoints of {1, 2}
    for probs in ([1.0, 0.0], [0.0, 1.0]):
        model = PoissonFeedbackModel(FinitePmf([1.0, 2.0], probs), 50.0)
        est = di_rate_mc(model, rng=3, replicas=48)
        assert est.value == 0.0
        assert est.stderr == 0.0


def test_rate_mc_stderr_is_calibrated():
    # the fitted estimate's stderr is its spread: over 3 weights and 40 seeds
    # the z-scores against the analytic rate have mean near 0 and sd near 1
    zs = []
    for p in (0.1, 0.5, 0.9):
        pmf = FinitePmf([1.0, 2.0], [p, 1.0 - p])
        model = PoissonFeedbackModel(pmf, 50.0)
        target = di_rate_analytic(pmf)
        for seed in range(40):
            est = di_rate_mc(model, rng=seed, replicas=48)
            zs.append((est.value - target) / est.stderr)
    assert abs(np.mean(zs)) < 0.3
    assert 0.7 <= np.std(zs, ddof=1) <= 1.3


def test_rate_mc_scales_exactly_with_the_levels():
    # levels 2^k {1, 2} over horizon 50 / 2^k dilate time by 2^-k: the same
    # draws give 2^k times the rate and its stderr, since the replica
    # statistics scale by powers of two, out to where raw squares overflow
    # (k = 1000) or underflow (k = -1000)
    def rate(scale):
        model = PoissonFeedbackModel(FinitePmf([scale, 2.0 * scale], [0.5, 0.5]), 50.0 / scale)
        return di_rate_mc(model, rng=4, replicas=48)

    base = rate(1.0)
    for k in (-1000, -500, -100, 100, 500, 1000):
        est = rate(2.0**k)
        assert abs(est.value / 2.0**k - base.value) <= 1e-12 * base.value
        assert abs(est.stderr / 2.0**k - base.stderr) <= 1e-12 * base.stderr


def test_rate_mc_matches_analytic_binary():
    model = PoissonFeedbackModel(BINARY, 3000.0)
    est = di_rate_mc(model, rng=12, replicas=3)
    target = di_rate_analytic(BINARY)
    assert abs(est.value - target) < max(0.03 * target, 4.0 * est.stderr)


def test_rate_mc_parallel_matches_serial():
    q = FinitePmf([1.0, 2.0], [0.9, 0.1])
    for estimate in (functools.partial(di_rate_mc, PoissonFeedbackModel(BINARY, 300.0)),
                     functools.partial(mismatched_relent_poisson, BINARY, q, 300.0)):
        a = estimate(rng=8, replicas=4, jobs=1)
        b = estimate(rng=8, replicas=4, jobs=2)
        assert a.value == b.value and a.stderr == b.stderr


def test_rate_mc_validation():
    model = PoissonFeedbackModel(BINARY, 20.0)
    with pytest.raises(ValueError):
        di_rate_mc(model, rng=1, replicas=2, burn_in=25.0)
    with pytest.raises(TypeError):
        di_rate_mc(model, rng=np.random.default_rng(0), replicas=2)


@pytest.mark.parametrize("burn_in", [-40.0, -math.inf, math.nan])
def test_rate_mc_refuses_a_burn_in_below_zero_or_nan(burn_in, monkeypatch):
    # -40 once integrated over [0, T) but divided by T + 40, nan read nan and
    # -inf read an exact 0.0 +- 0.0
    model = PoissonFeedbackModel(BINARY, 50.0)
    streams = count_streams(monkeypatch)
    with pytest.raises(ValueError, match="burn-in must be nonnegative"):
        di_rate_mc(model, rng=3, replicas=48, burn_in=burn_in)
    assert streams == [0]


@pytest.mark.parametrize("support, probs", [
    ([1.0, 2.0], [0.5, 0.5]),
    ([1.0, 2.0], [0.9, 0.1]),
    ([1.0, 10.0], [0.5, 0.5]),
    ([1.0, 100.0], [0.5, 0.5]),
    ([1.0, 3.0, 7.0], [1 / 3, 1 / 3, 1 / 3]),
], ids=["1-2", "1-2-p0.1", "1-10", "1-100", "1-3-7"])
def test_sampled_output_di_rate_tends_to_the_analytic_rate(support, probs):
    # the paper's definition: the DI rate of the output sampled at step dt
    # converges to the continuous-time rate at first order in dt, and two
    # Richardson steps over dt max x in {1e-2, 5e-3, 2.5e-3} leave O(dt^3)
    pmf = FinitePmf(support, probs)
    exact = di_rate_analytic(pmf)
    rates = [sampled_poisson_di_rate(pmf, c / max(support)) for c in (1e-2, 5e-3, 2.5e-3)]
    errors = [r - exact for r in rates]
    assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.05)
    assert errors[1] / errors[2] == pytest.approx(2.0, abs=0.05)
    first = [2.0 * b - a for a, b in zip(rates, rates[1:])]
    assert abs((4.0 * first[1] - first[0]) / 3.0 - exact) <= 1e-9


@pytest.mark.parametrize("support, probs, scale, max_n", [
    ([1.0, 2.0], [0.5, 0.5], 0.5, 6),
    ([1.0, 10.0], [0.5, 0.5], 0.1, 6),
    ([1.0, 3.0, 7.0], [1 / 3, 1 / 3, 1 / 3], 0.3, 4),
], ids=["1-2", "1-10", "1-3-7"])
def test_sampled_output_di_by_enumeration_matches_the_recursion(support, probs, scale, max_n):
    # the paper's partition definition on n steps: directed_info of the
    # enumerated joint of (X^n, Y^n) is the quiet-count recursion, feedback
    # (X redrawn after each event) keeps it well below the mutual
    # information, and far from the start the recursion's per-step term is
    # the stationary rate times dt
    pmf = FinitePmf(support, probs)
    dt = scale / max(support)
    terms = sampled_poisson_di(pmf, dt, 800)
    for n in range(1, max_n + 1):
        joint = sampled_poisson_joint(pmf, dt, n)
        di = directed_info(joint)
        assert abs(di - terms[:n].sum()) <= 1e-12
    if max_n == 6:
        assert mutual_information(joint) - di > 0.1
    assert abs(terms[799] / dt - sampled_poisson_di_rate(pmf, dt)) <= 1e-9


def test_hazard_log_hazard_time_average_identity():
    # the long-run time average of g ln g equals (1 - h(Y)) / E[1/X]
    # because g is the hazard rate of the interarrival law and the survival
    # function evaluated at an interarrival draw is uniform on (0, 1)
    target = (1.0 - interarrival_entropy(BINARY)) / mean_inverse_intensity(BINARY)
    model = PoissonFeedbackModel(BINARY, 3000.0)
    burn_in = default_burn_in(BINARY)
    vals = []
    for rep in range(3):
        traj = simulate_channel(model, RngSpec(41).stream(rep))

        def glng(x, s):
            g = renewal_posterior_mean(BINARY, s)
            return g * np.log(g)

        vals.append(
            # the first panel is 1/(max x - min x) wide
            trajectory_integral([traj], glng, t_lo=burn_in, panel=1.0)[0] / (model.horizon - burn_in)
        )
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) < max(0.02 * abs(target), 4.0 * se)


def test_trajectory_integral_of_constant_is_window_length():
    model = PoissonFeedbackModel(BINARY, 50.0)
    traj = simulate_channel(model, RngSpec(2).stream(0))
    (val,) = trajectory_integral([traj], lambda x, s: np.ones_like(s), t_lo=10.0)
    assert val == pytest.approx(40.0, rel=1e-9)


@pytest.mark.parametrize("lam2, block", [(2.0, None), (100.0, None), (1e4, None), (100.0, 64)],
                         ids=["2.0", "100.0", "10000.0", "100.0-blocks"])
def test_trajectory_integral_of_posterior_mean_matches_closed_form(lam2, block, monkeypatch):
    # with Z(s) = sum p(x) e^{-sx}, g = -d ln Z / ds, so the piece [a, b] of
    # elapsed time in a segment contributes -ln Z(b) + ln Z(a)
    if block is not None:
        # about 400 segments, so the simulation spans several draw batches and
        # the integral several windows
        monkeypatch.setattr(poisson, "_BLOCK_SEGMENTS", block)
    def neg_log_z(s):
        return s - np.log(0.5 + 0.5 * np.exp(-s * (lam2 - 1.0)))

    pmf = FinitePmf([1.0, lam2], [0.5, 0.5])
    traj = simulate_channel(PoissonFeedbackModel(pmf, 200.0), RngSpec(23).stream(0))
    if block is not None:
        # the simulation also drew in blocks: its batches join without a gap
        epochs = traj.events
        assert len(epochs) > 4 * block
        assert epochs[0] == 0.0 and np.all(np.diff(epochs) > 0)
        assert 200.0 - epochs[-1] < 20.0
    starts, ends, _ = traj.segments()
    for t_lo in (0.0, 37.3):
        inside = ends > t_lo
        lo = np.maximum(starts, t_lo)[inside] - starts[inside]
        hi = ends[inside] - starts[inside]
        closed = float(np.sum(neg_log_z(hi) - neg_log_z(lo)))
        (val,) = trajectory_integral([traj], lambda x, s: renewal_posterior_mean(pmf, s),
                                     t_lo, panel=1.0 / (lam2 - 1.0))
        assert val == pytest.approx(closed, rel=1e-12, abs=0.0)


def _posterior_loss(pmf):
    return lambda x, s: poisson_loss(x, renewal_posterior_mean(pmf, s))


def _excess_loss(p_pmf, q_pmf):
    def loss(x, s):
        gp = renewal_posterior_mean(p_pmf, s)
        gq = renewal_posterior_mean(q_pmf, s)
        return x * (np.log(gp) - np.log(gq)) + gq - gp
    return loss


def _panel(*pmfs):
    support = np.concatenate([pmf.support for pmf in pmfs])
    return 1.0 / (support.max() - support.min())


def _hazards(model, pmfs, panel):
    """The estimators' (A, B) predictors: None for the true intensity, else the pmf's table."""
    return tuple(None if pmf is None else poisson._LogHazard(pmf, panel, model.horizon)
                 for pmf in pmfs)


def _block_rows(model, pmfs, t_lo, panel, scale, seed, replicas):
    """Each replica's (Z, M, C, D) row, drawn and integrated in the estimators' blocks of 16 streams."""
    gens = list(RngSpec(seed).streams(0, replicas))
    hazards = _hazards(model, pmfs, panel)
    return np.concatenate([poisson._path_block(model, hazards, t_lo, scale, gens[a:a + 16])
                           for a in range(0, replicas, 16)])


@pytest.mark.parametrize("jobs", [1, 2])
def test_block_estimates_match_each_trajectory_alone(jobs):
    # 37 replicas: two full 16-trajectory blocks and a partial one.  Each
    # replica's closed-form Z is its trajectory's piecewise quadrature alone
    # to the quadrature's precision, and the estimate, with its three controls
    # engaged, is the fit on those rows whatever the job count
    replicas = 37
    three = FinitePmf([0.5, 1.3, 2.9], [0.2, 0.5, 0.3])
    nine = FinitePmf(np.linspace(0.5, 4.5, 9), np.arange(1.0, 10.0) / 45.0)
    for pmf, horizon in ((BINARY, 60.0), (FinitePmf([1.0, 10.0], [0.5, 0.5]), 40.0),
                         (FinitePmf([1.0, 100.0], [0.5, 0.5]), 40.0), (three, 80.0), (nine, 40.0)):
        model = PoissonFeedbackModel(pmf, horizon)
        burn_in = default_burn_in(pmf)
        oracle = per_trajectory_poisson_values(model, _posterior_loss(pmf), burn_in, _panel(pmf),
                                               horizon - burn_in, 61, replicas)
        rows = _block_rows(model, (None, pmf), burn_in, _panel(pmf), horizon - burn_in, 61, replicas)
        np.testing.assert_allclose(rows[:, 0], oracle, rtol=1e-10, atol=0.0)
        est = di_rate_mc(model, rng=61, replicas=replicas, jobs=jobs)
        assert repr(est) == repr(di_rate_mc(model, rng=61, replicas=replicas, jobs=1))
        assert est.value == pytest.approx(controlled_mean(*rows.T), rel=1e-12)
        q = FinitePmf(pmf.support, np.linspace(1.0, 2.0, len(pmf)) / np.linspace(1.0, 2.0, len(pmf)).sum())
        oracle = per_trajectory_poisson_values(model, _excess_loss(pmf, q), 0.0, _panel(pmf, q),
                                               1.0, 62, replicas)
        rows = _block_rows(model, (pmf, q), 0.0, _panel(pmf, q), 1.0, 62, replicas)
        np.testing.assert_allclose(rows[:, 0], oracle, rtol=1e-10, atol=0.0)
        est = mismatched_relent_poisson(pmf, q, horizon, rng=62, replicas=replicas, jobs=jobs)
        assert repr(est) == repr(mismatched_relent_poisson(pmf, q, horizon, rng=62,
                                                           replicas=replicas, jobs=1))
        assert est.value == pytest.approx(controlled_mean(*rows.T), rel=1e-12)


def test_closed_form_holds_for_levels_over_1e308_apart():
    # g / min x then overflows, so the log-ratio is taken as a difference of logs
    p = FinitePmf([1e-300, 1e10], [0.5, 0.5])
    q = FinitePmf([1e-300, 1e10], [0.3, 0.7])
    model = PoissonFeedbackModel(p, 50.0)
    for pmfs, t_lo, loss in (((None, p), 1e-9, _posterior_loss(p)), ((p, q), 0.0, _excess_loss(p, q))):
        oracle = per_trajectory_poisson_values(model, loss, t_lo, _panel(p, q), 1.0, 5, 20)
        rows = _block_rows(model, pmfs, t_lo, _panel(p, q), 1.0, 5, 20)
        np.testing.assert_allclose(rows[:, 0], oracle, rtol=1e-10, atol=0.0)
        assert np.isfinite(rows).all()


@pytest.mark.parametrize("lam2", [2.0, 10.0, 100.0])
def test_martingale_controls_have_mean_zero(lam2):
    # M, the compensated counting process of ln(X / g) (or of ln(g_P / g_Q)
    # less its constant), C = N - int X dt and D = int (g - X) dt, g the
    # model's own posterior mean, each have mean exactly 0 under the
    # channel's law, burn-in or not
    pmf = FinitePmf([1.0, lam2], [0.5, 0.5])
    q = FinitePmf([1.0, lam2], [0.8, 0.2])
    model = PoissonFeedbackModel(pmf, 30.0)
    burn_in = default_burn_in(pmf)
    for pmfs, t_lo, scale in (((None, pmf), burn_in, 30.0 - burn_in), ((pmf, q), 0.0, 1.0)):
        block = functools.partial(poisson._path_block, model, _hazards(model, pmfs, _panel(pmf, q)),
                                  t_lo, scale)
        _, *controls = replicated_estimates(block, rng=68, replicas=400)
        assert len(controls) == 3
        for est in controls:
            assert est.stderr > 0.0 and abs(est.value) < 4.0 * est.stderr


def test_block_integral_does_not_depend_on_the_piece_limit(monkeypatch):
    model = PoissonFeedbackModel(FinitePmf([1.0, 3.0], [0.4, 0.6]), 50.0)
    trajs = [simulate_channel(model, RngSpec(63).stream(r)) for r in range(16)]
    loss = _posterior_loss(model.pmf)
    block = trajectory_integral(trajs, loss, 10.0, 0.5)
    assert len(block) == 16 and all(type(v) is float for v in block)
    # a trajectory's value is the same alone, in a block and in a lazy iterable
    assert [trajectory_integral([t], loss, 10.0, 0.5)[0] for t in trajs] == block
    assert trajectory_integral(iter(trajs), loss, 10.0, 0.5) == block
    # three segments per integrand call split every trajectory over many calls
    monkeypatch.setattr(poisson, "_CHUNK_SEGMENTS", 3)
    assert trajectory_integral(trajs, loss, 10.0, 0.5) == block
    assert trajectory_integral(trajs[::-1], loss, 10.0, 0.5) == block[::-1]
    # one integrand call per trajectory
    monkeypatch.setattr(poisson, "_CHUNK_SEGMENTS", 2**20)
    assert trajectory_integral(trajs, loss, 10.0, 0.5) == block


def test_block_integral_edge_cases():
    loss = _posterior_loss(BINARY)
    assert trajectory_integral([], loss) == []
    assert trajectory_integral(iter([]), loss, 5.0, 1.0) == []
    short = ChannelTrajectory(20.0, [0.0, 3.0], [1.0, 2.0])
    long = ChannelTrajectory(50.0, [0.0, 30.0], [2.0, 1.0])
    ones = trajectory_integral([long, short], lambda x, s: np.ones_like(s), 10.0)
    assert ones == pytest.approx([40.0, 10.0], rel=1e-14)
    # t_lo is checked against each trajectory's own horizon
    for t_lo in (30.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="need 0 <= t_lo < horizon"):
            trajectory_integral([long, short], loss, t_lo)


def test_trajectory_integral_refuses_a_panel_that_is_not_positive():
    traj = ChannelTrajectory(20.0, [0.0, 3.0], [1.0, 2.0])
    loss = _posterior_loss(BINARY)
    # 0 once divided by zero, -1 hit a math domain error and nan passed as inf
    for panel in (0.0, 0, -1.0, -math.inf, math.nan):
        for trajs in ([traj], []):
            with pytest.raises(ValueError, match="panel must be positive"):
                trajectory_integral(trajs, loss, 0.0, panel)
    assert trajectory_integral([traj], loss) == trajectory_integral([traj], loss, 0.0, math.inf)


def test_trajectory_integral_refuses_a_panel_below_the_horizons_float_spacing():
    traj = ChannelTrajectory(20.0, [0.0, 3.0], [1.0, 2.0])
    ones = lambda x, s: np.ones_like(s)  # noqa: E731
    # 5e-324 overflowed the cut count, and 1e-300 made about 1,000 cuts per segment
    for panel in (5e-324, 1e-300, math.ulp(20.0) / 2):
        with pytest.raises(ValueError, match=f"panel {panel!r} is below the float spacing"):
            trajectory_integral([traj], ones, 0.0, panel)
    # a panel of one float spacing is still cut and integrated
    assert trajectory_integral([traj], ones, 0.0, math.ulp(20.0)) == pytest.approx([20.0], rel=1e-12)


def test_block_integral_memory_is_bounded_by_the_piece_limit(monkeypatch):
    # 16 trajectories of about 2,700 segments, in row groups of nine: one
    # integrand call on a whole group's 17 points per segment held some
    # 18 MiB of temporaries
    model = PoissonFeedbackModel(BINARY, 2000.0)

    def peak():
        tracemalloc.start()
        try:
            di_rate_mc(model, rng=64, replicas=16)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() <= 8 * 2**20
    monkeypatch.setattr(poisson, "_CHUNK_SEGMENTS", 2**20)
    assert peak() > 14 * 2**20


def test_trajectory_integral_memory_is_bounded_by_the_chunk_size(monkeypatch):
    # four trajectories of about 2e4 segments and 4.2 pieces per segment:
    # windows of 2**15 segments held some 9 MiB of piece layout, and one
    # integrand call on a whole trajectory some 80 MiB of temporaries
    pmf = FinitePmf([1.0, 100.0], [0.5, 0.5])
    model = PoissonFeedbackModel(pmf, 1e4)
    trajs = [simulate_channel(model, RngSpec(7).stream(r)) for r in range(4)]
    loss = _posterior_loss(pmf)

    def peak():
        tracemalloc.start()
        try:
            trajectory_integral(trajs, loss, 0.0, _panel(pmf))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() <= 4 * 2**20
    monkeypatch.setattr(poisson, "_CHUNK_SEGMENTS", 2**20)
    assert peak() > 40 * 2**20


def test_block_draw_memory_is_bounded_by_row_groups():
    # at horizon 1e4 a first batch holds 17,343 events, so each row is its own
    # group; drawing all 16 rows at once held some 19 MiB.  The value is the
    # one the per-Generator draws give.
    model = PoissonFeedbackModel(BINARY, 1e4)
    tracemalloc.start()
    try:
        est = di_rate_mc(model, rng=3, replicas=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert est.value == 0.07183338624529689


def test_state_at_and_occupancy_manual():
    traj = ChannelTrajectory(4.0, [0.0, 1.0, 3.0], [1.0, 2.0, 1.0])
    elapsed, inten = state_at(traj, [0.5, 2.5, 3.5])
    assert np.allclose(elapsed, [0.5, 1.5, 0.5])
    assert np.allclose(inten, [1.0, 2.0, 1.0])
    occ = occupancy_fractions(traj, [1.0, 2.0])
    assert np.allclose(occ, [0.5, 0.5])
    occ_tail = occupancy_fractions(traj, [1.0, 2.0], t_lo=2.0, t_hi=4.0)
    assert np.allclose(occ_tail, [0.5, 0.5])
    with pytest.raises(ValueError):
        state_at(traj, [4.0])
    # an empty or reversed window, or one past the horizon, has no fractions
    for t_lo, t_hi in ((2.0, 2.0), (3.0, 1.0), (0.0, 4.5), (-1.0, 2.0)):
        with pytest.raises(ValueError, match="t_lo < t_hi <= horizon"):
            occupancy_fractions(traj, [1.0, 2.0], t_lo=t_lo, t_hi=t_hi)


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
    # from 32 replicas on the controls are fitted; for the point masses at
    # the weight endpoints D reads exactly 0 as well and is dropped
    for p in (BINARY, FinitePmf([1.0, 2.0], [1.0, 0.0]), FinitePmf([1.0, 2.0], [0.0, 1.0])):
        for replicas in (2, 40):
            est = mismatched_relent_poisson(p, p, 100.0, rng=4, replicas=replicas)
            assert est.value == 0.0
            assert est.stderr == 0.0


def test_mismatch_of_point_masses_fits_without_a_singular_system():
    # at 48 replicas the controls are fitted.  A point-mass P has D = 0,
    # dropped for its zero variance, and with Q a point mass at another
    # level ln(g_P / g_Q) is a constant, which M leaves to C, so no two
    # controls are multiples of each other
    for probs in ([1.0, 0.0], [0.0, 1.0]):
        est = mismatched_relent_poisson(FinitePmf([1.0, 2.0], probs), BINARY, 50.0, rng=5,
                                        replicas=48)
        assert math.isfinite(est.value) and est.value > 0.0 and est.stderr > 0.0
    # two homogeneous Poisson processes: T (y - x + x ln(x / y)) for rates x
    # and y.  Had M kept ln(x / y) as a multiple of C, 6 of these 40 runs
    # would have stopped on an exactly singular system
    for x, y in ((1.0, 2.0), (2.0, 1.0)):
        for seed in range(20):
            est = mismatched_relent_poisson(FinitePmf([x], [1.0]), FinitePmf([y], [1.0]), 50.0,
                                            rng=seed, replicas=48)
            assert est.value == pytest.approx(50.0 * (y - x + x * math.log(x / y)), rel=1e-12)


def test_mismatch_refuses_a_nonpositive_q_level_before_any_draw(monkeypatch):
    streams = count_streams(monkeypatch)
    for level in (0.0, -1.0):
        with pytest.raises(ValueError, match="strictly positive"):
            mismatched_relent_poisson(BINARY, FinitePmf([level, 1.0], [0.5, 0.5]), 20.0, rng=4,
                                      replicas=2)
    assert streams == [0]


def test_mismatch_nonnegative_and_seed_stable():
    q = FinitePmf([1.0, 2.0], [0.9, 0.1])
    a = mismatched_relent_poisson(BINARY, q, 400.0, rng=14, replicas=4)
    b = mismatched_relent_poisson(BINARY, q, 400.0, rng=15, replicas=4)
    assert a.value > 0.0
    assert b.value > 0.0
    spread = math.hypot(a.stderr, b.stderr)
    assert abs(a.value - b.value) < 4.0 * spread


def test_mismatch_renewal_oracle_sides_agree():
    # the estimation side of the renewal equation equals the definition side
    # at a finite horizon, without Monte Carlo
    gen = np.random.default_rng(4)
    for _ in range(3):
        p, q = random_positive_pmf(gen), random_positive_pmf(gen)
        top = max(p.support.max(), q.support.max())
        h = 5.0 / math.ceil(5.0 * top / 5e-3)  # h * max x <= 5e-3, 5 a whole number of steps
        estimation, definition = mismatch_renewal_values(p, q, 5.0, h)
        assert estimation > 0.0
        assert abs(estimation - definition) < 1e-8


def test_mismatch_estimate_matches_the_renewal_oracle():
    q = FinitePmf([1.0, 3.0], [0.3, 0.7])
    value = mismatch_renewal_values(BINARY, q, 50.0, 0.02)
    # both sides read 4.1578798 at h = 5e-3; h = 0.02 is far inside the Monte Carlo noise
    assert value == pytest.approx((4.157879830, 4.157879830), abs=2e-5)
    est = mismatched_relent_poisson(BINARY, q, 50.0, rng=17, replicas=64)
    assert abs(est.value - value[0]) < 4.0 * est.stderr


def test_di_renewal_oracle_sides_agree():
    # the causal-estimation loss integrates to the directed information at a
    # finite horizon: the paper's Poisson identity, without Monte Carlo
    gen = np.random.default_rng(4)
    for _ in range(3):
        pmf = random_positive_pmf(gen)
        h = 5.0 / math.ceil(5.0 * pmf.support.max() / 5e-3)  # h * max x <= 5e-3
        estimation, definition = di_renewal_values(pmf, 5.0, h)
        assert estimation > 0.0
        assert abs(estimation - definition) < 1e-8


def test_di_rate_after_burn_in_matches_the_renewal_oracle():
    # both sides read 3.6026985776 at h = 5e-3; h = 0.02 is within 6e-6 of it
    assert di_renewal_values(BINARY, 50.0, 0.02) == pytest.approx((3.6026985776,) * 2, abs=2e-5)
    # a short horizon, where the burn-in of 10 cuts off half the path: the
    # estimate averages the loss over [10, 20), whose mean is (V(20) - V(10)) / 10
    model = PoissonFeedbackModel(BINARY, 20.0)
    assert default_burn_in(BINARY) == 10.0
    expected = (di_renewal_values(BINARY, 20.0, 0.02)[0] - di_renewal_values(BINARY, 10.0, 0.02)[0]) / 10.0
    est = di_rate_mc(model, rng=5, replicas=64)
    assert abs(est.value - expected) < 4.0 * est.stderr
