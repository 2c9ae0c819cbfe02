import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (
    count_streams,
    di_renewal_values,
    mc_entropy_oracle,
    mismatch_renewal_values,
    per_trajectory_poisson_values,
    plugin_rate_oracle,
    random_positive_pmf,
    reference_trajectory,
)
from ctdi import poisson
from ctdi.core import FinitePmf, RngSpec, poisson_loss
from ctdi.poisson import (
    ChannelTrajectory,
    PoissonFeedbackModel,
    default_burn_in,
    di_rate_analytic,
    di_rate_mc,
    interarrival_density,
    interarrival_entropy,
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
    trajs = list(poisson._trajectories(model, [RngSpec(66).stream(r) for r in range(64)]))
    assert len(trajs) == 64
    for r, traj in enumerate(trajs):
        epochs, xs = reference_trajectory(model, RngSpec(66).stream(r))
        assert np.array_equal(traj.events, epochs) and np.array_equal(traj.intensities, xs)
        assert traj.horizon == horizon and not traj.events.flags.writeable
    assert sum(len(t.events) > first for t in trajs) >= 2
    for r in range(16):
        alone = simulate_channel(model, RngSpec(66).stream(r))
        assert np.array_equal(alone.events, trajs[r].events)
        assert np.array_equal(alone.intensities, trajs[r].intensities)


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
    # _check_resolvable's derivation counts at most log2(50 r) + 2 entropy
    # panels for levels {1, r}; levels past its cap are a usage error, not
    # a quadrature that fails to converge
    for r in (2.0, 1e50, 1e90):
        edges = poisson._panel_edges(FinitePmf([1.0, r], [0.5, 0.5]), "entropy")
        assert len(edges) - 1 <= math.log2(50.0 * r) + 2.0
    assert di_rate_analytic(FinitePmf([1.0, 1e90], [0.5, 0.5])) > 0.0
    for support, named in (([1.0, 1e95], r"lambda1=1 and lambda2=1e\+95"),
                           ([3.0, 1e-95, 2.0, 7e-95], r"lambda1=3 and lambda2=1e-95")):
        pmf = FinitePmf(support, np.full(len(support), 1.0 / len(support)))
        with pytest.raises(ValueError, match=named):
            di_rate_analytic(pmf)


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
        for fn in (di_rate_analytic, mean_inverse_intensity, interarrival_entropy,
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


def test_entropy_tail_bound_doubles_at_fast_levels():
    # at levels 2^80 {1, 2} the first truncation point 50/lam leaves a tail
    # envelope above 1/e, so the tail bound doubles it
    fast = interarrival_entropy(FinitePmf([2.0**80, 2.0**81], [0.5, 0.5]))
    assert abs(fast - (interarrival_entropy(BINARY) - 80 * math.log(2.0))) <= 1e-12


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
    # nearly equal levels: the entropy difference cancels to below zero
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


@pytest.mark.parametrize("jobs", [1, 2])
def test_block_estimates_match_each_trajectory_alone(jobs):
    # 37 replicas: two full 16-trajectory blocks and a partial one
    replicas = 37
    three = FinitePmf([0.5, 1.3, 2.9], [0.2, 0.5, 0.3])
    nine = FinitePmf(np.linspace(0.5, 4.5, 9), np.arange(1.0, 10.0) / 45.0)
    for pmf, horizon in ((BINARY, 60.0), (FinitePmf([1.0, 100.0], [0.5, 0.5]), 40.0), (three, 80.0),
                         (nine, 40.0)):
        model = PoissonFeedbackModel(pmf, horizon)
        burn_in = default_burn_in(pmf)
        oracle = per_trajectory_poisson_values(model, _posterior_loss(pmf), burn_in, _panel(pmf),
                                               horizon - burn_in, 61, replicas)
        est = di_rate_mc(model, rng=61, replicas=replicas, jobs=jobs)
        assert repr(est.value) == repr(float(np.mean(oracle)))
        assert repr(est.stderr) == repr(float(np.std(oracle, ddof=1) / math.sqrt(replicas)))
        q = FinitePmf(pmf.support, np.linspace(1.0, 2.0, len(pmf)) / np.linspace(1.0, 2.0, len(pmf)).sum())
        oracle = per_trajectory_poisson_values(model, _excess_loss(pmf, q), 0.0, _panel(pmf, q),
                                               1.0, 62, replicas)
        est = mismatched_relent_poisson(pmf, q, horizon, rng=62, replicas=replicas, jobs=jobs)
        assert repr(est.value) == repr(float(np.mean(oracle)))
        assert repr(est.stderr) == repr(float(np.std(oracle, ddof=1) / math.sqrt(replicas)))


def test_block_integral_does_not_depend_on_the_piece_limit(monkeypatch):
    model = PoissonFeedbackModel(FinitePmf([1.0, 3.0], [0.4, 0.6]), 50.0)
    trajs = [simulate_channel(model, RngSpec(63).stream(r)) for r in range(16)]
    loss = _posterior_loss(model.pmf)
    block = trajectory_integral(trajs, loss, 10.0, 0.5)
    assert len(block) == 16 and all(type(v) is float for v in block)
    # a trajectory's value is the same alone, in a block and in a lazy iterable
    assert [trajectory_integral([t], loss, 10.0, 0.5)[0] for t in trajs] == block
    assert trajectory_integral(iter(trajs), loss, 10.0, 0.5) == block
    # three pieces per integrand call split every trajectory over many calls
    monkeypatch.setattr(poisson, "_CHUNK_PIECES", 3)
    assert trajectory_integral(trajs, loss, 10.0, 0.5) == block
    assert trajectory_integral(trajs[::-1], loss, 10.0, 0.5) == block[::-1]
    # windows of 200 segments hold two or three of these trajectories whole
    monkeypatch.setattr(poisson, "_BLOCK_SEGMENTS", 200)
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
    # 16 trajectories of about 2,700 segments: one integrand call on a whole
    # window of about 2^15 segments held some 36 MB of temporaries
    model = PoissonFeedbackModel(BINARY, 2000.0)

    def peak():
        tracemalloc.start()
        try:
            di_rate_mc(model, rng=64, replicas=16)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() <= 16 * 2**20
    monkeypatch.setattr(poisson, "_CHUNK_PIECES", 2**20)
    assert peak() > 24 * 2**20


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
    assert est.value == 0.07183338624529678


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
