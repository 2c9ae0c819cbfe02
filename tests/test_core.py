import math

import numpy as np
import pytest

from ctdi.core import (
    DiEstimate,
    EventTimes,
    FinitePmf,
    RngSpec,
    SamplePath,
    TimePartition,
    chop,
    concat,
    is_refinement,
    map_replicas,
    poisson_loss,
    refine,
    replicated_estimate,
)


def test_sample_path_basics():
    p = SamplePath(0.0, 0.5, [1.0, 2.0, 3.0])
    assert len(p) == 3
    assert p.duration == pytest.approx(1.5)
    assert np.allclose(p.times, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        p.values[0] = 7.0


def test_sample_path_validation():
    with pytest.raises(ValueError):
        SamplePath(0.0, 0.0, [1.0])
    with pytest.raises(ValueError):
        SamplePath(0.0, 1.0, [])
    with pytest.raises(ValueError):
        SamplePath(0.0, 1.0, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        SamplePath(0.0, 1.0, [np.nan])


def test_event_times_validation():
    EventTimes(2.0, [0.0, 0.5, 1.9])
    EventTimes(2.0, [])
    with pytest.raises(ValueError):
        EventTimes(2.0, [0.5, 0.5])
    with pytest.raises(ValueError):
        EventTimes(2.0, [0.5, 2.0])
    with pytest.raises(ValueError):
        EventTimes(2.0, [-0.1])


def test_finite_pmf_validation():
    pm = FinitePmf([1.0, 2.0], [0.25, 0.75])
    assert pm.mean() == pytest.approx(1.75)
    with pytest.raises(ValueError):
        FinitePmf([1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        FinitePmf([1.0, 2.0], [0.5, 0.6])
    with pytest.raises(ValueError):
        FinitePmf([1.0, 2.0], [-0.1, 1.1])


def test_finite_pmf_trimmed():
    pm = FinitePmf([1.0, 2.0, 3.0], [0.5, 0.0, 0.5])
    tr = pm.trimmed()
    assert np.allclose(tr.support, [1.0, 3.0])
    assert np.allclose(tr.probs, [0.5, 0.5])


def test_poisson_loss_values():
    assert poisson_loss(1.0, 1.0) == 0.0
    assert poisson_loss(0.0, 0.7) == pytest.approx(0.7)
    assert poisson_loss(2.0, 1.0) == pytest.approx(2.0 * math.log(2.0) - 1.0)
    assert poisson_loss(1.0, 0.0) == math.inf
    assert poisson_loss(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        poisson_loss(-1.0, 1.0)
    with pytest.raises(ValueError):
        poisson_loss(1.0, -1.0)


def test_poisson_loss_vectorized_and_nonnegative():
    gen = np.random.default_rng(11)
    x = gen.uniform(0.0, 5.0, size=200)
    xh = gen.uniform(0.01, 5.0, size=200)
    vals = poisson_loss(x, xh)
    assert vals.shape == (200,)
    assert np.all(vals >= 0.0)
    # zero loss exactly on the diagonal, strictly positive off it
    assert np.all(vals[np.abs(x - xh) > 1e-9] > 0.0)
    assert np.allclose(poisson_loss(x, x), 0.0)


def test_poisson_loss_minimized_by_conditional_mean():
    # the objective separates over y, so per-symbol search over a quantized
    # codebook is an exhaustive search over quantized estimator maps
    gen = np.random.default_rng(7)
    for _ in range(20):
        nx = int(gen.integers(2, 4))
        ny = int(gen.integers(2, 4))
        support = np.sort(gen.uniform(0.0, 3.0, size=nx))
        joint = gen.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
        py = joint.sum(axis=0)
        cond_mean = (support[:, None] * joint).sum(axis=0) / py
        risk_mean = 0.0
        risk_best_quantized = 0.0
        grid = np.linspace(max(support.min(), 1e-6), support.max() + 1.0, 60)
        for j in range(ny):
            px_given_y = joint[:, j] / py[j]
            losses = poisson_loss(support[:, None], grid[None, :])
            risk_grid = px_given_y @ losses
            est = max(cond_mean[j], 1e-300)
            risk_cm = float(px_given_y @ poisson_loss(support, np.full(nx, est)))
            risk_mean += py[j] * risk_cm
            risk_best_quantized += py[j] * float(risk_grid.min())
        assert risk_mean <= risk_best_quantized + 1e-12


def test_chop_identity_partition():
    path = SamplePath(0.0, 0.25, [1.0, 2.0, 3.0, 4.0])
    segs = chop(path, TimePartition([0.0, 1.0]))
    assert len(segs) == 1
    assert np.array_equal(segs[0].values, path.values)
    halves = chop(path, TimePartition([0.0, 0.5, 1.0]))
    assert [len(s) for s in halves] == [2, 2]


def test_chop_midpoint():
    path = SamplePath(0.0, 0.001, np.arange(1000.0))
    part = TimePartition([0.0, 0.5, 1.0])
    segs = chop(path, part)
    assert len(segs) == 2
    assert len(segs[0]) == 500 and len(segs[1]) == 500
    assert segs[0].t0 == pytest.approx(0.0)
    assert segs[1].t0 == pytest.approx(0.5)


def test_chop_concat_roundtrip_random():
    gen = np.random.default_rng(3)
    for _ in range(25):
        n = int(gen.integers(10, 400))
        dt = float(gen.uniform(0.001, 0.1))
        path = SamplePath(0.0, dt, gen.normal(size=n))
        n_cuts = int(gen.integers(0, 4))
        cuts = np.sort(gen.choice(np.arange(1, n), size=n_cuts, replace=False))
        bp = np.concatenate(([0.0], cuts * dt, [n * dt]))
        segs = chop(path, TimePartition(np.unique(bp)))
        back = concat(segs)
        assert back.dt == path.dt
        assert np.array_equal(back.values, path.values)


def test_chop_snaps_to_nearest_grid_point():
    path = SamplePath(0.0, 0.1, np.arange(10.0))
    segs = chop(path, TimePartition([0.0, 0.333, 1.0]))
    assert len(segs[0]) == 3 and len(segs[1]) == 7


def test_chop_rejects_collapsing_and_partial_partitions():
    path = SamplePath(0.0, 0.1, np.arange(10.0))
    with pytest.raises(ValueError):
        # both interior points snap onto the same sample index
        chop(path, TimePartition([0.0, 0.301, 0.302, 1.0]))
    with pytest.raises(ValueError):
        chop(path, TimePartition([0.0, 0.5]))
    with pytest.raises(ValueError):
        chop(path, TimePartition([0.0, 0.5, 2.0]))


def test_concat_rejects_gaps_and_mixed_steps():
    a = SamplePath(0.0, 0.1, [1.0, 2.0])
    b = SamplePath(0.2, 0.1, [3.0])
    assert np.array_equal(concat([a, b]).values, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        concat([a, SamplePath(0.5, 0.1, [3.0])])
    with pytest.raises(ValueError):
        concat([a, SamplePath(0.2, 0.05, [3.0])])


def test_refine_and_is_refinement():
    base = TimePartition([0.0, 1.0, 2.0])
    fine = refine(base, [0.5])
    assert np.allclose(fine.breakpoints, [0.0, 0.5, 1.0, 2.0])
    again = refine(fine, [0.5])
    assert np.array_equal(again.breakpoints, fine.breakpoints)
    ab = refine(refine(base, [0.5]), [1.5])
    ba = refine(refine(base, [1.5]), [0.5])
    assert np.array_equal(ab.breakpoints, ba.breakpoints)
    assert is_refinement(fine, base)
    assert not is_refinement(base, fine)
    assert not is_refinement(TimePartition([0.0, 0.3, 1.0]),
                             TimePartition([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        refine(base, [0.0])
    with pytest.raises(ValueError):
        refine(base, [2.5])


def test_partition_mesh():
    part = TimePartition([0.0, 0.25, 1.0])
    assert part.horizon == 1.0
    assert part.n_intervals == 2
    assert part.mesh() == pytest.approx(0.75)
    with pytest.raises(ValueError):
        TimePartition([0.5, 1.0])
    with pytest.raises(ValueError):
        TimePartition([0.0])


def test_rng_spec_reproducible_streams():
    spec = RngSpec(123)
    a = spec.stream(4).normal(size=8)
    b = spec.stream(4).normal(size=8)
    c = spec.stream(5).normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        RngSpec(-1)


def _square_range(start, stop):
    return [float(k * k) for k in range(start, stop)]


def test_map_replicas_parallel_matches_serial():
    serial = map_replicas(_square_range, 37, jobs=1)
    parallel = map_replicas(_square_range, 37, jobs=3)
    assert serial == parallel
    assert serial == [float(k * k) for k in range(37)]


def _first_draws(master_seed, start, stop):
    spec = RngSpec(master_seed)
    return [float(spec.stream(r).normal()) for r in range(start, stop)]


def test_replicated_estimate_mean_stderr_and_single_replica():
    est = replicated_estimate(_first_draws, RngSpec(12), 5)
    draws = np.array(_first_draws(12, 0, 5))
    assert est.value == pytest.approx(draws.mean(), rel=1e-15)
    assert est.stderr == pytest.approx(draws.std(ddof=1) / math.sqrt(5), rel=1e-15)
    assert (est.replicas, est.master_seed) == (5, 12)
    # one replica has no spread: nan, never an exact zero
    single = replicated_estimate(_first_draws, 12, 1)
    assert single.value == draws[0] and math.isnan(single.stderr)
    with pytest.raises(TypeError):
        replicated_estimate(_first_draws, np.random.default_rng(0), 2)


def test_di_estimate_fields():
    est = DiEstimate(1.5, 0.1, 4, master_seed=9)
    assert est.value == 1.5
    assert est.replicas == 4
