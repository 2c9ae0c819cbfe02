import ast
import concurrent.futures
import functools
import importlib
import inspect
import json
import math
import os
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from conftest import controlled_values, count_streams
from ctdi import core
from ctdi.core import (
    DiEstimate,
    FinitePmf,
    RngSpec,
    SamplePath,
    map_replicas,
    poisson_loss,
    replicated_estimates,
)
from ctdi.gaussian import GaussianFeedbackModel, directed_info_gaussian_mc
from ctdi.poisson import PoissonFeedbackModel, di_rate_mc


def test_sample_path_basics():
    p = SamplePath(0.5, [1.0, 2.0, 3.0])
    assert len(p) == 3
    assert np.allclose(p.times, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        p.values[0] = 7.0


def test_sample_path_validation():
    with pytest.raises(ValueError):
        SamplePath(0.0, [1.0])
    with pytest.raises(ValueError):
        SamplePath(1.0, [])
    with pytest.raises(ValueError):
        SamplePath(1.0, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        SamplePath(1.0, [np.nan])


def test_finite_pmf_validation():
    assert len(FinitePmf([1.0, 2.0], [0.25, 0.75])) == 2
    with pytest.raises(ValueError):
        FinitePmf([1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        FinitePmf([1.0, 2.0], [0.5, 0.6])
    with pytest.raises(ValueError):
        FinitePmf([1.0, 2.0], [-0.1, 1.1])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            FinitePmf([1.0, bad], [0.5, 0.5])
    with pytest.raises(ValueError):
        FinitePmf([1.0, 2.0], [0.5, math.nan])
    with pytest.raises(ValueError, match="matching nonempty"):
        FinitePmf([1.0, 2.0], [1.0])


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
    # NaN fails every comparison, so the check asks that all values pass
    for x, xhat in ((math.nan, 1.0), (1.0, math.nan), ([1.0, math.nan], 1.0), (1.0, [2.0, math.nan])):
        with pytest.raises(ValueError, match="must be nonnegative"):
            poisson_loss(x, xhat)


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


def test_rng_spec_reproducible_streams():
    spec = RngSpec(123)
    a = spec.stream(4).normal(size=8)
    b = spec.stream(4).normal(size=8)
    c = spec.stream(5).normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        RngSpec(-1)
    with pytest.raises(ValueError, match="replica index"):
        spec.stream(-1)


def test_streams_are_numpy_seed_sequence_streams():
    run = core._RUN
    # one- and two-word seeds (benchmark pass seeds have two), a range that
    # starts past 0 and spans two runs, and the last replica indices one
    # entropy word holds
    for seed in (0, 1, 2**32 - 1, 2**32, 5 * 2**32 + 7, 2**64 - 1):
        for start, stop in ((0, 1), (run - 5, 2 * run + 3), (2**32 - 3, 2**32)):
            gens = list(RngSpec(seed).streams(start, stop))
            assert len(gens) == stop - start
            for r, gen in zip(range(start, stop), gens):
                oracle = np.random.default_rng(np.random.SeedSequence((seed, r)))
                assert gen.bit_generator.state == oracle.bit_generator.state
                assert np.array_equal(gen.normal(size=100), oracle.normal(size=100))
    assert list(RngSpec(3).streams(7, 7)) == []
    # lazy: the first stream of the widest range comes from one run
    first = next(RngSpec(3).streams(0, 2**32))
    assert first.bit_generator.state == RngSpec(3).stream(0).bit_generator.state
    for start, stop in ((-1, 2), (5, 4), (0, 2**32 + 1)):
        with pytest.raises(ValueError, match="replica range"):
            next(RngSpec(3).streams(start, stop))


def test_importing_ctdi_does_not_load_numpy_random():
    import subprocess
    import sys

    # numpy.random is imported where streams are derived, not at import
    code = "import sys, ctdi, ctdi.cli\nprint('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def _square_range(start, stop):
    return [float(k * k) for k in range(start, stop)]


def test_map_replicas_parallel_matches_serial():
    serial = map_replicas(_square_range, 37, jobs=1)
    parallel = map_replicas(_square_range, 37, jobs=3)
    assert serial == parallel
    assert serial == [float(k * k) for k in range(37)]
    assert map_replicas(_square_range, 0, jobs=3) == []


def test_map_replicas_pool_no_larger_than_chunks_or_cpus(monkeypatch):
    sizes = []

    class RecordingExecutor:
        """Runs submitted chunks in this process and records the pool size asked for."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert map_replicas(_square_range, 2, jobs=5000) == [0.0, 1.0]
    assert map_replicas(_square_range, 37, jobs=5000) == _square_range(0, 37)
    assert sizes == [min(2, cpus), min(37, cpus)]


def test_serial_runs_do_not_load_the_process_pool():
    import subprocess
    import sys

    # the pool is imported in map_replicas' parallel branch only
    code = ("import sys, ctdi.cli\n"
            "from ctdi.core import map_replicas\n"
            "assert map_replicas(range, 3) == [0, 1, 2]\n"
            "print('concurrent.futures.process' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def _first_draws(gens):
    return [float(gen.normal()) for gen in gens]


def replicated_estimate(block, rng, replicas, jobs=1):
    # the one estimate of a one-column block
    (est,) = replicated_estimates(block, rng, replicas, jobs)
    return est


def _oracle_draws(seed, replicas):
    # replica r draws from SeedSequence((seed, r)), derived here independently
    return np.array([np.random.default_rng(np.random.SeedSequence((seed, r))).normal()
                     for r in range(replicas)])


def test_replicated_estimates_mean_stderr_and_single_replica():
    est = replicated_estimate(_first_draws, RngSpec(12), 5)
    draws = _oracle_draws(12, 5)
    assert est.value == pytest.approx(draws.mean(), rel=1e-15)
    assert est.stderr == pytest.approx(draws.std(ddof=1) / math.sqrt(5), rel=1e-15)
    assert (est.replicas, est.master_seed) == (5, 12)
    # one replica has no spread: nan, never an exact zero
    single = replicated_estimate(_first_draws, 12, 1)
    assert single.value == draws[0] and math.isnan(single.stderr)
    with pytest.raises(TypeError):
        replicated_estimate(_first_draws, np.random.default_rng(0), 2)
    # past 2**32 a replica index would need a second entropy word
    for replicas in (0, -4, 2**32 + 1):
        with pytest.raises(ValueError):
            replicated_estimate(_first_draws, 12, replicas)


def test_seeds_and_replica_indices_must_be_integers(monkeypatch):
    # a float or string seed once truncated to an integer one, so two seeds shared streams
    for seed in (12.9, 12.0, np.float64(12.0), "3", None):
        with pytest.raises(TypeError):
            RngSpec(seed)
    for replica in (2.5, 2.0, np.float64(2.0), "2"):
        with pytest.raises(TypeError):
            RngSpec(3).stream(replica)
    streams = count_streams(monkeypatch)
    for seed in (12.9, "3"):
        with pytest.raises(TypeError):
            replicated_estimate(_first_draws, seed, 4)
    assert streams == [0]
    monkeypatch.undo()
    # numpy integers keep their streams, up to the largest 64-bit seed
    assert RngSpec(np.uint64(2**64 - 1)) == RngSpec(2**64 - 1)
    assert type(RngSpec(np.int64(12)).master_seed) is int
    state = RngSpec(np.int64(12)).stream(np.int64(3)).bit_generator.state
    assert state == RngSpec(12).stream(3).bit_generator.state
    assert replicated_estimate(_first_draws, np.int64(12), 5) == replicated_estimate(_first_draws, 12, 5)


@pytest.mark.parametrize("estimate, replicas", [
    (lambda n: di_rate_mc(PoissonFeedbackModel(FinitePmf([1.0, 2.0], [0.5, 0.5]), 50.0), 3, n), 2.9),
    (lambda n: directed_info_gaussian_mc(GaussianFeedbackModel(0.5, 0.1, None), 3, n), 40.7),
    (lambda n: directed_info_gaussian_mc(GaussianFeedbackModel(0.5, 0.1, None), 3, n), np.float64(4.0)),
], ids=["poisson", "gaussian", "gaussian-whole-float"])
def test_replica_counts_must_be_integers(estimate, replicas, monkeypatch):
    # 2.9 once ran 2 replicas and 40.7 ran 40
    streams = count_streams(monkeypatch)
    with pytest.raises(TypeError):
        estimate(replicas)
    assert streams == [0]
    monkeypatch.undo()
    assert repr(estimate(np.int64(int(replicas)))) == repr(estimate(int(replicas)))


def test_blocks_get_at_most_16_streams_in_replica_order():
    blocks = []

    def block(gens):
        blocks.append([float(gen.normal()) for gen in gens])
        return blocks[-1]

    est = replicated_estimate(block, 12, 37)
    assert [len(b) for b in blocks] == [16, 16, 5]
    draws = _oracle_draws(12, 37)
    assert [v for b in blocks for v in b] == list(draws)
    assert est.value == pytest.approx(draws.mean(), rel=1e-15)
    assert est.stderr == pytest.approx(draws.std(ddof=1) / math.sqrt(37), rel=1e-15)


def _draw_row(gen):
    z = gen.normal(size=3)
    return [float(z[0]), float(z[1] * 1e3), float(z[0] * z[2])]


def _rows_block(gens):
    return np.array([_draw_row(gen) for gen in gens])


def _column_block(j, gens):
    return [_draw_row(gen)[j] for gen in gens]


def test_each_column_of_replicated_estimates_is_its_own_estimate():
    # up to several stream derivation runs, split into chunks that start
    # inside them at jobs=2
    for replicas in (1, 2, 37, 2 * core._RUN + 37):
        for jobs in (1, 2):
            ests = replicated_estimates(_rows_block, 12, replicas, jobs)
            assert len(ests) == 3
            for j, est in enumerate(ests):
                alone = replicated_estimate(functools.partial(_column_block, j), 12, replicas)
                assert est.value == alone.value
                assert repr(est.stderr) == repr(alone.stderr)
                assert (est.replicas, est.master_seed) == (replicas, 12)
    # a one-value block is a one-column row
    assert replicated_estimates(_first_draws, 12, 5) == [replicated_estimate(_first_draws, 12, 5)]
    # three columns split into no value and control groups of equal size
    for controls in (1, 3):
        with pytest.raises(ValueError, match="do not split"):
            replicated_estimates(_rows_block, 12, 5, controls=controls)


def _values_and_controls(gens):
    # values Z = 1 + a + c/2 + b/10 and Z' = 2 + a - c + d/10, then the
    # group of controls M = (a, a + b) and the group H = (c, b + c), all of
    # mean 0: with both groups each value keeps only its last term
    rows = []
    for gen in gens:
        a, b, c, d = gen.normal(size=4)
        rows.append([1.0 + a + 0.5 * c + 0.1 * b, 2.0 + a - c + 0.1 * d, a, a + b, c, b + c])
    return np.array(rows)


def _first_columns(count, gens):
    return _values_and_controls(gens)[:, :count]


def test_controls_fit_their_coefficients():
    # every value against an independent least-squares fit on the same
    # replicas, with no control (k = 0), the M group (k = 1) and both groups
    # (k = 2); from _CONTROL_MIN replicas on, across stream derivation runs
    for replicas in (core._CONTROL_MIN, 37, 2 * core._RUN + 37):
        rows = _values_and_controls([RngSpec(12).stream(r) for r in range(replicas)])
        for k in (0, 1, 2):
            block = functools.partial(_first_columns, 2 * (k + 1))
            ests = replicated_estimates(block, 12, replicas, controls=k)
            assert len(ests) == 2
            for j, est in enumerate(ests):
                combined = controlled_values(rows[:, j], *rows[:, 2 + j:2 * (k + 1):2].T)
                assert est.value == pytest.approx(combined.mean(), rel=1e-12)
                assert est.stderr == pytest.approx(
                    combined.std(ddof=1) / math.sqrt(replicas), rel=1e-12)
                assert (est.replicas, est.master_seed) == (replicas, 12)
            # the worker split does not move a bit
            assert repr(replicated_estimates(block, 12, replicas, jobs=2, controls=k)) == repr(ests)
        # each group takes out more of the noise, and both nearly all of it
        for j in (0, 1):
            plain, one, two = (replicated_estimates(functools.partial(_first_columns, 2 * (k + 1)),
                                                    12, replicas, controls=k)[j].stderr
                               for k in (0, 1, 2))
            assert plain > one > two and two < 0.2 * plain
    # below the threshold the plain mean of the values stays
    few = core._CONTROL_MIN - 1
    plain = replicated_estimates(_values_and_controls, 12, few)[:2]
    assert repr(replicated_estimates(_values_and_controls, 12, few, controls=2)) == repr(plain)


def _with_zero_controls(count, gens):
    # _first_columns with a group of zero controls appended
    vals = _first_columns(count, gens)
    return np.column_stack((vals, np.zeros((len(gens), 2))))


def _with_constant_control(gens):
    # both groups, the second value's H control constant
    vals = _values_and_controls(gens)
    vals[:, 5] = 3.0
    return vals


def test_a_constant_control_leaves_the_plain_estimate():
    # a control of zero variance is dropped, so k controls give the k - 1
    # control result bit for bit, down to the plain estimate
    for replicas in (1, 37, 2 * core._RUN + 37):
        for jobs in (1, 2):
            for k in (1, 2):
                fewer = replicated_estimates(functools.partial(_first_columns, 2 * k), 12,
                                             replicas, jobs, controls=k - 1)
                padded = replicated_estimates(functools.partial(_with_zero_controls, 2 * k), 12,
                                              replicas, jobs, controls=k)
                assert repr(padded) == repr(fewer)
            one = replicated_estimates(functools.partial(_first_columns, 4), 12, replicas, jobs,
                                       controls=1)
            mixed = replicated_estimates(_with_constant_control, 12, replicas, jobs, controls=2)
            assert repr(mixed[1]) == repr(one[1])
    # values and controls all exactly zero, as the delayed echo draws them
    assert replicated_estimates(lambda gens: np.zeros((len(gens), 3)), 12, 40, controls=2) == [
        DiEstimate(0.0, 0.0, 40, 12)]


def test_di_estimate_fields():
    est = DiEstimate(1.5, 0.1, 4, master_seed=9)
    assert est.value == 1.5
    assert est.replicas == 4


# exports kept without a user, each with the reason
_UNUSED_EXPORTS_ALLOWED = {
    "quadrature.adaptive_simpson": "the benchmark traces it by name until its quadrature "
                                   "metrics read integrate_panels; then it is deleted",
    "poisson.trajectory_integral": "the generic path integrator, which the Poisson estimators "
                                   "replaced by their closed form; the benchmark's tracer and "
                                   "its per-layer metrics name it",
    "poisson.renewal_posterior_mean": "the causal posterior mean itself; the estimators integrate "
                                      "it in closed form, and the benchmark counts its points",
    "core.poisson_loss": "the causal-estimation loss itself; the estimators integrate it in "
                         "closed form, and the benchmark counts its points",
}


def test_every_export_has_a_user():
    # a name in a module's __all__ must be referenced by some src module or by
    # the acceptance gate; SamplePath, which the tracer wraps by attribute, is
    # in no __all__
    root = Path(__file__).resolve().parent.parent
    sources = [p for p in sorted((root / "src" / "ctdi").glob("*.py")) if p.name != "__init__.py"]
    exports, used = [], set()
    for path in sources + [root / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exports += [f"{path.stem}.{elt.value}" for elt in node.value.elts]
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert exports
    unused = [name for name in exports
              if name.split(".")[1] not in used and name not in _UNUSED_EXPORTS_ALLOWED]
    assert unused == []


def test_package_binds_no_module_export():
    # each public name is imported from its module: the package binds the
    # modules and __version__, and no name of any module's __all__
    import ctdi
    from ctdi import capacity, cli, gaussian, partition_di, poisson, quadrature

    modules = (capacity, cli, core, gaussian, partition_di, poisson, quadrature)
    bound = sorted({name for m in modules for name in m.__all__ if hasattr(ctdi, name)})
    assert bound == []
    assert "SamplePath" not in core.__all__ and not hasattr(ctdi, "SamplePath")
    assert isinstance(ctdi.__version__, str)


def test_benchmark_call_metrics_name_traced_entry_points():
    # the benchmark's tracer wraps each function of a layer's __all__ defined
    # in that layer, plus RngSpec.stream and SamplePath.__init__; a per-layer
    # <layer>.<name>.calls or .self_s metric that names anything else makes
    # every traced run fail
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    members = {"core.stream": ("RngSpec", "stream"), "core.SamplePath": ("SamplePath", "__init__")}
    checked = 0
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) != 3 or parts[2] not in ("calls", "self_s"):
            continue
        name = ".".join(parts[:2])
        checked += 1
        if name in members:
            cls, attr = members[name]
            assert attr in vars(getattr(core, cls)), name
            continue
        module = importlib.import_module(f"ctdi.{parts[0]}")
        obj = getattr(module, parts[1], None)
        assert parts[1] in module.__all__, name
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, name
    assert checked > 0
