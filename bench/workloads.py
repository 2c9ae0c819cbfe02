"""The four benchmark workloads, built on the four ``ctdi`` commands.

Every workload is a closed loop with one caller: a pass runs the workload's
legs one after another in this process, each leg an in-process call of
``ctdi.cli.main`` (exactly what the ``ctdi`` entry point runs) or of a public
library function.  Calls go through module attributes, so the tracer sees
them.  The checks of a pass run after its timed legs.

Each pass checks that the CLI's reference column matches a reference
computed here and that its exit status agrees with its own rule (estimate
within the relative tolerance or three standard errors) recomputed from its
CSV.  The estimates themselves are checked once per run, pooled over the
passes, against the reference with the CLI's relative tolerance (1 %
Gaussian, 2 % Poisson) or five pooled standard errors, whichever is wider.
A correct estimator is outside three standard errors on about 0.3 % of rows,
so checking every row of every pass at three would report failures of a
correct program in a benchmark that runs hundreds of seeds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ctdi
import ctdi.cli


class Checks:
    """Output checks of one pass: how many were attempted and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


@dataclass
class PassResult:
    wall_s: float  # all timed legs of the pass
    cli_s: float  # the CLI legs only, the time base of tta_s
    estimates: dict  # Monte Carlo CSV rows: input -> (estimate, stderr)
    checks: Checks
    outputs: dict = field(default_factory=dict)  # file name -> (sha256, bytes)

    @property
    def output_bytes(self) -> int:
        return sum(size for _, size in self.outputs.values())


def _run_cli(argv, out_dir: Path, jobs: int):
    """ctdi.cli.main(argv) with captured stdout; returns (status, seconds, stdout)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        try:
            status = ctdi.cli.main([*argv, "--out", str(out_dir), "--jobs", str(jobs)])
        except Exception:  # a crash is a failed exit-status check, not a bench error
            traceback.print_exc()
            status = None
    return status, time.perf_counter() - start, captured.getvalue()


def _read_csv(path: Path) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    except (OSError, ValueError):
        return []


def _digests(paths) -> dict:
    out = {}
    for path in paths:
        try:
            data = Path(path).read_bytes()
        except OSError:
            continue
        out[Path(path).name] = (hashlib.sha256(data).hexdigest(), len(data))
    return out


def _list_arg(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def reference_rate(p: float, lambda1: float, lambda2: float) -> float:
    """Directed-information rate of the binary input law, computed independently.

    I(X;Y) = h(Y) - (1 - E[ln X]) for one exponential wait Y given X, divided
    by the mean wait E[1/X].  h(Y) is integrated by 32-point Gauss-Legendre on
    geometric panels out to 80 slow time constants.
    """
    if p in (0.0, 1.0) or lambda1 == lambda2:
        return 0.0
    x = np.array([lambda1, lambda2])
    w = np.array([p, 1.0 - p])
    edges = np.concatenate(([0.0], np.geomspace(0.25 / x.max(), 80.0 / x.min(), 96)))
    nodes, weights = np.polynomial.legendre.leggauss(32)
    half = 0.5 * np.diff(edges)
    y = (edges[:-1] + half)[:, None] + half[:, None] * nodes
    f = np.exp(-np.multiply.outer(y, x)) @ (w * x)
    h_y = -float(np.sum(half[:, None] * weights * f * np.log(f)))
    info = h_y - 1.0 + float(np.dot(w, np.log(x)))
    return info / float(np.dot(w, 1.0 / x))


def _check_mc_rows(checks: Checks, status, rows, key, est, ref_col, refs, rel, label):
    """Reference column and exit status of one CLI call; returns its estimates."""
    checks.expect(sorted(r[key] for r in rows) == sorted(refs), f"{label}: one CSV row per input")
    cli_rule_ok = True
    for row in rows:
        ref = refs.get(row[key], math.nan)
        checks.expect(abs(row[ref_col] - ref) <= 1e-8 * abs(ref) + 1e-12,
                      f"{label} {key}={row[key]:g}: reference column matches")
        cli_rule_ok = cli_rule_ok and (
            abs(row[est] - row[ref_col]) <= max(rel * row[ref_col], 3.0 * row["stderr"]))
    expected = (0 if cli_rule_ok else 1) if rows else 0
    checks.expect(status == expected, f"{label}: exit status {status}, expected {expected}")
    return {row[key]: (row[est], row["stderr"]) for row in rows}


def pooled_checks(wl, passes, refs) -> Checks:
    """Each Monte Carlo row, averaged over the passes, against its reference.

    Passes have equal replica counts, so the pooled stderr is the root sum of
    squares of the pass stderrs over the number of passes.
    """
    checks = Checks()
    for key, ref in refs.items():
        rows = [p.estimates[key] for p in passes if key in p.estimates]
        value = statistics.fmean(v for v, _ in rows) if rows else math.nan
        stderr = math.sqrt(sum(s * s for _, s in rows)) / len(rows) if rows else math.nan
        checks.expect(abs(value - ref) <= max(wl.rel * ref, 5.0 * stderr),
                      f"{wl.name} {key:g}: estimate {value:.6g} +- {stderr:.2g} over "
                      f"{len(rows)} passes is within tolerance of {ref:.6g}")
    return checks


class Gaussian:
    """gaussian-duncan at T = 0.5, 1, 2 (dt = 1e-3), then one delayed-echo estimate."""

    name = "gaussian"
    monte_carlo = True
    rel = 0.01  # the CLI's relative tolerance
    eps = 1e-3  # nats; tta_s projects the time to reach this stderr
    horizons = (0.5, 1.0, 2.0)
    dt = 1e-3
    echo = (1.0, 1e-3, 1e-2)  # horizon, dt, delay of delayed_echo_model
    sizes = {"full": (4000, 50), "smoke": (200, 2)}  # (replicas, echo replicas)

    def __init__(self, size: str, out_root: Path, jobs: int = 1):
        self.replicas, self.echo_replicas = self.sizes[size]
        self.out = out_root / self.name
        self.jobs = jobs

    def build(self, seed: int):
        cfg = ctdi.cli.ExperimentConfig(
            "gaussian-duncan",
            {"t_values": list(self.horizons), "dt": self.dt, "replicas": self.replicas},
            seed, self.out, self.jobs)
        models = [ctdi.gaussian.constant_signal_model(t, self.dt) for t in self.horizons]
        models.append(ctdi.gaussian.delayed_echo_model(*self.echo))
        return cfg, models, ctdi.core.RngSpec(seed)

    def references(self) -> dict:
        return {t: 0.5 * math.log1p(t) for t in self.horizons}

    def run_pass(self, seed: int, refs: dict, span) -> PassResult:
        argv = ["gaussian-duncan", "--t-values", _list_arg(self.horizons),
                "--dt", repr(self.dt), "--replicas", str(self.replicas), "--seed", str(seed)]
        status, cli_s, _ = _run_cli(argv, self.out, self.jobs)
        start = time.perf_counter()
        with span("gaussian.echo_leg"):
            echo = ctdi.gaussian.directed_info_gaussian_mc(
                ctdi.gaussian.delayed_echo_model(*self.echo), ctdi.core.RngSpec(seed),
                self.echo_replicas, jobs=self.jobs)
        echo_s = time.perf_counter() - start

        checks = Checks()
        path = self.out / "gaussian_duncan.csv"
        estimates = _check_mc_rows(checks, status, _read_csv(path), "T", "mc_di",
                                   "closed_form", refs, self.rel, "gaussian-duncan")
        checks.expect(echo.value == 0.0 and echo.stderr == 0.0,
                      f"echo estimate {echo.value!r} +- {echo.stderr!r} is exactly 0")
        return PassResult(cli_s + echo_s, cli_s, estimates, checks, _digests([path]))


class PoissonRate:
    """poisson-rate with lambda = (1, 2), weights 0.1 ... 0.9, horizon 50."""

    name = "poisson-rate"
    monte_carlo = True
    rel = 0.02  # the CLI's relative tolerance
    eps = 1e-3  # nats per second
    lambdas = (1.0, 2.0)
    weights = tuple(round(0.1 * k, 1) for k in range(1, 10))
    sizes = {"full": (50.0, 48), "smoke": (15.0, 8)}  # (horizon, replicas)

    def __init__(self, size: str, out_root: Path, jobs: int = 1):
        self.horizon, self.replicas = self.sizes[size]
        self.out = out_root / self.name
        self.jobs = jobs

    def build(self, seed: int):
        cfg = ctdi.cli.ExperimentConfig(
            "poisson-rate",
            {"lambda1": self.lambdas[0], "lambda2": self.lambdas[1], "p_values": list(self.weights),
             "horizon": self.horizon, "replicas": self.replicas},
            seed, self.out, self.jobs)
        models = [ctdi.poisson.PoissonFeedbackModel(
            ctdi.core.FinitePmf(np.array(self.lambdas), np.array([p, 1.0 - p])), self.horizon)
            for p in self.weights]
        return cfg, models, ctdi.core.RngSpec(seed)

    def references(self) -> dict:
        return {p: reference_rate(p, *self.lambdas) for p in self.weights}

    def run_pass(self, seed: int, refs: dict, span) -> PassResult:
        argv = ["poisson-rate", "--lambda1", repr(self.lambdas[0]), "--lambda2", repr(self.lambdas[1]),
                "--p-values", _list_arg(self.weights), "--horizon", repr(self.horizon),
                "--replicas", str(self.replicas), "--seed", str(seed)]
        status, cli_s, _ = _run_cli(argv, self.out, self.jobs)
        checks = Checks()
        path = self.out / "poisson_rate.csv"
        estimates = _check_mc_rows(checks, status, _read_csv(path), "p", "mc", "analytic",
                                   refs, self.rel, "poisson-rate")
        return PassResult(cli_s, cli_s, estimates, checks, _digests([path]))


class Capacity:
    """poisson-capacity with lambda1 = 1 and the default lambda2 list 0 ... 16."""

    name = "capacity"
    monte_carlo = False
    lambda1 = 1.0
    # the shape rules of acceptance criterion 4: zero on the diagonal and at the
    # silent level, positive off it, strictly increasing along the top levels
    sizes = {
        "full": {"levels": (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
                 "zero": (0.0, 1.0), "positive": (0.25, 0.5), "increasing": (2.0, 4.0, 8.0, 16.0)},
        "smoke": {"levels": (0.0, 1.0, 2.0),
                  "zero": (0.0, 1.0), "positive": (2.0,), "increasing": (1.0, 2.0)},
    }
    grid = np.linspace(0.0, 1.0, 26)

    def __init__(self, size: str, out_root: Path, jobs: int = 1):
        self.shape = self.sizes[size]
        self.out = out_root / self.name
        self.jobs = jobs

    def build(self, seed: int):
        cfg = ctdi.cli.ExperimentConfig(
            "poisson-capacity",
            {"lambda1": self.lambda1, "lambda2_values": list(self.shape["levels"]), "tol": 1e-6},
            seed, self.out, self.jobs)
        pmfs = [ctdi.core.FinitePmf(np.array([self.lambda1, lam2]), np.array([0.5, 0.5]))
                for lam2 in self.shape["levels"] if lam2 not in (0.0, self.lambda1)]
        return cfg, pmfs, None

    def references(self) -> dict:
        # the best rate on a coarse grid of weights bounds the optimum from below
        best = {lam2: max(reference_rate(float(p), self.lambda1, lam2) for p in self.grid)
                for lam2 in self.shape["levels"] if lam2 > 0.0}
        return {**self.shape, "grid_best": best}

    def run_pass(self, seed: int, refs: dict, span) -> PassResult:
        argv = ["poisson-capacity", "--lambda1", repr(self.lambda1),
                "--lambda2-values", _list_arg(self.shape["levels"]), "--seed", str(seed)]
        status, cli_s, _ = _run_cli(argv, self.out, self.jobs)
        checks = Checks()
        checks.expect(status == 0, f"poisson-capacity: exit status {status}")
        path = self.out / "poisson_capacity.csv"
        rows = {row["lambda2"]: row for row in _read_csv(path)}
        checks.expect(sorted(rows) == sorted(refs["levels"]), "poisson-capacity: one row per level")
        rate = {lam2: rows[lam2]["rate_star"] if lam2 in rows else math.nan for lam2 in refs["levels"]}
        for lam2 in refs["zero"]:
            checks.expect(rate[lam2] <= 1e-12, f"capacity: rate at lambda2={lam2:g} is zero")
        for lam2 in refs["positive"]:
            checks.expect(rate[lam2] > 0.0, f"capacity: rate at lambda2={lam2:g} is positive")
        inc = refs["increasing"]
        for lo, hi in zip(inc, inc[1:]):
            checks.expect(rate[lo] < rate[hi], f"capacity: rate grows from lambda2={lo:g} to {hi:g}")
        for lam2, best in refs["grid_best"].items():
            if lam2 == self.lambda1 or lam2 not in rows:
                continue
            p_star = rows[lam2]["p_star"]
            checks.expect(abs(rate[lam2] - reference_rate(p_star, self.lambda1, lam2)) <= 1e-8,
                          f"capacity: rate at p*={p_star:g}, lambda2={lam2:g} matches the reference")
            checks.expect(rate[lam2] >= best - 1e-9,
                          f"capacity: optimum at lambda2={lam2:g} is at least the grid best")
        return PassResult(cli_s, cli_s, {}, checks, _digests([path]))


class Discrete:
    """di-discrete at the default alphabets, then a large-state leg with --max-n 5."""

    name = "discrete"
    monte_carlo = False
    # (instances, chains, max_n) of the default-size leg and of the large-state leg
    sizes = {"full": ((3000, 600, 3), (1000, 50, 5)), "smoke": ((60, 12, 3), (10, 2, 5))}

    def __init__(self, size: str, out_root: Path, jobs: int = 1):
        self.legs = self.sizes[size]
        self.out = out_root / self.name
        self.jobs = jobs

    def build(self, seed: int):
        cfgs = [ctdi.cli.ExperimentConfig(
            "di-discrete",
            {"instances": instances, "chains": chains, "max_n": max_n, "max_alphabet": 3},
            seed, self.out / f"max-n-{max_n}", self.jobs)
            for instances, chains, max_n in self.legs]
        return cfgs, [], ctdi.core.RngSpec(seed)

    def references(self) -> dict:
        return {"verdict": "result: PASS"}

    def run_pass(self, seed: int, refs: dict, span) -> PassResult:
        checks = Checks()
        cli_s = 0.0
        digests = {}
        for instances, chains, max_n in self.legs:
            out = self.out / f"max-n-{max_n}"
            argv = ["di-discrete", "--instances", str(instances), "--chains", str(chains),
                    "--max-n", str(max_n), "--seed", str(seed)]
            status, seconds, stdout = _run_cli(argv, out, self.jobs)
            cli_s += seconds
            checks.expect(status == 0, f"di-discrete --max-n {max_n}: exit status {status}")
            checks.expect(refs["verdict"] in stdout.splitlines(),
                          f"di-discrete --max-n {max_n}: report says {refs['verdict']!r}")
            for name, value in _digests([out / "di_discrete_report.txt"]).items():
                digests[f"{out.name}/{name}"] = value
        return PassResult(cli_s, cli_s, {}, checks, digests)


WORKLOADS = {cls.name: cls for cls in (Gaussian, PoissonRate, Capacity, Discrete)}
