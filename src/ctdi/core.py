"""Shared domain types: finite pmfs and uniform-grid sample paths, the
nonnegative-estimation loss, deterministic random-stream derivation, replica
plumbing, and the CSV writer every module uses.

Every information quantity in this package is measured in nats.  All types
here are immutable values after construction and all operations are pure, so
instances can be shared freely across threads and worker processes.

Replica protocol: a Monte Carlo estimator hands replicated_estimates a
function block(gens) of a list of numpy Generators that returns one row of
values per Generator in order (replicated_estimate: one value), and only
this module derives the streams: replica r draws from
default_rng(SeedSequence((seed, r))), and a block gets the streams of up to
_BLOCK consecutive replicas, so an estimate depends on neither the blocking,
the replica chunking nor the number of jobs.  The Gaussian estimators draw
and filter a whole block as (replicas, steps) arrays, the Poisson ones one
trajectory per Generator.  No estimator uses SamplePath; it stays public
because the benchmark's tracer wraps its constructor by name.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SamplePath",
    "FinitePmf",
    "RngSpec",
    "DiEstimate",
    "poisson_loss",
    "map_replicas",
    "replicated_estimate",
    "replicated_estimates",
    "write_csv",
]


def _readonly(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Uniform-grid trajectory on [0, len*dt): values[k] sits at time k*dt."""

    dt: float
    values: np.ndarray

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        vals = _readonly(self.values)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("a sample path needs at least one sample")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sample values must be finite")
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.size)


@dataclass(frozen=True, eq=False)
class FinitePmf:
    """Probability mass function on a finite set of distinct real support points.

    Support order is preserved as given.  Zero-probability atoms are allowed;
    use trimmed() to drop them.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        s = _readonly(self.support)
        p = _readonly(self.probs)
        if s.ndim != 1 or s.size < 1 or p.shape != s.shape:
            raise ValueError("support and probs must be matching nonempty vectors")
        if not np.all(np.isfinite(s)):
            raise ValueError("support points must be finite")
        if np.unique(s).size != s.size:
            raise ValueError("support points must be distinct")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if not abs(p.sum() - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "probs", p)

    def __len__(self):
        return self.support.size

    def trimmed(self) -> "FinitePmf":
        """Drop zero-probability atoms."""
        mask = self.probs > 0
        if mask.all():
            return self
        return FinitePmf(self.support[mask], self.probs[mask])


@dataclass(frozen=True)
class RngSpec:
    """Master seed plus the fixed per-replica stream derivation.

    Replica r draws from default_rng(SeedSequence((master_seed, r))), so any
    (master_seed, r) pair reproduces its stream bit-for-bit regardless of how
    many replicas run, in what order, or across how many processes.
    """

    master_seed: int

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "master_seed", int(self.master_seed))

    def stream(self, replica: int = 0) -> np.random.Generator:
        if replica < 0:
            raise ValueError("replica index must be nonnegative")
        return np.random.default_rng(np.random.SeedSequence((self.master_seed, int(replica))))


@dataclass(frozen=True)
class DiEstimate:
    """Monte Carlo estimate in nats with its standard error and replication info."""

    value: float
    stderr: float
    replicas: int
    master_seed: int | None = None


def poisson_loss(x, xhat):
    """Nonnegative-estimation loss x*ln(x/xhat) - x + xhat in nats.

    Conventions: 0*ln 0 = 0, so loss(0, v) = v; loss(x, 0) = +inf for x > 0.
    Accepts scalars or arrays (broadcast); negative inputs are a domain error.
    """
    xa = np.asarray(x, dtype=float)
    ha = np.asarray(xhat, dtype=float)
    if np.any(xa < 0) or np.any(ha < 0):
        raise ValueError("poisson_loss arguments must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(xa > 0, xa * (np.log(xa) - np.log(ha)), 0.0)
    out = ratio - xa + ha
    if out.ndim == 0:
        return float(out)
    return out


def map_replicas(worker, n_replicas: int, jobs: int = 1) -> list:
    """Run worker(start, stop) over [0, n_replicas) in contiguous chunks.

    Results concatenate in replica order whatever the degree of parallelism,
    so estimates do not depend on `jobs`.  The worker must be picklable when
    jobs > 1 (a functools.partial of a module-level function qualifies).
    The pool starts all its processes at once, so it gets no more of them
    than there are chunks or usable CPUs.
    """
    n_replicas = int(n_replicas)
    if n_replicas <= 0:
        return []
    jobs = max(1, int(jobs))
    if jobs == 1 or n_replicas == 1:
        return list(worker(0, n_replicas))
    bounds = np.linspace(0, n_replicas, min(n_replicas, jobs * 4) + 1).astype(int)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    out = []
    with ProcessPoolExecutor(max_workers=min(jobs, bounds.size - 1, cpus or 1)) as ex:
        futures = [
            ex.submit(worker, int(a), int(b))
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]
        for fut in futures:
            out.extend(fut.result())
    return out


# replicas per block call: enough to amortize per-call overhead, few enough
# that a block's (replicas, steps) buffers stay in cache
_BLOCK = 16


def _replica_range(block, master_seed: int, start: int, stop: int) -> list:
    """block(gens) over [start, stop) in runs of _BLOCK, gens the streams of one run.

    Returns one (replicas, columns) array per run: arrays, not one object
    per replica, keep the collected values as compact as the values.
    """
    spec = RngSpec(master_seed)
    out = []
    for a in range(start, stop, _BLOCK):
        vals = np.asarray(block([spec.stream(r) for r in range(a, min(a + _BLOCK, stop))]),
                          dtype=float)
        out.append(vals.reshape(len(vals), -1))
    return out


def replicated_estimates(block, rng, replicas: int, jobs: int = 1) -> list[DiEstimate]:
    """Mean and standard error of each column of block(gens) over replicas independent streams.

    block maps a list of Generators, the streams of consecutive replicas, to
    one row of values per Generator in order (or one value, a one-column
    row); the estimates come in column order.  rng is an RngSpec or an
    integer master seed; a Generator is refused, since each replica derives
    its own stream from the master seed.  block must be picklable when
    jobs > 1.  The standard error is nan for a single replica, which has no
    spread to estimate it from, so it cannot pass for an exact zero.
    """
    if isinstance(rng, np.random.Generator):
        raise TypeError("replicated estimators need an RngSpec or integer master seed")
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    spec = rng if isinstance(rng, RngSpec) else RngSpec(int(rng))
    worker = functools.partial(_replica_range, block, spec.master_seed)
    rows = np.concatenate(map_replicas(worker, replicas, jobs))
    n = rows.shape[0]
    # each column reduced as a contiguous vector, so its mean and stderr are
    # those of the column estimated alone
    columns = rows.T.copy()
    return [DiEstimate(float(col.mean()),
                       float(col.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan,
                       n, spec.master_seed)
            for col in columns]


def replicated_estimate(block, rng, replicas: int, jobs: int = 1) -> DiEstimate:
    """The one estimate of replicated_estimates for a block of one value per Generator."""
    (est,) = replicated_estimates(block, rng, replicas, jobs)
    return est


def write_csv(path, header, rows) -> None:
    """Write a header line and one line per row, numbers to 12 significant digits."""
    with open(path, "w", newline="\n") as out:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(f"{v:.12g}" for v in row) + "\n")
