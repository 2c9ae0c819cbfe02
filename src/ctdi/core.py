"""Shared domain types: uniform-grid sample paths, event times, time
partitions, finite pmfs, the nonnegative-estimation loss, and deterministic
random-stream derivation.

Every information quantity in this package is measured in nats.  All types
here are immutable values after construction and all operations are pure, so
instances can be shared freely across threads and worker processes.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SamplePath",
    "EventTimes",
    "TimePartition",
    "FinitePmf",
    "RngSpec",
    "DiEstimate",
    "as_generator",
    "poisson_loss",
    "chop",
    "concat",
    "refine",
    "is_refinement",
    "map_replicas",
    "replicated_estimate",
]


def _readonly(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Uniform-grid trajectory on [t0, t0 + len*dt): values[k] sits at t0 + k*dt."""

    t0: float
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
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return self.values.size

    @property
    def duration(self) -> float:
        return self.values.size * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.size)


@dataclass(frozen=True, eq=False)
class EventTimes:
    """Strictly increasing event epochs of a point process observed on [0, horizon)."""

    horizon: float
    epochs: np.ndarray

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        ep = _readonly(self.epochs)
        if ep.ndim != 1:
            raise ValueError("epochs must be one-dimensional")
        if ep.size:
            if ep[0] < 0 or ep[-1] >= self.horizon:
                raise ValueError("event epochs must lie in [0, horizon)")
            if np.any(np.diff(ep) <= 0):
                raise ValueError("event epochs must be strictly increasing")
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "epochs", ep)

    def __len__(self):
        return self.epochs.size


@dataclass(frozen=True, eq=False)
class TimePartition:
    """Ordered breakpoints 0 = t_0 < t_1 < ... < t_n = T of the interval [0, T]."""

    breakpoints: np.ndarray

    def __post_init__(self):
        b = _readonly(self.breakpoints)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("a partition needs at least two breakpoints")
        if b[0] != 0.0:
            raise ValueError("partitions start at time 0")
        if np.any(np.diff(b) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", b)

    @property
    def horizon(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def n_intervals(self) -> int:
        return self.breakpoints.size - 1

    def mesh(self) -> float:
        return float(np.diff(self.breakpoints).max())


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
        if np.unique(s).size != s.size:
            raise ValueError("support points must be distinct")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "probs", p)

    def __len__(self):
        return self.support.size

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))

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


def as_generator(rng, replica: int = 0) -> np.random.Generator:
    """Accept an RngSpec, a raw integer seed, or an existing Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngSpec):
        return rng.stream(replica)
    return RngSpec(int(rng)).stream(replica)


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


def _snap_index(path: SamplePath, t: float) -> int:
    k = int(round((t - path.t0) / path.dt))
    if k < 0 or k > len(path):
        raise ValueError(f"breakpoint {t} lies outside the path domain")
    if abs(t - (path.t0 + k * path.dt)) > 0.5 * path.dt * (1 + 1e-9):
        raise ValueError(f"breakpoint {t} is more than dt/2 from the sample grid")
    return k


def chop(path: SamplePath, partition: TimePartition) -> list[SamplePath]:
    """Split a path at the partition breakpoints into consecutive segments.

    Segment i covers [t_{i-1}, t_i); breakpoints snap to the nearest grid
    point and the concatenation of the segments reproduces the path exactly.
    """
    idx = [_snap_index(path, float(t)) for t in partition.breakpoints]
    if idx[0] != 0 or idx[-1] != len(path):
        raise ValueError("partition must span the full path")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError("breakpoints collapse onto the same grid point")
    return [
        SamplePath(path.t0 + a * path.dt, path.dt, path.values[a:b])
        for a, b in zip(idx, idx[1:])
    ]


def concat(segments) -> SamplePath:
    """Join contiguous segments back into one path (inverse of chop)."""
    segments = list(segments)
    if not segments:
        raise ValueError("nothing to concatenate")
    dt = segments[0].dt
    for prev, seg in zip(segments, segments[1:]):
        if abs(seg.dt - dt) > 1e-12 * dt:
            raise ValueError("segments disagree on dt")
        if abs(seg.t0 - (prev.t0 + prev.duration)) > 0.5 * dt:
            raise ValueError("segments are not contiguous")
    return SamplePath(segments[0].t0, dt, np.concatenate([s.values for s in segments]))


def refine(partition: TimePartition, extra) -> TimePartition:
    """Insert extra breakpoints; they must lie strictly inside (0, T).

    Idempotent (duplicates are merged) and commutative in the extra points.
    """
    pts = np.asarray(list(extra), dtype=float)
    if pts.size and (pts.min() <= 0 or pts.max() >= partition.horizon):
        raise ValueError("refinement points must lie strictly inside (0, T)")
    merged = np.unique(np.concatenate([partition.breakpoints, pts]))
    return TimePartition(merged)


def is_refinement(finer: TimePartition, coarser: TimePartition) -> bool:
    """True iff every breakpoint of `coarser` also appears in `finer` (exact equality)."""
    return bool(np.isin(coarser.breakpoints, finer.breakpoints).all())


def map_replicas(worker, n_replicas: int, jobs: int = 1) -> list:
    """Run worker(start, stop) over [0, n_replicas) in contiguous chunks.

    Results concatenate in replica order whatever the degree of parallelism,
    so estimates do not depend on `jobs`.  The worker must be picklable when
    jobs > 1 (a functools.partial of a module-level function qualifies).
    """
    n_replicas = int(n_replicas)
    if n_replicas <= 0:
        return []
    jobs = max(1, int(jobs))
    if jobs == 1 or n_replicas == 1:
        return list(worker(0, n_replicas))
    bounds = np.linspace(0, n_replicas, min(n_replicas, jobs * 4) + 1).astype(int)
    out = []
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        futures = [
            ex.submit(worker, int(a), int(b))
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]
        for fut in futures:
            out.extend(fut.result())
    return out


def replicated_estimate(worker, rng, replicas: int, jobs: int = 1) -> DiEstimate:
    """Mean and standard error of the values worker(master_seed, start, stop) returns.

    rng is an RngSpec or an integer master seed; a Generator is refused,
    since each replica derives its own stream from the master seed.  The
    standard error is nan for a single replica, which has no spread to
    estimate it from, so it cannot pass for an exact zero.
    """
    if isinstance(rng, np.random.Generator):
        raise TypeError("replicated estimators need an RngSpec or integer master seed")
    spec = rng if isinstance(rng, RngSpec) else RngSpec(int(rng))
    vals = np.asarray(map_replicas(functools.partial(worker, spec.master_seed), replicas, jobs),
                      dtype=float)
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else math.nan
    return DiEstimate(float(vals.mean()), stderr, int(vals.size), spec.master_seed)
