"""Shared domain types: finite pmfs and uniform-grid sample paths, the
nonnegative-estimation loss, deterministic random-stream derivation, replica
plumbing, and the CSV writer every module uses.

Every information quantity in this package is measured in nats.  All types
here are immutable values after construction and all operations are pure, so
instances can be shared freely across threads and worker processes.

Replica protocol: a Monte Carlo estimator hands replicated_estimates a
function block(gens) of a list of numpy Generators that returns one row of
values per Generator in order, and only this module derives the streams:
replica r draws from default_rng(SeedSequence((seed, r))), and a block gets
the streams of up to _BLOCK consecutive replicas, so an estimate depends on
neither the blocking, the replica chunking nor the number of jobs.  A
worker derives its range's streams with RngSpec.streams, which hashes a run
of _RUN replicas at once as uint32 vectors, bit-identical to
default_rng(SeedSequence((seed, r))).  The Gaussian estimators draw and
filter a whole block as (replicas, steps) arrays, each worker reusing one
block's buffer while a row's values still depend on its own stream alone;
the Poisson ones draw one trajectory per Generator, a row group at a time,
and integrate each segment in closed form.  A row holds the replica's
values, then k groups of control columns of mean exactly 0, and each
estimate is the mean of its value plus controls fitted on the same
replicas, or the plain mean below 32 replicas; the gaussian and poisson
module docstrings say what each estimator's controls are and why their
means vanish.
No estimator uses SamplePath and it is not exported; it stays only because
the benchmark's tracer wraps its constructor by attribute.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FinitePmf",
    "RngSpec",
    "DiEstimate",
    "poisson_loss",
    "map_replicas",
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


def _inverse_cdf(pmf: FinitePmf, u):
    """The support points at uniforms u, as Generator.choice(pmf.support, p=pmf.probs) maps its own.

    choice draws one uniform per value and searches the normalized cdf, so
    where gen.random() drew u this is what choice would have drawn.
    FinitePmf has already checked what choice would.
    """
    cdf = pmf.probs.cumsum()
    cdf /= cdf[-1]
    return pmf.support[cdf.searchsorted(u, side="right")]


@dataclass(frozen=True)
class RngSpec:
    """Master seed plus the fixed per-replica stream derivation.

    Replica r draws from default_rng(SeedSequence((master_seed, r))), so any
    (master_seed, r) pair reproduces its stream bit-for-bit regardless of how
    many replicas run, in what order, or across how many processes.
    stream(r) is numpy's own derivation of one stream; streams(start, stop)
    derives a worker's range in vectorized runs, bit-identical to it.  Seeds
    and replica indices are integers, Python or numpy; others raise TypeError.
    """

    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "master_seed", operator.index(self.master_seed))
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")

    def stream(self, replica: int = 0) -> np.random.Generator:
        if operator.index(replica) < 0:
            raise ValueError("replica index must be nonnegative")
        return np.random.default_rng(np.random.SeedSequence((self.master_seed, int(replica))))

    def streams(self, start: int, stop: int):
        """Lazily yield the Generators of replicas [start, stop), each equal to stream(r).

        A run of up to _RUN replicas is hashed at once: its PCG64 seed words
        are SeedSequence's pool mix and generate_state(4, np.uint64) computed
        as uint32 vector arithmetic, which numpy's PCG64 then seeds itself
        from.  Each replica index must fit in one 32-bit entropy word.
        """
        if not 0 <= start <= stop <= 2**32:
            raise ValueError(f"replica range [{start}, {stop}) must lie within [0, 2**32]")
        # imported here, so that importing ctdi never loads numpy.random
        from numpy.random import PCG64, Generator

        seed_words = _seed_words_class()
        for a in range(start, stop, _RUN):
            for words in _pcg64_seed_words(self.master_seed, a, min(a + _RUN, stop)):
                yield Generator(PCG64(seed_words(words)))


# SeedSequence's hash constants (numpy.random.bit_generator, after O'Neill's
# seed_seq_fe): the multipliers evolve the same way for every entropy, so a
# run of replicas is hashed as uint32 vectors
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _pcg64_seed_words(master_seed: int, start: int, stop: int) -> np.ndarray:
    """SeedSequence((master_seed, r)).generate_state(4, np.uint64) for r in [start, stop), as rows.

    The entropy is master_seed's 32-bit words, least significant first (one
    word for 0), then r; padded with zeros to the 4-word pool, since it
    never exceeds 3 words.
    """
    r = np.arange(start, stop, dtype=np.uint32)
    shifts = range(0, max(master_seed.bit_length(), 1), 32)
    entropy = [np.full_like(r, master_seed >> s & _MASK32) for s in shifts] + [r]
    entropy += [np.zeros_like(r)] * (4 - len(entropy))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    pool = [hashmix(e) for e in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ mixed >> 16
    state = np.empty((r.size, 8), dtype=np.uint32)
    const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state[:, i] = value ^ value >> 16
    # pairs of words as little-endian uint64, as generate_state does
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_class() -> type:
    """The class of one replica's precomputed PCG64 seed words, posing as its SeedSequence.

    A subclass of numpy's ISeedSequence, so PCG64 seeds itself from the
    words, and passes PCG64's isinstance check faster than a class
    registered with that ABC would.  It is defined on first use, so that
    importing ctdi never loads numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class _SeedWords(ISeedSequence):
        def __init__(self, words):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("only PCG64's generate_state(4, np.uint64) is precomputed")
            return self._words

    return _SeedWords


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
    Accepts scalars or arrays (broadcast); negative or NaN inputs are a domain error.
    """
    xa = np.asarray(x, dtype=float)
    ha = np.asarray(xhat, dtype=float)
    if not ((xa >= 0).all() and (ha >= 0).all()):
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
    # imported here, so that a serial run never loads the process-pool machinery
    from concurrent.futures import ProcessPoolExecutor

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
# replicas per vectorized stream derivation: enough that the hash's few
# dozen vector operations cost little per replica
_RUN = 16 * _BLOCK


def _replica_range(block, master_seed: int, start: int, stop: int) -> list:
    """block(gens) over [start, stop) in blocks of _BLOCK, gens the streams of one block.

    Returns one (replicas, columns) array per block: arrays, not one object
    per replica, keep the collected values as compact as the values.
    """
    gens = RngSpec(master_seed).streams(start, stop)
    out = []
    for a in range(start, stop, _BLOCK):
        vals = np.asarray(block(list(itertools.islice(gens, _BLOCK))), dtype=float)
        out.append(vals.reshape(len(vals), -1))
    return out


def _columns(block, rng, replicas: int, jobs: int):
    """Each column of block(gens) over replicas independent streams, with the master seed.

    The columns come as the rows of one array, each a contiguous vector, so a
    column's reductions are those of the column computed alone.
    """
    # a Generator, a float or a string seed raises TypeError here
    spec = rng if isinstance(rng, RngSpec) else RngSpec(rng)
    replicas = operator.index(replicas)  # a float raises TypeError, as a float seed does
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    if replicas > 2**32:
        # every replica index then fits in one entropy word of its stream
        raise ValueError(f"replicas must be at most 2**32, got {replicas}")
    worker = functools.partial(_replica_range, block, spec.master_seed)
    return np.concatenate(map_replicas(worker, replicas, jobs)).T.copy(), spec.master_seed


def _unit(values: np.ndarray) -> float:
    """2^-e, e the math.frexp exponent of the largest finite |value| (at least -1022, so 2^-e is finite).

    Scaled by it the largest value lies in [0.5, 1), so no square of a value
    overflows or underflows; a power of two scales every sum, product,
    square root and solve exactly, so the statistics of the scaled values,
    divided back, are those of the raw values wherever those stay finite.
    """
    top = float(np.abs(values[np.isfinite(values)]).max(initial=0.0))
    return math.ldexp(1.0, -max(math.frexp(top)[1], -1022))


def _estimate(values: np.ndarray, master_seed: int) -> DiEstimate:
    n = values.size
    unit = _unit(values)
    scaled = values * unit
    stderr = float(scaled.std(ddof=1) / math.sqrt(n)) / unit if n > 1 else math.nan
    return DiEstimate(float(scaled.mean()) / unit, stderr, n, master_seed)


def replicated_estimates(block, rng, replicas: int, jobs: int = 1,
                         controls: int = 0) -> list[DiEstimate]:
    """Mean and standard error of each value column of block(gens) over independent streams.

    block maps a list of Generators, the streams of consecutive replicas, to
    one row of values per Generator in order (or one value, a one-column
    row); the estimates come in column order.  rng is an RngSpec or an
    integer master seed; a Generator is refused, since each replica derives
    its own stream from the master seed.  block must be picklable when
    jobs > 1.  The standard error is nan for a single replica, which has no
    spread to estimate it from, so it cannot pass for an exact zero.

    With controls = k >= 1 each row holds (k + 1) m values: m value columns
    Z, then k groups of m control columns, each of known mean 0, the i-th
    control of every group paired with the i-th value.  Each estimate is
    then the mean of Z + sum_a c_a M_a with c fitted on the same replicas (a
    regression control variate), and its standard error is that of the
    combined values; see _controlled.
    """
    columns, seed = _columns(block, rng, replicas, jobs)
    m, rest = divmod(len(columns), controls + 1)
    if rest:
        raise ValueError(f"{len(columns)} columns do not split into values and "
                         f"{controls} control groups")
    return [_estimate(_controlled(columns[i], columns[m + i::m]), seed) for i in range(m)]


# replicas below which a fitted control coefficient is too noisy to use
_CONTROL_MIN = 32
# a control's variance share left by the kept ones below which it is dropped:
# far above rounding (about 1e-32) and far below any useful control
_COLLINEAR = 1e-24


def _controlled(values: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """values + sum_a c_a controls_a with the variance-minimizing c.

    c solves the k x k normal equations Cov(M) c = -Cov(M, Z) over the
    controls kept, each entry an elementwise mean over the replicas (no
    matrix product).  A control is dropped when the controls kept before it
    reproduce its deviations to rounding (a residual variance of at most
    _COLLINEAR times its own; zero variance is the case of none kept), since
    it carries nothing they do not and would make the equations singular.  Below
    _CONTROL_MIN replicas the values stay as they are, since coefficients
    fitted on so few are mostly noise.  The fit runs on the values and the
    controls each scaled by one power of two (_unit), so the normal
    equations neither overflow nor underflow and pivot as on the raw columns.
    """
    if values.size < _CONTROL_MIN:
        return values
    unit_z, unit_c = _unit(values), _unit(controls)
    z, controls = values * unit_z, controls * unit_c
    dev = [c - c.mean() for c in controls]
    kept, residuals = [], []
    for a, d in enumerate(dev):
        r = d
        for q in residuals:  # Gram-Schmidt against the controls kept so far
            r = r - np.mean(r * q) / np.mean(q * q) * q
        if np.mean(r * r) > _COLLINEAR * np.mean(d * d):
            kept.append(a)
            residuals.append(r)
    if not kept:
        return values
    dz = z - z.mean()
    cov = [[np.mean(dev[a] * dev[b]) for b in kept] for a in kept]
    coef = np.linalg.solve(cov, [-np.mean(dz * dev[a]) for a in kept])
    for a, c in zip(kept, coef):
        z = z + c * controls[a]
    return z / unit_z


def write_csv(path, header, rows) -> None:
    """Write a header line and one line per row, numbers to 12 significant digits."""
    with open(path, "w", newline="\n") as out:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(f"{v:.12g}" for v in row) + "\n")
