"""Exact mutual and directed information over finite-alphabet sequence pairs.

The joint law of a pair (X^n, Y^n) is held as a dense probability tensor and
every information quantity is an exact enumeration over it, in nats.  This
module is the trusted oracle for the continuous-time estimators, so there are
no approximations beyond floating point.  Each conditional mutual information
term is evaluated in entropy form, I(A; B | C) = H(AC) + H(BC) - H(ABC) - H(C),
where each entropy sums -m ln m over the cells of its own marginal and treats
the cells at or below 1e-15 as exact zeros (0 ln 0 = 0).

Every term reads four prefix marginals p(x^a, y^b), keyed (a, b), so the
terms of a walk are read out of a prefix table.  A plan, cached per length
and per table layout, builds the table's keys in order of decreasing a + b,
each summed from the smallest larger marginal already in the table; the
entropies of every marginal of the walk come from one pass over them all,
and each quantity is one running sum of its terms, last index first.  The
empty prefix (0, 0) has entropy exactly 0, so a quantity with no terms reads
exactly 0.  Directed, reverse-directed and mutual information each get a
table of their own, built from the full tensor, so they share no marginal or
entropy, and no sum of terms is telescoped; the conservation identity below
therefore compares three independent computations.  A walk without reverse
directed information takes the same three tables, the reverse one a single
quantity with no terms.  The groupings of one refinement chain share one
table, and each grouping's value is still its own sum of conditional MI
terms, so monotonicity under refinement is checked, not implied.

Every walk takes a stack of joints that share their alphabet sizes, with a
leading axis indexing the joints, and returns one value per joint; a lone
joint is walked as a stack of one.  Every marginal is summed per joint and
every entropy per joint and per marginal, so a joint's value does not
depend on the stack it was walked in: the public functions below and
stream_information agree bit for bit.
stream_information evaluates a sequence of joints in stacks: it copies each
joint's cells into a buffer of _STACK_CELLS cells, filed by shape, walks every
shape's stack once the next joint would overfill the buffer, walks a joint
alone when it has more than _STACK_MAX cells, and returns the values in the
order of the sequence.

Directed information here is the sum over i of I(X^i; Y_i | Y^{i-1}); its
reverse companion sums I(Y^{i-1}; X_i | X^{i-1}), and the two always add up
to the full mutual information I(X^n; Y^n).  Grouping consecutive indices
into blocks coarsens the time order: one block recovers mutual information,
singleton blocks recover directed information, and refining a grouping never
increases the value.  Mutual information is computed as exactly that: the
grouped walk over the one block, a single term I(X^n; Y^n).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

_STATE_CAP = 1_000_000
_ZERO = 1e-15
_STACK_CELLS = 2**16  # cells stream_information buffers before it walks its stacks
_STACK_MAX = 2**12  # joints with more cells are walked alone; at most _STACK_CELLS
_LOG_CELLS = 2**13  # cells per block of a walk's entropy pass

__all__ = [
    "JointSequencePmf",
    "Grouping",
    "mutual_information",
    "directed_info",
    "reverse_directed_info",
    "conservation_residual",
    "grouped_directed_info",
    "chain_directed_info",
    "random_joint",
    "random_no_feedback_joint",
    "stream_information",
]


def _integers(values, what):
    """values as a tuple of ints; ValueError naming `what` unless each is integral."""
    values = tuple(values)
    try:
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        raise ValueError(f"{what} must be integers, got {values!r}")
    return ints


def _checked_sizes(x_sizes, y_sizes):
    """Per-index alphabet sizes as int tuples, with at most _STATE_CAP joint cells."""
    xs = _integers(x_sizes, "alphabet sizes")
    ys = _integers(y_sizes, "alphabet sizes")
    if not xs or len(xs) != len(ys):
        raise ValueError("need matching, nonempty per-index alphabet size tuples")
    if min(xs + ys) < 1:
        raise ValueError("alphabet sizes must be at least 1")
    states = math.prod(xs + ys)
    if states > _STATE_CAP:
        raise ValueError(f"state count {states} exceeds the enumeration cap {_STATE_CAP}")
    return xs, ys


@dataclass(frozen=True, eq=False)
class JointSequencePmf:
    """Joint law of two length-n sequences as a dense tensor.

    probs has shape x_sizes + y_sizes, row-major over (x_1..x_n, y_1..y_n);
    symbols are 0-based integers.  The total state count is capped at
    _STATE_CAP to keep enumeration tractable.
    """

    x_sizes: tuple
    y_sizes: tuple
    probs: np.ndarray

    def __post_init__(self):
        xs, ys = _checked_sizes(self.x_sizes, self.y_sizes)
        self._own(xs, ys, np.array(self.probs, dtype=float, order="C"))

    @classmethod
    def _drawn(cls, xs, ys, probs) -> "JointSequencePmf":
        """A joint over sizes already checked by _checked_sizes, owning a freshly drawn probs array."""
        joint = object.__new__(cls)
        joint._own(xs, ys, probs)
        return joint

    def _own(self, xs, ys, probs) -> None:
        """Check probs, a float array no caller holds, make it read-only and store the fields."""
        p = probs.reshape(xs + ys)
        if (p < 0).any():
            raise ValueError("probabilities must be nonnegative")
        total = p.sum()
        if not math.isfinite(total):
            raise ValueError("probabilities must be finite")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "x_sizes", xs)
        object.__setattr__(self, "y_sizes", ys)
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return len(self.x_sizes)

    def to_json(self) -> str:
        """Serialize as {"n", "x_alphabet_sizes", "y_alphabet_sizes", "probs"}.

        probs is the flat row-major probability list over (x^n, y^n).
        """
        return json.dumps(
            {
                "n": self.n,
                "x_alphabet_sizes": list(self.x_sizes),
                "y_alphabet_sizes": list(self.y_sizes),
                "probs": self.probs.ravel().tolist(),
            }
        )


def _mapped(cells):
    """An array of `cells` floats in an anonymous mapping of its own.

    The mapping is unmapped once the last view of it is gone, so its pages go
    back to the system instead of staying in the heap; mmap is imported here
    because loading it adds about 0.1 MB to every command's RSS.
    """
    import mmap

    return np.frombuffer(mmap.mmap(-1, 8 * int(cells)))


def _grouped(ends):
    """The terms of the grouped walk, one per block, first block first.

    The block (s, e] adds I(X^e; Y_{s+1}..Y_e | Y^s); a term is the prefix
    keys (abc, c, ac, bc) of its four entropies, (a, b) naming p(x^a, y^b).
    """
    starts = (0,) + ends[:-1]
    return tuple(((e, e), (0, s), (e, s), (0, e)) for s, e in zip(starts, ends))


def _reverse(n):
    """The terms of reverse directed information, I(Y^{i-1}; X_i | X^{i-1}) for i = 2..n."""
    return tuple(((i, i - 1), (i - 1, 0), (i - 1, i - 1), (i, 0)) for i in range(2, n + 1))


@functools.cache
def _plan(n, tables):
    """How _walks builds the prefix marginals of a stack of length-n joints and reads its terms.

    tables is a tuple of tables, each a tuple of quantities, each a tuple of
    terms as _grouped makes them.  A table's keys, the empty prefix aside,
    are built in order of decreasing a + b, each summed from the smallest
    larger marginal already in the same table, or from the joint itself; no
    table reads another's marginals.  Returns the build steps, each (source,
    axes, key) with source the index of an earlier step or None for the
    joint, and the entropy indices (abc, c, ac, bc) of every quantity's
    terms, an array (4, quantities, max(1, most terms)): each quantity's
    terms last first, then terms of four empty prefixes, which add exactly
    0.  The empty prefix (0, 0) is index -1, past the last step.
    """
    steps, quantities = [], []
    for table in tables:
        built = {}  # key -> its step
        keys = {key for quantity in table for term in quantity for key in term} - {(0, 0)}
        for a, b in sorted(keys, key=lambda k: (-sum(k), k)):
            larger = [k for k in built if k[0] >= a and k[1] >= b]
            top = min(larger, key=sum) if larger else (n, n)
            axes = tuple(range(a + 1, top[0] + 1)) + tuple(range(n + b + 1, n + top[1] + 1))
            steps.append((built.get(top), axes, (a, b)))
            built[a, b] = len(steps) - 1
        quantities += [[[built.get(key, -1) for key in term] for term in quantity[::-1]]
                       for quantity in table]
    width = max([1, *map(len, quantities)])
    padded = [terms + [[-1] * 4] * (width - len(terms)) for terms in quantities]
    index = np.array(padded, dtype=np.intp).reshape(len(padded), width, 4).transpose(2, 0, 1).copy()
    index.flags.writeable = False
    return tuple(steps), index


def _walks(probs, n, tables):
    """Every quantity of every table, per joint of the stack probs: a (quantities, joints) array.

    The marginals of every table are summed as _plan says into one array,
    each a contiguous block (joints, its cells) as a lone reduction would
    write it, and their entropies taken in one pass over that array; each
    term is then read out of them, and a quantity is the running sum of its
    terms, last term first.
    """
    steps, index = _plan(n, tables)
    joints, ones = len(probs), (1,) * n
    shapes = [probs.shape[:a + 1] + ones[a:] + probs.shape[n + 1: n + b + 1] + ones[b:]
              for _, _, (a, b) in steps]
    # one segment per marginal and joint, block by block; the last block is
    # the empty prefix, one cell of exactly 1 per joint, so its entropy is 0
    sizes = np.array([math.prod(shape[1:]) for shape in shapes] + [1]).repeat(joints)
    ends = sizes.cumsum()
    # more cells than the stream buffer get a mapping of their own, so a large
    # lone walk does not grow the heap for the rest of the process
    cells = _mapped(ends[-1]) if ends[-1] > _STACK_CELLS else np.empty(ends[-1])
    start = 0
    marginals = []
    for (source, axes, _), shape in zip(steps, shapes):
        m = cells[start: start + math.prod(shape)].reshape(shape)
        np.add.reduce(probs if source is None else marginals[source], axis=axes,
                      keepdims=True, out=m)
        marginals.append(m)
        start += m.size
    cells[start:] = 1.0
    # m ln m in place, _LOG_CELLS cells at a time, so no temporary is as large as cells
    for start in range(0, cells.size, _LOG_CELLS):
        block = cells[start: start + _LOG_CELLS]
        np.copyto(block, 1.0, where=block <= _ZERO)  # 1 ln 1 = 0
        block *= np.log(block)
    # sum of m ln m per marginal and joint
    h = np.add.reduceat(cells, ends - sizes).reshape(-1, joints)
    m = h[index]
    # elementwise, not as a product with (1, 1, -1, -1): a BLAS call may round
    # a row differently by its position in the stack
    terms = (m[0] + m[1]) - (m[2] + m[3])
    # a running sum in term order, not np.sum, which adds a column pairwise
    return np.add.accumulate(terms, axis=1)[:, -1]


def mutual_information(joint: JointSequencePmf) -> float:
    """I(X^n; Y^n), the exact relative entropy between joint and product-of-marginals."""
    return float(_walks(joint.probs[None], joint.n, ((_grouped((joint.n,)),),))[0, 0])


@dataclass(frozen=True)
class Grouping:
    """Consecutive blocks covering positions 1..n, stored as 1-based block ends."""

    ends: tuple

    def __post_init__(self):
        ends = _integers(self.ends, "block ends")
        if not ends or ends[0] < 1 or any(b <= a for a, b in zip(ends, ends[1:])):
            raise ValueError("block ends must be strictly increasing positive integers")
        object.__setattr__(self, "ends", ends)

    @classmethod
    def singletons(cls, n: int) -> "Grouping":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def one_block(cls, n: int) -> "Grouping":
        return cls((n,))

    @property
    def n(self) -> int:
        return self.ends[-1]


def chain_directed_info(joint: JointSequencePmf, groupings) -> list[float]:
    """grouped_directed_info of each grouping, in order, every term read from one prefix table.

    Every grouping must cover the joint's length; refining a grouping never
    raises its value, and the values are computed, not derived from that.
    """
    groupings = list(groupings)
    if any(grouping.n != joint.n for grouping in groupings):
        raise ValueError("grouping does not cover the sequence length")
    table = tuple(_grouped(grouping.ends) for grouping in groupings)
    return _walks(joint.probs[None], joint.n, (table,))[:, 0].tolist()


def grouped_directed_info(joint: JointSequencePmf, grouping: Grouping) -> float:
    """Directed information between the block-supersymbol sequences.

    Sum over blocks j of I(X_1..X_{e_j}; Y-block j | Y_1..Y_{e_{j-1}}).
    """
    return chain_directed_info(joint, [grouping])[0]


def directed_info(joint: JointSequencePmf) -> float:
    """Sum over i of I(X^i; Y_i | Y^{i-1})."""
    return grouped_directed_info(joint, Grouping.singletons(joint.n))


def reverse_directed_info(joint: JointSequencePmf) -> float:
    """Sum over i of I(Y^{i-1}; X_i | X^{i-1}); the i = 1 term is zero."""
    return float(_walks(joint.probs[None], joint.n, ((_reverse(joint.n),),))[0, 0])


def conservation_residual(joint: JointSequencePmf) -> float:
    """directed + reverse-directed - mutual; exactly zero up to float rounding."""
    return directed_info(joint) + reverse_directed_info(joint) - mutual_information(joint)


@functools.cache
def _tables(n, reverse):
    """The tables of DI, reverse DI (without reverse, one quantity with no terms) and MI."""
    return ((_grouped(tuple(range(1, n + 1))),), (_reverse(n) if reverse else (),),
            (_grouped((n,)),))


def _walk_buckets(buckets, flat, out, reverse):
    """Walk every shape bucket of the flat buffer into the columns of out; empty the buckets."""
    for shape, (indices, offsets) in buckets.items():
        size = math.prod(shape)
        rows = np.stack([flat[o: o + size] for o in offsets]).reshape((len(indices),) + shape)
        out[:, indices] = _walks(rows, len(shape) // 2, _tables(len(shape) // 2, reverse))
    buckets.clear()


def stream_information(joints, reverse: bool = True):
    """Directed, reverse directed and mutual information of every joint, in order.

    joints is any iterable of JointSequencePmf, consumed lazily.  A joint of
    at most _STACK_MAX cells is copied into one buffer of _STACK_CELLS cells,
    filed by shape, and not kept; the buffer is walked stack by stack when the
    next joint would overfill it and before a larger joint is walked alone.
    Returns three float arrays indexed like the iterable, each value a running
    sum of its terms and equal bit for bit to that of directed_info,
    reverse_directed_info and mutual_information on the joint; with
    reverse=False the reverse quantity has no terms, so its values are zeros.
    """
    flat = _mapped(_STACK_CELLS)
    buckets = {}  # shape -> (indices, offsets into flat)
    out = np.zeros((3, 256))
    count = buffered = 0
    for joint in joints:
        if count == out.shape[1]:
            out = np.concatenate([out, np.zeros_like(out)], axis=1)
        probs = joint.probs
        big = probs.size > _STACK_MAX
        if big or buffered + probs.size > _STACK_CELLS:
            # a joint walked alone does not share memory with a full buffer
            _walk_buckets(buckets, flat, out, reverse)
            buffered = 0
        if big:
            out[:, count: count + 1] = _walks(probs[None], joint.n, _tables(joint.n, reverse))
        else:
            flat[buffered: buffered + probs.size] = probs.ravel()
            indices, offsets = buckets.setdefault(probs.shape, ([], []))
            indices.append(count)
            offsets.append(buffered)
            buffered += probs.size
        count += 1
    _walk_buckets(buckets, flat, out, reverse)
    return tuple(out[:, :count].copy())


def random_joint(rng: np.random.Generator, x_sizes, y_sizes) -> JointSequencePmf:
    """Uniformly random joint law (flat Dirichlet over the full state space)."""
    xs, ys = _checked_sizes(x_sizes, y_sizes)
    return JointSequencePmf._drawn(xs, ys, rng.dirichlet(np.ones(math.prod(xs + ys))))


def random_no_feedback_joint(rng: np.random.Generator, x_sizes, y_sizes) -> JointSequencePmf:
    """Random causal channel driven by an exogenous input law.

    The input sequence law p(x^n) is arbitrary, and each output is drawn from
    a random kernel p(y_i | x^i, y^{i-1}) that never looks at future inputs.
    Because the input ignores past outputs, directed information equals
    mutual information for these joints.
    """
    xs, ys = _checked_sizes(x_sizes, y_sizes)
    n = len(xs)
    joint = rng.dirichlet(np.ones(math.prod(xs))).reshape(xs + (1,) * n)
    for i in range(n):
        cond_shape = xs[: i + 1] + ys[:i]
        rows = rng.dirichlet(np.ones(ys[i]), size=math.prod(cond_shape))
        kern_shape = (
            xs[: i + 1]
            + (1,) * (n - i - 1)
            + ys[:i]
            + (ys[i],)
            + (1,) * (n - i - 1)
        )
        joint = joint * rows.reshape(kern_shape)
    return JointSequencePmf._drawn(xs, ys, joint)
