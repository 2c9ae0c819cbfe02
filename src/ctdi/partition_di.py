"""Exact mutual and directed information over finite-alphabet sequence pairs.

The joint law of a pair (X^n, Y^n) is held as a dense probability tensor and
every information quantity is an exact enumeration over it, in nats.  This
module is the trusted oracle for the continuous-time estimators, so there are
no approximations beyond floating point.  Each conditional mutual information
term is evaluated in entropy form, I(A; B | C) = H(AC) + H(BC) - H(ABC) - H(C),
where each entropy sums -m ln m over the cells of its own marginal and treats
the cells at or below 1e-15 as exact zeros (0 ln 0 = 0).

A quantity walks its terms from the last index down: the prefix marginal of
each term is a sum over the next larger one, so the full tensor is reduced
once per quantity, not once per term.  Directed, reverse-directed and mutual
information each start from the full tensor and share no marginal or entropy,
and no sum of terms is telescoped; the conservation identity below therefore
compares three independent computations.

Each walk takes an optional leading batch axis: a stack of joints that share
their alphabet sizes is walked in one pass, with every axis shifted by one and
each entropy summed per joint (the same 1e-15 cutoff, cell by cell).  The
public functions below walk one joint with no batch axis and are the
bit-for-bit reference; a stacked value agrees with them to float rounding.
stream_information evaluates a sequence of joints in stacks: it copies each
joint's cells into a buffer of _STACK_CELLS cells, filed by shape, walks every
shape's stack once the next joint would overfill the buffer, walks a joint
alone when it is the only one of its shape or has more than _STACK_MAX cells,
and returns the values in the order of the sequence.

Directed information here is the sum over i of I(X^i; Y_i | Y^{i-1}); its
reverse companion sums I(Y^{i-1}; X_i | X^{i-1}), and the two always add up
to the full mutual information I(X^n; Y^n).  Grouping consecutive indices
into blocks coarsens the time order: one block recovers mutual information,
singleton blocks recover directed information, and refining a grouping never
increases the value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_STATE_CAP = 1_000_000
_ZERO = 1e-15
_STACK_CELLS = 2**16  # cells stream_information buffers before it walks its stacks
_STACK_MAX = 2**12  # joints with more cells are walked alone; at most _STACK_CELLS

__all__ = [
    "JointSequencePmf",
    "Grouping",
    "mutual_information",
    "directed_info",
    "reverse_directed_info",
    "conservation_residual",
    "grouped_directed_info",
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
        self._own(xs, ys, np.array(self.probs, dtype=float))

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


def _plogp(m: np.ndarray, batch: int = 0):
    """Sum of m ln m over the cells of m above _ZERO: minus the entropy of m.

    With batch = 1 the leading axis indexes a stack of joints, and the sum is
    taken per joint over the other axes.
    """
    if not batch:
        m = m[m > _ZERO]
        return float(np.dot(m, np.log(m)))
    cells = np.where(m > _ZERO, m, 1.0)
    np.log(cells, out=cells)
    cells *= m
    return np.add.reduce(cells.reshape(len(m), -1), axis=1)


def _cmi_term(m_abc: np.ndarray, a_axes, b_axes, batch: int = 0):
    """I(A; B | C) = H(AC) + H(BC) - H(ABC) - H(C), and the A-C marginal.

    m_abc is p(A, B, C) with its summed-out axes kept at size one; C is every
    axis in neither A nor B nor the batch axis.
    """
    m_ac = m_abc.sum(axis=b_axes, keepdims=True)
    m_bc = m_abc.sum(axis=a_axes, keepdims=True)
    m_c = m_bc.sum(axis=b_axes, keepdims=True)
    return (_plogp(m_abc, batch) + _plogp(m_c, batch)
            - _plogp(m_ac, batch) - _plogp(m_bc, batch)), m_ac


def _axes(n: int, batch: int):
    """The X and Y axes of a joint of length n after `batch` leading axes."""
    return tuple(range(batch, batch + n)), tuple(range(batch + n, batch + 2 * n))


def _mi_walk(probs, n, batch=0):
    return _cmi_term(probs, *_axes(n, batch), batch)[0]


def _grouped_walk(probs, n, ends, batch=0):
    """Sum over blocks j of I(X_1..X_{e_j}; Y-block j | Y_1..Y_{e_{j-1}}), last block first."""
    xa, ya = _axes(n, batch)
    total = 0.0
    m = probs
    starts = (0,) + ends[:-1]
    for prev, end in zip(reversed(starts), reversed(ends)):
        # m = p(x^end, y^end), so C is y^prev
        term, m_ac = _cmi_term(m, xa[:end], ya[prev:end], batch)
        total += term
        m = m_ac.sum(axis=xa[prev:end], keepdims=True)
    return total


def _reverse_walk(probs, n, batch=0):
    """Sum over i of I(Y^{i-1}; X_i | X^{i-1}), last index first."""
    xa, ya = _axes(n, batch)
    total = np.zeros(len(probs)) if batch else 0.0  # n = 1 has no term
    m = probs
    for i in range(n, 1, -1):
        m = m.sum(axis=ya[i - 1], keepdims=True)  # p(x^i, y^{i-1}), so C is x^{i-1}
        term, m = _cmi_term(m, ya[: i - 1], (xa[i - 1],), batch)
        total += term
    return total


def mutual_information(joint: JointSequencePmf) -> float:
    """I(X^n; Y^n), the exact relative entropy between joint and product-of-marginals."""
    return _mi_walk(joint.probs, joint.n)


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


def grouped_directed_info(joint: JointSequencePmf, grouping: Grouping) -> float:
    """Directed information between the block-supersymbol sequences.

    Sum over blocks j of I(X_1..X_{e_j}; Y-block j | Y_1..Y_{e_{j-1}}).
    """
    if grouping.n != joint.n:
        raise ValueError("grouping does not cover the sequence length")
    return _grouped_walk(joint.probs, joint.n, grouping.ends)


def directed_info(joint: JointSequencePmf) -> float:
    """Sum over i of I(X^i; Y_i | Y^{i-1})."""
    return grouped_directed_info(joint, Grouping.singletons(joint.n))


def reverse_directed_info(joint: JointSequencePmf) -> float:
    """Sum over i of I(Y^{i-1}; X_i | X^{i-1}); the i = 1 term is zero."""
    return _reverse_walk(joint.probs, joint.n)


def conservation_residual(joint: JointSequencePmf) -> float:
    """directed + reverse-directed - mutual; exactly zero up to float rounding."""
    return directed_info(joint) + reverse_directed_info(joint) - mutual_information(joint)


def _walk_all(probs, n, batch, reverse):
    """(di, reverse di or 0, mi) of one joint or a stack, each from the full tensor."""
    di = _grouped_walk(probs, n, tuple(range(1, n + 1)), batch)
    rdi = _reverse_walk(probs, n, batch) if reverse else 0.0
    return di, rdi, _mi_walk(probs, n, batch)


def _walk_buckets(buckets, flat, out, reverse):
    """Walk every shape bucket of the flat buffer into the columns of out; empty the buckets."""
    for shape, (indices, offsets) in buckets.items():
        n = len(shape) // 2
        size = math.prod(shape)
        if len(indices) == 1:
            values = _walk_all(flat[offsets[0]: offsets[0] + size].reshape(shape), n, 0, reverse)
        else:
            rows = np.stack([flat[o: o + size] for o in offsets]).reshape((len(indices),) + shape)
            values = _walk_all(rows, n, 1, reverse)
        for column, value in zip(out, values):
            column[indices] = value
    buckets.clear()


def stream_information(joints, reverse: bool = True):
    """Directed, reverse directed and mutual information of every joint, in order.

    joints is any iterable of JointSequencePmf, consumed lazily.  A joint of
    at most _STACK_MAX cells is copied into one buffer of _STACK_CELLS cells,
    filed by shape, and not kept; the buffer is walked stack by stack when the
    next joint would overfill it and before a larger joint is walked alone.
    Returns three float arrays indexed like the iterable; with reverse=False
    the reverse values are zeros and not computed.
    """
    # an anonymous mapping, unmapped once the last view of it is gone, so its
    # pages go back to the system instead of staying in the heap; imported
    # here because loading mmap adds about 0.1 MB to every command's RSS
    import mmap

    flat = np.frombuffer(mmap.mmap(-1, 8 * _STACK_CELLS))
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
            for column, value in zip(out, _walk_all(probs, joint.n, 0, reverse)):
                column[count] = value
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
