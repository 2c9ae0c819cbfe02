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

Every walk takes a stack of joints that share their alphabet sizes, with a
leading axis indexing the joints, and returns one value per joint; a lone
joint is walked as a stack of one.  Each term computes its four entropies in
one pass over the concatenated marginals, summed per joint and per marginal,
so a joint's value does not depend on the stack it was walked in: the public
functions below and stream_information agree bit for bit.
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

import json
import math
from dataclasses import dataclass
from itertools import accumulate

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


def _cmi_term(m_abc: np.ndarray, a_axes, b_axes):
    """I(A; B | C) = H(AC) + H(BC) - H(ABC) - H(C) per joint, and the A-C marginal.

    m_abc is a stack of p(A, B, C), joints along axis 0, with its summed-out
    axes kept at size one; C is every axis in neither A nor B nor axis 0.
    """
    m_ac = m_abc.sum(axis=b_axes, keepdims=True)
    m_bc = m_abc.sum(axis=a_axes, keepdims=True)
    m_c = m_bc.sum(axis=b_axes, keepdims=True)
    rows = [m.reshape(len(m_abc), -1) for m in (m_abc, m_c, m_ac, m_bc)]
    cells = np.concatenate(rows, axis=1)
    np.copyto(cells, 1.0, where=cells <= _ZERO)  # 1 ln 1 = 0
    plogp = np.log(cells)
    plogp *= cells
    starts = list(accumulate((row.shape[1] for row in rows[:-1]), initial=0))
    h = np.add.reduceat(plogp, starts, axis=1).T  # sum of m ln m per marginal
    # elementwise, not as a product with (1, 1, -1, -1): a BLAS call may round
    # a row differently by its position in the stack
    return (h[0] + h[1]) - (h[2] + h[3]), m_ac


def _axes(n: int):
    """The X and Y axes of a stack of joints of length n."""
    return tuple(range(1, n + 1)), tuple(range(n + 1, 2 * n + 1))


def _grouped_walk(probs, n, ends):
    """Sum over blocks j of I(X_1..X_{e_j}; Y-block j | Y_1..Y_{e_{j-1}}), last block first."""
    xa, ya = _axes(n)
    total = 0.0
    m = probs
    starts = (0,) + ends[:-1]
    for prev, end in zip(reversed(starts), reversed(ends)):
        # m = p(x^end, y^end), so C is y^prev
        term, m_ac = _cmi_term(m, xa[:end], ya[prev:end])
        total += term
        m = m_ac.sum(axis=xa[prev:end], keepdims=True)
    return total


def _reverse_walk(probs, n):
    """Sum over i of I(Y^{i-1}; X_i | X^{i-1}), last index first."""
    xa, ya = _axes(n)
    total = np.zeros(len(probs))  # n = 1 has no term
    m = probs
    for i in range(n, 1, -1):
        m = m.sum(axis=ya[i - 1], keepdims=True)  # p(x^i, y^{i-1}), so C is x^{i-1}
        term, m = _cmi_term(m, ya[: i - 1], (xa[i - 1],))
        total += term
    return total


def mutual_information(joint: JointSequencePmf) -> float:
    """I(X^n; Y^n), the exact relative entropy between joint and product-of-marginals."""
    return float(_grouped_walk(joint.probs[None], joint.n, (joint.n,))[0])


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
    return float(_grouped_walk(joint.probs[None], joint.n, grouping.ends)[0])


def directed_info(joint: JointSequencePmf) -> float:
    """Sum over i of I(X^i; Y_i | Y^{i-1})."""
    return grouped_directed_info(joint, Grouping.singletons(joint.n))


def reverse_directed_info(joint: JointSequencePmf) -> float:
    """Sum over i of I(Y^{i-1}; X_i | X^{i-1}); the i = 1 term is zero."""
    return float(_reverse_walk(joint.probs[None], joint.n)[0])


def conservation_residual(joint: JointSequencePmf) -> float:
    """directed + reverse-directed - mutual; exactly zero up to float rounding."""
    return directed_info(joint) + reverse_directed_info(joint) - mutual_information(joint)


def _walk_all(probs, n, reverse):
    """(di, reverse di or zeros, mi) per joint of a stack, each from the full tensor."""
    di = _grouped_walk(probs, n, tuple(range(1, n + 1)))
    rdi = _reverse_walk(probs, n) if reverse else np.zeros(len(probs))
    return di, rdi, _grouped_walk(probs, n, (n,))


def _walk_buckets(buckets, flat, out, reverse):
    """Walk every shape bucket of the flat buffer into the columns of out; empty the buckets."""
    for shape, (indices, offsets) in buckets.items():
        size = math.prod(shape)
        rows = np.stack([flat[o: o + size] for o in offsets]).reshape((len(indices),) + shape)
        out[:, indices] = _walk_all(rows, len(shape) // 2, reverse)
    buckets.clear()


def stream_information(joints, reverse: bool = True):
    """Directed, reverse directed and mutual information of every joint, in order.

    joints is any iterable of JointSequencePmf, consumed lazily.  A joint of
    at most _STACK_MAX cells is copied into one buffer of _STACK_CELLS cells,
    filed by shape, and not kept; the buffer is walked stack by stack when the
    next joint would overfill it and before a larger joint is walked alone.
    Returns three float arrays indexed like the iterable, each value equal
    bit for bit to that of directed_info, reverse_directed_info and
    mutual_information on the joint; with reverse=False the reverse values
    are zeros and not computed.
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
            out[:, count: count + 1] = _walk_all(probs[None], joint.n, reverse)
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
