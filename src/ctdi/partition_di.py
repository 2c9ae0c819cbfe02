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
]


def _checked_sizes(x_sizes, y_sizes):
    """Per-index alphabet sizes as int tuples, with at most _STATE_CAP joint cells."""
    xs = tuple(int(s) for s in x_sizes)
    ys = tuple(int(s) for s in y_sizes)
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
        p = np.array(self.probs, dtype=float).reshape(xs + ys)
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "x_sizes", xs)
        object.__setattr__(self, "y_sizes", ys)
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return len(self.x_sizes)

    @property
    def x_axes(self) -> tuple:
        return tuple(range(self.n))

    @property
    def y_axes(self) -> tuple:
        return tuple(range(self.n, 2 * self.n))

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


def _plogp(m: np.ndarray) -> float:
    """Sum of m ln m over the cells of m above _ZERO: minus the entropy of m."""
    m = m[m > _ZERO]
    return float(np.dot(m, np.log(m)))


def _cmi_term(m_abc: np.ndarray, a_axes, b_axes):
    """I(A; B | C) = H(AC) + H(BC) - H(ABC) - H(C), and the A-C marginal.

    m_abc is p(A, B, C) with its summed-out axes kept at size one; C is every
    axis in neither A nor B.
    """
    m_ac = m_abc.sum(axis=b_axes, keepdims=True)
    m_bc = m_abc.sum(axis=a_axes, keepdims=True)
    m_c = m_bc.sum(axis=b_axes, keepdims=True)
    return _plogp(m_abc) + _plogp(m_c) - _plogp(m_ac) - _plogp(m_bc), m_ac


def mutual_information(joint: JointSequencePmf) -> float:
    """I(X^n; Y^n), the exact relative entropy between joint and product-of-marginals."""
    return _cmi_term(joint.probs, joint.x_axes, joint.y_axes)[0]


@dataclass(frozen=True)
class Grouping:
    """Consecutive blocks covering positions 1..n, stored as 1-based block ends."""

    ends: tuple

    def __post_init__(self):
        ends = tuple(int(e) for e in self.ends)
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
    xa, ya = joint.x_axes, joint.y_axes
    total = 0.0
    m = joint.probs
    starts = (0,) + grouping.ends[:-1]
    for prev, end in zip(reversed(starts), reversed(grouping.ends)):
        # m = p(x^end, y^end), so C is y^prev
        term, m_ac = _cmi_term(m, xa[:end], ya[prev:end])
        total += term
        m = m_ac.sum(axis=xa[prev:end], keepdims=True)
    return total


def directed_info(joint: JointSequencePmf) -> float:
    """Sum over i of I(X^i; Y_i | Y^{i-1})."""
    return grouped_directed_info(joint, Grouping.singletons(joint.n))


def reverse_directed_info(joint: JointSequencePmf) -> float:
    """Sum over i of I(Y^{i-1}; X_i | X^{i-1}); the i = 1 term is zero."""
    xa, ya = joint.x_axes, joint.y_axes
    total = 0.0
    m = joint.probs
    for i in range(joint.n, 1, -1):
        m = m.sum(axis=ya[i - 1], keepdims=True)  # p(x^i, y^{i-1}), so C is x^{i-1}
        term, m = _cmi_term(m, ya[: i - 1], (xa[i - 1],))
        total += term
    return total


def conservation_residual(joint: JointSequencePmf) -> float:
    """directed + reverse-directed - mutual; exactly zero up to float rounding."""
    return directed_info(joint) + reverse_directed_info(joint) - mutual_information(joint)


def random_joint(rng: np.random.Generator, x_sizes, y_sizes) -> JointSequencePmf:
    """Uniformly random joint law (flat Dirichlet over the full state space)."""
    xs, ys = _checked_sizes(x_sizes, y_sizes)
    probs = rng.dirichlet(np.ones(math.prod(xs + ys)))
    return JointSequencePmf(xs, ys, probs)


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
    return JointSequencePmf(xs, ys, joint)
