import json
import math

import numpy as np
import pytest

from ctdi.partition_di import (
    Grouping,
    JointSequencePmf,
    conservation_residual,
    directed_info,
    grouped_directed_info,
    mutual_information,
    random_joint,
    random_no_feedback_joint,
    reverse_directed_info,
)


def _copy_channel(n):
    """Uniform X^n copied verbatim to Y^n (Y_i = X_i)."""
    shape = (2,) * (2 * n)
    probs = np.zeros(shape)
    for bits in np.ndindex(*([2] * n)):
        probs[bits + bits] = 0.5**n
    return JointSequencePmf([2] * n, [2] * n, probs)


def _echo_channel(n):
    """X_i = Y_{i-1} with X_1 = 0 and i.i.d. uniform Y bits."""
    shape = (2,) * (2 * n)
    probs = np.zeros(shape)
    for ybits in np.ndindex(*([2] * n)):
        xbits = (0,) + ybits[:-1]
        probs[xbits + ybits] = 0.5**n
    return JointSequencePmf([2] * n, [2] * n, probs)


def test_copy_channel_di_equals_entropy():
    joint = _copy_channel(3)
    di = directed_info(joint)
    assert di == pytest.approx(3 * math.log(2), abs=1e-12)
    assert mutual_information(joint) == pytest.approx(3 * math.log(2), abs=1e-12)
    assert reverse_directed_info(joint) == pytest.approx(0.0, abs=1e-12)


def test_pure_feedback_channel_has_zero_di():
    joint = _echo_channel(3)
    assert directed_info(joint) == pytest.approx(0.0, abs=1e-12)
    # all the dependence flows backwards: X^n determines nothing about the
    # next Y, but past Y fixes the current X
    mi = mutual_information(joint)
    assert mi == pytest.approx(2 * math.log(2), abs=1e-12)
    assert reverse_directed_info(joint) == pytest.approx(mi, abs=1e-12)


def test_independent_joint_carries_no_information():
    gen = np.random.default_rng(29)
    px = gen.dirichlet(np.ones(4)).reshape(2, 2)
    py = gen.dirichlet(np.ones(4)).reshape(2, 2)
    joint = JointSequencePmf([2, 2], [2, 2], np.einsum("ab,cd->abcd", px, py))
    assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)
    assert directed_info(joint) == pytest.approx(0.0, abs=1e-12)
    assert reverse_directed_info(joint) == pytest.approx(0.0, abs=1e-12)
    assert conservation_residual(joint) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_matches_direct_kl_sum():
    gen = np.random.default_rng(30)
    joint = random_joint(gen, [2, 2], [2, 2])
    p = joint.probs.reshape(4, 4)
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    direct = float(np.sum(np.where(
        p > 0, p * (np.log(p) - np.log(px) - np.log(py)), 0.0)))
    assert mutual_information(joint) == pytest.approx(direct, abs=1e-12)


def test_no_feedback_means_di_equals_mi():
    gen = np.random.default_rng(21)
    for _ in range(60):
        n = int(gen.integers(1, 4))
        xs = [int(gen.integers(2, 4)) for _ in range(n)]
        ys = [int(gen.integers(2, 4)) for _ in range(n)]
        joint = random_no_feedback_joint(gen, xs, ys)
        di = directed_info(joint)
        mi = mutual_information(joint)
        assert abs(di - mi) < 1e-9


def test_conservation_and_sandwich_random_sweep():
    gen = np.random.default_rng(22)
    for _ in range(200):
        n = int(gen.integers(1, 4))
        xs = [int(gen.integers(2, 4)) for _ in range(n)]
        ys = [int(gen.integers(2, 4)) for _ in range(n)]
        joint = random_joint(gen, xs, ys)
        di = directed_info(joint)
        mi = mutual_information(joint)
        assert abs(conservation_residual(joint)) < 1e-9
        assert di >= -1e-12
        assert di <= mi + 1e-12


def test_grouping_extremes():
    gen = np.random.default_rng(23)
    for _ in range(40):
        n = int(gen.integers(2, 5))
        xs = [2] * n
        ys = [2] * n
        joint = random_joint(gen, xs, ys)
        one = grouped_directed_info(joint, Grouping.one_block(n))
        mi = mutual_information(joint)
        di = directed_info(joint)
        singles = grouped_directed_info(joint, Grouping.singletons(n))
        assert one == pytest.approx(mi, abs=1e-10)
        assert singles == pytest.approx(di, abs=1e-12)
        assert di <= one + 1e-12


def test_grouping_refinement_monotone_chains():
    gen = np.random.default_rng(24)
    n = 4
    for _ in range(60):
        joint = random_joint(gen, [2] * n, [2] * n)
        cuts = [1, 2, 3]
        gen.shuffle(cuts)
        ends = [n]
        chain = [Grouping(ends)]
        for c in cuts:
            ends = sorted(set(ends) | {c})
            chain.append(Grouping(ends))
        for finer, coarser in zip(chain[1:], chain[:-1]):
            assert set(coarser.ends) < set(finer.ends)
        vals = [grouped_directed_info(joint, g) for g in chain]
        for hi, lo in zip(vals[:-1], vals[1:]):
            assert lo <= hi + 1e-12
        assert vals[0] == pytest.approx(mutual_information(joint), abs=1e-10)
        assert vals[-1] == pytest.approx(directed_info(joint), abs=1e-12)


def test_grouping_validation():
    g = Grouping([2, 4])
    assert g.n == 4
    with pytest.raises(ValueError):
        Grouping([])
    with pytest.raises(ValueError):
        Grouping([2, 2])
    with pytest.raises(ValueError):
        Grouping([0, 2])


def test_prefix_joint_monotone_di():
    gen = np.random.default_rng(25)
    for _ in range(20):
        joint = random_joint(gen, [2, 2, 2], [2, 2, 2])
        # marginals of the first one and two positions: axes are (x1, x2, x3, y1, y2, y3)
        d1 = directed_info(JointSequencePmf([2], [2], joint.probs.sum(axis=(1, 2, 4, 5))))
        d2 = directed_info(JointSequencePmf([2, 2], [2, 2], joint.probs.sum(axis=(2, 5))))
        d3 = directed_info(joint)
        assert d1 <= d2 + 1e-12
        assert d2 <= d3 + 1e-12


def test_joint_validation():
    with pytest.raises(ValueError):
        JointSequencePmf([2], [2], np.full((2, 2), 0.3))
    with pytest.raises(ValueError):
        JointSequencePmf([2], [2, 2], np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        JointSequencePmf([2], [2], -np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        JointSequencePmf([40, 40], [40, 40], np.zeros((40, 40, 40, 40)))


def test_json_roundtrip():
    gen = np.random.default_rng(26)
    joint = random_joint(gen, [2, 3], [3, 2])
    blob = joint.to_json()
    doc = json.loads(blob)
    assert doc["n"] == 2
    assert doc["x_alphabet_sizes"] == [2, 3]
    back = JointSequencePmf(doc["x_alphabet_sizes"], doc["y_alphabet_sizes"],
                            np.array(doc["probs"]))
    assert back.n == joint.n
    assert np.array_equal(back.probs, joint.probs)
    assert directed_info(back) == directed_info(joint)


def test_deterministic_singleton_sequences():
    # n = 1 degenerates to plain mutual information
    gen = np.random.default_rng(28)
    joint = random_joint(gen, [3], [3])
    assert directed_info(joint) == pytest.approx(mutual_information(joint), abs=1e-14)
    assert reverse_directed_info(joint) == 0.0


def test_random_joints_check_the_state_cap_before_drawing():
    class NoDraws:
        def dirichlet(self, *args, **kwargs):
            raise AssertionError("drew a Dirichlet for a joint over the state cap")

    # 3**14 = 4.8M cells, over the 1e6 cap
    for make in (random_joint, random_no_feedback_joint):
        with pytest.raises(ValueError, match="enumeration cap"):
            make(NoDraws(), (3,) * 7, (3,) * 7)


def _cmi_oracle(probs, a_axes, b_axes, c_axes):
    """Brute-force I(A; B | C): move the axes to (A, B, C, rest), view the
    tensor as 4-D, and sum p ln(p p_c / (p_ac p_bc)) over the cells with p > 0."""
    groups = [list(a_axes), list(b_axes), list(c_axes)]
    groups.append([ax for ax in range(probs.ndim) if not any(ax in g for g in groups)])
    order = [ax for g in groups for ax in g]
    shape = [math.prod(probs.shape[ax] for ax in g) for g in groups]
    p = np.transpose(probs, order).reshape(shape).sum(axis=3)
    p_ac = p.sum(axis=1, keepdims=True)
    p_bc = p.sum(axis=0, keepdims=True)
    p_c = p.sum(axis=(0, 1), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p * p_c / (p_ac * p_bc))
    return float(np.sum(terms[p > 0]))


def _oracle_quantities(probs, n):
    """(di, reverse di, mi, {grouping ends: grouped di}) from _cmi_oracle alone;
    axes 0..n-1 are X_1..X_n and n..2n-1 are Y_1..Y_n."""
    x = list(range(n))
    y = list(range(n, 2 * n))
    di = sum(_cmi_oracle(probs, x[:i], [y[i - 1]], y[: i - 1]) for i in range(1, n + 1))
    rdi = sum(_cmi_oracle(probs, y[: i - 1], [x[i - 1]], x[: i - 1]) for i in range(2, n + 1))
    mi = _cmi_oracle(probs, x, y, [])
    grouped = {}
    for mask in range(2 ** (n - 1)):
        ends = tuple(e for e in range(1, n) if mask >> (e - 1) & 1) + (n,)
        starts = (0,) + ends[:-1]
        grouped[ends] = sum(_cmi_oracle(probs, x[:e], y[s:e], y[:s])
                            for s, e in zip(starts, ends))
    return di, rdi, mi, grouped


def _assert_engine_matches_oracle(joint):
    di, rdi, mi, grouped = _oracle_quantities(joint.probs, joint.n)
    assert abs(directed_info(joint) - di) <= 1e-12
    assert abs(reverse_directed_info(joint) - rdi) <= 1e-12
    assert abs(mutual_information(joint) - mi) <= 1e-12
    for ends, value in grouped.items():
        assert abs(grouped_directed_info(joint, Grouping(ends)) - value) <= 1e-12


def test_engine_matches_brute_force_oracle_on_random_joints():
    gen = np.random.default_rng(31)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            xs = [int(s) for s in gen.integers(2, 4, size=n)]
            ys = [int(s) for s in gen.integers(2, 4, size=n)]
            probs = gen.dirichlet(np.ones(math.prod(xs + ys)))
            _assert_engine_matches_oracle(JointSequencePmf(xs, ys, probs))


def test_engine_matches_brute_force_oracle_with_exact_zeros():
    for n in (1, 2, 3, 4):
        _assert_engine_matches_oracle(_copy_channel(n))
        _assert_engine_matches_oracle(_echo_channel(n))


def test_engine_matches_brute_force_oracle_near_the_zero_cutoff():
    # a few cells at or just below 1e-15, the cutoff the engine treats as zero
    gen = np.random.default_rng(32)
    for n in (2, 3, 4):
        for _ in range(4):
            xs = [int(s) for s in gen.integers(2, 4, size=n)]
            ys = [int(s) for s in gen.integers(2, 4, size=n)]
            probs = gen.dirichlet(np.ones(math.prod(xs + ys)))
            tiny = gen.choice(probs.size, size=6, replace=False)
            probs[tiny] = np.array([1e-15, 9.9e-16, 9e-16, 5e-16, 2e-16, 1e-16])
            rest = np.ones(probs.size, dtype=bool)
            rest[tiny] = False
            probs[rest] *= (1.0 - probs[tiny].sum()) / probs[rest].sum()
            joint = JointSequencePmf(xs, ys, probs)
            assert np.count_nonzero(joint.probs <= 1e-15) >= 6
            _assert_engine_matches_oracle(joint)
