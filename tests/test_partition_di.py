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
