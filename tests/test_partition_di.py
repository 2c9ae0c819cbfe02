import contextlib
import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import oracle_quantities
from ctdi import cli, partition_di
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
    stream_information,
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
    with pytest.raises(ValueError, match="does not cover"):
        grouped_directed_info(joint, Grouping.one_block(n + 1))


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
    # int() would truncate these to (1, 4)
    with pytest.raises(ValueError, match="block ends must be integers"):
        Grouping((1.7, 4))
    for ends in ((float("nan"), 4), (2, float("inf")), ("2", 4)):
        with pytest.raises(ValueError, match="block ends must be integers"):
            Grouping(ends)
    assert Grouping((2.0, np.int64(4))).ends == (2, 4)


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
    # a NaN cell passes both the sign test and the sum test, and the entropy
    # mask would then drop it
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            JointSequencePmf((2,), (2,), [bad, 0.5, 0.25, 0.25])
    # int() would truncate a size of 2.9 to 2
    with pytest.raises(ValueError, match="alphabet sizes must be integers"):
        JointSequencePmf((2.9,), (2,), np.full(4, 0.25))
    with pytest.raises(ValueError, match="alphabet sizes must be integers"):
        random_joint(np.random.default_rng(0), (2,), (2.5,))
    with pytest.raises(ValueError, match="at least 1"):
        JointSequencePmf((2, 0), (2, 2), np.zeros((2, 0, 2, 2)))
    assert JointSequencePmf((2.0,), (np.int64(2),), np.full(4, 0.25)).x_sizes == (2,)
    # the joint keeps a read-only copy and leaves the caller's array writable
    mine = np.full((2, 2), 0.25)
    joint = JointSequencePmf((2,), (2,), mine)
    assert mine.flags.writeable and not joint.probs.flags.writeable
    assert not np.shares_memory(mine, joint.probs)
    # random joints own their draws; the drawn sizes are checked like any others
    drawn = random_joint(np.random.default_rng(0), (2, 3), (3, 2))
    assert drawn.x_sizes == (2, 3) and drawn.probs.shape == (2, 3, 3, 2)
    assert not drawn.probs.flags.writeable
    with pytest.raises(ValueError, match="enumeration cap"):
        random_no_feedback_joint(np.random.default_rng(0), (40, 40), (40, 40))


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


def _assert_engine_matches_oracle(joint):
    di, rdi, mi, grouped = oracle_quantities(joint.probs, joint.n)
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


def _near_cutoff_joint(gen, xs, ys):
    """A random joint with six cells at or just below 1e-15, the cutoff the
    engine treats as zero."""
    probs = gen.dirichlet(np.ones(math.prod(xs + ys)))
    tiny = gen.choice(probs.size, size=6, replace=False)
    probs[tiny] = np.array([1e-15, 9.9e-16, 9e-16, 5e-16, 2e-16, 1e-16])
    rest = np.ones(probs.size, dtype=bool)
    rest[tiny] = False
    probs[rest] *= (1.0 - probs[tiny].sum()) / probs[rest].sum()
    joint = JointSequencePmf(xs, ys, probs)
    assert np.count_nonzero(joint.probs <= 1e-15) >= 6
    return joint


def test_engine_matches_brute_force_oracle_near_the_zero_cutoff():
    gen = np.random.default_rng(32)
    for n in (2, 3, 4):
        for _ in range(4):
            xs = [int(s) for s in gen.integers(2, 4, size=n)]
            ys = [int(s) for s in gen.integers(2, 4, size=n)]
            _assert_engine_matches_oracle(_near_cutoff_joint(gen, xs, ys))


def _joints_sharing_shapes():
    """Random, exact-zero and near-cutoff joints, at least three per shape,
    with the shapes interleaved in the returned order."""
    gen = np.random.default_rng(33)
    joints = []
    for n in (1, 2, 3):
        for _ in range(2):
            xs = [int(s) for s in gen.integers(2, 4, size=n)]
            ys = [int(s) for s in gen.integers(2, 4, size=n)]
            joints += [random_joint(gen, xs, ys) for _ in range(3)]
            if n > 1:
                joints += [_near_cutoff_joint(gen, xs, ys) for _ in range(2)]
        joints += [_copy_channel(n), _echo_channel(n), random_joint(gen, [2] * n, [2] * n)]
    return [joints[k] for k in gen.permutation(len(joints))]


def test_stacked_walk_matches_per_joint_functions_and_oracle():
    by_shape = {}
    for joint in _joints_sharing_shapes():
        by_shape.setdefault(joint.probs.shape, []).append(joint)
    for group in by_shape.values():
        assert len(group) >= 3
        n = group[0].n
        stack = np.stack([joint.probs for joint in group])
        di, rdi, mi = partition_di._walk_all(stack, n, True)
        oracles = [oracle_quantities(joint.probs, n) for joint in group]
        for k, (joint, (o_di, o_rdi, o_mi, _)) in enumerate(zip(group, oracles)):
            for value, exact, oracle in ((di[k], directed_info(joint), o_di),
                                         (rdi[k], reverse_directed_info(joint), o_rdi),
                                         (mi[k], mutual_information(joint), o_mi)):
                assert value == exact
                assert abs(value - oracle) <= 1e-12
        for ends in oracles[0][3]:
            values = partition_di._grouped_walk(stack, n, ends)
            for k, joint in enumerate(group):
                assert values[k] == grouped_directed_info(joint, Grouping(ends))
                assert abs(values[k] - oracles[k][3][ends]) <= 1e-12


def test_stacked_entropy_keeps_the_per_cell_cutoff():
    # stacks of p(A, B, C) over axes 1, 2 and 3; C = 0 holds one certain cell,
    # and C = 1 a dependent pair of tiny cells whose marginals are all at or
    # below 1e-15.  Without the cutoff the 5e-16 pair would add 1e-15 ln 2.
    stack = np.zeros((3, 2, 2, 2))
    stack[:, 0, 0, 0] = 1.0
    for row, tiny in ((0, 5e-16), (1, 1e-16)):
        stack[row, 0, 0, 1] = stack[row, 1, 1, 1] = tiny
    assert partition_di._cmi_term(stack, (1,), (2,))[0].tolist() == [0.0, 0.0, 0.0]
    for row in range(3):
        assert partition_di._cmi_term(stack[row][None], (1,), (2,))[0].tolist() == [0.0]


def _assert_stream_matches_per_joint(joints, values):
    for k, joint in enumerate(joints):
        expected = (directed_info(joint), reverse_directed_info(joint), mutual_information(joint))
        for got, want in zip((column[k] for column in values), expected):
            assert got == want


def test_joint_value_does_not_depend_on_its_stack():
    gen = np.random.default_rng(35)
    xs, ys = [2, 3, 2], [3, 2, 2]
    others = [random_joint(gen, xs, ys) for _ in range(16)]
    groupings = [Grouping(ends) for ends in ((3,), (1, 3), (2, 3), (1, 2, 3))]
    for joint in [random_joint(gen, xs, ys) for _ in range(4)]:
        alone = [directed_info(joint), reverse_directed_info(joint), mutual_information(joint)]
        grouped = [grouped_directed_info(joint, g) for g in groupings]
        # a column-major copy of the cells is stored row-major like the rest
        for copy in (joint, JointSequencePmf(xs, ys, np.asfortranarray(joint.probs))):
            for size, at in ((1, 0), (2, 0), (2, 1), (17, 0), (17, 8), (17, 16)):
                stack = others[:at] + [copy] + others[at: size - 1]
                assert [column[at] for column in stream_information(stack)] == alone
                probs = np.stack([j.probs for j in stack])
                assert [column[at] for column in partition_di._walk_all(probs, 3, True)] == alone
                for g, value in zip(groupings, grouped):
                    assert partition_di._grouped_walk(probs, 3, g.ends)[at] == value


def test_stream_information_keeps_the_order_of_its_input(monkeypatch):
    joints = _joints_sharing_shapes()
    # a shape of its own is walked as a stack of one
    lone = random_joint(np.random.default_rng(34), [2, 3, 2, 2], [3, 2, 2, 2])
    joints.insert(5, lone)
    values = stream_information(iter(joints))
    assert all(column.shape == (len(joints),) for column in values)
    _assert_stream_matches_per_joint(joints, values)
    assert [column[5] for column in values] == [
        directed_info(lone), reverse_directed_info(lone), mutual_information(lone)]
    di, rdi, mi = stream_information(joints, reverse=False)
    assert np.array_equal(rdi, np.zeros(len(joints)))
    assert np.array_equal(di, values[0])
    assert np.array_equal(mi, values[2])
    assert all(column.shape == (0,) for column in stream_information([]))
    # joints over the stacking size are walked alone: the same bits as the
    # public functions
    monkeypatch.setattr(partition_di, "_STACK_MAX", 1)
    _assert_stream_matches_per_joint(joints, stream_information(joints))


def _record_flushes(monkeypatch):
    """From here on, each walk of the stream's buckets appends {shape: rows}."""
    flushes = []
    real = partition_di._walk_buckets

    def recording(buckets, flat, out, reverse):
        flushes.append({shape: len(indices) for shape, (indices, _) in buckets.items()})
        real(buckets, flat, out, reverse)

    monkeypatch.setattr(partition_di, "_walk_buckets", recording)
    return flushes


def _cells(flush):
    return sum(math.prod(shape) * rows for shape, rows in flush.items())


def test_stream_information_splits_stacks_across_flushes(monkeypatch):
    joints = _joints_sharing_shapes() * 3
    whole = stream_information(joints)
    walked = _record_flushes(monkeypatch)
    # the largest joint has 3**6 = 729 cells
    monkeypatch.setattr(partition_di, "_STACK_CELLS", 2000)
    monkeypatch.setattr(partition_di, "_STACK_MAX", 729)
    split = stream_information(joints)
    assert max(_cells(flush) for flush in walked) <= 2000
    # some shape was stacked in more than one flush
    stacked = [shape for flush in walked for shape, rows in flush.items() if rows > 1]
    assert len(stacked) > len(set(stacked))
    _assert_stream_matches_per_joint(joints, split)
    for a, b in zip(split, whole):
        assert np.array_equal(a, b)


@contextlib.contextmanager
def _no_full_collection():
    """Hold off the collector's full passes; its young generations still run.

    A full pass empties the interpreter's free lists of tuples, dicts and
    floats, and refilling them counts as traced allocations.  When one falls
    depends on what ran before in the process, so without this a traced peak
    moves by over 0.1 MB from one test order to another.
    """
    thresholds = gc.get_threshold()
    gc.set_threshold(thresholds[0], thresholds[1], 2**30)
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)


def test_stream_buffer_stays_within_its_cell_budget(monkeypatch, tmp_path):
    walked = _record_flushes(monkeypatch)
    # the default size (1000 instances, 200 chains, n <= 3), then the
    # benchmark's 3000 instances; each is run twice and the second run traced,
    # so the peak leaves out what the first run allocates once for the process,
    # its free-list fill included
    for args in ([], ["--instances", "3000"]):
        with _no_full_collection():
            assert cli.main(["di-discrete", *args, "--out", str(tmp_path)]) == 0
            walked.clear()
            tracemalloc.start()
            try:
                assert cli.main(["di-discrete", *args, "--out", str(tmp_path)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(_cells(flush) for flush in walked) <= partition_di._STACK_CELLS
        assert len(walked) >= 3
        # the buffer is a mapping outside the traced heap; the stacks copied
        # out of it, their temporaries and the draws stay under one buffer
        assert peak <= 8 * partition_di._STACK_CELLS
