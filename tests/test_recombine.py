import hashlib
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skece.channel import ScenarioConfig, simulate
from skece.errors import ConfigError, DesyncError, InsufficientBitsError, WireFormatError
from skece.protocol import (
    MsgType,
    ProtocolParams,
    reconcile_bit_streams,
    run_key_agreement,
    transcript_to_jsonl,
)
from skece.quantizer import BitStream
from skece.recombine import (
    DiffDegrees,
    allocate,
    decode_diff_vector,
    difference_degree,
    edit_distance,
    edit_distances_to_reference,
    encode_diff_vector,
    plan,
    recombine,
    success_probability,
    weights,
)


def recursive_edit_distance(a: str, b: str) -> int:
    """Textbook recursive definition, memoized per pair for tractability."""

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return rec(len(a), len(b))


class TestEditDistance:
    @pytest.mark.parametrize(
        "a,b,d",
        [("101", "101", 0), ("1011", "1001", 1), ("", "111", 3), ("10", "01", 2)],
    )
    def test_known_values(self, a, b, d):
        assert edit_distance(a, b) == d

    def test_exhaustive_small_against_recursion(self):
        strings = [""]
        for length in range(1, 5):
            strings += [format(v, f"0{length}b") for v in range(2**length)]
        for a in strings:
            for b in strings:
                assert edit_distance(a, b) == recursive_edit_distance(a, b)

    def test_random_pairs_against_recursion(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            a = "".join(rng.choice(["0", "1"], size=rng.integers(0, 11)))
            b = "".join(rng.choice(["0", "1"], size=rng.integers(0, 11)))
            assert edit_distance(a, b) == recursive_edit_distance(a, b)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 2, 40, dtype=np.uint8)
        streams = [
            rng.integers(0, 2, rng.integers(0, 60), dtype=np.uint8) for _ in range(12)
        ]
        batched = edit_distances_to_reference(streams, x)
        singles = [edit_distance(s, x) for s in streams]
        assert batched.tolist() == singles

    def test_symbols_absent_from_reference_match_nothing(self):
        assert edit_distance("abc", "xyz") == 3
        assert edit_distance([7, 1, 9], [1]) == 2
        assert edit_distance([0.5, 2.0], [2, 3]) == 2

    @pytest.mark.parametrize(
        "a,b,d", [("日本", "日", 1), ("é", "e", 1), ("\U0001F600a", "a", 1), ("日本", "本日", 2)]
    )
    def test_strings_compare_code_points(self, a, b, d):
        assert edit_distance(a, b) == d
        assert edit_distance(a, b) == recursive_edit_distance(a, b)

    def test_rejects_multidimensional_operands(self):
        with pytest.raises(ConfigError):
            edit_distance(np.zeros((2, 2)), "1")
        with pytest.raises(ConfigError):
            edit_distances_to_reference([[0, 1]], np.zeros((1, 3)))

    def test_no_streams(self):
        assert edit_distances_to_reference([], [0, 1]).tolist() == []


symbol_strings = st.integers(min_value=2, max_value=5).flatmap(
    lambda k: st.lists(
        st.one_of(st.integers(0, 70), st.sampled_from([63, 64, 65])),
        min_size=1,
        max_size=8,
    ).flatmap(
        lambda lengths: st.tuples(
            st.tuples(
                *[st.lists(st.integers(0, k - 1), min_size=n, max_size=n) for n in lengths]
            ),
            st.lists(st.integers(0, k), max_size=70),
        )
    )
)


class TestPackedKernel:
    @settings(max_examples=60, deadline=None)
    @given(case=symbol_strings)
    def test_matches_recursive_oracle(self, case):
        streams, x = case
        got = edit_distances_to_reference([np.array(s, dtype=np.int64) for s in streams], x)
        assert got.tolist() == [recursive_edit_distance(tuple(s), tuple(x)) for s in streams]

    @pytest.mark.parametrize("x", [np.ones(50), np.zeros(50), np.arange(70) % 3 == 0, []])
    def test_carries_stay_inside_each_stream(self, x):
        # (Eq & Pv) + Pv carries through a whole all-ones stream matched
        # against ones; the stream right above it, empty or not, must not notice
        streams = [np.ones(64), [], np.zeros(64), np.ones(65), [], [], np.zeros(63), np.ones(1), []]
        x = np.asarray(x, dtype=np.uint8)
        batched = edit_distances_to_reference(streams, x)
        assert batched.tolist() == [
            edit_distances_to_reference([s], x)[0] for s in streams
        ]
        assert batched.tolist() == [
            recursive_edit_distance(tuple(np.asarray(s, dtype=int)), tuple(x.astype(int)))
            for s in streams
        ]


def _transcript_digest(messages) -> str:
    return hashlib.sha256(transcript_to_jsonl(messages).encode("utf-8")).hexdigest()


class TestGoldenTranscripts:
    """Transcripts of two sessions that exchange DIFF_VECTOR, pinned by hash."""

    def test_full_session_from_noisy_traces(self):
        traces = simulate(ScenarioConfig(m=6, probe_count=400, noise_std=2.0, rng_seed=3))
        params = ProtocolParams(
            alpha=0.2, key_length=96, rng_seed=3, max_rounds=5, gamma=0.9999
        )
        result, _ = run_key_agreement(traces, params)
        assert MsgType.DIFF_VECTOR in [m.msg_type for m in result.messages]
        assert _transcript_digest(result.messages) == (
            "a6c15c026d2e1b47b1de5c813028bbf555143bdd38021add7de239916d917163"
        )

    def test_reconciliation_over_unequal_streams(self):
        rng = np.random.default_rng(2024)
        streams_a, streams_b = [], []
        for i, n in enumerate([63, 64, 65, 0, 130, 7, 1]):
            a = rng.integers(0, 2, n, dtype=np.uint8)
            b = a.copy()
            if n:
                b[rng.choice(n, size=min(n, 1 + n // 20), replace=False)] ^= 1
            streams_a.append(BitStream(a, party="alice", stream=i))
            streams_b.append(BitStream(b, party="bob", stream=i))
        params = ProtocolParams(key_length=64, max_rounds=10, rng_seed=17, gamma=0.9999)
        result = reconcile_bit_streams(streams_a, streams_b, params)
        assert MsgType.DIFF_VECTOR in [m.msg_type for m in result.messages]
        assert _transcript_digest(result.messages) == (
            "8b7a3ef45456d6bfdf1f41866e47967fda39f7a4cf872d7f7c06551fcfbcf047"
        )


class TestDifferenceDegree:
    def test_equal_distances_give_zero(self):
        dd = difference_degree([4, 9, 13], [4, 9, 13], theta=5)
        assert dd.d_tilde.tolist() == [0, 0, 0]

    def test_residue_difference(self):
        assert difference_degree([7], [6], theta=5).d_tilde.tolist() == [1]

    def test_wraparound_artifact_as_written(self):
        assert difference_degree([4], [5], theta=5).d_tilde.tolist() == [4]

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigError):
            difference_degree([1, 2], [1], theta=5)


class TestWeights:
    def test_uniform_when_all_degrees_zero(self):
        w = weights(DiffDegrees(np.zeros(6, dtype=np.int64), theta=5))
        assert np.allclose(w, 1 / 6)

    def test_direct_substitution(self):
        w = weights(DiffDegrees(np.array([0, 4]), theta=5))
        assert w.tolist() == [5 / 6, 1 / 6]

    def test_single_stream_normalizes(self):
        assert weights(DiffDegrees(np.array([3]), theta=5)).tolist() == [1.0]

    def test_sum_to_one_within_tolerance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            theta = int(rng.integers(2, 20))
            m = int(rng.integers(1, 31))
            dd = DiffDegrees(rng.integers(0, theta, size=m), theta=theta)
            assert abs(weights(dd).sum() - 1.0) < 1e-12

    def test_more_consistent_streams_get_larger_weight(self):
        w = weights(DiffDegrees(np.array([0, 1, 2, 3, 4]), theta=5))
        assert all(w[i] > w[i + 1] for i in range(4))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            weights(DiffDegrees(np.zeros(0, dtype=np.int64), theta=5))


class TestAllocate:
    def test_exact_split(self):
        assert allocate([0.5, 0.5], 10).picks.tolist() == [5, 5]

    def test_ceiling_overshoot_repair_rule(self):
        # raw [4, 4, 4]; decrement largest (ties to the lowest index) twice
        assert allocate([1 / 3, 1 / 3, 1 / 3], 10).picks.tolist() == [3, 3, 4]

    def test_no_repair_when_sum_exact(self):
        assert allocate([5 / 6, 1 / 6], 300).picks.tolist() == [250, 50]

    def test_random_allocations_sum_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            m = int(rng.integers(1, 31))
            L = int(rng.integers(1, 513))
            w = rng.dirichlet(np.ones(m))
            alloc = allocate(w, L)
            assert int(alloc.picks.sum()) == L
            assert alloc.picks.min() >= 0

    def test_stream_length_caps_respected(self):
        alloc = allocate([0.5, 0.5], 10, stream_lengths=[3, 100])
        assert alloc.picks.tolist() == [3, 7]
        assert int(alloc.picks.sum()) == 10

    def test_insufficient_material(self):
        with pytest.raises(InsufficientBitsError):
            allocate([0.5, 0.5], 10, stream_lengths=[4, 4])


class TestPlan:
    def test_full_stream_pick_is_exhaustive(self):
        alloc = allocate([1.0], 7, stream_lengths=[7])
        p = plan(3, alloc, [7])
        assert sorted(p.positions.tolist()) == list(range(7))

    def test_deterministic_in_seed(self):
        alloc = allocate([0.3, 0.7], 10, stream_lengths=[20, 20])
        p1 = plan(99, alloc, [20, 20])
        p2 = plan(99, alloc, [20, 20])
        assert p1 == p2
        assert p1 != plan(100, alloc, [20, 20])

    def test_positions_uniform_without_replacement(self):
        # picking 2 of 4: every position appears with frequency 1/2
        alloc = allocate([1.0], 2, stream_lengths=[4])
        counts = np.zeros(4)
        trials = 4000
        for seed in range(trials):
            p = plan(seed, alloc, [4])
            counts[p.positions] += 1
        freq = counts / trials
        sigma = (0.5 * 0.5 / trials) ** 0.5
        assert np.all(np.abs(freq - 0.5) < 4.5 * sigma)

    def test_rejects_overallocated_stream(self):
        alloc = allocate([1.0], 5, stream_lengths=[5])
        with pytest.raises(ConfigError):
            plan(0, alloc, [4])


class TestRecombine:
    def test_same_plan_on_matched_streams_agrees(self):
        rng = np.random.default_rng(9)
        streams_a = [
            BitStream(rng.integers(0, 2, 30, dtype=np.uint8), party="alice", stream=i)
            for i in range(4)
        ]
        streams_b = [BitStream(s.bits, party="bob", stream=s.stream) for s in streams_a]
        alloc = allocate(np.full(4, 0.25), 20, stream_lengths=[30] * 4)
        p = plan(17, alloc, [30] * 4)
        out_a = recombine(streams_a, p)
        out_b = recombine(streams_b, p)
        assert np.array_equal(out_a.bits, out_b.bits)
        assert len(out_a) == 20

    def test_identity_plan_reproduces_stream(self):
        bits = BitStream([1, 0, 1, 1, 0], party="alice", stream=0)
        alloc = allocate([1.0], 5, stream_lengths=[5])
        p = plan(1, alloc, [5])
        out = recombine([bits], p)
        assert sorted(zip(p.positions.tolist(), out.bits.tolist())) == list(
            enumerate(bits.bits.tolist())
        )

    def test_plan_avoiding_known_mismatches_agrees(self):
        rng = np.random.default_rng(10)
        a = rng.integers(0, 2, 40, dtype=np.uint8)
        b = a.copy()
        bad = [3, 17, 29]
        b[bad] ^= 1
        good = np.array([i for i in range(40) if i not in bad])
        from skece.recombine import RecombinationPlan

        p = RecombinationPlan(
            seed=0, streams=np.zeros(good.size, dtype=np.int64), positions=good
        )
        assert np.array_equal(recombine([BitStream(a)], p).bits, recombine([BitStream(b)], p).bits)

    def test_out_of_range_position_is_desync(self):
        from skece.recombine import RecombinationPlan

        p = RecombinationPlan(seed=0, streams=np.array([0]), positions=np.array([9]))
        with pytest.raises(DesyncError):
            recombine([BitStream([1, 0])], p)
        p = RecombinationPlan(seed=0, streams=np.array([1]), positions=np.array([0]))
        with pytest.raises(DesyncError, match="unknown stream 1"):
            recombine([BitStream([1, 0])], p)

    def test_matches_a_per_pick_loop(self):
        from skece.recombine import RecombinationPlan

        rng = np.random.default_rng(11)
        for _ in range(50):
            lengths = rng.integers(0, 20, size=int(rng.integers(1, 6)))
            lengths[-1] += 1  # at least one stream to pick from
            streams = [rng.integers(0, 2, n, dtype=np.uint8) for n in lengths]
            picked = rng.choice(np.flatnonzero(lengths), size=int(rng.integers(1, 30)))
            pos = rng.integers(0, lengths[picked])
            p = RecombinationPlan(seed=0, streams=picked, positions=pos)
            expected = [streams[i][j] for i, j in zip(picked, pos)]
            assert recombine(streams, p).bits.tolist() == expected


class TestSuccessProbability:
    def test_no_mismatches_always_succeeds(self):
        assert success_probability([0, 0, 0], [5, 5, 5], key_length=30, rounds=1) == 1.0

    def test_literal_product_value(self):
        # telescoping: prod_{t=0..10} (1 - 1/(300-t)) = 289/300
        expected = float(Fraction(289, 300))
        got = success_probability([1], [10], key_length=300, rounds=1)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(11)
        L, l, d = 300, 10, 2
        trials = 20_000
        draws = np.argsort(rng.random((trials, L)), axis=1)[:, : l + 1]
        hits = (draws < d).any(axis=1)
        mc = 1.0 - hits.mean()
        formula = success_probability([d], [l], key_length=L, rounds=1)
        assert abs(formula - mc) < 0.01

    def test_more_rounds_monotone_to_one(self):
        values = [
            success_probability([2], [10], key_length=300, rounds=k)
            for k in (1, 2, 5, 20, 200)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.999999

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ConfigError):
            success_probability([1], [300], key_length=300, rounds=1)
        with pytest.raises(ConfigError):
            success_probability([301], [5], key_length=300, rounds=1)


class TestDiffVectorWire:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        x = rng.integers(0, 2, 77, dtype=np.uint8)
        d = rng.integers(0, 5, 30)
        payload = encode_diff_vector(5, d, x)
        theta, d2, x2 = decode_diff_vector(payload)
        assert theta == 5
        assert d2.tolist() == d.tolist()
        assert np.array_equal(x2, x)

    def test_empty_reference_string(self):
        payload = encode_diff_vector(5, [1, 2], np.zeros(0, dtype=np.uint8))
        theta, d, x = decode_diff_vector(payload)
        assert theta == 5 and d.tolist() == [1, 2] and x.size == 0

    def test_truncation_errors(self):
        payload = encode_diff_vector(5, [1, 2, 3], np.ones(9, dtype=np.uint8))
        with pytest.raises(WireFormatError):
            decode_diff_vector(payload[:-1])
        with pytest.raises(WireFormatError):
            decode_diff_vector(payload[:2])

    def test_rejects_theta_below_two(self):
        for theta in (0, 1):
            with pytest.raises(WireFormatError, match="theta"):
                decode_diff_vector(bytes([theta, 0, 0]) + bytes(8))

    def test_rejects_residue_at_or_above_theta(self):
        with pytest.raises(WireFormatError, match="residues"):
            decode_diff_vector(bytes([5, 0, 2, 9, 200]) + bytes(8))
        with pytest.raises(WireFormatError, match="residues"):
            decode_diff_vector(bytes([5, 0, 2, 4, 5]) + bytes(8))
