import hashlib
import struct
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skece import quantizer
from skece.channel import ScenarioConfig, simulate
from skece.errors import ConfigError, DesyncError, InsufficientBitsError, WireFormatError
from skece.protocol import (
    VERDICT_MATCH,
    VERDICT_MISMATCH,
    MsgType,
    ProtocolParams,
    encode_tags,
    reconcile_bit_streams,
    run_key_agreement,
    transcript_to_jsonl,
)
from skece.quantizer import BitStream
from skece.recombine import (
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
from skece.validation import checking_length, make_tag


def bits(s: str) -> np.ndarray:
    """The bits of a '0'/'1' string as a uint8 array."""
    return np.array([int(c) for c in s], dtype=np.uint8)


def recursive_edit_distance(a, b) -> int:
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
        assert edit_distance(bits(a), bits(b)) == d

    def test_exhaustive_small_against_recursion(self):
        strings = [""]
        for length in range(1, 5):
            strings += [format(v, f"0{length}b") for v in range(2**length)]
        for a in strings:
            for b in strings:
                assert edit_distance(bits(a), bits(b)) == recursive_edit_distance(a, b)

    def test_random_pairs_against_recursion(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            a = "".join(rng.choice(["0", "1"], size=rng.integers(0, 11)))
            b = "".join(rng.choice(["0", "1"], size=rng.integers(0, 11)))
            assert edit_distance(bits(a), bits(b)) == recursive_edit_distance(a, b)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 2, 40, dtype=np.uint8)
        streams = [
            rng.integers(0, 2, rng.integers(0, 60), dtype=np.uint8) for _ in range(12)
        ]
        batched = edit_distances_to_reference(streams, x)
        singles = [edit_distance(s, x) for s in streams]
        assert batched.tolist() == singles

    @pytest.mark.parametrize(
        "a,b,d", [("10", "1", 1), ("0", "1", 1), ("01", "1", 1), ("10", "01", 2)]
    )
    def test_each_list_element_is_one_symbol(self, a, b, d):
        got = edit_distance([int(c) for c in a], [int(c) for c in b])
        assert got == d == recursive_edit_distance(a, b)

    @pytest.mark.parametrize(
        "symbols",
        [[0, 2, 1], [7], [0.5, 1.0], [-1, 0], np.array([0, 255]), [np.nan], ["0", "1"], "101"],
    )
    def test_rejects_symbols_other_than_bits(self, symbols):
        with pytest.raises(ConfigError):
            edit_distance(symbols, [0, 1])
        with pytest.raises(ConfigError):
            edit_distances_to_reference([[0, 1], [1]], symbols)

    def test_rejects_multidimensional_operands(self):
        with pytest.raises(ConfigError):
            edit_distance(np.zeros((2, 2)), [1])
        with pytest.raises(ConfigError):
            edit_distances_to_reference([[0, 1]], np.zeros((1, 3)))

    def test_no_streams(self):
        assert edit_distances_to_reference([], [0, 1]).tolist() == []


bit_strings = st.lists(
    st.one_of(st.integers(0, 70), st.sampled_from([63, 64, 65])),
    min_size=1,
    max_size=8,
).flatmap(
    lambda lengths: st.tuples(
        st.tuples(*[st.lists(st.integers(0, 1), min_size=n, max_size=n) for n in lengths]),
        st.lists(st.integers(0, 1), max_size=70),
    )
)


class TestPackedKernel:
    @settings(max_examples=60, deadline=None)
    @given(case=bit_strings)
    def test_matches_recursive_oracle(self, case):
        streams, x = case
        got = edit_distances_to_reference(
            [np.array(s, dtype=np.uint8) for s in streams], np.array(x, dtype=np.uint8)
        )
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


def through_first_seed(messages) -> list:
    """A transcript up to and including its first RECOMB_SEED frame."""
    types = [m.msg_type for m in messages]
    return messages[: types.index(MsgType.RECOMB_SEED) + 1]


def reference_picks(seed: int, picks, lengths) -> list[tuple[int, int]]:
    """One round's (stream, position) picks as ``plan`` derives them, one at a time.

    One generator seeded by the round's seed; for each stream with picks, in
    index order, the first picks[i] entries of a permutation of that stream.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for i in range(len(picks)):
        if picks[i] == 0:
            continue
        order = rng.permutation(int(lengths[i]))
        for j in range(int(picks[i])):
            out.append((i, int(order[j])))
    return out


def reference_candidate(streams, seed: int, picks) -> np.ndarray:
    lengths = [len(s) for s in streams]
    picked = reference_picks(seed, picks.tolist(), lengths)
    return np.array([streams[i].bits[j] for i, j in picked], dtype=np.uint8)


def session_streams(traces, params):
    """Both parties' streams of a session, as ``run_key_agreement`` extracts them."""
    quant_a = quantizer.quantize_matrix(traces.alice.amplitude_db, params.alpha)
    quant_b = quantizer.quantize_matrix(traces.bob.amplitude_db, params.alpha)
    drops = (quant_a.inside, quant_b.inside)
    return (
        quantizer.extract_streams(quant_a, *drops, params.key_length),
        quantizer.extract_streams(quant_b, *drops, params.key_length),
    )


def assert_rounds_follow_reference(result, streams_a, streams_b, params):
    """Each round's tag and verdict, and the keys, are those of the reference picks.

    Each party's allocation comes from its own streams and the DIFF_VECTOR
    frames, and each round's candidates from the seed in its RECOMB_SEED frame.
    """
    messages = result.messages
    (_, res_a, x), (_, res_b, _) = [
        decode_diff_vector(m.payload) for m in messages if m.msg_type == MsgType.DIFF_VECTOR
    ]
    allocations = [
        allocate(
            weights(
                difference_degree(edit_distances_to_reference(streams, x), peer, params.theta),
                params.theta,
            ),
            params.key_length,
            [len(s) for s in streams],
        )
        for streams, peer in ((streams_a, res_b), (streams_b, res_a))
    ]
    r = checking_length(params.gamma)
    rounds = [i for i, m in enumerate(messages) if m.msg_type == MsgType.RECOMB_SEED]
    assert len(rounds) == result.rounds_used
    for i in rounds:
        (seed,) = struct.unpack(">Q", messages[i].payload)
        cand_a = reference_candidate(streams_a, seed, allocations[0])
        cand_b = reference_candidate(streams_b, seed, allocations[1])
        tag, verdict = messages[i + 1], messages[i + 2]
        assert tag.payload == encode_tags([make_tag(cand_a, r).tag], r)
        match = make_tag(cand_b, r) == make_tag(cand_a, r)
        assert verdict.payload == bytes([VERDICT_MATCH if match else VERDICT_MISMATCH])
    if result.matched_via == "recombination":
        assert result.key.bits.tobytes() == cand_a.tobytes()
        assert result.peer_key.bits.tobytes() == cand_b.tobytes()


class TestGoldenTranscripts:
    """Transcripts of two sessions that run recombination rounds, pinned by hash.

    Up to and including the first RECOMB_SEED frame, each transcript still
    hashes to the digest taken when every stream's picks had a generator of
    their own; the rounds after it follow the reference picks.
    """

    def test_full_session_from_noisy_traces(self):
        traces = simulate(ScenarioConfig(m=6, probe_count=400, noise_std=2.0, rng_seed=3))
        params = ProtocolParams(
            alpha=0.2, key_length=96, rng_seed=3, max_rounds=5, gamma=0.9999
        )
        result, _ = run_key_agreement(traces, params)
        assert _transcript_digest(through_first_seed(result.messages)) == (
            "94cf67d3edeaf9f473c917aead294995b62dab251ea6e5af5ac71b24ef108e19"
        )
        assert_rounds_follow_reference(result, *session_streams(traces, params), params)
        assert _transcript_digest(result.messages) == (
            "fb09388b0e02735d79c72045dea5aca46437e415b965fec9a711a5457e764757"
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
        assert _transcript_digest(through_first_seed(result.messages)) == (
            "c2a9022373717f2f4108ce21b968f4502d6904bb1bc92a507752fc99c9b74830"
        )
        assert_rounds_follow_reference(result, streams_a, streams_b, params)
        assert _transcript_digest(result.messages) == (
            "1b072df20f29900d9c3db8ce9a4e78c9addff2da6350fa71c438cd58be834067"
        )


class TestDifferenceDegree:
    def test_equal_distances_give_zero(self):
        assert difference_degree([4, 9, 13], [4, 9, 13], theta=5).tolist() == [0, 0, 0]

    def test_residue_difference(self):
        assert difference_degree([7], [6], theta=5).tolist() == [1]

    def test_wraparound_artifact_as_written(self):
        assert difference_degree([4], [5], theta=5).tolist() == [4]

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigError):
            difference_degree([1, 2], [1], theta=5)


class TestWeights:
    def test_uniform_when_all_degrees_zero(self):
        w = weights(np.zeros(6, dtype=np.int64), theta=5)
        assert np.allclose(w, 1 / 6)

    def test_direct_substitution(self):
        w = weights([0, 4], theta=5)
        assert w.tolist() == [5 / 6, 1 / 6]

    def test_single_stream_normalizes(self):
        assert weights([3], theta=5).tolist() == [1.0]

    def test_sum_to_one_within_tolerance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            theta = int(rng.integers(2, 20))
            m = int(rng.integers(1, 31))
            w = weights(rng.integers(0, theta, size=m), theta)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_more_consistent_streams_get_larger_weight(self):
        w = weights([0, 1, 2, 3, 4], theta=5)
        assert all(w[i] > w[i + 1] for i in range(4))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            weights(np.zeros(0, dtype=np.int64), theta=5)

    @pytest.mark.parametrize("d_tilde,theta", [([0, 5], 5), ([-1, 0], 5), ([0], 1)])
    def test_rejects_degrees_outside_range_and_small_theta(self, d_tilde, theta):
        with pytest.raises(ConfigError):
            weights(d_tilde, theta)


class TestAllocate:
    # caps of L streams bind no pick, so these check the ceiling and repair rule
    def test_exact_split(self):
        assert allocate([0.5, 0.5], 10, [10, 10]).tolist() == [5, 5]

    def test_ceiling_overshoot_repair_rule(self):
        # raw [4, 4, 4]; decrement largest (ties to the lowest index) twice
        assert allocate([1 / 3, 1 / 3, 1 / 3], 10, [10, 10, 10]).tolist() == [3, 3, 4]

    def test_no_repair_when_sum_exact(self):
        assert allocate([5 / 6, 1 / 6], 300, [300, 300]).tolist() == [250, 50]

    def test_random_allocations_sum_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            m = int(rng.integers(1, 31))
            L = int(rng.integers(1, 513))
            w = rng.dirichlet(np.ones(m))
            picks = allocate(w, L, np.full(m, L))
            assert int(picks.sum()) == L
            assert picks.min() >= 0

    def test_stream_length_caps_respected(self):
        assert allocate([0.5, 0.5], 10, [3, 100]).tolist() == [3, 7]

    def test_insufficient_material(self):
        with pytest.raises(InsufficientBitsError):
            allocate([0.5, 0.5], 10, [4, 4])

    def test_rejects_caps_of_the_wrong_shape(self):
        with pytest.raises(ConfigError):
            allocate([0.5, 0.5], 10, [10])


class TestPlan:
    def test_full_stream_pick_is_exhaustive(self):
        picks = allocate([1.0], 7, [7])
        streams, positions = plan(3, picks, [7])
        assert streams.tolist() == [0] * 7
        assert sorted(positions.tolist()) == list(range(7))

    def test_deterministic_in_seed(self):
        picks = allocate([0.3, 0.7], 10, [20, 20])
        p1 = plan(99, picks, [20, 20])
        p2 = plan(99, picks, [20, 20])
        assert all(np.array_equal(a, b) for a, b in zip(p1, p2))
        assert not np.array_equal(p1[1], plan(100, picks, [20, 20])[1])

    def test_positions_uniform_without_replacement(self):
        # picking 2 of 4: every position appears with frequency 1/2
        picks = allocate([1.0], 2, [4])
        counts = np.zeros(4)
        trials = 4000
        for seed in range(trials):
            _, positions = plan(seed, picks, [4])
            counts[positions] += 1
        freq = counts / trials
        sigma = (0.5 * 0.5 / trials) ** 0.5
        assert np.all(np.abs(freq - 0.5) < 4.5 * sigma)

    def test_rejects_overallocated_stream(self):
        picks = allocate([1.0], 5, [5])
        with pytest.raises(ConfigError):
            plan(0, picks, [4])

    @pytest.mark.parametrize("picks,lengths", [([-1, 2], [5, 5]), ([[1]], [[5]]), ([1], [5, 5])])
    def test_rejects_malformed_picks(self, picks, lengths):
        with pytest.raises(ConfigError):
            plan(0, picks, lengths)

    def test_matches_the_reference_picks(self):
        rng = np.random.default_rng(13)
        for seed in range(200):
            lengths = rng.integers(0, 40, size=int(rng.integers(1, 8)))
            lengths[-1] += 1
            key_length = int(rng.integers(1, lengths.sum() + 1))
            picks = allocate(rng.dirichlet(np.ones(lengths.size)), key_length, lengths)
            streams, positions = plan(seed, picks, lengths)
            picked = reference_picks(seed, picks.tolist(), lengths)
            assert list(zip(streams.tolist(), positions.tolist())) == picked

    def test_picks_in_one_stream_do_not_depend_on_another(self):
        # one pick from each of two streams: all 3 x 4 position pairs equally often
        counts = np.zeros((3, 4))
        trials = 4000
        for seed in range(trials):
            _, positions = plan(seed, [1, 1], [3, 4])
            counts[tuple(positions)] += 1
        freq = counts / trials
        sigma = (1 / 12 * 11 / 12 / trials) ** 0.5
        assert np.all(np.abs(freq - 1 / 12) < 4.5 * sigma)


class TestRecombine:
    def test_same_plan_on_matched_streams_agrees(self):
        rng = np.random.default_rng(9)
        streams_a = [
            BitStream(rng.integers(0, 2, 30, dtype=np.uint8), party="alice", stream=i)
            for i in range(4)
        ]
        streams_b = [BitStream(s.bits, party="bob", stream=s.stream) for s in streams_a]
        p = plan(17, allocate(np.full(4, 0.25), 20, [30] * 4), [30] * 4)
        out_a = recombine(streams_a, p)
        out_b = recombine(streams_b, p)
        assert np.array_equal(out_a.bits, out_b.bits)
        assert len(out_a) == 20

    def test_identity_plan_reproduces_stream(self):
        bits = BitStream([1, 0, 1, 1, 0], party="alice", stream=0)
        p = plan(1, allocate([1.0], 5, [5]), [5])
        out = recombine([bits], p)
        assert sorted(zip(p[1].tolist(), out.bits.tolist())) == list(
            enumerate(bits.bits.tolist())
        )

    def test_plan_avoiding_known_mismatches_agrees(self):
        rng = np.random.default_rng(10)
        a = rng.integers(0, 2, 40, dtype=np.uint8)
        b = a.copy()
        bad = [3, 17, 29]
        b[bad] ^= 1
        good = np.array([i for i in range(40) if i not in bad])
        p = (np.zeros(good.size, dtype=np.int64), good)
        assert np.array_equal(recombine([BitStream(a)], p).bits, recombine([BitStream(b)], p).bits)

    def test_out_of_range_position_is_desync(self):
        with pytest.raises(DesyncError):
            recombine([BitStream([1, 0])], ([0], [9]))
        with pytest.raises(DesyncError, match="unknown stream 1"):
            recombine([BitStream([1, 0])], ([1], [0]))

    def test_rejects_plan_arrays_of_unequal_length(self):
        with pytest.raises(ConfigError):
            recombine([BitStream([1, 0])], ([0, 0], [1]))

    def test_matches_a_per_pick_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            lengths = rng.integers(0, 20, size=int(rng.integers(1, 6)))
            lengths[-1] += 1  # at least one stream to pick from
            streams = [rng.integers(0, 2, n, dtype=np.uint8) for n in lengths]
            picked = rng.choice(np.flatnonzero(lengths), size=int(rng.integers(1, 30)))
            pos = rng.integers(0, lengths[picked])
            expected = [streams[i][j] for i, j in zip(picked, pos)]
            assert recombine(streams, (picked, pos)).bits.tolist() == expected


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

    def test_plan_and_recombine_agree_as_often_as_the_exact_product(self):
        # streams of one length L with known mismatches: the candidates are
        # equal exactly when no pick lands on a mismatch, with probability
        # prod_i C(L - d_i, l_i) / C(L, l_i)
        L, d, l = 30, [1, 2, 0, 3], [6, 5, 8, 4]
        rng = np.random.default_rng(14)
        streams_a = [BitStream(rng.integers(0, 2, L, dtype=np.uint8)) for _ in d]
        streams_b = []
        for s, di in zip(streams_a, d):
            b = s.bits.copy()
            b[rng.choice(L, size=di, replace=False)] ^= 1
            streams_b.append(BitStream(b))
        trials = 3000
        equal = 0
        for seed in range(trials):
            p = plan(seed, l, [L] * len(d))
            equal += np.array_equal(recombine(streams_a, p).bits, recombine(streams_b, p).bits)
        freq = equal / trials
        exact = float(np.prod([comb(L - di, li) / comb(L, li) for di, li in zip(d, l)]))
        assert abs(freq - exact) < 4.5 * (exact * (1 - exact) / trials) ** 0.5
        assert freq >= success_probability(d, l, key_length=L, rounds=1)

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
