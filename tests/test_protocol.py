import json
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skece import experiments, protocol
from skece.channel import ScenarioConfig, simulate
from skece import quantizer
from skece.analysis import pearson
from skece.errors import (
    ConfigError,
    DesyncError,
    InsufficientBitsError,
    ProtocolError,
    SkeceError,
    WireFormatError,
)
from skece.protocol import (
    A_TO_B,
    B_TO_A,
    EveView,
    MsgType,
    ProtocolMessage,
    ProtocolParams,
    decode,
    decode_drop_lists,
    decode_tags,
    decode_verdict,
    encode,
    encode_drop_lists,
    encode_tags,
    encode_verdict_mask,
    eve_attempt,
    reconcile_bit_streams,
    run_key_agreement,
    scan_transcript_for_key,
    transcript_to_jsonl,
)
from skece.quantizer import BitStream
from skece.recombine import decode_diff_vector, encode_diff_vector
from skece.validation import make_tag


def clean_config(**overrides):
    base = dict(
        m=6,
        probe_count=400,
        noise_std=0.3,
        process_std=5.0,
        drift_std=0.2,
        rng_seed=21,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def dirty_streams(rng, m=12, length=200, flips_per_stream=(1, 3)):
    grid = rng.integers(0, 2, size=(m, length), dtype=np.uint8)
    other = grid.copy()
    for i in range(m):
        k = int(rng.integers(flips_per_stream[0], flips_per_stream[1] + 1))
        other[i, rng.choice(length, size=k, replace=False)] ^= 1
    streams_a = [BitStream(grid[i], party="alice", stream=i) for i in range(m)]
    streams_b = [BitStream(other[i], party="bob", stream=i) for i in range(m)]
    return streams_a, streams_b


class RewritingLink(protocol.Link):
    """A link whose ``rewrite(direction, msg_type, payload)`` alters payloads in flight."""

    def __init__(self, rewrite):
        super().__init__()
        self.rewrite = rewrite

    def send(self, direction, msg_type, payload):
        return super().send(direction, msg_type, self.rewrite(direction, msg_type, payload))


def rewrite_first(msg_type, direction, change):
    """A ``rewrite`` that applies ``change`` to the first payload of one type and direction."""
    done = False

    def rewrite(d, t, payload):
        nonlocal done
        if done or (t, d) != (msg_type, direction):
            return payload
        done = True
        return change(payload)

    return rewrite


class TestWireFormat:
    def test_verdict_match_is_six_bytes(self):
        frame = encode(ProtocolMessage(MsgType.VERDICT, bytes([protocol.VERDICT_MATCH])))
        assert len(frame) == 6
        assert frame == b"\x06\x00\x00\x00\x01\x01"

    def test_round_trip_randomized_messages(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            msg = ProtocolMessage(
                msg_type=MsgType(int(rng.integers(1, 9))),
                payload=rng.bytes(int(rng.integers(0, 64))),
            )
            assert decode(encode(msg)) == msg

    def test_truncated_frame_names_lengths(self):
        frame = encode(ProtocolMessage(MsgType.TAGS, b"abcdef"))
        with pytest.raises(WireFormatError, match="expected 11 bytes, got 8"):
            decode(frame[:8])

    def test_unknown_type_rejected(self):
        with pytest.raises(WireFormatError, match="unknown message type"):
            decode(b"\x2a\x00\x00\x00\x00")

    def test_header_too_short(self):
        with pytest.raises(WireFormatError, match="truncated"):
            decode(b"\x01\x00")

    def test_trailing_bytes_rejected(self):
        frame = encode(ProtocolMessage(MsgType.PROBE, b"abc"))
        with pytest.raises(WireFormatError):
            decode(frame + b"x")


class TestPayloadCodecs:
    def test_drop_lists_round_trip(self):
        rng = np.random.default_rng(2)
        inside = rng.random((7, 500)) < rng.uniform(0, 0.08, size=(7, 1))
        inside[3] = False
        assert np.array_equal(decode_drop_lists(encode_drop_lists(inside), 500), inside)

    def test_drop_lists_match_a_per_row_encoder(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m, n = int(rng.integers(0, 6)), int(rng.integers(1, 50))
            inside = rng.random((m, n)) < rng.random()
            expected = struct.pack(">H", m) + b"".join(
                struct.pack(">I", row.sum()) + np.flatnonzero(row).astype(">u4").tobytes()
                for row in inside
            )
            assert encode_drop_lists(inside) == expected

    @pytest.mark.parametrize(
        "inside",
        [
            np.array([[True]]),
            np.array([[False]]),
            np.ones((1, 9), dtype=bool),
            np.zeros((1, 9), dtype=bool),
            np.array([[True] * 5, [False] * 5, [True] * 5]),
            np.array([[False] * 4, [True, False, False, True], [False] * 4]),
            np.zeros((3, 0), dtype=bool),
            np.zeros((0, 7), dtype=bool),
            np.random.default_rng(8).random((30, 300)) < 0.3,
        ],
        ids=["1x1-dropped", "1x1-kept", "row-all-dropped", "row-empty", "alternating-rows",
             "empty-outer-rows", "no-samples", "no-streams", "30x300"],
    )
    def test_drop_lists_edge_shapes_match_a_nonzero_encoder_and_round_trip(self, inside):
        expected = struct.pack(">H", inside.shape[0]) + b"".join(
            struct.pack(">I", len(np.nonzero(row)[0])) + np.nonzero(row)[0].astype(">u4").tobytes()
            for row in inside
        )
        payload = encode_drop_lists(inside)
        assert payload == expected
        decoded = decode_drop_lists(payload, inside.shape[1])
        assert decoded.shape == inside.shape and np.array_equal(decoded, inside)

    def test_drop_lists_truncation(self):
        payload = encode_drop_lists([np.isin(np.arange(10), [1, 5, 9])])
        with pytest.raises(WireFormatError):
            decode_drop_lists(payload[:-2], 10)

    def test_drop_lists_wire_bytes(self):
        inside = np.array([[False, True, False, True], [False] * 4])
        payload = bytes.fromhex("0002" "00000002" "00000001" "00000003" "00000000")
        assert encode_drop_lists(inside) == payload
        with pytest.raises(WireFormatError, match="disagree"):
            decode_drop_lists(payload + bytes(4), 4)
        with pytest.raises(WireFormatError, match="cannot hold 2 streams"):
            decode_drop_lists(payload + bytes(1), 4)
        with pytest.raises(WireFormatError, match="below 3"):
            decode_drop_lists(payload, 3)
        swapped = bytes.fromhex("0002" "00000002" "00000003" "00000001" "00000000")
        with pytest.raises(WireFormatError, match="increase strictly"):
            decode_drop_lists(swapped, 4)

    def test_hostile_stream_count_fails_before_allocating(self):
        # 0xFFFF streams of 10**9 samples would need 61 GiB as a mask
        with pytest.raises(WireFormatError, match="cannot hold 65535 streams"):
            decode_drop_lists(b"\xff\xff" + bytes(8), 10**9)

    @pytest.mark.parametrize(
        "decoder,payload",
        [
            # an X block that claims 2**64 - 1 bits over one byte
            (decode_diff_vector, bytes([5, 0, 0]) + b"\xff" * 8 + bytes(1)),
            # a stream mask that claims 65535 streams over one byte
            (decode_verdict, bytes([protocol.VERDICT_STREAM_MASK, 0xFF, 0xFF, 0])),
        ],
        ids=["diff-vector", "verdict-mask"],
    )
    def test_hostile_bit_counts_fail_before_allocating(self, decoder, payload):
        with mock.patch("numpy.unpackbits", side_effect=AssertionError("unpacked")):
            with pytest.raises(WireFormatError, match="bits needs"):
                decoder(payload)

    @pytest.mark.parametrize(
        "encode_streams",
        [
            lambda m: encode_tags([bytes(1)] * m, 6),
            lambda m: encode_verdict_mask(np.zeros(m, dtype=bool)),
            lambda m: encode_drop_lists(np.zeros((m, 1), dtype=bool)),
            lambda m: encode_diff_vector(5, np.zeros(m, dtype=np.int64), []),
        ],
        ids=["tags", "verdict-mask", "drop-lists", "diff-vector"],
    )
    def test_more_streams_than_the_count_field_holds_is_a_wire_error(self, encode_streams):
        encode_streams(0xFFFF)
        with pytest.raises(WireFormatError, match="too many streams for the wire format: 65536"):
            encode_streams(0x10000)

    def test_tags_round_trip(self):
        tags = [make_tag([1, 0, 1, i % 2], 6).tag for i in range(5)]
        assert decode_tags(encode_tags(tags, 6)) == (6, tags)

    @pytest.mark.parametrize("frame", [bytes([0, 0, 1]), bytes([200, 0, 1]) + bytes(25)])
    def test_tags_r_outside_the_digest_is_a_wire_error(self, frame):
        with pytest.raises(WireFormatError, match="outside"):
            decode_tags(frame)

    def test_tags_encoder_refuses_a_tag_of_another_size(self):
        with pytest.raises(ProtocolError, match="must each hold 1 bytes for r=6"):
            encode_tags([bytes([0xFC]), bytes(2)], 6)

    def test_tags_length_mismatch(self):
        payload = encode_tags([make_tag([1], 6).tag], 6)
        with pytest.raises(WireFormatError):
            decode_tags(payload + b"\x00")

    def test_verdict_mask_round_trip(self):
        mask = np.array([1, 0, 0, 1, 1, 0, 1, 0, 0, 1], dtype=np.uint8)
        decoded = decode_verdict(encode_verdict_mask(mask))
        assert decoded.astype(int).tolist() == mask.tolist()

    def test_scalar_verdicts(self):
        assert decode_verdict(bytes([protocol.VERDICT_MATCH])) == protocol.VERDICT_MATCH
        assert (
            decode_verdict(bytes([protocol.VERDICT_MISMATCH]))
            == protocol.VERDICT_MISMATCH
        )
        with pytest.raises(WireFormatError):
            decode_verdict(b"")
        with pytest.raises(WireFormatError):
            decode_verdict(bytes([9]))

    def test_padding_bits_must_be_zero(self):
        assert decode_verdict(bytes([2, 0, 1, 0x80])).tolist() == [True]
        with pytest.raises(WireFormatError, match="padding"):
            decode_verdict(bytes([2, 0, 1, 0xFF]))
        assert decode_tags(bytes([6, 0, 1, 0xFC])) == (6, [bytes([0xFC])])
        with pytest.raises(WireFormatError, match="last 2 bits zero"):
            decode_tags(bytes([6, 0, 1, 0xFD]))
        x_block = bytes(7) + bytes([3, 0b1010_0000])
        assert decode_diff_vector(bytes([5, 0, 0]) + x_block)[2].tolist() == [1, 0, 1]
        with pytest.raises(WireFormatError, match="padding"):
            decode_diff_vector(bytes([5, 0, 0]) + x_block[:-1] + bytes([0b1010_0001]))


class TestProtocolParams:
    def test_theta_must_fit_the_diff_vector_byte(self):
        assert ProtocolParams(theta=255).theta == 255
        for theta in (1, 256, 300):
            with pytest.raises(ConfigError, match="theta"):
                ProtocolParams(theta=theta)

    @pytest.mark.parametrize("name", ["key_length", "max_rounds", "theta", "rng_seed"])
    @pytest.mark.parametrize("value", [64.5, 3.5, 5.0, float("nan"), True, "5"])
    def test_counts_and_the_seed_must_be_integers(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            ProtocolParams(**{name: value})

    def test_numpy_integers_pass(self):
        params = ProtocolParams(
            key_length=np.int64(64), max_rounds=np.int32(3), theta=np.uint8(5), rng_seed=np.uint64(7)
        )
        assert (params.key_length, params.max_rounds, params.theta, params.rng_seed) == (64, 3, 5, 7)

    def test_seed_must_not_be_negative(self):
        with pytest.raises(ConfigError, match="rng_seed must be >= 0"):
            ProtocolParams(rng_seed=-1)

    @pytest.mark.parametrize("name", ["alpha", "gamma"])
    @pytest.mark.parametrize("value", ["0.4", None, True, b"0.4", 0.5j])
    def test_float_fields_must_be_real_numbers(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be a real number"):
            ProtocolParams(**{name: value})

    def test_numpy_floats_and_integers_pass_as_floats(self):
        params = ProtocolParams(alpha=np.float32(0.5), gamma=np.float64(0.9))
        assert (params.alpha, params.gamma) == (0.5, 0.9)
        assert ProtocolParams(alpha=1).alpha == 1

    @pytest.mark.parametrize("alpha", [float("inf"), float("nan"), -0.1])
    def test_alpha_must_be_finite_and_not_negative(self, alpha):
        with pytest.raises(ConfigError, match="alpha"):
            ProtocolParams(alpha=alpha)


class TestDirectMatch:
    def test_noiseless_traces_match_on_first_stream(self):
        traces = simulate(clean_config(noise_std=0.0))
        params = ProtocolParams(alpha=0.4, key_length=64, rng_seed=3)
        result, _ = run_key_agreement(traces, params)
        assert result.matched_via == "stream:0"
        assert result.rounds_used == 0
        assert np.array_equal(result.key.bits, result.peer_key.bits)
        assert len(result.key) == 64

    def test_counters_match_transcript(self):
        traces = simulate(clean_config())
        params = ProtocolParams(alpha=0.4, key_length=64, rng_seed=4)
        result, _ = run_key_agreement(traces, params)
        assert result.matched_via.startswith("stream:")
        assert result.counters.total_messages == len(result.messages)
        assert result.counters.total_bytes == sum(len(encode(m)) for m in result.messages)

    def test_matched_stream_bits_reported(self):
        traces = simulate(clean_config(noise_std=0.0))
        params = ProtocolParams(alpha=0.4, key_length=64, rng_seed=5)
        result, _ = run_key_agreement(traces, params)
        assert set(result.matched_stream_bits) == set(range(traces.m))
        assert all(v == 64 for v in result.matched_stream_bits.values())


class TestRecombinationPath:
    def test_all_streams_dirty_resolves_by_recombination(self):
        rng = np.random.default_rng(6)
        streams_a, streams_b = dirty_streams(rng)
        params = ProtocolParams(key_length=200, max_rounds=500, rng_seed=7, gamma=0.9999)
        result = reconcile_bit_streams(streams_a, streams_b, params)
        assert result.succeeded
        assert result.matched_via == "recombination"
        assert result.rounds_used >= 1
        assert np.array_equal(result.key.bits, result.peer_key.bits)
        assert len(result.key) == 200
        types = [m.msg_type for m in result.messages]
        assert types[:4] == [
            MsgType.TAGS,
            MsgType.VERDICT,
            MsgType.DIFF_VECTOR,
            MsgType.DIFF_VECTOR,
        ]
        assert types[4::3] == [MsgType.RECOMB_SEED] * result.rounds_used

    def test_message_count_accounting_per_round(self):
        rng = np.random.default_rng(8)
        streams_a, streams_b = dirty_streams(rng)
        params = ProtocolParams(key_length=200, max_rounds=500, rng_seed=9, gamma=0.9999)
        result = reconcile_bit_streams(streams_a, streams_b, params)
        assert result.matched_via == "recombination"
        assert result.counters.total_messages == 4 + 3 * result.rounds_used
        assert result.counters.total_bytes == sum(len(encode(m)) for m in result.messages)

    def test_round_exhaustion_yields_failure_with_transcript(self):
        rng = np.random.default_rng(10)
        streams_a, streams_b = dirty_streams(rng, m=4, length=80)
        params = ProtocolParams(key_length=80, max_rounds=0, rng_seed=11, gamma=0.9999)
        result = reconcile_bit_streams(streams_a, streams_b, params)
        assert not result.succeeded
        assert result.key is None and result.peer_key is None
        assert result.matched_via is None
        assert [m.msg_type for m in result.messages] == [
            MsgType.TAGS,
            MsgType.VERDICT,
            MsgType.DIFF_VECTOR,
            MsgType.DIFF_VECTOR,
        ]

    def test_insufficient_bits_raises(self):
        traces = simulate(clean_config(probe_count=40))
        params = ProtocolParams(alpha=0.4, key_length=100_000, rng_seed=12)
        with pytest.raises(InsufficientBitsError):
            run_key_agreement(traces, params)

    def test_more_streams_than_a_frame_counts_is_a_wire_error(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("streams were tagged before their count was checked")

        monkeypatch.setattr(protocol.validation, "make_tags", refuse)
        streams = list(np.ones((0x10000, 1), dtype=np.uint8))
        with pytest.raises(WireFormatError, match="too many streams"):
            reconcile_bit_streams(streams, streams, ProtocolParams(key_length=1))

    def test_stream_count_disagreement(self):
        rng = np.random.default_rng(13)
        streams_a, streams_b = dirty_streams(rng, m=3, length=50)
        with pytest.raises(ProtocolError):
            reconcile_bit_streams(streams_a, streams_b[:2], ProtocolParams(key_length=50))


def preset_session_streams():
    """A preset-A session's streams, which key on a matched stream."""
    scenario = experiments.load_scenario("A")
    params = ProtocolParams(alpha=scenario.alpha, key_length=128, rng_seed=18)
    streams = protocol.exchange_drop_lists(simulate(scenario.config), params, protocol.Link())
    return streams, params, "stream:"


def dirty_session_streams():
    streams = dirty_streams(np.random.default_rng(19))
    return streams, ProtocolParams(key_length=200, max_rounds=500, rng_seed=20), "recombination"


class TestDeterminism:
    def test_identical_seeds_identical_transcripts(self):
        def run():
            traces = simulate(clean_config())
            params = ProtocolParams(alpha=0.4, key_length=64, rng_seed=14)
            result, _ = run_key_agreement(traces, params)
            return b"".join(encode(m) for m in result.messages)

        assert run() == run()

    def test_recombination_transcripts_deterministic(self):
        def run():
            rng = np.random.default_rng(15)
            streams_a, streams_b = dirty_streams(rng)
            params = ProtocolParams(key_length=200, max_rounds=300, rng_seed=16, gamma=0.9999)
            result = reconcile_bit_streams(streams_a, streams_b, params)
            return b"".join(encode(m) for m in result.messages)

        assert run() == run()

    @pytest.mark.parametrize(
        "case", [preset_session_streams, dirty_session_streams], ids=["stream", "recombination"]
    )
    def test_plain_arrays_and_bitstreams_give_the_same_session(self, case):
        (streams_a, streams_b), params, via = case()

        def outcome(a, b):
            r = reconcile_bit_streams(a, b, params)
            wire = b"".join(encode(m) for m in r.messages)
            return wire, r.matched_via, r.rounds_used, r.key.bits.tolist(), r.peer_key.bits.tolist()

        from_streams = outcome(streams_a, streams_b)
        assert from_streams[1].startswith(via)
        plain_a, plain_b = ([s.bits.copy() for s in streams] for streams in (streams_a, streams_b))
        assert outcome(plain_a, plain_b) == from_streams


def guess_correlations(guesses, reference):
    """Pearson r of each guess with its reference over their common prefix; NaN if degenerate."""
    cors = np.full(len(guesses), np.nan)
    for i, (g, ref) in enumerate(zip(guesses, reference)):
        k = min(len(g), len(ref))
        if k >= 2 and g.bits[:k].std() > 0 and ref.bits[:k].std() > 0:
            cors[i] = pearson(g.bits[:k], ref.bits[:k])
    return cors


class TestEve:
    def test_eve_with_alices_trace_correlates_perfectly(self):
        traces = simulate(clean_config(noise_std=0.0))
        params = ProtocolParams(alpha=0.4, key_length=64, rng_seed=17)
        result, eve_view = run_key_agreement(traces, params)
        cheat_view = EveView(
            transcript=eve_view.transcript,
            trace=traces.alice,
            alpha=eve_view.alpha,
            key_length=eve_view.key_length,
        )
        reference, _ = experiments.extract_party_streams(traces, params.alpha)
        assert np.all(guess_correlations(eve_attempt(cheat_view), reference) > 0.999)

    def test_independent_eve_shows_no_correlation(self):
        traces = simulate(clean_config(probe_count=4000, eve_correlation=0.0))
        params = ProtocolParams(alpha=0.4, key_length=512, rng_seed=18)
        result, eve_view = run_key_agreement(traces, params)
        reference, _ = experiments.extract_party_streams(traces, params.alpha)
        cors = guess_correlations(eve_attempt(eve_view), reference)
        assert np.nanmax(np.abs(cors)) < 0.15

    def test_bit_correlation_tracks_amplitude_correlation(self):
        for rho in (0.9, -0.9):
            traces = simulate(
                clean_config(probe_count=8000, eve_correlation=rho, noise_std=0.1)
            )
            params = ProtocolParams(alpha=0.4, key_length=2000, rng_seed=19)
            _, eve_view = run_key_agreement(traces, params)
            reference, _ = experiments.extract_party_streams(traces, params.alpha)
            cors = guess_correlations(eve_attempt(eve_view), reference)
            for i in range(traces.m):
                amp_r = pearson(
                    traces.alice.amplitude_db[i], traces.eve.amplitude_db[i]
                )
                assert np.sign(cors[i]) == np.sign(amp_r)
                assert abs(cors[i] - amp_r) < 0.3

    def test_eve_without_drop_lists_rejected(self):
        view = EveView(
            transcript=[],
            trace=simulate(clean_config()).eve,
            alpha=0.4,
            key_length=64,
        )
        with pytest.raises(ProtocolError):
            eve_attempt(view)


class TestDropListDesync:
    """Drop lists that travel the wire and disagree with a party's own band."""

    def wire_drops(self, traces, alpha=0.4):
        quant_a = quantizer.quantize_matrix(traces.alice.amplitude_db, alpha)
        quant_b = quantizer.quantize_matrix(traces.bob.amplitude_db, alpha)
        drops_a = decode_drop_lists(encode_drop_lists(quant_a.inside), traces.n)
        drops_b = decode_drop_lists(encode_drop_lists(quant_b.inside), traces.n)
        return quant_a, quant_b, drops_a, drops_b

    def test_intact_lists_extract_what_the_session_keys_on(self):
        traces = simulate(clean_config())
        quant_a, quant_b, drops_a, drops_b = self.wire_drops(traces)
        streams_a = quantizer.extract_streams(quant_a, drops_a, drops_b, limit=64)
        result, _ = run_key_agreement(traces, ProtocolParams(alpha=0.4, key_length=64))
        pick = int(result.matched_via.split(":")[1])
        assert np.array_equal(streams_a[pick].bits, result.key.bits)

    def test_corrupted_list_raises_desync(self):
        traces = simulate(clean_config())
        quant_a, quant_b, drops_a, drops_b = self.wire_drops(traces)
        # a drop only Bob made is lost in transit
        lost = np.flatnonzero(drops_b[2] & ~drops_a[2])[0]
        drops_b[2, lost] = False
        quantizer.extract_streams(quant_a, drops_a, drops_b)  # Alice's drops are intact
        with pytest.raises(DesyncError, match="stream 2"):
            quantizer.extract_streams(quant_b, drops_a, drops_b)

    def test_lists_from_another_session_raise_desync(self):
        quant_a, _, drops_a, _ = self.wire_drops(simulate(clean_config()))
        _, _, foreign_a, foreign_b = self.wire_drops(simulate(clean_config(rng_seed=22)))
        with pytest.raises(DesyncError):
            quantizer.extract_streams(quant_a, foreign_a, foreign_b)

    def test_stream_count_mismatch_raises_desync(self):
        traces = simulate(clean_config())
        quant_a, _, drops_a, drops_b = self.wire_drops(traces)
        with pytest.raises(DesyncError):
            quantizer.extract_streams(quant_a, drops_a[:-1], drops_b)
        view = EveView(
            transcript=[
                ProtocolMessage(MsgType.DROP_LIST, encode_drop_lists(drops_a[:-1]), A_TO_B),
                ProtocolMessage(MsgType.DROP_LIST, encode_drop_lists(drops_b), B_TO_A),
            ],
            trace=traces.eve,
            alpha=0.4,
            key_length=64,
        )
        with pytest.raises(DesyncError):
            eve_attempt(view)


class TestReceiverActsOnTheWire:
    """Each party acts on the frames it decodes, not on its peer's memory."""

    def session(self, monkeypatch, rewrite):
        monkeypatch.setattr(protocol, "Link", lambda: RewritingLink(rewrite))
        traces = simulate(clean_config())
        result, _ = run_key_agreement(traces, ProtocolParams(alpha=0.4, key_length=64, rng_seed=3))
        return traces, result

    def test_all_mismatch_verdict_while_bob_holds_a_stream_key_is_a_protocol_error(
        self, monkeypatch
    ):
        _, honest = self.session(monkeypatch, lambda d, t, p: p)
        assert honest.matched_via.startswith("stream:")
        no_match = encode_verdict_mask(np.zeros(6, dtype=bool))
        with pytest.raises(ProtocolError, match="Bob keys on stream 0"):
            self.session(monkeypatch, rewrite_first(MsgType.VERDICT, B_TO_A, lambda p: no_match))

    def test_verdict_sending_alice_to_another_stream_than_bobs_is_a_protocol_error(
        self, monkeypatch
    ):
        _, honest = self.session(monkeypatch, lambda d, t, p: p)
        assert honest.matched_via == "stream:0"
        only_stream_1 = encode_verdict_mask(np.arange(6) == 1)
        with pytest.raises(ProtocolError, match="Alice keys on stream 1, but Bob's own check gives stream 0"):
            self.session(monkeypatch, rewrite_first(MsgType.VERDICT, B_TO_A, lambda p: only_stream_1))

    def test_lost_bob_drop_changes_only_that_row_of_alices_streams(self, monkeypatch):
        seen = []
        extract = quantizer.extract_streams

        def spy(quantized, drops_a, drops_b, limit=None):
            seen.append(extract(quantized, drops_a, drops_b, limit=limit))
            return seen[-1]

        monkeypatch.setattr(quantizer, "extract_streams", spy)
        traces, _ = self.session(monkeypatch, lambda d, t, p: p)
        # a session extracts Alice's streams first, then Bob's
        honest = dict(zip(("alice", "bob"), seen))
        inside_a = quantizer.quantize_matrix(traces.alice.amplitude_db, 0.4).inside

        def lose_one_drop(payload):
            drops_b = decode_drop_lists(payload, traces.n)
            drops_b[2, np.flatnonzero(drops_b[2] & ~inside_a[2])[0]] = False
            return encode_drop_lists(drops_b)

        self.session(monkeypatch, rewrite_first(MsgType.DROP_LIST, B_TO_A, lose_one_drop))
        lossy = dict(zip(("alice", "bob"), seen[2:]))
        assert lossy["alice"][2] != honest["alice"][2]
        assert [s for i, s in enumerate(lossy["alice"]) if i != 2] == [
            s for i, s in enumerate(honest["alice"]) if i != 2
        ]
        assert lossy["bob"] == honest["bob"]


class TestSessionRejectsInconsistentFrames:
    """A decoded frame that contradicts the receiver's state is a ProtocolError."""

    def reconcile(self, rewrite):
        streams_a, streams_b = dirty_streams(np.random.default_rng(30), m=5, length=60)
        params = ProtocolParams(key_length=60, max_rounds=3, rng_seed=31, gamma=0.9999)
        return reconcile_bit_streams(streams_a, streams_b, params, link=RewritingLink(rewrite))

    def test_diff_vector_with_another_theta(self):
        def theta_7(payload):
            theta, residues, x = decode_diff_vector(payload)
            return encode_diff_vector(7, residues, x)

        with pytest.raises(ProtocolError, match="modulo 7"):
            self.reconcile(rewrite_first(MsgType.DIFF_VECTOR, A_TO_B, theta_7))

    def test_tags_count_other_than_m(self):
        def drop_last_tag(payload):
            r, tags = decode_tags(payload)
            return encode_tags(tags[:-1], r)

        with pytest.raises(ProtocolError, match="4 tags, expected 5"):
            self.reconcile(rewrite_first(MsgType.TAGS, A_TO_B, drop_last_tag))

    def test_tags_of_another_checking_length(self):
        def r_16(payload):
            r, tags = decode_tags(payload)
            return encode_tags(tags, 16)  # gamma 0.9999 gives r=14, also two bytes a tag

        with pytest.raises(ProtocolError, match="remote r=16, local r=14"):
            self.reconcile(rewrite_first(MsgType.TAGS, A_TO_B, r_16))

    def test_stream_mask_of_wrong_length(self):
        longer = encode_verdict_mask(np.zeros(6, dtype=bool))
        with pytest.raises(ProtocolError, match="stream-mask verdict over 5 streams"):
            self.reconcile(rewrite_first(MsgType.VERDICT, B_TO_A, lambda p: longer))

    def test_round_match_that_alice_decodes_as_a_mismatch(self):
        honest = self.reconcile(lambda d, t, p: p)
        assert (honest.matched_via, honest.rounds_used) == ("recombination", 1)
        assert np.array_equal(honest.peer_key.bits, honest.key.bits)

        def mismatch(d, t, payload):
            if t == MsgType.VERDICT and payload == bytes([protocol.VERDICT_MATCH]):
                return bytes([protocol.VERDICT_MISMATCH])
            return payload

        with pytest.raises(ProtocolError, match="round 1, but Alice decodes a mismatch"):
            self.reconcile(mismatch)

    def test_stream_match_that_bobs_own_check_rejected(self):
        honest = self.reconcile(lambda d, t, p: p)
        assert honest.matched_via == "recombination"  # Bob's own mask matches no stream
        stream_0 = encode_verdict_mask(np.arange(5) == 0)
        with pytest.raises(ProtocolError, match="Alice keys on stream 0, but Bob's own check gives no stream key"):
            self.reconcile(rewrite_first(MsgType.VERDICT, B_TO_A, lambda p: stream_0))

    def test_round_match_that_bobs_own_check_rejected(self):
        sent = []

        def reject_then_claim_a_match(d, t, payload):
            # the second TAGS frame is round 1's tag: a flipped bit makes Bob reject it
            sent.append(t)
            if t == MsgType.TAGS and sent.count(MsgType.TAGS) == 2:
                return payload[:-1] + bytes([payload[-1] ^ 0x80])
            if t == MsgType.VERDICT and payload == bytes([protocol.VERDICT_MISMATCH]):
                return bytes([protocol.VERDICT_MATCH])
            return payload

        with pytest.raises(ProtocolError, match="Bob rejects round 1, but Alice decodes a match"):
            self.reconcile(reject_then_claim_a_match)

    def test_verdict_of_the_wrong_kind(self):
        scalar = bytes([protocol.VERDICT_MATCH])
        with pytest.raises(ProtocolError, match="stream-mask verdict over 5 streams"):
            self.reconcile(rewrite_first(MsgType.VERDICT, B_TO_A, lambda p: scalar))

        def mask_for_round(d, t, payload):
            if t == MsgType.VERDICT and payload[0] != protocol.VERDICT_STREAM_MASK:
                return encode_verdict_mask([1])
            return payload

        with pytest.raises(ProtocolError, match="got a stream mask"):
            self.reconcile(mask_for_round)


def _recombining_session():
    traces = simulate(ScenarioConfig(m=6, probe_count=400, noise_std=2.0, rng_seed=3))
    params = ProtocolParams(alpha=0.2, key_length=96, rng_seed=3, max_rounds=5, gamma=0.9999)
    result, _ = run_key_agreement(traces, params)
    return traces, params, result


TRACES, PARAMS, SESSION = _recombining_session()
FRAMES = [encode(msg) for msg in SESSION.messages]
DECODERS = {
    "decode": decode,
    "decode_drop_lists": lambda payload: decode_drop_lists(payload, TRACES.n),
    "decode_tags": decode_tags,
    "decode_verdict": decode_verdict,
    "decode_diff_vector": decode_diff_vector,
}


@st.composite
def damaged_frames(draw):
    """A real frame of the recombining session, truncated or with one bit flipped."""
    frame = bytearray(draw(st.sampled_from(FRAMES)))
    if draw(st.booleans()):
        return bytes(frame[: draw(st.integers(0, len(frame) - 1))])
    bit = draw(st.integers(0, 8 * len(frame) - 1))
    frame[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(frame)


@st.composite
def well_sized_payloads(draw, name):
    """A payload of the right size for ``name`` whose padding bits are arbitrary."""
    if name == "decode_verdict":
        m = draw(st.integers(0, 40))
        body = draw(st.binary(min_size=(m + 7) // 8, max_size=(m + 7) // 8))
        return bytes([protocol.VERDICT_STREAM_MASK]) + struct.pack(">H", m) + body
    if name == "decode_tags":
        r, count = draw(st.integers(1, 160)), draw(st.integers(0, 6))
        size = count * ((r + 7) // 8)
        return struct.pack(">BH", r, count) + draw(st.binary(min_size=size, max_size=size))
    theta, m, nbits = draw(st.integers(2, 255)), draw(st.integers(0, 8)), draw(st.integers(0, 40))
    residues = draw(st.lists(st.integers(0, theta - 1), min_size=m, max_size=m))
    x = draw(st.binary(min_size=(nbits + 7) // 8, max_size=(nbits + 7) // 8))
    return struct.pack(">BH", theta, m) + bytes(residues) + struct.pack(">Q", nbits) + x


REENCODERS = {
    "decode_tags": lambda decoded, payload: encode_tags(decoded[1], decoded[0]),
    "decode_verdict": lambda verdict, payload: (
        encode_verdict_mask(verdict) if isinstance(verdict, np.ndarray) else bytes([verdict])
    ),
    "decode_diff_vector": lambda decoded, payload: encode_diff_vector(*decoded),
}


def returns_or_raises_typed(decoder, data):
    try:
        decoder(data)
    except SkeceError:
        pass


class TestDecoderFuzz:
    """Every decoder returns or raises a SkeceError, whatever the bytes."""

    def test_session_carries_every_message_type(self):
        assert {m.msg_type for m in SESSION.messages} == {
            MsgType.DROP_LIST, MsgType.TAGS, MsgType.VERDICT,
            MsgType.DIFF_VECTOR, MsgType.RECOMB_SEED,
        }

    @pytest.mark.parametrize("name", sorted(DECODERS))
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.binary(max_size=600))
    def test_random_bytes(self, name, data):
        returns_or_raises_typed(DECODERS[name], data)

    @pytest.mark.parametrize("name", sorted(DECODERS))
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(frame=damaged_frames())
    def test_damaged_frames(self, name, frame):
        # the frame decoder reads the whole frame, payload decoders what follows the header
        returns_or_raises_typed(DECODERS[name], frame if name == "decode" else frame[5:])

    @pytest.mark.parametrize("name", sorted(REENCODERS))
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_accepted_payloads_re_encode_to_themselves(self, name, data):
        payload = data.draw(
            st.one_of(
                st.binary(max_size=600),
                damaged_frames().map(lambda frame: frame[5:]),
                well_sized_payloads(name),
            )
        )
        try:
            decoded = DECODERS[name](payload)
        except SkeceError:
            return
        assert REENCODERS[name](decoded, payload) == payload

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(index=st.integers(0, len(FRAMES) - 1), bit=st.integers(0, 2**16))
    def test_session_with_one_bit_flipped_in_flight(self, index, bit):
        sent = []

        def flip(direction, msg_type, payload):
            sent.append(payload)
            if len(sent) - 1 != index or not payload:
                return payload
            out = bytearray(payload)
            k = bit % (8 * len(out))
            out[k // 8] ^= 0x80 >> (k % 8)
            return bytes(out)

        with mock.patch.object(protocol, "Link", lambda: RewritingLink(flip)):
            returns_or_raises_typed(lambda p: run_key_agreement(TRACES, p), PARAMS)


def reference_scan(transcript, key_bits, window: int = 32) -> int:
    """The unpacked sliding-window scan the packed-word scan replaced, kept as its reference."""
    key = quantizer._as_bits(key_bits)
    if key.size < window:
        return 0
    powers = (1 << np.arange(window - 1, -1, -1)).astype(np.uint64)
    key_windows = np.unique(
        np.lib.stride_tricks.sliding_window_view(key, window).astype(np.uint64) @ powers
    )
    hits = 0
    for msg in transcript:
        if not msg.payload:
            continue
        bits = np.unpackbits(np.frombuffer(msg.payload, dtype=np.uint8))
        if bits.size < window:
            continue
        vals = (
            np.lib.stride_tricks.sliding_window_view(bits, window).astype(np.uint64)
            @ powers
        )
        hits += int(np.isin(vals, key_windows).sum())
    return hits


def scanned_sessions():
    """40 preset-C transcripts with their keys; the odd ones carry the key at a random bit offset."""
    scenario = experiments.load_scenario("C")
    for k in range(40):
        traces = simulate(scenario.with_seed(1000 + k).config)
        params = ProtocolParams(alpha=scenario.alpha, key_length=128, rng_seed=k)
        result, _ = run_key_agreement(traces, params)
        messages = list(result.messages)
        if k % 2:
            rng = np.random.default_rng(k)
            i = max(range(len(messages)), key=lambda j: len(messages[j].payload))
            bits = np.unpackbits(np.frombuffer(messages[i].payload, dtype=np.uint8))
            at = int(rng.integers(0, bits.size - len(result.key)))
            bits[at : at + len(result.key)] = result.key.bits
            messages[i] = replace(messages[i], payload=np.packbits(bits).tobytes())
        yield messages, result.key


class TestTranscriptHygiene:
    def test_packed_scan_counts_what_the_reference_counts(self):
        counts = []
        for messages, key in scanned_sessions():
            counts.append(scan_transcript_for_key(messages, key))
            assert counts[-1] == reference_scan(messages, key)
        assert all(c == 0 for c in counts[::2])
        assert all(c >= 128 - 31 for c in counts[1::2])

    @pytest.mark.parametrize("window", [1, 7, 8, 9, 31, 33, 56, 57])
    def test_packed_scan_at_every_window_width(self, window):
        rng = np.random.default_rng(window)
        key = rng.integers(0, 2, 80, dtype=np.uint8)
        bits = rng.integers(0, 2, 8 * 37, dtype=np.uint8)
        bits[13 : 13 + 80] = key
        transcript = [
            ProtocolMessage(MsgType.TAGS, np.packbits(bits).tobytes(), A_TO_B),
            ProtocolMessage(MsgType.TAGS, b"", B_TO_A),
            ProtocolMessage(MsgType.TAGS, rng.bytes(window // 8), B_TO_A),
            ProtocolMessage(MsgType.TAGS, rng.bytes(9), B_TO_A),
        ]
        hits = scan_transcript_for_key(transcript, key, window=window)
        assert hits == reference_scan(transcript, key, window=window)
        assert hits >= 81 - window

    @pytest.mark.parametrize("window", [0, 58])
    def test_scan_window_out_of_range(self, window):
        with pytest.raises(ConfigError):
            scan_transcript_for_key([], np.ones(64, dtype=np.uint8), window=window)

    def test_scanner_detects_planted_key_bits(self):
        rng = np.random.default_rng(20)
        key = BitStream(rng.integers(0, 2, 64, dtype=np.uint8))
        planted = np.packbits(key.bits).tobytes()
        transcript = [ProtocolMessage(MsgType.TAGS, planted, A_TO_B)]
        assert scan_transcript_for_key(transcript, key, window=32) > 0

    def test_clean_run_has_no_key_windows(self):
        traces = simulate(clean_config())
        params = ProtocolParams(alpha=0.4, key_length=128, rng_seed=22)
        result, _ = run_key_agreement(traces, params)
        assert result.succeeded
        assert scan_transcript_for_key(result.messages, result.key) == 0
        assert scan_transcript_for_key(result.messages, result.peer_key) == 0

    def test_jsonl_export_round_trips_payloads(self):
        traces = simulate(clean_config())
        params = ProtocolParams(alpha=0.4, key_length=64, rng_seed=23)
        result, _ = run_key_agreement(traces, params)
        lines = transcript_to_jsonl(result.messages).strip().split("\n")
        assert len(lines) == len(result.messages)
        for line, msg in zip(lines, result.messages):
            record = json.loads(line)
            assert record["type"] == msg.msg_type.name
            assert record["direction"] == msg.direction
            assert record["length"] == len(msg.payload)
            assert bytes.fromhex(record["payload_hex"]) == msg.payload
