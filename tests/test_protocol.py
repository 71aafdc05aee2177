import json
from dataclasses import replace

import numpy as np
import pytest

from skece import protocol
from skece.channel import ScenarioConfig, simulate
from skece import quantizer
from skece.errors import (
    ConfigError,
    DesyncError,
    InsufficientBitsError,
    ProtocolError,
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
from skece.quantizer import BitStream, DropList
from skece.validation import make_tag


def clean_config(**overrides):
    base = dict(
        m=6,
        probe_count=400,
        mobility="mobile",
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
        lists = [
            DropList(np.sort(rng.choice(500, size=rng.integers(0, 40), replace=False)))
            for _ in range(7)
        ]
        decoded = decode_drop_lists(encode_drop_lists(lists))
        assert [d.indices.tolist() for d in decoded] == [
            d.indices.tolist() for d in lists
        ]

    def test_drop_lists_truncation(self):
        payload = encode_drop_lists([DropList([1, 5, 9])])
        with pytest.raises(WireFormatError):
            decode_drop_lists(payload[:-2])

    def test_tags_round_trip(self):
        tags = [make_tag([1, 0, 1, i % 2], 6, stream_index=i) for i in range(5)]
        decoded = decode_tags(encode_tags(tags, 6))
        assert [t.tag for t in decoded] == [t.tag for t in tags]
        assert all(t.r == 6 for t in decoded)

    def test_tags_length_mismatch(self):
        payload = encode_tags([make_tag([1], 6)], 6)
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


class TestDirectMatch:
    def test_noiseless_traces_match_on_first_stream(self):
        traces = simulate(clean_config(noise_std=0.0, half_duplex_offset=0.0))
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
        assert result.counters.total_messages == len(result.messages)
        by_dir = {A_TO_B: 0, B_TO_A: 0}
        for msg in result.messages:
            by_dir[msg.direction] += 1
        assert result.counters.by_direction == by_dir
        assert result.counters.probe_messages == 2 * traces.n

    def test_matched_stream_bits_reported(self):
        traces = simulate(clean_config(noise_std=0.0, half_duplex_offset=0.0))
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
        assert result.counters.total_messages == 4 + 3 * result.rounds_used

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

    def test_stream_count_disagreement(self):
        rng = np.random.default_rng(13)
        streams_a, streams_b = dirty_streams(rng, m=3, length=50)
        with pytest.raises(ProtocolError):
            reconcile_bit_streams(streams_a, streams_b[:2], ProtocolParams(key_length=50))


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


class TestEve:
    def test_eve_with_alices_trace_correlates_perfectly(self):
        traces = simulate(clean_config(noise_std=0.0, half_duplex_offset=0.0))
        params = ProtocolParams(alpha=0.4, key_length=64, rng_seed=17)
        result, eve_view = run_key_agreement(traces, params)
        cheat_view = EveView(
            transcript=eve_view.transcript,
            trace=traces.alice,
            alpha=eve_view.alpha,
            gamma=eve_view.gamma,
            theta=eve_view.theta,
            key_length=eve_view.key_length,
        )
        from skece.experiments import extract_party_streams

        reference, _ = extract_party_streams(traces, params.alpha)
        attempt = eve_attempt(cheat_view, reference_streams=reference)
        assert np.all(attempt.correlations > 0.999)

    def test_independent_eve_shows_no_correlation(self):
        traces = simulate(clean_config(probe_count=4000, eve_correlation=0.0))
        params = ProtocolParams(alpha=0.4, key_length=512, rng_seed=18)
        result, eve_view = run_key_agreement(traces, params)
        from skece.experiments import extract_party_streams

        reference, _ = extract_party_streams(traces, params.alpha)
        attempt = eve_attempt(eve_view, reference_streams=reference)
        assert np.nanmax(np.abs(attempt.correlations)) < 0.15

    def test_bit_correlation_tracks_amplitude_correlation(self):
        from skece.analysis import pearson
        from skece.experiments import extract_party_streams

        for rho in (0.9, -0.9):
            traces = simulate(
                clean_config(probe_count=8000, eve_correlation=rho, noise_std=0.1)
            )
            params = ProtocolParams(alpha=0.4, key_length=2000, rng_seed=19)
            _, eve_view = run_key_agreement(traces, params)
            reference, _ = extract_party_streams(traces, params.alpha)
            attempt = eve_attempt(eve_view, reference_streams=reference)
            for i in range(traces.m):
                amp_r = pearson(
                    traces.alice.amplitude_db[i], traces.eve.amplitude_db[i]
                )
                bit_r = attempt.correlations[i]
                assert np.sign(bit_r) == np.sign(amp_r)
                assert abs(bit_r - amp_r) < 0.3

    def test_eve_without_drop_lists_rejected(self):
        view = EveView(
            transcript=[],
            trace=simulate(clean_config()).eve,
            alpha=0.4,
            gamma=0.98,
            theta=5,
            key_length=64,
        )
        with pytest.raises(ProtocolError):
            eve_attempt(view)


class TestDropListDesync:
    """Drop lists that travel the wire and disagree with a party's own band."""

    def wire_drops(self, traces, alpha=0.4):
        quant_a = quantizer.quantize_matrix(traces.alice.amplitude_db, alpha)
        quant_b = quantizer.quantize_matrix(traces.bob.amplitude_db, alpha)
        drops_a = decode_drop_lists(encode_drop_lists(quant_a.drop_lists()))
        drops_b = decode_drop_lists(encode_drop_lists(quant_b.drop_lists()))
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
        lost = np.setdiff1d(drops_b[2].indices, drops_a[2].indices)[0]
        drops_b[2] = DropList(drops_b[2].indices[drops_b[2].indices != lost])
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
            gamma=0.98,
            theta=5,
            key_length=64,
        )
        with pytest.raises(DesyncError):
            eve_attempt(view)


class TestTranscriptHygiene:
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
