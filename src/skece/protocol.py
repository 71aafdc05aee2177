"""Two-party key-agreement session with full transcript capture.

The pipeline: both parties quantize all m subcarrier streams, exchange drop
lists, and compare truncated digests of every stream in one aggregated tag
message. If at least one stream validates, the lowest-index matched stream
(truncated to the key length) becomes the key outright. Otherwise the
parties exchange difference-degree vectors and run weighted recombination
rounds: per round Alice publishes a fresh seed, both derive the same pick
plan, and the candidate is validated by tag. Every wire message is recorded
in the transcript and mirrored into the eavesdropper's view.

Both parties run in one process, but each reads its peer only through
:meth:`Link.send`, which returns what the receiver decodes from the frame.

Wire format: TLV frames of 1-byte type, 4-byte big-endian payload length,
payload. Payloads never carry raw key bits; only drop indices, truncated
digests, modular distances, the public reference string, seeds, parities
and verdicts travel on the wire.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import quantizer, recombine, validation
from .channel import CsiTrace, PairedTraceSet
from .errors import (
    ConfigError,
    InsufficientBitsError,
    ProtocolError,
    WireFormatError,
)
from .quantizer import BitStream

A_TO_B = "A->B"
B_TO_A = "B->A"

_FRAME = struct.Struct(">BI")
_SEED = struct.Struct(">Q")
_COUNT16 = struct.Struct(">H")

VERDICT_MISMATCH = 0
VERDICT_MATCH = 1
VERDICT_STREAM_MASK = 2


class MsgType(IntEnum):
    PROBE = 1
    DROP_LIST = 2
    TAGS = 3
    DIFF_VECTOR = 4
    RECOMB_SEED = 5
    VERDICT = 6
    PARITY = 7
    BISECT = 8


@dataclass(frozen=True)
class ProtocolMessage:
    """One typed wire unit; direction is link metadata, not wire content."""

    msg_type: MsgType
    payload: bytes
    direction: str | None = None

    def __post_init__(self):
        if self.direction not in (None, A_TO_B, B_TO_A):
            raise ConfigError(f"unknown direction {self.direction!r}")

    @property
    def wire_length(self) -> int:
        return _FRAME.size + len(self.payload)


def encode(msg: ProtocolMessage) -> bytes:
    """TLV frame: 1-byte type, 4-byte big-endian payload length, payload."""
    if len(msg.payload) > 0xFFFFFFFF:
        raise WireFormatError(
            f"payload of {len(msg.payload)} bytes overflows the length field"
        )
    return _FRAME.pack(int(msg.msg_type), len(msg.payload)) + msg.payload


def decode(frame: bytes) -> ProtocolMessage:
    """Inverse of :func:`encode`; the frame must be exactly one message."""
    if len(frame) < _FRAME.size:
        raise WireFormatError(
            f"truncated frame: expected at least {_FRAME.size} bytes, got {len(frame)}"
        )
    type_byte, length = _FRAME.unpack_from(frame)
    try:
        msg_type = MsgType(type_byte)
    except ValueError:
        raise WireFormatError(f"unknown message type {type_byte}") from None
    expected = _FRAME.size + length
    if len(frame) != expected:
        raise WireFormatError(
            f"frame length mismatch: expected {expected} bytes, got {len(frame)}"
        )
    return ProtocolMessage(msg_type=msg_type, payload=frame[_FRAME.size :])


class Link:
    """In-order, lossless in-memory duplex link that records every message."""

    def __init__(self):
        self.transcript: list[ProtocolMessage] = []

    def send(self, direction: str, msg_type: MsgType, payload: bytes) -> bytes:
        """Record one message; return the payload the receiver decodes from its frame."""
        msg = ProtocolMessage(msg_type=msg_type, payload=payload, direction=direction)
        frame = encode(msg)  # reject anything that cannot be framed
        self.transcript.append(msg)
        return decode(frame).payload


@dataclass(frozen=True)
class MessageCounters:
    """Per-type and per-direction message/byte accounting for one session.

    Probe traffic is simulated by the channel layer, so it is tracked as a
    separate counter and excluded from the reconciliation totals.
    """

    by_type: dict
    by_direction: dict
    bytes_by_direction: dict
    probe_messages: int = 0

    @classmethod
    def from_transcript(cls, transcript, probe_messages: int = 0):
        by_type: dict[str, int] = {}
        by_direction = {A_TO_B: 0, B_TO_A: 0}
        bytes_by_direction = {A_TO_B: 0, B_TO_A: 0}
        for msg in transcript:
            by_type[msg.msg_type.name] = by_type.get(msg.msg_type.name, 0) + 1
            by_direction[msg.direction] += 1
            bytes_by_direction[msg.direction] += msg.wire_length
        return cls(
            by_type=by_type,
            by_direction=by_direction,
            bytes_by_direction=bytes_by_direction,
            probe_messages=probe_messages,
        )

    @property
    def total_messages(self) -> int:
        return self.by_direction[A_TO_B] + self.by_direction[B_TO_A]

    @property
    def total_bytes(self) -> int:
        return self.bytes_by_direction[A_TO_B] + self.bytes_by_direction[B_TO_A]


@dataclass(frozen=True)
class ProtocolParams:
    """Knobs of one key-agreement session."""

    alpha: float = 0.4
    gamma: float = 0.98
    theta: int = 5
    key_length: int = 128
    max_rounds: int = 20
    rng_seed: int = 0

    def __post_init__(self):
        if self.key_length < 1:
            raise ConfigError(f"key_length must be >= 1, got {self.key_length}")
        if self.max_rounds < 0:
            raise ConfigError(f"max_rounds must be >= 0, got {self.max_rounds}")
        if not 2 <= self.theta <= 0xFF:
            # a DIFF_VECTOR frame carries theta in one byte
            raise ConfigError(f"theta must lie in [2, 255], got {self.theta}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if not 0 < self.gamma < 1:
            raise ConfigError(f"gamma must lie in (0, 1), got {self.gamma}")


@dataclass(frozen=True)
class KeyAgreementResult:
    """Outcome of one session: key (if any), transcript and accounting.

    ``peer_key`` is Bob's copy of the agreed key. It exists so tests can
    verify by full digest that both parties hold identical bits; it is never
    sent on the wire.
    """

    key: BitStream | None
    peer_key: BitStream | None
    matched_via: str | None
    rounds_used: int
    messages: list
    counters: MessageCounters
    matched_stream_bits: dict

    @property
    def succeeded(self) -> bool:
        return self.key is not None


@dataclass(frozen=True)
class EveView:
    """Everything the adversary holds: wire traffic plus her own channel."""

    transcript: list
    trace: CsiTrace | None
    alpha: float
    gamma: float
    theta: int
    key_length: int


@dataclass(frozen=True)
class EveAttempt:
    """Eve's best-effort per-stream bit guesses and their correlation report."""

    bit_streams: list
    correlations: np.ndarray | None


def encode_drop_lists(inside) -> bytes:
    """DROP_LIST payload of an (m, n) drop mask: m, then per row a count and indices.

    m is 2 bytes; counts and indices are 4-byte words, all big-endian.
    """
    inside = np.asarray(inside, dtype=bool)
    if inside.shape[0] > 0xFFFF:
        raise WireFormatError(f"too many streams for the wire format: {inside.shape[0]}")
    counts = inside.sum(axis=1)
    # each row's count goes in front of that row's indices
    words = np.insert(np.nonzero(inside)[1], np.cumsum(counts) - counts, counts)
    return _COUNT16.pack(inside.shape[0]) + words.astype(">u4").tobytes()


def decode_drop_lists(payload: bytes, n: int) -> np.ndarray:
    """Inverse of :func:`encode_drop_lists`: the (m, n) mask of streams of ``n`` samples."""
    if len(payload) < _COUNT16.size:
        raise WireFormatError("drop-list payload lacks the stream count")
    (m,) = _COUNT16.unpack_from(payload)
    # every stream carries at least its 4-byte count, which bounds m before allocating
    body = len(payload) - _COUNT16.size
    if body < 4 * m or body % 4:
        raise WireFormatError(f"{len(payload)}-byte drop-list payload cannot hold {m} streams")
    words = np.frombuffer(payload, dtype=">u4", offset=_COUNT16.size).astype(np.int64)
    is_index = np.ones(words.size, dtype=bool)
    pos = 0
    for _ in range(m):
        if pos >= words.size:
            raise WireFormatError("drop-list payload truncated at a count")
        is_index[pos] = False
        pos += 1 + int(words[pos])
    if pos != words.size:
        raise WireFormatError("drop-list counts disagree with the payload length")
    cols = words[is_index]
    # row-major sample numbers increase strictly iff each row's indices do
    flat = np.repeat(np.arange(m), words[~is_index]) * n + cols
    if cols.size and (cols.max() >= n or np.any(flat[1:] <= flat[:-1])):
        raise WireFormatError(f"drop indices must increase strictly and stay below {n}")
    inside = np.zeros((m, n), dtype=bool)
    inside.flat[flat] = True
    return inside


def encode_tags(tags, r: int) -> bytes:
    body = bytearray(struct.pack(">BH", r, len(tags)))
    for tag in tags:
        if tag.r != r:
            raise ProtocolError("aggregated tags must share one checking length")
        body += tag.tag
    return bytes(body)


def decode_tags(payload: bytes) -> list[validation.ValidationTag]:
    if len(payload) < 3:
        raise WireFormatError("tags payload lacks its header")
    r, count = struct.unpack_from(">BH", payload)
    nbytes = (r + 7) // 8
    expected = 3 + count * nbytes
    if len(payload) != expected:
        raise WireFormatError(
            f"tags payload for r={r}, count={count} must be {expected} bytes, "
            f"got {len(payload)}"
        )
    spare = 8 * nbytes - r
    if spare:
        last_bytes = np.frombuffer(payload, dtype=np.uint8, offset=3)[nbytes - 1 :: nbytes]
        if np.any(last_bytes & ((1 << spare) - 1)):
            raise WireFormatError(f"tags for r={r} must leave their last {spare} bits zero")
    return [
        validation.ValidationTag(r=r, tag=payload[3 + i * nbytes : 3 + (i + 1) * nbytes])
        for i in range(count)
    ]


def encode_verdict_mask(mask) -> bytes:
    mask = np.asarray(mask, dtype=np.uint8)
    return (
        bytes([VERDICT_STREAM_MASK])
        + _COUNT16.pack(mask.size)
        + np.packbits(mask).tobytes()
    )


def decode_verdict(payload: bytes):
    """Returns VERDICT_MATCH/VERDICT_MISMATCH or a per-stream boolean mask."""
    if not payload:
        raise WireFormatError("empty verdict payload")
    kind = payload[0]
    if kind in (VERDICT_MATCH, VERDICT_MISMATCH):
        if len(payload) != 1:
            raise WireFormatError("scalar verdict must be a single byte")
        return kind
    if kind == VERDICT_STREAM_MASK:
        if len(payload) < 1 + _COUNT16.size:
            raise WireFormatError("stream-mask verdict lacks its count")
        (m,) = _COUNT16.unpack_from(payload, 1)
        nbytes = (m + 7) // 8
        if len(payload) != 1 + _COUNT16.size + nbytes:
            raise WireFormatError("stream-mask verdict has the wrong mask size")
        bits = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8, offset=1 + _COUNT16.size)
        )
        if bits[m:].any():
            raise WireFormatError("stream-mask verdict has nonzero padding bits")
        return bits[:m].astype(bool)
    raise WireFormatError(f"unknown verdict kind {kind}")


def _tags(payload: bytes, count: int) -> list[validation.ValidationTag]:
    tags = decode_tags(payload)
    if len(tags) != count:
        raise ProtocolError(f"TAGS message carries {len(tags)} tags, expected {count}")
    return tags


def _peer_residues(payload: bytes, theta: int) -> tuple[np.ndarray, np.ndarray]:
    peer_theta, residues, x = recombine.decode_diff_vector(payload)
    if peer_theta != theta:
        raise ProtocolError(f"peer reduces distances modulo {peer_theta}, expected {theta}")
    return residues, x


def _stream_key(mask, streams, key_length: int) -> BitStream | None:
    """This party's key: its first matched stream that fills the key, if any."""
    for i in np.flatnonzero(mask):
        if len(streams[i]) == key_length:
            return BitStream(streams[i].bits, party=streams[i].party, stream=int(i))
    return None


def _allocation(own_distances, peer_residues, streams, params: ProtocolParams):
    """This party's pick counts from its own distances and the peer's residues."""
    degrees = recombine.difference_degree(own_distances, peer_residues, params.theta)
    lengths = np.array([len(s) for s in streams], dtype=np.int64)
    w = recombine.weights(degrees)
    return recombine.allocate(w, params.key_length, stream_lengths=lengths), lengths


def reconcile_bit_streams(
    streams_a,
    streams_b,
    params: ProtocolParams,
    link: Link | None = None,
    probe_messages: int = 0,
) -> KeyAgreementResult:
    """Reconciliation stage shared by full sessions and stream-level harnesses.

    Takes both parties' extracted (and already length-capped) streams and
    runs tag validation plus, when needed, recombination rounds over the
    given link. Each party reads the other only through decoded frames.
    """
    m = len(streams_a)
    if m == 0:
        raise ConfigError("need at least one stream")
    link = link if link is not None else Link()
    rng = np.random.default_rng(np.random.SeedSequence([params.rng_seed, 0x5EC]))
    L = params.key_length
    r = validation.checking_length(params.gamma)

    def result(key, peer, via, rounds, matched_bits):
        return KeyAgreementResult(
            key=key,
            peer_key=peer,
            matched_via=via,
            rounds_used=rounds,
            messages=list(link.transcript),
            counters=MessageCounters.from_transcript(link.transcript, probe_messages),
            matched_stream_bits=matched_bits,
        )

    # aggregated per-stream tags, one message, then one mask verdict back
    payload = encode_tags([validation.make_tag(s, r) for s in streams_a], r)
    tags_at_b = _tags(link.send(A_TO_B, MsgType.TAGS, payload), len(streams_b))
    mask_b = np.array(
        [validation.validate(tag, s, r) for tag, s in zip(tags_at_b, streams_b)], dtype=bool
    )
    mask_a = decode_verdict(link.send(B_TO_A, MsgType.VERDICT, encode_verdict_mask(mask_b)))
    if not isinstance(mask_a, np.ndarray) or mask_a.size != m:
        raise ProtocolError(f"expected a stream-mask verdict over {m} streams")

    key = _stream_key(mask_a, streams_a, L)
    if key is not None:
        peer = _stream_key(mask_b, streams_b, L)
        matched = {int(i): len(streams_a[i]) for i in np.flatnonzero(mask_a)}
        return result(key, peer, f"stream:{key.stream}", 0, matched)

    # difference-degree exchange: Alice publishes X and her residues,
    # Bob answers with his residues; each side weights the streams by its
    # own distances against the peer's residues
    x = rng.integers(0, 2, size=L, dtype=np.uint8)
    d_a = recombine.edit_distances_to_reference(streams_a, x)
    payload = recombine.encode_diff_vector(params.theta, d_a % params.theta, x)
    res_a, x_at_b = _peer_residues(
        link.send(A_TO_B, MsgType.DIFF_VECTOR, payload), params.theta
    )
    d_b = recombine.edit_distances_to_reference(streams_b, x_at_b)
    payload = recombine.encode_diff_vector(
        params.theta, d_b % params.theta, np.zeros(0, dtype=np.uint8)
    )
    res_b, _ = _peer_residues(link.send(B_TO_A, MsgType.DIFF_VECTOR, payload), params.theta)
    allocation_a, lengths_a = _allocation(d_a, res_b, streams_a, params)
    allocation_b, lengths_b = _allocation(d_b, res_a, streams_b, params)

    for round_no in range(1, params.max_rounds + 1):
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        payload = link.send(A_TO_B, MsgType.RECOMB_SEED, _SEED.pack(seed))
        if len(payload) != _SEED.size:
            raise WireFormatError(f"seed payload must be 8 bytes, got {len(payload)}")
        (seed_at_b,) = _SEED.unpack(payload)
        plan_a = recombine.plan(seed, allocation_a, lengths_a)
        plan_b = recombine.plan(seed_at_b, allocation_b, lengths_b)
        cand_a = recombine.recombine(streams_a, plan_a)
        cand_b = recombine.recombine(streams_b, plan_b)
        payload = encode_tags([validation.make_tag(cand_a, r)], r)
        (tag_at_b,) = _tags(link.send(A_TO_B, MsgType.TAGS, payload), 1)
        ok_b = validation.validate(tag_at_b, cand_b, r)
        payload = bytes([VERDICT_MATCH if ok_b else VERDICT_MISMATCH])
        verdict = decode_verdict(link.send(B_TO_A, MsgType.VERDICT, payload))
        if isinstance(verdict, np.ndarray):
            raise ProtocolError("expected a scalar round verdict, got a stream mask")
        if verdict == VERDICT_MATCH:
            picked = {int(i): int(k) for i, k in enumerate(allocation_a.picks) if k > 0}
            return result(cand_a, cand_b if ok_b else None, "recombination", round_no, picked)

    return result(None, None, None, params.max_rounds, {})


def run_key_agreement(
    traces: PairedTraceSet, params: ProtocolParams
) -> tuple[KeyAgreementResult, EveView]:
    """Full pipeline from CSI traces: quantize, exchange, validate, recombine.

    Probing itself is embodied in the traces (two messages per probe), so
    probe traffic enters the counters but not the transcript.
    """
    link = Link()
    quant_a = quantizer.quantize_matrix(traces.alice.amplitude_db, params.alpha)
    quant_b = quantizer.quantize_matrix(traces.bob.amplitude_db, params.alpha)

    # each party merges its own drop mask with the one it decodes from the peer
    payload = link.send(A_TO_B, MsgType.DROP_LIST, encode_drop_lists(quant_a.inside))
    drops_a_at_b = decode_drop_lists(payload, quant_b.inside.shape[1])
    payload = link.send(B_TO_A, MsgType.DROP_LIST, encode_drop_lists(quant_b.inside))
    drops_b_at_a = decode_drop_lists(payload, quant_a.inside.shape[1])

    streams_a = quantizer.extract_streams(
        quant_a, quant_a.inside, drops_b_at_a, traces.alice.party, params.key_length
    )
    streams_b = quantizer.extract_streams(
        quant_b, drops_a_at_b, quant_b.inside, traces.bob.party, params.key_length
    )
    if sum(len(s) for s in streams_a) < params.key_length:
        raise InsufficientBitsError(
            f"streams hold {sum(len(s) for s in streams_a)} bits, "
            f"need {params.key_length}; increase probe_count"
        )

    outcome = reconcile_bit_streams(
        streams_a,
        streams_b,
        params,
        link=link,
        probe_messages=2 * traces.n,
    )
    eve_view = EveView(
        transcript=list(link.transcript),
        trace=traces.eve,
        alpha=params.alpha,
        gamma=params.gamma,
        theta=params.theta,
        key_length=params.key_length,
    )
    return outcome, eve_view


def eve_attempt(eve_view: EveView, reference_streams=None) -> EveAttempt:
    """Eve quantizes her own trace with the public drop lists and parameters.

    Kept indices that fall strictly inside her band default to a comparison
    against her mean. When the caller supplies the true per-stream key
    material, the report carries the Pearson correlation of Eve's guesses
    against it (an evaluation artifact: Eve herself never sees the truth).
    """
    if eve_view.trace is None:
        raise ProtocolError("eavesdropper view carries no channel trace")
    drops = [m for m in eve_view.transcript if m.msg_type == MsgType.DROP_LIST]
    if len(drops) < 2:
        raise ProtocolError("transcript lacks the two drop-list messages")
    trace = eve_view.trace
    quant = quantizer.quantize_matrix(trace.amplitude_db, eve_view.alpha)
    drops_a, drops_b = (decode_drop_lists(msg.payload, trace.n) for msg in drops[:2])
    keep = quantizer.keep_mask(drops_a, drops_b, quant.inside.shape)
    # a kept sample inside her own band is a coin toss; she calls it by her mean
    guess = quant.ones | (quant.inside & (trace.amplitude_db >= quant.mu[:, None]))
    guesses = quantizer.split_streams(guess, keep, party="eve", limit=eve_view.key_length)

    correlations = None
    if reference_streams is not None:
        from .analysis import pearson

        correlations = np.full(len(guesses), np.nan)
        for i, (g, ref) in enumerate(zip(guesses, reference_streams)):
            ref_bits = quantizer._as_bits(ref)
            k = min(len(g), ref_bits.size)
            if k >= 2:
                ga = g.bits[:k].astype(float)
                rb = ref_bits[:k].astype(float)
                if ga.std() > 0 and rb.std() > 0:
                    correlations[i] = pearson(ga, rb)
    return EveAttempt(bit_streams=guesses, correlations=correlations)


def transcript_to_jsonl(transcript) -> str:
    """One JSON object per line: type, direction, length, hex payload."""
    lines = [
        json.dumps(
            {
                "type": msg.msg_type.name,
                "direction": msg.direction,
                "length": len(msg.payload),
                "payload_hex": msg.payload.hex(),
            }
        )
        for msg in transcript
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def scan_transcript_for_key(transcript, key_bits, window: int = 32) -> int:
    """Count key-substring sightings of ``window`` bits in wire payloads.

    Slides a window over every payload's bit sequence and counts hits in the
    set of the key's windows. For random payloads the expected count is
    about (payload windows) * (key windows) / 2**window, i.e. effectively
    zero; anything consistently above that betrays key leakage.
    """
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
