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
    check_integer,
    check_real,
)
from .quantizer import BitStream

A_TO_B = "A->B"
B_TO_A = "B->A"

_FRAME = struct.Struct(">BI")
_SEED = struct.Struct(">Q")
_COUNT16 = struct.Struct(">H")
_WORD = struct.Struct(">I")

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
    """Message and byte totals of one session's transcript."""

    total_messages: int
    total_bytes: int

    @classmethod
    def from_transcript(cls, transcript):
        return cls(
            total_messages=len(transcript),
            total_bytes=sum(msg.wire_length for msg in transcript),
        )


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
        check_integer("key_length", self.key_length, 1)
        check_integer("max_rounds", self.max_rounds, 0)
        # a DIFF_VECTOR frame carries theta in one byte
        check_integer("theta", self.theta, 2, 0xFF)
        check_integer("rng_seed", self.rng_seed, 0)
        check_real("alpha", self.alpha, 0)
        check_real("gamma", self.gamma, 0, 1, low_open=True, high_open=True)


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
    key_length: int


def _check_stream_count(m: int) -> None:
    """A frame counts its streams in 2 bytes."""
    if m > 0xFFFF:
        raise WireFormatError(f"too many streams for the wire format: {m}")


def encode_drop_lists(inside) -> bytes:
    """DROP_LIST payload of an (m, n) drop mask: m, then per row a count and indices.

    m is 2 bytes; counts and indices are 4-byte words, all big-endian.
    """
    inside = np.asarray(inside, dtype=bool)
    m, n = inside.shape
    _check_stream_count(m)
    counts = inside.sum(axis=1)
    # row-major sample numbers modulo n are the column indices, row by row;
    # each row's count goes in front of that row's indices
    words = np.insert(np.flatnonzero(inside) % n, np.cumsum(counts) - counts, counts)
    return _COUNT16.pack(m) + words.astype(">u4").tobytes()


def decode_drop_lists(payload: bytes, n: int) -> np.ndarray:
    """Inverse of :func:`encode_drop_lists`: the (m, n) mask of streams of ``n`` samples."""
    if len(payload) < _COUNT16.size:
        raise WireFormatError("drop-list payload lacks the stream count")
    (m,) = _COUNT16.unpack_from(payload)
    # every stream carries at least its 4-byte count, which bounds m before allocating
    body = len(payload) - _COUNT16.size
    if body < 4 * m or body % 4:
        raise WireFormatError(f"{len(payload)}-byte drop-list payload cannot hold {m} streams")
    size = body // 4
    # each count says how many index words follow it, up to the next count
    at, counts = [], []
    pos = 0
    for _ in range(m):
        if pos >= size:
            raise WireFormatError("drop-list payload truncated at a count")
        (count,) = _WORD.unpack_from(payload, _COUNT16.size + 4 * pos)
        at.append(pos)
        counts.append(count)
        pos += 1 + count
    if pos != size:
        raise WireFormatError("drop-list counts disagree with the payload length")
    is_index = np.ones(size, dtype=bool)
    is_index[at] = False
    cols = np.frombuffer(payload, dtype=">u4", offset=_COUNT16.size)[is_index].astype(np.int64)
    # row-major sample numbers increase strictly iff each row's indices do
    flat = np.repeat(np.arange(m, dtype=np.int64) * n, counts) + cols
    if cols.size and (cols.max() >= n or np.any(flat[1:] <= flat[:-1])):
        raise WireFormatError(f"drop indices must increase strictly and stay below {n}")
    inside = np.zeros(m * n, dtype=bool)
    inside[flat] = True
    return inside.reshape(m, n)


def encode_tags(tags, r: int) -> bytes:
    """TAGS payload: r, the tag count, then each tag's (r + 7) // 8 bytes.

    ``tags`` holds the tags' bytes, as :func:`validation.make_tags` returns
    them or ``ValidationTag.tag`` holds them.
    """
    nbytes = (r + 7) // 8
    if any(len(tag) != nbytes for tag in tags):
        raise ProtocolError(f"aggregated tags must each hold {nbytes} bytes for r={r}")
    _check_stream_count(len(tags))
    return struct.pack(">BH", r, len(tags)) + b"".join(tags)


def decode_tags(payload: bytes) -> tuple[int, list[bytes]]:
    """Inverse of :func:`encode_tags`: the checking length r and each tag's bytes."""
    if len(payload) < 3:
        raise WireFormatError("tags payload lacks its header")
    r, count = struct.unpack_from(">BH", payload)
    if not 1 <= r <= validation.MAX_TAG_BITS:
        raise WireFormatError(f"tags payload has r={r}, outside [1, {validation.MAX_TAG_BITS}]")
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
    return r, [payload[k : k + nbytes] for k in range(3, expected, nbytes)]


def encode_verdict_mask(mask) -> bytes:
    _check_stream_count(len(mask))
    return bytes([VERDICT_STREAM_MASK]) + validation.encode_bit_block(mask, _COUNT16)


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
        bits, end = validation.decode_bit_block(payload, 1, _COUNT16)
        if end != len(payload):
            raise WireFormatError("stream-mask verdict has bytes after its mask")
        return bits.astype(bool)
    raise WireFormatError(f"unknown verdict kind {kind}")


def _tags(payload: bytes, count: int, r: int) -> list[bytes]:
    r_remote, tags = decode_tags(payload)
    if len(tags) != count:
        raise ProtocolError(f"TAGS message carries {len(tags)} tags, expected {count}")
    if r_remote != r:
        raise ProtocolError(f"checking-length disagreement: remote r={r_remote}, local r={r}")
    return tags


def _peer_residues(payload: bytes, theta: int) -> tuple[np.ndarray, np.ndarray]:
    peer_theta, residues, x = recombine.decode_diff_vector(payload)
    if peer_theta != theta:
        raise ProtocolError(f"peer reduces distances modulo {peer_theta}, expected {theta}")
    return residues, x


def _stream_key(mask, streams, key_length: int) -> tuple[BitStream | None, int | None]:
    """This party's key and its stream index: its first matched stream that fills the key."""
    for i in np.flatnonzero(mask):
        bits = quantizer._as_bits(streams[i])
        if bits.size == key_length:
            return BitStream(bits), int(i)
    return None, None


def _allocation(own_distances, peer_residues, streams, params: ProtocolParams):
    """This party's pick counts from its own distances and the peer's residues."""
    d_tilde = recombine.difference_degree(own_distances, peer_residues, params.theta)
    lengths = np.array([len(s) for s in streams], dtype=np.int64)
    w = recombine.weights(d_tilde, params.theta)
    return recombine.allocate(w, params.key_length, lengths), lengths


def reconcile_bit_streams(
    streams_a,
    streams_b,
    params: ProtocolParams,
    link: Link | None = None,
) -> KeyAgreementResult:
    """Reconciliation stage shared by full sessions and stream-level harnesses.

    Takes both parties' extracted (and already length-capped) streams, each
    a :class:`BitStream` or any 0/1 sequence whose index is its position,
    and runs tag validation plus, when needed, recombination rounds over the
    given link. Each party reads the other only through decoded frames and
    decides from its own checks; where the two decisions diverge, the
    session raises :class:`ProtocolError`.
    """
    m = len(streams_a)
    if m == 0:
        raise ConfigError("need at least one stream")
    _check_stream_count(m)
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
            counters=MessageCounters.from_transcript(link.transcript),
            matched_stream_bits=matched_bits,
        )

    # aggregated per-stream tags, one message, then one mask verdict back
    payload = encode_tags(validation.make_tags(streams_a, r), r)
    tags_at_b = _tags(link.send(A_TO_B, MsgType.TAGS, payload), len(streams_b), r)
    own_b = validation.make_tags(streams_b, r)
    mask_b = np.array([a == b for a, b in zip(tags_at_b, own_b)], dtype=bool)
    mask_a = decode_verdict(link.send(B_TO_A, MsgType.VERDICT, encode_verdict_mask(mask_b)))
    if not isinstance(mask_a, np.ndarray) or mask_a.size != m:
        raise ProtocolError(f"expected a stream-mask verdict over {m} streams")

    # each party keys on its own verdict: Alice on the mask she decodes, Bob on his own
    key, i_a = _stream_key(mask_a, streams_a, L)
    peer, i_b = _stream_key(mask_b, streams_b, L)
    if key is not None:
        if i_b != i_a:
            held = "no stream key" if peer is None else f"stream {i_b}"
            raise ProtocolError(f"Alice keys on stream {i_a}, but Bob's own check gives {held}")
        matched = {int(i): len(streams_a[i]) for i in np.flatnonzero(mask_a)}
        return result(key, peer, f"stream:{i_a}", 0, matched)
    if peer is not None:
        raise ProtocolError(f"Bob keys on stream {i_b}, but Alice decodes no stream key")

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
    picks_a, lengths_a = _allocation(d_a, res_b, streams_a, params)
    picks_b, lengths_b = _allocation(d_b, res_a, streams_b, params)

    for round_no in range(1, params.max_rounds + 1):
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        payload = link.send(A_TO_B, MsgType.RECOMB_SEED, _SEED.pack(seed))
        if len(payload) != _SEED.size:
            raise WireFormatError(f"seed payload must be 8 bytes, got {len(payload)}")
        (seed_at_b,) = _SEED.unpack(payload)
        plan_a = recombine.plan(seed, picks_a, lengths_a)
        plan_b = recombine.plan(seed_at_b, picks_b, lengths_b)
        cand_a = recombine.recombine(streams_a, plan_a)
        cand_b = recombine.recombine(streams_b, plan_b)
        payload = encode_tags([validation.make_tag(cand_a, r).tag], r)
        (tag_at_b,) = _tags(link.send(A_TO_B, MsgType.TAGS, payload), 1, r)
        ok_b = validation.validate(validation.ValidationTag(r=r, tag=tag_at_b), cand_b, r)
        payload = bytes([VERDICT_MATCH if ok_b else VERDICT_MISMATCH])
        verdict = decode_verdict(link.send(B_TO_A, MsgType.VERDICT, payload))
        if isinstance(verdict, np.ndarray):
            raise ProtocolError("expected a scalar round verdict, got a stream mask")
        if ok_b and verdict != VERDICT_MATCH:
            raise ProtocolError(f"Bob accepts round {round_no}, but Alice decodes a mismatch")
        if verdict == VERDICT_MATCH and not ok_b:
            raise ProtocolError(f"Bob rejects round {round_no}, but Alice decodes a match")
        if ok_b:
            picked = {int(i): int(k) for i, k in enumerate(picks_a) if k > 0}
            return result(cand_a, cand_b, "recombination", round_no, picked)

    return result(None, None, None, params.max_rounds, {})


def exchange_drop_lists(traces: PairedTraceSet, params: ProtocolParams, link: Link):
    """Quantize both traces and swap their DROP_LIST frames over ``link``.

    Each party merges its own drop mask with the one it decodes from the
    peer's frame. Returns both parties' streams, capped at the key length.
    """
    quant_a = quantizer.quantize_matrix(traces.alice.amplitude_db, params.alpha)
    quant_b = quantizer.quantize_matrix(traces.bob.amplitude_db, params.alpha)
    payload = link.send(A_TO_B, MsgType.DROP_LIST, encode_drop_lists(quant_a.inside))
    drops_a_at_b = decode_drop_lists(payload, quant_b.inside.shape[1])
    payload = link.send(B_TO_A, MsgType.DROP_LIST, encode_drop_lists(quant_b.inside))
    drops_b_at_a = decode_drop_lists(payload, quant_a.inside.shape[1])
    return (
        quantizer.extract_streams(quant_a, quant_a.inside, drops_b_at_a, params.key_length),
        quantizer.extract_streams(quant_b, drops_a_at_b, quant_b.inside, params.key_length),
    )


def run_key_agreement(
    traces: PairedTraceSet, params: ProtocolParams
) -> tuple[KeyAgreementResult, EveView]:
    """Full pipeline from CSI traces: quantize, exchange, validate, recombine.

    Probing itself is embodied in the traces, so probe traffic enters
    neither the transcript nor the counters.
    """
    link = Link()
    streams_a, streams_b = exchange_drop_lists(traces, params, link)
    if sum(len(s) for s in streams_a) < params.key_length:
        raise InsufficientBitsError(
            f"streams hold {sum(len(s) for s in streams_a)} bits, "
            f"need {params.key_length}; increase probe_count"
        )

    outcome = reconcile_bit_streams(streams_a, streams_b, params, link=link)
    eve_view = EveView(
        transcript=list(link.transcript),
        trace=traces.eve,
        alpha=params.alpha,
        key_length=params.key_length,
    )
    return outcome, eve_view


def eve_attempt(eve_view: EveView) -> list[BitStream]:
    """Eve's per-stream bit guesses from her own trace and the public drop lists.

    Kept indices that fall strictly inside her band default to a comparison
    against her mean. Scoring the guesses needs the parties' bits, which
    Eve never sees; :func:`experiments.eve_independence` does that.
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
    return quantizer.split_streams(guess, keep, eve_view.key_length)


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


def _bit_windows(packed: np.ndarray, nbits: int, window: int) -> np.ndarray:
    """Every ``window``-bit substring of the first ``nbits`` bits of ``packed``, as integers.

    Each byte offset reads the bytes that any window starting in that byte
    spans into one big-endian word; the eight windows starting there are
    eight shifts of that word.
    """
    nbytes = (window + 14) // 8
    padded = np.concatenate([packed, np.zeros(nbytes - 1, dtype=np.uint8)]).astype(np.uint64)
    words = np.zeros(packed.size, dtype=np.uint64)
    for j in range(nbytes):
        words = (words << np.uint64(8)) | padded[j : j + packed.size]
    shifts = np.arange(8 * nbytes - window, 8 * nbytes - window - 8, -1).astype(np.uint64)
    windows = (words[:, None] >> shifts) & np.uint64((1 << window) - 1)
    return windows.ravel()[: nbits - window + 1]


def scan_transcript_for_key(transcript, key_bits, window: int = 32) -> int:
    """Count key-substring sightings of ``window`` bits in wire payloads.

    Slides a window over every payload's bit sequence and counts hits in the
    set of the key's windows. For random payloads the expected count is
    about (payload windows) * (key windows) / 2**window, i.e. effectively
    zero; anything consistently above that betrays key leakage.
    """
    key = quantizer._as_bits(key_bits)
    # a window and its offset within a byte must fit one 64-bit word
    if not 1 <= window <= 57:
        raise ConfigError(f"window must lie in [1, 57], got {window}")
    if key.size < window:
        return 0
    key_windows = np.unique(_bit_windows(np.packbits(key), key.size, window))
    hits = 0
    for msg in transcript:
        nbits = 8 * len(msg.payload)
        if nbits < window:
            continue
        vals = _bit_windows(np.frombuffer(msg.payload, dtype=np.uint8), nbits, window)
        at = np.minimum(np.searchsorted(key_windows, vals), key_windows.size - 1)
        hits += int(np.count_nonzero(key_windows[at] == vals))
    return hits
