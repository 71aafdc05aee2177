"""Weighted key recombination across subcarrier bit streams.

When every stream fails validation, the parties estimate how different each
stream pair is without revealing bits: Alice publishes a random reference
string X and the per-stream edit distances to X reduced modulo theta,

    d'_i      = d_i mod theta,
    dtilde_i  = |d'_a,i - d'_b,i|.

Streams that look more consistent receive larger weights

    w_i = (theta - dtilde_i) / sum_j (theta - dtilde_j),

and contribute l_i = ceil(L * w_i) bit picks (repaired so the picks sum to
exactly L). Both parties then draw the same positions from a shared public
seed and splice the picked bits into a fresh candidate key.

The distances d_i come from one bit-parallel Levenshtein kernel
(Myers/Hyyrö) that packs all streams into one Python int and advances them
together: len(X) steps, each a dozen big-int operations on a sum(L_i)-bit
word. :func:`edit_distance` is the same kernel on a single stream.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DesyncError, InsufficientBitsError, WireFormatError
from .quantizer import BitStream, _as_bits
from .validation import canonical_bit_encoding

_DIFF_HEADER = struct.Struct(">BH")
_LEN_HEADER = struct.Struct(">Q")

WEIGHT_SUM_TOL = 1e-12


def _as_symbols(x) -> np.ndarray:
    """Coerce a string, BitStream or sequence into a 1-D comparison array."""
    if isinstance(x, BitStream):
        return x.bits
    if isinstance(x, str):
        # one symbol per code point, not per UTF-8 byte
        return np.frombuffer(x.encode("utf-32-le"), dtype="<u4")
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ConfigError("edit distance operands must be one-dimensional")
    return arr


def edit_distance(a, b) -> int:
    """Levenshtein distance with unit-cost insert, delete and substitute."""
    return int(edit_distances_to_reference([a], b)[0])


def _pack(flags: np.ndarray) -> int:
    """Boolean array to a Python int whose bit i is flags[i]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _unpack(word: int, nbits: int) -> np.ndarray:
    """Inverse of :func:`_pack` for the low ``nbits`` bits of a non-negative int."""
    raw = np.frombuffer(word.to_bytes((nbits + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=nbits, bitorder="little")


def edit_distances_to_reference(streams, reference) -> np.ndarray:
    """Levenshtein distance from each stream to one shared reference string.

    A bit-parallel Myers/Hyyrö kernel (G. Myers, J. ACM 46(3), 1999, in the
    global-distance form of H. Hyyrö, Nordic J. Computing 10, 2003) with the
    streams as the pattern and the reference X as the text. Stream k occupies
    bits [off_k, off_k + len_k) of one Python int, followed by a guard bit
    that is 0 in Pv, Mv and every Eq, so all streams advance together: the
    loop runs len(X) steps of a dozen big-int operations on one
    sum(len_k + 1)-bit word, whatever the number of streams.

    Pv/Mv mark where D[i][j] - D[i-1][j] is +1/-1 in the current column j.
    A carry out of a stream in the horizontal step's sum stops at its guard
    bit, which is 0 in both addends. Xh and Ph may then hold a 1 at a guard
    bit, but nothing reads it: shifted, it lands on the next stream's first
    bit, which every shifted Ph sets to 1 anyway (the global boundary
    D[0][j] = j), or on a guard bit or past the word, and the mask clears
    those bits of Pv, so Mv = Ph & Xv keeps them 0 too. After the last column,
    d_k = len(X) + popcount(Pv in stream k) - popcount(Mv in stream k).
    A stream symbol that does not occur in X matches nothing.
    """
    arrays = [_as_symbols(s) for s in streams]
    ref = _as_symbols(reference)
    if not arrays:
        return np.zeros(0, dtype=np.int64)
    lengths = np.array([a.size for a in arrays], dtype=np.int64)
    ends = np.cumsum(lengths + 1) - 1
    starts = ends - lengths
    total = int(ends[-1]) + 1
    inside = np.ones(total, dtype=bool)
    inside[ends] = False
    first = np.zeros(total, dtype=bool)
    first[starts[lengths > 0]] = True
    mask, ones = _pack(inside), _pack(first)

    # one code per distinct symbol of X and the streams; guard bits get -1
    _, inverse = np.unique(np.concatenate([ref, *arrays]), return_inverse=True)
    ref_codes = inverse[: ref.size].tolist()
    layout = np.full(total, -1, dtype=np.int64)
    layout[inside] = inverse[ref.size :]
    peq = {v: _pack(layout == v) for v in set(ref_codes)}

    pv, mv = mask, 0
    for v in ref_codes:
        eq = peq[v]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (mask ^ (xh | pv))
        mh = pv & xh
        ph = (ph << 1) | ones
        mh <<= 1
        pv = ((mask ^ (xv | ph)) | mh) & mask
        mv = ph & xv

    up = np.concatenate(([0], np.cumsum(_unpack(pv, total), dtype=np.int64)))
    down = np.concatenate(([0], np.cumsum(_unpack(mv, total), dtype=np.int64)))
    return ref.size + (up[ends] - up[starts]) - (down[ends] - down[starts])


@dataclass(frozen=True)
class DiffDegrees:
    """Per-stream difference degrees |d'_a - d'_b|, each in [0, theta-1]."""

    d_tilde: np.ndarray
    theta: int

    def __post_init__(self):
        d = np.asarray(self.d_tilde, dtype=np.int64)
        if self.theta < 2:
            raise ConfigError(f"theta must be >= 2, got {self.theta}")
        if d.size and (d.min() < 0 or d.max() > self.theta - 1):
            raise ConfigError("difference degrees must lie in [0, theta-1]")
        d.setflags(write=False)
        object.__setattr__(self, "d_tilde", d)


def difference_degree(d_a, d_b, theta: int) -> DiffDegrees:
    """Difference degrees from two parties' edit distances or their residues.

    This is the published reduction, the plain absolute difference of the
    two residues, which can overstate dissimilarity across the modulus wrap
    (e.g. residues 4 and 0 for theta=5 give 4).
    """
    d_a = np.asarray(d_a, dtype=np.int64)
    d_b = np.asarray(d_b, dtype=np.int64)
    if d_a.shape != d_b.shape:
        raise ConfigError("distance vectors must have equal length")
    if theta < 2:
        raise ConfigError(f"theta must be >= 2, got {theta}")
    return DiffDegrees(d_tilde=np.abs(d_a % theta - d_b % theta), theta=theta)


def weights(dd: DiffDegrees) -> np.ndarray:
    """Per-stream weights (theta - dtilde_i) / sum_j (theta - dtilde_j)."""
    if dd.d_tilde.size == 0:
        raise ConfigError("cannot weight an empty stream set")
    raw = (dd.theta - dd.d_tilde).astype(np.float64)
    return raw / raw.sum()


@dataclass(frozen=True)
class Allocation:
    """How many bits each stream contributes to an L-bit candidate key."""

    weights: np.ndarray
    picks: np.ndarray
    key_length: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        p = np.asarray(self.picks, dtype=np.int64)
        if w.shape != p.shape:
            raise ConfigError("weights and picks must have equal length")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(f"weights must sum to 1, got {w.sum()!r}")
        if p.size and p.min() < 0:
            raise ConfigError("picks must be non-negative")
        if int(p.sum()) != self.key_length:
            raise ConfigError(
                f"picks sum to {int(p.sum())}, expected key length {self.key_length}"
            )
        w.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "picks", p)


def allocate(w, key_length: int, stream_lengths=None) -> Allocation:
    """Turn weights into per-stream pick counts summing to exactly L.

    Raw counts are ceil(L * w_i); because the ceilings generically overshoot,
    the stream with the largest current picks (ties to the lowest index) is
    decremented until the total is L. When stream lengths are supplied, no
    pick may exceed its stream, and picks removed by that cap are reassigned
    by the same largest-first rule among streams with headroom.
    """
    w = np.asarray(w, dtype=np.float64)
    if key_length < 1:
        raise ConfigError(f"key length must be >= 1, got {key_length}")
    if w.ndim != 1 or w.size == 0:
        raise ConfigError("need at least one stream weight")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ConfigError(f"weights must sum to 1, got {w.sum()!r}")
    caps = None
    if stream_lengths is not None:
        caps = np.asarray(stream_lengths, dtype=np.int64)
        if caps.shape != w.shape:
            raise ConfigError("stream_lengths must match the weight vector")
        if caps.min() < 0:
            raise ConfigError("stream lengths must be non-negative")
        if int(caps.sum()) < key_length:
            raise InsufficientBitsError(
                f"streams hold {int(caps.sum())} bits in total, "
                f"cannot pick a {key_length}-bit key"
            )

    picks = np.array([math.ceil(key_length * wi) for wi in w], dtype=np.int64)
    while picks.sum() > key_length:
        picks[int(np.argmax(picks))] -= 1
    if caps is not None:
        np.minimum(picks, caps, out=picks)
        while picks.sum() < key_length:
            headroom = picks < caps
            masked = np.where(headroom, picks, -1)
            picks[int(np.argmax(masked))] += 1
    return Allocation(weights=w, picks=picks, key_length=key_length)


@dataclass(frozen=True)
class RecombinationPlan:
    """Deterministic (stream, position) picks shared by both parties."""

    seed: int
    streams: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.streams, dtype=np.int64)
        p = np.asarray(self.positions, dtype=np.int64)
        if s.shape != p.shape:
            raise ConfigError("streams and positions must have equal length")
        s.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "streams", s)
        object.__setattr__(self, "positions", p)

    def __len__(self) -> int:
        return int(self.streams.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecombinationPlan):
            return NotImplemented
        return (
            self.seed == other.seed
            and np.array_equal(self.streams, other.streams)
            and np.array_equal(self.positions, other.positions)
        )

    def __hash__(self):
        return hash((self.seed, self.streams.tobytes(), self.positions.tobytes()))


def plan(seed: int, allocation: Allocation, stream_lengths) -> RecombinationPlan:
    """Draw the shared pick positions for one recombination round.

    Positions are drawn without replacement per stream from a PRNG seeded by
    (seed, stream index), so both parties derive the identical plan from the
    public seed alone. Selections are ordered by stream, then draw order.
    """
    lengths = np.asarray(stream_lengths, dtype=np.int64)
    if lengths.shape != allocation.picks.shape:
        raise ConfigError("stream_lengths must match the allocation")
    if np.any(allocation.picks > lengths):
        bad = int(np.flatnonzero(allocation.picks > lengths)[0])
        raise ConfigError(
            f"stream {bad} provides {lengths[bad]} bits but "
            f"{allocation.picks[bad]} picks were allocated"
        )
    picks = allocation.picks.tolist()
    positions = [
        np.random.default_rng(np.random.SeedSequence([seed, i])).permutation(lengths[i])[:k]
        for i, k in enumerate(picks)
        if k
    ]
    return RecombinationPlan(
        seed=seed,
        streams=np.repeat(np.arange(len(picks)), picks),
        positions=np.concatenate(positions) if positions else np.zeros(0, dtype=np.int64),
    )


def recombine(streams, rec_plan: RecombinationPlan) -> BitStream:
    """Splice the planned picks from this party's streams into one stream."""
    arrays = [_as_bits(s) for s in streams]
    picked, pos = rec_plan.streams, rec_plan.positions
    unknown = (picked < 0) | (picked >= len(arrays))
    if unknown.any():
        raise DesyncError(f"plan references unknown stream {picked[unknown][0]}")
    sizes = np.array([a.size for a in arrays], dtype=np.int64)
    outside = (pos < 0) | (pos >= sizes[picked])
    if outside.any():
        j = np.flatnonzero(outside)[0]
        raise DesyncError(
            f"plan position {pos[j]} exceeds stream {picked[j]} of length {sizes[picked[j]]}"
        )
    starts = np.cumsum(sizes) - sizes
    out = np.concatenate(arrays)[starts[picked] + pos] if arrays else np.zeros(0, np.uint8)
    parties = {s.party for s in streams if isinstance(s, BitStream)}
    party = parties.pop() if len(parties) == 1 else None
    return BitStream(out, party=party, stream=None)


def success_probability(d_hat, picks, key_length: int, rounds: int) -> float:
    """Chance of producing a fully matched candidate within ``rounds`` rounds.

    Per stream the product runs over t = 0..l_i (l_i + 1 factors, the
    conservative literal reading), each factor clamped at zero:

        Pr_i = prod_t max(0, 1 - d_i / (L - t)).

    The overall probability is 1 - (1 - prod_i Pr_i) ** rounds.
    """
    d_hat = np.asarray(d_hat, dtype=np.int64)
    picks = np.asarray(picks, dtype=np.int64)
    if d_hat.shape != picks.shape:
        raise ConfigError("d_hat and picks must have equal length")
    if key_length < 1:
        raise ConfigError(f"key length must be >= 1, got {key_length}")
    if rounds < 0:
        raise ConfigError(f"rounds must be >= 0, got {rounds}")
    if d_hat.size and (d_hat.min() < 0 or d_hat.max() > key_length):
        raise ConfigError("mismatch counts must lie in [0, key length]")
    if picks.size and picks.min() < 0:
        raise ConfigError("picks must be non-negative")
    if picks.size and picks.max() >= key_length:
        raise ConfigError(
            f"degenerate input: picks up to {int(picks.max())} reach the key "
            f"length {key_length}, making a product denominator non-positive"
        )
    per_round = 1.0
    for d, l in zip(d_hat, picks):
        t = np.arange(int(l) + 1)
        factors = np.maximum(0.0, 1.0 - d / (key_length - t))
        per_round *= float(np.prod(factors))
    overall = 1.0 - (1.0 - per_round) ** rounds
    return float(min(1.0, max(0.0, overall)))


def encode_diff_vector(theta: int, d_mod, x_bits) -> bytes:
    """DIFF_VECTOR payload: theta, m, m residues, then X length-prefixed."""
    d = np.asarray(d_mod, dtype=np.int64)
    if not 2 <= theta <= 0xFF:
        raise WireFormatError(f"theta must fit one byte and be >= 2, got {theta}")
    if d.size > 0xFFFF:
        raise WireFormatError(f"too many streams for the wire format: {d.size}")
    if d.size and (d.min() < 0 or d.max() >= theta):
        raise WireFormatError("residues must lie in [0, theta)")
    return (
        _DIFF_HEADER.pack(theta, d.size)
        + d.astype(np.uint8).tobytes()
        + canonical_bit_encoding(x_bits)
    )


def decode_diff_vector(payload: bytes) -> tuple[int, np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_diff_vector`: (theta, residues, X bits)."""
    if len(payload) < _DIFF_HEADER.size:
        raise WireFormatError(
            f"diff vector needs {_DIFF_HEADER.size} header bytes, got {len(payload)}"
        )
    theta, m = _DIFF_HEADER.unpack_from(payload)
    if theta < 2:
        raise WireFormatError(f"diff vector theta must be >= 2, got {theta}")
    off = _DIFF_HEADER.size
    if len(payload) < off + m + _LEN_HEADER.size:
        raise WireFormatError("diff vector truncated inside the residue block")
    d = np.frombuffer(payload, dtype=np.uint8, count=m, offset=off).astype(np.int64)
    if d.size and d.max() >= theta:
        raise WireFormatError(f"diff vector residues must lie in [0, {theta})")
    off += m
    (nbits,) = _LEN_HEADER.unpack_from(payload, off)
    off += _LEN_HEADER.size
    nbytes = (nbits + 7) // 8
    if len(payload) != off + nbytes:
        raise WireFormatError(
            f"diff vector X block expects {nbytes} bytes, got {len(payload) - off}"
        )
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8, offset=off))
    if bits[nbits:].any():
        raise WireFormatError("diff vector X block has nonzero padding bits")
    return theta, d, bits[:nbits]
