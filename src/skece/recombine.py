"""Weighted key recombination across subcarrier bit streams.

When every stream fails validation, the parties estimate how different each
stream pair is without revealing bits: Alice publishes a random reference
bit string X and the per-stream edit distances to X reduced modulo theta,

    d'_i      = d_i mod theta,
    dtilde_i  = |d'_a,i - d'_b,i|.

Streams that look more consistent receive larger weights

    w_i = (theta - dtilde_i) / sum_j (theta - dtilde_j),

and contribute l_i = ceil(L * w_i) bit picks (repaired so the picks sum to
exactly L). Both parties then draw the same positions from a shared public
seed and splice the picked bits into a fresh candidate key.

Every stage takes and returns plain numpy arrays: distances, then difference
degrees, weights, per-stream picks, and a (streams, positions) pick plan.
The distances come from one bit-parallel Levenshtein kernel (Myers/Hyyrö)
over 0/1 symbols that packs all streams into one Python int and advances
them together: len(X) steps, each a dozen big-int operations on a
sum(L_i)-bit word. :func:`edit_distance` is the same kernel on one stream.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ConfigError, DesyncError, InsufficientBitsError, WireFormatError
from .quantizer import BitStream, _as_bits
from .validation import CANONICAL_COUNT, canonical_bit_encoding, decode_bit_block

_DIFF_HEADER = struct.Struct(">BH")


def edit_distance(a, b) -> int:
    """Levenshtein distance between two bit sequences, unit-cost edits."""
    return int(edit_distances_to_reference([a], b)[0])


def _pack(flags: np.ndarray) -> int:
    """Boolean array to a Python int whose bit i is flags[i]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _unpack(word: int, nbits: int) -> np.ndarray:
    """Inverse of :func:`_pack` for the low ``nbits`` bits of a non-negative int."""
    raw = np.frombuffer(word.to_bytes((nbits + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=nbits, bitorder="little")


def edit_distances_to_reference(streams, reference) -> np.ndarray:
    """Levenshtein distance from each bit stream to one shared reference.

    A bit-parallel Myers/Hyyrö kernel (G. Myers, J. ACM 46(3), 1999, in the
    global-distance form of H. Hyyrö, Nordic J. Computing 10, 2003) with the
    streams as the pattern and the reference X as the text. Stream k occupies
    bits [off_k, off_k + len_k) of one Python int, followed by a guard bit
    that is 0 in Pv, Mv and both Eq words, so all streams advance together:
    the loop runs len(X) steps of a dozen big-int operations on one
    sum(len_k + 1)-bit word, whatever the number of streams. With two
    symbols there are two Eq words: eq1 holds the stream bits and
    eq0 = mask & ~eq1 their complement inside the streams.

    Pv/Mv mark where D[i][j] - D[i-1][j] is +1/-1 in the current column j.
    A carry out of a stream in the horizontal step's sum stops at its guard
    bit, which is 0 in both addends. Xh and Ph may then hold a 1 at a guard
    bit, but nothing reads it: shifted, it lands on the next stream's first
    bit, which every shifted Ph sets to 1 anyway (the global boundary
    D[0][j] = j), or on a guard bit or past the word, and the mask clears
    those bits of Pv, so Mv = Ph & Xv keeps them 0 too. After the last column,
    d_k = len(X) + popcount(Pv in stream k) - popcount(Mv in stream k).
    A symbol other than 0 or 1 raises :class:`ConfigError`.
    """
    arrays = [_as_bits(s) for s in streams]
    ref = _as_bits(reference)
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
    layout = np.zeros(total, dtype=np.uint8)
    layout[inside] = np.concatenate(arrays)
    mask, ones, eq1 = _pack(inside), _pack(first), _pack(layout)
    peq = (mask & ~eq1, eq1)

    pv, mv = mask, 0
    for v in ref.tolist():
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


def difference_degree(d_a, d_b, theta: int) -> np.ndarray:
    """Difference degrees |d_a mod theta - d_b mod theta|, each in [0, theta-1].

    Takes two parties' edit distances or their residues. This is the
    published reduction, the plain absolute difference of the two residues,
    which can overstate dissimilarity across the modulus wrap (e.g. residues
    4 and 0 for theta=5 give 4).
    """
    d_a = np.asarray(d_a, dtype=np.int64)
    d_b = np.asarray(d_b, dtype=np.int64)
    if d_a.shape != d_b.shape:
        raise ConfigError("distance vectors must have equal length")
    if theta < 2:
        raise ConfigError(f"theta must be >= 2, got {theta}")
    return np.abs(d_a % theta - d_b % theta)


def weights(d_tilde, theta: int) -> np.ndarray:
    """Per-stream weights (theta - dtilde_i) / sum_j (theta - dtilde_j)."""
    d = np.asarray(d_tilde, dtype=np.int64)
    if theta < 2:
        raise ConfigError(f"theta must be >= 2, got {theta}")
    if d.size == 0:
        raise ConfigError("cannot weight an empty stream set")
    if d.min() < 0 or d.max() > theta - 1:
        raise ConfigError("difference degrees must lie in [0, theta-1]")
    raw = (theta - d).astype(np.float64)
    return raw / raw.sum()


def allocate(w, key_length: int, stream_lengths) -> np.ndarray:
    """Per-stream pick counts that sum to exactly L and fit their streams.

    Raw counts are ceil(L * w_i); because the ceilings generically overshoot,
    the stream with the largest current picks (ties to the lowest index) is
    decremented until the total is L. No pick may exceed its stream, and
    picks removed by that cap are reassigned by the same largest-first rule
    among streams with headroom.
    """
    w = np.asarray(w, dtype=np.float64)
    if key_length < 1:
        raise ConfigError(f"key length must be >= 1, got {key_length}")
    if w.ndim != 1 or w.size == 0:
        raise ConfigError("need at least one stream weight")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ConfigError(f"weights must sum to 1, got {w.sum()!r}")
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
    np.minimum(picks, caps, out=picks)
    while picks.sum() < key_length:
        headroom = picks < caps
        masked = np.where(headroom, picks, -1)
        picks[int(np.argmax(masked))] += 1
    return picks


def plan(seed: int, picks, stream_lengths) -> tuple[np.ndarray, np.ndarray]:
    """Draw the shared (streams, positions) picks for one recombination round.

    One generator seeded by the public seed walks the streams in index
    order and takes the first l_i entries of a permutation of each stream
    with l_i > 0: l_i positions drawn uniformly without replacement. Both
    parties derive the identical plan from the seed and their own stream
    lengths. Selections are ordered by stream, then draw order.

    A permutation consumes generator output in proportion to its stream's
    length, so if the parties disagree on the length of one stream, the
    picks of every later stream differ too; the candidates then differ and
    the round's tag catches it, as it catches any other mismatch.
    """
    picks = np.asarray(picks, dtype=np.int64)
    lengths = np.asarray(stream_lengths, dtype=np.int64)
    if picks.ndim != 1 or lengths.shape != picks.shape:
        raise ConfigError("picks and stream_lengths must be vectors of equal length")
    if picks.size and picks.min() < 0:
        raise ConfigError("picks must be non-negative")
    if np.any(picks > lengths):
        bad = int(np.flatnonzero(picks > lengths)[0])
        raise ConfigError(
            f"stream {bad} provides {lengths[bad]} bits but {picks[bad]} picks were allocated"
        )
    counts = picks.tolist()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    positions = [rng.permutation(n)[:k] for n, k in zip(lengths.tolist(), counts) if k]
    return (
        np.repeat(np.arange(len(counts)), counts),
        np.concatenate(positions) if positions else np.zeros(0, dtype=np.int64),
    )


def recombine(streams, rec_plan) -> BitStream:
    """Splice a ``(streams, positions)`` plan's picks from this party's streams."""
    arrays = [_as_bits(s) for s in streams]
    picked, pos = (np.asarray(a, dtype=np.int64) for a in rec_plan)
    if picked.shape != pos.shape:
        raise ConfigError("plan streams and positions must have equal length")
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
    return BitStream(out)


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
    if len(payload) < off + m:
        raise WireFormatError("diff vector truncated inside the residue block")
    d = np.frombuffer(payload, dtype=np.uint8, count=m, offset=off).astype(np.int64)
    if d.size and d.max() >= theta:
        raise WireFormatError(f"diff vector residues must lie in [0, {theta})")
    bits, end = decode_bit_block(payload, off + m, CANONICAL_COUNT)
    if end != len(payload):
        raise WireFormatError("diff vector has bytes after its X block")
    return theta, d, bits
