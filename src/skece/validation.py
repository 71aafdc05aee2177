"""Leakage-resilient consistency validation via truncated SHA-1 digests.

Instead of revealing bits, each party publishes the first ``r`` bits of a
SHA-1 digest of its candidate stream. By the avalanche property, unequal
streams produce tags that agree with probability about 2**-r, so

    r = ceil(log2(1 / (1 - gamma)))

bits suffice to detect a mismatch with probability at least ``gamma``.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError
from .quantizer import _as_bits

MAX_TAG_BITS = 160  # SHA-1 digest length

_LEN_HEADER = struct.Struct(">Q")


@dataclass(frozen=True)
class ValidationTag:
    """First ``r`` bits of the SHA-1 digest of a stream's canonical encoding."""

    r: int
    tag: bytes

    def __post_init__(self):
        if not 1 <= self.r <= MAX_TAG_BITS:
            raise ConfigError(f"r must be in [1, {MAX_TAG_BITS}], got {self.r}")
        if len(self.tag) != (self.r + 7) // 8:
            raise ConfigError(
                f"tag must hold exactly {(self.r + 7) // 8} bytes for r={self.r}"
            )


def checking_length(gamma: float) -> int:
    """Smallest r with 1 - (1/2)**r >= gamma."""
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"gamma must lie strictly in (0, 1), got {gamma}")
    r = max(1, math.ceil(math.log2(1.0 / (1.0 - gamma))))
    # guard the ceil against floating-point edges
    while 1.0 - 0.5**r < gamma:
        r += 1
    while r > 1 and 1.0 - 0.5 ** (r - 1) >= gamma:
        r -= 1
    if r > MAX_TAG_BITS:
        raise ConfigError(f"gamma={gamma} needs r={r} > {MAX_TAG_BITS} digest bits")
    return r


def canonical_bit_encoding(bits) -> bytes:
    """Length-prefixed byte encoding of a bit sequence.

    8-byte big-endian bit count, then the bits packed MSB-first with the
    final partial byte zero-padded. The length prefix keeps streams of
    different lengths from colliding trivially.
    """
    bits = _as_bits(bits)
    return _LEN_HEADER.pack(bits.size) + np.packbits(bits).tobytes()


def sha1_digest(data: bytes) -> bytes:
    """Plain SHA-1 of raw bytes (no canonical encoding applied)."""
    return hashlib.sha1(data).digest()


def make_tags(streams, r: int) -> list[bytes]:
    """Tag every stream at once: leading ``r`` bits of SHA-1 over each canonical encoding.

    Returns each stream's tag as the bytes a :class:`ValidationTag` holds.
    The streams' bits go into one zero-filled matrix, a row per stream and
    a whole number of bytes wide, which one ``np.packbits`` packs MSB-first.
    Row i's first ceil(len_i / 8) bytes behind its 8-byte length header are
    the stream's :func:`canonical_bit_encoding`, hashed with one SHA-1 each.
    The matrix is as wide as the longest stream.
    """
    if not 1 <= r <= MAX_TAG_BITS:
        raise ConfigError(f"r must be in [1, {MAX_TAG_BITS}], got {r}")
    rows = [_as_bits(s) for s in streams]
    lengths = [row.size for row in rows]
    width = -(-max(lengths, default=0) // 8)
    padded = np.zeros((len(rows), 8 * width), dtype=np.uint8)
    if rows:
        padded[np.arange(8 * width) < np.array(lengths)[:, None]] = np.concatenate(rows)
    packed = np.packbits(padded, axis=1).tobytes()
    nbytes = (r + 7) // 8
    # zero the unused trailing bits of each tag's last byte
    last = 0xFF & (0xFF << (8 * nbytes - r))
    tags = []
    for i, n in enumerate(lengths):
        start = i * width
        digest = sha1_digest(_LEN_HEADER.pack(n) + packed[start : start + (n + 7) // 8])
        tags.append(digest[: nbytes - 1] + bytes((digest[nbytes - 1] & last,)))
    return tags


def make_tag(bits, r: int) -> ValidationTag:
    """Tag a bit stream: :func:`make_tags` of that one stream."""
    return ValidationTag(r=r, tag=make_tags([bits], r)[0])


def validate(tag_remote: ValidationTag, bits_local, r: int) -> bool:
    """True when the locally recomputed tag equals the remote one.

    Unequal streams can still collide with probability about 2**-r; that is
    the accepted residual of the truncation.
    """
    if tag_remote.r != r:
        raise ProtocolError(
            f"checking-length disagreement: remote r={tag_remote.r}, local r={r}"
        )
    return make_tag(bits_local, r).tag == tag_remote.tag
