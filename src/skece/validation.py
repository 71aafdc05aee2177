"""Leakage-resilient consistency validation via truncated SHA-1 digests.

Instead of revealing bits, each party publishes the first ``r`` bits of a
SHA-1 digest of its candidate stream. By the avalanche property, unequal
streams produce tags that agree with probability about 2**-r, so

    r = ceil(log2(1 / (1 - gamma)))

bits suffice to detect a mismatch with probability at least ``gamma``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError, WireFormatError
from .quantizer import _as_bits

MAX_TAG_BITS = 160  # SHA-1 digest length

# the bit count that leads a canonical encoding
CANONICAL_COUNT = struct.Struct(">Q")


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
    """Smallest r with 1 - (1/2)**r >= gamma: at most 53, as no float below 1 exceeds 1 - 2**-53."""
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"gamma must lie strictly in (0, 1), got {gamma}")
    r = 1
    while 1.0 - 0.5**r < gamma:
        r += 1
    return r


def encode_bit_block(bits, count: struct.Struct) -> bytes:
    """The bit count packed by ``count``, then the bits MSB-first, the last byte zero-padded."""
    bits = _as_bits(bits)
    return count.pack(bits.size) + np.packbits(bits).tobytes()


def decode_bit_block(payload: bytes, offset: int, count: struct.Struct) -> tuple[np.ndarray, int]:
    """Inverse of :func:`encode_bit_block` at ``offset``: the bits and the offset past them.

    The claimed bit count is checked against the payload before anything is allocated.
    """
    if len(payload) < offset + count.size:
        raise WireFormatError(f"bit block lacks its {count.size}-byte count")
    (nbits,) = count.unpack_from(payload, offset)
    start = offset + count.size
    end = start + (nbits + 7) // 8
    if len(payload) < end:
        raise WireFormatError(
            f"bit block of {nbits} bits needs {end - start} bytes, got {len(payload) - start}"
        )
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8, count=end - start, offset=start))
    if bits[nbits:].any():
        raise WireFormatError("bit block has nonzero padding bits")
    return bits[:nbits], end


def canonical_bit_encoding(bits) -> bytes:
    """:func:`encode_bit_block` with an 8-byte big-endian bit count.

    The length prefix keeps streams of different lengths from colliding trivially.
    """
    return encode_bit_block(bits, CANONICAL_COUNT)


def sha1_digest(data: bytes) -> bytes:
    """Plain SHA-1 of raw bytes (no canonical encoding applied)."""
    return hashlib.sha1(data).digest()


def make_tags(streams, r: int) -> list[bytes]:
    """Tag each stream: the leading ``r`` bits of SHA-1 over its canonical encoding.

    Returns each stream's tag as the bytes a :class:`ValidationTag` holds,
    with the unused trailing bits of the last byte zeroed.
    """
    if not 1 <= r <= MAX_TAG_BITS:
        raise ConfigError(f"r must be in [1, {MAX_TAG_BITS}], got {r}")
    nbytes = (r + 7) // 8
    last = 0xFF & (0xFF << (8 * nbytes - r))
    tags = []
    for stream in streams:
        digest = sha1_digest(canonical_bit_encoding(stream))
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
