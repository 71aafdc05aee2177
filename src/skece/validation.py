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


def make_tag(bits, r: int) -> ValidationTag:
    """Tag a bit stream: leading ``r`` bits of SHA-1 over its canonical encoding."""
    digest = sha1_digest(canonical_bit_encoding(bits))
    nbytes = (r + 7) // 8
    head = bytearray(digest[:nbytes])
    spare = 8 * nbytes - r
    if spare:
        head[-1] &= 0xFF << spare  # zero the unused trailing bits
    return ValidationTag(r=r, tag=bytes(head))


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
