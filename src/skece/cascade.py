"""Cascade-style interactive reconciliation baseline.

Per round both parties apply a shared seeded permutation, partition into
blocks (size doubling each round), and exchange the block parities in one
batched message per direction. Every block whose parities disagree is
binary-searched: each probe is one request/response message pair, and the
located bit is flipped on Bob's side. The run stops early when a full round
finds no odd-parity block. An even number of errors inside every block of a
round is invisible to that round; the fresh permutations make that state
unlikely to survive all rounds, but it is the protocol's documented
non-convergence case.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_integer
from .protocol import A_TO_B, B_TO_A, Link, MessageCounters, MsgType
from .quantizer import BitStream, _as_bits

_BISECT_REQ = struct.Struct(">BII")

BISECT_REQUEST = 0
BISECT_RESPONSE = 1


@dataclass(frozen=True)
class CascadeConfig:
    initial_block_size: int = 16
    rounds: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        check_integer("initial_block_size", self.initial_block_size, 1)
        check_integer("rounds", self.rounds, 1)
        check_integer("rng_seed", self.rng_seed, 0)


@dataclass(frozen=True)
class ReconciliationOutcome:
    corrected: BitStream
    counters: MessageCounters
    bits_leaked: int
    converged: bool
    transcript: list

    @property
    def messages_sent(self) -> int:
        return self.counters.total_messages


def _block_parities(bits: np.ndarray, block: int) -> np.ndarray:
    nblocks = math.ceil(bits.size / block)
    padded = np.zeros(nblocks * block, dtype=np.uint8)
    padded[: bits.size] = bits
    return padded.reshape(nblocks, block).sum(axis=1).astype(np.uint8) & 1


def cascade_reconcile(a, b, cfg: CascadeConfig) -> ReconciliationOutcome:
    """Reconcile Bob's stream against Alice's; Alice's bits never change.

    Either stream may be a :class:`BitStream` or a 0/1 sequence; the
    corrected stream is an untagged :class:`BitStream` of Bob's bits.
    """
    bits_a, bits_b = _as_bits(a), _as_bits(b).copy()
    if bits_a.size != bits_b.size:
        raise ConfigError(f"stream lengths differ: {bits_a.size} vs {bits_b.size}")
    n = bits_a.size
    if n == 0:
        raise ConfigError("cannot reconcile empty streams")
    link = Link()
    leaked = 0
    converged = False

    for rnd in range(cfg.rounds):
        block = min(n, cfg.initial_block_size * 2**rnd)
        perm = np.random.default_rng(
            np.random.SeedSequence([cfg.rng_seed, rnd])
        ).permutation(n)
        pa = bits_a[perm]
        pb = bits_b[perm]

        par_a = _block_parities(pa, block)
        par_b = _block_parities(pb, block)
        batch = bytes([rnd]) + np.packbits(par_a).tobytes()
        link.send(A_TO_B, MsgType.PARITY, batch)
        link.send(B_TO_A, MsgType.PARITY, bytes([rnd]) + np.packbits(par_b).tobytes())
        leaked += 2 * par_a.size

        odd = np.flatnonzero(par_a != par_b)
        if odd.size == 0:
            converged = True
            break

        for blk in odd:
            lo = int(blk) * block
            hi = min(lo + block, n)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                link.send(
                    B_TO_A, MsgType.BISECT, _BISECT_REQ.pack(BISECT_REQUEST, lo, mid - lo)
                )
                parity_a = int(pa[lo:mid].sum() & 1)
                link.send(
                    A_TO_B, MsgType.BISECT, bytes([BISECT_RESPONSE, parity_a])
                )
                leaked += 1
                if int(pb[lo:mid].sum() & 1) != parity_a:
                    hi = mid
                else:
                    lo = mid
            pb[lo] ^= 1
            bits_b[perm[lo]] ^= 1

    return ReconciliationOutcome(
        corrected=BitStream(bits_b),
        counters=MessageCounters.from_transcript(link.transcript),
        bits_leaked=leaked,
        converged=converged,
        transcript=link.transcript,
    )
