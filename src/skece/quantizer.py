"""Adaptive dual-threshold quantization of CSI amplitude sequences.

Each party derives two thresholds from its own trace statistics,

    q_plus  = mu + alpha * sigma
    q_minus = mu - alpha * sigma,

drops every sample strictly inside the open band (q_minus, q_plus), and maps
the surviving samples to bits: 1 at or above q_plus, 0 at or below q_minus.
Boundary samples are kept, so tie handling is deterministic. The parties
exchange drop lists and keep only the indices neither side dropped.

:func:`quantize_matrix` and :func:`extract_streams` do this for all m rows
of a trace at once. :func:`quantize_stream`, :func:`merge_kept` and
:func:`extract_bits` are their one-row calls, kept only for the benchmark's
span tracer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DesyncError, check_real

PARTIES = ("alice", "bob", "eve")


@dataclass(frozen=True)
class BitStream:
    """An ordered 0/1 sequence with its provenance (party, stream index)."""

    bits: np.ndarray
    party: str | None = None
    stream: int | None = None

    def __post_init__(self):
        bits = _as_bits(self.bits)
        if bits.flags.writeable and (bits is self.bits or bits.base is not None):
            bits = bits.copy()  # the caller's own array or buffer stays theirs to write
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        if self.party is not None and self.party not in PARTIES:
            raise ConfigError(f"unknown party {self.party!r}")

    @classmethod
    def _unchecked(cls, bits: np.ndarray, party: str | None, stream: int | None) -> BitStream:
        """A stream that skips ``__post_init__``: for callers that made its checks already.

        ``bits`` must be a read-only one-dimensional uint8 array of 0s and 1s,
        such as a slice of a read-only array that :func:`_as_bits` returned,
        and ``party`` one of :data:`PARTIES` or None. :func:`split_streams`
        checks all streams' bits with one scan and builds each stream here.
        """
        obj = object.__new__(cls)
        obj.__dict__.update(bits=bits, party=party, stream=stream)
        return obj

    def __len__(self) -> int:
        return int(self.bits.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitStream):
            return NotImplemented
        return (
            np.array_equal(self.bits, other.bits)
            and self.party == other.party
            and self.stream == other.stream
        )

    def __hash__(self):
        return hash((self.bits.tobytes(), self.party, self.stream))

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)


def _as_bits(bits) -> np.ndarray:
    if isinstance(bits, BitStream):
        return bits.bits
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ConfigError("bit sequence must be one-dimensional")
    if arr.dtype == np.bool_:
        arr = arr.astype(np.uint8)  # every bool is a bit
    elif arr.dtype != np.uint8:
        # check before the cast, which would truncate 0.5 to 0 and wrap -1 to 255
        if arr.dtype.kind not in "biuf" or not ((arr == 0) | (arr == 1)).all():
            raise ConfigError("bit sequence must contain only 0 and 1")
        arr = arr.astype(np.uint8)
    elif arr.size and arr.max() > 1:
        raise ConfigError("bit sequence must contain only 0 and 1")
    return arr


@dataclass(frozen=True)
class MatrixQuantization:
    """One party's quantization of an (m, n) amplitude matrix, row by row.

    ``mu`` and ``sigma`` hold the m rows' statistics. ``inside`` marks the
    samples strictly inside their row's band, the drops, and ``ones`` the
    samples at or above their row's q+, the 1 bits.
    """

    mu: np.ndarray
    sigma: np.ndarray
    inside: np.ndarray
    ones: np.ndarray


def quantize_matrix(amplitudes, alpha: float) -> MatrixQuantization:
    """Quantize every subcarrier row of a trace with its own mu ± alpha·sigma band.

    ``sigma`` is the population standard deviation, so two samples already
    produce a usable band.
    """
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    if amplitudes.ndim != 2:
        raise ConfigError("amplitudes must be an (m, n) matrix")
    if amplitudes.shape[1] < 2:
        raise ConfigError(f"need at least 2 samples, got {amplitudes.shape[1]}")
    if not np.all(np.isfinite(amplitudes)):
        raise ConfigError("samples contain non-finite values")
    check_real("alpha", alpha, 0)
    mu = amplitudes.mean(axis=1)
    sigma = amplitudes.std(axis=1)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        raise ConfigError("thresholds require finite mu and sigma")
    q_plus = (mu + alpha * sigma)[:, None]
    q_minus = (mu - alpha * sigma)[:, None]
    inside = (amplitudes > q_minus) & (amplitudes < q_plus)  # the open band: drops
    return MatrixQuantization(mu=mu, sigma=sigma, inside=inside, ones=amplitudes >= q_plus)


def keep_mask(drops_a, drops_b, shape) -> np.ndarray:
    """(m, n) mask of the samples neither party dropped.

    Each party's drops are an (m, n) boolean mask, such as
    :attr:`MatrixQuantization.inside` or a decoded drop-list frame.
    """
    keep = np.ones(shape, dtype=bool)
    for name, drops in (("alice", drops_a), ("bob", drops_b)):
        drops = np.asarray(drops, dtype=bool)
        if drops.shape != keep.shape:
            raise DesyncError(f"{name} drop mask is {drops.shape}, expected {keep.shape}")
        keep &= ~drops
    return keep


def split_streams(bits, keep, party: str | None = None, limit: int | None = None):
    """Row i's bits at its kept samples as stream i, capped at ``limit`` bits.

    ``bits`` and ``keep`` are (m, n) arrays. The kept bits of all rows are
    checked for values other than 0 and 1 with one scan and made read-only
    as one array; each stream is a slice of it.
    """
    if party is not None and party not in PARTIES:
        raise ConfigError(f"unknown party {party!r}")
    flat = _as_bits(np.asarray(bits)[keep])
    flat.setflags(write=False)
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    return [
        BitStream._unchecked(flat[start:end][:limit], party, i)
        for i, (start, end) in enumerate(zip([0] + ends[:-1], ends))
    ]


def extract_streams(
    quantized: MatrixQuantization,
    drops_a,
    drops_b,
    party: str | None = None,
    limit: int | None = None,
) -> list[BitStream]:
    """The party's per-stream bits at the samples neither party dropped.

    ``drops_a`` and ``drops_b`` are the parties' (m, n) drop masks; each stream is
    capped at ``limit`` bits. A kept sample strictly inside the party's own
    band means the drop lists diverged, which is a :class:`DesyncError`.
    """
    keep = keep_mask(drops_a, drops_b, quantized.inside.shape)
    bad = keep & quantized.inside
    if np.any(bad):
        i, k = np.argwhere(bad)[0]
        raise DesyncError(
            f"stream {i}: kept index {k} lies strictly inside the quantization "
            "band; drop lists are out of sync"
        )
    return split_streams(quantized.ones, keep, party=party, limit=limit)


def _one_row(matrix, what: str) -> None:
    if np.ndim(matrix) != 2 or np.shape(matrix)[0] != 1:
        raise ConfigError(f"{what} must be a single (1, n) row")


def quantize_stream(samples, alpha: float) -> MatrixQuantization:
    """:func:`quantize_matrix` of one stream's 1-D samples: a (1, n) quantization.

    Remains only because ``bench/tracing.py`` wraps it; it goes when the
    tracer wraps :func:`quantize_matrix` and :func:`extract_streams`.
    """
    if np.ndim(samples) != 1:
        raise ConfigError("stream samples must be one-dimensional")
    return quantize_matrix(np.asarray(samples)[None, :], alpha)


def merge_kept(drops_a, drops_b) -> np.ndarray:
    """Ascending indices kept by :func:`keep_mask` of two (1, n) drop masks.

    Remains only because ``bench/tracing.py`` wraps it; it goes when the
    tracer wraps :func:`quantize_matrix` and :func:`extract_streams`.
    """
    _one_row(drops_a, "drop mask")
    return np.flatnonzero(keep_mask(drops_a, drops_b, np.shape(drops_a)))


def extract_bits(
    quantized: MatrixQuantization,
    drops_a,
    drops_b,
    party: str | None = None,
    stream: int | None = None,
) -> BitStream:
    """:func:`extract_streams` of a (1, n) quantization, as one stream.

    Remains only because ``bench/tracing.py`` wraps it; it goes when the
    tracer wraps :func:`quantize_matrix` and :func:`extract_streams`.
    """
    _one_row(quantized.inside, "quantization")
    (bits,) = extract_streams(quantized, drops_a, drops_b, party=party)
    return BitStream(bits.bits, party=party, stream=stream)
