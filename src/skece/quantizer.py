"""Adaptive dual-threshold quantization of CSI amplitude sequences.

Each party derives two thresholds from its own trace statistics,

    q_plus  = mu + alpha * sigma
    q_minus = mu - alpha * sigma,

drops every sample strictly inside the open band (q_minus, q_plus), and maps
the surviving samples to bits: 1 at or above q_plus, 0 at or below q_minus.
Boundary samples are kept, so tie handling is deterministic. The parties
exchange drop lists and keep only the indices neither side dropped.

:func:`quantize_matrix` and :func:`extract_streams` do this for all m rows
of a trace at once; the one-stream functions do it for a single row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DesyncError

PARTIES = ("alice", "bob", "eve")


@dataclass(frozen=True)
class Thresholds:
    """Dual quantization thresholds derived from trace statistics.

    ``sigma`` is the population standard deviation, so two samples already
    produce a usable band.
    """

    mu: float
    sigma: float
    alpha: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if not (np.isfinite(self.mu) and np.isfinite(self.sigma)):
            raise ConfigError("thresholds require finite mu and sigma")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")

    @property
    def q_plus(self) -> float:
        return self.mu + self.alpha * self.sigma

    @property
    def q_minus(self) -> float:
        return self.mu - self.alpha * self.sigma


@dataclass(frozen=True)
class BitStream:
    """An ordered 0/1 sequence with its provenance (party, stream index)."""

    bits: np.ndarray
    party: str | None = None
    stream: int | None = None

    def __post_init__(self):
        bits = _as_bits(self.bits)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        if self.party is not None and self.party not in PARTIES:
            raise ConfigError(f"unknown party {self.party!r}")

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
    if arr.dtype != np.uint8:
        # check before the cast, which would truncate 0.5 to 0 and wrap -1 to 255
        if arr.dtype.kind not in "biuf" or not ((arr == 0) | (arr == 1)).all():
            raise ConfigError("bit sequence must contain only 0 and 1")
        arr = arr.astype(np.uint8)
    elif arr.size and arr.max() > 1:
        raise ConfigError("bit sequence must contain only 0 and 1")
    return arr


@dataclass(frozen=True)
class DropList:
    """Strictly increasing sample indices a party decided to drop."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ConfigError("drop indices must be one-dimensional")
        if idx.size:
            if idx.min() < 0:
                raise ConfigError("drop indices must be non-negative")
            if (idx[1:] <= idx[:-1]).any():
                raise ConfigError("drop indices must be strictly increasing")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)


def _inside(samples, q_minus, q_plus) -> np.ndarray:
    """Samples strictly inside the open (q-, q+) band, the ones a party drops."""
    return (samples > q_minus) & (samples < q_plus)


def compute_thresholds(samples, alpha: float) -> Thresholds:
    """Compute mu, sigma and the q+/q- band from an amplitude sequence."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ConfigError("threshold samples must be one-dimensional")
    quantized = quantize_matrix(samples[None, :], alpha)
    mu, sigma = float(quantized.mu[0]), float(quantized.sigma[0])
    return Thresholds(mu=mu, sigma=sigma, alpha=alpha)


def drop_indices(samples, thresholds: Thresholds) -> DropList:
    """Indices whose samples lie strictly inside the open (q-, q+) band."""
    samples = np.asarray(samples, dtype=np.float64)
    inside = _inside(samples, thresholds.q_minus, thresholds.q_plus)
    return DropList(np.flatnonzero(inside))


def merge_kept(drop_a: DropList, drop_b: DropList, n: int) -> np.ndarray:
    """Ascending indices absent from the union of both parties' drop lists."""
    if n < 0:
        raise ConfigError(f"sequence length must be >= 0, got {n}")
    keep = np.ones(n, dtype=bool)
    for name, lst in (("alice", drop_a), ("bob", drop_b)):
        # drop indices are strictly increasing, so the last one is the largest
        if len(lst) and lst.indices[-1] >= n:
            raise ConfigError(f"{name} drop list has index {lst.indices[-1]} >= {n}")
        keep[lst.indices] = False
    return np.flatnonzero(keep)


def extract_bits(
    samples,
    thresholds: Thresholds,
    kept,
    party: str | None = None,
    stream: int | None = None,
) -> BitStream:
    """Quantize the kept samples: 1 at or above q+, 0 at or below q-.

    A kept index strictly inside the band means the parties' drop lists
    diverged, which is surfaced as a :class:`DesyncError`.
    """
    samples = np.asarray(samples, dtype=np.float64)
    kept = np.asarray(kept, dtype=np.int64)
    if kept.size and (kept.min() < 0 or kept.max() >= samples.size):
        raise ConfigError("kept indices out of range")
    values = samples[kept]
    inside = _inside(values, thresholds.q_minus, thresholds.q_plus)
    if np.any(inside):
        bad = kept[np.flatnonzero(inside)[0]]
        raise DesyncError(
            f"kept index {bad} lies strictly inside the quantization band; "
            "drop lists are out of sync"
        )
    return BitStream(
        (values >= thresholds.q_plus).astype(np.uint8), party=party, stream=stream
    )


def quantize_stream(samples, alpha: float) -> tuple[Thresholds, DropList]:
    """One party's local quantization step for a single subcarrier stream."""
    th = compute_thresholds(samples, alpha)
    return th, drop_indices(samples, th)


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
    """Quantize every subcarrier row of a trace with its own mu ± alpha·sigma band."""
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    if amplitudes.ndim != 2:
        raise ConfigError("amplitudes must be an (m, n) matrix")
    if amplitudes.shape[1] < 2:
        raise ConfigError(f"need at least 2 samples, got {amplitudes.shape[1]}")
    if not np.all(np.isfinite(amplitudes)):
        raise ConfigError("samples contain non-finite values")
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    mu = amplitudes.mean(axis=1)
    sigma = amplitudes.std(axis=1)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        raise ConfigError("thresholds require finite mu and sigma")
    q_plus = (mu + alpha * sigma)[:, None]
    q_minus = (mu - alpha * sigma)[:, None]
    inside = _inside(amplitudes, q_minus, q_plus)
    return MatrixQuantization(mu=mu, sigma=sigma, inside=inside, ones=amplitudes >= q_plus)


def keep_mask(drops_a, drops_b, shape) -> np.ndarray:
    """(m, n) mask of the samples neither party dropped.

    Each party's drops are an (m, n) boolean mask, such as
    :attr:`MatrixQuantization.inside` or a decoded drop-list frame.
    """
    keep = np.ones(shape, dtype=bool)
    for name, drops in (("alice", drops_a), ("bob", drops_b)):
        if drops.shape != keep.shape:
            raise DesyncError(f"{name} drop mask is {drops.shape}, expected {keep.shape}")
        keep &= ~drops.astype(bool, copy=False)
    return keep


def split_streams(bits, keep, party: str | None = None, limit: int | None = None):
    """Row i's bits at its kept samples as stream i, capped at ``limit`` bits."""
    flat = np.asarray(bits)[keep].astype(np.uint8)
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    return [
        BitStream(flat[start:end][:limit], party=party, stream=i)
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
