"""Adaptive dual-threshold quantization of CSI amplitude sequences.

Each party derives two thresholds from its own trace statistics,

    q_plus  = mu + alpha * sigma
    q_minus = mu - alpha * sigma,

drops every sample strictly inside the open band (q_minus, q_plus), and maps
the surviving samples to bits: 1 at or above q_plus, 0 at or below q_minus.
Boundary samples are kept, so tie handling is deterministic. The parties
exchange drop lists and keep only the indices neither side dropped.
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
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ConfigError("bits must be one-dimensional")
        if bits.size and bits.max() > 1:
            raise ConfigError("bits must contain only 0 and 1")
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
            if np.any(np.diff(idx) <= 0):
                raise ConfigError("drop indices must be strictly increasing")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)


def compute_thresholds(samples, alpha: float) -> Thresholds:
    """Compute mu, sigma and the q+/q- band from an amplitude sequence."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or samples.size < 2:
        raise ConfigError(
            f"need at least 2 samples to compute thresholds, got {samples.size}"
        )
    if not np.all(np.isfinite(samples)):
        raise ConfigError("samples contain non-finite values")
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    return Thresholds(mu=float(samples.mean()), sigma=float(samples.std()), alpha=alpha)


def drop_indices(samples, thresholds: Thresholds) -> DropList:
    """Indices whose samples lie strictly inside the open (q-, q+) band."""
    samples = np.asarray(samples, dtype=np.float64)
    inside = (samples > thresholds.q_minus) & (samples < thresholds.q_plus)
    return DropList(np.flatnonzero(inside))


def merge_kept(drop_a: DropList, drop_b: DropList, n: int) -> np.ndarray:
    """Ascending indices absent from the union of both parties' drop lists."""
    if n < 0:
        raise ConfigError(f"sequence length must be >= 0, got {n}")
    # drop indices are strictly increasing, so the last one is the largest
    for name, lst in (("alice", drop_a), ("bob", drop_b)):
        if len(lst) and lst.indices[-1] >= n:
            raise ConfigError(
                f"{name} drop list contains index {lst.indices[-1]} >= n={n}"
            )
    keep = np.ones(n, dtype=bool)
    keep[drop_a.indices] = False
    keep[drop_b.indices] = False
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
    inside = (values > thresholds.q_minus) & (values < thresholds.q_plus)
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
