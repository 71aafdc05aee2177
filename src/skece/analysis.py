"""Key-quality metrics: mismatch ratio, correlation, rates, randomness tests.

The four randomness tests follow NIST SP 800-22 rev. 1a: frequency
(monobit, sec. 2.1), longest run of ones in a block (sec. 2.4), discrete
Fourier transform (sec. 2.6) and approximate entropy (sec. 2.12). A test
passes when its p-value exceeds 0.01.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammaincc

from .errors import ConfigError
from .quantizer import _as_bits

P_VALUE_THRESHOLD = 0.01

# (minimum n, block length M, class count K, class probabilities, first class)
_LONGEST_RUN_TABLE = [
    (750000, 10000, 6, (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727), 10),
    (6272, 128, 5, (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124), 4),
    (128, 8, 3, (0.2148, 0.3672, 0.2305, 0.1875), 1),
]


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical test on one bit sequence."""

    __test__ = False  # not a pytest class, despite the name

    name: str
    n: int
    statistic: float
    p_value: float

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ConfigError(f"p-value {self.p_value} outside [0, 1]")

    @property
    def passed(self) -> bool:
        return self.p_value > P_VALUE_THRESHOLD


@dataclass(frozen=True)
class RateReport:
    """Secret-bit rate summary for one key-agreement session."""

    total_bits: int
    duration: float
    streams: int
    aggregate_rate: float
    mean_stream_rate: float


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient; bits coerce to 0/1 reals."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigError("sequences must be one-dimensional and equally long")
    if x.size < 2:
        raise ConfigError("need at least two points")
    xs = x.std()
    ys = y.std()
    if xs == 0 or ys == 0:
        raise ConfigError("correlation undefined for a zero-variance sequence")
    r = float(np.mean((x - x.mean()) * (y - y.mean())) / (xs * ys))
    return max(-1.0, min(1.0, r))


def nist_frequency(bits) -> TestReport:
    """Monobit test: S = sum(2b - 1), p = erfc(|S| / sqrt(2n))."""
    bits = _as_bits(bits)
    n = bits.size
    if n < 100:
        raise ConfigError(f"frequency test needs n >= 100, got {n}")
    s = float(2 * int(bits.sum()) - n)
    p = float(erfc(abs(s) / math.sqrt(2.0 * n)))
    return TestReport(name="frequency", n=n, statistic=s, p_value=p)


def _longest_runs_of_ones(blocks: np.ndarray) -> np.ndarray:
    """Longest run of ones in each row of a 0/1 matrix."""
    ones = np.cumsum(blocks, axis=1, dtype=np.int64)
    # ones counted up to the last zero at or before each position
    at_last_zero = np.maximum.accumulate(np.where(blocks == 0, ones, 0), axis=1)
    return (ones - at_last_zero).max(axis=1)


def nist_longest_run(bits) -> TestReport:
    """Longest-run-of-ones test with the standard's block/category tables."""
    bits = _as_bits(bits)
    n = bits.size
    if n < 128:
        raise ConfigError(f"longest-run test needs n >= 128, got {n}")
    for min_n, block_len, k, probs, first in _LONGEST_RUN_TABLE:
        if n >= min_n:
            break
    nblocks = n // block_len
    runs = _longest_runs_of_ones(bits[: nblocks * block_len].reshape(nblocks, block_len))
    counts = np.bincount(np.clip(runs - first, 0, k), minlength=k + 1)
    expected = nblocks * np.asarray(probs)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    p = float(gammaincc(k / 2.0, chi2 / 2.0))
    return TestReport(name="longest_run", n=n, statistic=chi2, p_value=p)


def _spectral_p_value(bits: np.ndarray) -> tuple[float, float]:
    n = bits.size
    x = 2.0 * bits.astype(np.float64) - 1.0
    moduli = np.abs(np.fft.fft(x))[: n // 2]
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    n0 = 0.95 * n / 2.0
    n1 = int(np.count_nonzero(moduli < threshold))
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return d, float(erfc(abs(d) / math.sqrt(2.0)))


def nist_fft(bits) -> TestReport:
    """Spectral test: peak counts below the 95% threshold versus expectation."""
    bits = _as_bits(bits)
    if bits.size < 1000:
        raise ConfigError(f"spectral test needs n >= 1000, got {bits.size}")
    d, p = _spectral_p_value(bits)
    return TestReport(name="fft", n=bits.size, statistic=d, p_value=p)


def nist_approx_entropy(bits, block_length: int = 2) -> TestReport:
    """Approximate entropy: ApEn(m) = phi(m) - phi(m+1) over overlapping blocks.

    The standard recommends block_length <= log2(n) - 5 for full power; the
    hard bound enforced here only keeps the statistic computable.
    """
    bits = _as_bits(bits)
    n = bits.size
    if n < 100:
        raise ConfigError(f"approximate-entropy test needs n >= 100, got {n}")
    if block_length < 1:
        raise ConfigError("block_length must be >= 1")
    if block_length > math.log2(n) - 2:
        raise ConfigError(
            f"block length {block_length} too large for n={n}; "
            f"needs block_length <= log2(n) - 2"
        )

    def phi(m: int) -> float:
        ext = np.concatenate([bits, bits[: m - 1]]) if m > 1 else bits
        vals = np.zeros(n, dtype=np.int64)
        for j in range(m):
            vals = (vals << 1) | ext[j : j + n]
        freq = np.bincount(vals, minlength=2**m) / n
        nz = freq[freq > 0]
        return float(np.sum(nz * np.log(nz)))

    apen = phi(block_length) - phi(block_length + 1)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    p = float(gammaincc(2 ** (block_length - 1), max(chi2, 0.0) / 2.0))
    return TestReport(name="approx_entropy", n=n, statistic=chi2, p_value=p)


def run_all_tests(bits) -> list[TestReport]:
    """The four-test battery in a fixed order, approximate entropy at block length 2."""
    return [
        nist_frequency(bits),
        nist_longest_run(bits),
        nist_fft(bits),
        nist_approx_entropy(bits),
    ]


def secret_bit_rate(result, duration: float, streams: int) -> RateReport:
    """Matched secret bits per second, aggregate and per-stream mean.

    The aggregate counts every matched bit across all streams; because the
    key material is the union of the per-stream keys, the aggregate rate is
    exactly ``streams`` times the per-stream mean.
    """
    if duration <= 0:
        raise ConfigError(f"duration must be positive, got {duration}")
    if streams < 1:
        raise ConfigError(f"streams must be >= 1, got {streams}")
    total = int(sum(result.matched_stream_bits.values()))
    aggregate = total / duration
    return RateReport(
        total_bits=total,
        duration=duration,
        streams=streams,
        aggregate_rate=aggregate,
        mean_stream_rate=aggregate / streams,
    )


def periodicity_score(values, lag: int) -> float:
    """Z-score of the lag autocorrelation against the white-noise null.

    Under the null the lag correlation of n paired points has standard
    deviation about 1/sqrt(n), so the score is r * sqrt(n); a score above 5
    flags a strongly periodic structure at that lag.
    """
    values = np.asarray(values, dtype=np.float64)
    if lag < 1 or lag >= values.size:
        raise ConfigError(f"lag {lag} outside (0, {values.size})")
    x = values[:-lag]
    y = values[lag:]
    r = pearson(x, y)
    return float(r * math.sqrt(x.size))

