import math
from collections import Counter

import numpy as np
import pytest
from scipy.special import gammaincc

from skece import experiments
from skece.analysis import (
    _LONGEST_RUN_TABLE,
    TestReport,
    _longest_runs_of_ones,
    _spectral_p_value,
    nist_approx_entropy,
    nist_fft,
    nist_frequency,
    nist_longest_run,
    pearson,
    periodicity_score,
    run_all_tests,
    secret_bit_rate,
)
from skece.errors import ConfigError

# first 100 binary digits of pi, the worked example sequence of the NIST
# SP 800-22 frequency and approximate-entropy sections
PI_BITS = np.array(
    [int(c) for c in
     "1100100100001111110110101010001000100001011010001100"
     "001000110100110001001100011001100010100010111000"],
    dtype=np.uint8,
)

# the 128-bit worked example of the longest-run-of-ones section
LONGEST_RUN_BITS = np.array(
    [int(c) for c in
     "11001100000101010110110001001100111000000000001001"
     "00110101010001000100111101011010000000110101111100"
     "1100111001101101100010110010"],
    dtype=np.uint8,
)


def prng_bits(n, seed=0):
    return np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson(x, x) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_independent_bits_near_zero(self):
        x = prng_bits(10_000, seed=1).astype(float)
        y = prng_bits(10_000, seed=2).astype(float)
        assert abs(pearson(x, y)) < 0.05

    def test_zero_variance_undefined(self):
        with pytest.raises(ConfigError):
            pearson(np.ones(10), np.arange(10.0))

    def test_shape_errors(self):
        with pytest.raises(ConfigError):
            pearson([1.0], [1.0])
        with pytest.raises(ConfigError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


class TestFrequency:
    def test_alternating_is_perfectly_balanced(self):
        bits = np.tile([0, 1], 50)
        rep = nist_frequency(bits)
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0

    def test_all_ones_fails(self):
        rep = nist_frequency(np.ones(100, dtype=np.uint8))
        assert rep.p_value == pytest.approx(math.erfc(math.sqrt(50.0)), abs=1e-12)
        assert not rep.passed

    def test_published_worked_example(self):
        rep = nist_frequency(PI_BITS)
        assert rep.statistic == -16.0
        assert rep.p_value == pytest.approx(0.109599, abs=1e-4)

    def test_prng_stream_passes(self):
        assert nist_frequency(prng_bits(10_000, seed=3)).passed

    def test_complement_symmetry(self):
        bits = prng_bits(500, seed=4)
        assert nist_frequency(bits).p_value == nist_frequency(bits ^ 1).p_value

    def test_too_short(self):
        with pytest.raises(ConfigError):
            nist_frequency(np.ones(99, dtype=np.uint8))


def loop_longest_run_of_ones(block) -> int:
    """The bit loop the vectorised longest-run count replaced, kept as its reference."""
    longest = cur = 0
    for b in block:
        cur = cur + 1 if b else 0
        if cur > longest:
            longest = cur
    return longest


def loop_longest_run_report(bits) -> tuple[float, float]:
    """(chi2, p) of the longest-run test, block by block through the loop."""
    n = bits.size
    for min_n, block_len, k, probs, first in _LONGEST_RUN_TABLE:
        if n >= min_n:
            break
    nblocks = n // block_len
    counts = np.zeros(k + 1, dtype=np.int64)
    for j in range(nblocks):
        run = loop_longest_run_of_ones(bits[j * block_len : (j + 1) * block_len])
        counts[min(max(run - first, 0), k)] += 1
    expected = nblocks * np.asarray(probs)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return chi2, float(gammaincc(k / 2.0, chi2 / 2.0))


class TestLongestRun:
    @pytest.mark.parametrize(
        "blocks",
        [
            np.random.default_rng(3).integers(0, 2, size=(200, 8), dtype=np.uint8),
            np.random.default_rng(4).integers(0, 2, size=(50, 128), dtype=np.uint8),
            (np.random.default_rng(5).random((40, 64)) < 0.9).astype(np.uint8),
            np.ones((3, 16), dtype=np.uint8),
            np.zeros((3, 16), dtype=np.uint8),
            np.array([[1], [0]], dtype=np.uint8),
        ],
    )
    def test_vectorised_runs_match_the_loop(self, blocks):
        expected = [loop_longest_run_of_ones(row) for row in blocks]
        assert _longest_runs_of_ones(blocks).tolist() == expected

    @pytest.mark.parametrize("preset", list("ABCDEF"))
    def test_p_values_match_the_loop_on_key_material(self, preset):
        bits = experiments.key_material(experiments.load_scenario(preset), seed=11).bits
        rep = nist_longest_run(bits)
        assert (rep.statistic, rep.p_value) == loop_longest_run_report(bits)

    def test_all_zeros_fails(self):
        rep = nist_longest_run(np.zeros(128, dtype=np.uint8))
        assert rep.p_value < 1e-6

    def test_published_worked_example(self):
        rep = nist_longest_run(LONGEST_RUN_BITS)
        assert rep.p_value == pytest.approx(0.180609, abs=1e-4)

    def test_prng_stream_passes(self):
        assert nist_longest_run(prng_bits(10_000, seed=5)).passed

    def test_too_short(self):
        with pytest.raises(ConfigError):
            nist_longest_run(np.zeros(127, dtype=np.uint8))


class TestSpectral:
    def test_periodic_sequence_fails(self):
        bits = np.tile([0, 1], 1000)
        rep = nist_fft(bits)
        assert rep.p_value < 1e-6

    def test_prng_stream_passes(self):
        assert nist_fft(prng_bits(10_000, seed=6)).passed

    def test_deterministic(self):
        bits = prng_bits(2048, seed=7)
        assert nist_fft(bits).p_value == nist_fft(bits).p_value

    def test_too_short(self):
        with pytest.raises(ConfigError):
            nist_fft(np.zeros(999, dtype=np.uint8))

    def test_statistic_matches_published_small_example(self):
        # the published ten-bit example of the spectral section sits below
        # the production precondition; check the statistic path directly
        bits = np.array([1, 0, 0, 1, 0, 1, 0, 0, 1, 1], dtype=np.uint8)
        _, p = _spectral_p_value(bits)
        assert p == pytest.approx(0.468160, abs=1e-4)


class TestApproxEntropy:
    def test_all_zeros_fully_predictable(self):
        rep = nist_approx_entropy(np.zeros(200, dtype=np.uint8), block_length=2)
        assert rep.p_value < 1e-12

    def test_published_worked_example(self):
        rep = nist_approx_entropy(PI_BITS, block_length=2)
        assert rep.statistic == pytest.approx(5.550792, abs=1e-4)
        assert rep.p_value == pytest.approx(0.235301, abs=1e-4)

    def test_matches_bruteforce_phi(self):
        # independent phi computation by direct enumeration of overlapping
        # blocks on the wrapped sequence
        bits = prng_bits(100, seed=8)
        text = "".join(map(str, bits))

        def phi(m):
            ext = text + text[: m - 1]
            counts = Counter(ext[i : i + m] for i in range(100))
            return sum((c / 100) * math.log(c / 100) for c in counts.values())

        apen = phi(2) - phi(3)
        expected_chi2 = 2 * 100 * (math.log(2) - apen)
        rep = nist_approx_entropy(bits, block_length=2)
        assert rep.statistic == pytest.approx(expected_chi2, rel=1e-12)

    def test_prng_stream_passes(self):
        assert nist_approx_entropy(prng_bits(10_000, seed=9)).passed

    def test_block_too_large(self):
        with pytest.raises(ConfigError):
            nist_approx_entropy(prng_bits(128, seed=10), block_length=6)


class TestBattery:
    def test_runs_all_four_in_order(self):
        reports = run_all_tests(prng_bits(10_000, seed=11))
        assert [r.name for r in reports] == [
            "frequency",
            "longest_run",
            "fft",
            "approx_entropy",
        ]
        assert all(r.passed for r in reports)


class FakeResult:
    def __init__(self, matched):
        self.matched_stream_bits = matched


class TestSecretBitRate:
    def test_simple_division(self):
        rep = secret_bit_rate(FakeResult({0: 300}), duration=30.0, streams=1)
        assert rep.aggregate_rate == 10.0
        assert rep.mean_stream_rate == 10.0

    def test_aggregate_is_streams_times_mean(self):
        matched = {i: 240 for i in range(30)}
        rep = secret_bit_rate(FakeResult(matched), duration=30.0, streams=30)
        assert rep.aggregate_rate == pytest.approx(30.0 * rep.mean_stream_rate)
        assert rep.aggregate_rate == pytest.approx(240.0)

    def test_zero_matched_bits(self):
        rep = secret_bit_rate(FakeResult({}), duration=10.0, streams=4)
        assert rep.aggregate_rate == 0.0

    def test_bad_duration(self):
        with pytest.raises(ConfigError):
            secret_bit_rate(FakeResult({}), duration=0.0, streams=1)


class TestPeriodicity:
    def test_square_wave_scores_high(self):
        wave = np.tile([1.0] * 10 + [-1.0] * 10, 50)
        assert periodicity_score(wave, lag=20) > 20

    def test_white_noise_scores_low(self):
        noise = np.random.default_rng(12).standard_normal(2000)
        assert abs(periodicity_score(noise, lag=20)) < 4

    def test_lag_bounds(self):
        with pytest.raises(ConfigError):
            periodicity_score(np.ones(5), lag=5)


class TestReportExport:
    def test_report_invariants(self):
        with pytest.raises(ConfigError):
            TestReport(name="x", n=10, statistic=0.0, p_value=1.5)
