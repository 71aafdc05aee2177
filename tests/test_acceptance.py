"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import statistics
import time
from functools import lru_cache

import numpy as np
import pytest

from skece import analysis, experiments, protocol, recombine, validation
from skece.channel import simulate
from skece.protocol import ProtocolParams, run_key_agreement, scan_transcript_for_key


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {label}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def test_01_checking_length_exactness():
    start = time.perf_counter()
    values = (
        validation.checking_length(0.98),
        validation.checking_length(0.5),
        validation.checking_length(0.999),
    )
    elapsed = time.perf_counter() - start
    report(
        1,
        "tag checking-length formula",
        values == (6, 1, 10) and elapsed < 1e-3,
        f"values={values}, {elapsed * 1e6:.0f}us",
    )


def test_02_validation_soundness_and_completeness():
    rng = np.random.default_rng(2024)
    trials = 10_000
    false_matches = 0
    for _ in range(trials):
        a = rng.integers(0, 2, 300, dtype=np.uint8)
        b = rng.integers(0, 2, 300, dtype=np.uint8)
        if np.array_equal(a, b):  # pragma: no cover - probability 2**-300
            continue
        false_matches += validation.validate(validation.make_tag(a, 6), b, 6)
    rate = false_matches / trials
    p = 2.0**-6
    bound = p + 3.0 * (p * (1 - p) / trials) ** 0.5

    complete = 0
    for _ in range(trials):
        a = rng.integers(0, 2, 300, dtype=np.uint8)
        complete += validation.validate(validation.make_tag(a, 6), a, 6)
    report(
        2,
        "truncated-tag soundness and completeness",
        rate <= bound and complete == trials,
        f"false-match rate {rate:.4f} <= {bound:.4f}, completeness {complete}/{trials}",
    )


def test_03_recombination_math():
    start = time.perf_counter()
    rng = np.random.default_rng(3)

    weight_ok = True
    for _ in range(1000):
        theta = int(rng.integers(2, 30))
        m = int(rng.integers(1, 31))
        w = recombine.weights(rng.integers(0, theta, size=m), theta)
        weight_ok &= abs(float(w.sum()) - 1.0) <= 1e-12

    alloc_ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 31))
        length = int(rng.integers(1, 513))
        w = rng.dirichlet(np.ones(m))
        # caps of L bits per stream bind no pick
        picks = recombine.allocate(w, length, np.full(m, length))
        alloc_ok &= int(picks.sum()) == length and int(picks.min()) >= 0

    # Monte-Carlo oracle: draw picks+1 positions uniformly without
    # replacement and demand none land on a mismatched position
    trials, length, picks = 100_000, 300, 10
    draws = rng.permuted(
        np.tile(np.arange(length, dtype=np.int16), (trials, 1)), axis=1
    )[:, : picks + 1]
    mc_ok = True
    details = []
    for d_hat in range(6):
        mc = 1.0 - float((draws < d_hat).any(axis=1).mean())
        formula = recombine.success_probability(
            [d_hat], [picks], key_length=length, rounds=1
        )
        details.append(f"d={d_hat}:|{formula - mc:.4f}|")
        mc_ok &= abs(formula - mc) <= 0.01

    elapsed = time.perf_counter() - start
    report(
        3,
        "recombination weight/allocation/success math",
        weight_ok and alloc_ok and mc_ok and elapsed < 30.0,
        f"{'; '.join(details)}; {elapsed:.1f}s",
    )


def test_04_overhead_comparison():
    start = time.perf_counter()
    rows = experiments.overhead_comparison(trials=1000, base_seed=404)
    elapsed = time.perf_counter() - start
    within_10 = sum(r["skece_messages"] <= 10 for r in rows) / len(rows)
    med_skece = statistics.median(r["skece_messages"] for r in rows)
    med_cascade = statistics.median(r["cascade_messages"] for r in rows)
    report(
        4,
        "communication overhead vs Cascade",
        within_10 >= 0.80 and med_skece <= 0.5 * med_cascade and elapsed < 120.0,
        f"within-10 {within_10:.1%}, medians {med_skece} vs {med_cascade}, {elapsed:.0f}s",
    )


def test_05_mismatch_trend_over_alpha():
    scenario = experiments.load_scenario("C")
    rows = experiments.alpha_sweep(
        scenario, [0.0, 0.2, 0.4, 0.7, 1.0], trials=200, base_seed=505
    )
    means = [row["mismatched"] for row in rows]
    non_increasing = all(a >= b for a, b in zip(means, means[1:]))
    zero_at_04 = means[2] == 0.0
    report(
        5,
        "mismatched bits non-increasing in alpha, zero at 0.4",
        non_increasing and zero_at_04,
        "means " + ", ".join(f"{m:.3f}" for m in means),
    )


def test_06_randomness_battery_over_presets():
    runs = 100
    ok = True
    details = []
    for name in experiments.PRESET_NAMES:
        rows = experiments.randomness_battery([name], runs=runs, base_seed=606)
        passed = sum(r["all_pass"] for r in rows)
        details.append(f"{name}:{passed}")
        ok &= passed >= 95
        ok &= all(r["bits"] >= 10_000 for r in rows)
    report(
        6,
        "four-test battery on presets A-F",
        ok,
        f"pass counts per 100 runs {'/'.join(details)}",
    )


def test_07_eavesdropper_key_independence():
    scenario = experiments.load_scenario("C")
    cors = experiments.eve_independence(scenario, seed=707, bits_per_stream=10_000)
    worst = float(np.nanmax(np.abs(cors)))
    report(
        7,
        "eavesdropper per-stream key correlation within +/-0.15",
        cors.shape == (30,) and not np.isnan(cors).any() and worst <= 0.15,
        f"max |r| = {worst:.4f} over 30 subcarriers",
    )


def test_08_aggregate_rate_is_streams_times_mean():
    traces = simulate(experiments.load_scenario("C").with_seed(808).config)
    params = ProtocolParams(alpha=0.4, key_length=150, rng_seed=808)
    result, _ = run_key_agreement(traces, params)
    duration = traces.alice.duration
    rep = analysis.secret_bit_rate(result, duration=duration, streams=traces.m)
    ok = (
        result.succeeded
        and len(result.matched_stream_bits) == traces.m
        and rep.aggregate_rate == pytest.approx(traces.m * rep.mean_stream_rate, rel=1e-12)
    )
    report(
        8,
        "aggregate secret-bit rate = m x per-stream mean",
        ok,
        f"{rep.aggregate_rate:.1f} b/s vs {traces.m} x {rep.mean_stream_rate:.2f}",
    )


def _recursive_distance(a: str, b: str) -> int:
    # the textbook recursive definition; memoized so exhaustive and random
    # sweeps stay tractable, which changes evaluation order, not values
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return rec(len(a), len(b))


def _bits(s: str) -> np.ndarray:
    """The bits of a '0'/'1' string as a uint8 array."""
    return np.array([int(c) for c in s], dtype=np.uint8)


def _plain_exponential_distance(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        _plain_exponential_distance(a[:-1], b) + 1,
        _plain_exponential_distance(a, b[:-1]) + 1,
        _plain_exponential_distance(a[:-1], b[:-1]) + (a[-1] != b[-1]),
    )


def test_09_oracle_equivalence():
    strings = [""]
    for length in range(1, 7):
        strings += [format(v, f"0{length}b") for v in range(2**length)]
    exhaustive_ok = all(
        recombine.edit_distance(_bits(a), _bits(b)) == _recursive_distance(a, b)
        for a in strings
        for b in strings
    )

    rng = np.random.default_rng(909)
    random_ok = True
    for _ in range(10_000):
        a = "".join(rng.choice(["0", "1"], size=rng.integers(0, 11)))
        b = "".join(rng.choice(["0", "1"], size=rng.integers(0, 11)))
        random_ok &= recombine.edit_distance(_bits(a), _bits(b)) == _recursive_distance(a, b)

    # the memoized recursion agrees with the plain exponential one
    spot_ok = all(
        _plain_exponential_distance(a, b) == _recursive_distance(a, b)
        for a in strings[:40]
        for b in strings[:40]
    )

    sha_ok = (
        validation.sha1_digest(b"abc").hex()
        == "a9993e364706816aba3e25717850c26c9cd0d89d"
        and validation.sha1_digest(b"").hex()
        == "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        and validation.sha1_digest(b"a" * 1_000_000).hex()
        == "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    )
    report(
        9,
        "edit-distance recursion oracle and SHA-1 vectors",
        exhaustive_ok and random_ok and spot_ok and sha_ok,
        "exhaustive<=6, 10^4 random<=10, FIPS vectors",
    )


def test_10_transcript_hygiene():
    scenario = experiments.load_scenario("C")
    total_hits = 0
    runs = 100
    for k in range(runs):
        traces = simulate(scenario.with_seed(1000 + k).config)
        params = ProtocolParams(alpha=scenario.alpha, key_length=128, rng_seed=k)
        result, _ = run_key_agreement(traces, params)
        assert result.succeeded
        total_hits += scan_transcript_for_key(result.messages, result.key, window=32)
        total_hits += scan_transcript_for_key(result.messages, result.peer_key, window=32)
    report(
        10,
        "no 32-bit key substring in any wire payload",
        total_hits == 0,
        f"{total_hits} hits across {runs} runs",
    )


def test_11_predictable_channel_attack():
    results = experiments.attack_experiment(seed=1111)
    rss_z = results["rss"]["max_periodicity_z"]
    csi_freq_p = results["csi"]["frequency_p"]
    report(
        11,
        "attack periodicity flagged on RSS emulation, CSI keys stay balanced",
        rss_z > 5.0 and csi_freq_p > 0.01,
        f"rss z={rss_z:.1f}, csi frequency p={csi_freq_p:.3f}",
    )
