"""Desk-scale experiment drivers shared by the CLI, demos and test suite.

Each driver is deterministic in its base seed: trial t derives its own seed,
so re-running a command reproduces its output files bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, cascade, channel, protocol, quantizer
from .errors import ConfigError, InsufficientBitsError, check_integer, check_real
from .quantizer import BitStream

PRESET_NAMES = ("A", "B", "C", "D", "E", "F")


@dataclass(frozen=True)
class Scenario:
    """A named simulator configuration plus its quantizer default."""

    name: str
    description: str
    alpha: float
    config: channel.ScenarioConfig

    def __post_init__(self):
        check_real("alpha", self.alpha, 0)

    def with_seed(self, rng_seed: int) -> "Scenario":
        return replace(self, config=replace(self.config, rng_seed=rng_seed))


def _scenario_from_dict(data: dict, fallback_name: str) -> Scenario:
    config = data.get("config") if isinstance(data, dict) else None
    if not isinstance(config, dict):
        raise ConfigError("malformed scenario definition: no 'config' object")
    unknown = sorted(set(config) - {f.name for f in fields(channel.ScenarioConfig)})
    if unknown:
        raise ConfigError(f"malformed scenario definition: unknown field {', '.join(unknown)}")
    try:
        cfg = channel.ScenarioConfig(**config)
        return Scenario(
            name=data.get("name", fallback_name),
            description=data.get("description", ""),
            alpha=data.get("alpha", 0.4),
            config=cfg,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scenario definition: {exc}") from exc


def load_scenario(name_or_path: str) -> Scenario:
    """Resolve a bundled preset letter or a JSON config file path."""
    key = str(name_or_path)
    if key.upper() in PRESET_NAMES or key.lower() in ("attack",):
        ref = resources.files("skece.presets") / f"{key.upper() if len(key) == 1 else key.lower()}.json"
        data = json.loads(ref.read_text(encoding="utf-8"))
        return _scenario_from_dict(data, key)
    path = Path(name_or_path)
    if not path.exists():
        raise ConfigError(
            f"scenario {name_or_path!r} is neither a bundled preset "
            f"({', '.join(PRESET_NAMES)}, attack) nor an existing file"
        )
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"scenario file {name_or_path!r} is not JSON: {exc}") from None
    return _scenario_from_dict(data, path.stem)


def keep_rate_estimate(alpha: float) -> float:
    """Fraction of samples outside a +/- alpha*sigma band under normality."""
    return math.erfc(alpha / math.sqrt(2.0))


def _probe_count(bits: float, keep: float, alpha: float, m: int) -> int:
    """``ceil(bits / keep)``: the probes that keep ``bits`` samples at rate ``keep``.

    Refused before simulating when m streams of that many probes would exceed
    :data:`channel.MAX_SAMPLES`. The presets and default alphas ask for at
    most 40,970 probes of 30 streams (eve_independence at alpha 1).
    """
    max_probes = channel.MAX_SAMPLES // m
    if not bits <= max_probes * keep:  # a NaN keep rate, which compares false, fails
        raise ConfigError(
            f"alpha {alpha} keeps a share {keep:.3g} of the samples, so the requested "
            f"bits need more than {max_probes} probes"
        )
    return math.ceil(bits / keep)


def probes_for_bits(alpha: float, m: int, target_bits: int) -> int:
    """Probe count that yields at least ``target_bits`` kept bits overall.

    Sized 35% above the normal-model keep rate, since the kept share varies.
    """
    return max(2, _probe_count(target_bits * 1.35, m * keep_rate_estimate(alpha), alpha, m))


def extract_party_streams(traces: channel.PairedTraceSet, alpha: float):
    """Both parties' per-stream bits after the drop-list exchange."""
    quant_a = quantizer.quantize_matrix(traces.alice.amplitude_db, alpha)
    quant_b = quantizer.quantize_matrix(traces.bob.amplitude_db, alpha)
    drops = (quant_a.inside, quant_b.inside)
    return (
        quantizer.extract_streams(quant_a, *drops),
        quantizer.extract_streams(quant_b, *drops),
    )


def stream_counts(traces: channel.PairedTraceSet, alpha: float) -> dict:
    """Mean ignored/mismatched/matched bit counts per subcarrier stream."""
    streams_a, streams_b = extract_party_streams(traces, alpha)
    n = traces.n
    ignored = [n - len(sa) for sa in streams_a]
    mismatched = [
        int(np.count_nonzero(sa.bits != sb.bits))
        for sa, sb in zip(streams_a, streams_b)
    ]
    matched = [n - i - d for i, d in zip(ignored, mismatched)]
    return {
        "ignored": float(np.mean(ignored)),
        "mismatched": float(np.mean(mismatched)),
        "matched": float(np.mean(matched)),
    }


def alpha_sweep(
    scenario: Scenario, alphas, trials: int, base_seed: int = 0
) -> list[dict]:
    """Mean per-stream bit category counts for each alpha over seeded trials."""
    check_integer("trials", trials, 1)
    check_integer("base_seed", base_seed, 0)
    alphas = list(alphas)
    totals = [{"ignored": 0.0, "mismatched": 0.0, "matched": 0.0} for _ in alphas]
    # one simulation per trial serves every alpha; each alpha sums its
    # trials in trial order, so its mean rounds as a per-alpha loop would
    for t in range(trials):
        traces = channel.simulate(scenario.with_seed(base_seed + t).config)
        for alpha, total in zip(alphas, totals):
            counts = stream_counts(traces, alpha)
            for k in total:
                total[k] += counts[k]
    return [
        {
            "alpha": float(alpha),
            **{k: v / trials for k, v in total.items()},
            "trials": trials,
        }
        for alpha, total in zip(alphas, totals)
    ]


def _random_bit_matrix(rng: np.random.Generator, m: int, length: int) -> np.ndarray:
    return rng.integers(0, 2, size=(m, length), dtype=np.uint8)


def overhead_comparison(
    trials: int,
    base_seed: int = 0,
    stream_length: int = 300,
    gamma: float = 0.98,
    theta: int = 5,
) -> list[dict]:
    """Message counts for both reconciliation styles on matched inputs.

    The paper's setup: per trial both schemes face the same error count e
    drawn uniformly from 1-3. The multi-stream scheme gets e mismatches at
    uniform positions over its 30 x ``stream_length`` bit grid and up to 50
    recombination rounds; the single-stream Cascade baseline (16-bit first
    blocks, 4 rounds) gets e mismatches over its own ``stream_length`` bits.
    """
    check_integer("trials", trials, 1)
    check_integer("base_seed", base_seed, 0)
    check_integer("stream_length", stream_length, 1)
    m = 30
    rows = []
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([base_seed, t]))
        e = int(rng.integers(1, 4))

        grid = _random_bit_matrix(rng, m, stream_length)
        flipped = grid.copy()
        flat = rng.choice(m * stream_length, size=e, replace=False)
        flipped[np.unravel_index(flat, grid.shape)] ^= 1
        params = protocol.ProtocolParams(
            gamma=gamma,
            theta=theta,
            key_length=stream_length,
            max_rounds=50,
            rng_seed=int(rng.integers(0, 2**63)),
        )
        outcome = protocol.reconcile_bit_streams(list(grid), list(flipped), params)

        base = rng.integers(0, 2, size=stream_length, dtype=np.uint8)
        noisy = base.copy()
        noisy[rng.choice(stream_length, size=e, replace=False)] ^= 1
        cas = cascade.cascade_reconcile(
            base, noisy, cascade.CascadeConfig(rng_seed=int(rng.integers(0, 2**63)))
        )
        rows.append(
            {
                "trial": t,
                "errors": e,
                "skece_messages": outcome.counters.total_messages,
                "skece_succeeded": outcome.succeeded,
                "skece_keys_equal": outcome.key is not None
                and np.array_equal(outcome.key.bits, outcome.peer_key.bits),
                "cascade_messages": cas.messages_sent,
                "cascade_equal": bool(np.array_equal(cas.corrected.bits, base)),
            }
        )
    return rows


def empirical_cdf(values) -> list[tuple[float, float]]:
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = values.size
    return [(float(v), float((i + 1) / n)) for i, v in enumerate(values)]


def key_material(scenario: Scenario, seed: int, min_bits: int = 10_000) -> BitStream:
    """Concatenated bits of every stream that validated between the parties.

    Sizes the probe count from the quantizer keep rate, simulates one
    session, and joins the matched streams' bits (both parties hold the
    identical material).
    """
    check_integer("min_bits", min_bits, 1)
    n = probes_for_bits(scenario.alpha, scenario.config.m, min_bits)
    cfg = replace(scenario.config, probe_count=n, rng_seed=seed)
    traces = channel.simulate(cfg)
    streams_a, streams_b = extract_party_streams(traces, scenario.alpha)
    chunks = [
        sa.bits
        for sa, sb in zip(streams_a, streams_b)
        if len(sa) and np.array_equal(sa.bits, sb.bits)
    ]
    if not chunks:
        raise InsufficientBitsError("no stream validated; cannot build key material")
    bits = np.concatenate(chunks)
    if bits.size < min_bits:
        raise InsufficientBitsError(
            f"matched streams supply {bits.size} bits, below the requested {min_bits}"
        )
    return BitStream(bits)


def randomness_battery(
    scenario_names,
    runs: int,
    base_seed: int = 0,
    min_bits: int = 10_000,
) -> list[dict]:
    """The four-test battery on freshly generated keys, per scenario and run."""
    check_integer("runs", runs, 1)
    check_integer("base_seed", base_seed, 0)
    check_integer("min_bits", min_bits, 1)
    rows = []
    for name in scenario_names:
        scenario = load_scenario(name) if isinstance(name, str) else name
        for run in range(runs):
            bits = key_material(scenario, seed=base_seed + run, min_bits=min_bits)
            reports = analysis.run_all_tests(bits)
            rows.append(
                {
                    "scenario": scenario.name,
                    "run": run,
                    "bits": len(bits),
                    **{rep.name: rep.p_value for rep in reports},
                    "all_pass": all(rep.passed for rep in reports),
                }
            )
    return rows


def attack_experiment(seed: int = 0, probes: int = 2048) -> dict:
    """Periodic line-of-sight blocking, CSI mode versus RSS emulation.

    Returns per-mode periodicity z-scores of the extracted bits at the
    attack period, plus a frequency-test report of the CSI-mode key.
    """
    scenario = load_scenario("attack")
    results = {}
    for mode in ("csi", "rss"):
        cfg = replace(scenario.config, probe_count=probes, rng_seed=seed)
        if mode == "rss":
            cfg = channel.rss_emulation(cfg)
        traces = channel.simulate(cfg)
        quant_a = quantizer.quantize_matrix(traces.alice.amplitude_db, scenario.alpha)
        quant_b = quantizer.quantize_matrix(traces.bob.amplitude_db, scenario.alpha)
        keep = quantizer.keep_mask(quant_a.inside, quant_b.inside, quant_a.inside.shape)
        lag = max(1, round(cfg.attack_period / channel.PROBE_INTERVAL))
        # Alice's bits on probe indices: +1/-1 where kept, 0 where dropped
        waves = list(np.where(keep, np.where(quant_a.ones, 1.0, -1.0), 0.0))
        scores = [analysis.periodicity_score(wave, lag) for wave in waves]
        key_bits = quant_a.ones[keep].astype(np.uint8)
        results[mode] = {
            "scenario": scenario.name,
            "mode": mode,
            "lag": lag,
            "periodicity_z": [float(z) for z in scores],
            "max_periodicity_z": float(np.max(scores)),
            "frequency_p": analysis.nist_frequency(key_bits).p_value
            if key_bits.size >= 100
            else None,
            "key_bits": int(key_bits.size),
            "traces": traces,
            "bit_waves": waves,
        }
    return results


def eve_independence(
    scenario: Scenario, seed: int, bits_per_stream: int = 10_000
) -> np.ndarray:
    """Per-stream Pearson correlation between Eve's guesses and Alice's bits.

    Eve's guesses read only the two DROP_LIST frames, so the session stops
    after that exchange; its streams for Alice are the reference. A guess
    and its reference share kept samples and cap, so they are equally long.
    A stream of fewer than 2 bits, or one whose guess or reference is
    constant, has no correlation and reads NaN.
    """
    check_integer("bits_per_stream", bits_per_stream, 1)
    keep = keep_rate_estimate(scenario.alpha)
    n = _probe_count(bits_per_stream * 1.3, keep, scenario.alpha, scenario.config.m)
    cfg = replace(scenario.config, probe_count=n, rng_seed=seed)
    traces = channel.simulate(cfg)
    params = protocol.ProtocolParams(alpha=scenario.alpha, key_length=bits_per_stream)
    link = protocol.Link()
    streams_a, _ = protocol.exchange_drop_lists(traces, params, link)
    eve_view = protocol.EveView(
        transcript=list(link.transcript),
        trace=traces.eve,
        alpha=params.alpha,
        key_length=params.key_length,
    )
    correlations = np.full(len(streams_a), np.nan)
    for i, (guess, ref) in enumerate(zip(protocol.eve_attempt(eve_view), streams_a)):
        if len(ref) >= 2 and guess.bits.std() > 0 and ref.bits.std() > 0:
            correlations[i] = analysis.pearson(guess.bits, ref.bits)
    return correlations
