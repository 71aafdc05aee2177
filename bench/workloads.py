"""The four workloads: inputs, the timed operation, and its output checks.

Each workload exposes ``prepare(i)`` (untimed: the i-th operation's inputs),
``op(inputs)`` (timed: calls into skece only through module attributes, so
the traced run's wrappers see every call), ``check(inputs, output)``
(untimed: returns a failure reason or None, raises ``CheckFailed`` on a
wrong output) and ``counts(output)`` (per-operation counters for the traced
run). A round is ``round_size`` consecutive operations; runs attempt whole
rounds only, so every round attempts the same operations in the same mix.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
from skece import analysis, cascade, channel, experiments, protocol
from skece.quantizer import BitStream

import checks
from checks import require

PRESETS = "ABCDEF"
KEY_BITS = 128
KEY_MATERIAL_BITS = 10_000
CSV_HEADER = "time,subcarrier,amplitude_db,phase_rad"

# The recombination pool is drawn from this fixed seed, not from --seed:
# about half of its sessions end in a silent key disagreement, and only a
# pool that is the same for every seed keeps that count an exact share of
# the operations attempted.
RECOMBINATION_POOL_SEED = 0x5EC0
RECOMBINATION_POOL = 20
GRID_STREAMS, GRID_BITS = 30, 300
EXTRA_FLIPS = (0, 15)  # on top of one flip per stream: 30-45 flips in all


def derive_seed(*words: int) -> int:
    """A 63-bit seed for one operation, derived from the run seed and indices."""
    state = np.random.SeedSequence(list(words)).generate_state(2, np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


def messages(result) -> list:
    return [(m.msg_type.name, m.direction, m.payload) for m in result.messages]


def session_counts(result) -> dict:
    return {
        "protocol.messages": result.counters.total_messages,
        "protocol.wire_bytes": result.counters.total_bytes,
        "recombine.rounds": result.rounds_used,
    }


def key_outcome(result) -> str | None:
    """Failure reason of a session seen from outside, or None if both keys agree."""
    if not result.succeeded:
        return "no_key"
    if not np.array_equal(result.key.bits, result.peer_key.bits):
        return "silent_disagreement"
    return None


def check_stream_tags(result, ref_a, gamma: float) -> tuple[int, list[bytes]]:
    """The aggregated TAGS message carries the reference tag of every stream."""
    tag_messages = [m for m in messages(result) if m[0] == "TAGS"]
    require(bool(tag_messages), "transcript has no TAGS message")
    _, direction, payload = tag_messages[0]
    require(direction == protocol.A_TO_B, "stream tags must travel from Alice")
    r, tags = checks.parse_tags(payload)
    require(r == checks.checking_length(gamma), f"checking length {r} for gamma={gamma}")
    require(len(tags) == len(ref_a), f"{len(tags)} tags for {len(ref_a)} streams")
    for j, bits in enumerate(ref_a):
        require(tags[j] == checks.tag(bits, r), f"stream {j}: tag differs from SHA-1 reference")
    return r, tags


class StreamSession:
    """Simulate a 30x300 session per preset A-F, agree on a 128-bit key."""

    name = "stream_session"
    round_size = len(PRESETS)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.scenarios = {p: experiments.load_scenario(p) for p in PRESETS}

    def prepare(self, i: int):
        scenario = self.scenarios[PRESETS[i % len(PRESETS)]]
        cfg = replace(scenario.config, rng_seed=derive_seed(self.seed, 1, i))
        params = protocol.ProtocolParams(
            alpha=scenario.alpha, key_length=KEY_BITS, rng_seed=derive_seed(self.seed, 2, i)
        )
        return cfg, params

    def op(self, inputs):
        cfg, params = inputs
        traces = channel.simulate(cfg)
        result, _ = protocol.run_key_agreement(traces, params)
        return traces, result

    def check(self, inputs, output):
        cfg, params = inputs
        traces, result = output
        sym_a = checks.quantize(traces.alice.amplitude_db, params.alpha)
        sym_b = checks.quantize(traces.bob.amplitude_db, params.alpha)
        ref_a, ref_b = checks.party_streams(sym_a, sym_b, params.key_length)
        r, tags = check_stream_tags(result, ref_a, params.gamma)
        eligible = [
            j
            for j in range(len(ref_a))
            if ref_a[j].size == params.key_length and checks.tag(ref_b[j], r) == tags[j]
        ]
        if not eligible:
            return key_outcome(result)
        pick = eligible[0]
        require(result.matched_via == f"stream:{pick}", f"picked {result.matched_via}, expected stream:{pick}")
        require(np.array_equal(result.key.bits, ref_a[pick]), "key differs from the reference stream")
        require(np.array_equal(result.peer_key.bits, ref_b[pick]), "peer key differs from Bob's reference stream")
        return key_outcome(result)

    def counts(self, output):
        return session_counts(output[1])


class RecombinationSession:
    """Every stream mismatched: difference vectors, recombination, and Cascade."""

    name = "recombination_session"
    round_size = RECOMBINATION_POOL

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.pool = [self._grid(k) for k in range(RECOMBINATION_POOL)]
        order = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        self.order = order.permutation(RECOMBINATION_POOL)
        self.cascade_offset, self.check_offset = (int(v) for v in order.integers(0, GRID_STREAMS, 2))

    @staticmethod
    def _grid(k: int):
        rng = np.random.default_rng(np.random.SeedSequence([RECOMBINATION_POOL_SEED, k]))
        a = rng.integers(0, 2, size=(GRID_STREAMS, GRID_BITS), dtype=np.uint8)
        b = a.copy()
        b[np.arange(GRID_STREAMS), rng.integers(0, GRID_BITS, GRID_STREAMS)] ^= 1
        untouched = np.flatnonzero((a == b).ravel())
        extra = int(rng.integers(EXTRA_FLIPS[0], EXTRA_FLIPS[1] + 1))
        b.ravel()[rng.choice(untouched, size=extra, replace=False)] ^= 1
        params = protocol.ProtocolParams(key_length=GRID_BITS, rng_seed=int(rng.integers(0, 2**63)))
        streams_a = [BitStream(a[j], party="alice", stream=j) for j in range(GRID_STREAMS)]
        streams_b = [BitStream(b[j], party="bob", stream=j) for j in range(GRID_STREAMS)]
        return a, b, streams_a, streams_b, params

    def prepare(self, i: int):
        grid = self.pool[self.order[i % RECOMBINATION_POOL]]
        cascade_stream = (self.cascade_offset + i) % GRID_STREAMS
        check_stream = (self.check_offset + i) % GRID_STREAMS
        cfg = cascade.CascadeConfig(
            initial_block_size=16, rounds=4, rng_seed=derive_seed(self.seed, 4, i)
        )
        return grid, cascade_stream, check_stream, cfg

    def op(self, inputs):
        (_, _, streams_a, streams_b, params), j, _, cfg = inputs
        result = protocol.reconcile_bit_streams(streams_a, streams_b, params)
        cas = cascade.cascade_reconcile(streams_a[j], streams_b[j], cfg)
        return result, cas

    def check(self, inputs, output):
        (a, b, streams_a, _, params), j, k, _ = inputs
        result, cas = output

        require(np.array_equal(streams_a[j].bits, a[j]), "Cascade changed Alice's bits")
        corrected = cas.corrected.bits
        initial = int(np.count_nonzero(b[j] != a[j]))
        flips = int(np.count_nonzero(corrected != b[j]))
        remaining = int(np.count_nonzero(corrected != a[j]))
        require(remaining == initial - flips, f"Cascade: {remaining} errors left, {initial} - {flips} expected")
        require(cas.messages_sent == len(cas.transcript), "Cascade message count disagrees with its transcript")

        check_stream_tags(result, list(a), params.gamma)
        vectors = [m for m in messages(result) if m[0] == "DIFF_VECTOR"]
        if vectors:
            require(len(vectors) == 2, f"{len(vectors)} DIFF_VECTOR messages, expected 2")
            theta, res_a, x = checks.parse_diff_vector(vectors[0][2])
            theta_b, res_b, x_b = checks.parse_diff_vector(vectors[1][2])
            require(theta == theta_b == params.theta, "DIFF_VECTOR theta differs from the parameters")
            require(len(x) == params.key_length and not x_b, "reference string X has the wrong length")
            require(checks.levenshtein(a[k], x) % theta == res_a[k], f"stream {k}: Alice's residue is wrong")
            require(checks.levenshtein(b[k], x) % theta == res_b[k], f"stream {k}: Bob's residue is wrong")
        if result.succeeded:
            require(len(result.key) == params.key_length, f"key holds {len(result.key)} bits")
        return key_outcome(result)

    def counts(self, output):
        result, cas = output
        return {
            **session_counts(result),
            "cascade.messages": cas.messages_sent,
            "cascade.bits_leaked": cas.bits_leaked,
            "cascade.converged": int(cas.converged),
        }


class KeyQuality:
    """About 10k bits of key material per preset A-F, then the NIST battery."""

    name = "key_quality"
    round_size = len(PRESETS)
    min_all_pass = 0.9

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.scenarios = {p: experiments.load_scenario(p) for p in PRESETS}
        self.runs = 0
        self.all_pass = 0

    def prepare(self, i: int):
        return self.scenarios[PRESETS[i % len(PRESETS)]], derive_seed(self.seed, 5, i)

    def op(self, inputs):
        scenario, seed = inputs
        bits = experiments.key_material(scenario, seed=seed, min_bits=KEY_MATERIAL_BITS)
        return bits, analysis.run_all_tests(bits)

    def check(self, inputs, output):
        scenario, seed = inputs
        bits, reports = output
        keep = math.erfc(scenario.alpha / math.sqrt(2.0))
        probes = max(2, math.ceil(KEY_MATERIAL_BITS * 1.35 / (scenario.config.m * keep)))
        traces = channel.simulate(replace(scenario.config, probe_count=probes, rng_seed=seed))
        ref_a, ref_b = checks.party_streams(
            checks.quantize(traces.alice.amplitude_db, scenario.alpha),
            checks.quantize(traces.bob.amplitude_db, scenario.alpha),
        )
        matched = [sa for sa, sb in zip(ref_a, ref_b) if sa.size and np.array_equal(sa, sb)]
        require(np.array_equal(bits.bits, np.concatenate(matched)), "key material differs from the matched reference streams")
        require(len(bits) >= KEY_MATERIAL_BITS, f"only {len(bits)} bits of key material")

        require([rep.name for rep in reports] == list(checks.NIST_REFERENCES), "battery order changed")
        for rep in reports:
            p = checks.NIST_REFERENCES[rep.name](bits.bits)
            require(abs(p - rep.p_value) <= 1e-9, f"{rep.name}: p={rep.p_value!r}, reference {p!r}")
        self.runs += 1
        self.all_pass += all(rep.p_value > 0.01 for rep in reports)
        return None

    def end_of_run(self):
        share = self.all_pass / max(self.runs, 1)
        require(share >= self.min_all_pass, f"only {share:.1%} of key-material runs pass all four tests")

    def counts(self, output):
        return {}


class TraceFiles:
    """Simulate preset C, write the three CSVs, read two back, agree on a key."""

    name = "trace_files"
    round_size = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.scenario = experiments.load_scenario("C")
        self.dir = work_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths = {party: self.dir / f"{party}.csv" for party in ("alice", "bob", "eve")}

    def prepare(self, i: int):
        cfg = replace(self.scenario.config, rng_seed=derive_seed(self.seed, 6, i))
        params = protocol.ProtocolParams(
            alpha=self.scenario.alpha, key_length=KEY_BITS, rng_seed=derive_seed(self.seed, 7, i)
        )
        return cfg, params

    def op(self, inputs):
        cfg, params = inputs
        traces = channel.simulate(cfg)
        for party in ("alice", "bob", "eve"):
            channel.save_trace(getattr(traces, party), self.paths[party])
        loaded = channel.PairedTraceSet(
            alice=channel.load_trace(self.paths["alice"], party="alice"),
            bob=channel.load_trace(self.paths["bob"], party="bob"),
            eve=traces.eve,
            config=traces.config,
        )
        result, _ = protocol.run_key_agreement(loaded, params)
        return traces, loaded, result

    def check(self, inputs, output):
        cfg, params = inputs
        traces, loaded, result = output
        require(loaded.alice == traces.alice, "Alice's trace changed in the file round trip")
        require(loaded.bob == traces.bob, "Bob's trace changed in the file round trip")
        for party, path in self.paths.items():
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            require(lines[0] == CSV_HEADER, f"{party}: unexpected header {lines[0]!r}")
            require(len(lines) == cfg.m * cfg.probe_count + 1, f"{party}: {len(lines)} CSV rows")
        in_memory, _ = protocol.run_key_agreement(traces, params)
        require(messages(result) == messages(in_memory), "loaded traces gave another transcript")
        return key_outcome(result)

    def counts(self, output):
        return session_counts(output[2])

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (StreamSession, RecombinationSession, KeyQuality, TraceFiles)}
