"""Golden SHA-256 digests of the trace-driven pipeline.

Each digest pins, byte for byte, what the quantizer feeds into the rest of
the pipeline: transcripts and keys of full sessions for presets A-F, the
eavesdropper's guesses for those sessions and their correlations with
Alice's bits for one preset, key material for one preset,
the attack experiment's bit waves and one alpha sweep. A change to the
thresholds, the drop lists, the kept indices, the bit order or the length
cap changes a digest. The digests were taken from the per-stream quantizer
that preceded the matrix quantizer. Further digests pin the bytes of the
three trace files ``save_trace`` writes for one session of every bundled
scenario and of the README's custom one; C's was taken from the
``csv.writer`` writer that preceded the chunked one.

The (C, 256) sessions recombine, and their rounds were pinned again when
``recombine.plan`` went from one generator per stream to one per round. The
transcripts up to their first RECOMB_SEED frame still hash to a digest taken
before, and every round's tag and verdict and the keys are checked against
the reference picks of ``test_recombine``.

The session digests were taken while DROP_LIST frames carried column
indices. Transcripts reach them through ``test_recombine._legacy``, which
re-encodes each frame's drop mask in that index format; one more digest per
test pins the frames as they travel now, as drop masks.
"""

import hashlib
import json
from functools import lru_cache

import numpy as np
import pytest

from skece import channel, experiments, protocol
from test_recombine import (
    _legacy,
    assert_rounds_follow_reference,
    session_streams,
    through_first_seed,
)

SEEDS = (0, 1, 2)


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "big"))
        h.update(chunk)
    return h.hexdigest()


def _bits(stream) -> bytes:
    return b"-" if stream is None else stream.bits.tobytes()


def _session_inputs(preset: str, key_length: int):
    scenario = experiments.load_scenario(preset)
    for seed in SEEDS:
        traces = channel.simulate(scenario.with_seed(seed).config)
        params = protocol.ProtocolParams(
            alpha=scenario.alpha, key_length=key_length, rng_seed=seed
        )
        yield traces, params


@lru_cache(maxsize=None)
def _sessions(preset: str, key_length: int):
    return [
        protocol.run_key_agreement(traces, params)
        for traces, params in _session_inputs(preset, key_length)
    ]


SESSION_DIGESTS = {
    ("A", 128): "a7e5c771855705e308dc7a620f1399e62d02986ef3bb93e0aebfb37f66a92ebf",
    ("B", 128): "8a35d7b917a4d0cb68a168956ebacae69d95ec6162e584c71678249ecf89473a",
    ("C", 128): "eacfdf4ced027424932ad08b80b015879fb9b8e7771fca958c3fe85223cfcee7",
    ("D", 128): "eacfdf4ced027424932ad08b80b015879fb9b8e7771fca958c3fe85223cfcee7",
    ("E", 128): "4cc8d34c46b06f053a32830a26b3031fa2d217efed2cd79eaa2f6e016d6de6b8",
    ("F", 128): "4944875062ce34ed2c2fbb68eee12322583110e300250a8ed237ea53dcc9dd36",
    # no stream reaches 256 bits, so these sessions recombine
    ("C", 256): "d44e78a934418586dc5e81155b1d73a4f38104a3497b529de59a345a60e7d21b",
}

EVE_DIGESTS = {
    ("A", 128): "7f30e5f1910a006585ac0583f903d6d4a4af854b275e54267a80a5c35401afe9",
    ("B", 128): "d9f595b7528307d115286940e345c153ef452d0c787b8bdb5d535d85eba5bd94",
    ("C", 128): "b188fe0422c9baf778e95223eaeff04cb93917769c81c41a1a9b1d6aac41786a",
    ("D", 128): "b188fe0422c9baf778e95223eaeff04cb93917769c81c41a1a9b1d6aac41786a",
    ("E", 128): "986bf076d1057a7fcac7f3d3bbfd2075046925b7c2f149d59710a366f169e6cf",
    ("F", 128): "53068a759d5180278a7195490b2821a89fd6b44c3b2df9d5626e1f7e0731ce31",
    ("C", 256): "9883bd78326429149322b9c3ad2c3b61f93afeb1654270655ea61d89bf7a8700",
}


# the same sessions with their DROP_LIST frames as they travel
BITMAP_SESSION_DIGESTS = {
    ("A", 128): "473c5ad72b471c8f10ee2773fda7c124067de75ea81c46ff3ad8da32d751c095",
    ("B", 128): "5068798e3579e8e4aa4645b77e2a8904ab03239a6a495f8afbe6b44ecf64130c",
    ("C", 128): "87be126d04fba02bc6fb850d8b3ce51ecd1c4940eb7536801d41aa253adfc0c2",
    ("D", 128): "87be126d04fba02bc6fb850d8b3ce51ecd1c4940eb7536801d41aa253adfc0c2",
    ("E", 128): "26da1de5c2ebbd89a8677080f8ae6467201b1d4fb00ab1c8cea9bcd768c2ee40",
    ("F", 128): "fbd1d0371daf8408cde21e3a855e1276e1389fa3513c5af1ed852a73ddd8fb9d",
    ("C", 256): "173b9a1e185eb40a51e72470cd59e6478e98a83a79088a5aceb0b255c8f5e996",
}


def _session_digest(case, transcript) -> str:
    chunks = []
    for result, _ in _sessions(*case):
        chunks += [
            protocol.transcript_to_jsonl(transcript(result.messages)).encode("utf-8"),
            _bits(result.key),
            _bits(result.peer_key),
            str(result.matched_via).encode("ascii"),
        ]
    return _sha(chunks)


@pytest.mark.parametrize("case", sorted(SESSION_DIGESTS))
def test_session_transcripts_and_keys(case):
    assert _session_digest(case, _legacy) == SESSION_DIGESTS[case]
    assert _session_digest(case, list) == BITMAP_SESSION_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(EVE_DIGESTS))
def test_eve_guesses(case):
    chunks = []
    for _, eve_view in _sessions(*case):
        chunks += [_bits(s) for s in protocol.eve_attempt(eve_view)]
    assert _sha(chunks) == EVE_DIGESTS[case]


def test_eve_independence_correlations():
    cors = experiments.eve_independence(
        experiments.load_scenario("C"), seed=7, bits_per_stream=2000
    )
    assert cors.dtype == np.float64 and cors.shape == (30,)
    assert hashlib.sha256(cors.tobytes()).hexdigest() == (
        "fdc30cf847e2b7d7c2609f56a8f99fc5cff1cc70c9e7d7e2ccaf73c8c141f39b"
    )


def test_recombining_sessions_reach_diff_vector():
    for result, _ in _sessions("C", 256):
        assert protocol.MsgType.DIFF_VECTOR in [m.msg_type for m in result.messages]


def test_recombining_sessions_up_to_their_first_round():
    def digest(transcript):
        return _sha(
            protocol.transcript_to_jsonl(transcript(through_first_seed(result.messages))).encode()
            for result, _ in _sessions("C", 256)
        )

    assert digest(_legacy) == "c4e3e8647bafc3c630cdfbfab0aa684a9e0640254dfe2232c16522698779cba2"
    assert digest(list) == "7a7683688658da4e46f1127d935d13d4da7df8bef78fc48df24ac1737281a01c"


def test_recombining_sessions_follow_the_reference_picks():
    sessions = zip(_sessions("C", 256), _session_inputs("C", 256))
    for (result, _), (traces, params) in sessions:
        assert result.matched_via == "recombination"
        assert_rounds_follow_reference(result, *session_streams(traces, params), params)


def test_key_material():
    bits = experiments.key_material(experiments.load_scenario("A"), seed=6, min_bits=2000)
    assert _sha([bits.bits.tobytes()]) == (
        "3845e69f543fa07c384560faaa859d5208bb189bb3953793b8c026e0d36856db"
    )


def test_attack_bit_waves():
    results = experiments.attack_experiment(seed=3, probes=256)
    chunks = []
    for mode in ("csi", "rss"):
        chunks += [np.asarray(w, dtype=np.float64).tobytes() for w in results[mode]["bit_waves"]]
        chunks.append(str(results[mode]["key_bits"]).encode("ascii"))
    assert _sha(chunks) == (
        "c1c12f798fecafed8370c87b396141c6acd7cc9ff3161d2f3434ffbeafce1da8"
    )


def test_alpha_sweep_rows():
    rows = experiments.alpha_sweep(
        experiments.load_scenario("C"), [0.0, 0.2, 0.4, 0.7, 1.0], trials=3, base_seed=7
    )
    assert _sha([repr(rows).encode("ascii")]) == (
        "e4217b287da026da9e7bc183b3b1e9670f3ee12659a70a0aac5526ccaad844a7"
    )


# the custom scenario file of the README
README_SCENARIO = {
    "name": "mine",
    "alpha": 0.4,
    "config": {"m": 30, "probe_count": 300, "noise_std": 0.5, "rng_seed": 1},
}

# C, then every other bundled scenario at seed 0 and the README's scenario at
# its own seed; all but C's were taken from the simulator that still read the
# probe timing, drift correlation, base amplitude and attack depth from
# ScenarioConfig fields
TRACE_FILE_DIGESTS = {
    "C": "7429ceabb968598e3c16c466d51b4b23b524cf90c64930f721dae4f85266c5b5",
    "A": "396b84b6e8229424972dbacecd9e6570b52fa2e8dc66c3ae7e4208156ce745ba",
    "B": "34fde9293a126581c2aac727cc519265c3ae09fa3f1f056c97893f57bf15b691",
    "D": "7429ceabb968598e3c16c466d51b4b23b524cf90c64930f721dae4f85266c5b5",
    "E": "3551eca6b4d67d29e20dc63bcc4bfbca6e26e97ac3abc8b66c8fa78540df7aa1",
    "F": "403e27e35e6acedd9757789ab5aa46b985811ac4fbd32b2a2bf2e89562349f14",
    "attack": "ed97c654fbb189d119634242a336f2c5427b2556b27679a9eb228d03632e73ed",
    "readme": "c01bc385147b7bfc8034c5267e975eefaeae503edf97d2daa7ed5881958f03fd",
}


@pytest.mark.parametrize("name", list(TRACE_FILE_DIGESTS))
def test_trace_file_bytes(name, tmp_path):
    if name == "readme":
        path = tmp_path / "mine.json"
        path.write_text(json.dumps(README_SCENARIO), encoding="utf-8")
        config = experiments.load_scenario(str(path)).config
    else:
        config = experiments.load_scenario(name).with_seed(0).config
    traces = channel.simulate(config)
    chunks = []
    for party in ("alice", "bob", "eve"):
        path = tmp_path / f"{party}.csv"
        channel.save_trace(getattr(traces, party), path)
        chunks.append(path.read_bytes())
    assert _sha(chunks) == TRACE_FILE_DIGESTS[name]
