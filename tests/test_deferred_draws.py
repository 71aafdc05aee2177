"""``simulate`` draws what no session reads on first read, and those arrays
are bit for bit what drawing every array up front gives.

The reference is the simulator before the deferred draws, kept here as it
was: every draw in generator order, the phase walks wrapped by ``np.mod``.
"""

import itertools
import math
import pickle
import sys
import threading

import numpy as np
import pytest

from skece import channel, experiments, protocol
from skece.errors import ConfigError

PARTIES = ("alice", "bob", "eve")
FIELDS = ("times", "amplitude_db", "phase_rad")
DEFERRED = (
    ("alice", "phase_rad"), ("bob", "phase_rad"), ("eve", "amplitude_db"), ("eve", "phase_rad")
)


def eager_simulate(config):
    """Every array of one session, each drawn in turn as ``simulate`` once drew them."""
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
    m, n = config.m, config.probe_count
    shift = int(config.half_duplex_offset // config.probe_interval)
    steps = n + shift

    def noise():
        if not config.noise_std:
            return np.zeros((m, n))
        return rng.normal(0.0, config.noise_std, size=(m, n))

    def phase_walk():
        start = rng.uniform(-math.pi, math.pi, size=(m, 1))
        walk_steps = rng.normal(0.0, 0.1, size=(m, steps))
        walk_steps[:, 0] = 0.0
        walk = start + np.cumsum(walk_steps, axis=1)
        return np.mod(walk + math.pi, 2.0 * math.pi) - math.pi

    drift = (config.effective_drift_std, config.drift_corr)
    process = (config.effective_process_std, config.process_corr)
    drift_link = channel._ar1(rng, (steps,), *drift)
    drift_eve_own = channel._ar1(rng, (steps,), *drift)
    proc_link = channel._ar1(rng, (m, steps), *process)
    proc_eve_own = channel._ar1(rng, (m, steps), *process)
    noise_alice, noise_bob, noise_eve = noise(), noise(), noise()
    phase_link = phase_walk()
    phase_eve = phase_walk()

    rho = config.eve_correlation
    mix = math.sqrt(max(0.0, 1.0 - rho * rho))
    proc_eve = rho * proc_link + mix * proc_eve_own
    drift_eve = rho * drift_link + mix * drift_eve_own

    times_alice = np.arange(n, dtype=np.float64) * config.probe_interval
    times_bob = times_alice + config.half_duplex_offset
    latent_alice = config.base_amplitude_db + drift_link[:n] + proc_link[:, :n]
    latent_bob = (
        config.base_amplitude_db + drift_link[shift : shift + n] + proc_link[:, shift : shift + n]
    )
    latent_eve = config.base_amplitude_db + drift_eve[:n] + proc_eve[:, :n]
    if config.attack_period is not None:
        wave = (config.attack_period, config.attack_depth)
        latent_alice = latent_alice + channel._attack_wave(times_alice, *wave)
        latent_bob = latent_bob + channel._attack_wave(times_bob, *wave)

    return {
        ("alice", "times"): times_alice,
        ("alice", "amplitude_db"): latent_alice + noise_alice,
        ("alice", "phase_rad"): phase_link[:, :n],
        ("bob", "times"): times_bob,
        ("bob", "amplitude_db"): latent_bob + noise_bob,
        ("bob", "phase_rad"): phase_link[:, shift : shift + n],
        ("eve", "times"): times_alice,
        ("eve", "amplitude_db"): latent_eve + noise_eve,
        ("eve", "phase_rad"): phase_eve[:, :n],
    }


def small(**overrides):
    return channel.ScenarioConfig(**{"m": 6, "probe_count": 80, "rng_seed": 77, **overrides})


CONFIGS = {
    **{
        name: experiments.load_scenario(name).config
        for name in (*experiments.PRESET_NAMES, "attack")
    },
    # Bob samples the step two probe intervals on, so the walks run past n
    "offset_beyond_interval": small(half_duplex_offset=0.25),
    "noiseless": small(noise_std=0.0),
    "eve_correlated": small(eve_correlation=0.5),
    "eve_anticorrelated": small(eve_correlation=-0.5),
}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_reference(traces, reference, read_only=True):
    for party, field in itertools.product(PARTIES, FIELDS):
        got = getattr(getattr(traces, party), field)
        assert same_bits(got, reference[party, field]), (party, field)
        assert not (read_only and got.flags.writeable), (party, field)


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def case(request):
    config = CONFIGS[request.param]
    return config, eager_simulate(config)


class TestSameArraysAsDrawingEverything:
    def test_every_read_order(self, case):
        config, reference = case
        for order in itertools.permutations(DEFERRED):
            traces = channel.simulate(config)
            for party, field in order:
                assert same_bits(getattr(getattr(traces, party), field), reference[party, field])
            assert_matches_reference(traces, reference)

    def test_pickled_before_any_read(self, case):
        config, reference = case
        traces = channel.simulate(config)
        copy = pickle.loads(pickle.dumps(traces))
        eve_alone = pickle.loads(pickle.dumps(traces.eve))
        assert same_bits(eve_alone.phase_rad, reference["eve", "phase_rad"])
        # unpickled numpy arrays are writeable, the arrays drawn after unpickling not
        assert_matches_reference(copy, reference, read_only=False)
        assert not copy.eve.amplitude_db.flags.writeable
        assert_matches_reference(traces, reference)
        # a copy made after the draws carries them
        assert_matches_reference(pickle.loads(pickle.dumps(traces)), reference, read_only=False)

    def test_threads_reading_first_at_once(self, case):
        config, reference = case
        workers = 8
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                traces = channel.simulate(config)
                barrier = threading.Barrier(workers)
                seen = [None] * workers

                def read(i):
                    barrier.wait(timeout=30)
                    order = DEFERRED[i % 4 :] + DEFERRED[: i % 4]
                    seen[i] = {key: getattr(getattr(traces, key[0]), key[1]) for key in order}

                threads = [threading.Thread(target=read, args=(i,)) for i in range(workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                for key in DEFERRED:
                    # one draw: every reader holds the same array
                    assert all(s[key] is seen[0][key] for s in seen)
                    assert same_bits(seen[0][key], reference[key])
                assert_matches_reference(traces, reference)
        finally:
            sys.setswitchinterval(switch)


class TestDrawsOnlyWhatIsRead:
    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        walk = channel._phase_walk

        def counted(rng, shape):
            calls.append(shape)
            return walk(rng, shape)

        monkeypatch.setattr(channel, "_phase_walk", counted)
        return calls

    def test_a_session_draws_no_phase(self, walks):
        scenario = experiments.load_scenario("C")
        traces = channel.simulate(scenario.config)
        rebuilt = channel.PairedTraceSet(
            alice=traces.alice, bob=traces.bob, eve=traces.eve, config=traces.config
        )
        params = protocol.ProtocolParams(alpha=scenario.alpha, key_length=128, rng_seed=1)
        _, eve_view = protocol.run_key_agreement(rebuilt, params)
        assert eve_view.trace is traces.eve
        assert (traces.eve.m, traces.eve.n) == (scenario.config.m, scenario.config.probe_count)
        assert walks == []
        # the first read draws both walks, and no read after it draws again
        traces.eve.amplitude_db
        assert len(walks) == 2
        for party in PARTIES:
            getattr(traces, party).phase_rad
        assert len(walks) == 2

    def test_drawing_drops_the_snapshot(self):
        traces = channel.simulate(small())
        late = traces.alice._late
        assert late._inputs is not None
        traces.bob.phase_rad
        assert late._inputs is None

    def test_traces_of_another_shape_are_refused_undrawn(self, walks):
        traces = channel.simulate(small())
        other = channel.simulate(small(m=5))
        with pytest.raises(ConfigError, match="disagree"):
            channel.PairedTraceSet(
                alice=traces.alice, bob=traces.bob, eve=other.eve, config=traces.config
            )
        assert walks == []
