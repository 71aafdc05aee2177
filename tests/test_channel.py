from dataclasses import replace

import numpy as np
import pytest

from skece.analysis import pearson
from skece.channel import (
    CsiTrace,
    _ar1,
    ScenarioConfig,
    load_trace,
    rss_emulation,
    save_trace,
    simulate,
)
from skece.errors import ConfigError, TraceFormatError


def small_config(**overrides):
    base = dict(m=4, probe_count=60, rng_seed=123)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestAr1:
    @pytest.mark.parametrize("shape", [(1,), (300,), (3, 50), (2, 3, 7)])
    @pytest.mark.parametrize("corr", [0.0, 0.5, 0.99])
    def test_matches_the_vectorised_recurrence(self, shape, corr):
        std = 2.0
        z = np.random.default_rng(9).standard_normal(shape)
        expected = np.empty(shape)
        expected[..., 0] = std * z[..., 0]
        innov = std * np.sqrt(1.0 - corr * corr)
        for k in range(1, shape[-1]):
            expected[..., k] = corr * expected[..., k - 1] + innov * z[..., k]
        got = _ar1(np.random.default_rng(9), shape, std, corr)
        assert got.shape == shape
        assert np.array_equal(got, expected)

    def test_zero_std_is_silent(self):
        assert not _ar1(np.random.default_rng(0), (2, 5), 0.0, 0.9).any()


class TestSimulate:
    def test_noiseless_reciprocity(self):
        traces = simulate(small_config(noise_std=0.0, half_duplex_offset=0.0))
        assert np.array_equal(traces.alice.amplitude_db, traces.bob.amplitude_db)

    def test_noiseless_reciprocity_with_small_offset(self):
        # the latent state is held during one probe exchange, so a few ms of
        # skew alone does not break value equality
        traces = simulate(small_config(noise_std=0.0, half_duplex_offset=0.003))
        assert np.array_equal(traces.alice.amplitude_db, traces.bob.amplitude_db)
        assert np.array_equal(
            traces.bob.times, traces.alice.times + 0.003
        )

    def test_determinism(self):
        cfg = small_config(noise_std=0.4)
        t1 = simulate(cfg)
        t2 = simulate(cfg)
        assert t1.alice == t2.alice
        assert t1.bob == t2.bob
        assert t1.eve == t2.eve

    def test_seed_changes_output(self):
        t1 = simulate(small_config())
        t2 = simulate(replace(small_config(), rng_seed=124))
        assert not np.array_equal(t1.alice.amplitude_db, t2.alice.amplitude_db)

    def test_eve_independent_at_zero_correlation(self):
        cfg = small_config(m=5, probe_count=10_000, eve_correlation=0.0)
        traces = simulate(cfg)
        for i in range(traces.m):
            r = pearson(traces.alice.amplitude_db[i], traces.eve.amplitude_db[i])
            assert abs(r) < 0.05

    def test_eve_mixing_tracks_requested_correlation(self):
        cfg = small_config(m=4, probe_count=20_000, eve_correlation=0.9, noise_std=0.05)
        traces = simulate(cfg)
        for i in range(traces.m):
            r = pearson(traces.alice.amplitude_db[i], traces.eve.amplitude_db[i])
            assert abs(r - 0.9) < 0.05

    def test_mobility_ordering_per_step_variance(self):
        static = simulate(small_config(mobility="static", probe_count=4000))
        mobile = simulate(small_config(mobility="mobile", probe_count=4000))
        var_static = np.var(np.diff(static.alice.amplitude_db, axis=1))
        var_mobile = np.var(np.diff(mobile.alice.amplitude_db, axis=1))
        assert var_mobile > var_static

    def test_attack_wave_shifts_blocked_probes(self):
        cfg = small_config(
            probe_count=400,
            attack_period=2.0,
            attack_depth=4.0,
            noise_std=0.0,
            process_std=0.0,
            drift_std=0.0,
        )
        traces = simulate(cfg)
        blocked = np.mod(traces.alice.times, 2.0) < 1.0
        amp = traces.alice.amplitude_db[0]
        assert np.allclose(amp[blocked], cfg.base_amplitude_db - 4.0)
        assert np.allclose(amp[~blocked], cfg.base_amplitude_db)

    def test_rss_emulation_is_single_stream(self):
        cfg = rss_emulation(small_config())
        assert cfg.m == 1 and cfg.rss_mode
        traces = simulate(cfg)
        assert traces.m == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(m=0),
            dict(probe_count=0),
            dict(eve_correlation=1.5),
            dict(noise_std=-1.0),
            dict(probe_interval=0.0),
            dict(attack_period=0.0),
            dict(mobility="flying"),
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)


class TestCsiTraceInvariants:
    def test_rejects_non_monotone_times(self):
        with pytest.raises(ConfigError):
            CsiTrace(
                party="alice",
                times=np.array([0.0, 0.0]),
                amplitude_db=np.zeros((1, 2)),
                phase_rad=np.zeros((1, 2)),
            )

    def test_rejects_non_finite_amplitude(self):
        with pytest.raises(ConfigError):
            CsiTrace(
                party="alice",
                times=np.array([0.0, 1.0]),
                amplitude_db=np.array([[0.0, np.inf]]),
                phase_rad=np.zeros((1, 2)),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigError):
            CsiTrace(
                party="alice",
                times=np.array([0.0, 1.0, 2.0]),
                amplitude_db=np.zeros((2, 2)),
                phase_rad=np.zeros((2, 2)),
            )


class TestTraceFiles:
    def test_round_trip_reproduces_trace(self, tmp_path):
        traces = simulate(small_config(noise_std=0.3))
        path = tmp_path / "alice.csv"
        save_trace(traces.alice, path)
        loaded = load_trace(path, party="alice")
        assert loaded == traces.alice

    def test_two_row_single_subcarrier_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "time,subcarrier,amplitude_db,phase_rad\n"
            "0.0,0,10.5,0.1\n"
            "0.5,0,11.5,0.2\n"
        )
        trace = load_trace(path)
        assert trace.n == 2 and trace.m == 1
        assert trace.amplitude_db[0].tolist() == [10.5, 11.5]

    def test_decreasing_time_names_the_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "time,subcarrier,amplitude_db,phase_rad\n"
            "0.0,0,10.0,0.0\n"
            "1.0,0,10.0,0.0\n"
            "0.5,0,10.0,0.0\n"
        )
        with pytest.raises(TraceFormatError, match="line 4"):
            load_trace(path)

    def test_malformed_row_names_the_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "time,subcarrier,amplitude_db,phase_rad\n"
            "0.0,0,10.0,0.0\n"
            "1.0,zero,10.0,0.0\n"
        )
        with pytest.raises(TraceFormatError, match="line 3"):
            load_trace(path)

    def test_inconsistent_subcarrier_counts(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "time,subcarrier,amplitude_db,phase_rad\n"
            "0.0,0,10.0,0.0\n"
            "0.0,1,11.0,0.0\n"
            "1.0,0,10.0,0.0\n"
        )
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "absent.csv")

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c,d\n0,0,0,0\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            load_trace(path)

    def test_unsupported_format(self, tmp_path):
        with pytest.raises(ConfigError):
            load_trace(tmp_path / "t.bin", format="binary")
