import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skece.analysis import pearson
from skece.channel import (
    TRACE_HEADER,
    CsiTrace,
    _ar1,
    _load_plain,
    _load_rows,
    _wrap_phase,
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


class TestWrapPhase:
    @staticmethod
    def np_mod_wrap(walk):
        return np.mod(walk + math.pi, 2.0 * math.pi) - math.pi

    def test_matches_np_mod_on_edge_values(self):
        turns = np.array([1.0, 2.0, 3.0, 7.0, 1e6, 2.0**40])
        edge = np.concatenate(
            [
                [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300],
                turns * 2.0 * math.pi,
                -turns * 2.0 * math.pi,
                # walk + pi lands on a multiple of 2 pi
                turns * 2.0 * math.pi - math.pi,
                -turns * 2.0 * math.pi - math.pi,
                [math.pi, -math.pi, np.nextafter(-math.pi, 0.0), np.nextafter(-math.pi, -4.0)],
            ]
        )
        expected = self.np_mod_wrap(edge)
        assert _wrap_phase(edge.copy()).tobytes() == expected.tobytes()

    def test_matches_np_mod_on_walks(self):
        # 1.2M values of the random walks simulate wraps, from 40 seeds
        for seed in range(40):
            rng = np.random.default_rng(seed)
            walk = rng.uniform(-math.pi, math.pi, (30, 1)) + np.cumsum(
                rng.normal(0.0, 0.1 * (1 + seed % 5), (30, 1000)), axis=1
            )
            expected = self.np_mod_wrap(walk)
            assert _wrap_phase(walk).tobytes() == expected.tobytes()


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
        assert cfg.m == 1
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

    def test_a_nan_phase_equals_itself(self):
        t = CsiTrace("alice", np.array([0.0]), np.zeros((1, 1)), np.array([[np.nan]]))
        assert t == t
        assert hash(t) == hash(t)
        u = CsiTrace("alice", np.array([0.0]), np.zeros((1, 1)), np.array([[0.0]]))
        assert t != u

    def test_compares_times_without_subtracting_them(self):
        # a difference overflows on the first pair and is nan, never <= 0,
        # on the repeated infinity
        far = CsiTrace("alice", np.array([-1e308, 1.7e308]), np.zeros((1, 2)), np.zeros((1, 2)))
        assert far.n == 2
        with pytest.raises(ConfigError, match="strictly increasing"):
            CsiTrace("alice", np.array([np.inf, np.inf]), np.zeros((1, 2)), np.zeros((1, 2)))

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


def csv_writer_reference(trace, path):
    """``save_trace`` as the ``csv.writer`` code wrote it, the reference for its bytes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for k in range(trace.n):
            t = repr(float(trace.times[k]))
            for i in range(trace.m):
                writer.writerow(
                    [
                        t,
                        i,
                        repr(float(trace.amplitude_db[i, k])),
                        repr(float(trace.phase_rad[i, k])),
                    ]
                )


# signed zeros, subnormals, the float extremes and values repr writes with an exponent
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-300, -1e300,
    1.7976931348623157e308, 1e16, 1.5e-05, 0.0001, 123456789.125, 0.1,
]


def floats(allow_infinity=False):
    return st.one_of(
        st.sampled_from(EDGE_FLOATS),
        st.floats(allow_nan=False, allow_infinity=allow_infinity),
    )


@st.composite
def traces(draw, max_m=4, max_n=6):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    times = sorted(draw(st.lists(floats(), min_size=n, max_size=n, unique=True)))
    amp = draw(st.lists(floats(), min_size=m * n, max_size=m * n))
    phase = draw(st.lists(floats(allow_infinity=True), min_size=m * n, max_size=m * n))
    return CsiTrace(
        party=draw(st.sampled_from(["alice", "bob", "eve"])),
        times=np.array(times),
        amplitude_db=np.array(amp).reshape(m, n),
        phase_rad=np.array(phase).reshape(m, n),
    )


def arrays(trace: CsiTrace):
    return trace.times, trace.amplitude_db, trace.phase_rad


def bitwise_equal(a: CsiTrace, b: CsiTrace) -> bool:
    """Same party and the same float bits, signed zeros and NaNs included."""
    return a.party == b.party and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(arrays(a), arrays(b))
    )


def same_load(a: CsiTrace, b: CsiTrace) -> bool:
    """Bitwise equal and laid out alike in memory, as two loaders of one file must be."""
    return bitwise_equal(a, b) and all(
        x.strides == y.strides for x, y in zip(arrays(a), arrays(b))
    )


def numpy_path(path, party):
    with open(path, "rb") as fh:
        return _load_plain(fh.readline(), fh.read(), party)


def row_parser(path, party):
    return _load_rows(path.read_bytes(), party)


def outcome(load, path):
    try:
        return load(path, "bob")
    except Exception as exc:  # the two parsers must fail alike, whatever the exception
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    # module scope: Hypothesis reruns a test body many times within one fixture
    return tmp_path_factory.mktemp("trace_io")


class TestTraceFileFormat:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(trace=traces())
    def test_round_trip_and_bytes_match_the_csv_writer(self, trace, work_dir):
        path, reference = work_dir / "trace.csv", work_dir / "reference.csv"
        save_trace(trace, path)
        csv_writer_reference(trace, reference)
        assert path.read_bytes() == reference.read_bytes()
        loaded = load_trace(path, party=trace.party)
        assert loaded == trace
        assert bitwise_equal(loaded, trace)
        # the numpy path reads every file save_trace writes, as the row parser does
        assert same_load(numpy_path(path, trace.party), row_parser(path, trace.party))

    def test_header_only_file_is_refused_without_a_warning(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,subcarrier,amplitude_db,phase_rad\r\n\r\n", newline="")
        with pytest.raises(TraceFormatError, match="line 2: trace file contains no data rows"):
            load_trace(path)

    @pytest.mark.parametrize(
        "body",
        [
            '"0.0",0,10.0,0.0\r\n',  # quoted field
            "0.0,0,1_0.5,0.0\r\n",  # digit underscore
            "0.0,\u0660,10.0,0.0\r\n",  # non-ASCII digit
            "0.0,1,10.0,0.0\r\n0.0,0,11.0,0.5\r\n",  # subcarriers out of order
            "0.0,0,10.0,0.0\r1.0,0,11.0,0.5\r",  # lone carriage returns
        ],
    )
    def test_files_the_numpy_path_refuses_still_load(self, body, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,subcarrier,amplitude_db,phase_rad\r\n" + body, newline="")
        assert numpy_path(path, "alice") is None
        assert same_load(load_trace(path), row_parser(path, "alice"))

    @pytest.mark.parametrize(
        "body",
        [
            "0.0,0,10.0,0.0\r\ninf,0,11.0,0.5\r\n",  # non-finite time
            "0.0,0,nan,0.0\r\n",  # non-finite amplitude
            "0.0,-1,10.0,0.0\r\n",  # negative subcarrier
            "0.0,0,10.0,0.0\r\n0.0,0,11.0,0.5\r\n",  # duplicate subcarrier
            "0.0,0,1.0,0.0\r\n0.0,1,1.0,0.0\r\n1.0,0,1.0,0.0\r\n",  # uneven probes
            # the time changes inside the second probe
            "0.0,0,1.0,0.0\r\n0.0,1,1.0,0.0\r\n1.0,0,1.0,0.0\r\n2.0,1,1.0,0.0\r\n",
            "1.0,0,10.0,0.0\r\n0.5,0,11.0,0.5\r\n",  # decreasing time
            "0.0,0,10.0,0.0,1\r\n",  # five columns
            "0.0,0,10.0,0.0\x1c\r\n",  # numpy strips \x1c around a number, float() does not
        ],
    )
    def test_refused_files_raise_the_row_parsers_error(self, body, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,subcarrier,amplitude_db,phase_rad\r\n" + body, newline="")
        got = outcome(load_trace, path)
        assert got[0] is TraceFormatError
        assert got == outcome(row_parser, path)

    def test_field_over_the_csv_size_limit_is_refused_as_before(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "time,subcarrier,amplitude_db,phase_rad\r\n0.0,0,10." + "0" * 80 + ",0.0\r\n",
            newline="",
        )
        limit = csv.field_size_limit(64)
        try:
            with pytest.raises(csv.Error, match="field larger than field limit"):
                load_trace(path)
        finally:
            csv.field_size_limit(limit)


# replacement fields: valid, refused by both parsers, or read only by float()/int()
FIELD_EDITS = [
    "", " ", "x", "0", "1", "2", "-1", "-0", "+2", " 3 ", "\t4", "1.0", "0.5", "-0.0",
    "nan", "-nan", "inf", "-inf", "1e400", "-1e308", "5e-324", "1e16",
    "99999999999999999999", "1_0", "0x1p3", "\u0661", "\u30001", '"1"', '"0.5"',
    "3\x1c", "\x0c5", "\x00", "1,2", "1\r2", "#1",
]


@st.composite
def damaged_files(draw) -> bytes:
    trace = draw(traces(max_m=3, max_n=4))
    times, amp, phase = (x.tolist() for x in arrays(trace))
    lines = [",".join(TRACE_HEADER)] + [
        f"{times[k]!r},{i},{amp[i][k]!r},{phase[i][k]!r}"
        for k in range(trace.n)
        for i in range(trace.m)
    ]
    ops = ["delete", "swap", "duplicate", "edit", "quote", "retime", "nonfinite", "insert"]
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(ops))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if op == "insert" or not lines:
            lines.insert(i, draw(st.sampled_from(["", " ", "\t", "0.0,0,1.0,0.0"])))
        elif op == "delete":
            del lines[i]
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            fields = lines[i].split(",")
            if op == "retime":
                k, value = 0, repr(draw(st.one_of(st.sampled_from(times), floats())))
            elif op == "nonfinite":
                k = draw(st.sampled_from([0, 2, 3]))
                value = draw(st.sampled_from(["nan", "inf", "-inf", "1e400"]))
            else:
                k = draw(st.integers(0, len(fields) - 1))
                value = f'"{fields[k]}"' if op == "quote" else draw(st.sampled_from(FIELD_EDITS))
            fields[min(k, len(fields) - 1)] = value
            lines[i] = ",".join(fields)
    ending = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    data = (ending.join(lines) + draw(st.sampled_from([ending, ""]))).encode("utf-8")
    if draw(st.integers(0, 9)) == 5:  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


class TestLoaderMatchesTheRowParser:
    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(data=damaged_files())
    def test_same_trace_or_same_error(self, data, work_dir):
        path = work_dir / "damaged.csv"
        path.write_bytes(data)
        got, expected = outcome(load_trace, path), outcome(row_parser, path)
        if isinstance(expected, CsiTrace):
            assert isinstance(got, CsiTrace) and same_load(got, expected)
        else:
            assert got == expected
