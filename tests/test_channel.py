import copy
import csv
import io
import math
import pickle
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skece import channel
from skece.analysis import pearson
from skece.channel import (
    ATTACK_DEPTH,
    BASE_AMPLITUDE_DB,
    HALF_DUPLEX_OFFSET,
    PROBE_INTERVAL,
    TRACE_HEADER,
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
    def test_noiseless_reciprocity_with_small_offset(self):
        # the latent state is held during one probe exchange, so a few ms of
        # skew alone does not break value equality
        traces = simulate(small_config(noise_std=0.0))
        assert np.array_equal(traces.alice.amplitude_db, traces.bob.amplitude_db)
        assert np.array_equal(traces.alice.times, np.arange(60) * PROBE_INTERVAL)
        assert np.array_equal(traces.bob.times, traces.alice.times + HALF_DUPLEX_OFFSET)
        assert HALF_DUPLEX_OFFSET < PROBE_INTERVAL

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

    def test_process_spread_ordering_per_step_variance(self):
        static = simulate(small_config(process_std=2.0, probe_count=4000))
        mobile = simulate(small_config(process_std=5.0, probe_count=4000))
        var_static = np.var(np.diff(static.alice.amplitude_db, axis=1))
        var_mobile = np.var(np.diff(mobile.alice.amplitude_db, axis=1))
        assert var_mobile > var_static

    def test_attack_wave_shifts_blocked_probes(self):
        cfg = small_config(
            probe_count=400,
            attack_period=2.0,
            noise_std=0.0,
            process_std=0.0,
            drift_std=0.0,
        )
        traces = simulate(cfg)
        blocked = np.mod(traces.alice.times, 2.0) < 1.0
        amp = traces.alice.amplitude_db[0]
        assert np.allclose(amp[blocked], BASE_AMPLITUDE_DB - ATTACK_DEPTH)
        assert np.allclose(amp[~blocked], BASE_AMPLITUDE_DB)

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
            dict(attack_period=0.0),
            dict(noise_std=math.nan),
            dict(eve_correlation=math.nan),
            dict(attack_period=math.nan),
            dict(process_std=math.nan),
            dict(drift_std=math.nan),
            dict(noise_std=math.inf),
            dict(process_std=math.inf),
            dict(drift_std=math.inf),
            dict(attack_period=math.inf),
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        (name,) = overrides
        with pytest.raises(ConfigError, match=f"^{name} must"):
            small_config(**overrides)

    @pytest.mark.parametrize(
        "name", ["noise_std", "eve_correlation", "attack_period", "process_std", "drift_std"]
    )
    @pytest.mark.parametrize("value", ["0.3", True, [0.3], 0.3j])
    def test_float_fields_must_be_real_numbers(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be a real number"):
            small_config(**{name: value})

    def test_none_unsets_only_attack_period(self):
        assert small_config(attack_period=None).attack_period is None
        for name in ("noise_std", "eve_correlation", "process_std", "drift_std"):
            with pytest.raises(ConfigError, match=f"{name} must be a real number"):
                small_config(**{name: None})
        assert small_config(noise_std=np.float32(0.5), eve_correlation=0).noise_std == 0.5


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

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_a_pickled_copy_stays_read_only(self, protocol):
        t = simulate(small_config())
        alice = pickle.loads(pickle.dumps(t.alice, protocol=protocol))
        with pytest.raises(ValueError, match="read-only"):
            alice.amplitude_db[0, 0] = np.nan
        for field in ("times", "amplitude_db", "phase_rad"):
            assert not getattr(alice, field).flags.writeable, field
        assert alice == t.alice

    def test_a_deep_copy_stays_read_only(self):
        t = CsiTrace("alice", np.array([0.0, 1.0]), np.zeros((1, 2)), np.zeros((1, 2)))
        dup = copy.deepcopy(t)
        assert dup == t
        with pytest.raises(ValueError, match="read-only"):
            dup.times[0] = 5.0


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


def refused_line(path) -> int:
    """The line ``load_trace`` names in the TraceFormatError it must raise."""
    with pytest.raises(TraceFormatError) as info:
        load_trace(path)
    assert str(info.value).startswith(f"line {info.value.line}: ")
    return info.value.line


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
        # times are one contiguous vector, each matrix a C-ordered (n, m) one transposed
        assert loaded.times.strides == (8,)
        assert loaded.amplitude_db.strides == loaded.phase_rad.strides == (8, 8 * trace.m)

    def test_header_only_file_is_refused_without_a_warning(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,subcarrier,amplitude_db,phase_rad\r\n\r\n", newline="")
        with pytest.raises(TraceFormatError, match="line 2: trace file contains no data rows"):
            load_trace(path)

    def test_empty_lines_after_the_last_row_and_a_last_row_without_an_ending_load(self, tmp_path):
        path = tmp_path / "t.csv"
        for body in ["0.0,0,1.0,0.0\r\n1.0,0,2.0,0.0\r\n\r\n\n", "0.0,0,1.0,0.0\n1.0,0,2.0,0.0"]:
            path.write_text("time,subcarrier,amplitude_db,phase_rad\r\n" + body, newline="")
            assert load_trace(path).amplitude_db.tolist() == [[1.0, 2.0]]

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
    def test_dialects_save_trace_does_not_write_are_refused(self, body, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,subcarrier,amplitude_db,phase_rad\r\n" + body, newline="")
        assert refused_line(path) == 2

    @pytest.mark.parametrize(
        "body, line, rule",
        [
            ("0.0,0,10.0,0.0\r\ninf,0,11.0,0.5\r\n", 3, "time is not finite"),
            ("0.0,0,nan,0.0\r\n", 2, "amplitude is not finite"),
            ("0.0,-1,10.0,0.0\r\n", 2, "expected subcarrier 0 at t=0.0, got -1"),
            ("0.0,0,10.0,0.0\r\n0.0,0,11.0,0.5\r\n", 3, "expected subcarrier 1 at t=0.0, got 0"),
            (
                "0.0,0,1.0,0.0\r\n0.0,1,1.0,0.0\r\n1.0,0,1.0,0.0\r\n",
                4,
                "probe at t=1.0 has 1 of 2 subcarriers",
            ),
            (
                "0.0,0,1.0,0.0\r\n0.0,1,1.0,0.0\r\n1.0,0,1.0,0.0\r\n2.0,1,1.0,0.0\r\n",
                5,
                "time changes from 1.0 to 2.0 after 1 of 2 subcarriers",
            ),
            ("1.0,0,10.0,0.0\r\n0.5,0,11.0,0.5\r\n", 3, "time 0.5 does not increase past 1.0"),
            ("0.0,0,10.0,0.0,1\r\n", 2, "got '0.0,0,10.0,0.0,1'"),
            # numpy reads \x1c around a number as a blank
            ("0.0,0,10.0,0.0\x1c\r\n", 2, "byte 0x1c is neither printable ASCII"),
            # loadtxt skips an empty line, so one would shift every later row's line
            ("0.0,0,1.0,0.0\r\n\r\n1.0,0,1.0,0.0\r\n", 3, "empty line before the last row"),
            ("\n0.0,0,1.0,0.0\n", 2, "empty line before the last row"),
            ("0.0,0,1.0,0.0\r\n1.0,0,1.0,0.0\r", 3, "byte 0x0d is neither"),
            ("0.0,0,1.0,0.0\r\n1.0,0,1.0,\x7f0.0\r\n", 3, "got '1.0,0,1.0,\\x7f0.0'"),
            ("0.0,0,1.0,0.0\r\n1.0,0,1.0,\u00e90.0\r\n", 3, "byte 0xc3 is neither"),
            # the first line at fault is named, whichever rule it breaks
            ("0.0,0,1.0,0.0\r\n0.0,0,1.0,0.0\r\nx\r\n\x00\r\n", 3, "expected subcarrier 1"),
            ("0.0,0,1.0,0.0\r\nx\r\n\x00\r\n", 3, "got 'x'"),
        ],
    )
    def test_refused_files_name_the_line_and_the_rule(self, body, line, rule, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,subcarrier,amplitude_db,phase_rad\r\n" + body, newline="")
        with pytest.raises(TraceFormatError, match=f"^line {line}: .*{re.escape(rule)}"):
            load_trace(path)

    def test_a_fault_past_the_first_chunk_names_its_line(self, tmp_path):
        chunk = channel._CHUNK_ROWS
        trace = simulate(small_config(m=3, probe_count=chunk)).alice  # three chunks of rows
        path = tmp_path / "t.csv"
        save_trace(trace, path)
        lines = path.read_bytes().split(b"\r\n")
        bad = 2 * chunk + 100  # lines[bad] is line bad + 1, in the third chunk
        cases = [
            ({bad: b"x"}, bad + 1),
            ({bad: b"x", chunk: lines[chunk + 1]}, chunk + 1),  # a row copied over the one before
            ({bad: b"x", bad + 500: b"\x00"}, bad + 1),
            ({bad: b"x", bad - 900: b""}, bad - 899),
        ]
        for edits, line in cases:
            damaged = list(lines)
            for index, text in edits.items():
                damaged[index] = text
            path.write_bytes(b"\r\n".join(damaged))
            assert refused_line(path) == line


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


ROW_DTYPE = np.dtype(
    [("time", "f8"), ("subcarrier", "i8"), ("amplitude_db", "f8"), ("phase_rad", "f8")]
)
HEADER = ",".join(TRACE_HEADER).encode("ascii")


def strict_reference(data: bytes, party: str):
    """The trace file format read one line at a time: the trace, or the line at fault.

    ``np.loadtxt`` reads each line's numbers on its own; the probe rules are
    checked in plain Python as each row arrives.
    """
    header, newline, body = data.partition(b"\n")
    if header + newline not in (HEADER, HEADER + b"\n", HEADER + b"\r\n"):
        return 1
    pieces = body.split(b"\n")
    # a line feed ends every piece but the last, with the \r before it
    lines = [piece.removesuffix(b"\r") for piece in pieces[:-1]] + pieces[-1:]
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        return 2
    rows, m = [], None
    for k, line in enumerate(lines):
        if not line or not all(0x20 <= byte < 0x7F for byte in line):
            return k + 2
        try:
            (row,) = np.loadtxt(
                io.BytesIO(line), delimiter=",", comments=None, ndmin=1, dtype=ROW_DTYPE
            ).tolist()
        except ValueError:
            return k + 2
        t, sub, amp, _ = row
        if not (math.isfinite(t) and math.isfinite(amp)):
            return k + 2
        if m is None and rows and t != rows[0][0]:
            m = k  # the first change of time ends the first probe
        place = k if m is None else k % m
        if place and t != rows[k - place][0]:
            return k + 2
        if not place and rows and not t > rows[k - m][0]:
            return k + 2
        if sub != place:
            return k + 2
        rows.append(row)
    m = m or len(rows)
    if len(rows) % m:
        return len(rows) - len(rows) % m + 2
    times, _, amp, phase = (np.array(column) for column in zip(*rows))
    return CsiTrace(
        party=party,
        times=times[::m].copy(),
        amplitude_db=amp.reshape(-1, m).T,
        phase_rad=phase.reshape(-1, m).T,
    )


class TestLoaderMatchesAStrictReference:
    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(data=damaged_files(), chunk_rows=st.sampled_from([1, 2, 3, 4096]))
    def test_same_trace_or_same_line(self, data, chunk_rows, work_dir):
        path = work_dir / "damaged.csv"
        path.write_bytes(data)
        expected = strict_reference(data, "bob")
        # small chunks put a chunk boundary before, at and after the line at fault
        with mock.patch.object(channel, "_CHUNK_ROWS", chunk_rows):
            if isinstance(expected, CsiTrace):
                assert same_load(load_trace(path, "bob"), expected)
            else:
                with pytest.raises(TraceFormatError) as info:
                    load_trace(path, "bob")
                assert info.value.line == expected
