"""Fading-channel simulation and CSI trace file ingestion.

The simulator produces paired (Alice, Bob) and eavesdropper (Eve) amplitude
traces for ``m`` OFDM subcarriers. Each subcarrier follows an independent
AR(1) process in the dB domain, stepped once per probe exchange and held
constant within one exchange, plus a shared slow drift. The channel is
reciprocal: Alice and Bob observe the same latent value at their own
timestamps (Bob's skewed by the half-duplex offset) through independent
Gaussian measurement noise. Eve observes her own AR(1) process, mixed with
the link process by the configured correlation coefficient; at the default
coefficient 0 her channel is fully independent, reflecting the rapid spatial
decorrelation of multipath fading.

An optional square-wave attenuation models an attacker periodically blocking
the line of sight; whether it dominates the quantizer depends on its depth
relative to the channel's own variation (small for the single-stream RSS
emulation, large for per-subcarrier CSI).
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, TraceFormatError

TRACE_HEADER = ["time", "subcarrier", "amplitude_db", "phase_rad"]
_HEADER_LINE = ",".join(TRACE_HEADER)
_ROW_DTYPE = np.dtype(
    [("time", "f8"), ("subcarrier", "i8"), ("amplitude_db", "f8"), ("phase_rad", "f8")]
)

# one probe exchange every PROBE_INTERVAL s; Bob reads HALF_DUPLEX_OFFSET s
# after Alice, within the same exchange
PROBE_INTERVAL = 0.1
HALF_DUPLEX_OFFSET = 0.003
DRIFT_CORR = 0.99  # lag-one correlation of the shared drift, per probe step
BASE_AMPLITUDE_DB = 20.0
ATTACK_DEPTH = 4.0  # dB of attenuation while the line of sight is blocked

# simulate peaks at about nine float64 (m, n) matrices, so a scenario is capped
# at m * probe_count samples per party: about 2 GB at 30 x 1,000,000
MAX_SAMPLES = 30_000_000

MOBILITY_PROCESS_STD = {"static": 2.0, "mobile": 5.0}
# kept small relative to the per-subcarrier variation so the shared drift
# does not imprint serial structure on the quantized bits
MOBILITY_DRIFT_STD = {"static": 0.1, "mobile": 0.25}


@dataclass(frozen=True)
class CsiTrace:
    """Amplitude/phase sequences for one party, one row per subcarrier.

    All subcarriers share the strictly increasing timestamp vector; the
    quantizer consumes amplitudes only and the phase rows are carried so
    trace files mirror real CSI records.

    A trace from ``simulate`` may leave arrays no session reads to be drawn
    on first read (see ``_LateDraws``); they are checked then as the others
    are checked here.
    """

    party: str
    times: np.ndarray
    amplitude_db: np.ndarray
    phase_rad: np.ndarray

    def __post_init__(self):
        if self.party not in ("alice", "bob", "eve"):
            raise ConfigError(f"unknown party {self.party!r}")
        times = np.asarray(self.times, dtype=np.float64)
        # simulate passes its _LateDraws in place of each array it has not
        # drawn; such an array is checked here by shape, in full once drawn
        arrays = {}
        for name in _LATE_FIELDS:
            value = self.__dict__.pop(name)
            if isinstance(value, _LateDraws):
                object.__setattr__(self, "_late", value)
            else:
                arrays[name] = np.asarray(value, dtype=np.float64)
        amp_shape, ph_shape = (
            arrays[name].shape if name in arrays else self._late.shape for name in _LATE_FIELDS
        )
        if times.ndim != 1:
            raise ConfigError("times must be one-dimensional")
        if len(amp_shape) != 2 or ph_shape != amp_shape:
            raise ConfigError("amplitude and phase must be equal (m, n) matrices")
        if amp_shape[1] != times.size:
            raise ConfigError(
                f"{amp_shape[1]} samples per subcarrier but {times.size} timestamps"
            )
        if amp_shape[0] < 1:
            raise ConfigError("need at least one subcarrier")
        if np.any(times[1:] <= times[:-1]):
            raise ConfigError("timestamps must be strictly increasing")
        if "amplitude_db" in arrays and not np.all(np.isfinite(arrays["amplitude_db"])):
            raise ConfigError("amplitudes contain non-finite values")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        # an array left out of the instance sends its first read to __getattr__
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: a deferred array
        late = self.__dict__.get("_late")
        if late is None or name not in _LATE_FIELDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        arr = late.read(self.party, name)
        object.__setattr__(self, name, arr)
        return arr

    def __setstate__(self, state):
        # numpy does not keep the read-only flag through pickle
        _freeze(state.values())
        self.__dict__.update(state)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CsiTrace):
            return NotImplemented
        return (
            self.party == other.party
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.amplitude_db, other.amplitude_db)
            and np.array_equal(self.phase_rad, other.phase_rad, equal_nan=True)
        )

    def __hash__(self):
        return hash((self.party, self.times.tobytes(), self.amplitude_db.tobytes()))

    @property
    def m(self) -> int:
        # read without drawing amplitudes simulate has left for later
        amp = self.__dict__.get("amplitude_db")
        return int((self._late.shape if amp is None else amp.shape)[0])

    @property
    def n(self) -> int:
        return int(self.times.size)

    @property
    def duration(self) -> float:
        """Probing span in seconds (zero for a single probe)."""
        return float(self.times[-1] - self.times[0]) if self.n else 0.0


_LATE_FIELDS = ("amplitude_db", "phase_rad")


class _LateDraws:
    """The draws of one ``simulate`` call that no session reads, made on first read.

    Eve's noise and the two phase walks come last in the generator stream,
    so ``simulate`` stops before them and keeps the generator state and
    Eve's latent matrix. The first read of any of these arrays draws all of
    them, in the order ``simulate`` would have, from a generator restored to
    that state: their values are a function of the snapshot alone, whatever
    the order, thread or pickled copy that reads them.
    """

    def __init__(self, rng_state: dict, latent_eve: np.ndarray, noise_std: float):
        self.shape = latent_eve.shape
        self._inputs = (rng_state, latent_eve, noise_std)
        self._arrays = None
        self._lock = threading.Lock()

    def read(self, party: str, name: str) -> np.ndarray:
        with self._lock:
            if self._arrays is None:
                self._arrays = self._draw(*self._inputs)
                # what the draws were made from is not needed again
                self._inputs = None
        return self._arrays[party, name]

    def _draw(self, rng_state, latent_eve, noise_std) -> dict:
        rng = np.random.default_rng()
        rng.bit_generator.state = rng_state
        m, n = self.shape
        noise_eve = rng.normal(0.0, noise_std, size=(m, n)) if noise_std else np.zeros((m, n))
        phase_link = _phase_walk(rng, (m, n))
        arrays = {
            ("alice", "phase_rad"): phase_link,
            ("bob", "phase_rad"): phase_link,
            ("eve", "amplitude_db"): latent_eve + noise_eve,
            ("eve", "phase_rad"): _phase_walk(rng, (m, n)),
        }
        for arr in arrays.values():
            if arr.shape != self.shape:
                raise ConfigError("amplitude and phase must be equal (m, n) matrices")
            arr.setflags(write=False)
        if not np.all(np.isfinite(arrays["eve", "amplitude_db"])):
            raise ConfigError("amplitudes contain non-finite values")
        return arrays

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_lock"}

    def __setstate__(self, state):
        if state["_arrays"] is not None:
            _freeze(state["_arrays"].values())
        self.__dict__.update(state, _lock=threading.Lock())


def _freeze(values) -> None:
    """Make every numpy array among ``values`` read-only."""
    for value in values:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


@dataclass(frozen=True)
class ScenarioConfig:
    """Simulator parameters; presets A-F are bundled instances of this.

    ``mobility`` selects the default AR(1) innovation scale per probe step;
    ``process_std`` and ``drift_std`` override it. ``eve_correlation``
    mixes Eve's otherwise independent process with the link process.
    ``attack_period`` enables the periodic line-of-sight blocking wave.
    The probe timing, drift correlation, base amplitude and attack depth
    are the module constants.
    """

    m: int = 30
    probe_count: int = 300
    mobility: str = "mobile"
    noise_std: float = 0.3
    eve_correlation: float = 0.0
    attack_period: float | None = None
    rng_seed: int = 0
    process_std: float | None = None
    drift_std: float | None = None

    def __post_init__(self):
        # each check is written so that a NaN, which compares false, fails it
        for name in ("m", "probe_count", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if self.probe_count < 1:
            raise ConfigError(f"probe_count must be >= 1, got {self.probe_count}")
        if int(self.m) * int(self.probe_count) > MAX_SAMPLES:
            raise ConfigError(
                f"m x probe_count is {self.m} x {self.probe_count}, above the "
                f"{MAX_SAMPLES} samples a scenario may hold"
            )
        if self.mobility not in MOBILITY_PROCESS_STD:
            raise ConfigError(f"mobility must be static or mobile, got {self.mobility!r}")
        if not self.noise_std >= 0:
            raise ConfigError("noise_std must be >= 0")
        if not abs(self.eve_correlation) <= 1:
            raise ConfigError("eve_correlation must lie in [-1, 1]")
        if self.attack_period is not None and not self.attack_period > 0:
            raise ConfigError("attack_period must be positive when set")
        if not 0 <= self.rng_seed < 2**64:
            raise ConfigError("rng_seed must be an unsigned 64-bit integer")
        if self.process_std is not None and not self.process_std >= 0:
            raise ConfigError("process_std must be >= 0")
        if self.drift_std is not None and not self.drift_std >= 0:
            raise ConfigError("drift_std must be >= 0")

    @property
    def effective_process_std(self) -> float:
        if self.process_std is not None:
            return self.process_std
        return MOBILITY_PROCESS_STD[self.mobility]

    @property
    def effective_drift_std(self) -> float:
        if self.drift_std is not None:
            return self.drift_std
        return MOBILITY_DRIFT_STD[self.mobility]


@dataclass(frozen=True)
class PairedTraceSet:
    """Alice, Bob and Eve traces from one simulated probing session."""

    alice: CsiTrace
    bob: CsiTrace
    eve: CsiTrace
    config: ScenarioConfig

    def __post_init__(self):
        shapes = {(t.m, t.n) for t in (self.alice, self.bob, self.eve)}
        if len(shapes) != 1:
            raise ConfigError(f"traces disagree on (m, n): {sorted(shapes)}")
        expected = self.alice.times + HALF_DUPLEX_OFFSET
        if not np.array_equal(self.bob.times, expected):
            raise ConfigError(
                "Bob's timestamps must equal Alice's plus the half-duplex offset"
            )

    @property
    def m(self) -> int:
        return self.alice.m

    @property
    def n(self) -> int:
        return self.alice.n


def _ar1(rng: np.random.Generator, shape, std: float, corr: float) -> np.ndarray:
    """Stationary AR(1) noise over the last axis; corr=0 is the iid fast path."""
    z = rng.standard_normal(shape)
    if std == 0.0:
        return np.zeros(shape)
    if corr == 0.0:
        return std * z
    innov = std * math.sqrt(1.0 - corr * corr)
    # stepping Python floats row by row costs no numpy call per step, and
    # each step rounds exactly as the same expression on arrays would
    rows = z.reshape(-1, shape[-1]).tolist()
    for row in rows:
        prev = row[0] = std * row[0]
        for k in range(1, len(row)):
            prev = row[k] = corr * prev + innov * row[k]
    return np.array(rows).reshape(shape)


def _phase_walk(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform start per subcarrier, then a smoothed random walk, wrapped."""
    start = rng.uniform(-math.pi, math.pi, size=(shape[0], 1))
    steps = rng.normal(0.0, 0.1, size=shape)
    steps[:, 0] = 0.0
    return _wrap_phase(start + np.cumsum(steps, axis=1))


def _wrap_phase(walk: np.ndarray) -> np.ndarray:
    """``np.mod(walk + pi, 2 pi) - pi``, bit for bit, computed in place in ``walk``.

    np.mod is fmod plus the divisor where the remainder is below zero; it
    also turns a -0.0 remainder into +0.0, which subtracting pi makes -pi
    either way.
    """
    walk += math.pi
    np.fmod(walk, 2.0 * math.pi, out=walk)
    np.add(walk, 2.0 * math.pi, out=walk, where=walk < 0)
    walk -= math.pi
    return walk


def _attack_wave(times: np.ndarray, period: float, depth: float) -> np.ndarray:
    """Square-wave attenuation: blocked during the first half of each period."""
    blocked = np.mod(times, period) < period / 2.0
    return np.where(blocked, -depth, 0.0)


def simulate(config: ScenarioConfig) -> PairedTraceSet:
    """Generate one paired probing session, deterministic in the seed.

    The latent per-subcarrier process is stepped once per probe exchange, so
    both directions of one exchange observe the same channel state; the
    half-duplex offset shifts only Bob's timestamps, and with them the
    attack wave he sees.

    Only Alice's and Bob's amplitudes, which the quantizer reads, are drawn
    here. Eve's noise and the phase walks come last in the generator stream
    and are drawn the first time any of Alice's or Bob's phases or Eve's
    amplitudes or phases is read, from a snapshot of the generator taken
    after Bob's noise. Every array is the same whichever is read first, and
    the same as had all been drawn here.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
    m, n = config.m, config.probe_count

    drift_link = _ar1(rng, (n,), config.effective_drift_std, DRIFT_CORR)
    drift_eve_own = _ar1(rng, (n,), config.effective_drift_std, DRIFT_CORR)
    # the link process is iid from one probe exchange to the next
    proc_link = _ar1(rng, (m, n), config.effective_process_std, 0.0)
    proc_eve_own = _ar1(rng, (m, n), config.effective_process_std, 0.0)
    noise_alice = rng.normal(0.0, config.noise_std, size=(m, n)) if config.noise_std else np.zeros((m, n))
    noise_bob = rng.normal(0.0, config.noise_std, size=(m, n)) if config.noise_std else np.zeros((m, n))

    rho = config.eve_correlation
    mix = math.sqrt(max(0.0, 1.0 - rho * rho))
    proc_eve = rho * proc_link + mix * proc_eve_own
    drift_eve = rho * drift_link + mix * drift_eve_own

    times_alice = np.arange(n, dtype=np.float64) * PROBE_INTERVAL
    times_bob = times_alice + HALF_DUPLEX_OFFSET

    latent_link = BASE_AMPLITUDE_DB + drift_link + proc_link
    latent_alice = latent_bob = latent_link
    latent_eve = BASE_AMPLITUDE_DB + drift_eve + proc_eve

    if config.attack_period is not None:
        latent_alice = latent_link + _attack_wave(times_alice, config.attack_period, ATTACK_DEPTH)
        latent_bob = latent_link + _attack_wave(times_bob, config.attack_period, ATTACK_DEPTH)

    late = _LateDraws(rng.bit_generator.state, latent_eve, config.noise_std)
    alice = CsiTrace("alice", times_alice, latent_alice + noise_alice, late)
    bob = CsiTrace("bob", times_bob, latent_bob + noise_bob, late)
    eve = CsiTrace("eve", times_alice, late, late)
    return PairedTraceSet(alice=alice, bob=bob, eve=eve, config=config)


def rss_emulation(config: ScenarioConfig) -> ScenarioConfig:
    """Single-stream, low-variation, noisier variant of a scenario.

    An RSS chain reports one coarse power value per probe: aggregating the
    subcarriers washes out the fine-grained frequency-selective variation,
    and the reading is noisier relative to what remains.
    """
    return replace(
        config,
        m=1,
        process_std=0.5,
        drift_std=0.1,
        noise_std=max(config.noise_std, 0.4),
    )


def save_trace(trace: CsiTrace, path) -> None:
    """Write one party's trace in the CSV trace format.

    Header ``time,subcarrier,amplitude_db,phase_rad``; one row per
    (time, subcarrier) cell, sorted by time then subcarrier; floats use
    repr so a round-trip reproduces the trace exactly; every row, the
    header too, ends in ``\\r\\n``.
    """
    subcarriers = range(trace.m)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_HEADER_LINE + "\r\n")
        for t, amps, phases in zip(
            trace.times.tolist(), trace.amplitude_db.T.tolist(), trace.phase_rad.T.tolist()
        ):
            t = repr(t)
            # one write per probe: the whole file as one string would add
            # MiBs to the peak memory of a caller writing long traces
            fh.write(
                "".join(
                    [f"{t},{i},{a!r},{p!r}\r\n" for i, a, p in zip(subcarriers, amps, phases)]
                )
            )


def load_trace(path, party: str = "alice") -> CsiTrace:
    """Parse a CSV trace file, enforcing the trace invariants.

    Rows must be grouped by probe time with every subcarrier 0..m-1 present
    exactly once per group, and times strictly increasing between groups.
    Errors name the offending 1-based line number.

    A plain ASCII file with its rows in ``save_trace`` order is parsed by
    one ``np.loadtxt`` call and checked on whole arrays. Every other file,
    and every file those checks refuse, goes to the row-by-row parser, which
    names the offending line or accepts what ``loadtxt`` cannot read (quoted
    fields, digit underscores, subcarriers out of order), so both paths
    accept the same files and return the same traces.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        body = fh.read()
    trace = _load_plain(header, body, party)
    return trace if trace is not None else _load_rows(header + body, party)


def _load_plain(header: bytes, body: bytes, party: str) -> CsiTrace | None:
    """The numpy path of ``load_trace``: None where the row parser must decide."""
    if header.rstrip(b"\r\n") != _HEADER_LINE.encode("ascii") or not body.isascii():
        return None
    raw = np.frombuffer(body, dtype=np.uint8)
    breaks = np.flatnonzero(raw < 0x20)
    if (
        breaks.size == raw.size  # no data row, on which loadtxt warns
        # numpy strips \x1c-\x1f around a number where float() refuses them
        or not np.all((raw[breaks] == 0x0A) | (raw[breaks] == 0x0D))
        # the csv module raises on a field longer than its size limit
        or np.diff(breaks, prepend=-1, append=raw.size).max() > csv.field_size_limit()
    ):
        return None
    try:
        rows = np.loadtxt(
            io.BytesIO(body), delimiter=",", comments=None, ndmin=1, dtype=_ROW_DTYPE
        )
    except ValueError:
        return None

    t = rows["time"]
    # the first probe's rows are those before the first change of time
    m = int(np.argmax(t != t[0])) or t.size
    if t.size % m:
        return None
    grid = t.reshape(-1, m)
    times = grid[:, 0]
    amp = rows["amplitude_db"].reshape(-1, m)
    if not (
        np.all(np.isfinite(t))
        and np.all(np.isfinite(amp))
        and np.all(grid == times[:, None])
        and np.all(rows["subcarrier"].reshape(-1, m) == np.arange(m))
        and np.all(times[1:] > times[:-1])
    ):
        return None
    # the row parser's layout: a C-ordered (n, m) matrix, transposed
    return CsiTrace(
        party=party,
        times=times.copy(),
        amplitude_db=np.ascontiguousarray(amp).T,
        phase_rad=np.ascontiguousarray(rows["phase_rad"].reshape(-1, m)).T,
    )


def _load_rows(data: bytes, party: str) -> CsiTrace:
    """The row-by-row parser of ``load_trace``, which names the line at fault.

    ``data`` is decoded as ``open(path, newline="", encoding="utf-8")``
    would decode the file it came from.
    """
    times: list[float] = []
    amp_rows: list[list[float]] = []
    ph_rows: list[list[float]] = []
    m = None

    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError("empty trace file", line=1) from None
        if [h.strip() for h in header] != TRACE_HEADER:
            raise TraceFormatError(
                f"expected header {','.join(TRACE_HEADER)}, got {','.join(header)}",
                line=1,
            )

        group_time = None
        group_amp: dict[int, float] = {}
        group_ph: dict[int, float] = {}
        group_line = 2

        def close_group(line_no):
            nonlocal m
            if not group_amp:
                return
            if m is None:
                m = len(group_amp)
            if sorted(group_amp) != list(range(m)):
                raise TraceFormatError(
                    f"probe at t={group_time} has subcarriers {sorted(group_amp)}, "
                    f"expected 0..{m - 1}",
                    line=line_no,
                )
            times.append(group_time)
            amp_rows.append([group_amp[i] for i in range(m)])
            ph_rows.append([group_ph[i] for i in range(m)])

        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise TraceFormatError(
                    f"expected 4 columns, got {len(row)}", line=line_no
                )
            try:
                t = float(row[0])
                sub = int(row[1])
                amp = float(row[2])
                ph = float(row[3])
            except ValueError as exc:
                raise TraceFormatError(f"malformed row: {exc}", line=line_no) from None
            if not math.isfinite(t):
                raise TraceFormatError("time is not finite", line=line_no)
            if not math.isfinite(amp):
                raise TraceFormatError("amplitude is not finite", line=line_no)
            if sub < 0:
                raise TraceFormatError("negative subcarrier index", line=line_no)
            if group_time is None or t != group_time:
                close_group(line_no)
                if times and t <= times[-1]:
                    raise TraceFormatError(
                        f"time {t} does not increase past {times[-1]}", line=line_no
                    )
                group_time = t
                group_amp, group_ph = {}, {}
                group_line = line_no
            if sub in group_amp:
                raise TraceFormatError(
                    f"duplicate subcarrier {sub} at t={t}", line=line_no
                )
            group_amp[sub] = amp
            group_ph[sub] = ph
        close_group(group_line)

    if not times:
        raise TraceFormatError("trace file contains no data rows", line=2)
    return CsiTrace(
        party=party,
        times=np.array(times),
        amplitude_db=np.array(amp_rows).T,
        phase_rad=np.array(ph_rows).T,
    )
