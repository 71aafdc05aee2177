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

import io
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, TraceFormatError, check_integer, check_real

TRACE_HEADER = ["time", "subcarrier", "amplitude_db", "phase_rad"]
_HEADER_LINE = ",".join(TRACE_HEADER)
# the header ends in \r\n or \n, or ends a file that holds nothing else
_HEADER_LINES = tuple(_HEADER_LINE.encode("ascii") + end for end in (b"\r\n", b"\n", b""))
_ROW_DTYPE = np.dtype(
    [("time", "f8"), ("subcarrier", "i8"), ("amplitude_db", "f8"), ("phase_rad", "f8")]
)
# rows per np.loadtxt call: a refused file reads at most this many again one by one
_CHUNK_ROWS = 16384

# one probe exchange every PROBE_INTERVAL s; Bob reads HALF_DUPLEX_OFFSET s
# after Alice, within the same exchange
PROBE_INTERVAL = 0.1
HALF_DUPLEX_OFFSET = 0.003
DRIFT_CORR = 0.99  # lag-one correlation of the shared drift, per probe step
BASE_AMPLITUDE_DB = 20.0
ATTACK_DEPTH = 4.0  # dB of attenuation while the line of sight is blocked

# simulate, and the first read of what it leaves undone (see _LateDraws), each
# peak at about nine float64 (m, n) matrices, so a scenario is capped at
# m * probe_count samples per party: about 2 GB at 30 x 1,000,000
MAX_SAMPLES = 30_000_000


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
    """What one ``simulate`` call leaves undone because no session reads it.

    No session reads Eve's channel or a phase. ``simulate`` draws Eve's
    standard normals where they fall in the generator stream but leaves
    their AR(1) filtering, their mix with the link process and Eve's latent
    matrix to this class. Eve's noise and the two phase walks come last in
    the stream, so ``simulate`` stops before them and keeps the generator
    state. The first read of any of these arrays makes all of them, as
    ``simulate`` would have, drawing from a generator restored to that
    state: their values are a function of the snapshot alone, whatever the
    order, thread or pickled copy that reads them.
    """

    def __init__(self, rng_state: dict, config: ScenarioConfig, link: tuple, eve_normals: tuple):
        """``link`` is the link's (drift, process); ``eve_normals`` the normals of Eve's own."""
        self.shape = eve_normals[1].shape
        self._inputs = (rng_state, config, link, eve_normals)
        self._arrays = None
        self._lock = threading.Lock()

    def read(self, party: str, name: str) -> np.ndarray:
        with self._lock:
            if self._arrays is None:
                self._arrays = self._draw(*self._inputs)
                # what the draws were made from is not needed again
                self._inputs = None
        return self._arrays[party, name]

    def _draw(self, rng_state, config, link, eve_normals) -> dict:
        amplitude_eve = _latent_eve(config, link, eve_normals)
        rng = np.random.default_rng()
        rng.bit_generator.state = rng_state
        m, n = self.shape
        if config.noise_std:
            amplitude_eve += rng.normal(0.0, config.noise_std, size=(m, n))
        phase_link = _phase_walk(rng, (m, n))
        arrays = {
            ("alice", "phase_rad"): phase_link,
            ("bob", "phase_rad"): phase_link,
            ("eve", "amplitude_db"): amplitude_eve,
            ("eve", "phase_rad"): _phase_walk(rng, (m, n)),
        }
        _freeze(arrays.values())
        if not np.all(np.isfinite(amplitude_eve)):
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

    ``process_std`` and ``drift_std`` are the AR(1) innovation scales, in
    dB per probe step, of each subcarrier's process and of the shared slow
    drift; the defaults are a mobile link's, and a static link varies less.
    The drift spread is kept small relative to the process spread so the
    shared drift does not imprint serial structure on the quantized bits.
    ``eve_correlation`` mixes Eve's otherwise independent process with the
    link process. ``attack_period`` enables the periodic line-of-sight
    blocking wave. The probe timing, drift correlation, base amplitude and
    attack depth are the module constants.
    """

    m: int = 30
    probe_count: int = 300
    noise_std: float = 0.3
    eve_correlation: float = 0.0
    attack_period: float | None = None
    rng_seed: int = 0
    process_std: float = 5.0
    drift_std: float = 0.25

    def __post_init__(self):
        check_integer("m", self.m, 1)
        check_integer("probe_count", self.probe_count, 1)
        check_integer("rng_seed", self.rng_seed, 0, 2**64 - 1)
        for name in ("noise_std", "process_std", "drift_std"):
            check_real(name, getattr(self, name), 0)
        check_real("eve_correlation", self.eve_correlation, -1, 1)
        if self.attack_period is not None:  # None: no attack
            check_real("attack_period", self.attack_period, 0, low_open=True)
        if int(self.m) * int(self.probe_count) > MAX_SAMPLES:
            raise ConfigError(
                f"m x probe_count is {self.m} x {self.probe_count}, above the "
                f"{MAX_SAMPLES} samples a scenario may hold"
            )


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
    return _ar1_filter(rng.standard_normal(shape), std, corr)


def _ar1_filter(z: np.ndarray, std: float, corr: float) -> np.ndarray:
    """:func:`_ar1` of the standard normals ``z`` it draws."""
    if std == 0.0:
        return np.zeros(z.shape)
    if corr == 0.0:
        return std * z
    innov = std * math.sqrt(1.0 - corr * corr)
    # stepping Python floats row by row costs no numpy call per step, and
    # each step rounds exactly as the same expression on arrays would
    rows = z.reshape(-1, z.shape[-1]).tolist()
    for row in rows:
        prev = row[0] = std * row[0]
        for k in range(1, len(row)):
            prev = row[k] = corr * prev + innov * row[k]
    return np.array(rows).reshape(z.shape)


def _latent_eve(config: ScenarioConfig, link: tuple, eve_normals: tuple) -> np.ndarray:
    """Eve's latent (m, n) amplitudes: her own AR(1) processes mixed with the link's."""
    (drift_link, proc_link), (z_drift, z_proc) = link, eve_normals
    rho = config.eve_correlation
    mix = math.sqrt(max(0.0, 1.0 - rho * rho))
    proc_eve = rho * proc_link + mix * _ar1_filter(z_proc, config.process_std, 0.0)
    drift_own = _ar1_filter(z_drift, config.drift_std, DRIFT_CORR)
    drift_eve = rho * drift_link + mix * drift_own
    return BASE_AMPLITUDE_DB + drift_eve + proc_eve


def _phase_walk(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform start per subcarrier, then a smoothed random walk, wrapped."""
    start = rng.uniform(-math.pi, math.pi, size=(shape[0], 1))
    steps = rng.normal(0.0, 0.1, size=shape)
    steps[:, 0] = 0.0
    return np.mod(start + np.cumsum(steps, axis=1) + math.pi, 2 * math.pi) - math.pi


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

    Only Alice's and Bob's amplitudes, which the quantizer reads, are made
    here. Eve's standard normals are drawn in their place in the generator
    stream, but turning them into her channel, and drawing her noise and
    the phase walks, which come last in the stream, waits for the first
    read of any of Alice's or Bob's phases or Eve's amplitudes or phases
    (see ``_LateDraws``). Every array is the same whichever is read first,
    and the same as had all been made here.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
    m, n = config.m, config.probe_count

    drift_link = _ar1(rng, (n,), config.drift_std, DRIFT_CORR)
    z_drift_eve = rng.standard_normal(n)
    # the link process is iid from one probe exchange to the next
    proc_link = _ar1(rng, (m, n), config.process_std, 0.0)
    z_proc_eve = rng.standard_normal((m, n))
    noise_alice = rng.normal(0.0, config.noise_std, size=(m, n)) if config.noise_std else np.zeros((m, n))
    noise_bob = rng.normal(0.0, config.noise_std, size=(m, n)) if config.noise_std else np.zeros((m, n))

    times_alice = np.arange(n, dtype=np.float64) * PROBE_INTERVAL
    times_bob = times_alice + HALF_DUPLEX_OFFSET

    latent_link = BASE_AMPLITUDE_DB + drift_link + proc_link
    latent_alice = latent_bob = latent_link

    if config.attack_period is not None:
        latent_alice = latent_link + _attack_wave(times_alice, config.attack_period, ATTACK_DEPTH)
        latent_bob = latent_link + _attack_wave(times_bob, config.attack_period, ATTACK_DEPTH)

    late = _LateDraws(
        rng.bit_generator.state, config, (drift_link, proc_link), (z_drift_eve, z_proc_eve)
    )
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
    """Read one party's trace from a file in the format ``save_trace`` writes.

    The header line, then rows of printable ASCII ending in ``\\r\\n`` or
    ``\\n`` (the last may end the file instead, and empty lines may follow
    it), which ``np.loadtxt`` reads as float, int, float, float. A probe's
    rows share one time and list subcarriers ``0..m-1`` in order; times are
    finite and rise strictly from probe to probe; amplitudes are finite.

    Any other file raises :class:`TraceFormatError` naming its first
    offending 1-based line and the rule that line breaks. Rows are read a
    chunk at a time; only a chunk that ``np.loadtxt`` refuses is read again,
    row by row, to find that line.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        body = fh.read()
    if header not in _HEADER_LINES:
        got = header.rstrip(b"\n").decode("utf-8", "replace")
        raise TraceFormatError(f"expected header {_HEADER_LINE}, got {got!r}", line=1)
    # the data ends with the last row: empty lines after it are no part of it
    end = len(body)
    while body.endswith(b"\n", 0, end):
        end -= 2 if body.endswith(b"\r\n", 0, end) else 1
    if not end:
        raise TraceFormatError("trace file contains no data rows", line=2)
    raw = np.frombuffer(body, dtype=np.uint8, count=end)
    # row k is body[edges[k] + 1 : edges[k + 1]]; the last runs on over the empty
    # lines after it, which loadtxt skips, so one chunk can be the body itself
    edges = np.concatenate(([-1], np.flatnonzero(raw == 0x0A), [len(body)]))
    feeds = edges[1:-1]

    # loadtxt skips empty lines and reads some control bytes as blanks, so
    # rows map to lines only up to the first of these, and are read up to it
    refusal = _first_bad_line(body, raw, feeds)
    count = feeds.size + 1 if refusal is None else refusal.line - 2
    rows, parse_refusal = _read_rows(body, edges, count)
    refusal = parse_refusal or refusal
    m = _check_probes(rows) if rows.size else 1
    if refusal is not None:
        raise refusal
    if rows.size % m:
        first = rows.size - rows.size % m
        raise TraceFormatError(
            f"probe at t={rows['time'][first]} has {rows.size % m} of {m} subcarriers",
            line=first + 2,
        )
    # a C-ordered (n, m) matrix, transposed
    return CsiTrace(
        party=party,
        times=rows["time"][::m].copy(),
        amplitude_db=np.ascontiguousarray(rows["amplitude_db"].reshape(-1, m)).T,
        phase_rad=np.ascontiguousarray(rows["phase_rad"].reshape(-1, m)).T,
    )


def _first_bad_line(body: bytes, raw: np.ndarray, feeds) -> TraceFormatError | None:
    """The error for the first data line that is empty or holds a byte outside the format."""
    found = []
    crlf = raw[np.maximum(feeds - 1, 0)] == 0x0D  # the lines ending in \r\n
    # beside printable ASCII, a line holds only its \n or \r\n ending
    if not body.isascii() or np.count_nonzero(raw < 0x20) != feeds.size + crlf.sum():
        bad = (raw < 0x20) | (raw > 0x7E)
        bad[feeds] = bad[feeds[crlf] - 1] = False
        at = np.argmax(bad)
        message = f"byte {raw[at]:#04x} is neither printable ASCII nor a \\n or \\r\\n ending"
        found.append((np.searchsorted(feeds, at) + 2, message))
    # a line is empty if its feed directly follows the one before, or the \r right after it
    gaps = np.diff(feeds, prepend=-1)
    empty = (gaps == 1) | (gaps == 2) & crlf
    if empty.any():
        found.append((np.argmax(empty) + 2, "empty line before the last row"))
    if not found:
        return None
    line, message = min(found)
    return TraceFormatError(message, line=int(line))


def _read_rows(body: bytes, edges: np.ndarray, count: int):
    """The first ``count`` rows, read ``_CHUNK_ROWS`` at a time by ``np.loadtxt``.

    Returns the rows before the first one ``loadtxt`` refuses and the error
    naming its line, or all ``count`` rows and None.
    """
    rows = np.empty(count, dtype=_ROW_DTYPE)
    for first in range(0, count, _CHUNK_ROWS):
        last = min(first + _CHUNK_ROWS, count)
        try:
            rows[first:last] = _loadtxt(body, edges, first, last)
        except ValueError:
            for k in range(first, last):
                try:
                    rows[k : k + 1] = _loadtxt(body, edges, k, k + 1)
                except ValueError:
                    text = body[edges[k] + 1 : edges[k + 1]].decode("ascii").rstrip("\r\n")
                    return rows[:k], TraceFormatError(
                        f"expected {_HEADER_LINE} as float,int,float,float, got {text!r}",
                        line=k + 2,
                    )
    return rows, None


def _loadtxt(body: bytes, edges: np.ndarray, first: int, last: int) -> np.ndarray:
    """Rows ``first`` to ``last - 1`` of the data, as one ``np.loadtxt`` call reads them."""
    chunk = io.BytesIO(body[edges[first] + 1 : edges[last]])
    return np.loadtxt(chunk, delimiter=",", comments=None, ndmin=1, dtype=_ROW_DTYPE)


def _check_probes(rows: np.ndarray) -> int:
    """The subcarrier count m, after raising at the first row that breaks a probe rule."""
    t, sub = rows["time"], rows["subcarrier"]
    # the first probe's rows are those before the first change of time
    m = int(np.argmax(t != t[0])) or t.size
    place = np.arange(t.size) % m
    probe_time = np.repeat(t[::m], m)[: t.size]
    stalls = np.zeros(t.size, dtype=bool)
    stalls[m::m] = ~(t[m::m] > t[:-m:m])
    # at one row, the rule listed first names the fault
    rules = (
        (~np.isfinite(t), "time is not finite"),
        (~np.isfinite(rows["amplitude_db"]), "amplitude is not finite"),
        (stalls, "time {t} does not increase past {previous}"),
        (t != probe_time, "time changes from {probe} to {t} after {place} of {m} subcarriers"),
        (sub != place, "expected subcarrier {place} at t={probe}, got {sub}"),
    )
    firsts = [int(np.argmax(mask)) if mask.any() else t.size for mask, _ in rules]
    k = min(firsts)
    if k < t.size:
        message = rules[firsts.index(k)][1].format(
            t=t[k], previous=t[k - m], probe=probe_time[k], place=place[k], m=m, sub=sub[k]
        )
        raise TraceFormatError(message, line=k + 2)
    return m
