"""Benchmark of skece: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload stream_session --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, both modes
    python3 bench/run.py --smoke                     # seconds-long check of the harness

One process runs one workload as a closed loop with a single caller: the
next operation starts when the previous one and its output checks are done.
Only the library calls are timed; the checks run between operations.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced pass. The library is imported from ``src/`` of the
checkout this file sits in, and none of its files is changed.
"""

import os

# one caller on a small machine: keep numpy's BLAS from spawning threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

WORKLOAD_NAMES = ("stream_session", "recombination_session", "key_quality", "trace_files")
SETUP_REPS = 7  # fresh interpreters timed per run; setup_s is their median
MIN_OPS = 100  # so that at least ten operations lie above op_ms_p90
WARMUP_INDEX = 2**40  # inputs of the untimed warm-up operation, outside every round

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mib": "MiB",
}
COUNT_UNITS = {
    "protocol.messages_per_op": "count",
    "protocol.wire_bytes_per_op": "B",
    "recombine.rounds_per_op": "count",
    "quantizer.kept_bits_per_op": "count",
    "quantizer.keep_ratio": "ratio",
    "validation.false_accepts_per_op": "count",
    "cascade.messages_per_op": "count",
    "cascade.bits_leaked_per_op": "count",
    "cascade.converged_per_op": "count",
    "channel.trace_bytes_per_op": "B",
    "trace.op_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}


def import_library():
    """Make ``src/skece`` of this checkout importable, or stop."""
    if not (SRC / "skece" / "__init__.py").is_file():
        sys.exit(f"bench: no skece sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import skece

    if Path(skece.__file__).resolve().parent != SRC / "skece":
        sys.exit(f"bench: imported skece from {skece.__file__}, not from {SRC}")
    import workloads

    return workloads


def set_up(name: str, seed: int):
    """Imports, preset loading and input generation: what setup_s times."""
    workloads = import_library()
    return workloads.WORKLOADS[name](seed, WORK_DIR / f"{name}-{os.getpid()}")


def measure_setup(name: str, seed: int, reps: int) -> list[float]:
    """Seconds from interpreter launch to a workload ready to run, per launch."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--setup-only"]
    for _ in range(reps):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"bench: set-up of {name} failed in a fresh interpreter")
        samples.append(ready - start)
    return samples


class Loop:
    """What a closed loop of whole rounds measured and found."""

    def __init__(self):
        self.wall = []
        self.cpu = []
        self.failures = Counter()
        self.errors = []

    @property
    def attempted(self) -> int:
        return len(self.wall)


def run_loop(workload, seconds=None, ops=None, min_ops=0, recorder=None) -> Loop:
    """Run whole rounds from operation 0 until ``seconds`` and ``min_ops``, or ``ops``, are met."""
    from checks import CheckFailed

    loop = Loop()
    deadline = time.perf_counter() + (seconds or 0.0)
    i = 0
    while True:
        for _ in range(workload.round_size):
            inputs = workload.prepare(i)
            if recorder:
                recorder.start_op()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                output, reason = workload.op(inputs), None
            except Exception as exc:  # a failing operation is counted, not fatal
                output, reason = None, f"raised {type(exc).__name__}"
                traceback.print_exc()
            wall1, cpu1 = time.perf_counter(), time.process_time()
            if recorder:
                recorder.end_op()
            loop.wall.append(wall1 - wall0)
            loop.cpu.append(cpu1 - cpu0)
            if output is not None:
                try:
                    reason = workload.check(inputs, output)
                except CheckFailed as exc:
                    loop.errors.append(f"operation {i}: {exc}")
                if recorder:
                    recorder.counts.update(workload.counts(output))
            if reason:
                loop.failures[reason] += 1
            i += 1
        if ops is not None:
            if loop.attempted >= ops:
                return loop
        elif time.perf_counter() >= deadline and loop.attempted >= min_ops:
            return loop


def end_to_end(loop: Loop, setup_samples: list[float]) -> dict:
    wall_ms = [t * 1e3 for t in loop.wall]
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": loop.attempted / sum(loop.wall),
        "op_ms_p50": statistics.median(wall_ms),
        "op_ms_p90": statistics.quantiles(wall_ms, n=10)[8] if len(wall_ms) > 1 else wall_ms[0],
        "cpu_ms_per_op": sum(loop.cpu) * 1e3 / loop.attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(plain: Loop, traced: Loop, recorder) -> dict:
    from tracing import LAYER_NAMES

    n = traced.attempted
    traced_ns = sum(traced.wall) * 1e9
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.ms_per_op"] = (recorder.self_ns[name] / 1e6 / n, "ms")
        metrics[f"{name}.calls_per_op"] = (recorder.calls[name] / n, "count")
    c = recorder.counts
    probes = c["quantizer.probes"]
    values = {
        "protocol.messages_per_op": c["protocol.messages"] / n,
        "protocol.wire_bytes_per_op": c["protocol.wire_bytes"] / n,
        "recombine.rounds_per_op": c["recombine.rounds"] / n,
        "quantizer.kept_bits_per_op": c["quantizer.kept_bits"] / n,
        "quantizer.keep_ratio": c["quantizer.kept_bits"] / probes if probes else 0.0,
        "validation.false_accepts_per_op": c["validation.false_accepts"] / n,
        "cascade.messages_per_op": c["cascade.messages"] / n,
        "cascade.bits_leaked_per_op": c["cascade.bits_leaked"] / n,
        "cascade.converged_per_op": c["cascade.converged"] / n,
        "channel.trace_bytes_per_op": c["channel.trace_bytes"] / n,
        "trace.op_ms": traced_ns / 1e6 / n,
        "trace.overhead_pct": (sum(traced.wall) / sum(plain.wall) - 1.0) * 100.0,
        "trace.unattributed_pct": (traced_ns - recorder.attributed_ns) / traced_ns * 100.0,
    }
    for name, value in values.items():
        metrics[name] = (value, COUNT_UNITS[name])
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_workload(args) -> int:
    workload = set_up(args.workload, args.seed)
    from checks import CheckFailed

    try:
        workload.op(workload.prepare(WARMUP_INDEX))
        setup_samples = []
        if args.trace == 0:
            loop = run_loop(workload, seconds=args.seconds, min_ops=0 if args.smoke else MIN_OPS)
            loops = [loop]
            setup_samples = measure_setup(args.workload, args.seed, 1 if args.smoke else SETUP_REPS)
            metrics = end_to_end(loop, setup_samples)
        else:
            from tracing import Patched, SpanRecorder

            plain = run_loop(workload, seconds=args.seconds / 2)
            recorder = SpanRecorder()
            with Patched(recorder):
                traced = run_loop(workload, ops=plain.attempted, recorder=recorder)
            loops = [plain, traced]
            metrics = per_layer(plain, traced, recorder)
        errors = [e for loop in loops for e in loop.errors]
        end_check = getattr(workload, "end_of_run", None)
        if end_check:
            try:
                end_check()
            except CheckFailed as exc:
                errors.append(f"end of run: {exc}")
    finally:
        close = getattr(workload, "close", None)
        if close:
            close()

    failures = Counter()
    for loop in loops:
        failures.update(loop.failures)
    result = {
        "correct": not errors,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "failures": dict(failures),
        "errors": errors, "setup_samples_s": setup_samples, **result,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"env {json.dumps(record['env'])}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} attempted, {result['failed']} failed {dict(failures)}")
    for message in errors[:10]:
        print(f"CHECK FAILED {message}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def declared_metrics() -> dict | None:
    """Workload names and metric units as BENCHMARK.json declares them."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    spec = declared_metrics()
    problems = []
    if spec and spec["workloads"] != list(WORKLOAD_NAMES):
        problems.append(f"BENCHMARK.json lists workloads {spec['workloads']}")
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{name} trace {trace}: exit code {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            results.setdefault(name, {})[str(trace)] = result
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace {trace}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: an output check failed")
            if spec:
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != spec[trace]:
                    problems.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(json.dumps({"correct": not problems, "results": results}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default 25, 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short runs: no minimum operation count, one set-up sample")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required")
        args.workload = "all"
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 25.0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.setup_only:
        workload = set_up(args.workload, args.seed)
        print("ready", flush=True)
        getattr(workload, "close", lambda: None)()
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
