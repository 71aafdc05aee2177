"""Experiment runner: scenario simulation, sweeps, comparisons and reports.

Every command is reproducible from its arguments and seed, and every output
file starts with a provenance record of the invocation that produced it.
On failure a machine-readable error record is printed to stderr and the
exit code is nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import channel, experiments
from .errors import SkeceError

DEFAULT_ALPHAS = (0.0, 0.2, 0.4, 0.7, 1.0)


def _provenance(args: argparse.Namespace) -> dict:
    """The command and every flag it read, except --out and an --alpha left unset."""
    flags = {k: getattr(args, k) for k in _COMMANDS[args.command][1]}
    return {"command": args.command, **{k: v for k, v in flags.items() if v is not None}}


def _provenance_line(args: argparse.Namespace) -> str:
    parts = [
        f"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
        for k, v in _provenance(args).items()
        if k != "command"
    ]
    return f"skece {args.command} " + " ".join(parts)


def _write_rows(path: Path, rows: list[dict], fmt: str, args) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        payload = {"experiment": _provenance(args), "rows": rows}
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {_provenance_line(args)}\n")
        if not rows:
            return
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _out_path(base: str, suffix: str, fmt: str) -> Path:
    return Path(f"{base}{suffix}.{fmt}")


def cmd_simulate(args) -> int:
    """write scenario traces as CSV files"""
    scenario = experiments.load_scenario(args.scenario).with_seed(args.seed)
    traces = channel.simulate(scenario.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for trace in (traces.alice, traces.bob, traces.eve):
        channel.save_trace(trace, out / f"{trace.party}.csv")
    summary = {
        "experiment": _provenance(args),
        "scenario": scenario.name,
        "description": scenario.description,
        "m": traces.m,
        "n": traces.n,
        "files": [f"{p}.csv" for p in ("alice", "bob", "eve")],
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {traces.m}x{traces.n} traces for scenario {scenario.name} to {out}")
    return 0


def cmd_extract(args) -> int:
    """alpha sweep of bit extraction outcomes"""
    scenario = experiments.load_scenario(args.scenario)
    rows = experiments.alpha_sweep(scenario, args.alphas, trials=args.trials, base_seed=args.seed)
    path = Path(args.out)
    _write_rows(path, rows, args.format, args)
    print(f"alpha sweep over {list(args.alphas)} ({args.trials} trials) -> {path}")
    return 0


def cmd_compare(args) -> int:
    """message overhead: recombination vs Cascade"""
    rows = experiments.overhead_comparison(
        trials=args.trials,
        base_seed=args.seed,
        stream_length=args.key_length,
        gamma=args.gamma,
        theta=args.theta,
    )
    trials_path = _out_path(args.out, "_trials", args.format)
    _write_rows(trials_path, rows, args.format, args)

    cdf_rows = []
    for proto in ("skece", "cascade"):
        for value, frac in experiments.empirical_cdf([r[f"{proto}_messages"] for r in rows]):
            cdf_rows.append({"protocol": proto, "messages": value, "cdf": frac})
    cdf_path = _out_path(args.out, "_cdf", args.format)
    _write_rows(cdf_path, cdf_rows, args.format, args)

    med_s = statistics.median(r["skece_messages"] for r in rows)
    med_c = statistics.median(r["cascade_messages"] for r in rows)
    within = sum(r["skece_messages"] <= 10 for r in rows) / len(rows)
    unequal = sum(r["skece_succeeded"] and not r["skece_keys_equal"] for r in rows)
    print(
        f"median messages: skece={med_s} cascade={med_c}; "
        f"skece within 10 messages in {within:.1%} of trials"
    )
    print(f"skece successes with unequal keys: {unequal} of {len(rows)} trials")
    print(f"wrote {trials_path} and {cdf_path}")
    return 0


def cmd_randomness(args) -> int:
    """the four-test battery on generated keys"""
    names = list(experiments.PRESET_NAMES) if args.scenario == "all" else [args.scenario]
    scenarios = [experiments.load_scenario(n) for n in names]
    if args.alpha is not None:
        scenarios = [replace(s, alpha=args.alpha) for s in scenarios]
    rows = experiments.randomness_battery(scenarios, runs=args.trials, base_seed=args.seed)
    path = Path(args.out)
    _write_rows(path, rows, args.format, args)
    by_scenario: dict[str, list] = {}
    for r in rows:
        by_scenario.setdefault(r["scenario"], []).append(r["all_pass"])
    for name, flags in by_scenario.items():
        print(f"scenario {name}: {sum(flags)}/{len(flags)} runs pass all four tests")
    print(f"wrote {path}")
    return 0


def cmd_attack(args) -> int:
    """predictable-channel attack experiment"""
    results = experiments.attack_experiment(seed=args.seed)
    scores = {}
    for mode, res in results.items():
        traces = res["traces"]
        for trace in (traces.alice, traces.bob):
            channel.save_trace(trace, _out_path(args.out, f"_{mode}_{trace.party}", "csv"))
        bit_rows = []
        for i, wave in enumerate(res["bit_waves"]):
            for k in np.flatnonzero(wave != 0.0):
                bit_rows.append(
                    {"stream": i, "probe": int(k), "bit": int(wave[k] > 0)}
                )
        _write_rows(_out_path(args.out, f"_{mode}_bits", "csv"), bit_rows, "csv", args)
        scores[mode] = {
            "lag_probes": res["lag"],
            "max_periodicity_z": res["max_periodicity_z"],
            "frequency_p": res["frequency_p"],
            "key_bits": res["key_bits"],
        }
        print(
            f"{mode}: max periodicity z={res['max_periodicity_z']:.1f}, "
            f"frequency p={res['frequency_p']:.4f}"
        )
    report = {"experiment": _provenance(args), "modes": scores}
    path = _out_path(args.out, "_scores", "json")
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


def _parse_alpha_grid(text: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha grid {text!r}") from None
    if not grid:
        raise argparse.ArgumentTypeError("empty alpha grid")
    return grid


def _trial_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _alpha(text: str) -> float:
    alpha = float(text)
    if alpha < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {alpha}")
    return alpha


# every flag a command can read, as add_argument keywords
_FLAGS = {
    "scenario": dict(default="C", help="preset letter A-F, 'attack', or a JSON config path"),
    "trials": dict(type=_trial_count, default=100, help="trial or run count"),
    "seed": dict(type=int, default=0, help="base RNG seed"),
    "alpha": dict(type=_alpha, default=None, help="quantizer alpha override"),
    "alphas": dict(type=_parse_alpha_grid, default=DEFAULT_ALPHAS, help="comma-separated alpha grid"),
    "gamma": dict(type=float, default=0.98, help="validation confidence target"),
    "theta": dict(type=int, default=5, help="difference-degree modulus"),
    "key_length": dict(type=int, default=300, help="key length in bits"),
    "format": dict(choices=("csv", "json"), default="csv"),
}

# command: (handler, flags it reads, its --out default and other default overrides)
_COMMANDS = {
    "simulate": (cmd_simulate, ("scenario", "seed"), {"out": "traces"}),
    "extract": (
        cmd_extract, ("scenario", "trials", "seed", "alphas", "format"), {"out": "extract.csv"}
    ),
    "compare": (
        cmd_compare, ("trials", "seed", "gamma", "theta", "key_length", "format"), {"out": "compare"}
    ),
    "randomness": (
        cmd_randomness,
        ("scenario", "trials", "seed", "alpha", "format"),
        {"out": "randomness.csv", "scenario": "all"},
    ),
    "attack": (cmd_attack, ("seed",), {"out": "attack"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skece",
        description="CSI secret-key extraction experiments at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, flags, defaults) in _COMMANDS.items():
        # no prefix matching: extract would read --alpha as its --alphas
        p = sub.add_parser(name, help=run.__doc__, allow_abbrev=False)
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])
        p.add_argument("--out", help="output path or prefix")
        p.set_defaults(**defaults)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (SkeceError, OSError) as exc:
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "command": args.command,
        }
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
