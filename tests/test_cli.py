import csv
import json

import pytest

from skece.cli import main


def run_cli(args):
    return main([str(a) for a in args])


class TestExtract:
    def test_writes_sweep_with_provenance(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["extract", "--scenario", "C", "--trials", "3", "--seed", "5",
             "--alphas", "0,0.4", "--out", out]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# skece extract")
        assert "seed=5" in lines[0]
        rows = list(csv.DictReader(lines[1:]))
        assert [float(r["alpha"]) for r in rows] == [0.0, 0.4]
        assert float(rows[0]["ignored"]) == 0.0  # empty band at alpha 0

    def test_reproducible_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli(["extract", "--scenario", "A", "--trials", "2", "--seed", "9",
                     "--alphas", "0.4", "--out", out])
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        run_cli(["extract", "--scenario", "C", "--trials", "2", "--seed", "1",
                 "--alphas", "0.4", "--format", "json", "--out", out])
        data = json.loads(out.read_text())
        assert data["experiment"]["command"] == "extract"
        assert len(data["rows"]) == 1


class TestSimulate:
    def test_writes_three_trace_files(self, tmp_path):
        out = tmp_path / "traces"
        code = run_cli(["simulate", "--scenario", "A", "--seed", "2", "--out", out])
        assert code == 0
        for party in ("alice", "bob", "eve"):
            assert (out / f"{party}.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["m"] == 30
        from skece.channel import load_trace

        trace = load_trace(out / "bob.csv", party="bob")
        assert trace.m == 30 and trace.n == summary["n"]


class TestCompare:
    def test_emits_trials_and_cdf(self, tmp_path):
        out = tmp_path / "cmp"
        code = run_cli(["compare", "--trials", "10", "--seed", "0", "--out", out])
        assert code == 0
        trials = list(
            csv.DictReader(
                (tmp_path / "cmp_trials.csv").read_text().splitlines()[1:]
            )
        )
        assert len(trials) == 10
        assert all(int(r["skece_messages"]) >= 2 for r in trials)
        cdf = list(
            csv.DictReader((tmp_path / "cmp_cdf.csv").read_text().splitlines()[1:])
        )
        protocols = {r["protocol"] for r in cdf}
        assert protocols == {"skece", "cascade"}
        for proto in protocols:
            fracs = [float(r["cdf"]) for r in cdf if r["protocol"] == proto]
            assert fracs[-1] == 1.0


class TestRandomness:
    def test_single_scenario_report(self, tmp_path):
        out = tmp_path / "rnd.csv"
        code = run_cli(["randomness", "--scenario", "C", "--trials", "2",
                        "--seed", "3", "--out", out])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert len(rows) == 2
        assert int(rows[0]["bits"]) >= 10_000
        for col in ("frequency", "longest_run", "fft", "approx_entropy"):
            assert 0.0 <= float(rows[0][col]) <= 1.0


class TestAttack:
    def test_scores_and_artifacts(self, tmp_path):
        out = tmp_path / "atk"
        code = run_cli(["attack", "--seed", "1", "--out", out])
        assert code == 0
        scores = json.loads((tmp_path / "atk_scores.json").read_text())
        assert scores["modes"]["rss"]["max_periodicity_z"] > 5.0
        assert scores["modes"]["csi"]["frequency_p"] > 0.01
        for stem in ("atk_csi_alice.csv", "atk_rss_alice.csv", "atk_csi_bits.csv"):
            assert (tmp_path / stem).exists()


class TestFailures:
    def test_unknown_scenario_produces_error_record(self, tmp_path, capsys):
        code = run_cli(["extract", "--scenario", "NOPE", "--out", tmp_path / "x.csv"])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert record["command"] == "extract"
        assert "NOPE" in record["message"]

    def test_unwritable_output_produces_error_record(self, tmp_path, capsys):
        target = tmp_path / "dir"
        target.mkdir()
        code = run_cli(["extract", "--scenario", "C", "--trials", "1",
                        "--alphas", "0.4", "--out", target])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["command"] == "extract"


class TestArgumentValidation:
    def test_zero_trials_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["extract", "--trials", "0", "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "args", [["randomness", "--alpha", "-0.1"], ["extract", "--alphas", ","]]
    )
    def test_out_of_range_values_rejected(self, args, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli([*args, "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2


# the flags each command reads, with a small value for each
READS = {
    "simulate": {"scenario": "A", "seed": "2"},
    "extract": {"scenario": "C", "trials": "1", "seed": "2", "alphas": "0.4", "format": "json"},
    "compare": {
        "trials": "2", "seed": "2", "gamma": "0.9", "theta": "7", "key-length": "64",
        "format": "json",
    },
    "randomness": {"scenario": "C", "trials": "1", "seed": "2", "alpha": "0.5", "format": "json"},
    "attack": {"seed": "2"},
}
ALL_FLAGS = {flag: value for reads in READS.values() for flag, value in reads.items()}
# where each command writes the JSON record that holds its provenance
PROVENANCE_FILE = {
    "simulate": "out/summary.json",
    "extract": "out",
    "compare": "out_trials.json",
    "randomness": "out",
    "attack": "out_scores.json",
}


class TestFlagsPerCommand:
    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c in READS for f in ALL_FLAGS if f not in READS[c]],
    )
    def test_flag_the_command_does_not_read_is_refused(self, command, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, f"--{flag}", ALL_FLAGS[flag], "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(READS))
    def test_provenance_holds_exactly_the_flags_read(self, command, tmp_path):
        args = [command]
        for flag, value in READS[command].items():
            args += [f"--{flag}", value]
        assert run_cli([*args, "--out", tmp_path / "out"]) == 0
        record = json.loads((tmp_path / PROVENANCE_FILE[command]).read_text())["experiment"]
        assert set(record) == {"command", *(f.replace("-", "_") for f in READS[command])}
        assert record["command"] == command
        assert record["seed"] == 2
