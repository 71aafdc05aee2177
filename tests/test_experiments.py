import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from skece import channel, cli, experiments
from skece.errors import ConfigError


class TestScenarios:
    def test_all_presets_load(self):
        for name in experiments.PRESET_NAMES:
            sc = experiments.load_scenario(name)
            assert sc.config.m == 30
            assert sc.config.eve_correlation == 0.0
            assert sc.alpha in (0.4, 0.7)

    def test_process_spread_matches_alpha_defaults(self):
        # mobile scenarios (process spread 5.0) quantize at 0.4, static (2.0) at 0.7
        for name in experiments.PRESET_NAMES:
            sc = experiments.load_scenario(name)
            expected = {2.0: 0.7, 5.0: 0.4}[sc.config.process_std]
            assert sc.alpha == expected

    def test_attack_preset_has_period(self):
        sc = experiments.load_scenario("attack")
        assert sc.config.attack_period is not None

    def test_file_scenario_round_trip(self, tmp_path):
        path = tmp_path / "mine.json"
        path.write_text(
            json.dumps(
                {
                    "name": "mine",
                    "alpha": 0.5,
                    "config": {"m": 3, "probe_count": 10, "process_std": 2.0},
                }
            )
        )
        sc = experiments.load_scenario(str(path))
        assert sc.name == "mine" and sc.config.m == 3 and sc.config.process_std == 2.0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            experiments.load_scenario("Z")

    def test_scenario_config_has_exactly_its_fields(self):
        assert [f.name for f in fields(channel.ScenarioConfig)] == [
            "m", "probe_count", "noise_std", "eve_correlation",
            "attack_period", "rng_seed", "process_std", "drift_std",
        ]


def scenario_text(**config) -> str:
    return json.dumps({"name": "bad", "config": {"m": 3, "probe_count": 10, **config}})


# scenario files that must end in a ConfigError, and a word its message names
MALFORMED_SCENARIOS = {
    "not_json": ("m = 3\n", "not JSON"),
    "not_utf8": (b"\xff\xfe{}", "not JSON"),
    "no_config": ('{"name": "bad"}', "config"),
    "config_not_an_object": ('{"config": [1, 2]}', "config"),
    "fractional_m": (scenario_text(m=2.5), "m must be an integer"),
    "float_probe_count": (scenario_text(probe_count=2.0), "probe_count must be an integer"),
    "bool_m": (scenario_text(m=True), "m must be an integer"),
    "float_rng_seed": (scenario_text(rng_seed=1.0), "rng_seed must be an integer"),
    "bool_rng_seed": (scenario_text(rng_seed=False), "rng_seed must be an integer"),
    "alpha_not_a_number": ('{"alpha": "x", "config": {}}', "malformed"),
    "alpha_numeric_string": ('{"alpha": "0.4", "config": {}}', "alpha must be a real number"),
    "alpha_bool": ('{"alpha": true, "config": {}}', "alpha must be a real number"),
    "alpha_negative": ('{"alpha": -0.1, "config": {}}', "alpha must be finite and >= 0"),
    "alpha_nan": ('{"alpha": NaN, "config": {}}', "alpha must be finite and >= 0"),
    "removed_field": (scenario_text(probe_interval=0.1), "probe_interval"),
    "removed_mobility": (scenario_text(mobility="static"), "mobility"),
    "removed_fields": (scenario_text(preset="C", attack_depth=4.0), "attack_depth, preset"),
}


class TestMalformedScenarioFiles:
    @pytest.fixture(params=sorted(MALFORMED_SCENARIOS))
    def bad_file(self, request, tmp_path):
        content, words = MALFORMED_SCENARIOS[request.param]
        path = tmp_path / "bad.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        return path, words

    def test_load_scenario_raises_config_error(self, bad_file):
        path, words = bad_file
        with pytest.raises(ConfigError, match=words):
            experiments.load_scenario(str(path))

    def test_cli_prints_the_error_record(self, bad_file, tmp_path, capsys):
        path, words = bad_file
        code = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert record["command"] == "simulate"
        assert words in record["message"]
        assert not (tmp_path / "out").exists()

    def test_integer_fields_take_integers(self):
        cfg = channel.ScenarioConfig(m=np.int64(3), probe_count=10, rng_seed=2**64 - 1)
        assert cfg.m == 3


class TestOversizedScenarios:
    @pytest.mark.parametrize("m,probe_count", [(30, 10**12), (10**6, 10**6), (31, 10**6)])
    def test_scenario_config_refuses(self, m, probe_count):
        with pytest.raises(ConfigError, match="samples a scenario may hold"):
            channel.ScenarioConfig(m=m, probe_count=probe_count)

    def test_bound_is_inclusive(self):
        cfg = channel.ScenarioConfig(m=30, probe_count=channel.MAX_SAMPLES // 30)
        assert cfg.m * cfg.probe_count == channel.MAX_SAMPLES

    def test_cli_simulate_refuses_before_simulating(self, tmp_path, capsys, monkeypatch):
        def simulate(cfg):
            raise AssertionError(f"simulated {cfg.m} x {cfg.probe_count}")

        monkeypatch.setattr(channel, "simulate", simulate)
        path = tmp_path / "huge.json"
        path.write_text(scenario_text(m=30, probe_count=10**12), encoding="utf-8")
        code = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert record["command"] == "simulate"
        assert "samples a scenario may hold" in record["message"]
        assert not (tmp_path / "out").exists()


class TestAlphaSweep:
    def test_zero_alpha_has_empty_band(self):
        sc = experiments.load_scenario("C")
        rows = experiments.alpha_sweep(sc, [0.0], trials=2, base_seed=0)
        assert rows[0]["ignored"] == 0.0

    def test_category_counts_partition_probes(self):
        sc = experiments.load_scenario("C")
        rows = experiments.alpha_sweep(sc, [0.4], trials=2, base_seed=1)
        row = rows[0]
        total = row["ignored"] + row["mismatched"] + row["matched"]
        assert total == pytest.approx(sc.config.probe_count)


    def test_matches_one_simulation_per_alpha_and_trial(self):
        sc = experiments.load_scenario("A")
        alphas, trials, base = [0.0, 0.4, 1.0], 3, 11
        expected = []
        for alpha in alphas:
            totals = {"ignored": 0.0, "mismatched": 0.0, "matched": 0.0}
            for t in range(trials):
                traces = channel.simulate(sc.with_seed(base + t).config)
                counts = experiments.stream_counts(traces, alpha)
                for k in totals:
                    totals[k] += counts[k]
            expected.append(
                {"alpha": alpha, **{k: v / trials for k, v in totals.items()}, "trials": trials}
            )
        assert experiments.alpha_sweep(sc, iter(alphas), trials, base_seed=base) == expected


class TestOverheadComparison:
    def test_rows_carry_both_protocols(self):
        rows = experiments.overhead_comparison(trials=5, base_seed=3)
        assert len(rows) == 5
        for row in rows:
            assert row["skece_messages"] >= 2
            assert row["cascade_messages"] >= 2
            assert 1 <= row["errors"] <= 3

    def test_equal_keys_only_on_success(self):
        rows = experiments.overhead_comparison(trials=20, base_seed=6)
        assert any(row["skece_keys_equal"] for row in rows)
        assert all(row["skece_succeeded"] for row in rows if row["skece_keys_equal"])

    def test_deterministic_in_seed(self):
        a = experiments.overhead_comparison(trials=5, base_seed=4)
        b = experiments.overhead_comparison(trials=5, base_seed=4)
        assert a == b


# driver calls with a bad count or seed, and the argument each must name;
# each is refused before anything is simulated
BAD_DRIVER_ARGUMENTS = {
    "sweep_fractional_trials": (
        lambda: experiments.alpha_sweep(experiments.load_scenario("C"), [0.4], trials=2.5),
        "trials",
    ),
    "sweep_negative_seed": (
        lambda: experiments.alpha_sweep(experiments.load_scenario("C"), [0.4], 1, base_seed=-1),
        "base_seed",
    ),
    "battery_fractional_runs": (lambda: experiments.randomness_battery(["C"], runs=1.5), "runs"),
    "battery_float_seed": (
        lambda: experiments.randomness_battery(["C"], runs=1, base_seed=0.0),
        "base_seed",
    ),
    "comparison_fractional_length": (
        lambda: experiments.overhead_comparison(trials=1, stream_length=2.5),
        "stream_length",
    ),
    "comparison_bool_trials": (lambda: experiments.overhead_comparison(trials=True), "trials"),
    "comparison_negative_seed": (
        lambda: experiments.overhead_comparison(trials=1, base_seed=-1),
        "base_seed",
    ),
    "key_material_negative_bits": (
        lambda: experiments.key_material(experiments.load_scenario("C"), seed=0, min_bits=-5),
        "min_bits",
    ),
    "key_material_fractional_bits": (
        lambda: experiments.key_material(experiments.load_scenario("C"), seed=0, min_bits=2.5),
        "min_bits",
    ),
    "battery_zero_bits": (
        lambda: experiments.randomness_battery(["C"], runs=1, min_bits=0),
        "min_bits",
    ),
    "eve_zero_bits": (
        lambda: experiments.eve_independence(experiments.load_scenario("C"), seed=1, bits_per_stream=0),
        "bits_per_stream",
    ),
    "eve_fractional_bits": (
        lambda: experiments.eve_independence(
            experiments.load_scenario("C"), seed=1, bits_per_stream=2.5
        ),
        "bits_per_stream",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_DRIVER_ARGUMENTS))
def test_drivers_refuse_bad_counts_and_seeds(case, monkeypatch):
    def simulate(cfg):
        raise AssertionError("simulated before checking its arguments")

    monkeypatch.setattr(experiments.channel, "simulate", simulate)
    call, name = BAD_DRIVER_ARGUMENTS[case]
    with pytest.raises(ConfigError, match=f"^{name} must"):
        call()


# Probe counts at every preset alpha and every default sweep alpha, as the
# normal-model keep rate sized them when it came from scipy's erfc. Each is a
# ceil of a real number, so an erfc one ulp off could move a count, and with
# it every key drawn from that many probes; the counts must not move.
PROBES_FOR_10K_BITS_AT_M30 = {0.0: 450, 0.2: 535, 0.4: 653, 0.7: 930, 1.0: 1419}
EVE_PROBES_FOR_10K_BITS = {0.0: 13000, 0.2: 15449, 0.4: 18864, 0.7: 26864, 1.0: 40970}


class TestProbeCounts:
    def test_pinned_alphas_cover_presets_and_defaults(self):
        alphas = {experiments.load_scenario(name).alpha for name in (*experiments.PRESET_NAMES, "attack")}
        assert alphas | set(cli.DEFAULT_ALPHAS) <= set(PROBES_FOR_10K_BITS_AT_M30)

    @pytest.mark.parametrize("alpha", sorted(PROBES_FOR_10K_BITS_AT_M30))
    def test_probes_for_bits(self, alpha):
        assert experiments.probes_for_bits(alpha, 30, 10_000) == PROBES_FOR_10K_BITS_AT_M30[alpha]

    @pytest.mark.parametrize("alpha", sorted(EVE_PROBES_FOR_10K_BITS))
    def test_eve_independence_probes(self, alpha, monkeypatch):
        class Sized(Exception):
            pass

        def simulate(cfg):
            raise Sized(cfg.probe_count)

        monkeypatch.setattr(experiments.channel, "simulate", simulate)
        scenario = replace(experiments.load_scenario("C"), alpha=alpha)
        with pytest.raises(Sized) as sized:
            experiments.eve_independence(scenario, seed=0)
        assert sized.value.args == (EVE_PROBES_FOR_10K_BITS[alpha],)


class TestImpossibleProbeCounts:
    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        def simulate(cfg):
            raise AssertionError(f"simulated {cfg.probe_count} probes")

        monkeypatch.setattr(experiments.channel, "simulate", simulate)

    @pytest.mark.parametrize("alpha", [5.0, 39.0, math.inf, math.nan])
    def test_probes_for_bits_refuses(self, alpha):
        with pytest.raises(ConfigError, match=f"more than {channel.MAX_SAMPLES // 30} probes"):
            experiments.probes_for_bits(alpha, 30, 10_000)

    @pytest.mark.parametrize("alpha", [5.0, 38.0, 39.0])
    def test_eve_independence_refuses(self, alpha):
        scenario = replace(experiments.load_scenario("C"), alpha=alpha)
        with pytest.raises(ConfigError, match="probes"):
            experiments.eve_independence(scenario, seed=0)

    def test_randomness_command_refuses(self, tmp_path, capsys):
        code = cli.main(
            ["randomness", "--scenario", "C", "--alpha", "5", "--trials", "1",
             "--out", str(tmp_path / "r.csv")]
        )
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert record["command"] == "randomness"


class TestKeyMaterial:
    def test_meets_requested_size(self):
        sc = experiments.load_scenario("C")
        bits = experiments.key_material(sc, seed=5, min_bits=5000)
        assert len(bits) >= 5000

    def test_deterministic(self):
        sc = experiments.load_scenario("A")
        b1 = experiments.key_material(sc, seed=6, min_bits=2000)
        b2 = experiments.key_material(sc, seed=6, min_bits=2000)
        assert np.array_equal(b1.bits, b2.bits)


class TestEveIndependence:
    def test_small_run_within_band(self):
        sc = experiments.load_scenario("C")
        cors = experiments.eve_independence(sc, seed=7, bits_per_stream=2000)
        assert cors.shape == (30,)
        assert np.nanmax(np.abs(cors)) < 0.15
