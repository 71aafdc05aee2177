"""Simulate paired CSI traces and look at reciprocity and eavesdropper decorrelation.

Alice and Bob probe each other over a fading channel; both directions of one
exchange see the same channel state, so their amplitude readings track each
other up to measurement noise. Eve records the same probes from a different
location and sees an unrelated channel.
"""

import numpy as np

from skece import analysis, channel, experiments

scenario = experiments.load_scenario("C").with_seed(1)
traces = channel.simulate(scenario.config)
print(f"scenario {scenario.name}: {scenario.description}")
print(f"m={traces.m} subcarriers, n={traces.n} probes, "
      f"half-duplex offset {channel.HALF_DUPLEX_OFFSET * 1e3:.0f} ms\n")

print("per-subcarrier Pearson correlation of amplitude readings")
print(f"{'subcarrier':>10} {'alice~bob':>10} {'alice~eve':>10}")
for i in (0, 7, 14, 21, 29):
    r_ab = analysis.pearson(traces.alice.amplitude_db[i], traces.bob.amplitude_db[i])
    r_ae = analysis.pearson(traces.alice.amplitude_db[i], traces.eve.amplitude_db[i])
    print(f"{i:>10} {r_ab:>10.3f} {r_ae:>10.3f}")

# a noiseless run makes the reciprocity exact
ideal = channel.simulate(
    channel.ScenarioConfig(m=4, probe_count=100, noise_std=0.0, rng_seed=2)
)
print("\nnoiseless run: traces identical =",
      np.array_equal(ideal.alice.amplitude_db, ideal.bob.amplitude_db))

# traces survive a file round trip exactly
import tempfile
from pathlib import Path

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "alice.csv"
    channel.save_trace(traces.alice, path)
    print("CSV round trip exact =", channel.load_trace(path) == traces.alice)
