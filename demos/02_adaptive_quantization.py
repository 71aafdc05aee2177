"""Turn one subcarrier's amplitude readings into bits with dual thresholds.

The band half-width alpha*sigma trades bit yield against mismatches: a wide
band drops ambiguous mid-range samples on either side, so the bits that
survive agree; a narrow band keeps more samples but lets measurement noise
flip the ones near the mean.
"""

import numpy as np

from skece import channel, experiments, quantizer

scenario = experiments.load_scenario("C").with_seed(7)
traces = channel.simulate(scenario.config)
alpha = 0.4
# row 0 alone, as a (1, n) matrix: one subcarrier stream
quant_a = quantizer.quantize_matrix(traces.alice.amplitude_db[:1], alpha)
quant_b = quantizer.quantize_matrix(traces.bob.amplitude_db[:1], alpha)
mu, sigma = quant_a.mu[0], quant_a.sigma[0]
print(f"alice thresholds: mu={mu:.2f} dB, sigma={sigma:.2f} dB, "
      f"band [{mu - alpha * sigma:.2f}, {mu + alpha * sigma:.2f}]")
print(f"alice drops {quant_a.inside.sum()} samples, bob drops {quant_b.inside.sum()}")

drops = (quant_a.inside, quant_b.inside)
kept = quantizer.keep_mask(*drops, quant_a.inside.shape)
(bits_a,) = quantizer.extract_streams(quant_a, *drops)
(bits_b,) = quantizer.extract_streams(quant_b, *drops)
agree = int(np.count_nonzero(bits_a.bits == bits_b.bits))
print(f"jointly kept {kept.sum()} samples -> {len(bits_a)} bits, "
      f"{agree}/{len(bits_a)} agree")
print("alice bits:", bits_a.to01()[:64], "...")

print("\nalpha sweep (mean per stream over 20 seeded runs)")
rows = experiments.alpha_sweep(scenario, [0.0, 0.2, 0.4, 0.7, 1.0], trials=20, base_seed=7)
print(f"{'alpha':>6} {'ignored':>9} {'mismatched':>11} {'matched':>9}")
for row in rows:
    print(f"{row['alpha']:>6.1f} {row['ignored']:>9.1f} "
          f"{row['mismatched']:>11.3f} {row['matched']:>9.1f}")
print("\na wider band costs matched bits but removes mismatches entirely")
