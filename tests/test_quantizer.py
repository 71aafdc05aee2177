import numpy as np
import pytest

from skece.errors import ConfigError, DesyncError, WireFormatError
from skece.protocol import decode_drop_lists, encode_drop_lists
from skece.quantizer import (
    BitStream,
    DropList,
    Thresholds,
    compute_thresholds,
    drop_indices,
    extract_bits,
    extract_streams,
    keep_mask,
    merge_kept,
    quantize_matrix,
)


class TestThresholds:
    def test_constant_samples_collapse_band(self):
        th = compute_thresholds([0.0, 0.0, 0.0, 0.0], alpha=1.0)
        assert th.sigma == 0.0
        assert th.q_plus == th.q_minus == 0.0

    def test_two_samples_population_sigma(self):
        th = compute_thresholds([1.0, 3.0], alpha=1.0)
        assert th.mu == 2.0
        assert th.sigma == 1.0
        assert th.q_plus == 3.0
        assert th.q_minus == 1.0

    def test_alpha_zero_collapses_to_mean(self):
        for samples in ([1.0, 3.0], [5.0, -2.0, 7.5]):
            th = compute_thresholds(samples, alpha=0.0)
            assert th.q_plus == th.q_minus == th.mu

    @pytest.mark.parametrize(
        "samples,alpha",
        [([1.0], 1.0), ([], 1.0), ([1.0, float("nan")], 1.0), ([1.0, 2.0], -0.5)],
    )
    def test_rejects_bad_inputs(self, samples, alpha):
        with pytest.raises(ConfigError):
            compute_thresholds(samples, alpha)

    def test_invariant_enforced_on_type(self):
        with pytest.raises(ConfigError):
            Thresholds(mu=0.0, sigma=-1.0, alpha=1.0)


class TestDropIndices:
    def test_all_dropped_when_all_equal_mean(self):
        samples = np.full(6, 4.2)
        th = Thresholds(mu=4.2, sigma=1.0, alpha=0.5)
        assert drop_indices(samples, th).indices.tolist() == list(range(6))

    def test_boundary_values_are_kept(self):
        th = compute_thresholds([1.0, 3.0], alpha=1.0)
        assert len(drop_indices([1.0, 3.0], th)) == 0

    def test_band_membership_strict(self):
        samples = np.array([0.0, 10.0, 5.0])
        th = compute_thresholds(samples, alpha=0.5)
        assert th.mu == 5.0
        assert th.sigma == pytest.approx(np.sqrt(50.0 / 3.0))
        assert drop_indices(samples, th).indices.tolist() == [2]

    def test_alpha_zero_drops_nothing(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=200)
        th = compute_thresholds(samples, alpha=0.0)
        assert len(drop_indices(samples, th)) == 0


class TestMergeKept:
    def test_simple_complement(self):
        kept = merge_kept(DropList([0]), DropList([2]), n=4)
        assert kept.tolist() == [1, 3]

    def test_empty_drops_keep_all(self):
        kept = merge_kept(DropList([]), DropList([]), n=5)
        assert kept.tolist() == [0, 1, 2, 3, 4]

    def test_matches_set_complement_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = 20
            a = np.flatnonzero(rng.random(n) < 0.3)
            b = np.flatnonzero(rng.random(n) < 0.3)
            kept = merge_kept(DropList(a), DropList(b), n)
            oracle = sorted(set(range(n)) - set(a.tolist()) - set(b.tolist()))
            assert kept.tolist() == oracle

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ConfigError):
            merge_kept(DropList([4]), DropList([]), n=4)


class TestExtractBits:
    def test_boundary_inclusive_rule(self):
        th = compute_thresholds([1.0, 3.0], alpha=1.0)
        bits = extract_bits([1.0, 3.0], th, [0, 1])
        assert bits.to01() == "01"

    def test_empty_kept_gives_empty_stream(self):
        th = compute_thresholds([1.0, 3.0], alpha=1.0)
        assert len(extract_bits([1.0, 3.0], th, [])) == 0

    def test_in_band_kept_index_signals_desync(self):
        samples = np.array([0.0, 10.0, 5.0])
        th = compute_thresholds(samples, alpha=0.5)
        with pytest.raises(DesyncError):
            extract_bits(samples, th, [0, 1, 2])

    def test_kept_index_out_of_range(self):
        th = compute_thresholds([1.0, 3.0], alpha=1.0)
        with pytest.raises(ConfigError):
            extract_bits([1.0, 3.0], th, [0, 5])


class TestMatrixQuantizer:
    def test_rows_match_the_one_stream_api(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            m, n = int(rng.integers(1, 8)), int(rng.integers(2, 120))
            alpha = float(rng.choice([0.0, 0.3, 0.7, 1.2]))
            amp_a = rng.normal(20, 4, size=(m, n))
            amp_b = amp_a + rng.normal(0, 1, size=(m, n))
            if trial % 2:
                # half-integer grid: samples can sit exactly on a threshold
                amp_a, amp_b = np.round(2 * amp_a) / 2, np.round(2 * amp_b) / 2
            qa, qb = quantize_matrix(amp_a, alpha), quantize_matrix(amp_b, alpha)
            keep = keep_mask(qa.inside, qb.inside, (m, n))
            streams_a = extract_streams(qa, qa.inside, qb.inside, party="alice")
            streams_b = extract_streams(qb, qa.inside, qb.inside, "bob", n // 3)
            for i in range(m):
                th_a = compute_thresholds(amp_a[i], alpha)
                th_b = compute_thresholds(amp_b[i], alpha)
                assert (qa.mu[i], qa.sigma[i]) == (th_a.mu, th_a.sigma)
                drop_a, drop_b = drop_indices(amp_a[i], th_a), drop_indices(amp_b[i], th_b)
                assert np.flatnonzero(qa.inside[i]).tolist() == drop_a.indices.tolist()
                kept = merge_kept(drop_a, drop_b, n)
                assert np.flatnonzero(keep[i]).tolist() == kept.tolist()
                assert streams_a[i] == extract_bits(amp_a[i], th_a, kept, "alice", i)
                full_b = extract_bits(amp_b[i], th_b, kept, "bob", i)
                assert streams_b[i] == BitStream(full_b.bits[: n // 3], "bob", i)

    def test_boundary_inclusive_rule(self):
        q = quantize_matrix([[1.0, 3.0], [0.0, 0.0]], alpha=1.0)
        assert not q.inside.any()
        assert q.ones.tolist() == [[False, True], [True, True]]

    @pytest.mark.parametrize(
        "amplitudes,alpha",
        [([1.0, 2.0], 1.0), ([[1.0]], 1.0), ([[1.0, float("nan")]], 1.0), ([[1.0, 2.0]], -0.5)],
    )
    def test_rejects_bad_inputs(self, amplitudes, alpha):
        with pytest.raises(ConfigError):
            quantize_matrix(amplitudes, alpha)

    def test_keep_mask_from_drop_lists_equals_mask_form(self):
        rng = np.random.default_rng(3)
        qa = quantize_matrix(rng.normal(size=(5, 40)), 0.5)
        qb = quantize_matrix(rng.normal(size=(5, 40)), 0.5)
        from_masks = keep_mask(qa.inside, qb.inside, (5, 40))
        wire_a = decode_drop_lists(encode_drop_lists(qa.inside), 40)
        wire_b = decode_drop_lists(encode_drop_lists(qb.inside), 40)
        assert np.array_equal(from_masks, keep_mask(wire_a, wire_b, (5, 40)))
        assert np.array_equal(from_masks, ~(qa.inside | qb.inside))

    def test_keep_mask_rejects_wrong_stream_count_and_range(self):
        with pytest.raises(DesyncError):
            keep_mask(np.zeros((1, 4), dtype=bool), np.zeros((2, 4), dtype=bool), (2, 4))
        with pytest.raises(DesyncError):
            keep_mask(np.zeros((3, 4), dtype=bool), np.zeros((2, 4), dtype=bool), (2, 4))
        with pytest.raises(WireFormatError):
            decode_drop_lists(encode_drop_lists([[False] * 4 + [True]]), 4)

    def test_kept_in_band_sample_signals_desync(self):
        q = quantize_matrix([[0.0, 10.0, 5.0], [0.0, 10.0, 5.0]], alpha=0.5)
        drops = np.array([[False, False, True], [False, False, False]])
        assert len(extract_streams(q, q.inside, drops)[1]) == 2
        with pytest.raises(DesyncError, match="stream 1: kept index 2"):
            extract_streams(q, drops, drops)


class TestProperties:
    def test_partition_every_index_exactly_one_category(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            samples = rng.normal(0, 3, size=100)
            alpha = rng.choice([0.0, 0.3, 0.7, 1.2])
            th = compute_thresholds(samples, alpha)
            dropped = set(drop_indices(samples, th).indices.tolist())
            kept = [i for i in range(100) if i not in dropped]
            bits = extract_bits(samples, th, kept)
            ones = {i for i, b in zip(kept, bits.bits) if b == 1}
            zeros = {i for i, b in zip(kept, bits.bits) if b == 0}
            assert dropped | ones | zeros == set(range(100))
            assert not (dropped & ones) and not (dropped & zeros) and not (ones & zeros)

    def test_drop_set_monotone_in_alpha(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(0, 2, size=300)
        previous = set()
        for alpha in (0.0, 0.2, 0.4, 0.7, 1.0, 1.5):
            th = compute_thresholds(samples, alpha)
            dropped = set(drop_indices(samples, th).indices.tolist())
            assert previous <= dropped
            previous = dropped

    def test_mirroring_flips_bits_and_preserves_drops(self):
        rng = np.random.default_rng(13)
        for trial in range(50):
            # half-integer grid keeps samples safely off the thresholds
            samples = rng.integers(-40, 40, size=80) / 2.0
            alpha = float(rng.choice([0.25, 0.5, 1.0]))
            th = compute_thresholds(samples, alpha)
            mirrored = 2.0 * th.mu - samples
            th_m = compute_thresholds(mirrored, alpha)
            assert th_m.mu == pytest.approx(th.mu)
            assert th_m.sigma == pytest.approx(th.sigma)
            drops = drop_indices(samples, th).indices.tolist()
            drops_m = drop_indices(mirrored, th_m).indices.tolist()
            assert drops == drops_m
            kept = merge_kept(DropList(drops), DropList(drops), len(samples))
            bits = extract_bits(samples, th, kept)
            bits_m = extract_bits(mirrored, th_m, kept)
            assert np.array_equal(bits.bits ^ 1, bits_m.bits)


class TestTypes:
    def test_bitstream_rejects_non_bits(self):
        with pytest.raises(ConfigError):
            BitStream(np.array([0, 2, 1]))

    def test_bitstream_equality_includes_origin(self):
        a = BitStream([1, 0, 1], party="alice", stream=0)
        b = BitStream([1, 0, 1], party="alice", stream=0)
        c = BitStream([1, 0, 1], party="bob", stream=0)
        assert a == b
        assert a != c

    def test_droplist_requires_strict_increase(self):
        with pytest.raises(ConfigError):
            DropList([1, 1, 2])
        with pytest.raises(ConfigError):
            DropList([3, 2])
