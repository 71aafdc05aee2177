import numpy as np
import pytest

from skece.errors import ConfigError, DesyncError, WireFormatError
from skece.protocol import decode_drop_lists, encode_drop_lists
from skece.quantizer import (
    BitStream,
    extract_bits,
    extract_streams,
    keep_mask,
    merge_kept,
    quantize_matrix,
    quantize_stream,
    split_streams,
)


def reference(amp_a, amp_b, alpha):
    """Per row: both parties' (mu, sigma, drops), the kept indices and both bit lists.

    mu and sigma are numpy's 1-D mean and population std of the row; every
    drop and bit is a plain-Python comparison of one sample.
    """
    rows = []
    for pair in zip(amp_a, amp_b):
        stats, q_plus = [], []
        for row in pair:
            mu, sigma = float(np.mean(row)), float(np.std(row))
            lo, hi = mu - alpha * sigma, mu + alpha * sigma
            stats.append((mu, sigma, [lo < x < hi for x in row.tolist()]))
            q_plus.append(hi)
        kept = [k for k in range(len(pair[0])) if not (stats[0][2][k] or stats[1][2][k])]
        bits = [[int(row[k] >= hi) for k in kept] for row, hi in zip(pair, q_plus)]
        rows.append((stats, kept, bits))
    return rows


def random_pair(rng, trial):
    m, n = int(rng.integers(1, 8)), int(rng.integers(2, 120))
    amp_a = rng.normal(20, 4, size=(m, n))
    amp_b = amp_a + rng.normal(0, 1, size=(m, n))
    if trial % 2:
        # half-integer grid: samples can sit exactly on a threshold
        amp_a, amp_b = np.round(2 * amp_a) / 2, np.round(2 * amp_b) / 2
    return amp_a, amp_b


class TestBand:
    def test_constant_samples_collapse_band(self):
        q = quantize_matrix([[0.0, 0.0, 0.0, 0.0]], alpha=1.0)
        assert (q.mu.tolist(), q.sigma.tolist()) == ([0.0], [0.0])
        # q- = q+ = 0: no sample lies strictly inside, and all sit at q+
        assert not q.inside.any()
        assert q.ones.all()

    def test_two_samples_population_sigma(self):
        q = quantize_matrix([[1.0, 3.0]], alpha=1.0)
        assert (q.mu.tolist(), q.sigma.tolist()) == ([2.0], [1.0])
        # the band is [1, 3]: both samples sit on a boundary
        assert not q.inside.any()
        assert q.ones.tolist() == [[False, True]]

    def test_alpha_zero_collapses_to_mean(self):
        samples = np.array([[1.0, 3.0, 2.0], [5.0, -2.0, 7.5]])
        q = quantize_matrix(samples, alpha=0.0)
        assert not q.inside.any()
        assert np.array_equal(q.ones, samples >= q.mu[:, None])

    def test_alpha_zero_drops_nothing(self):
        rng = np.random.default_rng(0)
        assert not quantize_matrix(rng.normal(size=(4, 200)), alpha=0.0).inside.any()

    def test_band_membership_strict(self):
        q = quantize_matrix([[0.0, 10.0, 5.0]], alpha=0.5)
        assert q.mu.tolist() == [5.0]
        assert q.sigma[0] == pytest.approx(np.sqrt(50.0 / 3.0))
        assert q.inside.tolist() == [[False, False, True]]

    def test_every_sample_at_the_mean_is_dropped(self):
        q = quantize_matrix([[0.0, 5.0, 5.0, 5.0, 5.0, 10.0]], alpha=0.5)
        assert np.flatnonzero(q.inside[0]).tolist() == [1, 2, 3, 4]

    def test_boundary_inclusive_rule(self):
        q = quantize_matrix([[1.0, 3.0], [0.0, 0.0]], alpha=1.0)
        assert not q.inside.any()
        assert q.ones.tolist() == [[False, True], [True, True]]

    @pytest.mark.parametrize(
        "amplitudes,alpha",
        [
            ([1.0, 2.0], 1.0),
            ([[1.0]], 1.0),
            ([[]], 1.0),
            ([[1.0, float("nan")]], 1.0),
            ([[1.0, 2.0]], -0.5),
            ([[1.0, 2.0]], float("nan")),
            # an infinite band would make inf * 0 of a constant row's sigma
            ([[1.0, 2.0]], float("inf")),
            ([[3.0, 3.0]], float("inf")),
            ([[1.0, 2.0]], "x"),
            ([[1.0, 2.0]], None),
            ([[1.0, 2.0]], True),
        ],
    )
    def test_rejects_bad_inputs(self, amplitudes, alpha):
        with pytest.raises(ConfigError):
            quantize_matrix(amplitudes, alpha)


class TestKeepMask:
    def test_simple_complement(self):
        keep = keep_mask(np.array([[1, 0, 0, 0]]), np.array([[0, 0, 1, 0]]), (1, 4))
        assert np.flatnonzero(keep[0]).tolist() == [1, 3]

    def test_nested_lists_are_drop_masks_too(self):
        assert keep_mask([[True]], [[False]], (1, 1)).tolist() == [[False]]
        assert keep_mask([[0, 1, 0]], [[0, 0, 2]], (1, 3)).tolist() == [[True, False, False]]

    def test_empty_drops_keep_all(self):
        none = np.zeros((2, 5), dtype=bool)
        assert keep_mask(none, none, (2, 5)).all()

    def test_matches_set_complement_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a, b = rng.random((2, 3, 20)) < 0.3
            keep = keep_mask(a, b, (3, 20))
            for i in range(3):
                oracle = set(range(20)) - set(np.flatnonzero(a[i])) - set(np.flatnonzero(b[i]))
                assert np.flatnonzero(keep[i]).tolist() == sorted(oracle)

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


class TestExtractStreams:
    def test_boundary_samples_become_bits(self):
        q = quantize_matrix([[1.0, 3.0]], alpha=1.0)
        assert extract_streams(q, q.inside, q.inside)[0].to01() == "01"

    def test_empty_kept_set_gives_empty_stream(self):
        q = quantize_matrix([[1.0, 3.0], [1.0, 3.0]], alpha=1.0)
        drops = np.array([[True, True], [False, False]])
        streams = extract_streams(q, q.inside, drops)
        assert [len(s) for s in streams] == [0, 2]

    def test_kept_in_band_sample_signals_desync(self):
        q = quantize_matrix([[0.0, 10.0, 5.0], [0.0, 10.0, 5.0]], alpha=0.5)
        drops = np.array([[False, False, True], [False, False, False]])
        assert len(extract_streams(q, q.inside, drops)[1]) == 2
        with pytest.raises(DesyncError, match="stream 1: kept index 2"):
            extract_streams(q, drops, drops)

    def test_rows_match_a_per_sample_reference(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            amp_a, amp_b = random_pair(rng, trial)
            m, n = amp_a.shape
            alpha = float(rng.choice([0.0, 0.3, 0.7, 1.2]))
            qa, qb = quantize_matrix(amp_a, alpha), quantize_matrix(amp_b, alpha)
            keep = keep_mask(qa.inside, qb.inside, (m, n))
            streams_a = extract_streams(qa, qa.inside, qb.inside)
            streams_b = extract_streams(qb, qa.inside, qb.inside, n // 3)
            for i, (stats, kept, bits) in enumerate(reference(amp_a, amp_b, alpha)):
                for q, (mu, sigma, drops) in zip((qa, qb), stats):
                    assert (q.mu[i], q.sigma[i]) == (mu, sigma)
                    assert q.inside[i].tolist() == drops
                assert np.flatnonzero(keep[i]).tolist() == kept
                assert streams_a[i] == BitStream(bits[0])
                assert streams_b[i] == BitStream(bits[1][: n // 3])


class TestSplitStreams:
    def test_streams_are_read_only_slices_of_the_kept_bits(self):
        bits = np.array([[1, 0, 1, 1], [0, 0, 1, 0], [1, 1, 1, 1]], dtype=np.uint8)
        keep = np.array([[True, True, False, True], [False] * 4, [True] * 4])
        streams = split_streams(bits, keep, limit=3)
        assert streams == [BitStream([1, 0, 1]), BitStream([]), BitStream([1, 1, 1])]
        for s in streams:
            assert s.bits.dtype == np.uint8 and not s.bits.flags.writeable
            with pytest.raises(ValueError):
                s.bits[:1] = 0
        bits[0, 0] = 0  # the streams do not share the caller's array
        assert streams[0].bits[0] == 1

    def test_bools_become_bits(self):
        keep = np.ones((2, 3), dtype=bool)
        streams = split_streams(np.array([[True, False, True], [False] * 3]), keep)
        assert [s.to01() for s in streams] == ["101", "000"]

    @pytest.mark.parametrize("bad", [2, 0.5, -1, 255])
    def test_non_bits_are_refused(self, bad):
        bits = np.zeros((2, 4))
        bits[1, 2] = bad
        keep = np.ones((2, 4), dtype=bool)
        with pytest.raises(ConfigError, match="only 0 and 1"):
            split_streams(bits.astype(np.uint8) if bad == 255 else bits, keep)
        keep[1, 2] = False  # a value nobody keeps is never read
        assert [len(s) for s in split_streams(bits, keep)] == [4, 3]

    def test_unknown_party_is_refused(self):
        with pytest.raises(ConfigError, match="unknown party"):
            BitStream([1], party="mallory")


class TestOneRowDelegates:
    def test_each_delegate_equals_its_matrix_row(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            amp_a, amp_b = random_pair(rng, trial)
            alpha = float(rng.choice([0.0, 0.3, 0.7, 1.2]))
            qa, qb = quantize_matrix(amp_a, alpha), quantize_matrix(amp_b, alpha)
            keep = keep_mask(qa.inside, qb.inside, qa.inside.shape)
            streams_a = extract_streams(qa, qa.inside, qb.inside)
            for i in range(len(amp_a)):
                ra, rb = quantize_stream(amp_a[i], alpha), quantize_stream(amp_b[i], alpha)
                assert (ra.mu.tolist(), ra.sigma.tolist()) == ([qa.mu[i]], [qa.sigma[i]])
                assert np.array_equal(ra.inside, qa.inside[i : i + 1])
                assert np.array_equal(ra.ones, qa.ones[i : i + 1])
                kept = merge_kept(ra.inside, rb.inside)
                assert kept.tolist() == np.flatnonzero(keep[i]).tolist()
                tagged = BitStream(streams_a[i].bits, "alice", i)
                assert extract_bits(ra, ra.inside, rb.inside, "alice", i) == tagged
                assert extract_bits(ra, ra.inside, rb.inside) == streams_a[i]

    def test_delegates_take_one_row_only(self):
        with pytest.raises(ConfigError):
            quantize_stream([[1.0, 2.0]], 1.0)
        q = quantize_matrix([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], 1.0)
        with pytest.raises(ConfigError):
            merge_kept(q.inside, q.inside)
        with pytest.raises(ConfigError):
            merge_kept(q.inside[0], q.inside[0])
        with pytest.raises(ConfigError):
            extract_bits(q, q.inside, q.inside)


class TestProperties:
    def test_partition_every_index_exactly_one_category(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            samples = rng.normal(0, 3, size=(4, 100))
            alpha = rng.choice([0.0, 0.3, 0.7, 1.2])
            q = quantize_matrix(samples, alpha)
            q_minus = (q.mu - alpha * q.sigma)[:, None]
            streams = extract_streams(q, q.inside, q.inside)
            # a sample is dropped, a 1 bit (at or above q+) or a 0 bit (at or below q-)
            assert not (q.inside & q.ones).any()
            zeros = ~q.inside & ~q.ones
            assert (samples <= q_minus)[zeros].all()
            for i, stream in enumerate(streams):
                assert len(stream) == np.count_nonzero(~q.inside[i])
                assert np.array_equal(stream.bits, q.ones[i][~q.inside[i]])

    def test_drop_set_monotone_in_alpha(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(0, 2, size=(3, 300))
        previous = np.zeros(samples.shape, dtype=bool)
        for alpha in (0.0, 0.2, 0.4, 0.7, 1.0, 1.5):
            dropped = quantize_matrix(samples, alpha).inside
            assert not (previous & ~dropped).any()
            previous = dropped

    def test_mirroring_flips_bits_and_preserves_drops(self):
        rng = np.random.default_rng(13)
        for trial in range(50):
            # half-integer grid keeps samples safely off the thresholds
            samples = rng.integers(-40, 40, size=(2, 80)) / 2.0
            alpha = float(rng.choice([0.25, 0.5, 1.0]))
            q = quantize_matrix(samples, alpha)
            mirrored = 2.0 * q.mu[:, None] - samples
            q_m = quantize_matrix(mirrored, alpha)
            assert q_m.mu == pytest.approx(q.mu)
            assert q_m.sigma == pytest.approx(q.sigma)
            assert np.array_equal(q.inside, q_m.inside)
            bits = extract_streams(q, q.inside, q.inside)
            bits_m = extract_streams(q_m, q.inside, q.inside)
            for s, s_m in zip(bits, bits_m):
                assert np.array_equal(s.bits ^ 1, s_m.bits)


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

    def test_bitstream_leaves_the_callers_array_writeable(self):
        a = np.array([1, 0, 1], dtype=np.uint8)
        s = BitStream(a)
        assert a.flags.writeable and not s.bits.flags.writeable
        a[0] = 0
        assert s.to01() == "101"

    def test_bitstream_of_a_row_does_not_alias_the_matrix(self):
        g = np.zeros((2, 4), dtype=np.uint8)
        s = BitStream(g[0])
        g[0, 0] = 1
        assert g.flags.writeable and s.to01() == "0000"

    def test_bitstream_of_a_buffer_does_not_alias_it(self):
        buf = bytearray(b"\x00\x01")
        s = BitStream(buf)
        buf[0] = 1
        assert s.to01() == "01"
