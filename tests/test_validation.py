import hashlib
import struct

import numpy as np
import pytest

from skece.errors import ConfigError, ProtocolError, WireFormatError
from skece.protocol import decode_tags, encode_tags
from skece.quantizer import BitStream
from skece.validation import (
    CANONICAL_COUNT,
    ValidationTag,
    canonical_bit_encoding,
    checking_length,
    decode_bit_block,
    encode_bit_block,
    make_tag,
    make_tags,
    sha1_digest,
    validate,
)

# Federal Information Processing Standards Publication 180-1 test vectors
FIPS_VECTORS = [
    (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
    ),
    (b"a" * 1_000_000, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
    (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
]


class TestCheckingLength:
    @pytest.mark.parametrize(
        "gamma,r", [(0.98, 6), (0.5, 1), (0.999, 10), (float(np.nextafter(1.0, 0.0)), 53)]
    )
    def test_known_values(self, gamma, r):
        assert checking_length(gamma) == r

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.2, 1.5, "0.5", None])
    def test_rejects_out_of_range(self, gamma):
        with pytest.raises(ConfigError):
            checking_length(gamma)

    def test_r_is_minimal(self):
        rng = np.random.default_rng(0)
        for gamma in rng.uniform(0.01, 0.999999, size=200):
            r = checking_length(float(gamma))
            assert 1.0 - 0.5**r >= gamma
            if r > 1:
                assert 1.0 - 0.5 ** (r - 1) < gamma

    def test_exact_powers_of_two(self):
        assert checking_length(0.75) == 2
        assert checking_length(0.875) == 3

    def test_gamma_beyond_digest_length_rejected(self):
        with pytest.raises(ConfigError):
            checking_length(1.0 - 2.0**-200)


class TestSha1Conformance:
    @pytest.mark.parametrize(
        "data,hexdigest",
        FIPS_VECTORS,
        ids=["abc", "two-block-message", "million-a", "empty"],
    )
    def test_fips_vectors(self, data, hexdigest):
        assert sha1_digest(data).hex() == hexdigest


class TestCanonicalEncoding:
    def test_length_prefix_and_packing(self):
        enc = canonical_bit_encoding([1, 0, 0, 0, 0, 0, 0, 1])
        assert enc == bytes([0, 0, 0, 0, 0, 0, 0, 8, 0x81])

    def test_partial_byte_zero_padded(self):
        enc = canonical_bit_encoding([1, 1, 1])
        assert enc == bytes([0, 0, 0, 0, 0, 0, 0, 3, 0b11100000])

    def test_distinct_lengths_cannot_collide(self):
        assert canonical_bit_encoding([0]) != canonical_bit_encoding([0, 0])


class TestBitBlock:
    @pytest.mark.parametrize("count", [CANONICAL_COUNT, struct.Struct(">H")], ids=["Q", "H"])
    @pytest.mark.parametrize("nbits", [0, 1, 7, 8, 9, 300])
    def test_round_trip_at_an_offset(self, count, nbits):
        bits = np.random.default_rng(nbits).integers(0, 2, nbits, dtype=np.uint8)
        block = encode_bit_block(bits, count)
        assert block == count.pack(nbits) + np.packbits(bits).tobytes()
        decoded, end = decode_bit_block(b"\x07" + block + b"\x09", 1, count)
        assert decoded.tolist() == bits.tolist() and end == 1 + len(block)

    @pytest.mark.parametrize(
        "payload,words",
        [
            (bytes(7), "lacks its 8-byte count"),
            (bytes(7) + bytes([9, 0]), "needs 2 bytes, got 1"),
        ],
    )
    def test_malformed_blocks(self, payload, words):
        with pytest.raises(WireFormatError, match=words):
            decode_bit_block(payload, 0, CANONICAL_COUNT)


class TestMakeTag:
    def test_empty_stream_hashes_the_length_header(self):
        tag = make_tag([], r=8)
        assert tag.tag == hashlib.sha1(b"\x00" * 8).digest()[:1]

    def test_deterministic(self):
        bits = BitStream(np.random.default_rng(1).integers(0, 2, 300, dtype=np.uint8))
        assert make_tag(bits, 6) == make_tag(bits, 6)

    def test_truncation_masks_trailing_bits(self):
        bits = [1, 0, 1]
        full = sha1_digest(canonical_bit_encoding(bits))
        tag = make_tag(bits, r=6)
        assert tag.tag[0] == full[0] & 0b11111100

    def test_avalanche_frequency_of_tag_difference(self):
        # one flipped bit changes a 6-bit tag with frequency about 1 - 2**-6
        rng = np.random.default_rng(2)
        trials = 10_000
        differing = 0
        for _ in range(trials):
            bits = rng.integers(0, 2, 64, dtype=np.uint8)
            other = bits.copy()
            other[rng.integers(0, 64)] ^= 1
            differing += make_tag(bits, 6).tag != make_tag(other, 6).tag
        expected = 1.0 - 2.0**-6
        sigma = (expected * (1 - expected) / trials) ** 0.5
        assert abs(differing / trials - expected) < 4 * sigma

    def test_tag_invariants(self):
        with pytest.raises(ConfigError):
            ValidationTag(r=0, tag=b"")
        with pytest.raises(ConfigError):
            ValidationTag(r=200, tag=b"\x00" * 25)
        with pytest.raises(ConfigError):
            ValidationTag(r=6, tag=b"\x00\x00")


def reference_tag(bits, r: int) -> bytes:
    """Leading r bits of SHA-1 over the 8-byte bit count and the bits packed MSB-first."""
    bits = np.asarray(bits, dtype=np.uint8)
    packed = bytes(
        int("".join(map(str, bits[k : k + 8].tolist())).ljust(8, "0"), 2)
        for k in range(0, bits.size, 8)
    )
    digest = hashlib.sha1(struct.pack(">Q", bits.size) + packed).digest()
    value = int.from_bytes(digest, "big") >> (160 - r) << (-r % 8)
    return value.to_bytes((r + 7) // 8, "big")


class TestMakeTags:
    @pytest.mark.parametrize("r", [1, 6, 8, 9, 160])
    def test_every_length_up_to_300_in_one_call(self, r):
        rng = np.random.default_rng(r)
        streams = [rng.integers(0, 2, n, dtype=np.uint8) for n in range(301)]
        order = rng.permutation(len(streams))  # longer and shorter rows side by side
        tags = make_tags([streams[k] for k in order], r)
        assert tags == [reference_tag(streams[k], r) for k in order]

    @pytest.mark.parametrize("r", [1, 6, 8, 9, 160])
    def test_one_stream_calls_are_make_tags_of_one_stream(self, r):
        rng = np.random.default_rng(100 + r)
        for n in (0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 300):
            bits = rng.integers(0, 2, n, dtype=np.uint8)
            assert make_tag(bits, r) == ValidationTag(r=r, tag=make_tags([bits], r)[0])
            assert make_tag(bits, r).tag == reference_tag(bits, r)
            assert validate(ValidationTag(r=r, tag=reference_tag(bits, r)), bits, r)

    def test_empty_list_and_every_input_form(self):
        assert make_tags([], 6) == []
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1]
        forms = [bits, np.array(bits, dtype=bool), np.array(bits), BitStream(bits, "bob", 3)]
        assert make_tags(forms, 9) == [reference_tag(bits, 9)] * 4

    @pytest.mark.parametrize("r", [0, 161])
    def test_r_outside_the_digest_is_refused(self, r):
        with pytest.raises(ConfigError, match="r must be in"):
            make_tags([[1, 0]], r)

    def test_non_bits_are_refused(self):
        with pytest.raises(ConfigError, match="only 0 and 1"):
            make_tags([[0, 1], [0, 2]], 6)


class TestValidate:
    def test_identical_streams_match(self):
        bits = np.random.default_rng(3).integers(0, 2, 300, dtype=np.uint8)
        tag = make_tag(bits, 6)
        assert validate(tag, bits, 6) is True

    def test_single_flip_detected_with_high_probability(self):
        rng = np.random.default_rng(4)
        trials = 10_000
        detected = 0
        for _ in range(trials):
            bits = rng.integers(0, 2, 300, dtype=np.uint8)
            other = bits.copy()
            other[rng.integers(0, 300)] ^= 1
            detected += not validate(make_tag(bits, 6), other, 6)
        assert detected / trials >= 0.97

    def test_checking_length_disagreement_is_protocol_error(self):
        bits = [1, 0, 1, 1]
        tag = make_tag(bits, 6)
        with pytest.raises(ProtocolError):
            validate(tag, bits, 8)


class TestTagWire:
    """A tag travels only inside a TAGS message."""

    def test_round_trip(self):
        for r in (1, 5, 6, 8, 13, 160):
            tag = make_tag([1, 0, 1], r=r)
            assert decode_tags(encode_tags([tag.tag], r)) == (r, [tag.tag])

    def test_wire_errors(self):
        with pytest.raises(WireFormatError):
            decode_tags(b"")
        with pytest.raises(WireFormatError):
            decode_tags(bytes([6, 0, 1]) + b"\x00\x00")
