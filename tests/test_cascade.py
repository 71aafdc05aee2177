import hashlib

import numpy as np
import pytest

from skece.cascade import CascadeConfig, cascade_reconcile
from skece.errors import ConfigError
from skece.protocol import MsgType, encode
from skece.quantizer import BitStream


def random_pair(seed, length=300, flips=1):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, length, dtype=np.uint8)
    b = a.copy()
    b[rng.choice(length, size=flips, replace=False)] ^= 1
    return BitStream(a, party="alice"), BitStream(b, party="bob"), a


class TestBasics:
    def test_equal_streams_stop_after_one_parity_round(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 300, dtype=np.uint8)
        out = cascade_reconcile(
            BitStream(bits, party="alice"),
            BitStream(bits, party="bob"),
            CascadeConfig(rng_seed=1),
        )
        assert out.converged
        assert np.array_equal(out.corrected.bits, bits)
        # one batched parity message per direction, no binary search
        assert out.messages_sent == 2
        assert all(m.msg_type == MsgType.PARITY for m in out.transcript)

    def test_single_flip_bisection_message_count(self):
        # length 8, block 4: the flip costs ceil(log2(4)) = 2 request/response
        # pairs, then the next (doubled) round confirms with one clean
        # parity exchange
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2, 8, dtype=np.uint8)
        b = a.copy()
        b[5] ^= 1
        out = cascade_reconcile(
            BitStream(a),
            BitStream(b),
            CascadeConfig(initial_block_size=4, rounds=3, rng_seed=2),
        )
        assert np.array_equal(out.corrected.bits, a)
        bisects = [m for m in out.transcript if m.msg_type == MsgType.BISECT]
        assert len(bisects) == 4  # 2 message pairs
        assert out.messages_sent == 2 + 4 + 2

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(initial_block_size=0),
            dict(initial_block_size=4.0),
            dict(rounds=0),
            dict(rounds=2.5),
            dict(rounds=None),
            dict(rounds=True),
            dict(rng_seed=-1),
            dict(rng_seed="1"),
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        (name,) = overrides
        with pytest.raises(ConfigError, match=f"^{name} must"):
            CascadeConfig(**overrides)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ConfigError):
            cascade_reconcile(
                BitStream([1, 0, 1]), BitStream([1, 0]), CascadeConfig()
            )

    def test_empty_streams_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            cascade_reconcile(BitStream([]), BitStream([]), CascadeConfig())

    @pytest.mark.parametrize(
        "bad", [[1, 2, 0], np.array([0.5, 1.0, 0.0]), np.ones((3, 1)), "101", None]
    )
    def test_non_bit_input_rejected(self, bad):
        good = BitStream([1, 0, 1])
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(ConfigError):
                cascade_reconcile(a, b, CascadeConfig())

    def test_plain_sequences_reconcile_like_streams(self):
        a, b, bits = random_pair(9, flips=1)
        b = BitStream(b.bits, party="bob", stream=4)
        from_streams = cascade_reconcile(a, b, CascadeConfig(rng_seed=5))
        from_arrays = cascade_reconcile(bits, b.bits.tolist(), CascadeConfig(rng_seed=5))
        assert from_streams.corrected == BitStream(bits)
        assert from_arrays.corrected == BitStream(bits)
        assert from_arrays.transcript == from_streams.transcript

    def test_message_accounting_matches_transcript(self):
        a, b, _ = random_pair(7, flips=3)
        out = cascade_reconcile(a, b, CascadeConfig(rng_seed=3))
        assert out.messages_sent == len(out.transcript)
        assert out.counters.total_bytes == sum(len(encode(m)) for m in out.transcript)

    def test_leaked_bits_counted(self):
        # one flip in 300 bits, block 16: round 1 discloses 2x19 block
        # parities plus 4 bisection responses, the clean doubled round 2x10
        a, b, _ = random_pair(8, flips=1)
        out = cascade_reconcile(a, b, CascadeConfig(rng_seed=4))
        assert out.bits_leaked == 2 * 19 + 4 + 2 * 10


class TestConvergence:
    def test_monte_carlo_convergence_and_failure_signature(self):
        # even mismatch counts hiding inside every block of a round stop the
        # run early; all residual failures must carry that signature
        trials = 1000
        equal = 0
        for t in range(trials):
            rng = np.random.default_rng(t)
            flips = int(rng.integers(1, 4))
            a = rng.integers(0, 2, 300, dtype=np.uint8)
            b = a.copy()
            b[rng.choice(300, size=flips, replace=False)] ^= 1
            out = cascade_reconcile(
                BitStream(a),
                BitStream(b),
                CascadeConfig(initial_block_size=16, rounds=4, rng_seed=t),
            )
            if np.array_equal(out.corrected.bits, a):
                equal += 1
                assert (
                    hashlib.sha1(out.corrected.bits.tobytes()).digest()
                    == hashlib.sha1(a.tobytes()).digest()
                )
            else:
                residual = int(np.count_nonzero(out.corrected.bits != a))
                assert residual % 2 == 0
        assert equal / trials >= 0.97

    def test_odd_error_counts_always_progress(self):
        # an odd mismatch count cannot hide from a parity round, so the
        # first round always corrects something and any terminating state
        # has an even residual
        equal = 0
        for t in range(50):
            a, b, truth = random_pair(1000 + t, flips=3)
            out = cascade_reconcile(a, b, CascadeConfig(rng_seed=t))
            residual = int(np.count_nonzero(out.corrected.bits != truth))
            assert residual < 3
            if out.converged:
                assert residual % 2 == 0
            if residual == 0:
                equal += 1
        assert equal >= 45

    def test_more_rounds_only_help(self):
        a, b, truth = random_pair(31, flips=2)
        short = cascade_reconcile(a, b, CascadeConfig(rounds=1, rng_seed=5))
        long = cascade_reconcile(a, b, CascadeConfig(rounds=6, rng_seed=5))
        d_short = int(np.count_nonzero(short.corrected.bits != truth))
        d_long = int(np.count_nonzero(long.corrected.bits != truth))
        assert d_long <= d_short
