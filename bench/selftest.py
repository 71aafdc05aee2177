"""Self-test of the benchmark's checkers and span arithmetic.

    python3 bench/selftest.py

The reference computations in ``checks`` must agree with the library on
valid outputs, and every workload's ``check`` must reject a corrupted one;
a checker that accepts anything would let a wrong optimisation pass.
"""

import dataclasses
import unittest

import run

run.import_library()

import numpy as np
from scipy.special import gammaincc
from skece import analysis, channel, experiments, recombine, validation
from skece.quantizer import BitStream

import checks
import tracing
import workloads
from checks import CheckFailed


class ReferenceTest(unittest.TestCase):
    def test_levenshtein(self):
        self.assertEqual(checks.levenshtein(b"kitten", b"sitting"), 3)
        self.assertEqual(checks.levenshtein([], [1, 0, 1]), 3)
        self.assertEqual(checks.levenshtein([1, 1], []), 2)
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.integers(0, 2, int(rng.integers(0, 40)))
            b = rng.integers(0, 2, int(rng.integers(0, 40)))
            self.assertEqual(checks.levenshtein(a, b), recombine.edit_distance(a, b))

    def test_upper_gamma_q(self):
        for a in (1, 1.5, 2, 2.5, 3, 3.5):
            for x in (0.01, 0.5, 2.0, 7.5, 30.0):
                self.assertAlmostEqual(checks.upper_gamma_q(a, x), float(gammaincc(a, x)), delta=1e-12)

    def test_nist_references_agree_with_library(self):
        rng = np.random.default_rng(2)
        for n in (1000, 10_000):
            bits = rng.integers(0, 2, n, dtype=np.uint8)
            for report in analysis.run_all_tests(bits):
                reference = checks.NIST_REFERENCES[report.name](bits)
                self.assertAlmostEqual(reference, report.p_value, delta=1e-9, msg=report.name)

    def test_nist_references_reject_biased_bits(self):
        bits = (np.random.default_rng(3).random(10_000) < 0.6).astype(np.uint8)
        self.assertLess(checks.frequency_p(bits), 1e-6)
        self.assertLess(checks.approx_entropy_p(np.tile([1, 1, 0, 0], 2500)), 1e-6)

    def test_tag_agrees_with_library(self):
        rng = np.random.default_rng(4)
        for n in (0, 1, 7, 8, 9, 300):
            bits = rng.integers(0, 2, n, dtype=np.uint8)
            for r in (1, 6, 8, 13, 160):
                self.assertEqual(checks.tag(bits, r), validation.make_tag(bits, r).tag)
        self.assertEqual(checks.checking_length(0.98), validation.checking_length(0.98))

    def test_quantization_agrees_with_library(self):
        scenario = experiments.load_scenario("C")
        traces = channel.simulate(dataclasses.replace(scenario.config, rng_seed=5))
        lib_a, lib_b = experiments.extract_party_streams(traces, scenario.alpha)
        ref_a, ref_b = checks.party_streams(
            checks.quantize(traces.alice.amplitude_db, scenario.alpha),
            checks.quantize(traces.bob.amplitude_db, scenario.alpha),
        )
        for la, lb, ra, rb in zip(lib_a, lib_b, ref_a, ref_b):
            np.testing.assert_array_equal(la.bits, ra)
            np.testing.assert_array_equal(lb.bits, rb)

    def test_diff_vector_parser(self):
        x = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
        payload = recombine.encode_diff_vector(5, [0, 4, 2], x)
        self.assertEqual(checks.parse_diff_vector(payload), (5, [0, 4, 2], x.tolist()))


class TracingTest(unittest.TestCase):
    def test_self_times_subtract_direct_children(self):
        spans = [["op", 0, 100, -1], ["a", 10, 60, 0], ["b", 20, 30, 1], ["c", 70, 90, 0]]
        self.assertEqual(
            tracing.self_times(spans), [("op", 30), ("a", 40), ("b", 10), ("c", 20)]
        )

    def test_patch_records_and_restores(self):
        original = validation.make_tag
        recorder = tracing.SpanRecorder()
        with tracing.Patched(recorder):
            self.assertIsNot(validation.make_tag, original)
            validation.make_tag([1, 0], 6)  # inactive: not recorded
            recorder.start_op()
            tag = validation.make_tag([1, 0, 1], 6)
            self.assertTrue(validation.validate(tag, [1, 0, 1], 6))
            recorder.end_op()
        self.assertIs(validation.make_tag, original)
        self.assertEqual(recorder.calls["validation.make_tag"], 2)
        self.assertEqual(recorder.calls["validation.validate"], 1)
        self.assertEqual(recorder.attributed_ns, sum(recorder.self_ns.values()))

    def test_false_accept_counter(self):
        recorder = tracing.SpanRecorder()
        rng = np.random.default_rng(6)
        with tracing.Patched(recorder):
            recorder.start_op()
            accepted = 0
            for _ in range(400):
                a = rng.integers(0, 2, 64, dtype=np.uint8)
                b = a.copy()
                b[0] ^= 1
                accepted += validation.validate(validation.make_tag(a, 2), b, 2)
            recorder.end_op()
        self.assertGreater(accepted, 0)
        self.assertEqual(recorder.counts["validation.false_accepts"], accepted)


class WorkloadCheckTest(unittest.TestCase):
    def workload(self, name):
        w = workloads.WORKLOADS[name](7, run.WORK_DIR / f"selftest-{name}")
        if hasattr(w, "close"):
            self.addCleanup(w.close)
        return w

    def run_one(self, w, i=0):
        inputs = w.prepare(i)
        output = w.op(inputs)
        return inputs, output

    def test_stream_session(self):
        w = self.workload("stream_session")
        inputs, (traces, result) = self.run_one(w)
        self.assertIsNone(w.check(inputs, (traces, result)))
        flipped = BitStream(1 - result.key.bits, party="alice", stream=result.key.stream)
        bad = dataclasses.replace(result, key=flipped)
        self.assertRaises(CheckFailed, w.check, inputs, (traces, bad))
        other = w.op(w.prepare(1))[0]
        self.assertRaises(CheckFailed, w.check, inputs, (other, result))

    def test_recombination_session(self):
        w = self.workload("recombination_session")
        reasons = set()
        for i in range(w.round_size):
            inputs, (result, cas) = self.run_one(w, i)
            reasons.add(w.check(inputs, (result, cas)))
            if any(m.msg_type.name == "DIFF_VECTOR" for m in result.messages):
                k = inputs[2]
                msgs = list(result.messages)
                idx = next(n for n, m in enumerate(msgs) if m.msg_type.name == "DIFF_VECTOR")
                payload = bytearray(msgs[idx].payload)
                payload[3 + k] = (payload[3 + k] + 1) % 5
                msgs[idx] = dataclasses.replace(msgs[idx], payload=bytes(payload))
                bad = dataclasses.replace(result, messages=msgs)
                self.assertRaises(CheckFailed, w.check, inputs, (bad, cas))
            wrong = cas.corrected.bits.copy()
            j = inputs[1]
            pos = int(np.flatnonzero(wrong == inputs[0][0][j])[0])
            wrong[pos] ^= 1  # a flip that adds an error
            bad_cas = dataclasses.replace(cas, corrected=BitStream(wrong, party="bob"))
            self.assertRaises(CheckFailed, w.check, inputs, (result, bad_cas))
        self.assertEqual(reasons, {None, "silent_disagreement"})

    def test_key_quality(self):
        w = self.workload("key_quality")
        inputs, (bits, reports) = self.run_one(w)
        self.assertIsNone(w.check(inputs, (bits, reports)))
        w.end_of_run()
        bad_reports = [dataclasses.replace(reports[0], p_value=reports[0].p_value / 2)] + reports[1:]
        self.assertRaises(CheckFailed, w.check, inputs, (bits, bad_reports))
        flipped = bits.bits.copy()
        flipped[0] ^= 1
        self.assertRaises(CheckFailed, w.check, inputs, (BitStream(flipped), reports))

    def test_trace_files(self):
        w = self.workload("trace_files")
        inputs, output = self.run_one(w)
        self.assertIsNone(w.check(inputs, output))
        with open(w.paths["eve"], "a", encoding="utf-8") as fh:
            fh.write("99.0,0,1.0,0.0\n")
        self.assertRaises(CheckFailed, w.check, inputs, output)
        traces, loaded, result = self.run_one(w)[1]
        other = w.op(w.prepare(1))[0]
        self.assertRaises(CheckFailed, w.check, inputs, (other, loaded, result))


if __name__ == "__main__":
    unittest.main(verbosity=2)
