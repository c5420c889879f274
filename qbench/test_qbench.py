"""Fast tests of the benchmark scripts; no engine work.

    python3 -m pytest qbench/test_qbench.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import worker  # noqa: E402


class Op:
    child = False

    def __init__(self, label, fn):
        self.label = label
        self.fn = fn


class SteadyClock:
    """A host clock that has sampled the nominal reference time once."""

    refs = [(0.0, worker.REF_NOMINAL_S)]
    spent = 0.0


class TailPercentile(unittest.TestCase):
    def test_too_few_ops_reports_the_maximum(self):
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (100.0, 3.0, 0))
        self.assertEqual(run.tail_percentile([1.0] * 10), (100.0, 1.0, 0))

    def test_eleven_ops_leave_ten_beyond_the_lowest_rank(self):
        pct, value, beyond = run.tail_percentile([float(x) for x in range(11)])
        self.assertEqual((value, beyond), (0.0, 10))
        self.assertEqual(pct, 9)

    def test_highest_percentile_with_ten_beyond(self):
        values = [float(x) for x in range(1, 101)]
        self.assertEqual(run.tail_percentile(values), (90, 90.0, 10))
        pct, value, beyond = run.tail_percentile([float(x) for x in range(1, 1001)])
        self.assertEqual((pct, value, beyond), (99, 990.0, 10))


class FailureCounting(unittest.TestCase):
    def test_failed_checks_and_exceptions_are_counted_and_the_pass_goes_on(self):
        ran = []

        def boom():
            raise ArithmeticError("forced")

        ops = [Op("good", lambda: (ran.append(1) or [True, True], "a")),
               Op("bad", lambda: ([True, False], "b")),
               Op("raises", boom),
               Op("after", lambda: (ran.append(2) or [True], "c"))]
        res = worker.run_ops(ops, SteadyClock())
        self.assertEqual(ran, [1, 2])
        self.assertEqual(res["attempted"], 2 + 2 + 1 + 1)
        self.assertEqual(res["failed"], 2)
        self.assertEqual(res["failures"], ["1:bad", "2:raises"])
        self.assertEqual(len(res["lat_s"]), 4)
        self.assertEqual(res["lat"], res["lat_s"])

    def test_digest_depends_on_every_output(self):
        a = worker.run_ops([Op("x", lambda: ([True], "1")), Op("y", lambda: ([True], "2"))],
                           SteadyClock())
        b = worker.run_ops([Op("x", lambda: ([True], "1")), Op("y", lambda: ([True], "3"))],
                           SteadyClock())
        self.assertNotEqual(a["digest"], b["digest"])


class HostSpeed(unittest.TestCase):
    def test_a_host_twice_as_slow_reads_the_same_adjusted_time(self):
        nominal = worker.REF_NOMINAL_S
        refs = [(t * 0.1, nominal) for t in range(10)]
        refs += [(1.0 + t * 0.1, 2 * nominal) for t in range(30)]
        fast, slow = worker.speed_factors([(0.3, 0.4), (2.5, 2.7)], refs)
        self.assertEqual(fast, 1.0)
        self.assertEqual(slow, 0.5)
        self.assertEqual(0.1 * fast, 0.2 * slow)

    def test_an_op_far_from_every_sample_uses_the_nearest_ones(self):
        refs = [(0.0, 1.0), (0.1, 2.0), (0.2, 3.0), (9.0, 9.0)]
        (factor,) = worker.speed_factors([(5.0, 5.1)], refs)
        nominal = worker.REF_NOMINAL_S
        self.assertAlmostEqual(factor, (nominal / 2.0 + nominal / 3.0 + nominal / 9.0) / 3)


class DigestCheck(unittest.TestCase):
    def setUp(self):
        fd, self.path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as fh:
            json.dump({"oracle": {"7": "abc"}}, fh)
        self.saved = run.DIGESTS
        run.DIGESTS = self.path

    def tearDown(self):
        run.DIGESTS = self.saved
        os.unlink(self.path)

    def test_matching_digest_passes(self):
        self.assertEqual(run.check_digests("oracle", 7, [{"digest": "abc"}]),
                         ("abc", "abc", []))

    def test_mismatch_with_the_recorded_digest_is_a_failure(self):
        _, want, problems = run.check_digests("oracle", 7, [{"digest": "abd"}])
        self.assertEqual(want, "abc")
        self.assertEqual(len(problems), 1)

    def test_passes_that_disagree_are_a_failure(self):
        _, _, problems = run.check_digests("oracle", 8, [{"digest": "a"}, {"digest": "b"}])
        self.assertEqual(problems, ["passes disagree on the digest"])

    def test_unrecorded_seed_is_not_a_failure(self):
        self.assertEqual(run.check_digests("lattice", 7, [{"digest": "z"}]), ("z", None, []))


if __name__ == "__main__":
    unittest.main()
