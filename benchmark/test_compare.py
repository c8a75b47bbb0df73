#!/usr/bin/env python3
"""Checks compare.py's verdicts on canned A/B records.

testdata/ab_pairs.ndjson holds ten alternating parent/change pairs per
workload, built so that each workload exercises one rule: large512_bloom8
gains 20%, large512_exact is unchanged, figures_warm regresses 50%,
city8192_stream is too noisy to call (+-40%), and figures_cold gains but
fails one op per change run.

    python3 benchmark/test_compare.py
"""
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402

RECORDS = compare.load_records(HERE / "testdata" / "ab_pairs.ndjson")
END_TO_END = compare.load_end_to_end(HERE.parent / "BENCHMARK.json")


def verdicts(records):
    rows, failed_share, alternating = compare.analyse(records, END_TO_END)
    return ({(r["workload"], r["metric"]): r["verdict"] for r in rows},
            failed_share, alternating)


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        got, _, _ = verdicts(RECORDS)
        for metric in ("wall_s", "runs_per_s", "events_per_s"):
            self.assertEqual(got["large512_bloom8", metric], "gain")
            self.assertEqual(got["large512_exact", metric], "no regression")
            self.assertEqual(got["figures_warm", metric], "regression")
            self.assertEqual(got["city8192_stream", metric], "unresolved")
            self.assertEqual(got["figures_cold", metric],
                             "gain void: more failed ops")
        self.assertEqual(got["large512_bloom8", "setup_s"], "no regression")

    def test_failed_share_and_alternation(self):
        _, failed_share, alternating = verdicts(RECORDS)
        self.assertEqual(failed_share["figures_cold"]["parent"], 0.0)
        self.assertAlmostEqual(failed_share["figures_cold"]["change"], 1 / 26)
        self.assertTrue(all(alternating.values()))
        same_order = [dict(r, first=r["side"] == "parent") for r in RECORDS]
        _, _, alternating = verdicts(same_order)
        self.assertFalse(any(alternating.values()))

    def test_fewer_than_ten_pairs_give_no_verdict(self):
        got, _, _ = verdicts([r for r in RECORDS if r["pair"] < 9])
        self.assertEqual(set(got.values()), {"insufficient pairs"})

    def test_wide_spread_resolved_when_every_run_is_better(self):
        parent = [1.0, 1.5, 2.0, 1.2, 1.8, 1.1, 1.9, 1.3, 1.7, 1.4]
        change = [0.5, 0.9, 0.6, 0.8, 0.7, 0.95, 0.55, 0.85, 0.65, 0.75]
        self.assertEqual(
            compare.judge(parent, change, "lower", 0.1)["verdict"], "gain")
        self.assertEqual(
            compare.judge(change, parent, "lower", 0.1)["verdict"],
            "regression")
        # Every run better, but by less than the parent's spread: no gain.
        parent = [1.0 + 0.1 * i for i in range(10)]
        change = [0.95 + 0.004 * i for i in range(10)]
        self.assertEqual(
            compare.judge(parent, change, "lower", 0.1)["verdict"],
            "no regression")

    def test_quartiles_match_statistics_module(self):
        self.assertEqual(compare.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(compare.quartiles([1.0, 2.0, 3.0, 4.0]),
                         (1.25, 2.5, 3.75))


if __name__ == "__main__":
    unittest.main()
