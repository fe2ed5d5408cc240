"""Tests of the benchmark's output checks: each must pass what a correct
run prints and reject a tampered or off-law one.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a checkout; the journal test builds and runs the
release `redundancy` binary.
"""

import contextlib
import io
import json
import os
import subprocess
import tempfile
import unittest

import run

GOOD_STATS = """tasks-total 30001
tasks-activated 30001
tasks-completed 30001
copies-total 41606
issued 41606
returned 41606
in-flight 0
requeued 0
lost 0
timeouts 0
retries 0
cheats-attempted 7713
cheats-detected 3254
wrong-accepted 4459
false-flags 0
unresolved-tasks 0
detection 0.4219
realized-factor 1.3868
checksum 0x2b542deddb3a11a4
"""

GOOD_TABLE = """simulated 1000 campaigns of balanced (100,000 tasks each, adversary share 0.1, seed 5)
k   attacks  detected    rate            95% CI
-----------------------------------------------
1  12935357   6004387  0.4642  [0.4639, 0.4645]
2    449427    208594  0.4641  [0.4627, 0.4656]
3     10461      4922  0.4705  [0.4610, 0.4801]
4       194       101  0.5206  [0.4506, 0.5898]
wrong results accepted: 7177437; false flags: 0
"""


class ServeStatsCheck(unittest.TestCase):
    def test_a_drained_dump_with_the_oracle_checksum_passes(self):
        self.assertEqual(run.check_serve_stats(GOOD_STATS, "0x2b542deddb3a11a4"), [])

    def test_tampered_dumps_are_rejected(self):
        tampered = {
            "returned 41606": "returned 41605",
            "in-flight 0": "in-flight 1",
            "lost 0": "lost 2",
            "unresolved-tasks 0": "unresolved-tasks 1",
            "tasks-completed 30001": "tasks-completed 30000",
            "checksum 0x2b542deddb3a11a4": "checksum 0x2b542deddb3a11a5",
            "issued 41606\n": "",
        }
        for old, new in tampered.items():
            with self.subTest(tamper=new or f"drop {old.strip()}"):
                text = GOOD_STATS.replace(old, new)
                self.assertNotEqual(run.check_serve_stats(text, "0x2b542deddb3a11a4"), [])


PLAN = """plan: balanced over 100,000 tasks
guarantee: detection >= 0.5 for every tuple size
multiplicity   tasks    kind
----------------------------
1             69,314  Normal
2             24,022  Normal
3              5,550  Normal
4                961  Normal
5                133  Normal
6                 15  Normal
7                  1  Normal
8                  4    Tail
9                  1  Ringer
total assignments: 138,655 (factor 1.3865); precomputed tasks: 1
"""
LAW = run.realized_law(run.parse_plan(PLAN))

# 20,000 campaigns: k=3 sits 7.7 SE above the ideal 1-(1-eps)^(1-p), and
# 0.7 SE from the realized plan's P_3,p.
LONG_TABLE = """k    attacks   detected    rate            95% CI
1  258707349  120078473  0.4641  [0.4641, 0.4642]
2    8982990    4176710  0.4650  [0.4646, 0.4653]
3     210291      99373  0.4725  [0.4704, 0.4747]
4       3934       2086  0.5302  [0.5146, 0.5458]
5        101         74  0.7327  [0.6390, 0.8093]
wrong results accepted: 143547949; false flags: 0
"""


class CampaignCheck(unittest.TestCase):
    def test_the_law_holds_on_a_real_table(self):
        self.assertEqual(run.check_campaign(GOOD_TABLE, 0, LAW), [])

    def test_the_realized_plan_is_prop_3_at_k_1_and_rounded_above(self):
        self.assertAlmostEqual(LAW[1], run.law_rate(0.5, 0.1), places=3)
        self.assertAlmostEqual(LAW[3], 0.4717, places=4)
        self.assertEqual(run.check_campaign(LONG_TABLE, 0, LAW), [])
        ideal = {k: run.law_rate(0.5, 0.1) for k in LAW}
        self.assertIn("k=3", " ".join(run.check_campaign(LONG_TABLE, 0, ideal)))

    def test_an_off_law_row_is_rejected(self):
        # k=2 detected shifted by 2% of its attacks: ~30 standard errors.
        off = GOOD_TABLE.replace("449427    208594", "449427    217582")
        problems = run.check_campaign(off, 0, LAW)
        self.assertEqual(len(problems), 1)
        self.assertIn("k=2", problems[0])

    def test_small_rows_are_not_judged(self):
        # k=4 has 194 attacks: far off the law, but below the 1000 floor.
        self.assertEqual(run.check_campaign(GOOD_TABLE.replace("194       101", "194       190"), 0, LAW), [])

    def test_false_flags_and_exit_codes_are_rejected(self):
        self.assertNotEqual(run.check_campaign(GOOD_TABLE.replace("false flags: 0", "false flags: 3"), 0, LAW), [])
        self.assertNotEqual(run.check_campaign(GOOD_TABLE, 2, LAW), [])
        self.assertNotEqual(run.check_campaign("no table at all\n", 0, LAW), [])


class JournalCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary, _ = run.build()
        cls.path = os.path.join(run.out_dir(), "test.journal")
        subprocess.run([cls.binary, "serve", "--tasks", "200", "--epsilon", "0.5",
                        "--seed", "3", "--journal", cls.path], check=True,
                       capture_output=True)
        with open(cls.path, "rb") as f:
            cls.good = f.read()

    def inspect(self, data):
        with open(self.path, "wb") as f:
            f.write(data)
        r = subprocess.run([self.binary, "journal-inspect", "--journal", self.path],
                           capture_output=True, text=True)
        return run.check_journal(r.stdout, r.returncode)

    def test_an_intact_journal_passes(self):
        self.assertEqual(self.inspect(self.good), [])

    def test_a_flipped_bit_is_rejected(self):
        bad = bytearray(self.good)
        bad[len(bad) // 2] ^= 0x10
        self.assertNotEqual(self.inspect(bytes(bad)), [])

    def test_a_torn_tail_is_rejected(self):
        self.assertNotEqual(self.inspect(self.good[:-5]), [])


class Scaling(unittest.TestCase):
    def rounds(self, slows):
        r = run.Rounds(0, len(slows))
        r.done = [{"slow": k, "steal": 0.0, "t": 10.0 * k, "rate": 5.0 / k, "setups": [0.2 * k]}
                  for k in slows]
        self.assertFalse(r.more())  # zero seconds: no round past the minimum
        return r

    def test_a_host_slowdown_that_moves_the_yardstick_cancels(self):
        r = self.rounds([1.0, 2.0, 0.8])
        for got in (r.times("t"), r.rates("rate"), r.setups()):
            self.assertEqual(len(set(round(x, 12) for x in got)), 1, got)
        self.assertEqual(r.raw("t"), [10.0, 20.0, 8.0])
        self.assertIn("0.80-2.00x", r.note())


class Compare(unittest.TestCase):
    def report(self, d, name, **prov):
        path = os.path.join(d, name)
        provenance = {"nproc": 2, "seed": 1, "binary_sha256": "aa", **prov}
        with open(path, "w") as f:
            json.dump({"schema": "perfbench-report/v3", "workload": "serve_drain", "trace": 0,
                       "provenance": provenance, "absent": [],
                       "metrics": {"assign_per_s": {"value": 2.0, "unit": "assignments/s"}}}, f)
        return path

    def compare(self, a, b):
        with contextlib.redirect_stdout(io.StringIO()):
            return run.compare(a, b)

    def test_a_new_binary_and_seed_compare(self):
        with tempfile.TemporaryDirectory() as d:
            a = self.report(d, "a")
            self.assertEqual(self.compare(a, self.report(d, "b", seed=2, binary_sha256="bb")), 0)

    def test_other_provenance_is_refused(self):
        with tempfile.TemporaryDirectory() as d:
            a = self.report(d, "a")
            self.assertEqual(self.compare(a, self.report(d, "b", nproc=4)), 3)


if __name__ == "__main__":
    unittest.main()
