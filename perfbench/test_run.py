"""Tests of the benchmark's own checks: row comparison, percentiles and seeds.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The batch tests drive the real workload loop against a stand-in `sfqt1`
(written to a temporary directory) that prints the expected rows, in the
order of the files it finds, optionally with one row altered. No build is
needed.
"""

import argparse
import json
import os
import stat
import sys
import tempfile
import textwrap
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

FAKE_SFQT1 = textwrap.dedent(
    """\
    #!{python}
    import os, sys
    sys.path.insert(0, {here!r})
    import run
    argv = sys.argv[1:]
    if argv[0] == "bench":
        with open(argv[argv.index("--aag") + 1], "w") as f:
            f.write("aag 0 0 0 0 0\\nc\\n" + argv[1] + "\\n")
        sys.exit(0)
    expected = run.load_expected(os.environ["FAKE_EXPECTED"])
    d = argv[argv.index("--batch") + 1]
    files = sorted(os.listdir(d))
    with open(os.environ["FAKE_LOG"], "a") as log:
        log.write(" ".join(files) + "\\n")
    print("batch: %d designs" % len(files))
    print("design            fmt | header")
    for f in files:
        row = expected[run.strip_prefix(f)]
        row = f.ljust(run.NAME_WIDTH) + row[run.NAME_WIDTH:]
        if run.strip_prefix(f) == os.environ.get("FAKE_PLANT"):
            row = row.replace(" | ", " |  ", 1)
        print(row)
    print("batch summary: %d ok, 0 failed" % len(files))
    """
)


class FakeProgram:
    """A stand-in sfqt1 that replays `perfbench/expected/<expected>.txt`."""

    def __init__(self, expected, plant=None):
        self.dir = tempfile.TemporaryDirectory()
        path = os.path.join(self.dir.name, "sfqt1")
        with open(path, "w") as f:
            f.write(FAKE_SFQT1.format(python=sys.executable, here=run.HERE))
        os.chmod(path, os.stat(path).st_mode | stat.S_IEXEC)
        self.log = os.path.join(self.dir.name, "log")
        self.env = {"FAKE_EXPECTED": expected, "FAKE_LOG": self.log}
        if plant:
            self.env["FAKE_PLANT"] = plant
        self.bins = {"sfqt1": path}

    def __enter__(self):
        self.saved = {k: os.environ.get(k) for k in self.env}
        os.environ.update(self.env)
        return self

    def __exit__(self, *exc):
        for k, v in self.saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        self.dir.cleanup()

    def orders(self):
        with open(self.log) as f:
            return [[run.strip_prefix(n) for n in line.split()] for line in f]


def run_paper(program, seed):
    args = argparse.Namespace(workload="paper-t1", seed=seed, seconds=0.2, trace=0)
    return run.run(args, bins=program.bins)


class PercentileTest(unittest.TestCase):
    def test_reports_p50_p99_and_sample_count(self):
        s = run.latency_summary([float(x) for x in range(1, 1001)])
        self.assertEqual(s["n"], 1000)
        self.assertAlmostEqual(s["p50"], 500.5)
        self.assertAlmostEqual(s["p95"], 950.05)
        self.assertAlmostEqual(s["p99"], 990.01)

    def test_single_sample(self):
        self.assertEqual(run.latency_summary([3.0]),
                         {"p50": 3.0, "p95": 3.0, "p99": 3.0, "n": 1})


class RowCheckTest(unittest.TestCase):
    def setUp(self):
        self.expected = run.load_expected("paper-t1")
        self.designs = sorted(self.expected)

    def test_prefixed_rows_match_their_expected_rows(self):
        check = run.RowCheck(self.expected)
        rows = [f"{k:02d}-{d}".ljust(run.NAME_WIDTH) + self.expected[d][run.NAME_WIDTH:]
                for k, d in enumerate(self.designs)]
        check.check_pass(rows, self.designs)
        self.assertEqual((check.attempted, check.failed), (8, 0))

    def test_wrong_missing_and_failed_rows_count_as_failed(self):
        check = run.RowCheck(self.expected)
        rows = [self.expected[d] for d in self.designs]
        rows[0] = rows[0][:-1] + "9"
        rows[1] = self.designs[1].ljust(run.NAME_WIDTH) + " FAILED(panicked: boom)"
        del rows[2]
        check.check_pass(rows, self.designs)
        self.assertEqual((check.attempted, check.ok, check.failed), (8, 5, 3))

    def test_duplicated_and_extra_rows_count_as_failed(self):
        check = run.RowCheck(self.expected)
        rows = [self.expected[d] for d in self.designs]
        rows.append(rows[3])
        rows.append("stray.aag".ljust(run.NAME_WIDTH) + self.expected[self.designs[0]][run.NAME_WIDTH:])
        check.check_pass(rows, self.designs)
        self.assertEqual((check.attempted, check.ok, check.failed), (9, 7, 2))


class BatchLoopTest(unittest.TestCase):
    def test_planted_wrong_row_fails_the_run(self):
        with FakeProgram("paper-t1", plant="log2.aag") as prog:
            result = run_paper(prog, seed=1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["failed"], result["attempted"] // 8)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)

    def test_correct_rows_pass(self):
        with FakeProgram("paper-t1") as prog:
            result = run_paper(prog, seed=1)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1.0)

    def test_seed_changes_order_but_not_totals_or_rows(self):
        results, orders = [], []
        for seed in (1, 2):
            with FakeProgram("paper-t1") as prog:
                results.append(run_paper(prog, seed))
                orders.append(prog.orders()[run.SETUP_REPS:])
        for r in results:
            self.assertTrue(r["correct"])
            self.assertEqual(r["metrics"]["area_jj"]["value"], 1389273)
            self.assertEqual(r["metrics"]["dffs"]["value"], 50887)
        self.assertNotEqual(orders[0][0], orders[1][0])
        self.assertEqual(sorted(orders[0][0]), sorted(orders[1][0]))

    def test_every_design_takes_every_position_equally_often(self):
        with FakeProgram("paper-t1") as prog:
            self.assertTrue(run_paper(prog, seed=3)["correct"])
            orders = prog.orders()[run.SETUP_REPS:]
        self.assertEqual(len(orders) % 8, 0)
        for pos in range(8):
            at = [o[pos] for o in orders]
            self.assertEqual({at.count(d) for d in set(at)}, {len(orders) // 8})
            self.assertEqual(len(set(at)), 8)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_match_what_the_runs_print(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            doc = json.load(f)
        self.assertEqual([m["name"] for m in doc["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in doc["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))


class ExpectedFilesTest(unittest.TestCase):
    def test_quality_totals_of_one_pass(self):
        self.assertEqual(run.flow_totals(run.load_expected("paper-t1").values()),
                         (1389273, 50887))
        self.assertEqual(run.load_expected("paper-t1"), run.load_expected("paper-t1-w2"))
        self.assertEqual(run.flow_totals(run.load_expected("corpus-verify.flow").values()),
                         (39759, 987))
        self.assertEqual(len(run.load_expected("corpus-verify")), 15)
        self.assertEqual(len(run.load_expected("daemon-small")), 8)


if __name__ == "__main__":
    unittest.main()
