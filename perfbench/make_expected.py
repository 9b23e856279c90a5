#!/usr/bin/env python3
"""Writes `perfbench/expected/*.txt`, the rows every benchmark run must
reproduce byte for byte, after checking them against the repository's own
references:

* corpus rows against `tests/golden/corpus_verify.txt` (verify rows) and
  `tests/golden/corpus_batch.txt` (flow rows);
* the `--small` Table I rows' DFF and area columns against the `DFF T1` and
  `Area T1` columns of `tests/golden/table1_small.txt`;
* the paper-scale rows' `t1_used` and `dffs` against every snapshot of
  `BENCH_flow.json`.

    python3 perfbench/make_expected.py

Run from the root of a source checkout; it builds like run.py does. It exits
1, after writing, when a row disagrees with a reference.
"""

import json
import os
import shutil
import sys

import run

GOLDEN = os.path.join(run.ROOT, "tests", "golden")


def batch_rows(bins, cmd, dest, workers):
    wl = {"cmd": cmd, "workers": workers}
    return run.run_batch(bins, wl, dest)[2]


def golden_rows(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as f:
        return run.table_rows(f.read())


def table1_small_t1():
    """{benchmark: (DFF T1, Area T1)} from the measured table of the golden."""
    out = {}
    with open(os.path.join(GOLDEN, "table1_small.txt"), encoding="utf-8") as f:
        for line in f:
            cols = line.split()
            if cols and cols[0] in run.PAPER and len(cols) > 12 and "|" in line:
                parts = line.split("|")
                dff = parts[1].split()
                area = parts[2].split()
                out.setdefault(cols[0], (int(dff[2]), int(area[2])))
    return out


def bench_flow_rows():
    """{benchmark: {(t1_used, dffs)}} over every snapshot of BENCH_flow.json."""
    with open(os.path.join(run.ROOT, "BENCH_flow.json"), encoding="utf-8") as f:
        doc = json.load(f)
    out = {}
    for snap in doc["snapshots"]:
        for b in snap["benchmarks"]:
            out.setdefault(b["name"], set()).add((b["t1_used"], b["dffs"]))
    return out


def flow_cols(row):
    """(t1 used, dffs, area) of a flow row."""
    parts = row.split("|")
    return int(parts[2].split()[1]), int(parts[3].split()[1]), int(parts[3].split()[2])


def compute(bins, work):
    sets = {}
    for kind in ("paper", "corpus", "small"):
        dest = os.path.join(work, kind)
        run.write_set(bins, kind, dest)
        sets[kind] = dest
    paper = batch_rows(bins, "flow", sets["paper"], 1)
    if batch_rows(bins, "flow", sets["paper"], 2) != paper:
        raise SystemExit("paper rows differ between 1 and 2 workers")
    return {
        "paper-t1": paper,
        "paper-t1-w2": paper,
        "corpus-verify": batch_rows(bins, "verify", sets["corpus"], 1),
        "corpus-verify.flow": batch_rows(bins, "flow", sets["corpus"], 1),
        "daemon-small": batch_rows(bins, "flow", sets["small"], 1),
    }


def cross_check(files):
    problems = []
    corpus_names = sorted(os.listdir(os.path.join(run.ROOT, run.CORPUS_DIR)))
    for name, golden in (("corpus-verify", "corpus_verify.txt"),
                         ("corpus-verify.flow", "corpus_batch.txt")):
        want = golden_rows(golden)
        got = [r for r in files[name] if run.design_key(r) in corpus_names]
        if got != want:
            problems.append(f"{name}: corpus rows differ from tests/golden/{golden}")
    t1 = table1_small_t1()
    if sorted(t1) != sorted(run.PAPER):
        problems.append("table1_small.txt: could not read every benchmark")
    for name in ("corpus-verify.flow", "daemon-small"):
        for row in files[name]:
            bench = run.design_key(row)[: -len(".aag")]
            if bench in t1 and flow_cols(row)[1:] != t1[bench]:
                problems.append(f"{name}: {bench} (dffs, area) {flow_cols(row)[1:]} "
                                f"!= table1_small {t1[bench]}")
    snaps = bench_flow_rows()
    for row in files["paper-t1"]:
        bench = run.design_key(row)[: -len(".aag")]
        if {flow_cols(row)[:2]} != snaps.get(bench):
            problems.append(f"paper-t1: {bench} (t1_used, dffs) {flow_cols(row)[:2]} "
                            f"!= BENCH_flow.json {snaps.get(bench)}")
    return problems


def main():
    os.chdir(run.ROOT)
    bins = run.build(trace=False)
    work = os.path.join(run.ROOT, ".bench_work", f"expected-{os.getpid()}")
    try:
        files = compute(bins, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = cross_check(files)
    os.makedirs(run.EXPECTED_DIR, exist_ok=True)
    for name, rows in files.items():
        with open(os.path.join(run.EXPECTED_DIR, name + ".txt"), "w", encoding="utf-8") as f:
            f.write("".join(r + "\n" for r in rows))
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
