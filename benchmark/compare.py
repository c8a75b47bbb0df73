#!/usr/bin/env python3
"""Noise-aware A/B of two source trees on the benchmark of record.

    python3 benchmark/compare.py run --parent DIR --change DIR [--pairs 10]
            [--workloads a,b] [--out FILE]
    python3 benchmark/compare.py report FILE [--benchmark BENCHMARK.json]

`run` measures both trees with their own benchmark/run.py, which must be
byte-identical in both, in pairs that alternate which side runs first, and
appends one JSON line per run to FILE. Every run uses seed 42, so the spread
between runs is the machine's noise, not a difference in inputs. `report` judges every (end-to-end
metric, workload) pair by these rules, with the bounds from BENCHMARK.json:

  * at least 10 pairs are needed for any verdict;
  * gain: the change wins at least 9 of 10 pairs (ties count for neither)
    and the medians differ by more than the parent's interquartile range;
    it does not count when the change fails a larger share of its ops;
  * regression: the change's median is worse than the parent's by more
    than the bound; when either side's spread (interquartile range over
    the parent median) is wider than the bound, the pair is "unresolved"
    instead, unless every change run beats every parent run (no
    regression) or loses to every one (regression).

`report` exits 1 when any pair regresses or the change fails any op.
"""
import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
SEED = 42
HERE = Path(__file__).resolve().parent


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def load_end_to_end(path):
    with open(path) as f:
        return json.load(f)["end_to_end"]


def judge(parent, change, better, bound):
    """Verdict for one metric on one workload; parent/change are values
    paired by index."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = len(parent)
    worse = -sign * (c_med - p_med) / p_med if p_med else 0.0
    spread = max(p_q3 - p_q1, c_q3 - c_q1) / p_med if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    row = {"pairs": pairs, "parent": [p_q1, p_med, p_q3],
           "change": [c_q1, c_med, c_q3], "wins": wins,
           "worse": worse, "spread": spread}
    if pairs < MIN_PAIRS:
        row["verdict"] = "insufficient pairs"
    elif wins >= WIN_SHARE * pairs and sign * (c_med - p_med) > p_q3 - p_q1:
        row["verdict"] = "gain"
    elif spread > bound and not all_better:
        all_worse = all(sign * (c - p) < 0 for c in change for p in parent)
        row["verdict"] = "regression" if all_worse and worse > bound \
            else "unresolved"
    elif worse > bound:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "no regression"
    return row


def analyse(records, end_to_end):
    """Rows per (workload, metric) plus the failed-op share per side."""
    by_workload = {}
    for r in records:
        sides = by_workload.setdefault(r["workload"], {})
        sides.setdefault(r["pair"], {})[r["side"]] = r
    rows, failed_share, alternating = [], {}, {}
    for workload, pairs in sorted(by_workload.items()):
        complete = [pairs[k] for k in sorted(pairs)
                    if "parent" in pairs[k] and "change" in pairs[k]]
        share = {}
        for side in ("parent", "change"):
            attempted = sum(p[side]["result"]["attempted"] for p in complete)
            failed = sum(p[side]["result"]["failed"] for p in complete)
            share[side] = failed / attempted if attempted else 1.0
        failed_share[workload] = share
        alternating[workload] = all(p["parent"]["first"] == (i % 2 == 0)
                                    for i, p in enumerate(complete))
        for metric in end_to_end:
            name = metric["name"]
            parent = [p["parent"]["result"]["metrics"][name]["value"]
                      for p in complete]
            change = [p["change"]["result"]["metrics"][name]["value"]
                      for p in complete]
            if not complete:
                continue
            row = judge(parent, change, metric["better"], metric["bound"])
            if row["verdict"] == "gain" and share["change"] > share["parent"]:
                row["verdict"] = "gain void: more failed ops"
            row.update(workload=workload, metric=name, bound=metric["bound"])
            rows.append(row)
    return rows, failed_share, alternating


def report(args):
    rows, failed_share, alternating = analyse(
        load_records(args.file), load_end_to_end(args.benchmark))
    print("%-16s %-13s %5s %12s %12s %6s %7s %7s  %s" % (
        "workload", "metric", "pairs", "parent_med", "change_med", "wins",
        "worse", "spread", "verdict"))
    for r in rows:
        print("%-16s %-13s %5d %12.6g %12.6g %6d %+6.1f%% %6.1f%%  %s" % (
            r["workload"], r["metric"], r["pairs"], r["parent"][1],
            r["change"][1], r["wins"], 100 * r["worse"], 100 * r["spread"],
            r["verdict"]))
    for workload, share in failed_share.items():
        print("%-16s failed ops: parent %.3g%%, change %.3g%%%s" % (
            workload, 100 * share["parent"], 100 * share["change"],
            "" if alternating[workload] else "; pairs did not alternate"))
    bad = any(r["verdict"] == "regression" for r in rows) or any(
        s["change"] > 0 for s in failed_share.values())
    return 1 if bad else 0


def same_tree(a, b):
    """True when the two directories hold the same files, byte for byte."""
    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*")
                      if p.is_file() and "__pycache__" not in p.parts)
    return files(a) == files(b) and all(
        filecmp.cmp(a / f, b / f, shallow=False) for f in files(a))


def run_once(root, workload):
    cmd = [sys.executable, str(Path(root) / "benchmark" / "run.py"),
           "--workload", workload, "--seed", str(SEED)]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run(args):
    sides = {"parent": Path(args.parent), "change": Path(args.change)}
    if not same_tree(sides["parent"] / "benchmark",
                     sides["change"] / "benchmark"):
        sys.exit("compare.py: the two trees run different benchmark code")
    workloads = args.workloads.split(",")
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            order = (["parent", "change"] if pair % 2 == 0
                     else ["change", "parent"])
            for workload in workloads:
                for side in order:
                    result = run_once(sides[side], workload)
                    out.write(json.dumps({
                        "workload": workload, "pair": pair, "side": side,
                        "seed": SEED, "first": side == order[0],
                        "result": result}) + "\n")
                    out.flush()
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--parent", required=True)
    p_run.add_argument("--change", required=True)
    p_run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p_run.add_argument("--workloads", default="figures_cold,figures_warm,"
                       "large512_exact,large512_bloom8,city8192_stream")
    p_run.add_argument("--out", default="ab.jsonl")
    p_report = sub.add_parser("report")
    p_report.add_argument("file")
    p_report.add_argument("--benchmark",
                          default=str(HERE.parent / "BENCHMARK.json"))
    args = parser.parse_args()
    return run(args) if args.command == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
