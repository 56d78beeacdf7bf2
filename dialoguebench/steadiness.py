#!/usr/bin/env python3
"""Run the dialogue benchmark as two interleaved sets of ten seeds and report
how steady it is.

From the repository root:

    python3 dialoguebench/steadiness.py --out dialoguebench/STEADINESS.md

For every workload in BENCHMARK.json it runs seeds 1 to 10 twice, set A and
set B, alternating which of the two runs of a seed goes first, so both sets
meet the same drift of the host, as a parent and a change run in turn would.
For each end-to-end metric and set it reports the median, quartiles, min and
max, and the spread (third quartile minus first, over the median); then how
far the two sets' medians lie apart (the difference over the smaller median).
It checks that every seed's transcript digest, questions_per_dialogue and
questions_vs_lower repeat exactly across the sets, and that seed 1 run once
more with --trace 1 gives the same digest. It exits with status 1 unless every
spread is below a third of its metric's bound, every pair of medians lies
within the bound and every repetition is exact.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SEEDS = range(1, 11)
EXACT = ("questions_per_dialogue", "questions_vs_lower")


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    context = json.loads(lines[-2].split(" ", 1)[1])
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)}: correct={result['correct']} failed={result['failed']}")
    return context, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="", help="write the report as markdown here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    report = [f"Seeds {SEEDS.start}-{SEEDS.stop - 1}, two interleaved sets (A, B), "
              f"{bench['run_seconds']} s per run.", ""]
    steady = True
    for w in bench["workloads"]:
        name = w["name"]
        began = time.strftime("%H:%M", time.gmtime())
        values = {s: {m["name"]: [] for m in metrics} for s in "AB"}
        digests = {s: [] for s in "AB"}
        host = None
        for seed in SEEDS:
            for s in ("AB" if seed % 2 else "BA"):
                context, result = run(bench, name, seed, 0)
                host = host or context
                digests[s].append(context["digest"])
                for m in metrics:
                    values[s][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"{name} seed {seed} set {s}: " + " ".join(
                    f"{m}={v[-1]:.4g}" for m, v in values[s].items()), file=sys.stderr, flush=True)
        traced, _ = run(bench, name, SEEDS.start, 1)

        report += [f"## {name}", "",
                   f"Runs from {began} to {time.strftime('%H:%M', time.gmtime())} UTC; "
                   f"host_cpus {host['host_cpus']}, GOMAXPROCS {host['gomaxprocs']}, "
                   f"{host['go_version']}, WAL filesystem: {host['wal_fs']}", "",
                   "| metric | bound | set | median | q1 | q3 | min | max | spread "
                   "| spread < bound/3 |",
                   "|---|---|---|---|---|---|---|---|---|---|"]
        medians = {}
        for m in metrics:
            for s in "AB":
                xs = values[s][m["name"]]
                q1, med, q3 = statistics.quantiles(xs, n=4)
                medians[m["name"], s] = med
                spread = (q3 - q1) / med
                ok = spread < m["bound"] / 3
                steady = steady and ok
                report.append(f"| {m['name']} | {m['bound']} | {s} | {med:.4g} | {q1:.4g} | "
                              f"{q3:.4g} | {min(xs):.4g} | {max(xs):.4g} | {spread:.3f} | "
                              f"{'yes' if ok else 'NO'} |")
        report += ["", "| metric | bound | median A | median B | apart | apart <= bound |",
                   "|---|---|---|---|---|---|"]
        for m in metrics:
            a, b = medians[m["name"], "A"], medians[m["name"], "B"]
            apart = abs(a - b) / min(a, b)
            ok = apart <= m["bound"]
            steady = steady and ok
            report.append(f"| {m['name']} | {m['bound']} | {a:.4g} | {b:.4g} | {apart:.3f} | "
                          f"{'yes' if ok else 'NO'} |")

        sets_same = digests["A"] == digests["B"]
        traced_same = traced["digest"] == digests["A"][0]
        counts_same = all(values["A"][m] == values["B"][m] for m in EXACT)
        steady = steady and sets_same and traced_same and counts_same
        report += ["", f"Transcript digests of every seed {'equal' if sets_same else 'DIFFER'} "
                   f"across sets A and B; seed 1 traced reads {traced['digest']}, "
                   f"{'equal' if traced_same else 'NOT equal'} to its timed runs; "
                   f"{' and '.join(EXACT)} {'equal' if counts_same else 'DIFFER'} seed by seed "
                   f"across the sets.", ""]
    text = "\n".join(report)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
