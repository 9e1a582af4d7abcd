"""Regenerate every figure of perfbench/README.md.

    python3 perfbench/figures.py

It runs every workload of BENCHMARK.json untraced, one run at a time and for
the spec's ``run_seconds``, in two sets: seeds 1-10 for every workload, then
seeds 11-20 for every workload, so the two sets of one workload lie about a
quarter of an hour apart.  For each end-to-end metric it reports each set's
median, quartiles and spread (quartile distance over median, as
``statistics.quantiles(n=4)`` gives them) and the second median's change
from the first, beside the metric's bound.  It then runs each workload on
seed 1 untraced and traced by turns, checks that every count repeats exactly
between traced runs, and reports the per-layer figures and the tracing
overhead (traced minus untraced ``wall_s``).  Beside the metrics it reports a
host yardstick: the time of a fixed pure-Python loop run after every round.
The tables go to stdout and to perfbench/out/figures.md.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETS = (range(1, 11), range(11, 21))  # seeds of the two sets
TRACED = 2  # traced runs per workload, each after an untraced one


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((OUT / f"result-{workload}-s{seed}-t{trace}.json").read_text())
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result} {details['problems'][:5]}")
    return details


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    runs = {}  # (set index, workload) -> run details
    for i, seeds in enumerate(SETS):
        for workload in names:
            runs[i, workload] = []
            for seed in seeds:
                runs[i, workload].append(run_once(workload, seed, seconds, 0))
                print(f"set {i + 1} {workload} seed {seed}: " + ", ".join(
                    f"{k}={v:.4g}" for k, v in runs[i, workload][-1]["end_to_end"].items()),
                    file=sys.stderr)

    lines = [f"run_seconds = {seconds}; set 1 on seeds {SETS[0][0]}-{SETS[0][-1]}, "
             f"set 2 on seeds {SETS[1][0]}-{SETS[1][-1]}; one run at a time", ""]
    for workload in names:
        sets = [runs[i, workload] for i in range(len(SETS))]
        lines += [f"### {workload}", ""]
        for i, rs in enumerate(sets):
            lines.append(
                f"Set {i + 1}: {len(rs)} runs, {min(r['attempted'] for r in rs)}-"
                f"{max(r['attempted'] for r in rs)} operations per run, "
                f"{sum(r['rounds'] for r in rs) / len(rs):.1f} rounds per run, "
                f"{sum(r['failed'] for r in rs)} failed; steal ticks per run: "
                f"{[r['steal_ticks'] for r in rs]}")
        lines += [
            "",
            "| metric | set 1 median | q1 | q3 | spread | set 2 median | spread | change | bound |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        columns = [(f"{m['name']} ({m['unit']})", [[r["end_to_end"][m["name"]] for r in rs] for rs in sets],
                    m["bound"]) for m in spec["end_to_end"]]
        yard = [[statistics.median(r["host_ref_ms"]) for r in rs] for rs in sets]
        columns.append(("host yardstick (ms, not a metric)", yard, ""))
        columns.append(("wall_s / yardstick (not a metric)",
                        [[r["end_to_end"]["wall_s"] / y for r, y in zip(rs, ys)]
                         for rs, ys in zip(sets, yard)], ""))
        for label, (first, second), bound in columns:
            med1, q1, q3, s1 = spread(first)
            med2, _, _, s2 = spread(second)
            lines.append(f"| {label} | {med1:.4g} | {q1:.4g} | {q3:.4g} | {s1:.3f} | {med2:.4g} "
                         f"| {s2:.3f} | {med2 / med1 - 1:+.3f} | {bound} |")
        lines.append("")

        # alternate untraced and traced runs on seed 1 so host drift hits both alike
        plain, traced = [], []
        for _ in range(TRACED):
            plain.append(run_once(workload, 1, seconds, 0))
            traced.append(run_once(workload, 1, seconds, 1))
        counts = [{k: v for k, v in t["per_layer"].items() if not k.endswith(".ms")}
                  for t in traced]
        repeat = all(c == counts[0] for c in counts)
        base = statistics.median(r["end_to_end"]["wall_s"] for r in plain)
        overhead = statistics.median(t["end_to_end"]["wall_s"] for t in traced) - base
        lines += [
            f"Traced on seed 1 ({TRACED} runs, each after an untraced one; counts repeat "
            f"exactly: {repeat}). Tracing overhead, traced minus untraced wall_s: "
            f"{overhead:+.3f} s ({overhead / base:+.1%}).",
            "",
            "| per-layer metric | value |",
            "|---|---|",
        ]
        for name, value in traced[0]["per_layer"].items():
            if value:
                lines.append(f"| {name} | {value:.4g} |")
        lines.append("")
    text = "\n".join(lines)
    print(text)
    OUT.mkdir(exist_ok=True)
    (OUT / "figures.md").write_text(text + "\n")


if __name__ == "__main__":
    main()
