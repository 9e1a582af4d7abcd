"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload wide-graphs --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A run measures set-up time in fresh interpreters, runs whole rounds of
the workload's operations until another round would overrun ``--seconds``,
measures set-up again, checks the benchmark's own oracles on hand-worked
cases and then checks every output against them.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` wraps the package's public
functions and reports the per-layer metrics instead.  Each run also writes
its full result (both kinds of figure it has, the host's steal ticks, any
problems found) to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5  # before the timed span, and again after it


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _steal_ticks():
    """Host-wide steal ticks from /proc/stat (read only), or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _host_reference_ms():
    """A fixed pure-Python loop: a yardstick for how fast the host runs now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1000.0


def _setup_seconds(workload, seed):
    """Wall times of fresh interpreters that import the package and generate
    the workload's inputs (bytecode is already compiled, as a user's second
    command would find it)."""
    probe_dir = OUT / f"setup-{workload}"
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(probe_dir)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms and
        # every sample comes out rounded up to the next step
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    return times


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "cutcomplexes" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cutcomplexes

    if Path(cutcomplexes.__file__).resolve().parent != SRC / "cutcomplexes":
        print(f"error: imported cutcomplexes from {cutcomplexes.__file__}", file=sys.stderr)
        return 2
    import oracles
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    OUT.mkdir(exist_ok=True)
    work = workloads.prepare(args.workload, args.seed, OUT / f"work-{args.workload}")
    # host speed drifts over seconds, so set-up is sampled on both sides of the run
    setup_times = _setup_seconds(args.workload, args.seed)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    outputs, items, rounds, host_ref = [], [], [], []
    attempted = failed = 0
    steal0 = _steal_ticks()
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.round = len(rounds)
        wall0, cpu0 = time.perf_counter(), _cpu_seconds()
        for op in work.ops:
            t0 = time.perf_counter()
            attempted += 1
            try:
                out = tracer.run(f"op:{op.name}", op.run) if tracer else op.run()
            except Exception as exc:  # an operation that fails is counted, not fatal
                failed += 1
                print(f"operation {op.name} failed: {exc!r}", file=sys.stderr)
                continue
            items.append(time.perf_counter() - t0)
            outputs.append((op.name, out))
        rounds.append((time.perf_counter() - wall0, _cpu_seconds() - cpu0))
        host_ref.append(_host_reference_ms())
        if time.perf_counter() - start + rounds[-1][0] > args.seconds:
            break
    steal1 = _steal_ticks()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times += _setup_seconds(args.workload, args.seed)
    if tracer:
        tracer.active = False

    # the oracles import networkx and numpy, so they run after peak RSS is read
    oracles.selfcheck()
    problems = work.check(outputs)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(w for w, _ in rounds),
        "cpu_s": statistics.median(c for _, c in rounds),
        "peak_rss_mb": peak_rss_mb,
        "item_ms.p50": 1000.0 * statistics.median(
            [w for w, _ in rounds] if work.round_is_item else items or [0.0]),
    }
    per_layer = {}
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if tracer:
        by_round = tracer.per_round()
        for m in spec["per_layer"]:
            per_layer[m["name"]] = statistics.median(
                by_round.get(r, {}).get(m["name"], 0) for r in range(len(rounds))
            )
        tracer.write(OUT / f"trace-{tag}.json", {"workload": args.workload, "seed": args.seed})

    wanted = spec["per_layer"] if tracer else spec["end_to_end"]
    values = per_layer if tracer else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "setup_s_samples": setup_times,
        "round_wall_s": [w for w, _ in rounds],
        "round_cpu_s": [c for _, c in rounds],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "host_ref_ms": host_ref,
        "steal_ticks": None if steal0 is None else steal1 - steal0,
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
        "problems": problems,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
