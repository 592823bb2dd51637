#!/usr/bin/env python3
"""Steadiness tool: run workloads k times and summarise every metric.

Usage (from the repository root)::

    python3 rdfbench/steady.py --seeds 1-10
    python3 rdfbench/steady.py --workloads stream-track --seeds 1-5 --seconds 16
    python3 rdfbench/steady.py --workloads fleet-lossy --seeds 7,7 --trace 1

Runs ``rdfbench/run.py`` once per (workload, seed), one run at a time,
and prints per metric the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) /
median`` next to the bound in ``BENCHMARK.json``; that output is what the
bounds were set from.  Runs of a repeated seed must print the same
answer digest and, traced, the same counts; any difference, a failed
check or a spread over its bound makes the tool exit 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Traced metrics that are deterministic for a seed (exact repeats).
COUNT_UNITS = ("count", "ratio")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    digest = next((ln.split()[1] for ln in lines if ln.startswith("digest ")), "")
    for ln in lines:
        if ln.startswith("CHECK FAILED"):
            print(f"  {workload} seed {seed}: {ln}")
    return json.loads(lines[-1]), digest


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,3,4")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            started = time.monotonic()
            result, digest = run_once(workload, seed, args.seconds, args.trace)
            wall = time.monotonic() - started
            results.append((seed, result, digest))
            ok &= bool(result["correct"])
            brief = " ".join(
                f"{name}={m['value']:.4g}" for name, m in list(result["metrics"].items())[:8]
            )
            print(
                f"  {workload} seed {seed} ({wall:.0f} s): correct={result['correct']} "
                f"digest={digest} {brief}",
                flush=True,
            )
        by_seed: dict[int, list] = {}
        for seed, result, digest in results:
            by_seed.setdefault(seed, []).append((result, digest))
        for seed, runs in by_seed.items():
            if len({d for _, d in runs}) > 1:
                ok = False
                print(f"  {workload} seed {seed}: digests differ across repeats")
            if args.trace:
                for name, m in runs[0][0]["metrics"].items():
                    if m["unit"] in COUNT_UNITS and not name.startswith("trace."):
                        if len({r["metrics"][name]["value"] for r, _ in runs}) > 1:
                            ok = False
                            print(f"  {workload} seed {seed}: {name} differs across repeats")
        print(f"\n{workload}: {len(results)} runs, seeds {args.seeds}, {args.seconds} s")
        print(f"{'metric':<32}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for name in results[0][1]["metrics"]:
            values = [r["metrics"][name]["value"] for _, r, _ in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                ok, flag = False, "  OVER"
            print(
                f"{name:<32}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.4f}"
                f"{'' if bound is None else bound:>8}{flag}"
            )
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
