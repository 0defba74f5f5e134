"""Steadiness test of the benchmark: run one workload several times and
compare the runs within the bounds of BENCHMARK.json.

    python3 perfbench/check_steady.py --workload points --runs 2
    python3 perfbench/check_steady.py --workload curves --runs 10 --seed 101

Seeds run from --seed upward, one per run. Every run must be correct, and
every run must fail the same share of its operations. The runs are split
into a first and a second half; for every end-to-end metric the second
half's median may not be worse than the first's by more than the bound.
With four or more runs, the spread (distance between the first and third
quartile over the median) of every metric but setup_s must also stay
within its bound; the report marks spreads above a third of the bound.
Exits with 1 when a comparison fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
        timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse second is than first, as a share of first."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]

    results = []
    for i in range(args.runs):
        result = run_once(args.workload, args.seed + i, spec["run_seconds"])
        results.append(result)
        values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
                          for m in metrics)
        print(f"seed {args.seed + i}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}",
              flush=True)

    ok = all(r["correct"] for r in results)
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    if len(shares) != 1:
        print(f"failed share differs between runs: {sorted(shares)}")
        ok = False
    half = args.runs // 2
    for m in metrics:
        name, bound = m["name"], m["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        first = statistics.median(values[:half])
        second = statistics.median(values[half:])
        drift = worse_by(first, second, m["better"])
        line = (f"{name}: median {statistics.median(values):.5g} "
                f"{m['unit']}, second half worse by {drift:+.2%} "
                f"(bound {bound:.0%})")
        if drift > bound:
            ok = False
            line += "  EXCEEDS BOUND"
        if args.runs >= 4:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            line += f", spread {spread:.2%}"
            if name != "setup_s" and spread > bound:
                ok = False
                line += "  EXCEEDS BOUND"
            elif spread > bound / 3:
                line += "  above a third of the bound"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
