"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workload golden_adapt --seeds 0-9 --out sweep.json

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the quartiles and the spread (interquartile distance as a
share of the median), as the benchmark's bounds are judged. ``--trace 1``
sweeps the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs):
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        table[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                       "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / abs(med) if med else 0.0,
                       "values": values}
    return table


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0")
    p.add_argument("--out", help="write the runs and the summary as JSON")
    args = p.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
        runs.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    table = summarize(runs)
    for name, row in table.items():
        print(f"{name:32s} median {row['median']:12.5g} {row['unit']:6s} "
              f"q1 {row['q1']:12.5g} q3 {row['q3']:12.5g} spread {100 * row['spread']:6.2f}%")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs,
                                              "summary": table}, indent=1))


if __name__ == "__main__":
    main()
