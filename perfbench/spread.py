"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload mc-paths --seeds 1-10 [--seconds 20] [--trace 0]

For every metric of the final JSON line, prints the median of the runs and
the distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), which is how a bound in
BENCHMARK.json is compared with run-to-run noise. Runs one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        argv = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for key, m in result["metrics"].items():
            values.setdefault(key, []).append(m["value"])
    for key, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{key:<44} median {med:<14.6g} spread {(q3 - q1) / abs(med):.4f}  "
                  + " ".join(f"{v:.4g}" for v in vals))
        else:
            print(f"{key:<44} median {med:<14.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
