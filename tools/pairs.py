"""Run the benchmark in alternating pairs on two revisions and write a BENCH file.

    python3 tools/pairs.py PARENT_REV CHANGE_REV --seed S --out BENCH_<n>.json \\
        --change "what the change does" --claim-note "what is or is not claimed"

Each revision is unpacked from ``git archive`` into a temporary directory of
its own. For every workload of ``BENCHMARK.json``, one after another, and
pair i = 1..10, both trees run

    python3 perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0

with ``PYTHONDONTWRITEBYTECODE=1``: the parent first when i is odd, the
change first when i is even. A run's result is the JSON object on the last
line of its output. The file is rewritten after every run, so a stopped
session keeps the runs made; it holds ``change``, ``command``, ``machine``,
``protocol``, ``claimed`` (null: the tool makes no claim), ``claim_note``,
``summary`` and ``runs``.

The summary gives, per workload, the pairs, whether every run was correct,
the failed checks of all runs, and per end-to-end metric each side's median
and quartiles (linear interpolation, ``statistics.quantiles`` inclusive), the
parent's IQR, the change's median shift in percent to two decimals, and the
pairs in which the change read lower (ties count for neither side).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10  # per workload


def _quartiles(values: list) -> tuple:
    if len(values) == 1:  # the summary of a file's first pair
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list) -> dict:
    """The summary of a BENCH file's runs, one entry per workload in run order.

    A metric is summarized over the pairs in which both sides report it,
    and left out when no pair does.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_side = {(r["pair"], r["side"]): r["result"] for r in mine}
        pairs = sorted({r["pair"] for r in mine})
        entry = {
            "pairs": len(pairs),
            "all_correct": all(r["result"]["correct"] for r in mine),
            "failed": sum(r["result"]["failed"] for r in mine),
        }
        for metric in dict.fromkeys(m for r in mine for m in r["result"]["metrics"]):
            both = [
                (by_side[i, "parent"]["metrics"][metric]["value"], by_side[i, "change"]["metrics"][metric]["value"])
                for i in pairs
                if all(metric in by_side.get((i, side), {}).get("metrics", {}) for side in ("parent", "change"))
            ]
            if not both:
                continue
            parent, change = [p for p, _ in both], [c for _, c in both]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            (p_q1, p_q3), (c_q1, c_q3) = _quartiles(parent), _quartiles(change)
            entry[metric] = {
                "parent_median": p_med,
                "change_median": c_med,
                "change_pct": round(100.0 * (c_med - p_med) / p_med, 2),
                "parent_q1": p_q1,
                "parent_q3": p_q3,
                "parent_iqr": p_q3 - p_q1,
                "change_q1": c_q1,
                "change_q3": c_q3,
                "change_lower_pairs": f"{sum(c < p for p, c in both)}/{len(both)}",
            }
        out[workload] = entry
    return out


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def _unpack(sha: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest, filter="data")


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; a run that ends without a result line is recorded as incorrect."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=20 * seconds + 120)
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as err:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": repr(err)[-2000:]}


def _machine() -> str:
    import numpy

    return (f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
            f"python {platform.python_version()}, numpy {numpy.__version__}")


def _paired(run: dict, runs: list) -> bool:
    """``run``'s pair has both sides among ``runs``."""
    return sum(r["workload"] == run["workload"] and r["pair"] == run["pair"] for r in runs) == 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("change", help="git revision of the change side")
    parser.add_argument("--seed", type=int, required=True, help="workload seed, the same on both sides")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH file to write")
    parser.add_argument("--change", dest="what", required=True, help="what the change does")
    parser.add_argument("--claim-note", required=True, help="the gain claimed, or why none is")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    shas = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
            for side, rev in (("parent", args.parent), ("change", args.change))}
    doc = {
        "change": args.what,
        "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} --seconds {seconds} --trace 0",
        "machine": _machine(),
        "protocol": (
            f"alternating pairs (pair i runs the parent first when i is odd, the change first when even), "
            f"{PAIRS} pairs per workload, workloads one after another; the parent side runs from a git "
            f"archive of {shas['parent'][:7]}, the change side from a git archive of {shas['change'][:7]}; "
            f"PYTHONDONTWRITEBYTECODE set on both sides"
        ),
        "claimed": None,
        "claim_note": args.claim_note,
        "summary": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in shas}
        for side, sha in shas.items():
            _unpack(sha, trees[side])
        for workload in workloads:
            for pair in range(1, PAIRS + 1):
                for side in ("parent", "change") if pair % 2 else ("change", "parent"):
                    result = _run(trees[side], workload, args.seed, seconds)
                    doc["runs"].append({"workload": workload, "pair": pair, "side": side, "result": result})
                    doc["summary"] = summarize([r for r in doc["runs"] if _paired(r, doc["runs"])])
                    args.out.write_text(json.dumps(doc, indent=1) + "\n")
                    print(f"{workload} pair {pair} {side}: correct={result['correct']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
