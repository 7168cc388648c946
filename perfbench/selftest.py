"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For each workload, builds its small probe inputs, replaces one oracle value
with a deliberately wrong one, and runs one pass. It exits 0 only if every
wrong reference is counted as a failure and every other check passes, so
the checks are shown to be able to fail and ``failed`` in the benchmark's
result is fed by them.
"""

from __future__ import annotations

import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (sets the BLAS cap before numpy loads)

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

warnings.filterwarnings("ignore", message=".*nudged.*")


def corrupt_lq(inp):
    inp.k0_ref += 1e-3
    return "K(0) = tanh T", 1


def corrupt_hjb(inp):
    inp.chain_ref = inp.chain_ref * 1.001
    return "chain value", 2


def corrupt_mc(inp):
    inp.exit_ref += 0.2
    return "exit estimate", 1


def corrupt_cli(inp):
    inp.first_digests = {name: "0" * 64 for name in inp.configs}
    return "byte-identical", len(inp.configs)


CORRUPT = {"lq-riccati": corrupt_lq, "hjb-grid": corrupt_hjb, "mc-paths": corrupt_mc,
           "cli-commands": corrupt_cli}


def main() -> int:
    ok = True
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for name, (build, pass_fn, _) in workloads.WORKLOADS.items():
            inp = build(0, True, SimpleNamespace(work=Path(tmp), env=run.child_env()))
            check, expected = CORRUPT[name](inp)
            checks = workloads.Checks()
            pass_fn(inp, checks)
            hits = [f for f in checks.failures if check in f]
            good = len(hits) == expected == len(checks.failures)
            ok &= good
            print(f"{name}: wrong reference for '{check}' -> {len(checks.failures)} of "
                  f"{checks.attempted} checks failed (expected {expected}) "
                  f"{'PASS' if good else 'FAIL'}")
            for line in checks.failures:
                print(f"  {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
