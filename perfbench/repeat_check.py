"""Check that a traced run's counts repeat exactly from run to run.

    python3 perfbench/repeat_check.py --workload cdc_churn --seed 3

Runs ``run.py --trace 1`` twice for one seed, in two processes with
different string-hash seeds, and compares every per-layer metric that is
not a wall time — span call counts, engine counters, sync reports and
modelled (virtual) time — plus the digests of the per-operation counters
and of the span call counts.  Any difference is an error: exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced(workload: str, seed: int, seconds: int, hash_seed: int):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, env=env, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    exact = {
        name: metric["value"] for name, metric in result["metrics"].items()
        if metric["unit"] != "ms" or name in ("sources.virtual_ms",
                                              "virtual_ms_p50")
    }
    exact.pop("trace.overhead_ratio")
    for line in lines[:-1]:
        parts = line.split()
        if parts and parts[0] in ("repeat_digest", "span_digest"):
            exact[parts[0]] = parts[1]
    return result["correct"], exact


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args()
    first_ok, first = traced(args.workload, args.seed, args.seconds, 1)
    second_ok, second = traced(args.workload, args.seed, args.seconds, 2)
    differ = sorted(name for name in first.keys() | second.keys()
                    if first.get(name) != second.get(name))
    for name in differ:
        print(f"MISMATCH {name}: {first.get(name)} vs {second.get(name)}")
    ok = first_ok and second_ok and not differ
    print(f"{args.workload} seed {args.seed}: {len(first)} exact figures, "
          f"{'repeat' if ok else 'DO NOT repeat'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
