"""Determinism self-check: two traced runs with the same seed must agree exactly.

    python3 perfbench/selfcheck.py --workload NAME --seed N

Runs ``run.py --trace 1`` twice and compares every per-layer count (calls,
hull points, walk steps, bit lengths, bytes, the effective-sample ratio)
and the digests of the canonical outputs (verdicts, exact vertex sets,
certificate cases, exit codes) of both the untraced and the traced passes.
Exits 0 when everything repeats, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMED_UNITS = ("s", "1/s")


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(1)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".perfbench", "results", f"{workload}-seed{seed}-trace1.json")
    with open(path, encoding="utf-8") as fh:
        return line, json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    (line_a, rec_a), (line_b, rec_b) = (traced_run(args.workload, args.seed) for _ in range(2))
    problems = []
    for name, m in line_a["metrics"].items():
        if m["unit"] in TIMED_UNITS:
            continue
        other = line_b["metrics"][name]["value"]
        if m["value"] != other:
            problems.append(f"{name}: {m['value']} != {other}")
    for key in ("digest", "untraced_digest", "attempted", "failed"):
        if rec_a[key] != rec_b[key]:
            problems.append(f"{key}: {rec_a[key]} != {rec_b[key]}")
    counted = sum(1 for m in line_a["metrics"].values() if m["unit"] not in TIMED_UNITS)
    for p in problems:
        print(f"MISMATCH {p}")
    verdict = "FAIL" if problems else "PASS"
    print(f"{verdict} {args.workload} seed {args.seed}: {counted} counts and 2 output "
          f"digests compared across two traced runs (digest {rec_a['digest'][:16]})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
