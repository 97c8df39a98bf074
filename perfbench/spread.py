"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10

Runs ``run.py`` once per seed for BENCHMARK.json's ``run_seconds``, one run
at a time, and prints for each end-to-end metric its median and the distance
between the first and third quartiles (``statistics.quantiles(values, n=4)``)
as a share of the median, next to the bound fixed in BENCHMARK.json.  Every run's JSON line is also
written to ``.perfbench/spread/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = os.path.join(ROOT, ".perfbench", "spread")
    os.makedirs(out_dir, exist_ok=True)
    values: dict[str, list] = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        last = proc.stdout.strip().splitlines()[-1]
        with open(os.path.join(out_dir, f"{args.workload}-seed{seed}.json"), "w") as fh:
            fh.write(last + "\n")
        rec = json.loads(last)
        line = [f"seed {seed}: correct={rec['correct']} {rec['attempted']}/{rec['failed']}"]
        for name, m in rec["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4g}")
        print(" ".join(line), flush=True)
    print(f"{args.workload}: metric median spread bound")
    for name, vals in values.items():
        s = spread(vals) if len(vals) > 1 else float("nan")
        print(f"  {name} {statistics.median(vals):.5g} {s:.4f} {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
