#!/usr/bin/env python3
"""Records the measured shape behind each workload's reason.

    python3 perfbench/shapes.py [--seed 2023] [--seconds 30]

Run from the repository root. Makes one traced run per workload in
`BENCHMARK.json` and writes `perfbench/shapes.json`: beside each
workload's `why`, the numbers that back it, taken from the traced run:
the share of a timed iteration spent in `prepare`, in the event loop and
in the experiment functions, the share of requests that cost a cold
simulation, and the loop's warm-cache hit rate. Nothing in that file is
typed in by hand.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHAPE = [
    "shape.prepare_share",
    "shape.loop_share",
    "shape.experiments_share",
    "prepare.distinct_ratio",
    "loop.warm_hit_rate",
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=2023)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    shapes = {
        "seed": args.seed,
        "seconds": args.seconds,
        "note": "suite_quick's prepare and loop figures come from its serving pass, "
        "which runs outside the timed render",
        "workloads": {},
    }
    for w in bench["workloads"]:
        run = subprocess.run(
            [
                sys.executable,
                os.path.join(ROOT, "perfbench", "run.py"),
                "--workload", w["name"],
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", "1",
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        result = json.loads(run.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"shapes: {w['name']} failed its output checks")
        shapes["workloads"][w["name"]] = {
            "why": w["why"],
            "measured": {k: round(result["metrics"][k]["value"], 4) for k in SHAPE},
        }
        print(w["name"], shapes["workloads"][w["name"]]["measured"], flush=True)
    with open(os.path.join(ROOT, "perfbench", "shapes.json"), "w") as f:
        json.dump(shapes, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
