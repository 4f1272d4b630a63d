#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (its own
Cargo workspace, release profile mirroring the root one) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs it, and prints its
output. The last line is the result JSON, holding exactly the metrics
`BENCHMARK.json` declares for the mode: `end_to_end` with `--trace 0`,
`per_layer` with `--trace 1`. Exits non-zero, printing no result, when
the build fails, the run fails (it refuses `SGCN_NAIVE=1` and caps
`SGCN_THREADS` at the visible cores), or a declared metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    wanted = [m["name"] for m in declared]

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)

    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")

    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [
            binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"run failed (exit {run.returncode})")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        fail(f"metrics missing from the run: {missing}")
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
