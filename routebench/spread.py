#!/usr/bin/env python3
"""Run-to-run spread of routebench's end-to-end metrics.

Runs one workload once per seed and prints, for every metric, the median
over the runs and the distance between the first and third quartile as a
share of the median -- the steadiness test the benchmark must pass (each
spread below its bound in BENCHMARK.json; aim for a third of it).

    python3 routebench/spread.py --workload table2_paper --seeds 1-10 \
        [--seconds 35] [--bin PATH]

--bin defaults to the release binary under $CARGO_TARGET_DIR (or
routebench/target); build it first with
`cargo build --release --offline --manifest-path routebench/Cargo.toml`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="35")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    parser.add_argument("--bin", default=os.path.join(target, "release", "routebench"))
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = [args.bin, "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            sys.exit(f"seed {seed}: failed run\n{out.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    worst = {}
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        share = spread / bounds[name]
        worst[name] = share
        print(f"{name:<16} median {med:>12.5g}  spread {spread:7.2%}  "
              f"bound {bounds[name]:.2f}  spread/bound {share:5.2f}")
    name = max(worst, key=worst.get)
    print(f"worst spread/bound: {worst[name]:.2f} ({name})")


if __name__ == "__main__":
    main()
