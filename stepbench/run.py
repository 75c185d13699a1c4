#!/usr/bin/env python3
"""Training-step benchmark for AxoNN-CPP.

Builds the benchmark binary (and the library it links) from source, then
runs one workload:

    python3 stepbench/run.py --workload gpt_seq128 --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build tree goes to $CARGO_TARGET_DIR
(default .bench_build) under the current directory; run-time scratch files
(checkpoints, telemetry) go to a work directory inside it. Build output goes
to stderr; the binary's stdout is passed through, so the last line of stdout
is the JSON result. Any failure (build, run, correctness) exits non-zero.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("gpt_seq128", "mlp_4d", "gpt_resilient")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build, "stepbench")
    work_dir = os.path.join(build, "stepbench-work")

    def step(cmd):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"stepbench: command failed ({done.returncode}): "
                  f"{' '.join(cmd)}", file=sys.stderr)
            sys.exit(2)

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", here, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", build_dir, "--target", "stepbench", "-j", jobs])

    os.makedirs(work_dir, exist_ok=True)
    done = subprocess.run([
        os.path.join(build_dir, "stepbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work_dir,
    ])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
