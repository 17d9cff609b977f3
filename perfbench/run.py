#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <engine_4k|wire_small|wire_churn> \\
        --seed N --seconds S --trace <0|1>

Run it from the root of a checkout. The benchmark is a cargo package of
its own (perfbench/Cargo.toml), built in release mode into
$CARGO_TARGET_DIR, or into .bench_build when that is unset. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. A failed build exits non-zero and prints no
result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: the benchmark did not build", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "grbac-perfbench")
    return subprocess.run([binary, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
