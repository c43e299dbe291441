#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The `perfbench` binary is compiled with cargo into
$CARGO_TARGET_DIR (default: .bench_build); its journals live under
.bench_build/perfbench-work and are removed when the run ends. The last
line of standard output is the JSON result. Exits non-zero, printing no
result, when the program cannot be built or a run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
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
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    workdir = os.path.join(root, ".bench_build", "perfbench-work")
    run = subprocess.run([exe, "run", *sys.argv[1:], "--workdir", workdir], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
