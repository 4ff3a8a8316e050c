#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) with path dependencies on the repository's crates;
it builds into $CARGO_TARGET_DIR (default .bench_build). Build output goes
to standard error; the last line of standard output is the run's JSON
result. Exits non-zero, printing no result, when the build or the run
fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=root,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([os.path.join(target, "release", "perfbench")] + sys.argv[1:], cwd=root)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
