#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload crawl|mixed|serve --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is a Cargo package of
its own (perfbench/Cargo.toml) that links the program's crates through
path dependencies and builds them with the program's release profile.
It goes to $CARGO_TARGET_DIR, or .bench_build/ at the checkout root
when that is unset. Build output goes to standard error; a failed
build exits non-zero without printing a result. Otherwise the
benchmark's own exit code is returned, and the last line of standard
output is its JSON result. End-to-end runs (--trace 0) run in
origin-perfbench, on the system allocator. Traced runs (--trace 1) run
in origin-perfbench-traced, which counts allocations, and write their
spans, as Chrome trace-event JSON, to perfbench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
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
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"error: building the benchmark failed (exit {build.returncode})", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    traced = any(a == "--trace" and b == "1" for a, b in zip(args, args[1:]))
    exe = os.path.join(target, "release", "origin-perfbench-traced" if traced else "origin-perfbench")
    return subprocess.run([exe, *args], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
