#!/usr/bin/env python3
"""Builds vcpsd and the perfbench load generator from source, then runs one
benchmark workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload metro_day --seed 1 --seconds 30 --trace 0

Workloads: metro_day, upload_storm. Build output goes to
$CARGO_TARGET_DIR (default .bench_build); scratch WAL directories and span
files go to <target dir>/perfbench. The last line of stdout is the result
object; see perfbench/README.md.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    target = os.path.abspath(target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "vcps-net", "--bin", "vcpsd"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build chatter goes to stderr so stdout stays the report.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    argv = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--vcpsd", os.path.join(release, "vcpsd"),
        "--work", os.path.join(target, "perfbench"),
        "--root", root,
    ]
    sys.stdout.flush()
    os.execv(argv[0], argv)
    return 1


if __name__ == "__main__":
    sys.exit(main())
