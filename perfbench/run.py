#!/usr/bin/env python3
"""Build and run SIM's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 20 --trace 0

The script builds the Go benchmark in this directory (a module of its own
that uses the repository's packages through a replace directive) into
.bench_build/, keeping the Go build cache there too, then runs it with the
same flags. The benchmark's stdout ends with one JSON result line; a human
report and the environment stamp go to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["hot-read", "cold-read", "write-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isfile(os.path.join(root, "sim.go")):
        print("perfbench: run from the root of a SIM source tree (go.mod and sim.go not found)", file=sys.stderr)
        return 2
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2

    build = os.path.join(root, BUILD_DIR)
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    # Keep every file the toolchain writes inside the checkout, and build
    # offline from the local tree only.
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    binary = os.path.join(build, "perfbench")
    b = subprocess.run([go, "build", "-o", binary, "."], cwd=bench_dir, env=env)
    if b.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [binary,
           "-workload", args.workload,
           "-seed", str(args.seed),
           "-seconds", str(args.seconds),
           "-trace", str(args.trace),
           "-out", build,
           "-src", root]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
