#!/usr/bin/env python3
"""Build perfbench from source and run it.

From the repository root:

    python3 perfbench/run.py --workload trace-hb --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

perfbench is a Go module of its own that uses the repository's packages
through a replace directive. It is built into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), and the Go build cache and temporary
files are kept there too, so a run reads and writes only inside the
checkout. `--workload all` runs every workload in turn, each in its own
process, and exits non-zero if any of them did.
"""

import os
import subprocess
import sys

WORKLOADS = ["trace-hb", "trace-syncp-hot", "service-ckpt", "modelcheck"]


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")),
        "perfbench",
    )
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    if subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env).returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [binary, "--out", os.path.join(build, "run")]
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1 :][:1] == ["all"]:
        i = args.index("--workload")
        status = 0
        for w in WORKLOADS:
            rc = subprocess.run(cmd + args[:i] + ["--workload", w] + args[i + 2 :], cwd=root, env=env).returncode
            status = status or rc
        sys.exit(status)
    sys.exit(subprocess.run(cmd + args, cwd=root, env=env).returncode)


if __name__ == "__main__":
    main()
