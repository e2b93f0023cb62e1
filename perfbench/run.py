#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> \
        --trace <0|1> [--engine-threads <n>]

Every argument is passed unchanged to the benchmark binary, which
rejects unknown flags and out-of-range values (exit code 2). Build
output goes to standard error; the binary's standard output, whose last
line is the JSON result, is passed through. See README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# The binary bounds itself at 150 s; this only catches a process that
# cannot even report (for example, one stuck inside its own watchdog).
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "node.hpp")):
        fail(f"simulator sources not found under {os.path.join(ROOT, 'src')}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 1)


def source_id():
    """The git commit when this is a git checkout, else a digest of the
    simulator and benchmark sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def main():
    build()
    env = dict(os.environ, PERFBENCH_COMMIT=source_id())
    sys.stdout.flush()
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not exit within {RUN_TIMEOUT_S} s; killed", 3)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
