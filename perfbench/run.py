#!/usr/bin/env python3
"""Benchmark entry point: builds tiamat_perfbench from source, runs one
workload, and re-prints its result.

    python3 perfbench/run.py --workload <local_keyed|task_bag|request_reply>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds into
$CARGO_TARGET_DIR (default .bench_build) with CMake; later calls only
rebuild what changed. Build output goes to stderr; stdout carries the
program's metric table and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.

A run that crashes or hangs after printing its result (teardown) is
reported as incorrect with the exit status; a run that never prints one
exits non-zero and prints nothing on stdout.

Seed 7919 is held out: tune on other seeds, and confirm a claimed gain on
it as well before accepting it.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = "tiamat_perfbench"
# A run must finish within 180 s; leave room for the incremental build
# check and process start.
RUN_TIMEOUT_S = 165


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    # Compiler temporaries stay inside the build tree, like everything else.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", TARGET, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        return None
    exe = os.path.join(build_dir, TARGET)
    return exe if os.path.exists(exe) else None


def parse_result(line):
    try:
        doc = json.loads(line)
    except ValueError:
        return None
    if not isinstance(doc, dict) or set(doc) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    started = time.monotonic()
    exe = build(build_dir)
    if exe is None:
        log("perfbench: build failed")
        return 1
    log("perfbench: build ready in %.1f s" % (time.monotonic() - started))

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
        out, status = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        status = "timeout after %d s" % RUN_TIMEOUT_S

    lines = [l for l in out.splitlines() if l.strip()]
    result = parse_result(lines[-1]) if lines else None
    for line in lines[:-1] if result else lines:
        print(line)
    if result is None:
        log("perfbench: no result (exit status %s)" % status)
        return 1
    if status != 0:
        # Results were written, then teardown crashed or hung: a failed run.
        log("perfbench: run ended abnormally after writing results (exit status %s)" % status)
        result["correct"] = False
        result["failed"] = result["failed"] + 1
    print(json.dumps(result), flush=True)
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
