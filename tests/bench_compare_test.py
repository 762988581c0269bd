#!/usr/bin/env python3
"""Regression test for scripts/bench_compare.py's sketch bucket gate.

Runs the gate on small inline documents: identical documents must pass
(exit 0), and a sketch whose distribution moved while its sample count
and mean stayed the same must fail (exit 1).

Usage: python3 tests/bench_compare_test.py
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "bench_compare.py")


def doc(buckets):
    count = sum(n for _, n in buckets)
    return {"metrics": {
        "counters": [{"name": "op.started", "labels": {}, "value": 10}],
        "gauges": [],
        "sketches": [{"name": "op.latency_us", "labels": {},
                      "buckets": buckets, "count": count, "sum": 250.0,
                      "mean": 25.0, "p50": 20.0, "p90": 40.0, "p99": 40.0,
                      "max": 40.0}],
    }}


def run(tmp, base, fresh):
    paths = []
    for i, d in enumerate((base, fresh)):
        path = os.path.join(tmp, f"doc{i}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(d, f)
        paths.append(path)
    return subprocess.run([sys.executable, SCRIPT, *paths, "--quiet"],
                          capture_output=True, text=True, check=False)


def main():
    base = doc([[10, 5], [20, 5]])
    cases = [
        ("identical documents", base, 0),
        ("moved buckets, same count and mean", doc([[10, 1], [40, 9]]), 1),
        ("one bucket changed", doc([[10, 5], [20, 6]]), 1),
    ]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, fresh, want in cases:
            r = run(tmp, base, fresh)
            ok = r.returncode == want
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {r.returncode}, "
                  f"want {want}")
            if not ok:
                print(r.stdout + r.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
