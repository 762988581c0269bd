#!/usr/bin/env python3
"""Perf-regression gate: diff a fresh BENCH_*.json against a committed one.

The bench exporters snapshot the obs metrics registry, which iterates
deterministically — so for a fixed-seed, virtual-time bench the *counter*
section of the export is exactly reproducible, and any drift there is a
behavioural change (more messages, more lease churn, a different fan-out),
not noise. Timing-flavoured fields (sketch sum/mean/percentiles) and
calibration-dependent counters are compared too, but only warn.

Every instrument is classified hard or soft:

  hard   difference beyond tolerance fails the gate (exit 1)
  soft   difference beyond tolerance prints a warning only

Defaults: counters and sketch bucket counts are hard with 0% tolerance
(deterministic under a fixed seed); gauges are hard with --gauge-tol
relative tolerance (ratios like engine.candidates_per_lookup are stable
but float); quantile-sketch summary fields (sum/mean/percentiles/max) are
soft. Sketch buckets are compared index by index, so a distribution that
moves while keeping its sample count still fails. `--hard PATTERN` /
`--soft PATTERN` (fnmatch over `kind:name`, first match wins, repeatable)
override the defaults per metric — e.g. bench_match accumulates counters
across google-benchmark calibration reruns, so its gate passes
`--soft 'counter:*'`.

Only instruments present in BOTH files are compared; added/removed
instruments are reported as warnings (new instrumentation should update
the committed baseline in the same PR). Unknown metric kinds (e.g. the
`histograms` section of older exports) and extra top-level sections (e.g.
the `series` telemetry document emitted by `--series` runs) are ignored,
so schema changes never break old baselines.

Usage:
  scripts/bench_compare.py BASELINE.json FRESH.json
      [--hard PATTERN]... [--soft PATTERN]...
      [--counter-tol PCT] [--gauge-tol PCT] [--soft-tol PCT] [--quiet]

Exit status: 0 within tolerances, 1 hard regression/malformed input.
"""

import argparse
import fnmatch
import json
import sys

SKETCH_HARD_FIELDS = ("count", "buckets")
SKETCH_SOFT_FIELDS = ("sum", "mean", "p50", "p90", "p99", "max")


def load_metrics(path):
    """Returns {(kind, name, labels-tuple): instrument-dict}."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot load {path}: {e}", file=sys.stderr)
        return None
    metrics = doc.get("metrics", doc)
    out = {}
    kinds = {"counters": "counter", "gauges": "gauge", "sketches": "sketch"}
    for kind, singular in kinds.items():
        for inst in metrics.get(kind, []):
            labels = tuple(sorted(inst.get("labels", {}).items()))
            key = (singular, inst.get("name", "?"), labels)
            out[key] = inst
    return out


def fmt_key(key):
    kind, name, labels = key
    lbl = ",".join(f"{k}={v}" for k, v in labels)
    return f"{kind}:{name}" + (f"{{{lbl}}}" if lbl else "")


def rel_delta(a, b):
    if a == b:
        return 0.0
    base = max(abs(a), abs(b))
    return abs(b - a) / base * 100.0 if base else 0.0


class Gate:
    def __init__(self, args):
        self.args = args
        self.failures = 0
        self.warnings = 0

    def classify(self, key):
        """-> (hard?, tolerance-percent) for one instrument key."""
        kind, name, _ = key
        probe = f"{kind}:{name}"
        for rule, pats in (("hard", self.args.hard), ("soft", self.args.soft)):
            for pat in pats:
                if fnmatch.fnmatch(probe, pat):
                    tol = (self.args.counter_tol if kind == "counter"
                           else self.args.gauge_tol)
                    return (rule == "hard",
                            tol if rule == "hard" else self.args.soft_tol)
        if kind == "counter":
            return True, self.args.counter_tol
        if kind == "gauge":
            return True, self.args.gauge_tol
        return True, self.args.counter_tol  # sketch: hard fields only

    def check(self, key, field, old, new, hard, tol):
        d = rel_delta(old, new)
        if d <= tol:
            return
        tag = "FAIL" if hard else "warn"
        if hard:
            self.failures += 1
        else:
            self.warnings += 1
        if hard or not self.args.quiet:
            print(f"  {tag} {fmt_key(key)}{field}: {old} -> {new} "
                  f"(delta {d:.2f}%, tol {tol:g}%)")

    def compare(self, key, old, new):
        kind = key[0]
        hard, tol = self.classify(key)
        if kind in ("counter", "gauge"):
            self.check(key, "", old.get("value", 0), new.get("value", 0),
                       hard, tol)
            return
        # Quantile sketch: bucket shape gates, derived stats warn.
        for f in SKETCH_HARD_FIELDS:
            ov, nv = old.get(f), new.get(f)
            if ov is None or nv is None:
                continue
            if f == "buckets":
                # Index by index: a shifted distribution with an unchanged
                # total still fails.
                ob, nb = dict(ov), dict(nv)
                for i in sorted(ob.keys() | nb.keys()):
                    self.check(key, f" bucket {i}", ob.get(i, 0),
                               nb.get(i, 0), hard, tol)
            else:
                self.check(key, f" {f}", ov, nv, hard, tol)
        for f in SKETCH_SOFT_FIELDS:
            ov, nv = old.get(f), new.get(f)
            if ov is None or nv is None:
                continue
            self.check(key, f" {f}", ov, nv, False, self.args.soft_tol)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--hard", action="append", default=[],
                    help="fnmatch over kind:name forcing hard gating")
    ap.add_argument("--soft", action="append", default=[],
                    help="fnmatch over kind:name forcing warn-only")
    ap.add_argument("--counter-tol", type=float, default=0.0,
                    help="relative %% tolerance for hard counters (default 0)")
    ap.add_argument("--gauge-tol", type=float, default=5.0,
                    help="relative %% tolerance for hard gauges (default 5)")
    ap.add_argument("--soft-tol", type=float, default=25.0,
                    help="warn threshold for soft comparisons (default 25)")
    ap.add_argument("--quiet", action="store_true",
                    help="print hard failures only")
    args = ap.parse_args()

    base = load_metrics(args.baseline)
    fresh = load_metrics(args.fresh)
    if base is None or fresh is None:
        return 1
    if not base or not fresh:
        print("bench_compare: empty metrics section", file=sys.stderr)
        return 1

    print(f"bench_compare: {args.baseline} vs {args.fresh}")
    gate = Gate(args)
    shared = sorted(set(base) & set(fresh))
    for key in shared:
        gate.compare(key, base[key], fresh[key])

    only_base = sorted(set(base) - set(fresh))
    only_fresh = sorted(set(fresh) - set(base))
    if only_base and not args.quiet:
        print(f"  note: {len(only_base)} instrument(s) only in baseline "
              f"(e.g. {fmt_key(only_base[0])})")
    if only_fresh and not args.quiet:
        print(f"  note: {len(only_fresh)} instrument(s) only in fresh run "
              f"(e.g. {fmt_key(only_fresh[0])}) — update the baseline")

    print(f"bench_compare: {len(shared)} instruments compared, "
          f"{gate.failures} hard failure(s), {gate.warnings} warning(s)")
    return 1 if gate.failures else 0


if __name__ == "__main__":
    sys.exit(main())
