#!/usr/bin/env bash
# Full local gate: lint, then build + test the release tree (the tier-1
# configuration), the asan/ubsan tree, the invariant-audit tree, the
# transport suites under ThreadSanitizer, and the instrumentation-overhead
# gate (release vs TIAMAT_OBS_OFF); then the bench smokes and a bounded
# chaos-fuzz pass (scripts/fuzz_smoke.sh).
# Usage: scripts/check.sh [--release-only]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

echo "== lint =="
scripts/lint.sh

run_preset() {
  local preset=$1
  echo "== ${preset}: configure =="
  cmake --preset "${preset}"
  echo "== ${preset}: build =="
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "== ${preset}: test =="
  ctest --preset "${preset}" -j "${jobs}"
}

run_preset release
if [[ "${1:-}" != "--release-only" ]]; then
  run_preset asan
  # UB is a hard failure here (-fno-sanitize-recover=all), unlike the asan
  # tree's recover-and-report UBSan: the same suite, but any UB aborts.
  run_preset ubsan
  # Thread Safety Analysis: compile-time proof of the transport locking
  # discipline (DESIGN.md §11). clang-only — gated on availability like
  # clang-tidy in lint.sh; CI installs clang and always runs it.
  if command -v clang++ >/dev/null 2>&1; then
    echo "== tsa: configure =="
    cmake --preset tsa
    echo "== tsa: build (-Werror=thread-safety) =="
    cmake --build --preset tsa -j "${jobs}"
  else
    echo "== tsa: clang++ not installed; skipping thread-safety build =="
  fi
  # Same suite again with the invariant checkpoints compiled in: every
  # mutation re-verifies the engine's structural invariants, and the
  # corruption-trap tests (test_audit) prove the auditor actually fires.
  run_preset audit
  # The loopback transport backend is the tree's one threaded component
  # (the lint `concurrency` rule keeps it that way); run the transport
  # conformance + loopback differential suites under ThreadSanitizer.
  # Only test_transport is built — the rest of the tree is single-strand
  # and already covered by the presets above.
  echo "== tsan: configure =="
  cmake --preset tsan
  echo "== tsan: build (test_transport) =="
  cmake --build --preset tsan --target test_transport -j "${jobs}"
  echo "== tsan: transport tests =="
  ctest --preset tsan -R Transport -j "${jobs}"
  echo "== tsan: teardown stress + inbox order, repeated =="
  ctest --preset tsan -R 'TransportTeardown|LoopbackTransport' \
    --repeat until-fail:3 -j "${jobs}"
  # Instrumentation-overhead gate (DESIGN.md §13): bench the release tree
  # against an identical tree with TIAMAT_OBS_OFF on the loopback hot path.
  # Soft by default (wall-clock noise); OBS_OVERHEAD_HARD=1 enforces.
  scripts/obs_overhead_gate.sh
fi

# Matching-engine bench smoke: a sub-second run whose --json export is
# self-validated by the bench binary (parse + registry reload); a broken
# exporter or a crashing engine fails the gate here, not in a later PR's
# perf diff.
echo "== bench_match: smoke =="
smoke_json=$(mktemp /tmp/BENCH_match_smoke.XXXXXX.json)
flood_json=$(mktemp /tmp/BENCH_flooding_fresh.XXXXXX.json)
series_a=$(mktemp /tmp/SERIES_churn_a.XXXXXX.json)
series_b=$(mktemp /tmp/SERIES_churn_b.XXXXXX.json)
trap 'rm -f "${smoke_json}" "${flood_json}" "${series_a}" "${series_b}"' EXIT
build/bench/bench_match --benchmark_min_time=0.01 \
  --benchmark_filter='BM_(KeyedFindFirst|UnkeyedFindFirst|WaiterOffer)' \
  --json="${smoke_json}" >/dev/null
grep -q '"engine.bucket_probes"' "${smoke_json}" || {
  echo "bench_match smoke: engine counters missing from ${smoke_json}" >&2
  exit 1
}
# Engine-shape gate: counters accumulate across google-benchmark calibration
# reruns (soft), but per-lookup ratios are workload-determined — drift there
# is an engine behaviour change.
python3 scripts/bench_compare.py BENCH_match.json "${smoke_json}" \
  --soft 'counter:*' --gauge-tol 10 --quiet

# Perf-regression gate: bench_flooding runs entirely in virtual time with
# fixed seeds (Iterations(1)), so every exported counter and sketch
# bucket is deterministic — any drift against the committed baseline is a
# protocol behaviour change and hard-fails. Wall-clock noise never enters
# the comparison (timing lives in google-benchmark output, not the export).
echo "== bench_flooding: perf-regression gate =="
build/bench/bench_flooding --json="${flood_json}" >/dev/null
python3 scripts/bench_compare.py BENCH_flooding.json "${flood_json}"

# Telemetry determinism smoke: the same seeded churn config run twice with
# --series must emit byte-identical time-series documents (the recorder is
# driven purely by the sim clock and ordered registry walks), and the
# inspector must be able to render them.
echo "== bench_churn: telemetry series determinism =="
build/bench/bench_churn --benchmark_filter='BM_Churn/12/0/1' \
  --series="${series_a}" >/dev/null
build/bench/bench_churn --benchmark_filter='BM_Churn/12/0/1' \
  --series="${series_b}" >/dev/null
cmp "${series_a}" "${series_b}" || {
  echo "telemetry series not byte-identical across identical seeded runs" >&2
  exit 1
}
build/src/apps/tiamat-inspect series "${series_a}" >/dev/null

# Bounded chaos-fuzz pass (DESIGN.md §12): regression corpus, determinism,
# and a handful of fresh schedules against the release binary; with the
# audit tree built, also the inject->artifact->replay death path. A trap
# leaves its minimized repro_<seed>.json in FUZZ_OUT_DIR.
echo "== tiamat-fuzz: bounded chaos pass =="
audit_fuzz=""
if [[ "${1:-}" != "--release-only" ]]; then
  audit_fuzz="build-audit/src/apps/tiamat-fuzz"
fi
scripts/fuzz_smoke.sh build/src/apps/tiamat-fuzz ${audit_fuzz}

echo "All checks passed."
