// Metrics registry: named counters, gauges and quantile sketches with
// optional labels (per-peer, per-op-kind, ...), snapshot-able to JSON.
//
// Design constraints, in order:
//   1. Hot-path cost. An instrument is looked up (or created) once and held
//      by reference; updating it is a relaxed atomic add (obs/cells.h) —
//      striped for counters so concurrent writers never share a cache
//      line. Distributions are QuantileSketches (obs/quantile.h), whose
//      buckets follow from the value itself, so an observation is a little
//      bit-math plus a few adds — no sample vectors on per-op paths.
//   2. Determinism. The registry iterates instruments in lexicographic
//      (name, labels) order, so two runs with the same seed produce
//      byte-identical snapshots — which is what makes BENCH_*.json
//      trajectories diffable PR-over-PR.
//   3. Stability. Instrument references remain valid for the registry's
//      lifetime (node-based map storage).
//   4. Thread safety. Instrument updates through held references are
//      lock-free; the registry's instrument maps are guarded by a mutex
//      taken only on lookup-or-create and on iteration/snapshot, so lazy
//      minting from one loopback strand (Monitor's per-op sketches,
//      per-peer timeout counters) cannot race a TimeSeriesRecorder
//      sampling the same registry from another. Iteration callbacks run
//      with the lock released — re-entrant minting from a callback is
//      legal and writers are never stalled behind a serializing reader.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/cells.h"
#include "obs/json.h"
#include "obs/quantile.h"
#include "transport/thread_annotations.h"

namespace tiamat::obs {

/// Sorted key/value label pairs identifying one instrument of a metric.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing integer. Supports the increment idioms already
/// used throughout the codebase (++c.counters().x) and reads back as the
/// underlying integer. Writes land on a per-thread stripe; value() sums.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.add(n); }
  Counter& operator++() {
    v_.add(1);
    return *this;
  }
  Counter& operator+=(std::uint64_t n) {
    v_.add(n);
    return *this;
  }
  std::uint64_t value() const { return v_.value(); }
  operator std::uint64_t() const { return v_.value(); }  // NOLINT(runtime/explicit)

 private:
  StripedU64 v_;
};

/// A value that can go up and down.
class Gauge {
 public:
  void set(double v) { v_.store(v); }
  void add(double d) { v_.add(d); }
  double value() const { return v_.load(); }

 private:
  AtomicF64 v_;
};

/// Owns every instrument. Lookup-or-create by (name, labels); references
/// stay valid for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, Labels labels = {})
      TIAMAT_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name, Labels labels = {})
      TIAMAT_EXCLUDES(mu_);
  /// Log-bucketed quantile sketch (obs/quantile.h): the instrument of
  /// choice for latency-shaped metrics — principled p50/p90/p99/max with
  /// no bound configuration, mergeable across instances and windows.
  QuantileSketch& sketch(const std::string& name, Labels labels = {})
      TIAMAT_EXCLUDES(mu_);

  /// Serializes every instrument. Sketches carry sparse buckets plus
  /// derived p50/p90/p99/max, so exported files are directly consumable.
  json::Value snapshot() const TIAMAT_EXCLUDES(mu_);
  std::string snapshot_json(int indent = 2) const TIAMAT_EXCLUDES(mu_);

  // ---- Deterministic iteration (lexicographic (name, labels) order) ------
  // The TimeSeriesRecorder samples registries through these each tick; the
  // ordered walk is what keeps series output byte-identical across runs.
  // The instrument list is captured under the lock, then fn runs with the
  // lock released (instrument nodes are stable, so the references stay
  // valid even if another thread mints concurrently).
  void for_each_counter(
      const std::function<void(const std::string&, const Labels&,
                               const Counter&)>& fn) const
      TIAMAT_EXCLUDES(mu_);
  void for_each_gauge(
      const std::function<void(const std::string&, const Labels&,
                               const Gauge&)>& fn) const TIAMAT_EXCLUDES(mu_);
  void for_each_sketch(
      const std::function<void(const std::string&, const Labels&,
                               const QuantileSketch&)>& fn) const
      TIAMAT_EXCLUDES(mu_);

  /// Rebuilds instruments from a snapshot() document. Returns false (and
  /// leaves the registry partially populated) on malformed input. Used to
  /// prove snapshots round-trip and to diff persisted BENCH_*.json files.
  /// Sections it does not know are skipped, so baselines written before an
  /// instrument kind was retired (the `histograms` section) still load.
  bool load(const json::Value& doc);

  std::size_t size() const TIAMAT_EXCLUDES(mu_);

 private:
  using Key = std::pair<std::string, Labels>;

  mutable transport::Mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_ TIAMAT_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Gauge>> gauges_ TIAMAT_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<QuantileSketch>> sketches_
      TIAMAT_GUARDED_BY(mu_);
};

}  // namespace tiamat::obs
