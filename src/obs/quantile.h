// Log-bucketed quantile sketch (HDR-histogram style).
//
// Latency distributions in this codebase span five orders of magnitude
// (sub-millisecond local hits to multi-second churn waits), so no set of
// fixed bucket bounds chosen up front fits them all. This sketch derives
// its buckets from the value itself — a power-of-two octave split into
// 2^kSubBits sub-buckets — so every value is recorded with bounded relative
// error (<= 2^-(kSubBits+1), ~1.6% at kSubBits = 5) with no configuration.
// It is the codebase's one distribution type: registry latency metrics and
// the benches' local per-scenario means alike.
//
// Properties the telemetry layer depends on:
//   - Deterministic. Bucket indices are pure integer bit-math; quantile
//     queries and snapshots walk the occupied cells in ascending index
//     order. Two runs with the same sample sequence produce byte-identical
//     snapshots.
//   - Mergeable. Two sketches add bucket-wise (cross-instance rollups), and
//     `delta_since` subtracts an earlier snapshot of the *same* sketch to
//     recover a window — which is how the TimeSeriesRecorder and the
//     match-latency health probe compute per-interval p99 without ever
//     storing samples.
//   - Bounded. Storage is one 32-cell block per occupied octave group
//     (obs/cells.h), independent of sample count.
//   - Thread-safe to write. observe() is a handful of relaxed atomic adds
//     (obs/cells.h), so writers on loopback strands never contend with a
//     reader snapshotting the registry; every cell is monotone, so a
//     concurrent reader sees a possibly-stale but never-torn state.
//     Copying or restoring a sketch while another thread writes it is still
//     a data race — snapshots-by-value belong to the owning strand.

#pragma once

#include <cstdint>
#include <map>

#include "obs/cells.h"

namespace tiamat::obs {

class QuantileSketch {
 public:
  /// Sub-bucket resolution: 2^kSubBits linear sub-buckets per octave.
  static constexpr int kSubBits = 5;

  /// Index -> count for every occupied bucket, ascending index order.
  using Buckets = std::map<std::uint32_t, std::uint64_t>;

  /// Records one sample. Negative values clamp to 0 (latencies are
  /// non-negative; a clamped observation still counts).
  void observe(double v);

  std::uint64_t count() const { return count_.load(); }
  double sum() const { return sum_.load(); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  /// Largest observed sample, kept exactly. 0 on empty.
  double max() const { return max_.load(); }

  /// Quantile estimate, q in [0, 1]: the upper edge of the bucket holding
  /// the rank-ceil(q*count) sample (<= ~1.6% above the true value), except
  /// that the top-most occupied bucket reports the exact max. 0 on empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }

  /// Adds `o`'s samples to this sketch (cross-instance aggregation).
  void merge(const QuantileSketch& o);

  /// Sketch of the samples observed since `prev` was copied from this same
  /// sketch (bucket-wise subtraction). Returns an empty sketch when `prev`
  /// is not a prefix snapshot (its count exceeds ours). The window's max is
  /// approximated by its top occupied bucket edge.
  QuantileSketch delta_since(const QuantileSketch& prev) const;

  /// Occupied buckets as an ordered map (materialized view of the cells).
  Buckets buckets() const;

  /// Restores accumulated state from a snapshot (JSON round-trip).
  void restore(Buckets buckets, double sum, std::uint64_t count, double max);

  /// Bucket index covering value `v` (pure function of the value).
  static std::uint32_t bucket_of(double v);

  /// Inclusive upper edge of bucket `index` — the value quantile queries
  /// report for ranks landing in that bucket.
  static double upper_edge(std::uint32_t index);

 private:
  SketchCells cells_;
  AtomicF64 sum_;
  AtomicU64 count_;
  AtomicF64 max_;
};

}  // namespace tiamat::obs
