// Indexed tuple storage — the storage half of the matching engine.
//
// Spaces index tuples by (arity, first field): Linda programs almost always
// key tuples with a leading string/int tag ("req", "resp", "task", ...), so
// a keyed pattern probes one hash bucket instead of scanning the space.
// Each bucket entry carries the tuple's address and packed field types, so
// a candidate check is one contiguous read rather than a lookup by id.
// Unkeyed patterns fall back to walking the id-ordered store, skipping
// tuples of other arities.
//
// Determinism contract (select_match and the seed tests depend on it):
// every lookup visits candidates in ascending id order — keyed probes walk
// a sorted-vector bucket, unkeyed scans walk the id-ordered map — so two
// runs with the same seed always see the same candidate sequence even
// though the buckets themselves live in unordered_maps.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "audit/audit.h"
#include "tuple/matcher.h"
#include "tuple/pattern.h"
#include "tuple/tuple.h"

namespace tiamat::tuples {

/// Identifies a stored tuple within one space for the lifetime of a run.
using TupleId = std::uint64_t;
inline constexpr TupleId kNoTuple = 0;

class TupleIndex {
 public:
  TupleIndex() = default;
  // Bucket entries point into by_id_'s nodes: a copy would point into the
  // source. Moves transfer the nodes, so the addresses stay valid.
  TupleIndex(const TupleIndex&) = delete;
  TupleIndex& operator=(const TupleIndex&) = delete;
  TupleIndex(TupleIndex&&) = default;
  TupleIndex& operator=(TupleIndex&&) = default;

  /// Stores `t` under caller-supplied id (ids must be unique and non-zero).
  void insert(TupleId id, Tuple t);

  /// Removes by id; returns the tuple if it was present.
  std::optional<Tuple> erase(TupleId id);

  const Tuple* get(TupleId id) const;
  bool contains(TupleId id) const { return by_id_.contains(id); }

  /// Ids of all stored tuples matching `p`, in ascending id order (the
  /// caller applies its own selection policy). `limit` == 0 means no limit.
  std::vector<TupleId> find_matches(const Pattern& p,
                                    std::size_t limit = 0) const;
  std::vector<TupleId> find_matches(const CompiledPattern& p,
                                    std::size_t limit = 0) const;

  /// First match in candidate order, if any — short-circuits after one
  /// match instead of materializing a vector.
  std::optional<TupleId> find_first(const Pattern& p) const;
  std::optional<TupleId> find_first(const CompiledPattern& p) const;

  /// Number of matches, without materializing ids.
  std::size_t count_matches(const Pattern& p) const;
  std::size_t count_matches(const CompiledPattern& p) const;

  /// Visits matches in ascending id order until `fn` returns false.
  /// The baselines use this for filtered first-match lookups (e.g. L²imbo's
  /// owner-restricted take) without materializing the full match set.
  template <typename Fn>  // Fn: (TupleId, const Tuple&) -> bool keep_going
  void for_each_match(const CompiledPattern& p, Fn&& fn) const {
    lookup(p, [&](TupleId id, const Tuple& t) { return fn(id, t); });
  }

  std::size_t size() const { return by_id_.size(); }
  bool empty() const { return by_id_.empty(); }

  /// Sum of footprints of stored tuples; the storage figure leases charge.
  std::size_t total_footprint() const { return footprint_; }

  /// Approximate resident bytes: stored tuple footprints plus a fixed
  /// per-entry estimate of index overhead (by_id_ map node, bucket entry).
  /// Deliberately a deterministic formula over entry counts — the
  /// telemetry layer samples it into gauges, so it must not depend on
  /// allocator behaviour.
  std::size_t approx_bytes() const {
    return footprint_ + by_id_.size() * kApproxEntryOverhead;
  }
  static constexpr std::size_t kApproxEntryOverhead = 64;

  /// Visits every (id, tuple) in ascending id order.
  void for_each(const std::function<void(TupleId, const Tuple&)>& fn) const;

  /// Engine accounting: bucket probes vs scan fallbacks, candidates
  /// examined/rejected. Always maintained; bind_metrics() additionally
  /// mirrors the stream into registry instruments under "match.*".
  const MatchStats& match_stats() const { return stats_; }
  void reset_match_stats() { stats_.reset(); }
  void bind_metrics(obs::Registry& r) { metrics_.bind(r, "match"); }

#if TIAMAT_AUDIT_ENABLED
  /// Full structural re-verification (audit builds only): every stored
  /// tuple counted in its arity shard and — for arity > 0 — in exactly one
  /// bucket whose key equals (and hashes equal to) the tuple's first field;
  /// every bucket entry's address is its own by_id_ node and its types equal
  /// the recomputed signature; all buckets strictly ascending by id;
  /// footprint accounting exact. Traps through audit::fail on violation.
  void audit_check(const char* checkpoint) const;

  /// Test hook: removes `id` from its shard bucket while leaving it in
  /// by_id_ and the shard count, manufacturing a bucket-membership
  /// violation for the corruption-trap tests.
  void audit_corrupt_bucket_for_test(TupleId id);

  /// Test hook: flips the packed types of `id`'s bucket entry, making the
  /// entry-signature invariant fail.
  void audit_corrupt_signature_for_test(TupleId id);

 private:
  /// Differential oracle: re-runs a keyed find_matches as a linear scan of
  /// by_id_ and traps if the bucket probe returned a different id sequence.
  void audit_differential(const CompiledPattern& p,
                          const std::vector<TupleId>& got,
                          std::size_t limit) const;

 public:
#endif

 private:
  /// A bucket slot: the id, the tuple's address inside its by_id_ node
  /// (std::map nodes never move while the tuple is stored) and its
  /// type_signature(), so the type mask rejects without reading the tuple.
  struct Entry {
    TupleId id;
    const Tuple* tuple;
    std::uint64_t types;
  };

  // One shard per arity: hash buckets by first field for keyed probes, and
  // the number of stored tuples of that arity, which gates and bounds the
  // unkeyed walk. Bucket entries are kept sorted by id; ids arrive mostly in
  // increasing order (spaces allocate them monotonically) so inserts are
  // usually an amortized-O(1) push_back.
  struct Shard {
    std::unordered_map<Value, std::vector<Entry>, ValueHash> buckets;
    std::size_t size = 0;
  };

  /// Shared lookup core: visits matching ids ascending until `fn` says
  /// stop. Records probe/scan + candidate accounting.
  template <typename Fn>  // Fn: (TupleId, const Tuple&) -> bool keep_going
  void lookup(const CompiledPattern& p, Fn&& fn) const;

  std::map<TupleId, Tuple> by_id_;
  std::unordered_map<std::size_t, Shard> shards_;  // by arity
  std::size_t footprint_ = 0;
  mutable MatchStats stats_;
  MatchMetrics metrics_;
};

template <typename Fn>
void TupleIndex::lookup(const CompiledPattern& p, Fn&& fn) const {
  auto sit = shards_.find(p.arity());
  if (sit == shards_.end()) return;
  const Shard& shard = sit->second;

  std::uint64_t examined = 0;
  std::uint64_t rejected = 0;
  auto done = [&] { metrics_.on_lookup_done(examined, rejected); };

  if (p.keyed()) {
    ++stats_.bucket_probes;
    metrics_.on_probe();
    auto bit = shard.buckets.find(p.key());
    if (bit != shard.buckets.end()) {
      for (const Entry& e : bit->second) {
        ++examined;
        // Bucket membership already proves arity and first-field equality.
        if (!p.matches_rest(*e.tuple, e.types)) {
          ++rejected;
          continue;
        }
        if (!fn(e.id, *e.tuple)) break;
      }
    }
    stats_.candidates += examined;
    stats_.rejected += rejected;
    done();
    return;
  }

  // Tuples of other arities are skipped uncounted, and the walk ends at the
  // shard's last tuple, so the candidate sequence and counts are the arity
  // shard's alone.
  ++stats_.scan_fallbacks;
  metrics_.on_scan();
  for (auto it = by_id_.begin(); it != by_id_.end() && examined < shard.size;
       ++it) {
    const Tuple& t = it->second;
    if (t.arity() != p.arity()) continue;
    ++examined;
    if (!p.matches(t)) {
      ++rejected;
      continue;
    }
    if (!fn(it->first, t)) break;
  }
  stats_.candidates += examined;
  stats_.rejected += rejected;
  done();
}

}  // namespace tiamat::tuples
