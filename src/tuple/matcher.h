// The matching engine's compiled-pattern layer.
//
// Tuple matching is the hot path of every Linda operation, and before this
// engine existed it was implemented four different ways (ordered-map index
// buckets, linear waiter lists, per-baseline replica scans, field-by-field
// Pattern::matches with no precomputation). Everything now funnels through
// two shared pieces:
//
//   CompiledPattern — a pattern with its match plan precomputed: arity,
//     leading-actual key (and that key's hash), a (mask, want) type mask
//     over its formal fields, and the list of field positions that actually
//     need checking (wildcards are dropped at compile time). Bucket probes
//     test a candidate's packed type signature against the mask without
//     reading the tuple, and skip re-checking the key field.
//
//   MatchStats — the engine's probe/scan accounting, shared by TupleIndex
//     and WaiterIndex. Raw counters are always maintained (cheap integer
//     adds); bind_metrics() additionally mirrors them into an obs::Registry
//     so BENCH_*.json and instance snapshots expose bucket-probe vs
//     full-scan-fallback ratios and rejections per lookup
//     (rejected / (bucket_probes + scan_fallbacks)).

#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "tuple/pattern.h"
#include "tuple/tuple.h"

namespace tiamat::tuples {

/// Fields whose types a type signature packs: 3 bits each, 21 * 3 = 63.
inline constexpr std::size_t kSignatureFields = 21;

/// Packs Type+1 into 3 bits per field for the first kSignatureFields
/// fields (0 marks "no field"). TupleIndex stores it beside each bucket
/// entry so a formal-field check needs no read of the tuple itself.
std::uint64_t type_signature(const Tuple& t);

/// A Pattern plus its precomputed match plan. Cheap to copy relative to the
/// pattern it wraps (one extra small vector); built once per operation or
/// per registered waiter, then reused against every candidate tuple.
class CompiledPattern {
 public:
  CompiledPattern() = default;
  explicit CompiledPattern(Pattern p);

  const Pattern& pattern() const { return pattern_; }
  std::size_t arity() const { return pattern_.fields().size(); }

  /// True when the first field is an actual: the pattern probes the
  /// (arity, first-field) bucket instead of scanning.
  bool keyed() const { return keyed_; }
  /// The leading actual. Only meaningful when keyed().
  const Value& key() const { return pattern_.fields()[0].actual(); }
  /// Precomputed hash of key(); saves rehashing on every bucket probe.
  std::size_t key_hash() const { return key_hash_; }

  /// True when every field is a wildcard: any tuple of the right arity
  /// matches, so the engine can skip per-field checks entirely.
  bool match_all() const { return checks_.empty(); }

  /// Full match: arity gate, then only the precompiled non-wildcard checks.
  bool matches(const Tuple& t) const {
    if (t.arity() != arity()) return false;
    for (std::uint32_t i : checks_) {
      if (!pattern_.fields()[i].matches(t[i])) return false;
    }
    return true;
  }

  /// Match for bucket-probe candidates: the caller guarantees arity and
  /// first-field equality (that is what the bucket key means) and passes
  /// the tuple's type_signature(). Formals within the signature are decided
  /// by the type mask; `t` is read only for the remaining checks (actual,
  /// range and prefix fields, and fields past the signature), so a pattern
  /// whose non-key checks are all such formals never touches the tuple.
  bool matches_rest(const Tuple& t, std::uint64_t types) const {
    if ((types & type_mask_) != type_want_) return false;
    for (std::size_t k = rest_begin_; k < rest_end_; ++k) {
      const std::uint32_t i = checks_[k];
      if (!pattern_.fields()[i].matches(t[i])) return false;
    }
    return true;
  }

 private:
  Pattern pattern_;
  /// Non-wildcard field positions, ordered [key][rest][masked formals]:
  /// matches() walks all of them, matches_rest() only [rest_begin_,
  /// rest_end_) after the type-mask test.
  std::vector<std::uint32_t> checks_;
  std::size_t rest_begin_ = 0;
  std::size_t rest_end_ = 0;
  std::uint64_t type_mask_ = 0;  ///< 3 bits set per formal field in range
  std::uint64_t type_want_ = 0;  ///< Type+1 of those formals
  std::size_t key_hash_ = 0;
  bool keyed_ = false;
};

/// Probe/scan accounting shared by TupleIndex and WaiterIndex. The raw
/// fields are the source of truth (tests and benches read them directly);
/// when bound to a registry the same numbers are mirrored into named
/// instruments so they appear in JSON snapshots.
struct MatchStats {
  std::uint64_t bucket_probes = 0;    ///< keyed lookups: one bucket visited
  std::uint64_t scan_fallbacks = 0;   ///< unkeyed lookups: whole shard walked
  std::uint64_t candidates = 0;       ///< tuples/waiters examined
  std::uint64_t rejected = 0;         ///< examined but failed to match

  void reset() { *this = MatchStats{}; }
};

/// Mirrors a MatchStats stream into registry instruments. `prefix` is the
/// metric namespace ("match" for tuple storage, "waiters" for the waiter
/// index). Null until bind(); every hook tolerates the unbound state.
class MatchMetrics {
 public:
  void bind(obs::Registry& r, const std::string& prefix) {
    probes_ = &r.counter(prefix + ".bucket_probes");
    scans_ = &r.counter(prefix + ".scan_fallbacks");
    candidates_ = &r.counter(prefix + ".candidates");
    rejected_ = &r.counter(prefix + ".rejected");
  }

  bool bound() const { return probes_ != nullptr; }

  void on_probe() const {
    if (probes_ != nullptr) probes_->add();
  }
  void on_scan() const {
    if (scans_ != nullptr) scans_->add();
  }
  void on_lookup_done(std::uint64_t examined, std::uint64_t rejected) const {
    if (candidates_ != nullptr) candidates_->add(examined);
    if (rejected_ != nullptr) rejected_->add(rejected);
  }

 private:
  obs::Counter* probes_ = nullptr;
  obs::Counter* scans_ = nullptr;
  obs::Counter* candidates_ = nullptr;
  obs::Counter* rejected_ = nullptr;
};

}  // namespace tiamat::tuples
