#include "tuple/index.h"

#include <algorithm>

#if TIAMAT_AUDIT_ENABLED
#include <sstream>
#include <string>
#endif

namespace tiamat::tuples {

namespace {

constexpr auto kIdLess = [](const auto& e, TupleId id) { return e.id < id; };

/// Inserts `e` keeping `v` sorted by id. Ids are allocated monotonically,
/// so the common case is a pure push_back; out-of-order inserts (tentative
/// releases putting an old id back) binary-search.
template <typename Entry>
void sorted_insert(std::vector<Entry>& v, const Entry& e) {
  if (v.empty() || v.back().id < e.id) {
    v.push_back(e);
    return;
  }
  v.insert(std::lower_bound(v.begin(), v.end(), e.id, kIdLess), e);
}

/// Position of `id` in `v`, or v.end().
template <typename Bucket>
auto sorted_find(Bucket& v, TupleId id) {
  auto it = std::lower_bound(v.begin(), v.end(), id, kIdLess);
  return it != v.end() && it->id == id ? it : v.end();
}

}  // namespace

void TupleIndex::insert(TupleId id, Tuple t) {
  const Tuple& stored = by_id_.emplace(id, std::move(t)).first->second;
  footprint_ += stored.footprint();
  Shard& shard = shards_[stored.arity()];
  ++shard.size;
  if (stored.arity() > 0) {
    sorted_insert(shard.buckets[stored[0]],
                  Entry{id, &stored, type_signature(stored)});
  }
}

std::optional<Tuple> TupleIndex::erase(TupleId id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return std::nullopt;
  const Tuple& stored = it->second;
  footprint_ -= stored.footprint();
  auto sit = shards_.find(stored.arity());
  if (sit != shards_.end()) {
    Shard& shard = sit->second;
    if (stored.arity() > 0) {
      auto bit = shard.buckets.find(stored[0]);
      if (bit != shard.buckets.end()) {
        auto eit = sorted_find(bit->second, id);
        if (eit != bit->second.end()) bit->second.erase(eit);
        if (bit->second.empty()) shard.buckets.erase(bit);
      }
    }
    if (--shard.size == 0) shards_.erase(sit);
  }
  Tuple t = std::move(it->second);
  by_id_.erase(it);
  return t;
}

const Tuple* TupleIndex::get(TupleId id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &it->second;
}

std::vector<TupleId> TupleIndex::find_matches(const CompiledPattern& p,
                                              std::size_t limit) const {
  std::vector<TupleId> out;
  lookup(p, [&](TupleId id, const Tuple&) {
    out.push_back(id);
    return limit == 0 || out.size() < limit;
  });
  TIAMAT_AUDIT_CHECK(if (p.keyed() && audit::sample())
                         audit_differential(p, out, limit));
  return out;
}

std::vector<TupleId> TupleIndex::find_matches(const Pattern& p,
                                              std::size_t limit) const {
  return find_matches(CompiledPattern(p), limit);
}

std::optional<TupleId> TupleIndex::find_first(const CompiledPattern& p) const {
  std::optional<TupleId> found;
  lookup(p, [&](TupleId id, const Tuple&) {
    found = id;
    return false;  // short-circuit after the first match
  });
  return found;
}

std::optional<TupleId> TupleIndex::find_first(const Pattern& p) const {
  return find_first(CompiledPattern(p));
}

std::size_t TupleIndex::count_matches(const CompiledPattern& p) const {
  std::size_t n = 0;
  lookup(p, [&](TupleId, const Tuple&) {
    ++n;
    return true;
  });
  return n;
}

std::size_t TupleIndex::count_matches(const Pattern& p) const {
  return count_matches(CompiledPattern(p));
}

void TupleIndex::for_each(
    const std::function<void(TupleId, const Tuple&)>& fn) const {
  for (const auto& [id, t] : by_id_) fn(id, t);
}

#if TIAMAT_AUDIT_ENABLED

namespace {

std::string describe(TupleId id, const Tuple& t) {
  std::ostringstream os;
  os << "tuple id " << id << " arity " << t.arity() << " " << t.to_string();
  return os.str();
}

}  // namespace

void TupleIndex::audit_check(const char* checkpoint) const {
  auto trap = [&](const std::string& invariant, const std::string& detail) {
    std::ostringstream os;
    os << detail << " | index size " << by_id_.size() << ", shards "
       << shards_.size() << ", footprint " << footprint_;
    audit::fail("TupleIndex", checkpoint, invariant, os.str());
  };

  // Ordering first: the membership checks below binary-search the buckets,
  // so an unsorted bucket must trap as itself rather than as a bogus
  // membership miss.
  for (const auto& [arity, shard] : shards_) {
    if (shard.size == 0) {
      std::ostringstream os;
      os << "empty shard for arity " << arity << " not pruned";
      trap("shard-pruning", os.str());
      return;
    }
    for (const auto& [key, entries] : shard.buckets) {
      if (entries.empty()) {
        trap("bucket-pruning",
             "empty bucket key=" + key.to_string() + " not pruned");
        return;
      }
      if (std::adjacent_find(entries.begin(), entries.end(),
                             [](const Entry& a, const Entry& b) {
                               return a.id >= b.id;
                             }) != entries.end()) {
        trap("id-order", "bucket key=" + key.to_string() +
                             " id list not strictly ascending");
        return;
      }
    }
  }

  // Forward direction: every stored tuple has an arity shard and sits in
  // the bucket of its first field.
  std::size_t footprint_sum = 0;
  std::map<std::size_t, std::size_t> per_arity;
  for (const auto& [id, t] : by_id_) {
    footprint_sum += t.footprint();
    ++per_arity[t.arity()];
    auto sit = shards_.find(t.arity());
    if (sit == shards_.end()) {
      trap("shard-membership", describe(id, t) + " has no arity shard");
      return;
    }
    if (t.arity() > 0) {
      const Shard& shard = sit->second;
      auto bit = shard.buckets.find(t[0]);
      if (bit == shard.buckets.end() ||
          sorted_find(bit->second, id) == bit->second.end()) {
        trap("bucket-membership",
             describe(id, t) + " missing from bucket key=" +
                 t[0].to_string());
        return;
      }
      if (ValueHash{}(bit->first) != ValueHash{}(t[0])) {
        trap("bucket-key-hash",
             describe(id, t) + " bucket key " + bit->first.to_string() +
                 " hashes differently from first field " + t[0].to_string());
        return;
      }
    }
  }
  if (footprint_sum != footprint_) {
    std::ostringstream os;
    os << "cached footprint " << footprint_ << " != recomputed "
       << footprint_sum;
    trap("footprint", os.str());
    return;
  }

  // Reverse direction: every bucket entry is a live tuple in the right
  // place, pointing at its own by_id_ node with that tuple's signature, and
  // the counts balance — together with the forward pass this proves
  // "exactly one bucket" (no duplicates, no strays), and the shard counts
  // that bound the unkeyed walk are exact.
  std::size_t bucket_ids_total = 0;
  for (const auto& [arity, shard] : shards_) {
    auto nit = per_arity.find(arity);
    const std::size_t stored = nit == per_arity.end() ? 0 : nit->second;
    if (shard.size != stored) {
      std::ostringstream os;
      os << "arity " << arity << " shard counts " << shard.size << " for "
         << stored << " stored tuples";
      trap("membership-count", os.str());
      return;
    }
    for (const auto& [key, entries] : shard.buckets) {
      bucket_ids_total += entries.size();
      for (const Entry& e : entries) {
        const Tuple* t = get(e.id);
        if (t == nullptr || t->arity() != arity || !((*t)[0] == key)) {
          std::ostringstream os;
          os << "bucket key=" << key.to_string() << " lists id " << e.id
             << (t == nullptr ? " which is not stored"
                              : " whose arity or first field differs");
          trap("bucket-membership", os.str());
          return;
        }
        if (e.tuple != t) {
          trap("entry-address",
               describe(e.id, *t) + " bucket entry points outside its node");
          return;
        }
        if (e.types != type_signature(*t)) {
          std::ostringstream os;
          os << describe(e.id, *t) << " bucket entry types " << std::hex
             << e.types << " != signature " << type_signature(*t);
          trap("entry-signature", os.str());
          return;
        }
      }
    }
  }
  auto nit = per_arity.find(0);
  const std::size_t keyed_tuples =
      by_id_.size() - (nit == per_arity.end() ? 0 : nit->second);
  if (bucket_ids_total != keyed_tuples) {
    std::ostringstream os;
    os << "buckets hold " << bucket_ids_total << " ids for " << keyed_tuples
       << " keyed tuples";
    trap("membership-count", os.str());
  }
}

void TupleIndex::audit_corrupt_bucket_for_test(TupleId id) {
  const Tuple* t = get(id);
  if (t == nullptr || t->arity() == 0) return;
  auto& bucket = shards_.at(t->arity()).buckets.at((*t)[0]);
  bucket.erase(sorted_find(bucket, id));
}

void TupleIndex::audit_corrupt_signature_for_test(TupleId id) {
  const Tuple* t = get(id);
  if (t == nullptr || t->arity() == 0) return;
  auto& bucket = shards_.at(t->arity()).buckets.at((*t)[0]);
  sorted_find(bucket, id)->types ^= 1;
}

void TupleIndex::audit_differential(const CompiledPattern& p,
                                    const std::vector<TupleId>& got,
                                    std::size_t limit) const {
  // Linear-scan oracle: what a bucketless index would have returned.
  std::vector<TupleId> expect;
  for (const auto& [id, t] : by_id_) {
    if (!p.matches(t)) continue;
    expect.push_back(id);
    if (limit != 0 && expect.size() == limit) break;
  }
  if (expect == got) return;
  std::ostringstream os;
  os << "keyed probe returned " << got.size() << " ids, linear oracle "
     << expect.size() << " for pattern key=" << p.key().to_string()
     << " arity " << p.arity();
  audit::fail("TupleIndex", "find_matches", "probe-vs-oracle", os.str());
}

#endif  // TIAMAT_AUDIT_ENABLED

}  // namespace tiamat::tuples
