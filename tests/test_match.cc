// Differential tests for the unified matching engine (src/tuple): the
// bucketed TupleIndex and the keyed WaiterIndex are checked against naive
// linear-scan oracles over randomized workloads covering every Field::Kind,
// arities 0–6 and wide tuples past the packed type signature, plus
// regression tests pinning the behavioural contract the spaces rely on:
// ascending-id match order, FIFO waiter priority, and seed-determined
// nondeterministic selection.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "space/local_space.h"
#include "tuple/index.h"
#include "tuple/matcher.h"
#include "tuple/pattern.h"
#include "tuple/tuple.h"
#include "tuple/waiter_index.h"

namespace {

using namespace tiamat;  // NOLINT
using tuples::Blob;
using tuples::CompiledPattern;
using tuples::Field;
using tuples::Pattern;
using tuples::Tuple;
using tuples::TupleId;
using tuples::TupleIndex;
using tuples::Type;
using tuples::Value;
using tuples::WaiterIndex;

// Values are drawn from a small pool so random patterns actually collide
// with stored tuples instead of matching nothing.
Value random_value(sim::Rng& rng) {
  switch (rng.index(5)) {
    case 0:
      return Value(rng.uniform(0, 5));
    case 1:
      return Value(0.5 + static_cast<double>(rng.uniform(0, 3)));
    case 2:
      return Value(rng.chance(0.5));
    case 3:
      return Value("k" + std::to_string(rng.uniform(0, 5)));
    default:
      return Value(Blob(static_cast<std::size_t>(rng.uniform(0, 2)),
                        std::uint8_t{0xab}));
  }
}

Tuple random_tuple(sim::Rng& rng) {
  std::vector<Value> fields;
  const std::size_t arity = rng.index(7);  // 0–6
  fields.reserve(arity);
  for (std::size_t i = 0; i < arity; ++i) fields.push_back(random_value(rng));
  return Tuple(std::move(fields));
}

// One random field, exercising every Field::Kind. When `hint` is set, the
// actual/prefix variants sometimes copy it so the pattern can really match.
Field random_field(sim::Rng& rng, const Value* hint) {
  switch (rng.index(5)) {
    case 0:  // actual
      if (hint != nullptr && rng.chance(0.6)) return Field(*hint);
      return Field(random_value(rng));
    case 1: {  // formal
      static const Type kTypes[] = {Type::kInt, Type::kDouble, Type::kBool,
                                    Type::kString, Type::kBlob};
      if (hint != nullptr && rng.chance(0.6)) {
        return Field::formal(hint->type());
      }
      return Field::formal(kTypes[rng.index(5)]);
    }
    case 2:
      return Field::wildcard();
    case 3: {  // range
      const double lo = static_cast<double>(rng.uniform(-2, 3));
      return Field::range(lo, lo + static_cast<double>(rng.uniform(0, 3)));
    }
    default: {  // prefix
      if (hint != nullptr && hint->is_string() && rng.chance(0.6)) {
        const std::string& s = hint->as_string();
        return Field::prefix(s.substr(0, rng.index(s.size() + 1)));
      }
      return Field::prefix("k");
    }
  }
}

// A pattern of the given arity, optionally aimed at `target` so a healthy
// fraction of random patterns match at least one stored tuple.
Pattern random_pattern(sim::Rng& rng, std::size_t arity,
                       const Tuple* target) {
  std::vector<Field> fields;
  fields.reserve(arity);
  for (std::size_t i = 0; i < arity; ++i) {
    const Value* hint =
        (target != nullptr && i < target->arity()) ? &(*target)[i] : nullptr;
    fields.push_back(random_field(rng, hint));
  }
  return Pattern(std::move(fields));
}

// Past tuples::kSignatureFields, so checks beyond the packed type
// signature run through the per-field path.
Tuple wide_tuple(sim::Rng& rng) {
  std::vector<Value> fields;
  const std::size_t arity = tuples::kSignatureFields + rng.index(4);
  fields.reserve(arity);
  for (std::size_t i = 0; i < arity; ++i) fields.push_back(random_value(rng));
  return Tuple(std::move(fields));
}

// A wide pattern aimed at `target`: most fields copy its value or type so
// matches happen despite the arity; the rest are random.
Pattern wide_pattern(sim::Rng& rng, const Tuple& target) {
  std::vector<Field> fields;
  fields.reserve(target.arity());
  for (const Value& v : target) {
    if (!rng.chance(0.9)) {
      fields.push_back(random_field(rng, &v));
    } else if (rng.chance(0.5)) {
      fields.push_back(Field::formal(v.type()));
    } else {
      fields.emplace_back(v);
    }
  }
  return Pattern(std::move(fields));
}

std::vector<TupleId> oracle_matches(const std::map<TupleId, Tuple>& store,
                                    const Pattern& p) {
  std::vector<TupleId> out;
  for (const auto& [id, t] : store) {
    if (p.matches(t)) out.push_back(id);
  }
  return out;
}

// Candidates the engine must examine for a full lookup: the key bucket's
// tuples for a keyed pattern, the arity's tuples for an unkeyed one.
std::uint64_t oracle_candidates(const std::map<TupleId, Tuple>& store,
                                const Pattern& p) {
  std::uint64_t n = 0;
  for (const auto& [id, t] : store) {
    if (t.arity() != p.arity()) continue;
    if (p.key() && !(t[0] == *p.key())) continue;
    ++n;
  }
  return n;
}

// ---- TupleIndex vs the oracle ---------------------------------------------

TEST(MatchEngine, DifferentialAgainstLinearScan) {
  sim::Rng rng(20260806);
  TupleIndex idx;
  std::map<TupleId, Tuple> shadow;  // ascending-id linear-scan oracle
  std::vector<std::pair<TupleId, Tuple>> erased;  // candidates to reinsert
  TupleId next_id = 1;

  for (int step = 0; step < 3000; ++step) {
    // Mutate: mostly inserts, some erases, so sizes drift up and down. Some
    // inserts put an erased id back, as a released tentative take does, so
    // entries land mid-bucket rather than at the end.
    const auto roll = rng.index(10);
    if (roll < 6 || shadow.empty()) {
      TupleId id = next_id++;
      Tuple t = rng.chance(0.1) ? wide_tuple(rng) : random_tuple(rng);
      if (!erased.empty() && rng.chance(0.2)) {
        const std::size_t k = rng.index(erased.size());
        id = erased[k].first;
        t = std::move(erased[k].second);
        erased.erase(erased.begin() + static_cast<long>(k));
      }
      idx.insert(id, t);
      shadow.emplace(id, std::move(t));
    } else if (roll < 8) {
      auto it = shadow.begin();
      std::advance(it, static_cast<long>(rng.index(shadow.size())));
      auto out = idx.erase(it->first);
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(*out, it->second);
      erased.emplace_back(it->first, std::move(*out));
      shadow.erase(it);
    }
    if (step == 1500) {
      // Bucket entries point into the index's own nodes; a move must carry
      // them along intact.
      TupleIndex moved;
      moved = std::move(idx);
      idx = std::move(moved);
    }
    TIAMAT_AUDIT_CHECK(idx.audit_check("differential"));

    // Probe with a random pattern, sometimes aimed at a stored tuple.
    const Tuple* target = nullptr;
    if (!shadow.empty() && rng.chance(0.7)) {
      auto it = shadow.begin();
      std::advance(it, static_cast<long>(rng.index(shadow.size())));
      target = &it->second;
    }
    Pattern p;
    if (target != nullptr && target->arity() >= tuples::kSignatureFields) {
      p = wide_pattern(rng, *target);
    } else {
      const std::size_t arity = target != nullptr && rng.chance(0.8)
                                    ? target->arity()
                                    : rng.index(7);
      p = random_pattern(rng, arity, target);
    }
    const std::vector<TupleId> expect = oracle_matches(shadow, p);

    // A full lookup examines exactly the oracle's candidates and rejects
    // the ones that do not match: the accounting the sim gates read.
    const tuples::MatchStats before = idx.match_stats();
    EXPECT_EQ(idx.find_matches(p), expect) << "pattern " << p.to_string();
    const std::uint64_t cands = oracle_candidates(shadow, p);
    EXPECT_EQ(idx.match_stats().candidates - before.candidates, cands);
    EXPECT_EQ(idx.match_stats().rejected - before.rejected,
              cands - expect.size());
    EXPECT_EQ(idx.count_matches(p), expect.size());
    auto first = idx.find_first(p);
    if (expect.empty()) {
      EXPECT_FALSE(first.has_value());
    } else {
      ASSERT_TRUE(first.has_value());
      EXPECT_EQ(*first, expect.front());
    }

    // The compiled pattern must agree with the interpreted one everywhere,
    // matched via the engine and via direct evaluation.
    CompiledPattern cp(p);
    EXPECT_EQ(idx.find_matches(cp), expect);
    if (target != nullptr) {
      EXPECT_EQ(cp.matches(*target), p.matches(*target));
    }
  }
  // The workload must have exercised both lookup paths.
  EXPECT_GT(idx.match_stats().bucket_probes, 0u);
  EXPECT_GT(idx.match_stats().scan_fallbacks, 0u);
}

TEST(MatchEngine, FindMatchesHonoursLimit) {
  sim::Rng rng(7);
  TupleIndex idx;
  for (TupleId id = 1; id <= 50; ++id) {
    idx.insert(id, Tuple{"k", static_cast<std::int64_t>(id)});
  }
  Pattern p{"k", tuples::any_int()};
  auto ids = idx.find_matches(p, 3);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids, (std::vector<TupleId>{1, 2, 3}));
  EXPECT_EQ(idx.count_matches(p), 50u);
}

// ---- WaiterIndex vs the oracle --------------------------------------------

TEST(WaiterIndexTest, CandidatesCoverEveryMatchingWaiter) {
  sim::Rng rng(99);
  WaiterIndex<int> waiters;
  std::map<std::uint64_t, Pattern> shadow;
  std::uint64_t next_id = 1;

  for (int step = 0; step < 1500; ++step) {
    const auto roll = rng.index(10);
    if (roll < 6 || shadow.empty()) {
      Pattern p = random_pattern(rng, rng.index(7), nullptr);
      std::uint64_t id = next_id++;
      waiters.add(id, CompiledPattern(p), 0);
      shadow.emplace(id, std::move(p));
    } else if (roll < 8) {
      auto it = shadow.begin();
      std::advance(it, static_cast<long>(rng.index(shadow.size())));
      EXPECT_TRUE(waiters.extract(it->first).has_value());
      shadow.erase(it);
    }

    Tuple t = random_tuple(rng);
    const std::vector<std::uint64_t> cands = waiters.candidates(t);
    // Ascending id == FIFO registration order.
    EXPECT_TRUE(std::is_sorted(cands.begin(), cands.end()));
    // Soundness: every waiter whose pattern matches t is in the list.
    for (const auto& [id, p] : shadow) {
      if (p.matches(t)) {
        EXPECT_TRUE(std::find(cands.begin(), cands.end(), id) != cands.end())
            << "waiter " << id << " (" << p.to_string()
            << ") missing for tuple " << t.to_string();
      }
    }
    // No dangling ids.
    for (std::uint64_t id : cands) EXPECT_TRUE(waiters.contains(id));
  }
}

// ---- Behavioural regressions the spaces depend on -------------------------

TEST(MatchRegression, OldestDestructiveWaiterWinsAcrossBuckets) {
  // A keyed waiter (bucketed) registered before an unkeyed one (overflow)
  // must win the race for a matching tuple — and vice versa. This pins the
  // merged keyed+overflow FIFO order of WaiterIndex::candidates.
  for (bool keyed_first : {true, false}) {
    sim::EventQueue q;
    sim::Rng rng(1);
    space::LocalTupleSpace space(q, rng);
    std::vector<int> fired;
    auto cb = [&fired](int who) {
      return [&fired, who](std::optional<Tuple> t) {
        if (t) fired.push_back(who);
      };
    };
    Pattern keyed{"evt", tuples::any_int()};
    Pattern unkeyed{tuples::any_string(), tuples::any_int()};
    if (keyed_first) {
      space.in(keyed, sim::kNever, cb(1));
      space.in(unkeyed, sim::kNever, cb(2));
    } else {
      space.in(unkeyed, sim::kNever, cb(2));
      space.in(keyed, sim::kNever, cb(1));
    }
    space.out(Tuple{"evt", 7});
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired.front(), keyed_first ? 1 : 2);
  }
}

TEST(MatchRegression, ReadersAllFireBeforeTheTake) {
  sim::EventQueue q;
  sim::Rng rng(1);
  space::LocalTupleSpace space(q, rng);
  int reads = 0;
  bool taken = false;
  space.rd(Pattern{"evt", tuples::any_int()}, sim::kNever,
           [&](auto t) { reads += t.has_value(); });
  space.in(Pattern{tuples::any_string(), 7}, sim::kNever,
           [&](auto t) { taken = t.has_value(); });
  space.rd(Pattern{tuples::any_string(), tuples::any_int()}, sim::kNever,
           [&](auto t) { reads += t.has_value(); });
  space.out(Tuple{"evt", 7});
  EXPECT_EQ(reads, 2);
  EXPECT_TRUE(taken);
  EXPECT_EQ(space.size(), 0u);
}

TEST(MatchRegression, SelectionIsDeterministicUnderFixedSeed) {
  // Nondeterministic selection (§2.4) draws from the seeded Rng over the
  // ascending-id candidate list; two identically seeded spaces must pick
  // identical sequences even though storage is hash-bucketed.
  auto run = [](std::uint64_t seed) {
    sim::EventQueue q;
    sim::Rng rng(seed);
    space::LocalTupleSpace space(q, rng);
    for (std::int64_t i = 0; i < 32; ++i) space.out(Tuple{"k", i});
    std::vector<std::int64_t> picks;
    for (int i = 0; i < 64; ++i) {
      auto t = space.rdp(Pattern{"k", tuples::any_int()});
      picks.push_back((*t)[1].as_int());
    }
    return picks;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // and the seed actually matters
}

}  // namespace
