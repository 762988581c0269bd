// Microbenchmarks for the unified matching engine (src/tuple): compiled
// patterns, hash-bucketed tuple storage, and the keyed waiter index. The
// headline claim this bench pins down: keyed lookups probe one bucket and
// therefore do NOT scale with space size, while unkeyed lookups fall back
// to an id-ordered walk of the store that examines every tuple of the
// pattern's arity (and steps over the others). `--json` exports the
// engine's probe/scan/rejection accounting per scenario so the ratio stays
// diffable PR-over-PR (see BENCH_match.json at the repo root and
// EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "bench/bench_main.h"
#include "tuple/index.h"
#include "tuple/matcher.h"
#include "tuple/pattern.h"
#include "tuple/tuple.h"
#include "tuple/waiter_index.h"

namespace {

using namespace tiamat;  // NOLINT
using tuples::any_int;
using tuples::any_string;
using tuples::CompiledPattern;
using tuples::MatchStats;
using tuples::Pattern;
using tuples::Tuple;
using tuples::TupleId;
using tuples::TupleIndex;
using tuples::WaiterIndex;

constexpr std::int64_t kKeys = 64;

/// Fold one scenario's engine accounting into the exportable registry.
/// Counters accumulate across calibration re-runs, so the *ratios*
/// (candidates per probe vs per scan) are the stable quantities; the
/// per-lookup gauge records the final run's average directly.
void export_stats(const std::string& scenario, std::int64_t size,
                  const MatchStats& s) {
  obs::Labels l{{"scenario", scenario}, {"size", std::to_string(size)}};
  auto& r = bench::registry();
  r.counter("engine.bucket_probes", l).add(s.bucket_probes);
  r.counter("engine.scan_fallbacks", l).add(s.scan_fallbacks);
  r.counter("engine.candidates", l).add(s.candidates);
  r.counter("engine.rejected", l).add(s.rejected);
  const std::uint64_t lookups = s.bucket_probes + s.scan_fallbacks;
  if (lookups > 0) {
    r.gauge("engine.candidates_per_lookup", l)
        .set(static_cast<double>(s.candidates) /
             static_cast<double>(lookups));
  }
}

TupleIndex populated_index(std::int64_t n) {
  TupleIndex idx;
  for (std::int64_t i = 0; i < n; ++i) {
    idx.insert(static_cast<TupleId>(i + 1),
               Tuple{"k" + std::to_string(i % kKeys), i});
  }
  return idx;
}

// ---- Storage: keyed probe vs unkeyed scan ---------------------------------

void BM_KeyedFindFirst(benchmark::State& state) {
  const auto n = state.range(0);
  TupleIndex idx = populated_index(n);
  CompiledPattern p(Pattern{"k17", any_int()});
  idx.reset_match_stats();
  for (auto _ : state) {
    auto id = idx.find_first(p);
    benchmark::DoNotOptimize(id);
  }
  state.SetItemsProcessed(state.iterations());
  export_stats("keyed_find_first", n, idx.match_stats());
}
BENCHMARK(BM_KeyedFindFirst)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_UnkeyedFindFirst(benchmark::State& state) {
  const auto n = state.range(0);
  TupleIndex idx = populated_index(n);
  // Leading wildcard defeats the bucket key: the engine must walk the
  // arity shard. The int field matches only one tuple near the end.
  CompiledPattern p(Pattern{any_string(), n - 1});
  idx.reset_match_stats();
  for (auto _ : state) {
    auto id = idx.find_first(p);
    benchmark::DoNotOptimize(id);
  }
  state.SetItemsProcessed(state.iterations());
  export_stats("unkeyed_find_first", n, idx.match_stats());
}
BENCHMARK(BM_UnkeyedFindFirst)->Arg(100)->Arg(1000)->Arg(10000);

void BM_UnkeyedFindFirstMixedArity(benchmark::State& state) {
  // As BM_UnkeyedFindFirst, but every arity-2 tuple has an arity-3
  // neighbour in id order: the walk steps over N tuples it does not count
  // as candidates, the price of scanning the id-ordered store.
  const auto n = state.range(0);
  TupleIndex idx;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::string key = "k" + std::to_string(i % kKeys);
    idx.insert(static_cast<TupleId>(2 * i + 1), Tuple{key, i});
    idx.insert(static_cast<TupleId>(2 * i + 2), Tuple{key, i, i});
  }
  CompiledPattern p(Pattern{any_string(), n - 1});
  idx.reset_match_stats();
  for (auto _ : state) {
    auto id = idx.find_first(p);
    benchmark::DoNotOptimize(id);
  }
  state.SetItemsProcessed(state.iterations());
  export_stats("unkeyed_find_first_mixed_arity", n, idx.match_stats());
}
BENCHMARK(BM_UnkeyedFindFirstMixedArity)->Arg(100)->Arg(1000)->Arg(10000);

void BM_KeyedFindMatches(benchmark::State& state) {
  const auto n = state.range(0);
  TupleIndex idx = populated_index(n);
  CompiledPattern p(Pattern{"k17", any_int()});
  idx.reset_match_stats();
  for (auto _ : state) {
    auto ids = idx.find_matches(p);
    benchmark::DoNotOptimize(ids);
  }
  state.SetItemsProcessed(state.iterations());
  export_stats("keyed_find_matches", n, idx.match_stats());
}
BENCHMARK(BM_KeyedFindMatches)->Arg(100)->Arg(1000)->Arg(10000);

void BM_KeyedCountMatches(benchmark::State& state) {
  const auto n = state.range(0);
  TupleIndex idx = populated_index(n);
  CompiledPattern p(Pattern{"k17", any_int()});
  idx.reset_match_stats();
  for (auto _ : state) {
    auto c = idx.count_matches(p);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
  export_stats("keyed_count_matches", n, idx.match_stats());
}
BENCHMARK(BM_KeyedCountMatches)->Arg(100)->Arg(1000)->Arg(10000);

void BM_InsertErase(benchmark::State& state) {
  TupleIndex idx;
  TupleId next = 1;
  for (auto _ : state) {
    TupleId id = next++;
    idx.insert(id, Tuple{"k" + std::to_string(id % kKeys),
                         static_cast<std::int64_t>(id)});
    auto t = idx.erase(id);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertErase);

void BM_InsertEraseResident(benchmark::State& state) {
  // N tuples stay resident while each iteration inserts the next id and
  // takes one from the middle of the id order, as a busy space does: the
  // erase cost a take pays as the space grows.
  const auto n = state.range(0);
  TupleIndex idx = populated_index(n);
  auto next = static_cast<TupleId>(n + 1);
  auto victim = static_cast<TupleId>(n / 2 + 1);
  for (auto _ : state) {
    idx.insert(next, Tuple{"k" + std::to_string(next % kKeys),
                           static_cast<std::int64_t>(next)});
    ++next;
    auto t = idx.erase(victim++);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertEraseResident)->Arg(4096)->Arg(65536);

// ---- Pattern compilation ---------------------------------------------------

void BM_CompilePattern(benchmark::State& state) {
  Pattern p{"req", any_int(), tuples::any_double(),
            tuples::Field::prefix("http://"), tuples::any_bool()};
  for (auto _ : state) {
    CompiledPattern cp(p);
    benchmark::DoNotOptimize(cp);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompilePattern);

void BM_CompiledMatch(benchmark::State& state) {
  Tuple t{"req", 42, 2.5, "http://example.org/page", true};
  CompiledPattern p(Pattern{"req", any_int(), tuples::any_double(),
                            tuples::Field::prefix("http://"),
                            tuples::any_bool()});
  for (auto _ : state) {
    bool m = p.matches(t);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompiledMatch);

// ---- Waiter index: candidate narrowing ------------------------------------

void BM_WaiterOfferKeyed(benchmark::State& state) {
  // N keyed waiters spread over kKeys buckets; an offer probes one bucket
  // instead of testing all N patterns.
  const auto n = state.range(0);
  WaiterIndex<int> waiters;
  for (std::int64_t i = 0; i < n; ++i) {
    waiters.add(static_cast<std::uint64_t>(i + 1),
                CompiledPattern(Pattern{"k" + std::to_string(i % kKeys),
                                        any_int()}),
                0);
  }
  Tuple t{"k17", std::int64_t{7}};
  waiters.reset_match_stats();
  for (auto _ : state) {
    auto c = waiters.candidates(t);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
  export_stats("waiters_keyed_offer", n, waiters.match_stats());
}
BENCHMARK(BM_WaiterOfferKeyed)->Arg(100)->Arg(1000)->Arg(10000);

void BM_WaiterOfferUnkeyed(benchmark::State& state) {
  // Leading-wildcard waiters all land in the overflow bucket: every offer
  // must consider each of them (the shape the keyed index exists to avoid).
  const auto n = state.range(0);
  WaiterIndex<int> waiters;
  for (std::int64_t i = 0; i < n; ++i) {
    waiters.add(static_cast<std::uint64_t>(i + 1),
                CompiledPattern(Pattern{any_string(), i}), 0);
  }
  Tuple t{"k17", std::int64_t{7}};
  waiters.reset_match_stats();
  for (auto _ : state) {
    auto c = waiters.candidates(t);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
  export_stats("waiters_unkeyed_offer", n, waiters.match_stats());
}
BENCHMARK(BM_WaiterOfferUnkeyed)->Arg(100)->Arg(1000);

}  // namespace

TIAMAT_BENCH_MAIN("match");
