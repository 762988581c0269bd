// E6 — §4.6/§4.7: Peers "provides a peer-to-peer like flooding mechanism
// for locating tuples in remote spaces" whereas Tiamat contacts its cached
// responder list. Flooding finds multi-hop tuples but its traffic grows with
// the whole neighbourhood; the responder list touches only instances that
// have actually answered before.
//
// Series, on a clique of n nodes: messages per lookup, virtual-time latency
// per lookup, hit rate — Peers (TTL 1..4) vs Tiamat.

#include <benchmark/benchmark.h>

#include "baselines/peers.h"
#include "bench/bench_util.h"
#include "obs/quantile.h"

namespace {

using namespace tiamat;  // NOLINT
using bench::World;
using tuples::any_int;
using tuples::Pattern;
using tuples::Tuple;

struct Result {
  double msgs_per_lookup = 0;
  double latency_ms = 0;
  double hit_rate = 0;
};

Result run_peers(std::size_t n, int ttl, std::uint64_t seed,
                 const std::string& scenario) {
  World w(seed);
  std::vector<std::unique_ptr<baselines::PeersNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<baselines::PeersNode>(w.tx));
  }
  // One random holder per key; lookups from node 0.
  for (int k = 0; k < 50; ++k) {
    nodes[1 + w.rng.index(n - 1)]->out(Tuple{"item", k});
  }
  const int kLookups = 50;
  obs::QuantileSketch latency;
  std::uint64_t hits = 0;
  const std::uint64_t msgs_before = w.net.stats().unicasts_sent;
  int issued = 0;
  std::function<void()> next = [&] {
    if (issued >= kLookups) return;
    const int key = issued++;
    const sim::Time t0 = w.net.now();
    nodes[0]->lookup(Pattern{"item", key}, ttl, sim::seconds(2),
                     [&, t0](auto r) {
                       const auto us = static_cast<double>(w.net.now() - t0);
                       latency.observe(us);
                       bench::observe_latency(scenario, us);
                       if (r) ++hits;
                       w.queue.schedule_after(sim::milliseconds(5), next);
                     });
  };
  next();
  w.queue.run_for(sim::seconds(300));
  bench::export_net(w, scenario);

  Result r;
  r.msgs_per_lookup =
      static_cast<double>(w.net.stats().unicasts_sent - msgs_before) /
      kLookups;
  r.latency_ms = bench::sim_ms(latency.mean());
  r.hit_rate = static_cast<double>(hits) / kLookups;
  return r;
}

Result run_tiamat(std::size_t n, std::uint64_t seed,
                  const std::string& scenario) {
  World w(seed);
  std::vector<std::unique_ptr<core::Instance>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<core::Instance>(
        w.tx, bench::bench_config("n" + std::to_string(i))));
    bench::maybe_trace(*nodes.back());
  }
  for (int k = 0; k < 50; ++k) {
    nodes[1 + w.rng.index(n - 1)]->out(Tuple{"item", k});
  }
  const int kLookups = 50;
  obs::QuantileSketch latency;
  std::uint64_t hits = 0;
  const std::uint64_t msgs_before =
      w.net.stats().unicasts_sent + w.net.stats().multicasts_sent;
  int issued = 0;
  std::function<void()> next = [&] {
    if (issued >= kLookups) return;
    const int key = issued++;
    const sim::Time t0 = w.net.now();
    nodes[0]->rdp(Pattern{"item", key}, [&, t0](auto r) {
      const auto us = static_cast<double>(w.net.now() - t0);
      latency.observe(us);
      bench::observe_latency(scenario, us);
      if (r) ++hits;
      w.queue.schedule_after(sim::milliseconds(5), next);
    });
  };
  next();
  w.queue.run_for(sim::seconds(300));
  bench::export_net(w, scenario);

  Result r;
  r.msgs_per_lookup = static_cast<double>(w.net.stats().unicasts_sent +
                                          w.net.stats().multicasts_sent -
                                          msgs_before) /
                      kLookups;
  r.latency_ms = bench::sim_ms(latency.mean());
  r.hit_rate = static_cast<double>(hits) / kLookups;
  nodes.clear();
  return r;
}

void BM_Flooding(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int ttl = static_cast<int>(state.range(1));  // 0 = Tiamat
  const std::string scenario =
      "n" + std::to_string(n) +
      (ttl == 0 ? "_tiamat" : "_peers_ttl" + std::to_string(ttl));
  Result r;
  std::uint64_t seed = 7;
  for (auto _ : state) {
    r = ttl == 0 ? run_tiamat(n, seed++, scenario)
                 : run_peers(n, ttl, seed++, scenario);
  }
  state.counters["msgs_per_lookup"] = r.msgs_per_lookup;
  state.counters["sim_latency_ms"] = r.latency_ms;
  state.counters["hit_rate"] = r.hit_rate;
  state.SetLabel(ttl == 0 ? "Tiamat" : "Peers-ttl" + std::to_string(ttl));
}

}  // namespace

BENCHMARK(BM_Flooding)
    ->Args({8, 0})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Args({16, 0})
    ->Args({16, 2})
    ->Args({16, 4})
    ->Args({32, 0})
    ->Args({32, 2})
    ->Args({32, 4})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

TIAMAT_BENCH_MAIN("flooding");
