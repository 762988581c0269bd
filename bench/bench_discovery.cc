// E3 — §3.1.3: "it would be expensive to gather a list of visible hosts for
// each and every operation via a multicast ... [the responder list]
// improves performance because consistently visible instances work their
// way to the top of the list."
//
// Series: mean operation latency (virtual ms) and multicast probes per
// operation, for (a) the paper's cached responder list, (b) a naive
// multicast-per-operation variant (cache cleared before every op), under
// stable membership and under churn.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "obs/quantile.h"
#include "sim/mobility.h"

namespace {

using namespace tiamat;  // NOLINT
using bench::World;
using tuples::any_int;
using tuples::Pattern;
using tuples::Tuple;

struct Result {
  double mean_latency_ms = 0;
  double probes_per_op = 0;
  double unicasts_per_op = 0;
  double hit_rate = 0;
};

Result run_scenario(std::size_t peers, bool cached, double churn_rate,
                    std::uint64_t seed, const std::string& scenario) {
  World w(seed);
  auto cfg = bench::bench_config("origin");
  core::Instance origin(w.tx, cfg);

  std::vector<std::unique_ptr<core::Instance>> others;
  for (std::size_t i = 0; i < peers; ++i) {
    others.push_back(std::make_unique<core::Instance>(
        w.tx, bench::bench_config("p" + std::to_string(i))));
  }

  sim::ChurnProcess churn(w.net, w.rng,
                          sim::ChurnParams{sim::milliseconds(200),
                                           churn_rate, 1});
  if (churn_rate > 0) {
    for (auto& o : others) churn.manage(o->node());
    churn.start();
  }

  // Seed every peer with tuples so any responder can satisfy any op.
  for (std::size_t i = 0; i < others.size(); ++i) {
    for (int k = 0; k < 64; ++k) {
      others[i]->out(Tuple{"data", static_cast<std::int64_t>(k)});
    }
  }
  w.queue.run_for(sim::milliseconds(50));

  const int kOps = 300;
  obs::QuantileSketch latency;
  std::uint64_t hits = 0;
  std::uint64_t probes_before = origin.discovery().stats().probes_sent;
  std::uint64_t unicasts_before = w.net.stats().unicasts_sent;

  int issued = 0;
  // Issue ops one at a time, sequentially in virtual time.
  std::function<void()> next = [&]() {
    if (issued >= kOps) return;
    ++issued;
    if (!cached) origin.responders().clear();  // naive: re-discover each op
    const sim::Time t0 = w.net.now();
    origin.rdp(Pattern{"data", any_int()}, [&, t0](auto r) {
      const auto us = static_cast<double>(w.net.now() - t0);
      latency.observe(us);
      bench::observe_latency(scenario, us);
      if (r) ++hits;
      w.queue.schedule_after(sim::milliseconds(5), next);
    });
  };
  next();
  w.queue.run_for(sim::seconds(600));
  churn.stop();
  bench::export_net(w, scenario);

  Result res;
  res.mean_latency_ms = bench::sim_ms(latency.mean());
  res.probes_per_op =
      static_cast<double>(origin.discovery().stats().probes_sent -
                          probes_before) /
      kOps;
  res.unicasts_per_op =
      static_cast<double>(w.net.stats().unicasts_sent - unicasts_before) /
      kOps;
  res.hit_rate = static_cast<double>(hits) / kOps;
  return res;
}

void BM_Discovery(benchmark::State& state) {
  const auto peers = static_cast<std::size_t>(state.range(0));
  const bool cached = state.range(1) != 0;
  const double churn = state.range(2) / 100.0;
  const std::string scenario =
      "p" + std::to_string(peers) + (cached ? "_cached" : "_naive") +
      (churn > 0 ? "_churn" : "");
  Result r;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    r = run_scenario(peers, cached, churn, seed++, scenario);
  }
  state.counters["sim_latency_ms"] = r.mean_latency_ms;
  state.counters["probes_per_op"] = r.probes_per_op;
  state.counters["unicasts_per_op"] = r.unicasts_per_op;
  state.counters["hit_rate"] = r.hit_rate;
  state.SetLabel(std::string(cached ? "responder-list" : "multicast-every-op") +
                 (churn > 0 ? "+churn" : ""));
}

}  // namespace

// peers x {cached, naive} x {stable, churn 40%}
BENCHMARK(BM_Discovery)
    ->Args({2, 1, 0})
    ->Args({2, 0, 0})
    ->Args({8, 1, 0})
    ->Args({8, 0, 0})
    ->Args({24, 1, 0})
    ->Args({24, 0, 0})
    ->Args({8, 1, 40})
    ->Args({8, 0, 40})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

TIAMAT_BENCH_MAIN("discovery");
