// E9 — §3.2 (web client/proxy): "proxy servers can be dynamically added
// without the clients' knowledge ... both for the purposes of load
// balancing ... and in the case of failure, to replace the failed server.
// Neither of these actions is visible to, nor perturbs, the clients.
// ... The client can still make requests even in the absence of any
// servers."
//
// Series: request throughput & latency vs proxy count; requests served
// across a mid-run proxy kill+replace; disconnected-client queueing.

#include <benchmark/benchmark.h>

#include "apps/web.h"
#include "bench/bench_util.h"

namespace {

using namespace tiamat;  // NOLINT
using bench::World;

struct Result {
  double completed = 0;
  double failed = 0;
  double mean_latency_ms = 0;
};

Result run_throughput(int proxies, int clients, std::uint64_t seed) {
  World w(seed);
  apps::web::OriginServer origin(w.queue, sim::milliseconds(80));
  for (int i = 0; i < 50; ++i) {
    origin.add_page("http://site/" + std::to_string(i), "body");
  }

  std::vector<std::unique_ptr<core::Instance>> nodes;
  std::vector<std::unique_ptr<apps::web::ProxyServer>> proxy_objs;
  for (int i = 0; i < proxies; ++i) {
    nodes.push_back(std::make_unique<core::Instance>(
        w.tx, bench::bench_config("proxy" + std::to_string(i))));
    proxy_objs.push_back(std::make_unique<apps::web::ProxyServer>(
        *nodes.back(), origin, /*cache=*/false));
    proxy_objs.back()->start();
  }

  std::vector<std::unique_ptr<core::Instance>> client_nodes;
  std::vector<std::unique_ptr<apps::web::WebClient>> client_objs;
  for (int i = 0; i < clients; ++i) {
    client_nodes.push_back(std::make_unique<core::Instance>(
        w.tx, bench::bench_config("client" + std::to_string(i))));
    client_objs.push_back(
        std::make_unique<apps::web::WebClient>(*client_nodes.back()));
  }

  // Each client issues a stream of requests.
  for (int i = 0; i < clients; ++i) {
    auto* c = client_objs[i].get();
    auto loop = std::make_shared<std::function<void()>>();
    auto counter = std::make_shared<int>(0);
    *loop = [&w, c, loop, counter] {
      const std::string url = "http://site/" + std::to_string(*counter % 50);
      ++*counter;
      c->get(url, [&w, loop](auto) {
        w.queue.schedule_after(sim::milliseconds(1), *loop);
      });
    };
    w.queue.schedule_after(sim::milliseconds(3 * (i + 1)), *loop);
  }
  w.queue.run_for(sim::seconds(30));

  Result r;
  for (auto& c : client_objs) {
    r.completed += static_cast<double>(c->stats().completed);
    r.failed += static_cast<double>(c->stats().failed);
  }
  // Aggregate mean latency across clients.
  double total = 0, n = 0;
  for (auto& c : client_objs) {
    // The sketch's mean is per client; weight by completion count.
    const auto& s = c->stats();
    total += s.latency.mean() * s.latency.count();
    n += static_cast<double>(s.latency.count());
  }
  r.mean_latency_ms = n > 0 ? bench::sim_ms(total / n) : 0;
  proxy_objs.clear();
  client_objs.clear();
  return r;
}

Result run_failover(std::uint64_t seed) {
  World w(seed);
  apps::web::OriginServer origin(w.queue);
  origin.add_page("http://site/x", "body");

  auto p1_node = std::make_unique<core::Instance>(
      w.tx, bench::bench_config("proxy1"));
  auto p1 = std::make_unique<apps::web::ProxyServer>(*p1_node, origin);
  p1->start();

  core::Instance c_node(w.tx, bench::bench_config("client"));
  apps::web::WebClient client(c_node);

  auto loop = std::make_shared<std::function<void()>>();
  *loop = [&w, &client, loop] {
    client.get("http://site/x", [&w, loop](auto) {
      w.queue.schedule_after(sim::milliseconds(50), *loop);
    }, sim::seconds(15));
  };
  (*loop)();
  w.queue.run_for(sim::seconds(10));

  // Kill the proxy mid-run...
  p1->stop();
  p1.reset();
  p1_node.reset();
  w.queue.run_for(sim::seconds(2));
  // ...and bring up a replacement.
  core::Instance p2_node(w.tx, bench::bench_config("proxy2"));
  apps::web::ProxyServer p2(p2_node, origin);
  p2.start();
  w.queue.run_for(sim::seconds(18));

  Result r;
  r.completed = static_cast<double>(client.stats().completed);
  r.failed = static_cast<double>(client.stats().failed);
  r.mean_latency_ms = 0;
  return r;
}

void BM_WebThroughput(benchmark::State& state) {
  const int proxies = static_cast<int>(state.range(0));
  const int clients = static_cast<int>(state.range(1));
  Result r;
  std::uint64_t seed = 17;
  for (auto _ : state) {
    r = run_throughput(proxies, clients, seed++);
  }
  state.counters["completed"] = r.completed;
  state.counters["failed"] = r.failed;
  state.counters["sim_latency_ms"] = r.mean_latency_ms;
}

void BM_WebFailover(benchmark::State& state) {
  Result r;
  std::uint64_t seed = 19;
  for (auto _ : state) {
    r = run_failover(seed++);
  }
  state.counters["completed"] = r.completed;
  state.counters["failed"] = r.failed;
  state.SetLabel("kill+replace proxy mid-run");
}

}  // namespace

BENCHMARK(BM_WebThroughput)
    ->Args({1, 8})
    ->Args({2, 8})
    ->Args({4, 8})
    ->Args({8, 8})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_WebFailover)->Iterations(1)->Unit(benchmark::kMillisecond);

TIAMAT_BENCH_MAIN("webapp");
