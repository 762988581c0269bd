// tiamat_perfbench: the repository's benchmark program.
//
//   tiamat_perfbench --workload <local_keyed|task_bag|request_reply>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 (end to end): one-second rounds, each of which sets the workload
// up afresh on a LoopbackTransport with kWorkers worker threads, runs it as a
// closed loop for a fixed amount of work, and checks its outputs. Every figure
// is a median over the calmest quarter of the rounds' slices, ranked by the
// host's steal time (set-up time: over the rounds). The main thread only blocks on
// the loops' completion signal while a window runs. Each round starts from a
// fresh stack because the stack's per-op lease timers accumulate for the
// lease TTL, so a long window drifts.
//
// --trace 1 (per layer): the same workload in alternating untraced and traced
// one-second rounds, single-layer replays of the run's inputs, and two
// sim passes of the same seed whose counts must agree exactly. Prints the
// per-layer ledger.
//
// Both print a human-readable table, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Results are printed before
// teardown, so a crash while tearing down still leaves them, and the exit
// status reports the crash.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "harness.h"
#include "layers.h"
#include "obs/analysis.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/random.h"
#include "transport/loopback_transport.h"
#include "transport/sim_transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace transport = tiamat::transport;
using tiamat::core::Instance;

/// 3 loopback workers plus the main thread: the box has 4 cores.
constexpr unsigned kWorkers = 3;
/// Length of one end-to-end round. Each round sets the workload up afresh
/// (set-up time is the median over rounds) and measures one window; many
/// short rounds average over what a fresh process or thread placement does
/// to a run better than one long window.
constexpr double kRoundSeconds = 1.0;
constexpr auto kStopDeadline = std::chrono::seconds(30);
constexpr transport::Duration kDrainWait = transport::seconds(30);
constexpr std::size_t kTraceEvents = 400000;
constexpr std::size_t kPayloadSamples = 4096;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- Counters the layers already expose ------------------------------------

/// Summed over a workload's instances. Space figures are strand-confined,
/// so the whole read runs inside wait_until (exclusive with every strand).
struct Counters {
  std::uint64_t probes = 0, cancels = 0, reinserted = 0, rpc_timeouts = 0;
  std::uint64_t leases_granted = 0, leases_refused = 0, leases_active = 0;
  std::uint64_t candidates = 0, waiter_candidates = 0;
  std::uint64_t outs = 0, lookups = 0, hits = 0;
  std::uint64_t tuples = 0, space_bytes = 0;
};

Counters read_counters(Transport& tx, const std::vector<Instance*>& insts) {
  Counters c;
  tx.wait_until(
      [&] {
        c = Counters{};
        for (Instance* i : insts) {
          const auto& m = i->monitor().counters();
          c.probes += m.probes_triggered.value();
          c.cancels += m.cancelled.value();
          c.reinserted += m.tuples_reinserted.value();
          c.rpc_timeouts += m.rpc_timeouts.value();
          const auto& ls = i->leases().stats();
          c.leases_granted += ls.granted;
          c.leases_refused += ls.refused_by_policy + ls.refused_by_requester;
          c.leases_active += i->leases().active();
          const auto& sp = i->local_space();
          c.candidates += sp.index_stats().candidates;
          c.waiter_candidates += sp.waiter_stats().candidates;
          c.outs += sp.stats().outs;
          c.lookups += sp.stats().reads + sp.stats().takes;
          c.hits += sp.stats().hits;
          const auto mem = sp.memory();
          c.tuples += mem.tuple_count;
          c.space_bytes += mem.total_bytes();
        }
        return true;
      },
      kDrainWait);
  return c;
}

struct Sched {
  std::uint64_t tasks = 0, lag_sum = 0, lag_max = 0, busy = 0;
  std::uint64_t tombstones = 0, cancels = 0, lock_wait = 0;
};

Sched read_sched(const transport::LoopbackTransport& loop) {
  const auto s = loop.sched_stats();
  Sched out;
  for (const auto& w : s.workers) {
    out.tasks += w.tasks;
    out.lag_sum += w.lag_us_sum;
    out.lag_max = std::max(out.lag_max, w.lag_us_max);
    out.busy += w.busy_us;
    out.tombstones += w.tombstones;
    out.cancels += w.cancels;
  }
  out.lock_wait = s.lock_wait_us;
  return out;
}

/// Formats every instance's flight-recorder tail. The copy runs on each
/// instance's own strand; a strand that does not answer within 5 s is named
/// instead.
std::string dump_flight_recorders(Transport& tx, const std::vector<Instance*>& insts) {
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::string, std::string> tails;
  };
  auto shared = std::make_shared<Shared>();
  for (Instance* i : insts) {
    tx.post(i->node(), [i, shared] {
      std::string out;
      for (const auto& e : i->flight_recorder().tail()) {
        char line[200];
        std::snprintf(line, sizeof line,
                      "  t=%" PRId64 " origin=%u op=%" PRIu64 " %s peer=%u detail=%" PRId64 "\n",
                      static_cast<std::int64_t>(e.at), e.origin, e.op_id,
                      tiamat::obs::to_string(e.kind), e.peer,
                      static_cast<std::int64_t>(e.detail));
        out += line;
      }
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->tails[i->name()] = out;
      shared->cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait_for(lock, std::chrono::seconds(5),
                      [&] { return shared->tails.size() == insts.size(); });
  std::string out;
  for (Instance* i : insts) {
    auto it = shared->tails.find(i->name());
    out += "flight recorder " + i->name() + ":\n" +
           (it == shared->tails.end() ? std::string("  (strand did not answer)\n")
                                      : it->second);
  }
  return out;
}

// ---- One measured window ---------------------------------------------------

struct Window {
  bool stalled = false;
  std::uint64_t attempted = 0, completed = 0, failed = 0;
  double seconds = 0, cpu_s = 0;
  LatencyHistogram latency, call, post_lag;
  /// Per slice of the window: completed ops, wall seconds, CPU seconds, and
  /// the latency of the ops that completed in it.
  std::vector<double> slice_ops, slice_secs, slice_cpu;
  std::vector<bool> slice_full;  ///< every loop still running at its end
  std::vector<double> slice_steal;  ///< host steal time, seconds over all CPUs
  std::vector<LatencyHistogram> slice_latency =
      std::vector<LatencyHistogram>(LoopStats::kMaxSlices + 1);
  Counters before, after;
  Sched sched_before, sched_after;
  transport::LoopbackTransport::Stats net_before, net_after;
  std::vector<std::string> problems;

  double per_op(std::uint64_t b, std::uint64_t a) const {
    return ratio(static_cast<double>(a - b), static_cast<double>(completed));
  }
};

/// Per-slice figures pooled over every round of a run. Reporting their
/// medians keeps a burst of interference from outside the process, which
/// moves one slice, out of the reported figure. On a shared host the
/// hypervisor's steal time comes in bursts that can cover most of a run (on
/// a 4-vCPU VM, bursts took up to a fifth of its CPU time and tripled the
/// p99 of request_reply and task_bag), so the medians are taken over the
/// calmest quarter of the slices only: those with no more steal time than
/// the slice at the first quartile. Where the kernel reports no steal time,
/// every slice counts.
struct Slices {
  struct Row {
    double ops_per_s, cpu_us_per_op, p50_us, p99_us, steal_s;
    std::uint64_t samples;
  };
  std::vector<Row> rows;

  /// Skips the slice at the end of a round in which the loops finish one
  /// by one.
  void add(const Window& r) {
    for (std::size_t k = 0; k < r.slice_ops.size(); ++k) {
      const LatencyHistogram& h = r.slice_latency[k];
      if (!r.slice_full[k] || h.count() == 0) continue;
      rows.push_back({ratio(r.slice_ops[k], r.slice_secs[k]),
                      ratio(r.slice_cpu[k] * 1e6, r.slice_ops[k]), h.quantile_us(0.50),
                      h.quantile_us(0.99), r.slice_steal[k], h.count()});
    }
  }

  std::vector<Row> calm() const {
    if (rows.empty()) return {};
    std::vector<double> steal;
    for (const Row& x : rows) steal.push_back(x.steal_s);
    std::sort(steal.begin(), steal.end());
    const double limit = steal[(steal.size() - 1) / 4];
    std::vector<Row> out;
    for (const Row& x : rows) {
      if (x.steal_s <= limit) out.push_back(x);
    }
    return out;
  }

  static double median_of(const std::vector<Row>& rows, double Row::*field) {
    std::vector<double> v;
    for (const Row& x : rows) v.push_back(x.*field);
    return median(v);
  }
};

/// Runs `w`'s loops on `tx` until each has completed its share of a fixed
/// amount of work, sized to take `seconds` at the workload's nominal rate
/// (so memory, which grows with every out, reflects the same work on every
/// commit), or until 3 x `seconds` have passed. Then stops, drains, checks.
/// `tick` (traced run) is called about every 20 ms while the window runs.
Window run_window(Transport& tx, transport::LoopbackTransport* loop, Workload& w,
                  double seconds, bool traced,
                  const std::function<void()>& tick = nullptr) {
  Window r;
  const auto insts = w.instances();
  const auto loops = w.loops();
  r.before = read_counters(tx, insts);
  if (loop != nullptr) {
    r.sched_before = read_sched(*loop);
    r.net_before = loop->stats();
  }
  auto completed_so_far = [&loops] {
    std::uint64_t n = 0;
    for (const LoopStats* s : loops) n += s->completed.load(std::memory_order_relaxed);
    return n;
  };
  const double budget =
      std::max(1.0, w.nominal_ops_per_s() * seconds / static_cast<double>(loops.size()));
  RunControl ctl(static_cast<std::uint64_t>(budget));
  const RunEnv env{Stepper{&tx, false}, &ctl, traced};
  using Clock = std::chrono::steady_clock;
  const double cpu0 = process_cpu_s();
  const std::uint64_t t0 = now_ns();
  const Clock::time_point start = Clock::now();
  w.start(env);
  // The main thread sleeps on the loops' completion signal, waking only at
  // slice boundaries (and, traced, to drain the trace rings).
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / LoopStats::kSlices));
  std::uint64_t prev_ops = 0;
  double prev_cpu = cpu0;
  double prev_steal = host_steal_s();
  Clock::time_point prev_t = start;
  for (int k = 0; k < LoopStats::kMaxSlices && ctl.live() > 0; ++k) {
    const Clock::time_point until = start + slice * (k + 1);
    for (Clock::time_point now = Clock::now(); now < until && ctl.live() > 0;
         now = Clock::now()) {
      if (tick) {
        ctl.wait_done(std::min<Clock::duration>(std::chrono::milliseconds(20), until - now));
        tick();
      } else {
        ctl.wait_done(until - now);
      }
    }
    ctl.set_slice(k + 1);
    r.slice_full.push_back(ctl.live() == static_cast<int>(loops.size()));
    const std::uint64_t ops = completed_so_far();
    const double cpu = process_cpu_s();
    const Clock::time_point now = Clock::now();
    r.slice_ops.push_back(static_cast<double>(ops - prev_ops));
    r.slice_secs.push_back(std::chrono::duration<double>(now - prev_t).count());
    r.slice_cpu.push_back(cpu - prev_cpu);
    const double steal = host_steal_s();
    r.slice_steal.push_back(steal - prev_steal);
    prev_ops = ops;
    prev_cpu = cpu;
    prev_steal = steal;
    prev_t = now;
  }
  ctl.request_stop();
  std::uint64_t helper_open = 0;
  if (!ctl.wait_done(kStopDeadline)) {
    r.stalled = true;
    r.problems.push_back("stalled: " + std::to_string(ctl.live()) +
                         " loop(s) made no progress within 30 s of the stop");
    std::fprintf(stderr, "%s", dump_flight_recorders(tx, insts).c_str());
  } else if (!w.drain(tx, kDrainWait)) {
    r.stalled = true;
    r.problems.push_back("stalled: the instances did not quiesce within 30 s");
    std::fprintf(stderr, "%s", dump_flight_recorders(tx, insts).c_str());
    // The loops are done, so what is still open belongs to the helpers.
    tx.wait_until(
        [&] {
          helper_open = 0;
          for (Instance* i : insts) helper_open += i->open_ops();
          return true;
        },
        kDrainWait);
  }
  if (!r.stalled) {
    r.seconds = static_cast<double>(ctl.end_ns() - t0) * 1e-9;
    r.cpu_s = ctl.end_cpu() - cpu0;
  }
  // Loop stats are strand-owned: read them exclusive with every strand.
  tx.wait_until(
      [&] {
        for (const LoopStats* s : loops) {
          r.attempted += s->attempted;
          r.completed += s->completed.load();
          r.failed += s->failed;
          r.latency.merge(s->latency);
          for (std::size_t k = 0; k < s->by_slice.size(); ++k) {
            r.slice_latency[k].merge(s->by_slice[k]);
          }
          r.call.merge(s->call);
          r.post_lag.merge(s->post_lag);
        }
        return true;
      },
      kDrainWait);
  if (r.stalled) {
    // Ops still in flight never completed: each counts as failed.
    r.failed = r.attempted - r.completed + helper_open;
    return r;
  }
  r.after = read_counters(tx, insts);
  if (loop != nullptr) {
    r.sched_after = read_sched(*loop);
    r.net_after = loop->stats();
  }
  r.failed += w.check(tx, r.problems) + w.helper_failures();
  return r;
}

transport::LoopbackOptions loopback_options(std::uint64_t seed) {
  transport::LoopbackOptions o;
  o.workers = kWorkers;
  o.seed = derive(seed, 1);
  return o;
}

// ---- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    char v[64];
    std::snprintf(v, sizeof v, "%.17g", m.value);
    json += (first ? "" : ", ") + std::string("\"") + m.name + "\": {\"value\": " + v +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// "p99.99 = 41.2 us": the highest of p99, p99.9, ... that still has at
/// least ten samples beyond it.
std::string tail_note(const LatencyHistogram& h) {
  std::string best;
  double q = 0.99;
  for (int nines = 2; nines <= 7; ++nines) {
    if (static_cast<double>(h.count()) * (1.0 - q) < 10.0) break;
    char buf[96];
    std::snprintf(buf, sizeof buf, "p%.*f = %.2f us", nines - 2, 100.0 * q, h.quantile_us(q));
    best = buf;
    q = 1.0 - (1.0 - q) / 10.0;
  }
  return best;
}

void report_problems(const std::vector<std::string>& problems) {
  for (const auto& p : problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());
}

// ---- --trace 0 ----------------------------------------------------------------

int run_end_to_end(const Args& a) {
  std::vector<double> setups;
  Slices slices;
  LatencyHistogram latency;
  std::uint64_t attempted = 0, completed = 0, failed = 0, probes = 0;
  double secs = 0, cpu = 0;
  bool stalled = false;
  std::unique_ptr<transport::LoopbackTransport> loop;
  std::unique_ptr<Workload> w;
  const int rounds = std::max(1, static_cast<int>(std::lround(a.seconds / kRoundSeconds)));
  for (int k = 0; k < rounds && !stalled; ++k) {
    // The previous round has quiesced; its teardown is not timed.
    w.reset();
    loop.reset();
    const std::uint64_t seed = derive(a.seed, 100 + static_cast<std::uint64_t>(k));
    const std::uint64_t t0 = now_ns();
    loop = std::make_unique<transport::LoopbackTransport>(loopback_options(seed));
    w = make_workload(a.workload, seed);
    w->setup(*loop, false);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (!w->settle(*loop, kDrainWait)) {
      std::fprintf(stderr, "check failed: set-up did not quiesce within 30 s\n");
      stalled = true;
      break;
    }
    const Window r = run_window(*loop, loop.get(), *w, a.seconds / rounds, false);
    report_problems(r.problems);
    stalled = r.stalled || !r.problems.empty();
    slices.add(r);
    latency.merge(r.latency);
    attempted += r.attempted;
    completed += r.completed;
    failed += r.failed;
    secs += r.seconds;
    cpu += r.cpu_s;
    probes += r.after.probes - r.before.probes;
  }
  const std::vector<Slices::Row> calm = slices.calm();
  std::uint64_t samples = 0;
  for (const Slices::Row& x : calm) samples += x.samples;
  const std::string over = "(median of " + std::to_string(calm.size()) + " calm of " +
                           std::to_string(slices.rows.size()) + " slices over " +
                           std::to_string(setups.size()) + " rounds)";
  const std::string n = "(n=" + std::to_string(samples) + ") ";
  std::printf("workload %s, seed %" PRIu64 ", %zu rounds of %.3f s, %u loopback workers\n",
              a.workload.c_str(), a.seed, setups.size(), a.seconds / rounds, kWorkers);
  std::printf("all rounds pooled: %.6g ops/s, %.6g us CPU/op, latency over n = %" PRIu64
              " ops: p50 = %.2f us, p99 = %.2f us, %s\n",
              ratio(static_cast<double>(completed), secs),
              ratio(cpu * 1e6, static_cast<double>(completed)), latency.count(),
              latency.quantile_us(0.5), latency.quantile_us(0.99), tail_note(latency).c_str());
  std::printf("failed_share = %.6g (%" PRIu64 " failed of %" PRIu64 " attempted)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)), failed,
              attempted);
  // Caches are warm before every window. A blocking op still probes once
  // after contacting every cached peer; a non-blocking op that probes has
  // missed everywhere and waits out the 25 ms probe window.
  std::printf("discovery probes inside the windows: %" PRIu64 " (%.4g per op)\n", probes,
              ratio(static_cast<double>(probes), static_cast<double>(completed)));
  const std::vector<Metric> metrics{
      {"ops_per_s", Slices::median_of(calm, &Slices::Row::ops_per_s), "ops/s", over},
      {"latency_p50_us", Slices::median_of(calm, &Slices::Row::p50_us), "us", n + over},
      {"latency_p99_us", Slices::median_of(calm, &Slices::Row::p99_us), "us", n + over},
      {"cpu_us_per_op", Slices::median_of(calm, &Slices::Row::cpu_us_per_op), "us", over},
      {"ok_share", ratio(static_cast<double>(completed), static_cast<double>(attempted)),
       "ratio", "(completed / attempted; failed_share = 1 - ok_share)"},
      {"setup_s", median(setups), "s", "(median of " + std::to_string(setups.size()) + ")"},
      {"peak_rss_mb", peak_rss_mib(), "MiB", ""},
  };
  print_result(!stalled && failed == 0, attempted, failed, metrics);
  w.reset();
  loop.reset();
  return 0;
}

// ---- --trace 1 ----------------------------------------------------------------

/// Keeps the first `cap` events drained from the tracers' thread rings.
/// Only the main thread drains, so no locking.
class CappedSink final : public tiamat::obs::TraceSink {
 public:
  explicit CappedSink(std::size_t cap) : cap_(cap) { events_.reserve(cap); }
  void on_event(const tiamat::obs::TraceEvent& e) override {
    if (events_.size() < cap_) events_.push_back(e);
  }
  const std::vector<tiamat::obs::TraceEvent>& events() const { return events_; }

 private:
  std::size_t cap_;
  std::vector<tiamat::obs::TraceEvent> events_;
};

/// The same workload and seed on SimTransport with a fixed op budget: every
/// count it yields is exact, and a second pass must repeat it.
struct SimPass {
  bool ok = false;
  std::uint64_t attempted = 0, failed = 0, ops = 0;
  double cpu_s = 0;
  std::uint64_t msgs = 0, candidates = 0, timer_cancels = 0, probes = 0;
  std::vector<std::string> problems;

  bool same_counts(const SimPass& o) const {
    return ops == o.ops && msgs == o.msgs && candidates == o.candidates &&
           timer_cancels == o.timer_cancels && probes == o.probes;
  }
};

std::uint64_t sim_budget(const std::string& workload) {
  if (workload == "local_keyed") return 20000;  // per chain
  return 1500;                                  // per worker / client
}

SimPass run_sim(const Args& a) {
  tiamat::sim::EventQueue queue;
  tiamat::sim::Rng rng(derive(a.seed, 2));
  tiamat::sim::LinkModel model;
  model.base_latency = 100;  // µs, about a loopback hop under load
  model.per_kilobyte = 10;
  model.jitter = 20;
  tiamat::sim::Network net(queue, rng, model);
  transport::SimTransport sim(net);
  TapTransport tap(sim, /*count_timers=*/true, 0);
  auto w = make_workload(a.workload, a.seed);
  w->setup(tap, false);

  SimPass p;
  const auto insts = w->instances();
  const Counters before = read_counters(tap, insts);
  const auto net_before = net.stats();
  const std::uint64_t cancels_before = tap.timers_cancelled();
  RunControl ctl(sim_budget(a.workload));
  const RunEnv env{Stepper{&tap, true}, &ctl, false};
  const double cpu0 = process_cpu_s();
  w->start(env);
  const bool done = tap.wait_until([&] { return ctl.live() == 0; }, transport::seconds(3600));
  p.cpu_s = process_cpu_s() - cpu0;
  const bool drained = done && w->drain(tap, transport::seconds(600));
  for (const LoopStats* s : w->loops()) {
    p.attempted += s->attempted;
    p.ops += s->completed;
    p.failed += s->failed;
  }
  if (!drained) {
    p.problems.push_back("sim pass did not finish");
    p.failed += p.attempted - p.ops - p.failed;
    return p;
  }
  const Counters after = read_counters(tap, insts);
  const auto& net_after = net.stats();
  p.msgs = (net_after.unicasts_sent + net_after.multicasts_sent) -
           (net_before.unicasts_sent + net_before.multicasts_sent);
  p.candidates = after.candidates - before.candidates;
  p.timer_cancels = tap.timers_cancelled() - cancels_before;
  p.probes = after.probes - before.probes;
  p.failed += w->check(tap, p.problems) + w->helper_failures();
  p.ok = p.failed == 0 && p.problems.empty();
  return p;
}

struct StageMedians {
  double lease = 0, queue = 0, match = 0, network = 0;
  double contacts_per_remote_op = 0, first_contact_hit_share = 0;
  std::size_t accepted = 0;
};

StageMedians analyse(const std::vector<tiamat::obs::TraceEvent>& events) {
  tiamat::obs::TraceAnalysis an;
  an.add_all(events);
  std::vector<double> lease, queue, match, network;
  double fanout = 0;
  std::size_t remote = 0, remote_accepted = 0, first_hits = 0;
  StageMedians m;
  for (const auto& t : an.timelines()) {
    if (t.outcome != tiamat::obs::OpOutcome::kAccepted) continue;
    ++m.accepted;
    lease.push_back(static_cast<double>(t.stages.lease_us));
    queue.push_back(static_cast<double>(t.stages.queue_us));
    match.push_back(static_cast<double>(t.stages.match_us));
    network.push_back(static_cast<double>(t.stages.network_us));
    if (t.fanout == 0) continue;
    ++remote;
    fanout += static_cast<double>(t.fanout);
    if (t.accept_source == t.key.origin) continue;
    ++remote_accepted;
    for (const auto& e : t.events) {
      if (e.kind == tiamat::obs::EventKind::kPeerRequest && e.node == t.key.origin) {
        if (e.peer == t.accept_source) ++first_hits;
        break;
      }
    }
  }
  m.lease = median(lease);
  m.queue = median(queue);
  m.match = median(match);
  m.network = median(network);
  m.contacts_per_remote_op = ratio(fanout, static_cast<double>(remote));
  m.first_contact_hit_share =
      ratio(static_cast<double>(first_hits), static_cast<double>(remote_accepted));
  return m;
}

double median_cpu_us_per_op(const Window& r) {
  Slices s;
  s.add(r);
  return Slices::median_of(s.calm(), &Slices::Row::cpu_us_per_op);
}

int run_traced(const Args& a) {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  auto account = [&](const Window& r) {
    report_problems(r.problems);
    attempted += r.attempted;
    failed += r.failed;
    if (r.stalled || r.failed != 0 || !r.problems.empty()) correct = false;
  };

  // 1. Untraced and traced rounds, alternating, so the tracing overhead is
  // a difference of medians taken under the same conditions. The last
  // traced round also gives the ledger: benchmark spans, the op tracer,
  // payload samples and the counters the layers expose.
  std::vector<double> untraced_cpu, traced_cpu;
  Window r;
  StageMedians stages;
  ReplayShape shape;
  std::vector<transport::Payload> samples;
  double active_per_instance = 0;
  std::size_t instance_count = 0;
  // Half of --seconds goes to the pairs; replays and sim passes follow.
  const int pairs = std::max(1, static_cast<int>(std::lround(a.seconds / (4 * kRoundSeconds))));
  for (int k = 0; k < pairs; ++k) {
    const std::uint64_t seed = derive(a.seed, 200 + static_cast<std::uint64_t>(k));
    {
      transport::LoopbackTransport loop(loopback_options(seed));
      auto w = make_workload(a.workload, seed);
      w->setup(loop, false);
      w->settle(loop, kDrainWait);
      const Window u = run_window(loop, &loop, *w, kRoundSeconds, false);
      account(u);
      untraced_cpu.push_back(median_cpu_us_per_op(u));
    }
    transport::LoopbackTransport loop(loopback_options(seed));
    TapTransport tap(loop, /*count_timers=*/false, kPayloadSamples);
    auto w = make_workload(a.workload, seed);
    w->setup(tap, true);
    w->settle(tap, kDrainWait);
    const auto insts = w->instances();
    auto sink = std::make_shared<CappedSink>(kTraceEvents);
    tap.wait_until(
        [&] {
          for (Instance* i : insts) {
            i->tracer().set_sink(sink);
            i->tracer().set_thread_rings(true);
          }
          return true;
        },
        kDrainWait);
    tap.arm_sampling();
    auto drain_tracers = [&] {
      for (Instance* i : insts) i->tracer().drain();
    };
    Window t = run_window(tap, &loop, *w, kRoundSeconds, true, drain_tracers);
    drain_tracers();
    account(t);
    traced_cpu.push_back(median_cpu_us_per_op(t));
    if (k + 1 == pairs) {
      stages = analyse(sink->events());
      shape = w->replay_shape(derive(seed, 3));
      samples = tap.samples();
      instance_count = insts.size();
      active_per_instance = ratio(static_cast<double>(t.after.leases_active),
                                  static_cast<double>(instance_count));
      r = std::move(t);
    }
  }
  const double untraced = median(untraced_cpu);
  const double overhead = ratio(median(traced_cpu) - untraced, untraced);

  // 3. Single-layer replays of the run's inputs.
  const double lease_ns = replay_lease_ns(static_cast<std::size_t>(active_per_instance));
  const SpaceReplay space = replay_space(shape);
  const IndexReplay index = replay_index(shape);
  const CodecReplay codec = replay_codec(samples);

  // 4. Sim passes: exact counts, twice.
  const SimPass s1 = run_sim(a);
  const SimPass s2 = run_sim(a);
  for (const SimPass* s : {&s1, &s2}) {
    report_problems(s->problems);
    attempted += s->attempted;
    failed += s->failed;
    if (!s->ok) correct = false;
  }
  if (!s1.same_counts(s2)) {
    std::fprintf(stderr, "check failed: sim counts differ between two passes of one seed\n");
    correct = false;
  }

  const double ops = static_cast<double>(r.completed);
  const auto& b = r.before;
  const auto& e = r.after;
  const double window_us = r.seconds * 1e6;
  const std::uint64_t tasks = r.sched_after.tasks - r.sched_before.tasks;
  const double sim_ops = static_cast<double>(s1.ops);
  const std::uint64_t granted = e.leases_granted - b.leases_granted;
  const std::uint64_t refused = e.leases_refused - b.leases_refused;
  std::printf("workload %s, seed %" PRIu64 ", traced window %.3f s, %zu accepted ops traced, "
              "%zu payloads sampled, sim pass %" PRIu64 " ops\n",
              a.workload.c_str(), a.seed, r.seconds, stages.accepted, codec.messages, s1.ops);
  const std::vector<Metric> metrics{
      {"core.call_us", r.call.quantile_us(0.5), "us", ""},
      {"stage.lease_us", stages.lease, "us", ""},
      {"stage.queue_us", stages.queue, "us", ""},
      {"stage.match_us", stages.match, "us", ""},
      {"stage.network_us", stages.network, "us", ""},
      {"core.probes_per_kop", 1000.0 * r.per_op(b.probes, e.probes), "1/kop", ""},
      {"core.cancels_per_op", r.per_op(b.cancels, e.cancels), "1/op", ""},
      {"core.reinserts_per_op", r.per_op(b.reinserted, e.reinserted), "1/op", ""},
      {"lease.negotiate_ns", lease_ns, "ns", ""},
      {"lease.refused_share",
       ratio(static_cast<double>(refused), static_cast<double>(granted + refused)), "ratio", ""},
      {"lease.active_leases", active_per_instance, "count", "(per instance, end of window)"},
      {"space.inp_ns", space.inp_ns, "ns", ""},
      {"space.rdp_ns", space.rdp_ns, "ns", ""},
      {"space.out_ns", space.out_ns, "ns", ""},
      {"space.candidates_per_op", r.per_op(b.candidates, e.candidates), "1/op", ""},
      {"space.waiter_candidates_per_out",
       ratio(static_cast<double>(e.waiter_candidates - b.waiter_candidates),
             static_cast<double>(e.outs - b.outs)),
       "1/out", ""},
      {"space.waiters_parked_per_op",
       ratio(static_cast<double>((e.lookups - b.lookups) - (e.hits - b.hits)), ops), "1/op",
       "(lookups that missed; every op that can miss here is blocking)"},
      {"space.bytes_per_tuple",
       ratio(static_cast<double>(e.space_bytes), static_cast<double>(e.tuples)), "B", ""},
      {"tuple.find_matches_ns", index.find_matches_ns, "ns", ""},
      {"tuple.find_first_ns", index.find_first_ns, "ns", ""},
      {"net.encode_ns", codec.encode_ns, "ns", ""},
      {"net.decode_ns", codec.decode_ns, "ns", ""},
      {"net.msgs_per_op",
       ratio(static_cast<double>((r.net_after.unicasts_sent + r.net_after.multicasts_sent) -
                                 (r.net_before.unicasts_sent + r.net_before.multicasts_sent)),
             ops),
       "1/op", ""},
      {"net.bytes_per_op", r.per_op(r.net_before.bytes_sent, r.net_after.bytes_sent), "B/op",
       ""},
      {"net.contacts_per_remote_op", stages.contacts_per_remote_op, "1/op", ""},
      {"net.first_contact_hit_share", stages.first_contact_hit_share, "ratio", ""},
      {"net.peer_timeouts", static_cast<double>(e.rpc_timeouts - b.rpc_timeouts), "count", ""},
      {"transport.tasks_per_op", ratio(static_cast<double>(tasks), ops), "1/op", ""},
      {"transport.busy_us_per_op", r.per_op(r.sched_before.busy, r.sched_after.busy), "us/op",
       ""},
      {"transport.timer_cancels_per_op", r.per_op(r.sched_before.cancels, r.sched_after.cancels),
       "1/op", ""},
      {"transport.tombstones_per_op",
       r.per_op(r.sched_before.tombstones, r.sched_after.tombstones), "1/op", ""},
      {"transport.lag_us_mean",
       ratio(static_cast<double>(r.sched_after.lag_sum - r.sched_before.lag_sum),
             static_cast<double>(tasks)),
       "us", ""},
      {"transport.lag_us_max", static_cast<double>(r.sched_after.lag_max), "us",
       "(since the transport started)"},
      {"transport.lock_wait_us_per_op",
       r.per_op(r.sched_before.lock_wait, r.sched_after.lock_wait), "us/op", ""},
      {"transport.utilization",
       ratio(static_cast<double>(r.sched_after.busy - r.sched_before.busy), window_us * kWorkers),
       "ratio", ""},
      {"transport.post_lag_us", r.post_lag.quantile_us(0.5), "us",
       "(n=" + std::to_string(r.post_lag.count()) + ")"},
      {"sim.cpu_us_per_op", ratio(s1.cpu_s * 1e6, sim_ops), "us/op", ""},
      {"sim.net_msgs_per_op", ratio(static_cast<double>(s1.msgs), sim_ops), "1/op", ""},
      {"sim.space_candidates_per_op", ratio(static_cast<double>(s1.candidates), sim_ops), "1/op",
       ""},
      {"sim.timer_cancels_per_op", ratio(static_cast<double>(s1.timer_cancels), sim_ops), "1/op",
       ""},
      {"sim.probes_per_kop", 1000.0 * ratio(static_cast<double>(s1.probes), sim_ops), "1/kop",
       ""},
      {"obs.trace_overhead_share", overhead, "ratio",
       "(median CPU/op over " + std::to_string(pairs) + " traced vs untraced rounds)"},
  };
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse(argc, argv, a) || !perfbench::make_workload(a.workload, 0)) {
    std::fprintf(stderr,
                 "usage: tiamat_perfbench --workload <local_keyed|task_bag|request_reply> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  return a.trace == 1 ? perfbench::run_traced(a) : perfbench::run_end_to_end(a);
}
