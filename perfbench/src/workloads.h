// The three closed-loop workloads. Each owns its instances on one
// transport, drives them from closed loops posted onto their strands, and
// checks its own outputs when the run is over. "Op" differs per workload:
//
//   local_keyed    one out, inp or rdp on an instance's own space
//   task_bag       one task taken (remotely, from the master) by a worker
//   request_reply  one client request/response exchange through a proxy

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/instance.h"
#include "harness.h"

namespace perfbench {

/// Per-loop accounting. Written only on the loop's strand; the main thread reads
/// `completed` at slice boundaries while the loop runs, everything else
/// after the loop has signalled RunControl::loop_done.
struct LoopStats {
  /// A window of nominal length is cut into this many equal slices; the
  /// last entry of by_slice collects ops that complete after a stop.
  static constexpr int kSlices = 4;
  /// A window may run to three times its nominal length.
  static constexpr int kMaxSlices = 3 * kSlices;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::atomic<std::uint64_t> completed{0};
  LatencyHistogram latency;   ///< op start -> completion (end-to-end)
  std::vector<LatencyHistogram> by_slice =
      std::vector<LatencyHistogram>(kMaxSlices + 1);  ///< the same, per slice
  LatencyHistogram call;      ///< traced: Instance call -> return
  LatencyHistogram post_lag;  ///< traced: Transport::post -> closure start

  void record(std::uint64_t ns, int slice) {
    latency.record(ns);
    by_slice[static_cast<std::size_t>(slice)].record(ns);
  }
  /// Single writer, so a plain load + store (no locked RMW) is enough.
  void complete() {
    completed.store(completed.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  }
};

/// What the traced run replays through the single-layer APIs: the tuples
/// one instance holds at steady state, plus (out tuple, pattern matching
/// it) pairs shaped like the workload's ops.
struct ReplayShape {
  std::vector<tiamat::tuples::Tuple> stock;
  std::vector<tiamat::tuples::Tuple> outs;
  std::vector<tiamat::tuples::Pattern> patterns;  ///< patterns[i] matches outs[i]
};

struct RunEnv {
  Stepper step;
  RunControl* ctl = nullptr;
  bool traced = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the instances on `tx`, pre-stocks them and warms every
  /// responder cache. Timed as setup_s.
  virtual void setup(Transport& tx, bool traced) = 0;

  /// Posts the closed loops; each calls env.ctl->loop_done() when it stops.
  virtual void start(const RunEnv& env) = 0;

  /// After every measured loop has stopped: releases helper loops still
  /// blocked (the master, the proxies) and waits until no op, served
  /// request, waiter, tentative tuple or unacknowledged confirm is left.
  /// False when that does not happen within `max_wait` µs.
  virtual bool drain(Transport& tx, tiamat::transport::Duration max_wait) = 0;

  /// Waits until no instance holds an open op, served request, waiter,
  /// tentative tuple, unacknowledged confirm or open probe.
  bool settle(Transport& tx, tiamat::transport::Duration max_wait);

  /// Checks the outputs against the workload's own ledgers; returns the
  /// number of violations, each described in `problems`.
  virtual std::uint64_t check(Transport& tx, std::vector<std::string>& problems) = 0;

  /// Helper-loop accounting not in loops() (violations seen by the master
  /// or the proxies while the run went on).
  virtual std::uint64_t helper_failures() const { return 0; }

  /// Ops per second this workload ran at on the reference machine (4-core
  /// VM, Release build). It only sizes the fixed work of a window so the
  /// window lasts about as long as asked.
  virtual double nominal_ops_per_s() const = 0;

  virtual std::vector<tiamat::core::Instance*> instances() = 0;
  virtual std::vector<const LoopStats*> loops() const = 0;
  virtual ReplayShape replay_shape(std::uint64_t seed) const = 0;
};

/// Known names: local_keyed, task_bag, request_reply. Null for others.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Instance configuration shared by every workload: lease caps sized so
/// that no lease is refused (every stored tuple keeps its storage lease
/// until the TTL, so the active-lease count grows with every out), and a
/// TTL that outlives set-up plus the longest window.
tiamat::core::Config bench_config(const std::string& name, bool traced);

}  // namespace perfbench
