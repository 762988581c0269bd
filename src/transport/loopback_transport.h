// In-process multi-threaded Transport backend.
//
// The second backend of ROADMAP item 1: the same protocol stack that runs
// on the deterministic simulator serves real concurrent traffic here. Nodes
// are multiplexed onto a small pool of worker threads; each node's inbox
// (deliveries, timers, posted closures) is a time-ordered inbox drained by
// exactly one worker, which is what implements the strand contract from
// transport/transport.h — per-node callbacks are serialized without any
// locking inside protocol code, while distinct nodes run genuinely in
// parallel. Time is the machine's monotonic clock (microseconds since
// transport construction) behind the transport::Clock abstraction, so
// protocol code stays wall-clock-free by construction; delivery delay,
// jitter and loss are configurable to keep the sim's failure modes
// exercisable under real threads.
//
// This file (and the rest of src/transport/) is the only place in the tree
// where <thread>/<mutex>/<atomic>/steady_clock are permitted — the linter's
// concurrency rule keeps the simulator and the protocol layers
// deterministic by construction. The locking discipline itself is proven at
// compile time: every mutex here is a transport::Mutex carrying clang
// Thread Safety Analysis attributes (transport/thread_annotations.h), and
// the `tsa` preset builds with -Werror=thread-safety.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "transport/thread_annotations.h"
#include "transport/transport.h"

namespace tiamat::transport {

struct LoopbackOptions {
  /// Worker threads the node strands are multiplexed onto (clamped to >=1).
  unsigned workers = 4;
  /// Fixed latency added to every delivery.
  Duration delivery_delay = 0;
  /// Uniform extra delivery latency in [0, jitter]. Non-zero jitter may
  /// reorder same-sender deliveries (per-sender FIFO holds at jitter 0).
  Duration delivery_jitter = 0;
  /// Independent per-delivery drop probability.
  double loss = 0.0;
  /// Seeds fork_rng() and the loss/jitter draws.
  std::uint64_t seed = 0x7113a7u;
};

class LoopbackTransport final : public Transport {
 public:
  /// Aggregate traffic counters (snapshot). Send-side counts are kept under
  /// the registry lock, so concurrent senders never lose updates; the
  /// deliveries and dead drops decided on a strand are per-worker relaxed
  /// atomics that stats() sums in.
  struct Stats {
    std::uint64_t unicasts_sent = 0;
    std::uint64_t multicasts_sent = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t drops_loss = 0;
    std::uint64_t drops_dead = 0;    ///< destination removed/offline
    std::uint64_t bytes_sent = 0;
  };

  explicit LoopbackTransport(LoopbackOptions opts = {});
  ~LoopbackTransport() override;

  LoopbackTransport(const LoopbackTransport&) = delete;
  LoopbackTransport& operator=(const LoopbackTransport&) = delete;

  // ---- Transport -----------------------------------------------------------
  NodeId add_node(NodeOptions opts = {}) override;
  void remove_node(NodeId id) override;
  bool node_exists(NodeId id) const override;
  void set_online(NodeId id, bool online) override;
  bool online(NodeId id) const override;
  bool visible(NodeId a, NodeId b) const override;
  std::vector<NodeId> visible_from(NodeId id) const override;
  void bind(NodeId id, DeliveryHandler handler) override;
  void join_group(NodeId id, GroupId group) override;
  void leave_group(NodeId id, GroupId group) override;
  void send(NodeId from, NodeId to, Payload payload) override;
  void multicast(NodeId from, GroupId group, Payload payload) override;
  Time now() const override;
  Time now_coarse() const override;
  TimerService& timers(NodeId id) override;
  void post(NodeId id, std::function<void()> fn) override;
  bool wait_until(const std::function<bool()>& pred,
                  Duration max_wait = 30 * kSecond) override;
  Rng fork_rng() override;

  Stats stats() const;
  unsigned worker_count() const { return static_cast<unsigned>(workers_.size()); }

  /// Scheduler health of one worker (snapshot; cumulative since start).
  /// Strand lag is run-start minus due time — how long ready work sat in
  /// the inbox behind other strands' callbacks.
  struct WorkerSched {
    std::uint64_t tasks = 0;            ///< callbacks run to completion
    std::uint64_t lag_us_sum = 0;       ///< total strand lag
    std::uint64_t lag_us_max = 0;       ///< worst single strand lag
    std::uint64_t busy_us = 0;          ///< time spent inside callbacks
    std::uint64_t tombstones = 0;       ///< cancelled timer entries discarded
    std::uint64_t cancels = 0;          ///< cancel_timer hits
    std::uint64_t inbox_wait_us = 0;    ///< enqueuers blocked on the inbox lock
    std::uint64_t queue_depth = 0;      ///< inbox size right now
    std::uint64_t queue_depth_max = 0;  ///< high-water inbox size
  };
  struct SchedStats {
    std::vector<WorkerSched> workers;
    std::uint64_t lock_wait_us = 0;  ///< sender time blocked on mu_
    Time uptime_us = 0;              ///< wall time since construction
  };
  /// Snapshot of the scheduler telemetry (exported as the transport.sched.*
  /// metric families by obs::SchedExporter; see DESIGN.md §13).
  SchedStats sched_stats() const;

 private:
  enum class TaskKind : std::uint8_t { kDeliver, kTimer, kPost };

  class NodeTimers;

  struct Node {
    std::size_t worker = 0;
    /// Written under mu_, read lock-free by run_task on the strand.
    std::atomic<bool> online{true};
    std::atomic<bool> closed{false};
    bool is_closed() const { return closed.load(std::memory_order_relaxed); }
    bool reachable() const {
      return !is_closed() && online.load(std::memory_order_relaxed);
    }
    /// Read only by run_task (on the strand, under the worker's exec_mu);
    /// written only through set_handler, which holds that exec_mu or runs
    /// on the strand's own worker thread. TSA cannot name "the exec_mu of
    /// workers_[worker]", so this rule is documented rather than annotated.
    DeliveryHandler handler;
    std::set<GroupId> groups;  ///< under mu_ (via nodes_)
    std::unique_ptr<NodeTimers> timers;
  };

  /// One unit of strand work: a delivery, a due timer, or a posted closure.
  /// `node` points into nodes_, whose entries are never erased.
  struct Task {
    Time due = 0;            ///< transport-time deadline
    std::uint64_t seq = 0;   ///< global enqueue order; FIFO tie-break
    TaskKind kind = TaskKind::kPost;
    Node* node = nullptr;    ///< strand owner (the destination)
    NodeId from = kNoNode;   ///< sender, for deliveries
    Payload payload;
    std::function<void()> fn;
  };
  /// A heap entry for work that is not due yet: the task itself waits in
  /// Worker::pending under `key` (a timer id, or a fresh id for a delayed
  /// delivery), so the heap sifts 24 bytes and cancel frees the closure at
  /// once. A slot whose key is no longer pending is a tombstone.
  struct Slot {
    Time due = 0;
    std::uint64_t seq = 0;
    std::uint64_t key = 0;
  };
  struct SlotLater {
    bool operator()(const Slot& a, const Slot& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  /// One worker thread: the inbox of every node strand assigned to it, plus
  /// the execution lock that serializes its callbacks against handler
  /// writes (bind/remove_node) and wait_until. The inbox is a FIFO of work
  /// due now beside a timer heap; the worker runs whichever head is first
  /// by (due, seq), which is the order one merged heap would give.
  struct Worker {
    Mutex mu;
    CondVar cv;  ///< signaled on enqueue and stop; waits under mu
    std::deque<Task> ready TIAMAT_GUARDED_BY(mu);  ///< due now, FIFO
    std::vector<Slot> timers TIAMAT_GUARDED_BY(mu);  ///< min-heap by (due, seq)
    std::unordered_map<std::uint64_t, Task> pending TIAMAT_GUARDED_BY(mu);
    bool stop TIAMAT_GUARDED_BY(mu) = false;
    std::uint64_t depth_max TIAMAT_GUARDED_BY(mu) = 0;  ///< inbox high water
    /// Scheduler telemetry cells: written by the one worker thread (and by
    /// enqueuers for cancels and inbox_wait), read by sched_stats() and
    /// stats() from anywhere — relaxed atomics, monotone, never torn. Cache-
    /// line aligned so the per-task bumps never invalidate the line senders
    /// hit through `mu`, and single-writer cells use load+store (no RMW)
    /// via `bump()`.
    struct alignas(64) SchedCells {
      std::atomic<std::uint64_t> tasks{0};
      std::atomic<std::uint64_t> lag_sum{0};
      std::atomic<std::uint64_t> lag_max{0};
      std::atomic<std::uint64_t> busy{0};
      std::atomic<std::uint64_t> tombstones{0};
      std::atomic<std::uint64_t> deliveries{0};  ///< Stats::deliveries share
      std::atomic<std::uint64_t> drops_dead{0};  ///< dropped on the strand
      std::atomic<std::uint64_t> cancels{0};     ///< multi-writer: RMW
      std::atomic<std::uint64_t> inbox_wait{0};  ///< multi-writer: RMW

      /// Single-writer increment: plain load+store beats `lock xadd` on the
      /// hot path, and relaxed ordering is all a monotone gauge needs.
      static void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
        c.store(c.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
      }
    };
    SchedCells sched;
    /// Held for the duration of every callback. It guards each node's
    /// handler (see Node) and lets wait_until() exclude itself from the
    /// strand. Taken before mu_ or mu (a callback may send or enqueue),
    /// never after them.
    Mutex exec_mu;
    std::thread thread;
  };

  /// Per-node TimerService facade; lives until the transport dies (remove_
  /// node only quiesces it), so teardown-order cancels stay safe.
  class NodeTimers final : public TimerService {
   public:
    NodeTimers(LoopbackTransport* t, Node* node) : t_(t), node_(node) {}
    Time now() const override { return t_->now(); }
    TimerId schedule_at(Time when, std::function<void()> fn) override {
      return t_->schedule_timer(node_, when, std::move(fn));
    }
    bool cancel(TimerId id) override { return t_->cancel_timer(*node_, id); }

   private:
    LoopbackTransport* t_;
    Node* node_;
  };

  /// Where one accepted send goes: decided under mu_, enqueued after it.
  struct Route {
    Node* node = nullptr;
    Duration delay = 0;
  };

  TimerId schedule_timer(Node* node, Time when, std::function<void()> fn);
  bool cancel_timer(const Node& node, TimerId id);
  /// Counts one send to a live destination and draws its loss and jitter;
  /// false when the draw drops it.
  bool admit(Node& dest, std::size_t bytes, Route& out) TIAMAT_REQUIRES(mu_);
  void deliver(NodeId from, const Route& route, Time sent, Payload payload)
      TIAMAT_EXCLUDES(mu_);
  /// Pushes `task` into its worker's inbox: the FIFO when `key` is
  /// kInvalidTimer (due now), else the heap, with the task pending under
  /// `key`.
  void enqueue(Task task, std::uint64_t key = kInvalidTimer)
      TIAMAT_EXCLUDES(mu_);
  /// Writes a node's handler with its strand excluded. Called from one of
  /// that worker's callbacks, exec_mu is already ours; from anywhere else
  /// this blocks until no callback of the worker is in flight.
  void set_handler(Node& node, DeliveryHandler handler) TIAMAT_EXCLUDES(mu_);
  /// Lifts the next runnable task into `out`, sleeping until one is due;
  /// `t` is the clock read that found it due. False once the worker stops.
  bool next_task(Worker& w, Task& out, Time& t) TIAMAT_REQUIRES(w.mu);
  void worker_loop(std::size_t index);
  /// Runs one task on its strand with exec_mu held across the callback; the
  /// registry lock is never taken.
  void run_task(Worker& w, Task& task) TIAMAT_EXCLUDES(w.mu, w.exec_mu, mu_);

  const LoopbackOptions opts_;
  const std::chrono::steady_clock::time_point start_;

  /// Registry lock: node table + groups + send-side stats ledger + rng.
  /// Lock order is exec_mu -> mu_ and exec_mu -> Worker::mu (a callback
  /// runs under its worker's exec_mu and may send, post or schedule). mu_
  /// and Worker::mu are never held together: senders resolve under mu_ and
  /// push into the inbox after releasing it, and run_task never takes mu_.
  mutable Mutex mu_;
  std::map<NodeId, Node> nodes_ TIAMAT_GUARDED_BY(mu_);
  NodeId next_node_ TIAMAT_GUARDED_BY(mu_) = 1;
  Rng rng_ TIAMAT_GUARDED_BY(mu_);
  Stats stats_ TIAMAT_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> next_seq_{1};
  /// Keys heap slots: timer ids and delayed-delivery ids share one space,
  /// so a key is unique within every worker.
  std::atomic<std::uint64_t> next_key_{1};
  /// Sender time spent blocked acquiring mu_ (send/multicast contention;
  /// uncontended acquisitions cost no clock read).
  std::atomic<std::uint64_t> lock_wait_us_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace tiamat::transport
