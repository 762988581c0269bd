#include "transport/loopback_transport.h"

#include <algorithm>
#include <utility>

namespace tiamat::transport {

namespace {
constexpr Duration kMaxSleepSlice = kSecond;  // bound cv waits (kNever timers)
constexpr Duration kPollInterval = 200;       // wait_until poll cadence (us)

/// MutexLock that attributes contention: the fast path is a plain try_lock
/// (no clock read); only a sender that actually blocks pays two steady_clock
/// reads, and the time it sat out lands in `waited_us`. The overhead-gate
/// baseline (TIAMAT_OBS_OFF) compiles the accounting away entirely.
class TIAMAT_SCOPED_CAPABILITY TimedMutexLock {
 public:
  TimedMutexLock(Mutex& mu, std::atomic<std::uint64_t>& waited_us)
      TIAMAT_ACQUIRE(mu)
      : mu_(mu) {
#if defined(TIAMAT_OBS_OFF)
    (void)waited_us;
    mu_.lock();
#else
    if (mu_.try_lock()) return;
    const auto t0 = std::chrono::steady_clock::now();
    mu_.lock();
    waited_us.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
#endif
  }
  ~TimedMutexLock() TIAMAT_RELEASE() { mu_.unlock(); }

  TimedMutexLock(const TimedMutexLock&) = delete;
  TimedMutexLock& operator=(const TimedMutexLock&) = delete;

 private:
  Mutex& mu_;
};
}  // namespace

LoopbackTransport::LoopbackTransport(LoopbackOptions opts)
    : opts_(opts),
      start_(std::chrono::steady_clock::now()),
      rng_(opts.seed) {
  const unsigned n = std::max(1u, opts_.workers);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (unsigned i = 0; i < n; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

LoopbackTransport::~LoopbackTransport() {
  for (auto& w : workers_) {
    {
      MutexLock lk(w->mu);
      w->stop = true;
    }
    w->cv.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

Time LoopbackTransport::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

namespace {
/// Task-start timestamp of the strand callback currently running on this
/// worker thread; negative outside any callback (external threads). Each
/// worker thread belongs to exactly one LoopbackTransport, so a plain
/// thread_local is unambiguous — and it is what lets now_coarse() serve a
/// per-op trace burst without touching the hardware clock.
thread_local Time t_task_start = -1;
}  // namespace

Time LoopbackTransport::now_coarse() const {
  // Inside a strand callback, reuse the stamp the worker loop took when it
  // dequeued the task (instrumentation precision becomes task-granular;
  // callbacks here run for microseconds). Anywhere else, read the clock.
  return t_task_start >= 0 ? t_task_start : now();
}

NodeId LoopbackTransport::add_node(NodeOptions) {
  MutexLock lk(mu_);
  const NodeId id = next_node_++;
  // Map entries never move or get erased, so tasks and timer facades may
  // hold the Node's address for the transport's lifetime.
  Node& node = nodes_[id];
  node.worker = (id - 1) % workers_.size();
  node.timers = std::make_unique<NodeTimers>(this, &node);
  return id;
}

void LoopbackTransport::remove_node(NodeId id) {
  Node* node;
  {
    MutexLock lk(mu_);
    auto it = nodes_.find(id);
    if (it == nodes_.end() || it->second.is_closed()) return;
    node = &it->second;
    node->closed.store(true, std::memory_order_relaxed);
    node->groups.clear();
  }
  // Quiesce: once set_handler holds the strand, no callback of this node is
  // in flight and none will start (run_task checks `closed` first, under
  // the same exec_mu).
  set_handler(*node, nullptr);
}

bool LoopbackTransport::node_exists(NodeId id) const {
  MutexLock lk(mu_);
  auto it = nodes_.find(id);
  return it != nodes_.end() && !it->second.is_closed();
}

void LoopbackTransport::set_online(NodeId id, bool online) {
  MutexLock lk(mu_);
  auto it = nodes_.find(id);
  if (it != nodes_.end() && !it->second.is_closed()) {
    it->second.online.store(online, std::memory_order_relaxed);
  }
}

bool LoopbackTransport::online(NodeId id) const {
  MutexLock lk(mu_);
  auto it = nodes_.find(id);
  return it != nodes_.end() && it->second.reachable();
}

bool LoopbackTransport::visible(NodeId a, NodeId b) const {
  if (a == b) return false;
  MutexLock lk(mu_);
  auto ia = nodes_.find(a);
  auto ib = nodes_.find(b);
  return ia != nodes_.end() && ia->second.reachable() &&
         ib != nodes_.end() && ib->second.reachable();
}

std::vector<NodeId> LoopbackTransport::visible_from(NodeId id) const {
  std::vector<NodeId> out;
  MutexLock lk(mu_);
  auto self = nodes_.find(id);
  if (self == nodes_.end() || !self->second.reachable()) return out;
  for (const auto& [nid, node] : nodes_) {
    if (nid != id && node.reachable()) out.push_back(nid);
  }
  return out;
}

void LoopbackTransport::bind(NodeId id, DeliveryHandler handler) {
  Node* node;
  {
    MutexLock lk(mu_);
    auto it = nodes_.find(id);
    if (it == nodes_.end() || it->second.is_closed()) return;
    node = &it->second;
  }
  // Synchronize with any in-flight invocation of the previous handler.
  set_handler(*node, std::move(handler));
}

void LoopbackTransport::set_handler(Node& node, DeliveryHandler handler) {
  Worker& w = *workers_[node.worker];
  auto write = [&] {
    // A bind that raced remove_node must not resurrect a handler.
    if (handler && node.is_closed()) return;
    node.handler = std::move(handler);
  };
  if (std::this_thread::get_id() == w.thread.get_id()) {
    write();  // inside one of w's callbacks: run_task holds exec_mu
    return;
  }
  MutexLock ex(w.exec_mu);
  write();
}

void LoopbackTransport::join_group(NodeId id, GroupId group) {
  MutexLock lk(mu_);
  auto it = nodes_.find(id);
  if (it != nodes_.end() && !it->second.is_closed()) {
    it->second.groups.insert(group);
  }
}

void LoopbackTransport::leave_group(NodeId id, GroupId group) {
  MutexLock lk(mu_);
  auto it = nodes_.find(id);
  if (it != nodes_.end() && !it->second.is_closed()) {
    it->second.groups.erase(group);
  }
}

bool LoopbackTransport::admit(Node& dest, std::size_t bytes, Route& out) {
  stats_.bytes_sent += bytes;
  if (opts_.loss > 0.0 && rng_.chance(opts_.loss)) {
    ++stats_.drops_loss;
    return false;
  }
  Duration delay = opts_.delivery_delay;
  if (opts_.delivery_jitter > 0) {
    delay += rng_.uniform(0, opts_.delivery_jitter);
  }
  out = Route{&dest, delay < 0 ? 0 : delay};
  return true;
}

void LoopbackTransport::deliver(NodeId from, const Route& route, Time sent,
                                Payload payload) {
  Task task;
  task.due = sent + route.delay;
  task.kind = TaskKind::kDeliver;
  task.node = route.node;
  task.from = from;
  task.payload = std::move(payload);
  const std::uint64_t key =
      route.delay > 0 ? next_key_.fetch_add(1, std::memory_order_relaxed)
                      : kInvalidTimer;
  enqueue(std::move(task), key);
}

void LoopbackTransport::send(NodeId from, NodeId to, Payload payload) {
  Route route;
  {
    TimedMutexLock lk(mu_, lock_wait_us_);
    ++stats_.unicasts_sent;
    auto src = nodes_.find(from);
    auto dst = nodes_.find(to);
    if (src == nodes_.end() || !src->second.reachable() ||
        dst == nodes_.end() || !dst->second.reachable()) {
      ++stats_.drops_dead;
      stats_.bytes_sent += payload.size();
      return;
    }
    if (!admit(dst->second, payload.size(), route)) return;
  }
  deliver(from, route, now(), std::move(payload));
}

void LoopbackTransport::multicast(NodeId from, GroupId group, Payload payload) {
  std::vector<Route> routes;
  {
    TimedMutexLock lk(mu_, lock_wait_us_);
    ++stats_.multicasts_sent;
    auto src = nodes_.find(from);
    if (src == nodes_.end() || !src->second.reachable()) {
      ++stats_.drops_dead;
      return;
    }
    // Ordered map: members are reached in ascending node-id order, so equal
    // delays keep a deterministic per-multicast fan-out order.
    for (auto& [nid, node] : nodes_) {
      if (nid == from || !node.reachable()) continue;
      if (!node.groups.contains(group)) continue;
      Route r;
      if (admit(node, payload.size(), r)) routes.push_back(r);
    }
  }
  const Time sent = now();
  for (std::size_t i = 0; i < routes.size(); ++i) {
    deliver(from, routes[i], sent,
            i + 1 == routes.size() ? std::move(payload) : payload);
  }
}

TimerService& LoopbackTransport::timers(NodeId id) {
  MutexLock lk(mu_);
  auto it = nodes_.find(id);
  // Nodes are never forgotten (only closed), so a live caller always finds
  // its service; a bogus id is a programming error.
  return *it->second.timers;
}

TimerId LoopbackTransport::schedule_timer(Node* node, Time when,
                                          std::function<void()> fn) {
  Task task;
  const Time t = now();
  task.due = when < t ? t : when;
  task.kind = TaskKind::kTimer;
  task.node = node;
  task.fn = std::move(fn);
  const TimerId id = next_key_.fetch_add(1, std::memory_order_relaxed);
  enqueue(std::move(task), id);
  return id;
}

bool LoopbackTransport::cancel_timer(const Node& node, TimerId id) {
  if (id == kInvalidTimer) return false;
  Worker& w = *workers_[node.worker];
  // Declared before the lock so the closure is destroyed after it: its
  // captures may re-enter the transport.
  std::function<void()> doomed;
  {
    TimedMutexLock lk(w.mu, w.sched.inbox_wait);
    auto it = w.pending.find(id);
    if (it == w.pending.end() || it->second.kind != TaskKind::kTimer) {
      return false;
    }
    // The heap slot stays behind as a tombstone, dropped when it surfaces.
    doomed = std::move(it->second.fn);
    w.pending.erase(it);
  }
  w.sched.cancels.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void LoopbackTransport::post(NodeId id, std::function<void()> fn) {
  Node* node;
  {
    MutexLock lk(mu_);
    auto it = nodes_.find(id);
    if (it == nodes_.end() || it->second.is_closed()) return;
    node = &it->second;
  }
  Task task;
  task.due = now();
  task.kind = TaskKind::kPost;
  task.node = node;
  task.fn = std::move(fn);
  enqueue(std::move(task));
}

void LoopbackTransport::enqueue(Task task, std::uint64_t key) {
  Worker& w = *workers_[task.node->worker];
  task.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  {
    TimedMutexLock lk(w.mu, w.sched.inbox_wait);
    if (w.stop) return;
    if (key == kInvalidTimer) {
      w.ready.push_back(std::move(task));
    } else {
      w.timers.push_back(Slot{task.due, task.seq, key});
      std::push_heap(w.timers.begin(), w.timers.end(), SlotLater{});
      w.pending.emplace(key, std::move(task));
    }
    const std::uint64_t depth = w.ready.size() + w.timers.size();
    if (depth > w.depth_max) w.depth_max = depth;
  }
  w.cv.notify_one();  // the worker thread is the only waiter
}

bool LoopbackTransport::wait_until(const std::function<bool()>& pred,
                                   Duration max_wait) {
  // Exclusive with every strand: pred may read protocol state that
  // callbacks write, and the lock handoff orders those writes before the
  // read. TSA cannot model a lock set whose cardinality is only known at
  // run time (one exec_mu per worker), so this RAII scope is excluded from
  // the analysis and stays covered by the tsan gate.
  struct StrandExclusion {
    std::vector<std::unique_ptr<Worker>>& ws;
    explicit StrandExclusion(std::vector<std::unique_ptr<Worker>>& workers)
        TIAMAT_NO_THREAD_SAFETY_ANALYSIS : ws(workers) {
      for (auto& w : ws) w->exec_mu.lock();
    }
    ~StrandExclusion() TIAMAT_NO_THREAD_SAFETY_ANALYSIS {
      for (auto it = ws.rbegin(); it != ws.rend(); ++it) {
        (*it)->exec_mu.unlock();
      }
    }
  };
  const Time deadline = now() + (max_wait < 0 ? 0 : max_wait);
  for (;;) {
    {
      StrandExclusion locks(workers_);
      if (pred()) return true;
      if (now() >= deadline) return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(kPollInterval));
  }
}

Rng LoopbackTransport::fork_rng() {
  MutexLock lk(mu_);
  return rng_.fork();
}

LoopbackTransport::Stats LoopbackTransport::stats() const {
  Stats out;
  {
    MutexLock lk(mu_);
    out = stats_;
  }
  for (const auto& w : workers_) {
    out.deliveries += w->sched.deliveries.load(std::memory_order_relaxed);
    out.drops_dead += w->sched.drops_dead.load(std::memory_order_relaxed);
  }
  return out;
}

LoopbackTransport::SchedStats LoopbackTransport::sched_stats() const {
  SchedStats out;
  out.workers.reserve(workers_.size());
  for (const auto& wp : workers_) {
    Worker& w = *wp;
    WorkerSched ws;
    ws.tasks = w.sched.tasks.load(std::memory_order_relaxed);
    ws.lag_us_sum = w.sched.lag_sum.load(std::memory_order_relaxed);
    ws.lag_us_max = w.sched.lag_max.load(std::memory_order_relaxed);
    ws.busy_us = w.sched.busy.load(std::memory_order_relaxed);
    ws.tombstones = w.sched.tombstones.load(std::memory_order_relaxed);
    ws.cancels = w.sched.cancels.load(std::memory_order_relaxed);
    ws.inbox_wait_us = w.sched.inbox_wait.load(std::memory_order_relaxed);
    {
      MutexLock lk(w.mu);
      ws.queue_depth = w.ready.size() + w.timers.size();
      ws.queue_depth_max = w.depth_max;
    }
    out.workers.push_back(ws);
  }
  out.lock_wait_us = lock_wait_us_.load(std::memory_order_relaxed);
  out.uptime_us = now();
  return out;
}

void LoopbackTransport::run_task(Worker& w, Task& task) {
  MutexLock ex(w.exec_mu);
  const Node& node = *task.node;
  const bool deliver = task.kind == TaskKind::kDeliver;
  if (deliver ? !node.reachable() : node.is_closed()) {
    // Delivery-after-close safety: a payload or timer racing with
    // remove_node is dropped here, on the strand, never observed by
    // protocol code.
    if (deliver) Worker::SchedCells::bump(w.sched.drops_dead);
    return;
  }
  if (deliver) {
    Worker::SchedCells::bump(w.sched.deliveries);
    // Copy out: the handler may rebind its own node.
    const DeliveryHandler handler = node.handler;
    if (handler) handler(task.from, task.payload);
  } else if (task.fn) {
    task.fn();
  }
}

bool LoopbackTransport::next_task(Worker& w, Task& out, Time& t) {
  for (;;) {
    if (w.stop) return false;
    t = now();
    const bool timer_due = !w.timers.empty() && w.timers.front().due <= t;
    if (!w.ready.empty()) {
      // The FIFO head runs unless a due timer precedes it by (due, seq).
      const Task& head = w.ready.front();
      const bool head_first =
          !timer_due || SlotLater{}(w.timers.front(), Slot{head.due, head.seq});
      if (head_first) {
        out = std::move(w.ready.front());
        w.ready.pop_front();
        return true;
      }
    } else if (!timer_due) {
      if (w.timers.empty()) {
        w.cv.wait(w.mu);
      } else {
        const Duration wait =
            std::min(w.timers.front().due - t, kMaxSleepSlice);
        w.cv.wait_for(w.mu, std::chrono::microseconds(wait));
      }
      continue;
    }
    const std::uint64_t key = w.timers.front().key;
    std::pop_heap(w.timers.begin(), w.timers.end(), SlotLater{});
    w.timers.pop_back();
    auto it = w.pending.find(key);
    if (it == w.pending.end()) {
      Worker::SchedCells::bump(w.sched.tombstones);
      continue;  // cancelled: discard the tombstone
    }
    out = std::move(it->second);
    w.pending.erase(it);
    return true;
  }
}

void LoopbackTransport::worker_loop(std::size_t index) {
  Worker& w = *workers_[index];
  for (;;) {
    // Scoped per task so a finished task's closure and payload are freed
    // outside the inbox lock.
    Task task;
    Time t = 0;
    {
      MutexLock lk(w.mu);
      if (!next_task(w, task, t)) return;
    }
    t_task_start = t;  // serves now_coarse() for the callback's trace burst
#if !defined(TIAMAT_OBS_OFF)
    // Strand lag: the task was due at `due` and starts now-ish (`t` is the
    // clock read that found it due). The run itself is bracketed with one
    // extra clock read for the busy/utilization series.
    const auto lag =
        static_cast<std::uint64_t>(t > task.due ? t - task.due : 0);
    Worker::SchedCells::bump(w.sched.lag_sum, lag);
    if (lag > w.sched.lag_max.load(std::memory_order_relaxed)) {
      w.sched.lag_max.store(lag, std::memory_order_relaxed);  // single writer
    }
#endif
    run_task(w, task);
#if !defined(TIAMAT_OBS_OFF)
    Worker::SchedCells::bump(w.sched.busy,
                             static_cast<std::uint64_t>(now() - t));
#endif
    Worker::SchedCells::bump(w.sched.tasks);
  }
}

}  // namespace tiamat::transport
