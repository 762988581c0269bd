// Measurement plumbing shared by the workloads: clocks, a latency
// histogram, the seeded input generators, the closed-loop run control, and
// a delegating Transport that counts timers (sim pass) and samples wire
// payloads (traced pass) without touching the stack's own code.

#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "transport/transport.h"

namespace perfbench {

using tiamat::transport::NodeId;
using tiamat::transport::Transport;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of every thread of this process, in seconds.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time the hypervisor gave to others while this machine's CPUs were
/// ready to run (the steal column of /proc/stat), in seconds summed over
/// CPUs. 0 where the kernel does not report it.
inline double host_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

/// Peak resident set of this process so far, in MiB.
inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Log-linear histogram of nanosecond durations: 256 buckets per octave, so
/// a quantile is within 0.4% of the exact sample, in fixed memory (30 KiB)
/// no matter how many ops a run makes (a sample vector would show in peak
/// RSS).
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 9;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr std::uint64_t kMax = std::uint64_t{1} << 36;  // ~69 s

  LatencyHistogram() : counts_(index(kMax - 1) + 1, 0) {}

  void record(std::uint64_t ns) {
    ++counts_[index(std::min(ns, kMax - 1))];
    ++n_;
  }
  void merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  std::uint64_t count() const { return n_; }

  /// The q-quantile in nanoseconds, interpolated inside its bucket. 0 when
  /// empty.
  double quantile_ns(double q) const {
    if (n_ == 0) return 0.0;
    const double rank = q * static_cast<double>(n_ - 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(seen + counts_[i]) > rank) {
        const double within =
            (rank - static_cast<double>(seen) + 0.5) / static_cast<double>(counts_[i]);
        return static_cast<double>(lower(i)) +
               within * static_cast<double>(width(i));
      }
      seen += counts_[i];
    }
    return static_cast<double>(lower(counts_.size() - 1));
  }
  double quantile_us(double q) const { return quantile_ns(q) / 1000.0; }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - kSubBits;  // v >> shift in [kSub/2, kSub)
    return static_cast<std::size_t>((shift + 1) * (kSub / 2) + ((v >> shift) - kSub / 2));
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kSub) return i;
    const std::uint64_t shift = i / (kSub / 2) - 1;
    return (i % (kSub / 2) + kSub / 2) << shift;
  }
  static std::uint64_t width(std::size_t i) {
    return i < kSub ? 1 : std::uint64_t{1} << (i / (kSub / 2) - 1);
  }

  std::vector<std::uint32_t> counts_;
  std::uint64_t n_ = 0;
};

/// The benchmark's own random stream. Every input (keys, op mix, payloads,
/// backend seeds) is drawn from streams forked off the workload seed; the
/// stack under test only ever sees the generated tuples and patterns.
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : engine_(seed) {}
  std::uint64_t next() { return engine_(); }
  std::size_t index(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }
  double real() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }
  Rand fork() { return Rand(engine_() ^ 0x9e3779b97f4a7c15ull); }

  /// Printable payload of `len` characters.
  std::string text(std::size_t len) {
    static constexpr char kAlpha[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    std::string s(len, ' ');
    for (char& c : s) c = kAlpha[index(sizeof(kAlpha) - 1)];
    return s;
  }

 private:
  std::mt19937_64 engine_;
};

/// Zipf(s) over ranks [0, n): rank k has weight 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t draw(Rand& r) const {
    const double u = r.real();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// SplitMix64 of `seed + salt * golden ratio`: independent sub-seeds (and
/// per-id draws) from one seed.
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Closed-loop control shared by a workload's loops and the main thread.
/// A loop checks should_stop() before each op; the last loop to finish
/// stamps the end of the window and wakes the main thread, which otherwise
/// stays blocked on the condition variable (never polling the transport).
class RunControl {
 public:
  /// `op_budget` > 0 bounds each loop's op count (sim pass); 0 = run until
  /// request_stop() (the timed window on loopback).
  explicit RunControl(std::uint64_t op_budget = 0) : budget_(op_budget) {}

  /// Index of the window slice the run is in; loops file each latency
  /// sample under the slice in which the op completed.
  int slice() const { return slice_.load(std::memory_order_relaxed); }
  void set_slice(int s) { slice_.store(s, std::memory_order_relaxed); }

  bool should_stop(std::uint64_t loop_ops) const {
    return stop_.load(std::memory_order_relaxed) ||
           (budget_ != 0 && loop_ops >= budget_);
  }
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  void add_loop() {
    std::lock_guard<std::mutex> lock(mu_);
    ++live_;
  }
  void loop_done() {
    const std::uint64_t t = now_ns();
    const double cpu = process_cpu_s();
    std::lock_guard<std::mutex> lock(mu_);
    if (--live_ == 0) {
      end_ns_ = t;
      end_cpu_ = cpu;
      cv_.notify_all();
    }
  }
  int live() const {
    std::lock_guard<std::mutex> lock(mu_);
    return live_;
  }
  /// Blocks until every loop finished or `timeout` passed; true when done.
  bool wait_done(std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return live_ == 0; });
  }
  std::uint64_t end_ns() const {
    std::lock_guard<std::mutex> lock(mu_);
    return end_ns_;
  }
  double end_cpu() const {
    std::lock_guard<std::mutex> lock(mu_);
    return end_cpu_;
  }

 private:
  const std::uint64_t budget_;
  std::atomic<bool> stop_{false};
  std::atomic<int> slice_{0};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int live_ = 0;
  std::uint64_t end_ns_ = 0;
  double end_cpu_ = 0.0;
};

/// Hands a loop's next step to its node's strand. Loopback: Transport::post
/// (the strand post is part of each op's cost). Sim: a zero-delay timer,
/// because the sim's post runs synchronously and a loop would recurse.
/// With `lag` set (traced run) each step records post -> closure start.
struct Stepper {
  Transport* tx = nullptr;
  bool sim = false;

  void next(NodeId node, LatencyHistogram* lag, std::function<void()> fn) const {
    if (sim) {
      tx->timers(node).schedule_at(tx->now(), std::move(fn));
    } else if (lag != nullptr) {
      const std::uint64_t posted = now_ns();
      tx->post(node, [lag, posted, fn = std::move(fn)] {
        lag->record(now_ns() - posted);
        fn();
      });
    } else {
      tx->post(node, std::move(fn));
    }
  }
};

/// Delegating Transport. With counting on (single-threaded sim pass) every
/// node's timers are wrapped to count cancels, the figure the loopback
/// backend reports in sched_stats(). With a sample cap it keeps
/// copies of the first payloads sent, so the codec replay decodes the
/// message shapes the run really sent.
class TapTransport final : public Transport {
 public:
  TapTransport(Transport& inner, bool count_timers, std::size_t sample_cap)
      : inner_(inner), count_timers_(count_timers), sample_cap_(sample_cap) {}

  NodeId add_node(tiamat::transport::NodeOptions opts = {}) override {
    const NodeId id = inner_.add_node(opts);
    if (count_timers_) {
      timers_[id] = std::make_unique<CountingTimers>(inner_.timers(id), *this);
    }
    return id;
  }
  void remove_node(NodeId id) override { inner_.remove_node(id); }
  bool node_exists(NodeId id) const override { return inner_.node_exists(id); }
  void set_online(NodeId id, bool on) override { inner_.set_online(id, on); }
  bool online(NodeId id) const override { return inner_.online(id); }
  bool visible(NodeId a, NodeId b) const override { return inner_.visible(a, b); }
  std::vector<NodeId> visible_from(NodeId id) const override {
    return inner_.visible_from(id);
  }
  void bind(NodeId id, tiamat::transport::DeliveryHandler h) override {
    inner_.bind(id, std::move(h));
  }
  void join_group(NodeId id, tiamat::transport::GroupId g) override {
    inner_.join_group(id, g);
  }
  void leave_group(NodeId id, tiamat::transport::GroupId g) override {
    inner_.leave_group(id, g);
  }
  void send(NodeId from, NodeId to, tiamat::transport::Payload p) override {
    sample(p);
    inner_.send(from, to, std::move(p));
  }
  void multicast(NodeId from, tiamat::transport::GroupId g,
                 tiamat::transport::Payload p) override {
    sample(p);
    inner_.multicast(from, g, std::move(p));
  }
  tiamat::transport::Time now() const override { return inner_.now(); }
  tiamat::transport::Time now_coarse() const override { return inner_.now_coarse(); }
  tiamat::transport::TimerService& timers(NodeId id) override {
    if (count_timers_) {
      auto it = timers_.find(id);
      if (it != timers_.end()) return *it->second;
    }
    return inner_.timers(id);
  }
  void post(NodeId id, std::function<void()> fn) override {
    inner_.post(id, std::move(fn));
  }
  bool wait_until(const std::function<bool()>& pred,
                  tiamat::transport::Duration max_wait) override {
    return inner_.wait_until(pred, max_wait);
  }
  tiamat::transport::Rng fork_rng() override { return inner_.fork_rng(); }

  /// Starts keeping payloads (up to the cap) from the next send on.
  void arm_sampling() { armed_.store(true, std::memory_order_relaxed); }

  std::uint64_t timers_cancelled() const { return cancelled_; }

  /// Sampled payloads; call once the run has quiesced.
  std::vector<tiamat::transport::Payload> samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_;
  }

 private:
  class CountingTimers final : public tiamat::transport::TimerService {
   public:
    CountingTimers(tiamat::transport::TimerService& inner, TapTransport& owner)
        : inner_(inner), owner_(owner) {}
    tiamat::transport::Time now() const override { return inner_.now(); }
    tiamat::transport::TimerId schedule_at(tiamat::transport::Time when,
                                           std::function<void()> fn) override {
      return inner_.schedule_at(when, std::move(fn));
    }
    bool cancel(tiamat::transport::TimerId id) override {
      const bool hit = inner_.cancel(id);
      if (hit) ++owner_.cancelled_;
      return hit;
    }

   private:
    tiamat::transport::TimerService& inner_;
    TapTransport& owner_;
  };

  void sample(const tiamat::transport::Payload& p) {
    if (!armed_.load(std::memory_order_relaxed) ||
        sampled_.load(std::memory_order_relaxed) >= sample_cap_) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.size() < sample_cap_) {
      samples_.push_back(p);
      sampled_.store(samples_.size(), std::memory_order_relaxed);
    }
  }

  Transport& inner_;
  const bool count_timers_;
  const std::size_t sample_cap_;
  std::map<NodeId, std::unique_ptr<CountingTimers>> timers_;
  std::uint64_t cancelled_ = 0;  // counting mode is single-threaded
  mutable std::mutex mu_;
  std::vector<tiamat::transport::Payload> samples_;
  std::atomic<std::size_t> sampled_{0};
  std::atomic<bool> armed_{false};
};

}  // namespace perfbench
