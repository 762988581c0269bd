#include "workloads.h"

#include <algorithm>
#include <array>
#include <functional>
#include <optional>

namespace perfbench {

using tiamat::core::Instance;
using tiamat::core::ReadResult;
using tiamat::core::Status;
using tiamat::tuples::any_int;
using tiamat::tuples::any_string;
using tiamat::tuples::Pattern;
using tiamat::tuples::Tuple;
namespace transport = tiamat::transport;

tiamat::core::Config bench_config(const std::string& name, bool traced) {
  tiamat::core::Config cfg;
  cfg.name = name;
  auto& caps = cfg.lease_caps;
  // Longer than any set-up plus window, on both clocks: a stored tuple
  // that expired mid-run would turn a guaranteed local hit into a probe.
  caps.default_ttl = transport::seconds(600);
  caps.max_ttl = caps.default_ttl;
  // Every out holds its storage lease until the TTL, even after the tuple
  // is taken, so the active-lease count grows with the number of outs, not
  // with the resident set. These limits exist to refuse work on a loaded
  // device; here they must never bind, or every op would be refused.
  caps.max_active_ops = std::size_t{1} << 30;
  caps.max_stored_bytes = std::size_t{1} << 40;
  if (traced) cfg.trace_capacity = std::size_t{1} << 16;
  return cfg;
}

namespace {

constexpr transport::Duration kSetupWait = transport::seconds(60);
/// Warm-up probe window. Loopback replies land within tens of µs; the
/// 25 ms default would make set-up time mostly a constant. A window too
/// short for a slow reply is simply probed again (see warm_caches).
constexpr transport::Duration kWarmWindow = transport::milliseconds(1);

/// Runs `fn` on each instance's strand and waits until all have run.
void on_each(Transport& tx, const std::vector<Instance*>& insts,
             const std::function<void(Instance&)>& fn) {
  auto left = std::make_shared<std::atomic<std::size_t>>(insts.size());
  for (Instance* i : insts) {
    tx.post(i->node(), [i, fn, left] {
      fn(*i);
      left->fetch_sub(1);
    });
  }
  tx.wait_until([&] { return left->load() == 0; }, kSetupWait);
}

/// Fills every responder cache with every other instance, so no op of the
/// window pays the discovery probe. Probes again while any cache is short.
void warm_caches(Transport& tx, const std::vector<Instance*>& insts) {
  for (int attempt = 0; attempt < 20; ++attempt) {
    auto left = std::make_shared<std::atomic<std::size_t>>(insts.size());
    for (Instance* i : insts) {
      tx.post(i->node(), [i, left] {
        i->discovery().probe(kWarmWindow, [left](std::size_t) { left->fetch_sub(1); });
      });
    }
    tx.wait_until([&] { return left->load() == 0; }, kSetupWait);
    bool full = true;
    tx.wait_until(
        [&] {
          for (Instance* i : insts) full = full && i->responders().size() + 1 == insts.size();
          return true;
        },
        kSetupWait);
    if (full) return;
  }
}

/// True when no instance holds an open op, served request, waiter,
/// tentative tuple, unacknowledged confirm or open probe. Evaluated inside
/// wait_until, i.e. exclusive with every strand.
bool quiescent(const std::vector<Instance*>& insts) {
  for (Instance* i : insts) {
    if (i->open_ops() != 0 || i->serving_count() != 0 ||
        i->pending_ack_count() != 0 || i->local_space().waiter_count() != 0 ||
        i->local_space().tentative_count() != 0 || i->discovery().probing()) {
      return false;
    }
  }
  return true;
}

std::vector<Instance*> raw(const std::vector<std::unique_ptr<Instance>>& v) {
  std::vector<Instance*> out;
  for (const auto& p : v) out.push_back(p.get());
  return out;
}

// ---------------------------------------------------------------------------
// local_keyed: six instances, one chain each, every op on the local space.

class LocalKeyed final : public Workload {
 public:
  static constexpr std::size_t kInstances = 6;
  static constexpr std::size_t kResident = 4096;  // per instance
  static constexpr std::size_t kKeys = 1024;
  /// Mild skew: with takes aimed at present tuples, a pattern matches
  /// kResident * sum(p_k^2) tuples on average, about 5 at s = 0.3.
  static constexpr double kZipfS = 0.3;
  static constexpr std::size_t kPayloadLen = 64;

  explicit LocalKeyed(std::uint64_t seed) : rng_(seed), zipf_(kKeys, kZipfS) {
    for (std::size_t k = 0; k < kKeys; ++k) keys_.push_back("key-" + std::to_string(k));
    for (int p = 0; p < 64; ++p) payloads_.push_back(rng_.text(kPayloadLen));
  }

  void setup(Transport& tx, bool traced) override {
    for (std::size_t i = 0; i < kInstances; ++i) {
      insts_.push_back(std::make_unique<Instance>(
          tx, bench_config("keyed-" + std::to_string(i), traced)));
      auto c = std::make_unique<Chain>(rng_.fork());
      c->inst = insts_.back().get();
      c->ledger.assign(kKeys, 0);
      chains_.push_back(std::move(c));
    }
    on_each(tx, raw(insts_), [this](Instance& i) { stock(i); });
    warm_caches(tx, raw(insts_));
  }

  void start(const RunEnv& env) override {
    env_ = env;
    for (auto& c : chains_) {
      env_.ctl->add_loop();
      Chain* cp = c.get();
      env_.step.next(cp->inst->node(), nullptr, [this, cp] { step(*cp); });
    }
  }

  bool drain(Transport& tx, transport::Duration max_wait) override {
    return settle(tx, max_wait);
  }

  std::uint64_t check(Transport& tx, std::vector<std::string>& problems) override {
    std::uint64_t bad = 0;
    tx.wait_until(
        [&] {
          for (auto& c : chains_) {
            for (std::size_t k = 0; k < kKeys; ++k) {
              const std::size_t have = c->inst->local_space().count_matches(
                  Pattern{keys_[k], any_int(), any_string()});
              if (have != static_cast<std::size_t>(c->ledger[k])) {
                ++bad;
                if (problems.size() < 20) {
                  problems.push_back(c->inst->name() + ": " + keys_[k] + " holds " +
                                     std::to_string(have) + " tuples, ledger says " +
                                     std::to_string(c->ledger[k]));
                }
              }
            }
          }
          return true;
        },
        kSetupWait);
    return bad;
  }

  double nominal_ops_per_s() const override { return 400000; }
  std::vector<Instance*> instances() override { return raw(insts_); }
  std::vector<const LoopStats*> loops() const override {
    std::vector<const LoopStats*> out;
    for (const auto& c : chains_) out.push_back(&c->st);
    return out;
  }

  ReplayShape replay_shape(std::uint64_t seed) const override {
    Rand r(seed);
    ReplayShape s;
    std::vector<std::size_t> present;
    for (std::size_t n = 0; n < kResident; ++n) {
      const std::size_t key = zipf_.draw(r);
      present.push_back(key);
      s.stock.push_back(Tuple{keys_[key], static_cast<std::int64_t>(n),
                              payloads_[r.index(payloads_.size())]});
    }
    for (std::size_t n = 0; n < 4096; ++n) {
      // Reads and takes aim at a present tuple's key, as the chains do.
      const std::size_t key = present[r.index(present.size())];
      s.outs.push_back(Tuple{keys_[key], static_cast<std::int64_t>(kResident + n),
                             payloads_[r.index(payloads_.size())]});
      s.patterns.push_back(Pattern{keys_[key], any_int(), any_string()});
    }
    return s;
  }

 private:
  enum Kind : std::uint8_t { kOut, kInp, kRdp };

  struct Chain {
    explicit Chain(Rand r) : rng(r) {}
    Instance* inst = nullptr;
    Rand rng;
    std::vector<std::uint32_t> present;  ///< key of every resident tuple
    std::vector<std::int32_t> ledger;    ///< resident tuples per key
    std::int64_t seq = 0;
    std::array<Kind, 10> block{};
    std::size_t block_pos = 10;
    LoopStats st;

    /// The 40/40/20 mix is dealt in shuffled blocks of ten, so the
    /// resident count never drifts more than four from kResident.
    Kind next_kind() {
      if (block_pos == block.size()) {
        block = {kOut, kOut, kOut, kOut, kInp, kInp, kInp, kInp, kRdp, kRdp};
        for (std::size_t i = block.size() - 1; i > 0; --i) {
          std::swap(block[i], block[rng.index(i + 1)]);
        }
        block_pos = 0;
      }
      return block[block_pos++];
    }
  };

  /// Pre-stocks instance `i` with kResident tuples, on its strand.
  void stock(Instance& i) {
    auto it = std::find_if(chains_.begin(), chains_.end(),
                           [&i](const auto& c) { return c->inst == &i; });
    Chain& c = **it;
    c.present.reserve(kResident + 16);
    for (std::size_t n = 0; n < kResident; ++n) {
      const std::size_t key = zipf_.draw(c.rng);
      if (i.out(Tuple{keys_[key], c.seq++, payloads_[c.rng.index(payloads_.size())]}) ==
          Status::kOk) {
        c.present.push_back(static_cast<std::uint32_t>(key));
        ++c.ledger[key];
      }
    }
  }

  void next(Chain& c) {
    Chain* cp = &c;
    env_.step.next(c.inst->node(), env_.traced ? &c.st.post_lag : nullptr,
                   [this, cp] { step(*cp); });
  }

  void step(Chain& c) {
    if (env_.ctl->should_stop(c.st.attempted)) {
      env_.ctl->loop_done();
      return;
    }
    ++c.st.attempted;
    const Kind kind = c.next_kind();
    if (kind == kOut) {
      const std::size_t key = zipf_.draw(c.rng);
      Tuple t{keys_[key], c.seq++, payloads_[c.rng.index(payloads_.size())]};
      const std::uint64_t t0 = now_ns();
      const Status s = c.inst->out(std::move(t));
      const std::uint64_t t1 = now_ns();
      c.st.record(t1 - t0, env_.ctl->slice());
      if (env_.traced) c.st.call.record(t1 - t0);
      if (s == Status::kOk) {
        c.present.push_back(static_cast<std::uint32_t>(key));
        ++c.ledger[key];
        c.st.complete();
      } else {
        ++c.st.failed;
      }
      next(c);
      return;
    }
    const std::size_t slot = c.rng.index(c.present.size());
    const std::uint32_t key = c.present[slot];
    const Pattern p{keys_[key], any_int(), any_string()};
    const std::uint64_t t0 = now_ns();
    auto done = [this, &c, slot, key, kind, t0](std::optional<ReadResult> r) {
      c.st.record(now_ns() - t0, env_.ctl->slice());
      if (!r || r->tuple.arity() != 3 || !r->tuple[0].is_string() ||
          r->tuple[0].as_string() != keys_[key]) {
        ++c.st.failed;
      } else {
        if (kind == kInp) {
          c.present[slot] = c.present.back();
          c.present.pop_back();
          --c.ledger[key];
        }
        c.st.complete();
      }
      next(c);
    };
    const bool granted = kind == kInp ? c.inst->inp(p, std::move(done))
                                      : c.inst->rdp(p, std::move(done));
    if (env_.traced) c.st.call.record(now_ns() - t0);
    if (!granted) {
      ++c.st.failed;
      next(c);
    }
  }

  Rand rng_;
  Zipf zipf_;
  std::vector<std::string> keys_;
  std::vector<std::string> payloads_;
  RunEnv env_;
  std::vector<std::unique_ptr<Instance>> insts_;
  std::vector<std::unique_ptr<Chain>> chains_;
};

// ---------------------------------------------------------------------------
// task_bag: the fractal master/worker of §3.2.

class TaskBag final : public Workload {
 public:
  /// Two workers. With three or four, the workers that share a loopback
  /// thread saturate it, acknowledgements
  /// miss the 60 ms response timeout, the master drops out of responder
  /// lists, and runs turn bimodal. The master stays the bottleneck either
  /// way, which is what this workload measures.
  static constexpr std::size_t kWorkers = 2;
  /// Every task matches the workers' pattern, so each take still selects
  /// among all of them. With 1024 or 2048 tasks the loopback task lag rises
  /// to milliseconds (mean 1.8 ms, max 38 ms at 1024, against 32 us and
  /// 1.3 ms at 512) and p99 moves by up to a quarter between runs of the
  /// same code; at 512 it stays within a few percent.
  static constexpr std::int64_t kBag = 512;
  static constexpr std::size_t kParamsLen = 32;

  explicit TaskBag(std::uint64_t seed) : rng_(seed), params_seed_(rng_.next()) {
    for (int p = 0; p < 256; ++p) params_.push_back(rng_.text(kParamsLen));
  }

  void setup(Transport& tx, bool traced) override {
    master_ = std::make_unique<Instance>(tx, bench_config("master", traced));
    for (std::size_t w = 0; w < kWorkers; ++w) {
      workers_.push_back(std::make_unique<Instance>(
          tx, bench_config("worker-" + std::to_string(w), traced)));
      loops_.push_back(std::make_unique<LoopStats>());
    }
    on_each(tx, {master_.get()}, [this](Instance& m) {
      for (std::int64_t id = 0; id < kBag; ++id) add_task(m);
    });
    warm_caches(tx, all());
  }

  void start(const RunEnv& env) override {
    env_ = env;
    master_next();
    for (std::size_t w = 0; w < kWorkers; ++w) {
      env_.ctl->add_loop();
      const std::size_t wi = w;
      env_.step.next(workers_[w]->node(), nullptr, [this, wi] { worker_step(wi); });
    }
  }

  bool drain(Transport& tx, transport::Duration max_wait) override {
    // Every worker has stopped, so `produced_` is final. The poison result
    // tells the master that once it holds that many it may stop.
    Instance* w0 = workers_.front().get();
    tx.post(w0->node(), [w0] { w0->out(Tuple{"result", std::int64_t{-1}, std::int64_t{0}}); });
    return tx.wait_until(
        [this] { return master_done_ && quiescent(all()); }, max_wait);
  }

  std::uint64_t check(Transport& tx, std::vector<std::string>& problems) override {
    std::uint64_t bad = 0;
    auto fail = [&](const std::string& what) {
      ++bad;
      if (problems.size() < 20) problems.push_back(what);
    };
    tx.wait_until(
        [&] {
          const Pattern tasks{"task", any_int(), any_string()};
          const Pattern results{"result", any_int(), any_int()};
          const std::size_t depth = master_->local_space().count_matches(tasks);
          if (depth != static_cast<std::size_t>(kBag)) {
            fail("bag depth " + std::to_string(depth) + ", expected " +
                 std::to_string(kBag));
          }
          for (const auto& w : workers_) {
            const std::size_t t = w->local_space().count_matches(tasks);
            const std::size_t r = w->local_space().count_matches(results);
            if (t != 0 || r != 0) {
              fail(w->name() + " still holds " + std::to_string(t) + " tasks and " +
                   std::to_string(r) + " results");
            }
          }
          if (master_->local_space().count_matches(results) != 0) {
            fail("master holds result tuples");
          }
          return true;
        },
        kSetupWait);
    std::uint64_t once = 0;
    for (std::size_t id = 0; id < collected_.size(); ++id) {
      if (collected_[id] == 1) ++once;
    }
    if (once != collected_total_ || collected_total_ != produced_.load()) {
      fail("collected " + std::to_string(collected_total_) + " results (" +
           std::to_string(once) + " ids exactly once), workers produced " +
           std::to_string(produced_.load()));
    }
    return bad;
  }

  std::uint64_t helper_failures() const override { return master_failed_; }
  double nominal_ops_per_s() const override { return 7200; }

  std::vector<Instance*> instances() override { return all(); }
  std::vector<const LoopStats*> loops() const override {
    std::vector<const LoopStats*> out;
    for (const auto& l : loops_) out.push_back(l.get());
    return out;
  }

  ReplayShape replay_shape(std::uint64_t) const override {
    ReplayShape s;
    for (std::int64_t id = 0; id < kBag; ++id) {
      s.stock.push_back(Tuple{"task", id, params_for(id)});
    }
    for (std::int64_t n = 0; n < 4096; ++n) {
      s.outs.push_back(Tuple{"task", kBag + n, params_for(kBag + n)});
      s.patterns.push_back(Pattern{"task", any_int(), any_string()});
    }
    return s;
  }

 private:
  std::vector<Instance*> all() const {
    std::vector<Instance*> out{master_.get()};
    for (const auto& w : workers_) out.push_back(w.get());
    return out;
  }

  const std::string& params_for(std::int64_t id) const {
    return params_[derive(params_seed_, static_cast<std::uint64_t>(id)) % params_.size()];
  }

  /// Master strand only.
  void add_task(Instance& m) {
    const std::int64_t id = next_id_++;
    collected_.push_back(0);
    if (m.out(Tuple{"task", id, params_for(id)}) != Status::kOk) ++master_failed_;
  }

  void master_next() {
    env_.step.next(master_->node(), nullptr, [this] { master_step(); });
  }

  void master_step() {
    const bool granted = master_->in(
        Pattern{"result", any_int(), any_int()}, [this](std::optional<ReadResult> r) {
          if (!r || r->tuple.arity() != 3 || !r->tuple[1].is_int()) {
            ++master_failed_;
            master_next();
            return;
          }
          const std::int64_t id = r->tuple[1].as_int();
          if (id < 0) {
            poisoned_ = true;
          } else {
            const bool known = id < next_id_;
            if (!known || collected_[static_cast<std::size_t>(id)] != 0 ||
                r->tuple[2].as_int() !=
                    static_cast<std::int64_t>(fnv1a(params_for(id)))) {
              ++master_failed_;
            }
            if (known) ++collected_[static_cast<std::size_t>(id)];
            ++collected_total_;
            add_task(*master_);  // one new task per result: depth holds
          }
          if (poisoned_ && collected_total_ == produced_.load()) {
            master_done_ = true;
            return;
          }
          master_next();
        });
    if (!granted) {
      ++master_failed_;
      master_done_ = true;
    }
  }

  void worker_next(std::size_t w) {
    env_.step.next(workers_[w]->node(), env_.traced ? &loops_[w]->post_lag : nullptr,
                   [this, w] { worker_step(w); });
  }

  void worker_step(std::size_t w) {
    LoopStats& st = *loops_[w];
    if (env_.ctl->should_stop(st.attempted)) {
      env_.ctl->loop_done();
      return;
    }
    ++st.attempted;
    Instance& inst = *workers_[w];
    const std::uint64_t t0 = now_ns();
    const bool granted = inst.in(
        Pattern{"task", any_int(), any_string()},
        [this, w, &st, &inst, t0](std::optional<ReadResult> r) {
          st.record(now_ns() - t0, env_.ctl->slice());
          if (!r || r->tuple.arity() != 3 || !r->tuple[1].is_int() ||
              !r->tuple[2].is_string()) {
            ++st.failed;
            worker_next(w);
            return;
          }
          const auto digest = static_cast<std::int64_t>(fnv1a(r->tuple[2].as_string()));
          const std::uint64_t c0 = now_ns();
          const Status s = inst.out(Tuple{"result", r->tuple[1].as_int(), digest});
          if (env_.traced) st.call.record(now_ns() - c0);
          if (s == Status::kOk) {
            produced_.fetch_add(1);
            st.complete();
          } else {
            ++st.failed;
          }
          worker_next(w);
        });
    if (env_.traced) st.call.record(now_ns() - t0);
    if (!granted) {
      ++st.failed;
      worker_next(w);
    }
  }

  Rand rng_;
  const std::uint64_t params_seed_;
  std::vector<std::string> params_;
  RunEnv env_;
  std::unique_ptr<Instance> master_;
  std::vector<std::unique_ptr<Instance>> workers_;
  std::vector<std::unique_ptr<LoopStats>> loops_;
  std::atomic<std::uint64_t> produced_{0};
  // Master strand only (read by the main thread after drain()).
  std::int64_t next_id_ = 0;
  std::vector<std::uint8_t> collected_;
  std::uint64_t collected_total_ = 0;
  std::uint64_t master_failed_ = 0;
  bool poisoned_ = false;
  bool master_done_ = false;
};

// ---------------------------------------------------------------------------
// request_reply: the web client/proxy of §3.2.

class RequestReply final : public Workload {
 public:
  static constexpr std::size_t kClients = 2;
  static constexpr std::size_t kProxies = 2;

  explicit RequestReply(std::uint64_t seed) : rng_(seed) {
    // Request ids start at a seeded offset; the exchange itself has no
    // other input.
    base_id_ = static_cast<std::int64_t>(rng_.next() % (std::uint64_t{1} << 40));
  }

  void setup(Transport& tx, bool traced) override {
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<Instance>(
          tx, bench_config("client-" + std::to_string(c), traced)));
      loops_.push_back(std::make_unique<LoopStats>());
    }
    for (std::size_t p = 0; p < kProxies; ++p) {
      proxies_.push_back(std::make_unique<Instance>(
          tx, bench_config("proxy-" + std::to_string(p), traced)));
    }
    warm_caches(tx, all());
  }

  void start(const RunEnv& env) override {
    env_ = env;
    next_k_.assign(kClients, 0);
    for (std::size_t p = 0; p < kProxies; ++p) proxy_next(p);
    for (std::size_t c = 0; c < kClients; ++c) {
      env_.ctl->add_loop();
      env_.step.next(clients_[c]->node(), nullptr, [this, c] { client_step(c); });
    }
  }

  bool drain(Transport& tx, transport::Duration max_wait) override {
    // One poison request per proxy: each stops after taking one.
    Instance* c0 = clients_.front().get();
    tx.post(c0->node(), [c0] {
      for (std::size_t p = 0; p < kProxies; ++p) c0->out(Tuple{"req", std::int64_t{-1}});
    });
    return tx.wait_until(
        [this] { return proxies_done_ == kProxies && quiescent(all()); }, max_wait);
  }

  std::uint64_t check(Transport& tx, std::vector<std::string>& problems) override {
    std::uint64_t bad = 0;
    auto fail = [&](const std::string& what) {
      ++bad;
      if (problems.size() < 20) problems.push_back(what);
    };
    tx.wait_until(
        [&] {
          for (Instance* i : all()) {
            const std::size_t req = i->local_space().count_matches(Pattern{"req", any_int()});
            const std::size_t resp = i->local_space().count_matches(Pattern{"resp", any_int()});
            if (req != 0 || resp != 0) {
              fail(i->name() + " still holds " + std::to_string(req) + " requests and " +
                   std::to_string(resp) + " responses");
            }
          }
          return true;
        },
        kSetupWait);
    std::uint64_t answered = 0;
    for (const auto& l : loops_) answered += l->completed.load();
    if (answered != served_) {
      fail("clients got " + std::to_string(answered) + " responses, proxies served " +
           std::to_string(served_));
    }
    return bad;
  }

  std::uint64_t helper_failures() const override { return proxy_failed_; }
  double nominal_ops_per_s() const override { return 6800; }

  std::vector<Instance*> instances() override { return all(); }
  std::vector<const LoopStats*> loops() const override {
    std::vector<const LoopStats*> out;
    for (const auto& l : loops_) out.push_back(l.get());
    return out;
  }

  ReplayShape replay_shape(std::uint64_t) const override {
    ReplayShape s;  // the spaces are empty between exchanges
    for (std::int64_t n = 0; n < 4096; ++n) {
      s.outs.push_back(Tuple{"resp", base_id_ + n});
      s.patterns.push_back(Pattern{"resp", base_id_ + n});
    }
    return s;
  }

 private:
  std::vector<Instance*> all() const {
    std::vector<Instance*> out;
    for (const auto& c : clients_) out.push_back(c.get());
    for (const auto& p : proxies_) out.push_back(p.get());
    return out;
  }

  void client_next(std::size_t c) {
    env_.step.next(clients_[c]->node(), env_.traced ? &loops_[c]->post_lag : nullptr,
                   [this, c] { client_step(c); });
  }

  void client_step(std::size_t c) {
    LoopStats& st = *loops_[c];
    if (env_.ctl->should_stop(st.attempted)) {
      env_.ctl->loop_done();
      return;
    }
    ++st.attempted;
    Instance& inst = *clients_[c];
    // Ids interleave across clients, so every request id is unique.
    const std::int64_t id =
        base_id_ + static_cast<std::int64_t>(c + kClients * next_k_[c]++);
    const std::uint64_t t0 = now_ns();
    const Status s = inst.out(Tuple{"req", id});
    const std::uint64_t t1 = now_ns();
    if (env_.traced) st.call.record(t1 - t0);
    if (s != Status::kOk) {
      ++st.failed;
      client_next(c);
      return;
    }
    const bool granted =
        inst.in(Pattern{"resp", id}, [this, c, &st, id, t0](std::optional<ReadResult> r) {
          st.record(now_ns() - t0, env_.ctl->slice());
          if (!r || r->tuple.arity() != 2 || r->tuple[1] != tiamat::tuples::Value(id)) {
            ++st.failed;
          } else {
            st.complete();
          }
          client_next(c);
        });
    if (env_.traced) st.call.record(now_ns() - t1);
    if (!granted) {
      ++st.failed;
      client_next(c);
    }
  }

  void proxy_next(std::size_t p) {
    env_.step.next(proxies_[p]->node(), nullptr, [this, p] { proxy_step(p); });
  }

  void proxy_step(std::size_t p) {
    Instance& inst = *proxies_[p];
    const bool granted =
        inst.in(Pattern{"req", any_int()}, [this, p, &inst](std::optional<ReadResult> r) {
          if (!r || r->tuple.arity() != 2 || !r->tuple[1].is_int()) {
            ++proxy_failed_;
            proxy_next(p);
            return;
          }
          const std::int64_t id = r->tuple[1].as_int();
          if (id < 0) {
            ++proxies_done_;
            return;
          }
          if (inst.out(Tuple{"resp", id}) == Status::kOk) {
            ++served_;
          } else {
            ++proxy_failed_;
          }
          proxy_next(p);
        });
    if (!granted) {
      ++proxy_failed_;
      ++proxies_done_;
    }
  }

  Rand rng_;
  std::int64_t base_id_ = 0;
  RunEnv env_;
  std::vector<std::unique_ptr<Instance>> clients_;
  std::vector<std::unique_ptr<Instance>> proxies_;
  std::vector<std::unique_ptr<LoopStats>> loops_;
  std::vector<std::uint64_t> next_k_;  ///< client c's strand only
  // Proxy counters: each proxy strand writes them, so they are atomic.
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> proxy_failed_{0};
  std::atomic<std::size_t> proxies_done_{0};
};

}  // namespace

bool Workload::settle(Transport& tx, transport::Duration max_wait) {
  const auto insts = instances();
  return tx.wait_until([&] { return quiescent(insts); }, max_wait);
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "local_keyed") return std::make_unique<LocalKeyed>(seed);
  if (name == "task_bag") return std::make_unique<TaskBag>(seed);
  if (name == "request_reply") return std::make_unique<RequestReply>(seed);
  return nullptr;
}

}  // namespace perfbench
