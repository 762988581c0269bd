// Instance construction, local out/eval, directed out, handle discovery and
// the synchronous test conveniences. The logical-space originator protocol
// lives in logical_space.cc; the serving side in remote_ops.cc.

#include "core/instance.h"

#include <utility>

#include "obs/series.h"
#include "tuple/codec.h"

namespace tiamat::core {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kRd:
      return "rd";
    case OpKind::kRdp:
      return "rdp";
    case OpKind::kIn:
      return "in";
    case OpKind::kInp:
      return "inp";
  }
  return "?";
}

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kLeaseRefused:
      return "lease-refused";
    case Status::kRefusedBySpace:
      return "refused-by-space";
    case Status::kUnavailable:
      return "unavailable";
    case Status::kQueued:
      return "queued";
  }
  return "?";
}

namespace {
std::unique_ptr<lease::LeasePolicy> make_policy(
    std::unique_ptr<lease::LeasePolicy> injected, const Config& cfg) {
  if (injected) return injected;
  return std::make_unique<lease::DefaultLeasePolicy>(cfg.lease_caps);
}
}  // namespace

Instance::Instance(transport::Transport& tx, Config cfg,
                   std::unique_ptr<lease::LeasePolicy> policy,
                   transport::NodeOptions pos)
    : tx_(tx),
      cfg_(std::move(cfg)),
      node_(tx_.add_node(pos)),
      timers_(tx_.timers(node_)),
      tracer_(node_, cfg_.trace_capacity),
      flight_(node_),
      rng_(tx_.fork_rng()),
      endpoint_(tx_, node_),
      leases_(timers_, make_policy(std::move(policy), cfg_)),
      space_(timers_, rng_,
             space::SpaceOptions{cfg_.name, cfg_.persistent_space}),
      evals_(timers_, space_),
      cache_(cfg_.cache_ordering),
      discovery_(endpoint_, timers_, cache_),
      correlator_(timers_),
      router_(timers_, cfg_.route_retry,
              [this](transport::NodeId dest, const Tuple& t, std::uint64_t id,
                     transport::Duration ttl) { send_remote_out(dest, t, id, ttl); }) {
  leases_.set_usage_probe([this] {
    lease::ResourceUsage u;
    u.stored_bytes = space_.footprint();
    u.stored_tuples = space_.size();
    return u;
  });
  // If the injected policy is the §5 adaptive one, feed it op outcomes.
  adaptive_ = dynamic_cast<AdaptiveLeasePolicy*>(&leases_.policy());
  // One registry (the Monitor's) aggregates every subsystem's telemetry.
  leases_.bind_metrics(monitor_.registry());
  space_.bind_metrics(monitor_.registry());
  cache_.bind_metrics(monitor_.registry());
  correlator_.bind_metrics(monitor_.registry());
  discovery_.enable_responder();
  // Endpoint drop paths surface in the metric snapshot and the trace.
  endpoint_.publish_stats(monitor_.registry());
  endpoint_.set_decode_failure_hook([this](transport::NodeId from) {
    trace(obs::EventKind::kDecodeFailure, node_, 0, from);
  });
  install_handlers();
  // Publish this space's handle tuple (§2.4). It carries no lease: the
  // handle lives exactly as long as the instance.
  space_.out(space::make_handle_tuple(handle()));
}

Instance::~Instance() {
  // Model departure from the environment: in-flight packets to this node
  // are dropped and it stops being visible. This comes first because on a
  // concurrent backend remove_node is the fence: once it returns, none of
  // this node's callbacks is running or will run, so the walks below cannot
  // race a reply, release or hold-timer task on the strand.
  if (tx_.node_exists(node_)) tx_.remove_node(node_);
  // Cancel every timer that captures `this` before members are torn down
  // (the node's TimerService outlives remove_node for exactly this).
  transport::TimerService& q = timers_;
  for (auto& [id, op] : ops_) {
    (void)id;
    for (auto& [node, ev] : op.ack_timers) {
      (void)node;
      q.cancel(ev);
    }
    if (op.repoll_timer != transport::kInvalidEvent) q.cancel(op.repoll_timer);
  }
  for (auto& [key, s] : serving_) {
    (void)key;
    if (s.hold_timer != transport::kInvalidEvent) q.cancel(s.hold_timer);
  }
  for (auto& [id, pc] : confirms_) {
    (void)id;
    if (pc.timer != transport::kInvalidEvent) q.cancel(pc.timer);
  }
}

space::SpaceHandle Instance::handle() const {
  return space::SpaceHandle{node_, cfg_.name, cfg_.persistent_space};
}

void Instance::register_telemetry(obs::TimeSeriesRecorder& rec) {
  const std::string label = cfg_.name;
  rec.add_source(label, &monitor_.registry(),
                 [this] { space_.export_memory_gauges(monitor_.registry()); });

  // Every breach leaves the same two footprints: a kProbeBreach trace event
  // (detail = the sampled value, truncated) and a per-probe breach counter.
  auto breach = [this](const char* probe) {
    return [this, probe](double value, transport::Time) {
      trace(obs::EventKind::kProbeBreach, node_, 0, transport::kNoNode,
            static_cast<std::int64_t>(value));
      ++monitor_.registry().counter("probe.breaches", {{"probe", probe}});
    };
  };

  const Config::ProbeThresholds& th = cfg_.probe_thresholds;
  rec.add_probe(label, obs::Probe{
                           "waiter_backlog",
                           th.waiter_backlog,
                           [this] {
                             return static_cast<double>(space_.waiter_count());
                           },
                           breach("waiter_backlog"),
                       });
  rec.add_probe(label, obs::Probe{
                           "pending_acks",
                           th.pending_acks,
                           [this] {
                             return static_cast<double>(pending_ack_count());
                           },
                           breach("pending_acks"),
                       });
  // Rate probes are windowed: each tick samples the change since the
  // previous tick, not the lifetime total.
  rec.add_probe(label,
                obs::Probe{
                    "lease_expiry_rate",
                    th.lease_expiry_per_tick,
                    [this, prev = std::uint64_t{0}]() mutable {
                      const std::uint64_t cur =
                          monitor_.counters().lease_expired.value();
                      const double d = static_cast<double>(cur - prev);
                      prev = cur;
                      return d;
                    },
                    breach("lease_expiry_rate"),
                });
  rec.add_probe(label,
                obs::Probe{
                    "match_latency_p99_us",
                    th.match_p99_us,
                    [this, prev = obs::QuantileSketch{}]() mutable {
                      const obs::QuantileSketch& cur = monitor_.op_latency();
                      const obs::QuantileSketch win = cur.delta_since(prev);
                      prev = cur;
                      return win.count() == 0 ? 0.0 : win.p99();
                    },
                    breach("match_latency_p99_us"),
                });
}

// ---- out / eval -------------------------------------------------------------

Status Instance::out(Tuple t) {
  return do_out(std::move(t), lease::FlexibleRequester{});
}

Status Instance::out(Tuple t, const lease::LeaseRequester& requester) {
  return do_out(std::move(t), requester);
}

Status Instance::do_out(Tuple t, const lease::LeaseRequester& requester) {
  auto l = leases_.negotiate(requester);
  if (!l) {
    ++monitor_.counters().outs_refused;
    return Status::kLeaseRefused;
  }
  if (!l->charge_bytes(t.footprint())) {
    // "The local space may be refusing to accept the tuple due to resource
    // shortages" (§2.4): the granted byte budget cannot cover the tuple.
    ++monitor_.counters().outs_refused;
    l->release();
    return Status::kRefusedBySpace;
  }
  tuples::TupleId id = space_.out(std::move(t));
  ++monitor_.counters().outs_local;
  if (id == tuples::kNoTuple) {
    // Consumed synchronously by a blocked waiter; storage never happened.
    l->release();
    return Status::kOk;
  }
  // The tuple lives exactly as long as its storage lease (§2.5): expiry or
  // revocation reclaims it; an explicit release would leave it (the holder
  // gave the lease back without asking for reclamation — not used by the
  // public API, which lets leases run their course).
  l->on_end([this, id](lease::LeaseState st) {
    if (st != lease::LeaseState::kReleased) space_.reclaim(id);
  });
  return Status::kOk;
}

Status Instance::eval(space::ActiveTuple at) {
  return do_eval(std::move(at), lease::FlexibleRequester{});
}

Status Instance::eval(space::ActiveTuple at,
                      const lease::LeaseRequester& requester) {
  return do_eval(std::move(at), requester);
}

Status Instance::do_eval(space::ActiveTuple at,
                         const lease::LeaseRequester& requester) {
  auto l = leases_.negotiate(requester);
  if (!l) {
    ++monitor_.counters().outs_refused;
    return Status::kLeaseRefused;
  }
  ++monitor_.counters().evals_started;
  const transport::Time halt_by = l->expiry_time();
  // The resultant tuple inherits the operation's lease horizon: "when the
  // lease expires the resultant computation (if it has not already
  // finished) may be halted and the tuple may be removed" (§2.5).
  space::EvalId eid = evals_.submit(std::move(at), halt_by, halt_by);
  l->on_end([this, eid](lease::LeaseState st) {
    if (st == lease::LeaseState::kRevoked) evals_.halt(eid);
  });
  return Status::kOk;
}

// ---- Directed out (§2.4) ------------------------------------------------------

Status Instance::out_at(const space::SpaceHandle& dest, Tuple t,
                        UnavailablePolicy policy) {
  return do_directed_out(dest.node, std::move(t), lease::FlexibleRequester{},
                         policy);
}

Status Instance::out_at(const space::SpaceHandle& dest, Tuple t,
                        const lease::LeaseRequester& requester,
                        UnavailablePolicy policy) {
  return do_directed_out(dest.node, std::move(t), requester, policy);
}

Status Instance::out_to_origin(const ReadResult& from, Tuple t,
                               UnavailablePolicy policy) {
  return do_directed_out(from.source, std::move(t),
                         lease::FlexibleRequester{}, policy);
}

Status Instance::out_to_origin(const ReadResult& from, Tuple t,
                               const lease::LeaseRequester& requester,
                               UnavailablePolicy policy) {
  return do_directed_out(from.source, std::move(t), requester, policy);
}

Status Instance::do_directed_out(transport::NodeId dest, Tuple t,
                                 const lease::LeaseRequester& requester,
                                 UnavailablePolicy policy) {
  if (dest == node_) return do_out(std::move(t), requester);

  auto l = leases_.negotiate(requester);
  if (!l) {
    ++monitor_.counters().outs_refused;
    return Status::kLeaseRefused;
  }
  const transport::Time expiry = l->expiry_time();
  // The local negotiation bounds *our* effort; the destination negotiates
  // its own storage lease when the tuple arrives (§2.5: leases are not
  // transferable across instances).
  l->release();

  if (tx_.visible(node_, dest)) {
    std::uint64_t route_id = router_.enqueue(dest, std::move(t), expiry);
    (void)route_id;  // first attempt fires inside enqueue
    ++monitor_.counters().remote_outs_delivered;
    return Status::kOk;
  }

  switch (policy) {
    case UnavailablePolicy::kAbandon:
      ++monitor_.counters().remote_outs_abandoned;
      return Status::kUnavailable;
    case UnavailablePolicy::kLocal: {
      Status s = do_out(std::move(t), requester);
      return s;
    }
    case UnavailablePolicy::kRoute:
      router_.enqueue(dest, std::move(t), expiry);
      ++monitor_.counters().remote_outs_routed;
      return Status::kQueued;
  }
  return Status::kUnavailable;
}

void Instance::send_remote_out(transport::NodeId dest, const Tuple& t,
                               std::uint64_t route_id, transport::Duration ttl) {
  Message m;
  m.type = net::kRemoteOut;
  m.op_id = route_id;
  m.origin = node_;
  m.h(static_cast<std::int64_t>(ttl == transport::kNever ? -1 : ttl));
  m.tuple = t;
  endpoint_.send(dest, m);
}

Status Instance::eval_at(const space::SpaceHandle& dest,
                         const std::string& name, Tuple args,
                         std::function<void(bool)> done) {
  if (dest.node == node_) {
    const auto* c = registry_.find(name);
    if (c == nullptr) {
      if (done) done(false);
      return Status::kUnavailable;
    }
    auto l = leases_.negotiate(lease::FlexibleRequester{});
    if (!l) {
      ++monitor_.counters().outs_refused;
      if (done) done(false);
      return Status::kLeaseRefused;
    }
    ++monitor_.counters().evals_started;
    const transport::Time halt_by = l->expiry_time();
    space::EvalId eid = evals_.submit_fn([c, args] { return c->fn(args); },
                                         c->cost(args), halt_by, halt_by);
    l->on_end([this, eid](lease::LeaseState st) {
      if (st == lease::LeaseState::kRevoked) evals_.halt(eid);
    });
    if (done) done(true);
    return Status::kOk;
  }

  auto l = leases_.negotiate(lease::FlexibleRequester{});
  if (!l) {
    ++monitor_.counters().outs_refused;
    if (done) done(false);
    return Status::kLeaseRefused;
  }
  const transport::Time expiry = l->expiry_time();
  l->release();  // local effort only; the destination leases the real work
  if (!tx_.visible(node_, dest.node)) {
    ++monitor_.counters().remote_outs_abandoned;
    if (done) done(false);
    return Status::kUnavailable;
  }
  const std::uint64_t id = correlator_.next_op_id();
  Message m;
  m.type = net::kRemoteEval;
  m.op_id = id;
  m.origin = node_;
  m.h(name);
  m.h(static_cast<std::int64_t>(
      expiry == transport::kNever ? -1 : expiry - tx_.now()));
  m.tuple = std::move(args);
  if (done) {
    correlator_.expect(
        id,
        [done](transport::NodeId, const Message& r) {
          done(!r.headers.empty() && r.hbool(0));
          return false;
        },
        tx_.now() + cfg_.response_timeout * 4,
        [done] { done(false); });
  }
  endpoint_.send(dest.node, m);
  return Status::kOk;
}

// ---- Logical-space entry points ----------------------------------------------

bool Instance::rd(const Pattern& p, ReadCallback cb) {
  return start_op(OpKind::kRd, p, std::move(cb), lease::FlexibleRequester{});
}
bool Instance::rd(const Pattern& p, ReadCallback cb,
                  const lease::LeaseRequester& requester) {
  return start_op(OpKind::kRd, p, std::move(cb), requester);
}
bool Instance::rdp(const Pattern& p, ReadCallback cb) {
  return start_op(OpKind::kRdp, p, std::move(cb), lease::FlexibleRequester{});
}
bool Instance::rdp(const Pattern& p, ReadCallback cb,
                   const lease::LeaseRequester& requester) {
  return start_op(OpKind::kRdp, p, std::move(cb), requester);
}
bool Instance::in(const Pattern& p, ReadCallback cb) {
  return start_op(OpKind::kIn, p, std::move(cb), lease::FlexibleRequester{});
}
bool Instance::in(const Pattern& p, ReadCallback cb,
                  const lease::LeaseRequester& requester) {
  return start_op(OpKind::kIn, p, std::move(cb), requester);
}
bool Instance::inp(const Pattern& p, ReadCallback cb) {
  return start_op(OpKind::kInp, p, std::move(cb), lease::FlexibleRequester{});
}
bool Instance::inp(const Pattern& p, ReadCallback cb,
                   const lease::LeaseRequester& requester) {
  return start_op(OpKind::kInp, p, std::move(cb), requester);
}

bool Instance::rd_at(const space::SpaceHandle& dest, const Pattern& p,
                     ReadCallback cb) {
  return op_at(OpKind::kRd, dest, p, std::move(cb),
               lease::FlexibleRequester{});
}
bool Instance::rdp_at(const space::SpaceHandle& dest, const Pattern& p,
                      ReadCallback cb) {
  return op_at(OpKind::kRdp, dest, p, std::move(cb),
               lease::FlexibleRequester{});
}
bool Instance::in_at(const space::SpaceHandle& dest, const Pattern& p,
                     ReadCallback cb) {
  return op_at(OpKind::kIn, dest, p, std::move(cb),
               lease::FlexibleRequester{});
}
bool Instance::inp_at(const space::SpaceHandle& dest, const Pattern& p,
                      ReadCallback cb) {
  return op_at(OpKind::kInp, dest, p, std::move(cb),
               lease::FlexibleRequester{});
}

// ---- Handle discovery ----------------------------------------------------------

void Instance::enumerate_handles(
    std::function<void(std::vector<space::SpaceHandle>)> cb) {
  discovery_.probe(cfg_.probe_window, [this, cb = std::move(cb)](std::size_t) {
    auto handles = std::make_shared<std::vector<space::SpaceHandle>>();
    handles->push_back(handle());
    const auto order = cache_.contact_order();
    auto remaining = std::make_shared<std::size_t>(order.size());
    if (order.empty()) {
      cb(*handles);
      return;
    }
    auto done_one = [handles, remaining, cb](std::optional<ReadResult> r) {
      if (r) {
        if (auto h = space::parse_handle_tuple(r->tuple)) {
          handles->push_back(*h);
        }
      }
      if (--*remaining == 0) cb(*handles);
    };
    for (transport::NodeId target : order) {
      space::SpaceHandle dest;
      dest.node = target;
      if (!rdp_at(dest, space::handle_pattern(), done_one)) {
        if (--*remaining == 0) cb(*handles);
      }
    }
  });
}

// ---- Synchronous conveniences ---------------------------------------------------

namespace {
std::optional<ReadResult> run_op(Instance& i, OpKind kind, const Pattern& p) {
  auto out = std::make_shared<std::optional<ReadResult>>();
  auto fired = std::make_shared<bool>(false);
  auto cb = [out, fired](std::optional<ReadResult> r) {
    *out = std::move(r);
    *fired = true;
  };
  bool granted = false;
  switch (kind) {
    case OpKind::kRd:
      granted = i.rd(p, cb);
      break;
    case OpKind::kRdp:
      granted = i.rdp(p, cb);
      break;
    case OpKind::kIn:
      granted = i.in(p, cb);
      break;
    case OpKind::kInp:
      granted = i.inp(p, cb);
      break;
  }
  if (!granted) return std::nullopt;
  // Blocking ops wait up to their lease TTL; leave headroom beyond it so the
  // expiry path itself can run before the wait gives up.
  i.transport().wait_until(
      [&] { return *fired; },
      i.config().lease_caps.max_ttl + 10 * transport::kSecond);
  if (!*fired) return std::nullopt;
  return *out;
}
}  // namespace

std::optional<ReadResult> run_rd(Instance& i, const Pattern& p) {
  return run_op(i, OpKind::kRd, p);
}
std::optional<ReadResult> run_rdp(Instance& i, const Pattern& p) {
  return run_op(i, OpKind::kRdp, p);
}
std::optional<ReadResult> run_in(Instance& i, const Pattern& p) {
  return run_op(i, OpKind::kIn, p);
}
std::optional<ReadResult> run_inp(Instance& i, const Pattern& p) {
  return run_op(i, OpKind::kInp, p);
}

}  // namespace tiamat::core
