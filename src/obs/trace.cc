#include "obs/trace.h"

#include <algorithm>
#include <fstream>

#include "obs/trace_ring.h"

namespace tiamat::obs {

namespace {

// Per-thread cache of (tracer -> its ring for this thread), so the ring-mode
// record() path is a vector scan (a handful of live tracers) instead of a
// lock. Entries are invalidated wholesale whenever any Tracer is destroyed:
// the generation bump makes a recycled Tracer address impossible to confuse
// with the tracer that cached the entry.
struct RingCacheEntry {
  const void* tracer;
  TraceRing* ring;
};

AtomicU64 g_tracer_generation{1};
thread_local std::uint64_t t_cache_generation = 0;
thread_local std::vector<RingCacheEntry> t_ring_cache;

}  // namespace

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kOpIssued:
      return "op_issued";
    case EventKind::kLeaseGranted:
      return "lease_granted";
    case EventKind::kLeaseRefused:
      return "lease_refused";
    case EventKind::kPeerRequest:
      return "peer_request";
    case EventKind::kPeerResponse:
      return "peer_response";
    case EventKind::kPeerTimeout:
      return "peer_timeout";
    case EventKind::kProbe:
      return "probe";
    case EventKind::kAccept:
      return "accept";
    case EventKind::kReinsert:
      return "reinsert";
    case EventKind::kCancel:
      return "cancel";
    case EventKind::kConfirm:
      return "confirm";
    case EventKind::kOpNoMatch:
      return "op_no_match";
    case EventKind::kOpExpired:
      return "op_expired";
    case EventKind::kServeStart:
      return "serve_start";
    case EventKind::kServeRefused:
      return "serve_refused";
    case EventKind::kServeMatch:
      return "serve_match";
    case EventKind::kServeReinsert:
      return "serve_reinsert";
    case EventKind::kServeConfirm:
      return "serve_confirm";
    case EventKind::kProbeBreach:
      return "probe_breach";
    case EventKind::kDecodeFailure:
      return "decode_failure";
    case EventKind::kFaultInjected:
      return "fault_injected";
  }
  return "?";
}

std::optional<EventKind> event_kind_from_string(std::string_view name) {
  // Walk the enum once; the table stays in one place (to_string's switch).
  for (int k = 0; k <= static_cast<int>(EventKind::kFaultInjected); ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

json::Value TraceEvent::to_json() const {
  json::Object o;
  o.emplace_back("at", json::Value(at));
  o.emplace_back("node", json::Value(static_cast<std::int64_t>(node)));
  o.emplace_back("origin", json::Value(static_cast<std::int64_t>(origin)));
  o.emplace_back("op", json::Value(static_cast<std::int64_t>(op_id)));
  o.emplace_back("kind", json::Value(to_string(kind)));
  if (peer != transport::kNoNode) {
    o.emplace_back("peer", json::Value(static_cast<std::int64_t>(peer)));
  }
  if (detail != 0) o.emplace_back("detail", json::Value(detail));
  return json::Value(std::move(o));
}

std::optional<TraceEvent> TraceEvent::from_json(const json::Value& v) {
  const json::Value* at = v.find("at");
  const json::Value* node = v.find("node");
  const json::Value* origin = v.find("origin");
  const json::Value* op = v.find("op");
  const json::Value* kind = v.find("kind");
  if (at == nullptr || !at->is_int() || node == nullptr || !node->is_int() ||
      origin == nullptr || !origin->is_int() || op == nullptr ||
      !op->is_int() || kind == nullptr || !kind->is_string()) {
    return std::nullopt;
  }
  auto k = event_kind_from_string(kind->as_string());
  if (!k) return std::nullopt;
  TraceEvent e;
  e.at = at->as_int();
  e.node = static_cast<transport::NodeId>(node->as_int());
  e.origin = static_cast<transport::NodeId>(origin->as_int());
  e.op_id = static_cast<std::uint64_t>(op->as_int());
  e.kind = *k;
  if (const json::Value* peer = v.find("peer"); peer != nullptr && peer->is_int()) {
    e.peer = static_cast<transport::NodeId>(peer->as_int());
  }
  if (const json::Value* d = v.find("detail"); d != nullptr && d->is_int()) {
    e.detail = d->as_int();
  }
  return e;
}

// ---- JsonlSink --------------------------------------------------------------

struct JsonlSink::Out {
  explicit Out(const std::string& path)
      : f(path, std::ios::out | std::ios::trunc) {}
  std::ofstream f;
};

JsonlSink::JsonlSink(const std::string& path)
    : out_(std::make_unique<Out>(path)) {}

JsonlSink::~JsonlSink() = default;

void JsonlSink::on_event(const TraceEvent& e) {
  out_->f << e.to_json().dump() << '\n';
}

bool JsonlSink::ok() const { return out_->f.good(); }

// ---- Tracer -----------------------------------------------------------------

Tracer::Tracer(transport::NodeId node, std::size_t capacity)
    : node_(node), capacity_(capacity == 0 ? 1 : capacity) {}

Tracer::~Tracer() {
  // Flush every thread's ring cache: any entry pointing at this tracer's
  // rings dies with it, and a future Tracer at the same address must not
  // inherit them.
  g_tracer_generation.add(1);
}

void Tracer::record(transport::Time at, transport::NodeId origin, std::uint64_t op_id,
                    EventKind kind, transport::NodeId peer, std::int64_t detail) {
  if (!enabled_) return;
  record(TraceEvent{at, node_, origin, op_id, kind, peer, detail});
}

void Tracer::record(const TraceEvent& e) {
  if (!enabled_) return;
  if (thread_rings_) {
    thread_ring()->push(e, seq_.fetch_add(1));
    return;
  }
  commit(e);
}

void Tracer::commit(const TraceEvent& e) {
  ++recorded_;
  if (sink_) sink_->on_event(e);
}

TraceRing* Tracer::thread_ring() {
  const std::uint64_t gen = g_tracer_generation.load();
  if (t_cache_generation != gen) {
    t_ring_cache.clear();
    t_cache_generation = gen;
  }
  for (const RingCacheEntry& entry : t_ring_cache) {
    if (entry.tracer == this) return entry.ring;
  }
  TraceRing* ring = nullptr;
  {
    transport::MutexLock lock(mu_);
    rings_.push_back(std::make_unique<TraceRing>(capacity_));
    ring = rings_.back().get();
  }
  t_ring_cache.push_back(RingCacheEntry{this, ring});
  return ring;
}

void Tracer::register_current_thread() { thread_ring(); }

std::size_t Tracer::drain() {
  std::vector<TraceRing::Entry> entries;
  {
    transport::MutexLock lock(mu_);
    for (const auto& ring : rings_) ring->drain(entries);
  }
  std::sort(entries.begin(), entries.end(),
            [](const TraceRing::Entry& a, const TraceRing::Entry& b) {
              return a.event.at != b.event.at ? a.event.at < b.event.at
                                              : a.seq < b.seq;
            });
  for (const TraceRing::Entry& entry : entries) commit(entry.event);
  ring_drained_.add(entries.size());
  return entries.size();
}

std::uint64_t Tracer::ring_pushed() const {
  transport::MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->pushed();
  return total;
}

std::uint64_t Tracer::ring_dropped() const {
  transport::MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->dropped();
  return total;
}

}  // namespace tiamat::obs
