// Checked-in catalog of every metric name the codebase instruments.
//
// Why a catalog: instruments are created on first use by *string name*, so
// a typo'd name ("op.strated") silently creates a fresh, forever-zero
// instrument instead of failing. `scripts/lint_tiamat.py`'s `metric-name`
// rule cross-checks every `counter(...)` / `gauge(...)` / `sketch(...)`
// call in src/ and bench/ against this list, making the name
// set a reviewed, diffable contract. Add the name here in the same PR that
// introduces the instrument.
//
// Names follow `<subsystem>.<what>` with label dimensions (peer, op,
// scenario, ...) supplied at the call site, never baked into the name.

#pragma once

#include <string_view>

namespace tiamat::obs::metric_names {

inline constexpr std::string_view kCatalog[] = {
    // engine accounting (src/tuple, mirrored by MatchMetrics under the
    // "match." / "waiters." prefixes; bench_match exports "engine.")
    "engine.bucket_probes",
    "engine.candidates",
    "engine.candidates_per_lookup",
    "engine.rejected",
    "engine.scan_fallbacks",
    "match.bucket_probes",
    "match.candidates",
    "match.rejected",
    "match.scan_fallbacks",
    "waiters.bucket_probes",
    "waiters.candidates",
    "waiters.rejected",
    "waiters.scan_fallbacks",
    // eval engine
    "eval.started",
    // chaos/fuzz harness (chaos::Runner): schedule-entry accounting, so a
    // run can assert its injected faults actually fired
    "chaos.events",
    "chaos.faults",
    "chaos.ops",
    "chaos.skipped",
    "chaos.traps",
    // lease subsystem (src/lease)
    "lease.active",
    "lease.expired",
    "lease.granted",
    "lease.refused_by_policy",
    "lease.refused_by_requester",
    "lease.released",
    "lease.revoked",
    // network cost (bench export, from sim::Network accounting)
    "net.bytes",
    // endpoint drop paths (net::Endpoint::publish_stats)
    "net.decode_failures",
    "net.deliveries",
    "net.drops",
    // per-cause drop counters from sim::Network accounting (bench export
    // and chaos::Runner): invisible = no visibility at send/arrival,
    // loss = random loss, dead = destination removed/offline/restarted
    "net.drops.dead",
    "net.drops.invisible",
    "net.drops.loss",
    "net.multicasts",
    "net.peer.bytes",
    "net.peer.messages",
    "net.unhandled",
    "net.unicasts",
    // logical-space operations (core::Monitor)
    "op.cancels_sent",
    "op.latency_us",
    "op.lease_expired",
    "op.lease_refused",
    "op.no_match",
    "op.probes",
    "op.satisfied_local",
    "op.satisfied_remote",
    "op.started",
    // local outs/evals
    "out.local",
    "out.refused",
    // health probes (core::Instance::register_telemetry)
    "probe.breaches",
    // responder cache / peer reliability (src/net)
    "peer.response_rate",
    "remote_out.abandoned",
    "remote_out.delivered",
    "remote_out.routed",
    "responders.added",
    "responders.removed",
    "responders.size",
    // rpc correlator (src/net)
    "rpc.deadline_expired",
    "rpc.open_exchanges",
    "rpc.routed",
    "rpc.stale",
    "rpc.timeouts",
    // serving side (core::Monitor)
    "serve.refused",
    "serve.reinserted",
    "serve.requests",
    // space memory accounting (LocalTupleSpace::export_memory_gauges and
    // the bench-side export_space_memory)
    "space.bytes",
    "space.tentative",
    "space.tuple_bytes",
    "space.tuples",
    "space.waiter_bytes",
    "space.waiters",
    // transport-backend accounting (bench_loopback: delivery totals from
    // the selected backend plus the wall-clock throughput headline)
    "transport.bytes",
    "transport.deliveries",
    "transport.multicasts",
    "transport.ops",
    "transport.ops_per_sec",
    // loopback scheduler telemetry (obs::SchedExporter over
    // LoopbackTransport::sched_stats(); labeled {worker} except lock_wait;
    // inbox_wait times enqueuers blocked on a worker's inbox lock)
    "transport.sched.cancels",
    "transport.sched.inbox_wait_us",
    "transport.sched.lock_wait_us",
    "transport.sched.queue_depth",
    "transport.sched.queue_depth_max",
    "transport.sched.strand_lag_avg_us",
    "transport.sched.strand_lag_max_us",
    "transport.sched.tasks",
    "transport.sched.tombstones",
    "transport.sched.utilization",
    "transport.unicasts",
    "transport.workers",
};

/// True when `name` is a catalogued metric name (tiamat-inspect flags
/// snapshots containing uncatalogued instruments).
inline constexpr bool catalogued(std::string_view name) {
  for (std::string_view n : kCatalog) {
    if (n == name) return true;
  }
  return false;
}

}  // namespace tiamat::obs::metric_names
