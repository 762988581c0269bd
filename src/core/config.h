// Configuration and shared enums for the Tiamat core.

#pragma once

#include <cstdint>
#include <string>

#include "lease/policy.h"
#include "net/responder_cache.h"
#include "transport/types.h"

namespace tiamat::core {

/// The four propagated operations (§2.1). out/eval are not listed: they act
/// on the local space by default and have dedicated entry points.
enum class OpKind : std::uint8_t { kRd = 0, kRdp = 1, kIn = 2, kInp = 3 };

constexpr bool is_destructive(OpKind k) {
  return k == OpKind::kIn || k == OpKind::kInp;
}
constexpr bool is_blocking(OpKind k) {
  return k == OpKind::kRd || k == OpKind::kIn;
}
const char* to_string(OpKind k);

/// What to do when an out/eval directed at a specific remote space cannot
/// reach it (§2.4): "a policy, either at the application or system level,
/// must be established as to whether there are attempts to route the tuple,
/// whether it is placed in the local space, or whether the operation is
/// abandoned altogether."
enum class UnavailablePolicy : std::uint8_t {
  kAbandon = 0,  ///< drop the tuple
  kLocal = 1,    ///< fall back to the local space
  kRoute = 2,    ///< store-and-forward: retry while the lease lasts
};

struct Config {
  std::string name = "tiamat";
  bool persistent_space = false;

  /// Model vs prototype (§3.1): the model propagates operations to
  /// "instances which become visible during the lifetime of the operation";
  /// the paper's prototype only contacted instances visible at the start.
  /// true = model behaviour (blocking ops re-probe for late arrivals).
  bool propagate_to_late_arrivals = true;

  /// How long a multicast probe collects replies.
  transport::Duration probe_window = transport::milliseconds(25);

  /// How long to wait for a responder's first reply to an OpRequest before
  /// declaring it unresponsive and dropping it from the responder list.
  transport::Duration response_timeout = transport::milliseconds(60);

  /// How long a serving instance parks a tentatively-removed tuple waiting
  /// for Confirm/Release before auto-releasing it (covers originator loss).
  transport::Duration tentative_hold = transport::milliseconds(750);

  /// Re-probe period for blocking ops when propagate_to_late_arrivals.
  transport::Duration late_arrival_poll = transport::milliseconds(250);

  /// Retry period for store-and-forward routing (UnavailablePolicy::kRoute).
  transport::Duration route_retry = transport::milliseconds(500);

  /// Lease caps handed to the default policy (ignored if a policy is
  /// injected at construction).
  lease::DefaultLeasePolicy::Caps lease_caps;

  /// Responder-list discipline (§3.1.3 list vs §6 stability extension).
  net::ResponderCache::Ordering cache_ordering =
      net::ResponderCache::Ordering::kPaperList;

  /// Operation tracing (obs/trace.h) is off by default — a disabled tracer
  /// costs one predicted branch per instrumentation point. Install a sink
  /// via Instance::tracer() to capture the causal event chain of every
  /// logical-space operation. This sizes the tracer's per-thread rings
  /// (thread-ring collection on concurrent backends).
  std::size_t trace_capacity = 512;

  /// Health-probe thresholds, evaluated once per telemetry sample tick when
  /// the instance is registered with a TimeSeriesRecorder
  /// (Instance::register_telemetry). A breach emits a kProbeBreach trace
  /// event and bumps the "probe.breaches" counter; it never changes
  /// behaviour. Probes fire when value >= threshold.
  struct ProbeThresholds {
    double waiter_backlog = 16;        ///< blocked rd/in waiters parked
    double pending_acks = 32;          ///< unresolved responder replies
    double lease_expiry_per_tick = 8;  ///< blocking ops timed out this tick
    double match_p99_us = 2e6;         ///< windowed op-latency p99 (µs)
  };
  ProbeThresholds probe_thresholds;
};

}  // namespace tiamat::core
