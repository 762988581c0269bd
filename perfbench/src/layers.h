// Single-layer replays for the traced run: the run's own inputs pushed
// through one layer's public functions at a time, on one thread, with the
// state sized like the workload's. Each returns the median over batches of
// the per-call cost in nanoseconds.

#pragma once

#include <cstddef>
#include <vector>

#include "transport/types.h"
#include "workloads.h"

namespace perfbench {

/// LeaseManager::negotiate + Lease::release, with `active` leases already
/// held (the workload's active-lease count per instance).
double replay_lease_ns(std::size_t active);

struct SpaceReplay {
  double out_ns = 0;
  double rdp_ns = 0;
  double inp_ns = 0;
};
/// LocalTupleSpace out / rdp / inp on a space stocked like the workload.
SpaceReplay replay_space(const ReplayShape& shape);

struct IndexReplay {
  double find_matches_ns = 0;
  double find_first_ns = 0;
};
/// TupleIndex lookups with the workload's patterns over its stock, so each
/// lookup meets the workload's number of matches.
IndexReplay replay_index(const ReplayShape& shape);

struct CodecReplay {
  double encode_ns = 0;
  double decode_ns = 0;
  std::size_t messages = 0;  ///< sampled payloads that decoded
};
/// net::decode_message over payloads the run sent, and encode_message of
/// the decoded messages.
CodecReplay replay_codec(const std::vector<tiamat::transport::Payload>& sent);

}  // namespace perfbench
