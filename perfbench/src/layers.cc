#include "layers.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "lease/manager.h"
#include "lease/policy.h"
#include "net/message.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "space/local_space.h"
#include "tuple/index.h"
#include "tuple/matcher.h"

namespace perfbench {

namespace {

constexpr std::size_t kBatch = 64;
constexpr std::size_t kBatches = 200;

/// Sink the compiler cannot see through, so replayed results are not
/// optimised away.
volatile std::size_t g_sink = 0;

}  // namespace

double replay_lease_ns(std::size_t active) {
  tiamat::sim::EventQueue queue;
  const tiamat::core::Config cfg = bench_config("replay", false);
  tiamat::lease::LeaseManager mgr(
      queue, std::make_unique<tiamat::lease::DefaultLeasePolicy>(cfg.lease_caps));
  const tiamat::lease::FlexibleRequester want;
  std::vector<std::shared_ptr<tiamat::lease::Lease>> held;
  held.reserve(active);
  for (std::size_t i = 0; i < active; ++i) held.push_back(mgr.negotiate(want));

  std::vector<double> per_call;
  std::vector<std::shared_ptr<tiamat::lease::Lease>> batch(kBatch);
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = now_ns();
    for (auto& l : batch) l = mgr.negotiate(want);
    for (auto& l : batch) {
      if (l) l->release();
    }
    per_call.push_back(static_cast<double>(now_ns() - t0) / kBatch);
  }
  return median(per_call);
}

SpaceReplay replay_space(const ReplayShape& shape) {
  tiamat::sim::EventQueue queue;
  tiamat::sim::Rng rng(0x5eed);
  // A workload whose spaces are empty between ops (request_reply) gets one
  // space per batch slot, so each replayed op meets one tuple, not a batch.
  const std::size_t spaces = shape.stock.empty() ? kBatch : 1;
  std::vector<std::unique_ptr<tiamat::space::LocalTupleSpace>> sp;
  for (std::size_t i = 0; i < spaces; ++i) {
    sp.push_back(std::make_unique<tiamat::space::LocalTupleSpace>(queue, rng));
  }
  for (const auto& t : shape.stock) sp.front()->out(t);

  std::vector<double> outs, rdps, inps;
  const std::size_t n = shape.outs.size();
  std::size_t next = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::size_t first = next;
    std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kBatch; ++i) {
      sp[i % spaces]->out(shape.outs[(first + i) % n]);
    }
    outs.push_back(static_cast<double>(now_ns() - t0) / kBatch);
    t0 = now_ns();
    for (std::size_t i = 0; i < kBatch; ++i) {
      g_sink = g_sink + sp[i % spaces]->rdp(shape.patterns[(first + i) % n]).has_value();
    }
    rdps.push_back(static_cast<double>(now_ns() - t0) / kBatch);
    t0 = now_ns();
    for (std::size_t i = 0; i < kBatch; ++i) {
      g_sink = g_sink + sp[i % spaces]->inp(shape.patterns[(first + i) % n]).has_value();
    }
    inps.push_back(static_cast<double>(now_ns() - t0) / kBatch);
    next = (first + kBatch) % n;
  }
  return SpaceReplay{median(outs), median(rdps), median(inps)};
}

IndexReplay replay_index(const ReplayShape& shape) {
  // As in replay_space: an empty-stock workload gets one index per batch
  // slot, each holding the single tuple its pattern is looking for.
  const std::size_t indexes = shape.stock.empty() ? kBatch : 1;
  std::vector<tiamat::tuples::TupleIndex> idx(indexes);
  tiamat::tuples::TupleId id = 1;
  for (const auto& t : shape.stock) idx.front().insert(id++, t);
  std::vector<tiamat::tuples::CompiledPattern> patterns;
  for (const auto& p : shape.patterns) patterns.emplace_back(p);

  std::vector<double> all, first;
  const std::size_t n = patterns.size();
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::size_t base = (b * kBatch) % n;
    if (shape.stock.empty()) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        idx[i] = tiamat::tuples::TupleIndex{};
        idx[i].insert(1, shape.outs[(base + i) % n]);
      }
    }
    std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kBatch; ++i) {
      g_sink = g_sink + idx[i % indexes].find_matches(patterns[(base + i) % n]).size();
    }
    all.push_back(static_cast<double>(now_ns() - t0) / kBatch);
    t0 = now_ns();
    for (std::size_t i = 0; i < kBatch; ++i) {
      g_sink = g_sink + idx[i % indexes].find_first(patterns[(base + i) % n]).has_value();
    }
    first.push_back(static_cast<double>(now_ns() - t0) / kBatch);
  }
  return IndexReplay{median(all), median(first)};
}

CodecReplay replay_codec(const std::vector<tiamat::transport::Payload>& sent) {
  std::vector<tiamat::net::Message> msgs;
  for (const auto& p : sent) {
    if (auto m = tiamat::net::decode_message(p)) msgs.push_back(std::move(*m));
  }
  CodecReplay r;
  r.messages = msgs.size();
  if (msgs.empty()) return r;
  std::vector<double> enc, dec;
  const std::size_t n = sent.size();
  const std::size_t m = msgs.size();
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::size_t base = (b * kBatch) % n;
    std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kBatch; ++i) {
      g_sink = g_sink + tiamat::net::decode_message(sent[(base + i) % n]).has_value();
    }
    dec.push_back(static_cast<double>(now_ns() - t0) / kBatch);
    t0 = now_ns();
    for (std::size_t i = 0; i < kBatch; ++i) {
      g_sink = g_sink + tiamat::net::encode_message(msgs[(base + i) % m]).size();
    }
    enc.push_back(static_cast<double>(now_ns() - t0) / kBatch);
  }
  r.encode_ns = median(enc);
  r.decode_ns = median(dec);
  return r;
}

}  // namespace perfbench
