// The web client / proxy-server application from §3.2, rebuilt over the
// Tiamat public API.
//
// "Clients place their identified requests into the space as tuples. The
// client then performs a blocking operation attempting to retrieve a
// response tuple with the same identifying information. Proxy servers
// perform blocking operations awaiting requests. When a request is placed
// into the space it is removed and given to a proxy server, which obtains
// the relevant pages, wraps them up in a tuple along with the original
// identifying information. The proxy server then places this tuple back
// into the space allowing it to be retrieved by the client."
//
// The benefits the paper lists — proxies added/removed invisibly (load
// balancing and failover), and clients that keep issuing requests while
// disconnected — are exercised by E9 and examples/web_proxy.cpp.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "core/instance.h"
#include "obs/quantile.h"

namespace tiamat::apps::web {

inline constexpr const char* kReqTag = "web:req";
inline constexpr const char* kRespTag = "web:resp";

/// The "rest of the web": a content universe proxies fetch from, with a
/// modelled fetch latency. Stands in for the third-party origin servers of
/// the paper's setup.
class OriginServer {
 public:
  explicit OriginServer(transport::TimerService& queue,
                        transport::Duration fetch_latency = transport::milliseconds(30))
      : queue_(queue), fetch_latency_(fetch_latency) {}

  void add_page(std::string url, std::string body) {
    pages_[std::move(url)] = std::move(body);
  }

  /// Fetches a page with simulated latency; nullopt for a 404.
  void fetch(const std::string& url,
             std::function<void(std::optional<std::string>)> cb) {
    ++fetches_;
    queue_.schedule_after(fetch_latency_, [this, url, cb = std::move(cb)] {
      auto it = pages_.find(url);
      if (it == pages_.end()) {
        cb(std::nullopt);
      } else {
        cb(it->second);
      }
    });
  }

  std::uint64_t fetches() const { return fetches_; }

 private:
  transport::TimerService& queue_;
  transport::Duration fetch_latency_;
  std::map<std::string, std::string> pages_;
  std::uint64_t fetches_ = 0;
};

/// A web client: unmodified "browser" logic glued to the space.
class WebClient {
 public:
  struct Stats {
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;  ///< lease expired before a response arrived
    obs::QuantileSketch latency;
  };

  explicit WebClient(core::Instance& instance) : instance_(instance) {}

  /// GETs a url through the space. `cb` receives the body (nullopt on
  /// 404/timeout). `patience` bounds how long the client waits — this is
  /// the lease it requests for the blocking retrieval.
  void get(const std::string& url,
           std::function<void(std::optional<std::string>)> cb,
           transport::Duration patience = transport::seconds(10));

  core::Instance& instance() { return instance_; }
  const Stats& stats() const { return stats_; }

 private:
  std::uint64_t request_id();

  core::Instance& instance_;
  std::uint64_t next_req_ = 1;
  Stats stats_;
};

/// A proxy server: loops on the space taking requests and producing
/// responses. Entirely anonymous to clients.
class ProxyServer {
 public:
  struct Stats {
    std::uint64_t served = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t not_found = 0;
  };

  ProxyServer(core::Instance& instance, OriginServer& origin,
              bool enable_cache = true)
      : instance_(instance), origin_(origin), cache_enabled_(enable_cache) {}

  /// Starts the in(request) -> fetch -> out(response) loop.
  void start();
  void stop() { running_ = false; }
  bool running() const { return running_; }

  /// How many requests this proxy handles concurrently (its "thread pool").
  /// The default single-threaded proxy is what makes adding proxies pay off.
  std::size_t max_concurrent = 1;

  core::Instance& instance() { return instance_; }
  const Stats& stats() const { return stats_; }

 private:
  void await_request();
  void serve(std::uint64_t req_id, const std::string& url,
             const core::ReadResult& request);

  core::Instance& instance_;
  OriginServer& origin_;
  bool cache_enabled_;
  bool running_ = false;
  std::size_t in_flight_ = 0;
  std::map<std::string, std::string> cache_;
  Stats stats_;
};

}  // namespace tiamat::apps::web
