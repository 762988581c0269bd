#include "apps/web.h"

namespace tiamat::apps::web {

using core::ReadResult;
using lease::FlexibleRequester;
using lease::LeaseTerms;
using tuples::any_int;
using tuples::any_string;
using tuples::Pattern;
using tuples::Tuple;

std::uint64_t WebClient::request_id() {
  // Unique across clients: node id in the high bits.
  return (static_cast<std::uint64_t>(instance_.node()) << 32) | next_req_++;
}

void WebClient::get(const std::string& url,
                    std::function<void(std::optional<std::string>)> cb,
                    transport::Duration patience) {
  ++stats_.issued;
  const std::uint64_t id = request_id();
  const transport::Time started = instance_.now();

  // The request tuple lives as long as the client is willing to wait; a
  // proxy that appears within that window can still serve it (§3.2's
  // disconnected-client benefit).
  LeaseTerms store;
  store.ttl = patience;
  instance_.out(Tuple{kReqTag, static_cast<std::int64_t>(id), url},
                FlexibleRequester{store});

  LeaseTerms wait;
  wait.ttl = patience;
  Pattern resp{kRespTag, static_cast<std::int64_t>(id), any_string()};
  bool started_op = instance_.in(
      resp,
      [this, cb = std::move(cb), started](std::optional<ReadResult> r) {
        if (r) {
          const std::string& body = r->tuple[2].as_string();
          if (body.empty()) {
            ++stats_.failed;  // proxy reported 404
            cb(std::nullopt);
          } else {
            ++stats_.completed;
            stats_.latency.observe(
                static_cast<double>(instance_.now() - started));
            cb(body);
          }
        } else {
          ++stats_.failed;
          cb(std::nullopt);
        }
      },
      FlexibleRequester{wait});
  if (!started_op) {
    ++stats_.failed;
  }
}

void ProxyServer::start() {
  if (running_) return;
  running_ = true;
  await_request();
}

void ProxyServer::await_request() {
  if (!running_ || in_flight_ >= max_concurrent) return;
  ++in_flight_;
  LeaseTerms wait;
  wait.ttl = transport::seconds(30);  // renewed each loop iteration
  Pattern req{kReqTag, any_int(), any_string()};
  instance_.in(
      req,
      [this](std::optional<ReadResult> r) {
        --in_flight_;
        if (!running_) {
          // Stopped while blocked; if we consumed a request, put it back
          // for another proxy.
          if (r) {
            instance_.out(r->tuple);
          }
          return;
        }
        if (r) {
          const auto id = static_cast<std::uint64_t>(r->tuple[1].as_int());
          serve(id, r->tuple[2].as_string(), *r);
        } else {
          await_request();  // lease expiry: just re-arm
        }
      },
      FlexibleRequester{wait});
}

void ProxyServer::serve(std::uint64_t req_id, const std::string& url,
                        const ReadResult& request) {
  auto respond = [this, req_id, request](const std::string& body) {
    Tuple resp{kRespTag, static_cast<std::int64_t>(req_id), body};
    // This worker slot is free again only once the response is produced.
    // Place the response back into the space. Putting it at the
    // *requester's* space (out-to-origin, §2.4) means the client can read
    // it even if this proxy departs right afterwards; if the client is
    // briefly unreachable the tuple is routed when it reappears.
    core::Status s = instance_.out_to_origin(request, resp,
                                             core::UnavailablePolicy::kRoute);
    if (s == core::Status::kUnavailable) {
      instance_.out(std::move(resp));  // fall back to our own space
    }
    await_request();
  };

  if (cache_enabled_) {
    auto it = cache_.find(url);
    if (it != cache_.end()) {
      ++stats_.served;
      ++stats_.cache_hits;
      respond(it->second);
      return;
    }
  }
  origin_.fetch(url, [this, url, respond](std::optional<std::string> body) {
    ++stats_.served;
    if (!body) {
      ++stats_.not_found;
      respond("");  // empty body = 404 marker
      return;
    }
    if (cache_enabled_) cache_[url] = *body;
    respond(*body);
  });
}

}  // namespace tiamat::apps::web
