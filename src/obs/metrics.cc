#include "obs/metrics.h"

#include <algorithm>

namespace tiamat::obs {

// ---- Registry ---------------------------------------------------------------

namespace {

template <typename Map, typename Make>
decltype(auto) lookup(Map& map, const std::string& name, Labels labels,
                      Make make) {
  std::sort(labels.begin(), labels.end());
  auto key = std::make_pair(name, std::move(labels));
  auto it = map.find(key);
  if (it == map.end()) it = map.emplace(std::move(key), make()).first;
  return *it->second;
}

// Ordered (key, instrument) pointer list, captured under the registry lock.
// Map nodes are stable and instruments are never destroyed before the
// registry, so the pointers stay valid after the lock is released — which
// is what lets iteration callbacks run unlocked.
template <typename Map, typename T>
std::vector<std::pair<const std::pair<std::string, Labels>*, const T*>>
collect(const Map& map) {
  std::vector<std::pair<const std::pair<std::string, Labels>*, const T*>> out;
  out.reserve(map.size());
  for (const auto& [key, v] : map) out.emplace_back(&key, v.get());
  return out;
}

json::Value labels_json(const Labels& labels) {
  json::Object o;
  for (const auto& [k, v] : labels) o.emplace_back(k, json::Value(v));
  return json::Value(std::move(o));
}

bool labels_from_json(const json::Value& v, Labels& out) {
  if (!v.is_object()) return false;
  for (const auto& [k, lv] : v.as_object()) {
    if (!lv.is_string()) return false;
    out.emplace_back(k, lv.as_string());
  }
  return true;
}

}  // namespace

Counter& Registry::counter(const std::string& name, Labels labels) {
  transport::MutexLock lock(mu_);
  return lookup(counters_, name, std::move(labels),
                [] { return std::make_unique<Counter>(); });
}

Gauge& Registry::gauge(const std::string& name, Labels labels) {
  transport::MutexLock lock(mu_);
  return lookup(gauges_, name, std::move(labels),
                [] { return std::make_unique<Gauge>(); });
}

QuantileSketch& Registry::sketch(const std::string& name, Labels labels) {
  transport::MutexLock lock(mu_);
  return lookup(sketches_, name, std::move(labels),
                [] { return std::make_unique<QuantileSketch>(); });
}

void Registry::for_each_counter(
    const std::function<void(const std::string&, const Labels&,
                             const Counter&)>& fn) const {
  std::vector<std::pair<const Key*, const Counter*>> items;
  {
    transport::MutexLock lock(mu_);
    items = collect<decltype(counters_), Counter>(counters_);
  }
  for (const auto& [key, c] : items) fn(key->first, key->second, *c);
}

void Registry::for_each_gauge(
    const std::function<void(const std::string&, const Labels&, const Gauge&)>&
        fn) const {
  std::vector<std::pair<const Key*, const Gauge*>> items;
  {
    transport::MutexLock lock(mu_);
    items = collect<decltype(gauges_), Gauge>(gauges_);
  }
  for (const auto& [key, g] : items) fn(key->first, key->second, *g);
}

void Registry::for_each_sketch(
    const std::function<void(const std::string&, const Labels&,
                             const QuantileSketch&)>& fn) const {
  std::vector<std::pair<const Key*, const QuantileSketch*>> items;
  {
    transport::MutexLock lock(mu_);
    items = collect<decltype(sketches_), QuantileSketch>(sketches_);
  }
  for (const auto& [key, s] : items) fn(key->first, key->second, *s);
}

json::Value Registry::snapshot() const {
  std::vector<std::pair<const Key*, const Counter*>> counter_items;
  std::vector<std::pair<const Key*, const Gauge*>> gauge_items;
  std::vector<std::pair<const Key*, const QuantileSketch*>> sketch_items;
  {
    transport::MutexLock lock(mu_);
    counter_items = collect<decltype(counters_), Counter>(counters_);
    gauge_items = collect<decltype(gauges_), Gauge>(gauges_);
    sketch_items = collect<decltype(sketches_), QuantileSketch>(sketches_);
  }
  json::Array counters;
  for (const auto& [key, c] : counter_items) {
    json::Object e;
    e.emplace_back("name", json::Value(key->first));
    e.emplace_back("labels", labels_json(key->second));
    e.emplace_back("value", json::Value(c->value()));
    counters.emplace_back(std::move(e));
  }
  json::Array gauges;
  for (const auto& [key, g] : gauge_items) {
    json::Object e;
    e.emplace_back("name", json::Value(key->first));
    e.emplace_back("labels", labels_json(key->second));
    e.emplace_back("value", json::Value(g->value()));
    gauges.emplace_back(std::move(e));
  }
  json::Array sketches;
  for (const auto& [key, s] : sketch_items) {
    json::Object e;
    e.emplace_back("name", json::Value(key->first));
    e.emplace_back("labels", labels_json(key->second));
    json::Array buckets;
    for (const auto& [index, n] : s->buckets()) {
      json::Array pair;
      pair.emplace_back(static_cast<std::int64_t>(index));
      pair.emplace_back(n);
      buckets.emplace_back(std::move(pair));
    }
    e.emplace_back("buckets", json::Value(std::move(buckets)));
    e.emplace_back("count", json::Value(s->count()));
    e.emplace_back("sum", json::Value(s->sum()));
    e.emplace_back("mean", json::Value(s->mean()));
    e.emplace_back("p50", json::Value(s->p50()));
    e.emplace_back("p90", json::Value(s->p90()));
    e.emplace_back("p99", json::Value(s->p99()));
    e.emplace_back("max", json::Value(s->max()));
    sketches.emplace_back(std::move(e));
  }
  json::Object doc;
  doc.emplace_back("counters", json::Value(std::move(counters)));
  doc.emplace_back("gauges", json::Value(std::move(gauges)));
  doc.emplace_back("sketches", json::Value(std::move(sketches)));
  return json::Value(std::move(doc));
}

std::string Registry::snapshot_json(int indent) const {
  return snapshot().dump(indent);
}

std::size_t Registry::size() const {
  transport::MutexLock lock(mu_);
  return counters_.size() + gauges_.size() + sketches_.size();
}

bool Registry::load(const json::Value& doc) {
  if (!doc.is_object()) return false;

  auto each = [&](const char* section, auto&& fn) {
    const json::Value* arr = doc.find(section);
    if (arr == nullptr || !arr->is_array()) return false;
    for (const json::Value& e : arr->as_array()) {
      const json::Value* name = e.find("name");
      const json::Value* labels = e.find("labels");
      if (name == nullptr || !name->is_string() || labels == nullptr) {
        return false;
      }
      Labels l;
      if (!labels_from_json(*labels, l)) return false;
      if (!fn(e, name->as_string(), std::move(l))) return false;
    }
    return true;
  };

  bool ok = each("counters", [&](const json::Value& e, const std::string& name,
                                 Labels l) {
    const json::Value* v = e.find("value");
    if (v == nullptr || !v->is_number()) return false;
    counter(name, std::move(l)).add(static_cast<std::uint64_t>(v->as_int()));
    return true;
  });
  ok = ok && each("gauges", [&](const json::Value& e, const std::string& name,
                                Labels l) {
    const json::Value* v = e.find("value");
    if (v == nullptr || !v->is_number()) return false;
    gauge(name, std::move(l)).set(v->as_double());
    return true;
  });
  // Sketches are optional so pre-sketch snapshots still load (the schema
  // grows without invalidating committed BENCH_*.json files).
  if (doc.find("sketches") != nullptr) {
    ok = ok && each("sketches", [&](const json::Value& e,
                                    const std::string& name, Labels l) {
      const json::Value* buckets = e.find("buckets");
      const json::Value* count = e.find("count");
      const json::Value* sum = e.find("sum");
      const json::Value* max = e.find("max");
      if (buckets == nullptr || !buckets->is_array() || count == nullptr ||
          !count->is_number() || sum == nullptr || !sum->is_number() ||
          max == nullptr || !max->is_number()) {
        return false;
      }
      QuantileSketch::Buckets b;
      for (const json::Value& pair : buckets->as_array()) {
        if (!pair.is_array() || pair.as_array().size() != 2 ||
            !pair.as_array()[0].is_number() ||
            !pair.as_array()[1].is_number()) {
          return false;
        }
        b.emplace(static_cast<std::uint32_t>(pair.as_array()[0].as_int()),
                  static_cast<std::uint64_t>(pair.as_array()[1].as_int()));
      }
      sketch(name, std::move(l))
          .restore(std::move(b), sum->as_double(),
                   static_cast<std::uint64_t>(count->as_int()),
                   max->as_double());
      return true;
    });
  }
  return ok;
}

}  // namespace tiamat::obs
