// Relaxed-atomic metric cells: the storage layer that makes the obs plane
// safe under the multi-threaded transport backends (DESIGN.md §13).
//
// The instruments in obs/metrics.h and obs/quantile.h keep their exact
// single-threaded API and byte-identical JSON output on the sim path; only
// the cells underneath change. Three shapes cover every instrument:
//
//   AtomicU64 / AtomicF64   one relaxed cell. Copyable (a relaxed load) so
//                           instruments that are snapshot-by-value —
//                           QuantileSketch windows and restores — keep
//                           working.
//   StripedU64              a Counter's cell: kStripes cache-line-padded
//                           adders selected by a per-thread hash, so
//                           concurrent writers never share a line. value()
//                           sums the stripes; with one thread exactly one
//                           stripe is ever touched and the total is the
//                           plain sum it always was.
//   SketchCells             a QuantileSketch's bucket table: 64 lazily
//                           CAS-installed octave groups of 32 cells each,
//                           replacing the std::map. Writers fetch_add one
//                           cell; readers walk occupied cells in ascending
//                           index order, which is what keeps snapshots
//                           deterministic.
//
// Memory order is relaxed throughout: each cell is an independent monotone
// accumulator, and the consistency a Registry snapshot promises is
// per-cell (no torn values, no going backwards) — not a cross-instrument
// cut. The lint `concurrency` rule allowlists <atomic> for exactly this
// header and obs/trace_ring.h; everything else in obs stays lock- and
// atomic-free.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tiamat::obs {

/// Monotone u64 cell; relaxed everywhere. Copy = relaxed load (snapshots).
class AtomicU64 {
 public:
  constexpr AtomicU64(std::uint64_t v = 0) noexcept : v_(v) {}  // NOLINT
  AtomicU64(const AtomicU64& o) noexcept
      : v_(o.v_.load(std::memory_order_relaxed)) {}
  AtomicU64& operator=(const AtomicU64& o) noexcept {
    v_.store(o.v_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
    return *this;
  }

  void add(std::uint64_t n) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t fetch_add(std::uint64_t n) noexcept {
    return v_.fetch_add(n, std::memory_order_relaxed);
  }
  void store(std::uint64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  std::uint64_t load() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_;
};

/// Double cell: set/load are relaxed stores/loads, add and max are CAS
/// loops. Single-threaded the CAS never retries, so the arithmetic (and
/// the serialized bytes) match the plain `double` it replaces.
class AtomicF64 {
 public:
  constexpr AtomicF64(double v = 0.0) noexcept : v_(v) {}  // NOLINT
  AtomicF64(const AtomicF64& o) noexcept
      : v_(o.v_.load(std::memory_order_relaxed)) {}
  AtomicF64& operator=(const AtomicF64& o) noexcept {
    v_.store(o.v_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
    return *this;
  }

  void store(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double load() const noexcept { return v_.load(std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
    }
  }
  /// Raises the cell to `v` if larger (sketch max tracking).
  void max_with(double v) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (cur < v && !v_.compare_exchange_weak(cur, v,
                                                std::memory_order_relaxed,
                                                std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<double> v_;
};

/// Index of the calling thread's stripe. Derived from the address of a
/// thread_local anchor (unique per live thread) — no <thread> needed, and
/// the value is stable for the thread's lifetime.
inline std::size_t thread_stripe(std::size_t stripes) noexcept {
  static thread_local const char anchor = 0;
  auto h = reinterpret_cast<std::uintptr_t>(&anchor);
  h ^= h >> 17;  // TLS blocks are aligned; fold high entropy into low bits
  h ^= h >> 7;
  return static_cast<std::size_t>(h) % stripes;
}

/// Striped monotone adder: writers on different threads land on different
/// cache lines (with high probability) and never contend; value() sums.
class StripedU64 {
 public:
  static constexpr std::size_t kStripes = 8;

  StripedU64() noexcept = default;

  void add(std::uint64_t n) noexcept {
    cells_[thread_stripe(kStripes)].v.add(n);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load();
    return total;
  }

 private:
  // 64 is the destructive-interference size everywhere this builds; the
  // std:: constant is avoided because gcc warns it is ABI-unstable.
  static constexpr std::size_t kLine = 64;
  struct alignas(kLine) Cell {
    AtomicU64 v;
  };
  Cell cells_[kStripes] = {};
};

/// QuantileSketch bucket storage: a two-level table over the bounded index
/// space of QuantileSketch::bucket_of (64 octave groups x 32 sub-buckets;
/// real indices never exceed ~1888 because values clamp at 2^62). Groups
/// are 256-byte blocks CAS-installed on first touch, so an idle sketch
/// costs one pointer array and a hot one stays within a few cache lines —
/// the same "pay for occupied buckets" footprint the map had.
class SketchCells {
 public:
  static constexpr std::uint32_t kSubBits = 5;
  static constexpr std::uint32_t kSub = 1u << kSubBits;
  static constexpr std::uint32_t kGroups = 64;
  static constexpr std::uint32_t kCells = kGroups << kSubBits;

  SketchCells() noexcept : groups_{} {}
  ~SketchCells() { clear(); }
  SketchCells(const SketchCells& o) : groups_{} { add_all(o); }
  SketchCells& operator=(const SketchCells& o) {
    if (this != &o) {
      clear();
      add_all(o);
    }
    return *this;
  }

  void add(std::uint32_t index, std::uint64_t n = 1) noexcept {
    if (index >= kCells) index = kCells - 1;  // malformed restore() input
    ensure(index >> kSubBits)->cells[index & (kSub - 1)].add(n);
  }

  std::uint64_t get(std::uint32_t index) const noexcept {
    if (index >= kCells) index = kCells - 1;
    const Group* g =
        groups_[index >> kSubBits].load(std::memory_order_acquire);
    return g == nullptr ? 0 : g->cells[index & (kSub - 1)].load();
  }

  /// Visits every occupied cell as fn(index, count), ascending index order
  /// (the determinism contract snapshots rely on).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t gi = 0; gi < kGroups; ++gi) {
      const Group* g = groups_[gi].load(std::memory_order_acquire);
      if (g == nullptr) continue;
      for (std::uint32_t si = 0; si < kSub; ++si) {
        const std::uint64_t n = g->cells[si].load();
        if (n != 0) fn((gi << kSubBits) | si, n);
      }
    }
  }

  void clear() noexcept {
    for (auto& slot : groups_) {
      delete slot.load(std::memory_order_relaxed);
      slot.store(nullptr, std::memory_order_relaxed);
    }
  }

 private:
  struct Group {
    AtomicU64 cells[kSub] = {};
  };

  Group* ensure(std::uint32_t gi) noexcept {
    Group* g = groups_[gi].load(std::memory_order_acquire);
    if (g != nullptr) return g;
    auto* fresh = new Group();
    if (groups_[gi].compare_exchange_strong(g, fresh,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      return fresh;
    }
    delete fresh;  // another writer won the install race
    return g;
  }

  void add_all(const SketchCells& o) {
    o.for_each([this](std::uint32_t index, std::uint64_t n) {
      add(index, n);
    });
  }

  std::atomic<Group*> groups_[kGroups];
};

}  // namespace tiamat::obs
