// Thread-safe metrics registry (the Volley introspection plane, counters /
// gauges / fixed-bucket histograms).
//
// Design goals, in order:
//  1. Hot-path cheapness. A `Counter` increment is one relaxed atomic add;
//     instrumented code caches the `Counter&` once (registration takes a
//     mutex, increments never do). A `HistogramMetric` observation takes an
//     uncontended mutex — still tens of nanoseconds, far below the
//     20–100 ms sampling operations this system schedules
//     (`bench_micro_core` keeps both numbers honest).
//  2. Prometheus semantics. Counters are cumulative over the process
//     lifetime and never reset in production; a scraper differentiates.
//     Exposition formats: `to_prometheus()` (text format a human or a
//     Prometheus scrape can read) and `to_json()` (one machine-readable
//     snapshot object, embedded in RunResult and in the wire runtime's
//     StatsReply).
//  3. Stable handles. Registered metrics are never destroyed or moved;
//     references returned by the registry stay valid for the registry's
//     lifetime, so cached handles in samplers/monitors cannot dangle.
//
// `metrics()` returns the *current* registry: by default the process-global
// one, but a `ScopedMetricsRegistry` can rebind the calling thread to a
// private registry (and restores the previous binding on destruction).
// Scoping is what makes experiment runs share-nothing: each run records
// into its own registry (so `RunResult::metrics_json` is per-run and
// parallel sweep workers never contend on shared counter cache lines), and
// the run's registry is merged into the enclosing one afterwards so the
// global registry keeps its cumulative Prometheus semantics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "stats/histogram.h"

namespace volley::obs {

/// Monotonically increasing event count. Increments are relaxed atomic adds
/// — safe from any thread, never a lock.
class Counter {
 public:
  void inc(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Last-written instantaneous value (e.g. a current error allowance).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram (stats/Histogram under a mutex). Out-of-range
/// observations land in the edge bins and are counted as under/overflow,
/// exactly like the underlying stats::Histogram.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t bins)
      : hist_(lo, hi, bins) {}

  void observe(double x) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.add(x);
  }

  /// Observes each value i in [0, counts.size()) counts[i] times under one
  /// lock: bins, under/overflow and count equal counts[i] separate
  /// observe(i) calls (and so does the sum, exactly, while it stays an
  /// integer below 2^53). Publishes a tally of small integers at once.
  void observe_counts(std::span<const std::int64_t> counts) {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] > 0) hist_.add_n(static_cast<double>(i), counts[i]);
    }
  }

  /// Consistent copy of the underlying histogram.
  Histogram snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hist_;
  }

  /// Folds a snapshot of another histogram in (see Histogram::merge;
  /// shapes must match).
  void merge(const Histogram& other) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.merge(other);
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    hist_ = Histogram(hist_.bin_lo(0), hist_.bin_hi(hist_.bins() - 1),
                      hist_.bins());
  }

 private:
  mutable std::mutex mu_;
  Histogram hist_;
};

/// Named metric store. Registration (the `counter`/`gauge`/`histogram`
/// lookups) is mutex-guarded and idempotent: the first call creates, later
/// calls return the same object. Metric names follow the Prometheus
/// convention `[a-zA-Z_][a-zA-Z0-9_]*` (validated; bad names throw
/// std::invalid_argument).
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-unique, never-reused identity (a fresh registry at a recycled
  /// address gets a new uid). What `scoped_handles` keys its cache on:
  /// comparing addresses alone would let a cache built against a destroyed
  /// stack registry survive into its same-address successor.
  std::uint64_t uid() const { return uid_; }

  /// Finds or creates. `help` is attached on first registration (later
  /// calls may pass empty) and rendered as `# HELP` in the exposition.
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  /// Histogram buckets are fixed at first registration; a later call with
  /// different bounds returns the existing instrument unchanged.
  HistogramMetric& histogram(const std::string& name, double lo, double hi,
                             std::size_t bins, const std::string& help = "");

  /// Prometheus text exposition (HELP/TYPE headers, cumulative `_bucket`
  /// lines with `le` labels plus `_sum`/`_count` for histograms).
  std::string to_prometheus() const;

  /// One JSON object: {"counters":{..},"gauges":{..},"histograms":{..}}.
  /// Histograms carry lo/hi/buckets/underflow/overflow/count/mean.
  std::string to_json() const;

  /// Zeroes every registered instrument *in place* — handles stay valid.
  /// For tests and run-scoped accounting only; production counters are
  /// cumulative (see file header).
  void reset();

  /// Folds `other`'s instruments into this registry (parallel-shard
  /// semantics, mirroring OnlineStats::merge): counters add, histograms
  /// combine bin-by-bin (shapes must match), gauges adopt `other`'s value
  /// when `other` has the gauge (last-writer-wins, instantaneous
  /// semantics). Instruments only present in `other` are created here.
  /// A name registered with different types on the two sides throws
  /// std::invalid_argument. Thread-safe against concurrent use of either
  /// registry; merging a registry into itself is a no-op.
  void merge_from(const MetricsRegistry& other);

  std::size_t size() const;

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  const std::uint64_t uid_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// The process-global registry (the default binding of `metrics()`).
MetricsRegistry& global_metrics();

/// The calling thread's current registry: the innermost active
/// ScopedMetricsRegistry on this thread, or the process-global registry
/// when none is active. All built-in instrumentation records through this.
MetricsRegistry& metrics();

/// RAII rebinding of `metrics()` for the calling thread. Scopes nest; the
/// previous binding is restored on destruction. The registry must outlive
/// the scope. Bindings are thread-local: a scope installed on one thread
/// never affects another (each sweep worker installs its own).
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(MetricsRegistry& registry);
  ~ScopedMetricsRegistry();
  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

/// Per-thread cache of resolved instrument handles for one instrumentation
/// site. `Handles` is a default-constructible struct of Counter*/Gauge*/
/// HistogramMetric* members and `make` resolves them against a registry
/// (taking the registration mutex once). The cache re-resolves whenever the
/// calling thread's current registry changes — one integer compare on the
/// hot path, so scoped registries keep the cached-handle pattern's
/// lock-free increments. Keyed on the registry uid, not its address: run
/// scopes allocate registries on the stack, and a successor at a recycled
/// address must not inherit handles into its destroyed predecessor.
template <typename Handles>
const Handles& scoped_handles(Handles (*make)(MetricsRegistry&)) {
  thread_local std::uint64_t owner_uid = 0;  // no registry has uid 0
  thread_local Handles handles{};
  MetricsRegistry& m = metrics();
  if (m.uid() != owner_uid) {
    handles = make(m);
    owner_uid = m.uid();
  }
  return handles;
}

}  // namespace volley::obs
