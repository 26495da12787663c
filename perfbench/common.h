// Shared helpers for the repository benchmark: clocks, order statistics,
// the in-memory span recorder, and the result record every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

inline std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}
inline std::int64_t process_cpu_ns() {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}
inline std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// empty. Sorts a copy.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       q * static_cast<double>(v.size())));
  return v[rank];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// 64-bit mix (splitmix64 finalizer): the deterministic source of every
/// generated input, keyed by (seed, stream, index).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
inline std::uint64_t hash3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return mix64(mix64(mix64(a) ^ b) ^ c);
}
/// Uniform double in [0, 1) from a hash.
inline double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

/// One recorded span: a named interval, the span that caused it (0 = none)
/// and an id shared by every span of one request.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t parent;
  std::uint64_t id;
};

/// Spans are kept in memory during the timed window and written out once
/// the run is over (see write).
class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }
  void add(const char* name, std::int64_t start, std::int64_t end,
           std::uint64_t id, std::uint64_t parent = 0) {
    spans_.push_back(Span{name, start, end, parent, id});
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// JSONL, one span per line, times relative to the first span.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// A metric as the benchmark reports it.
struct Metric {
  double value{0.0};
  std::string unit;
};

/// What one workload run hands back to main(): the correctness verdict,
/// operation counts, the metrics of the requested mode, and box facts
/// specific to the workload (pinning, offered rates).
struct RunReport {
  bool correct{true};
  std::int64_t attempted{0};
  std::int64_t failed{0};
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> box;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string out_dir;  // where traced runs write their span log
};

/// Peak resident set (VmHWM) of this process, in MB.
double peak_rss_mb();

/// Pins the calling thread to one CPU; returns false when refused.
bool pin_this_thread(int cpu);
/// The CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();

RunReport run_quiet_fleet(const RunConfig& config);
RunReport run_hot_shards(const RunConfig& config);
RunReport run_wire_fleet(const RunConfig& config);

}  // namespace perfbench
