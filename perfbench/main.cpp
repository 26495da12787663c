// volley_perfbench: the repository benchmark's measuring program.
//
//   volley_perfbench --workload quiet_fleet|hot_shards|wire_fleet
//                    --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints one "# box {...}" line describing the machine and build, then, as
// the last line of stdout, one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit code 0 only when every correctness gate passed.
#include <malloc.h>
#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common.h"
#include "obs/trace_events.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

bool pin_this_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%llu,\"id\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.id));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

namespace {

using perfbench::RunConfig;
using perfbench::RunReport;

// The program's behaviour switches. The benchmark measures the default
// program only, so it refuses to run with any of them set.
constexpr const char* kBehaviourSwitches[] = {
    "VOLLEY_SCAN_TICKS", "VOLLEY_SCALAR_BETA", "VOLLEY_POLL_LOOP",
    "VOLLEY_NET_THREADS", "VOLLEY_URING"};

// Every run reports every metric BENCHMARK.json names. End-to-end metrics
// must come from the workload itself; a per-layer metric of a layer the
// workload does not exercise reads 0 (and is listed in the box record).
constexpr const char* kEndToEnd[] = {
    "setup_s",      "peak_rss_mb",    "cpu_ns_per_monitor_tick",
    "sampling_ratio", "episode_detect_rate", "alert_us",
    "control_us",   "cpu_us_per_poll"};
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"core.idle_tick_ns", "ns"},
    {"core.sample_ns_per_op", "ns"},
    {"core.poll_us", "us"},
    {"core.realloc_us", "us"},
    {"core.beta_evals_per_op", "1/op"},
    {"core.interval_resets_per_kop", "1/kop"},
    {"core.polls_per_kilotick", "1/kilotick"},
    {"core.forced_ops_per_kilotick", "1/kilotick"},
    {"core.local_violations_per_kilotick", "1/kilotick"},
    {"core.alloc_uniform_skips", "count"},
    {"core.alloc_floor_clamps", "count"},
    {"shard.escalation_us", "us"},
    {"shard.escalations_per_kilotick", "1/kilotick"},
    {"shard.root_reallocations", "count"},
    {"net.codec.encode_ns", "ns"},
    {"net.codec.decode_ns", "ns"},
    {"net.framing.next_ns", "ns"},
    {"net.coord.violation_to_pollreq_p50_us", "us"},
    {"net.coord.violation_to_pollreq_p99_us", "us"},
    {"net.coord.response_to_alert_p50_us", "us"},
    {"net.coord.response_to_alert_p99_us", "us"},
    {"bench.client_turnaround_p50_us", "us"},
    {"net.reactor.wakeups_per_poll", "1/poll"},
    {"net.reactor.syscalls_per_poll", "1/poll"},
    {"net.reactor.frames_per_writev", "1/writev"},
    {"net.coord.frames_in_per_poll", "1/poll"},
    {"control.attach_fanout_p50_us", "us"},
    {"control.journal_appends_per_op", "1/op"},
    {"bench.generator_lag_p99_us", "us"},
    {"bench.trace_overhead_pct", "%"},
};

/// CPU time of a fixed integer loop: how fast this box runs plain code
/// right now, recorded with every result.
double reference_loop_ms() {
  const std::int64_t t0 = perfbench::thread_cpu_ns();
  std::uint64_t a = 0;
  for (std::uint64_t k = 0; k < 100'000'000; ++k) a = a * 31 + k;
  asm volatile("" : : "r"(a));
  return static_cast<double>(perfbench::thread_cpu_ns() - t0) * 1e-6;
}

int usage() {
  std::fprintf(stderr,
               "usage: volley_perfbench --workload quiet_fleet|hot_shards|"
               "wire_fleet --seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string kernel_release() {
  utsname u{};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release + " " + u.machine;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.out_dir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value != "0";
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || !(config.seconds > 0.0)) return usage();
  for (const char* name : kBehaviourSwitches) {
    if (std::getenv(name) != nullptr) {  // NOLINT(concurrency-mt-unsafe)
      std::fprintf(stderr,
                   "volley_perfbench: %s is set; the benchmark measures the "
                   "default program only\n",
                   name);
      return 2;
    }
  }
  // Freed memory stays in the heap instead of going back to the kernel, so
  // repeated set-ups and the timed windows reuse warm pages: a VM's page
  // faults are slow and their cost varies far more than the work measured.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  // The program's own trace ring stays off: the benchmark's spans are
  // recorded outside the program.
  volley::obs::set_global_trace_enabled(false);

  const double ref_ms = reference_loop_ms();
  RunReport report;
  try {
    if (config.workload == "quiet_fleet") {
      report = perfbench::run_quiet_fleet(config);
    } else if (config.workload == "hot_shards") {
      report = perfbench::run_hot_shards(config);
    } else if (config.workload == "wire_fleet") {
      report = perfbench::run_wire_fleet(config);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "volley_perfbench: %s aborted: %s\n",
                 config.workload.c_str(), e.what());
    return 1;
  }
  if (config.trace) {
    std::string idle;
    for (const auto& [name, unit] : kPerLayer) {
      if (report.metrics.count(name)) continue;
      report.set(name, 0.0, unit);
      idle += idle.empty() ? name : std::string(" ") + name;
    }
    report.box["idle_layers"] = idle;
  } else {
    for (const char* name : kEndToEnd) {
      if (!report.metrics.count(name)) report.fail(std::string("missing metric ") + name);
    }
  }
  for (const auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.value)) report.fail("metric " + name + " is not finite");
  }

  std::ostringstream box;
  box << "{\"workload\":\"" << json_escape(config.workload)
      << "\",\"seed\":" << config.seed << ",\"seconds\":" << config.seconds
      << ",\"trace\":" << (config.trace ? 1 : 0)
      << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"kernel\":\""
      << json_escape(kernel_release()) << "\",\"compiler\":\""
      << json_escape(__VERSION__) << "\",\"cxx_flags\":\""
      << json_escape(PERFBENCH_CXX_FLAGS) << "\",\"build_type\":\""
      << json_escape(PERFBENCH_BUILD_TYPE) << "\",\"reference_loop_ms\":" << ref_ms;
  for (const auto& [key, value] : report.box) {
    box << ",\"" << json_escape(key) << "\":\"" << json_escape(value) << "\"";
  }
  box << "}";
  std::printf("# box %s\n", box.str().c_str());
  for (const auto& why : report.errors) {
    std::fprintf(stderr, "volley_perfbench: %s: %s\n", config.workload.c_str(),
                 why.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
