// volleyd_coordinator — the Volley coordinator as a standalone daemon.
//
//   volleyd_coordinator monitors=3 port=7601 threshold=9.0 err=0.03 \
//                       allocation=adaptive poll_timeout_ms=1000 \
//                       registry=/var/lib/volley/registry
//
// Listens for `monitors` MonitorNode connections, runs the session
// (global polls on local violations, error-allowance reallocation), prints
// each alert as it is raised, and exits when all monitors say Bye.
// port=0 picks a free port and prints it, so scripts can wire monitors up.
//
// threshold/err describe the *boot task* (task 0); further tasks are added
// at runtime with tools/volleyctl. With registry=PATH the task registry is
// durable (PATH.snapshot + PATH.journal) and a restarted coordinator
// resumes the full task set at its exact epochs.
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.h"
#include "net/coordinator_node.h"

int main(int argc, char** argv) {
  using namespace volley;
  std::vector<std::string> args(argv + 1, argv + argc);
  Config config;
  try {
    config = Config::from_args(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad arguments: %s\n", e.what());
    return 2;
  }
  if (config.has("help")) {
    std::printf("usage: volleyd_coordinator monitors=N [port=P] "
                "[threshold=T] [err=E] [allocation=adaptive|even] "
                "[total_weight=W] [poll_timeout_ms=MS] [idle_timeout_ms=MS] "
                "[heartbeat_timeout_ms=MS] [staleness_bound_ms=MS] "
                "[registry=PATH]\n");
    return 0;
  }

  net::CoordinatorNodeOptions options;
  try {
    options.monitors =
        static_cast<std::size_t>(config.get_int("monitors", 1));
    options.port = static_cast<std::uint16_t>(config.get_int("port", 0));
    options.global_threshold = config.get_double("threshold", 0.0);
    options.error_allowance = config.get_double("err", 0.01);
    options.adaptive_allocation =
        config.get_string("allocation", "adaptive") == "adaptive";
    options.poll_timeout_ms =
        static_cast<int>(config.get_int("poll_timeout_ms", 1000));
    options.idle_timeout_ms =
        static_cast<int>(config.get_int("idle_timeout_ms", 30000));
    options.heartbeat_timeout_ms =
        static_cast<int>(config.get_int("heartbeat_timeout_ms", 2000));
    options.staleness_bound_ms =
        static_cast<int>(config.get_int("staleness_bound_ms", 6000));
    options.registry_path = config.get_string("registry", "");
    // Root of a two-tier fleet (DESIGN.md §13): monitors=S aggregator
    // sessions, total_weight=the fleet-wide monitor count, so per-shard
    // threshold/allowance slices are weighted by each ShardHello's w.
    options.total_weight =
        static_cast<std::size_t>(config.get_int("total_weight", 0));
    options.on_alert = [](TaskId task, Tick tick, double value) {
      std::printf("  ALERT task=%u tick=%lld aggregate=%.3f\n", task,
                  static_cast<long long>(tick), value);
    };

    net::CoordinatorNode node(options);
    std::printf("volleyd_coordinator: listening on 127.0.0.1:%u for %zu "
                "monitor(s), T=%.3f err=%.4f (%s allocation)\n",
                node.port(), options.monitors, options.global_threshold,
                options.error_allowance,
                options.adaptive_allocation ? "adaptive" : "even");
    if (!options.registry_path.empty()) {
      const auto& load = node.registry_load_stats();
      std::printf("registry: %zu task(s) at version %llu (%s%zu journal "
                  "op(s)%s)\n",
                  node.registry().size(),
                  static_cast<unsigned long long>(node.registry().version()),
                  load.had_snapshot ? "snapshot + " : "", load.journal_ops,
                  load.journal_clean ? "" : ", torn tail dropped");
    }
    std::fflush(stdout);
    node.run();

    std::printf("session finished: %lld global polls, %lld reallocations, "
                "%lld alerts\n",
                static_cast<long long>(node.global_polls()),
                static_cast<long long>(node.reallocations()),
                static_cast<long long>(node.alert_count()));
    for (const auto& [id, ops] : node.reported_ops()) {
      std::printf("  monitor %u: %lld sampling ops\n", id,
                  static_cast<long long>(ops));
    }
    const auto& faults = node.fault_stats();
    if (faults.suspected > 0 || faults.stale_polls > 0 ||
        faults.reconnects > 0) {
      std::printf("  faults: %lld suspected, %lld dead, %lld reconnects, "
                  "%lld stale polls, %lld allowance reclaims\n",
                  static_cast<long long>(faults.suspected),
                  static_cast<long long>(faults.declared_dead),
                  static_cast<long long>(faults.reconnects),
                  static_cast<long long>(faults.stale_polls),
                  static_cast<long long>(faults.allowance_reclaims));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "volleyd_coordinator: %s\n", e.what());
    return 1;
  }
}
