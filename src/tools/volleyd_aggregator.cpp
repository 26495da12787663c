// volleyd_aggregator — the middle tier of a two-level Volley fleet
// (DESIGN.md §13) as a standalone daemon.
//
//   volleyd_aggregator shard=1 monitors=4 coordinator_port=7601
//                      listen_port=7611 threshold=3.0 err=0.01
//                      [allocation=adaptive|even] [summary_interval_ms=500]
//
// Joins the root coordinator at coordinator_host:coordinator_port as shard
// `shard` with weight `monitors`, and listens on listen_port for that many
// MonitorNode connections. threshold/err describe the *shard's slice* of
// the boot task: threshold is T_s (what the subset's local thresholds sum
// to) and err is err_s (the shard's error budget) — the driver must slice
// the global task consistently across shards, exactly as it already splits
// local thresholds across monitors in a flat fleet. listen_port=0 picks a
// free port and prints it so scripts can wire monitors up.
//
// Runs until the shard's monitors say Bye and the root acknowledges the
// shard's own Bye (or the root is lost — the shard then completes
// standalone; the subset guarantee needs no root).
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.h"
#include "net/aggregator_node.h"

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
    std::printf(
        "usage: volleyd_aggregator shard=ID monitors=N coordinator_port=P "
        "[coordinator_host=H] [listen_port=P] [threshold=T_s] [err=E_s] "
        "[allocation=adaptive|even] [summary_interval_ms=MS] "
        "[heartbeat_interval_ms=MS] [poll_timeout_ms=MS] "
        "[idle_timeout_ms=MS] [heartbeat_timeout_ms=MS] "
        "[staleness_bound_ms=MS] [registry=PATH]\n");
    return 0;
  }

  net::AggregatorNodeOptions options;
  try {
    options.shard_id = static_cast<std::uint32_t>(config.get_int("shard", 0));
    options.monitors =
        static_cast<std::size_t>(config.get_int("monitors", 1));
    options.coordinator_host =
        config.get_string("coordinator_host", "127.0.0.1");
    options.coordinator_port =
        static_cast<std::uint16_t>(config.get_int("coordinator_port", 0));
    options.listen_port =
        static_cast<std::uint16_t>(config.get_int("listen_port", 0));
    options.global_threshold = config.get_double("threshold", 0.0);
    options.error_allowance = config.get_double("err", 0.01);
    options.adaptive_allocation =
        config.get_string("allocation", "adaptive") == "adaptive";
    options.summary_interval_ms =
        static_cast<int>(config.get_int("summary_interval_ms", 500));
    options.heartbeat_interval_ms =
        static_cast<int>(config.get_int("heartbeat_interval_ms", 500));
    options.poll_timeout_ms =
        static_cast<int>(config.get_int("poll_timeout_ms", 1000));
    options.idle_timeout_ms =
        static_cast<int>(config.get_int("idle_timeout_ms", 30000));
    options.heartbeat_timeout_ms =
        static_cast<int>(config.get_int("heartbeat_timeout_ms", 2000));
    options.staleness_bound_ms =
        static_cast<int>(config.get_int("staleness_bound_ms", 6000));
    options.registry_path = config.get_string("registry", "");
    if (options.coordinator_port == 0) {
      std::fprintf(stderr,
                   "volleyd_aggregator: coordinator_port=P is required\n");
      return 2;
    }

    net::AggregatorNode node(options);
    std::printf("volleyd_aggregator: shard %u listening on 127.0.0.1:%u for "
                "%zu monitor(s); root at %s:%u, T_s=%.3f err_s=%.4f\n",
                options.shard_id, node.port(), options.monitors,
                options.coordinator_host.c_str(), options.coordinator_port,
                options.global_threshold, options.error_allowance);
    std::fflush(stdout);
    node.run();

    const auto& down = node.downstream();
    std::printf("shard %u finished: %lld subset polls, %lld reallocations, "
                "%lld subset alerts, %lld escalations, %lld summaries%s\n",
                options.shard_id,
                static_cast<long long>(down.global_polls()),
                static_cast<long long>(down.reallocations()),
                static_cast<long long>(down.alert_count()),
                static_cast<long long>(node.escalations()),
                static_cast<long long>(node.summaries_sent()),
                node.coordinator_lost() ? " (root lost; ran standalone)"
                                        : "");
    for (const auto& [id, ops] : down.reported_ops()) {
      std::printf("  monitor %u: %lld sampling ops\n", id,
                  static_cast<long long>(ops));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "volleyd_aggregator: %s\n", e.what());
    return 1;
  }
}
