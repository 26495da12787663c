// The wire runtime end to end on localhost TCP: one coordinator process
// component and three monitor nodes, each in its own thread, speaking the
// Volley protocol (Hello / LocalViolation / PollRequest / PollResponse /
// StatsReport / AllowanceUpdate / Bye / Shutdown).
//
//   build/examples/distributed_sockets
//
// The run compresses time: one default sampling interval = 1 ms of wall
// time, so a day-scale scenario finishes in about a second.
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/metric_source.h"
#include "net/coordinator_node.h"
#include "net/monitor_node.h"

using namespace volley;

int main() {
  constexpr Tick kTicks = 800;
  constexpr std::size_t kMonitors = 3;

  net::CoordinatorNodeOptions copt;
  copt.monitors = kMonitors;
  copt.global_threshold = 9.0;
  copt.error_allowance = 0.03;
  copt.adaptive_allocation = true;
  net::CoordinatorNode coordinator(copt);
  std::printf("coordinator listening on 127.0.0.1:%u\n", coordinator.port());

  // Monitor 0 carries a violation window; 1 and 2 stay quiet but noisy.
  std::vector<std::unique_ptr<CallableSource>> sources;
  sources.push_back(std::make_unique<CallableSource>(
      [](Tick t) { return (t >= 500 && t < 560) ? 12.0 : 1.0; }, kTicks));
  sources.push_back(std::make_unique<CallableSource>(
      [](Tick t) { return 1.0 + 0.1 * static_cast<double>(t % 5); }, kTicks));
  sources.push_back(std::make_unique<CallableSource>(
      [](Tick) { return 0.5; }, kTicks));

  std::vector<std::unique_ptr<net::MonitorNode>> nodes;
  for (MonitorId id = 0; id < kMonitors; ++id) {
    net::MonitorNodeOptions mopt;
    mopt.id = id;
    mopt.coordinator_port = coordinator.port();
    mopt.local_threshold = copt.global_threshold / kMonitors;
    mopt.sampler.error_allowance = copt.error_allowance / kMonitors;
    mopt.sampler.patience = 5;
    mopt.sampler.max_interval = 10;
    mopt.ticks = kTicks;
    mopt.updating_period = 200;
    mopt.tick_micros = 1000;  // 1 ms per default interval
    nodes.push_back(std::make_unique<net::MonitorNode>(mopt, *sources[id]));
  }

  std::thread coordinator_thread([&coordinator] { coordinator.run(); });
  std::vector<std::thread> monitor_threads;
  for (auto& node : nodes) {
    monitor_threads.emplace_back([&node] { node->run(); });
  }
  for (auto& t : monitor_threads) t.join();
  coordinator_thread.join();

  std::printf("\nsession complete:\n");
  std::printf("  global polls: %lld, reallocations: %lld\n",
              static_cast<long long>(coordinator.global_polls()),
              static_cast<long long>(coordinator.reallocations()));
  for (const auto& alert : coordinator.recent_alerts()) {
    std::printf("  STATE ALERT at tick %lld: aggregate %.1f > %.1f\n",
                static_cast<long long>(alert.tick), alert.value,
                copt.global_threshold);
  }
  for (const auto& [id, ops] : coordinator.reported_ops()) {
    std::printf("  monitor %u: %lld sampling ops (periodic would use %lld)\n",
                id, static_cast<long long>(ops),
                static_cast<long long>(kTicks));
  }
  return coordinator.alert_count() == 0 ? 1 : 0;
}
