// Robustness of the wire runtime — the net twin of bench_faults.
// A coordinator and three MonitorNodes run a compressed-time session over
// localhost TCP twice: once directly, once through the chaos proxy
// (net/chaos_proxy.h) injecting seeded frame drops, delays, partial writes,
// and one mid-stream cut. The sustained violation must be detected in both
// runs; the fault columns show what absorbed the injected failures —
// stale-poll fallbacks on the coordinator, reconnects on the monitors.
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/metric_source.h"
#include "net/chaos_proxy.h"
#include "net/coordinator_node.h"
#include "net/monitor_node.h"
#include "sim/faults.h"

namespace volley {
namespace {

struct NetRunResult {
  std::int64_t polls{0};
  std::size_t alerts{0};
  net::NetFaultStats faults;
  std::int64_t monitor_reconnects{0};
  std::int64_t degraded_ticks{0};
  net::ChaosStats chaos;
};

NetRunResult run_session(const NetFaultPlan* plan) {
  constexpr Tick kTicks = 2500;
  net::CoordinatorNodeOptions copt;
  copt.monitors = 3;
  copt.global_threshold = 10.0;
  copt.error_allowance = 0.03;
  copt.poll_timeout_ms = 100;
  copt.heartbeat_timeout_ms = 1200;
  copt.staleness_bound_ms = 5000;
  net::CoordinatorNode coordinator(copt);

  std::unique_ptr<net::ChaosProxy> proxy;
  std::uint16_t dial_port = coordinator.port();
  if (plan) {
    net::ChaosProxyOptions popt;
    popt.upstream_port = coordinator.port();
    popt.plan = *plan;
    proxy = std::make_unique<net::ChaosProxy>(popt);
    dial_port = proxy->port();
  }

  CallableSource spiky(
      [](Tick t) { return (t >= 800 && t < 2000) ? 25.0 : 0.5; }, kTicks);
  CallableSource quiet([](Tick) { return 0.5; }, kTicks);

  std::vector<std::unique_ptr<net::MonitorNode>> nodes;
  for (MonitorId id = 0; id < 3; ++id) {
    net::MonitorNodeOptions mopt;
    mopt.id = id;
    mopt.coordinator_port = dial_port;
    mopt.local_threshold = 10.0 / 3.0;
    mopt.ticks = kTicks;
    mopt.updating_period = 500;
    mopt.tick_micros = 300;
    mopt.heartbeat_interval_ms = 25;
    mopt.coordinator_timeout_ms = 600;
    mopt.connect_timeout_ms = 300;
    mopt.reconnect_backoff_ms = 20;
    mopt.reconnect_backoff_max_ms = 100;
    nodes.push_back(std::make_unique<net::MonitorNode>(
        mopt, id == 0 ? static_cast<const MetricSource&>(spiky) : quiet));
  }

  std::thread coord_thread([&coordinator] { coordinator.run(); });
  std::thread proxy_thread;
  if (proxy) proxy_thread = std::thread([&proxy] { proxy->run(); });
  std::vector<std::thread> monitor_threads;
  for (auto& node : nodes) {
    monitor_threads.emplace_back([&node] { node->run(); });
  }
  for (auto& t : monitor_threads) t.join();
  coord_thread.join();
  if (proxy) {
    proxy->request_stop();
    proxy_thread.join();
  }

  NetRunResult result;
  result.polls = coordinator.global_polls();
  result.alerts = static_cast<std::size_t>(coordinator.alert_count());
  result.faults = coordinator.fault_stats();
  for (const auto& node : nodes) {
    result.monitor_reconnects += node->reconnects();
    result.degraded_ticks += node->degraded_ticks();
  }
  if (proxy) result.chaos = proxy->stats();
  return result;
}

void run() {
  bench::print_header(
      "Wire-runtime robustness — chaos proxy vs clean TCP (companion "
      "work [22] concern)",
      "detection survives frame loss, delays, partial writes, and a "
      "mid-stream cut; stale polls and reconnects absorb the faults");

  bench::print_row({"run", "polls", "alerts", "stale", "reconn",
                    "degraded", "dead", "reclaims"});
  const auto report = [](const char* name, const NetRunResult& r) {
    bench::print_row({name, std::to_string(r.polls),
                      std::to_string(r.alerts),
                      std::to_string(r.faults.stale_polls),
                      std::to_string(r.monitor_reconnects),
                      std::to_string(r.degraded_ticks),
                      std::to_string(r.faults.declared_dead),
                      std::to_string(r.faults.allowance_reclaims)});
  };

  report("clean tcp", run_session(nullptr));

  NetFaultPlan plan;
  plan.message_loss.violation_report_loss = 0.2;
  plan.message_loss.poll_response_loss = 0.15;
  plan.message_loss.seed = 11;
  plan.heartbeat_loss = 0.15;
  plan.delay_prob = 0.2;
  plan.delay_ms = 10;
  plan.partial_write_prob = 0.2;
  plan.disconnect_after_frames = 200;
  plan.max_disconnects = 1;
  const auto chaotic = run_session(&plan);
  report("chaos proxy", chaotic);

  std::printf("\ninjections: %lld frames forwarded, %lld violations + %lld "
              "responses + %lld heartbeats dropped, %lld delayed, %lld "
              "partial, %lld cuts\n",
              static_cast<long long>(chaotic.chaos.forwarded_frames),
              static_cast<long long>(chaotic.chaos.dropped_violations),
              static_cast<long long>(chaotic.chaos.dropped_responses),
              static_cast<long long>(chaotic.chaos.dropped_heartbeats),
              static_cast<long long>(chaotic.chaos.delayed_frames),
              static_cast<long long>(chaotic.chaos.partial_writes),
              static_cast<long long>(chaotic.chaos.disconnects));
  std::printf("(monitor 0 violates for 1200 of 2500 compressed ticks; both "
              "runs must alert)\n");
}

}  // namespace
}  // namespace volley

int main() {
  volley::run();
  return 0;
}
