// The middle tier of a two-level Volley fleet (DESIGN.md §13): one
// AggregatorNode owns a shard of the monitor fleet and speaks both sides of
// the wire protocol.
//
//   monitors  --Hello-->  [embedded CoordinatorNode]   (downstream leg)
//   aggregator --ShardHello--> root coordinator        (upstream leg)
//
// Downstream, the node embeds a full CoordinatorNode on its own thread: the
// shard's monitors connect to it and it runs the complete single-tier
// protocol over the subset — adaptive sampling, local violations, subset
// polls against the shard's threshold slice T_s, and AIMD allowance
// reallocation within the shard's budget err_s. Nothing about a monitor
// changes when it reports to an aggregator instead of a root coordinator
// (the topology is invisible one level down).
//
// Upstream, the node is a super-monitor of weight n_s:
//  * ShardHello{shard, monitors} announces the shard and its weight; the
//    root slices threshold and budget by weight (T·w/W, err·w/W).
//  * A downstream alert (subset aggregate > T_s) escalates as
//    LocalViolation{monitor = shard}; the root then polls every shard.
//  * PollRequest is answered from the downstream coordinator's latest
//    settled subset aggregate — cached-value semantics, the net tier's
//    analogue of the stale-value fallback (a quiet shard's last sum stands
//    in; the sim tier force-samples instead, see shard/sharded_coordinator).
//  * Once per summary interval, every live task's accumulated coordination
//    stats compress into a ShardSummary{r, e, yield, allowance_used} frame —
//    the root feeds (r, e) to the identical allocation algorithm it would
//    run over raw monitors.
//  * ShardAllowance (the root's budget push) loops back into the embedded
//    coordinator over its own control port, rescaling the shard's live
//    allowance split in place — no sampler restarts.
//  * Task control fans through: TaskAttach/TaskDetach from the root replay
//    as AddTask/UpdateTask/RemoveTask against the embedded registry, gated
//    by the root's epochs so replays and stale pushes are no-ops.
//
// Resilience mirrors MonitorNode: heartbeats upstream, capped-backoff
// reconnect with ShardHello{resume}, and a root loss leaves the shard
// running standalone (monitors keep their subset guarantees) to completion.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "net/coordinator_node.h"
#include "net/framing.h"
#include "net/messages.h"
#include "net/socket.h"

namespace volley::net {

struct AggregatorNodeOptions {
  /// The shard's id in the root's monitor-id space.
  std::uint32_t shard_id{0};
  std::string coordinator_host{"127.0.0.1"};
  std::uint16_t coordinator_port{0};  // upstream root
  /// Downstream listener for the shard's monitors (0 = pick a free port;
  /// read back via port()).
  std::uint16_t listen_port{0};
  /// Downstream monitor count — the shard's weight upstream.
  std::size_t monitors{1};
  /// Boot task slices: T_s (the shard's threshold slice, what the subset's
  /// local thresholds sum to) and err_s (the shard's error budget).
  double global_threshold{0.0};
  double error_allowance{0.01};
  bool adaptive_allocation{true};
  // Downstream coordinator knobs (see CoordinatorNodeOptions).
  int poll_timeout_ms{1000};
  int idle_timeout_ms{30000};
  int heartbeat_timeout_ms{2000};
  int staleness_bound_ms{6000};
  std::string registry_path{};
  // Upstream client knobs (see MonitorNodeOptions).
  int heartbeat_interval_ms{500};
  int summary_interval_ms{500};
  int coordinator_timeout_ms{2500};
  int connect_timeout_ms{1000};
  int reconnect_backoff_ms{50};
  int reconnect_backoff_max_ms{1000};
  int max_reconnect_attempts{60};
  int shutdown_grace_ms{2000};
};

class AggregatorNode {
 public:
  explicit AggregatorNode(const AggregatorNodeOptions& options);

  /// The downstream listener port monitors connect to.
  std::uint16_t port() const { return downstream_->port(); }

  /// Blocking: runs the embedded coordinator (own thread) and the upstream
  /// leg until the shard's monitors finish and the root acknowledges (or the
  /// shutdown grace expires / the root is lost).
  void run();

  /// Asks a running node to stop: the embedded coordinator drops its
  /// sessions (a crash, as CoordinatorNode::request_stop) and the upstream
  /// leg exits without a Bye.
  void request_stop();

  // Results, valid after run() returns.
  const CoordinatorNode& downstream() const { return *downstream_; }
  std::int64_t escalations() const { return escalations_; }
  std::int64_t summaries_sent() const { return summaries_sent_; }
  std::int64_t reconnects() const { return reconnects_; }
  bool coordinator_lost() const { return coordinator_lost_; }

 private:
  struct PendingAlert {
    TaskId task{0};
    Tick tick{0};
    double value{0.0};
  };

  bool send(const Message& message);
  bool try_attach_session(bool resume);
  void drop_connection();
  void maybe_reconnect(std::int64_t now);
  void heartbeat_if_due(std::int64_t now);
  void summaries_if_due(std::int64_t now);
  void drain_alerts();
  /// Waits up to `timeout_ms` for upstream readability, then drains and
  /// handles every buffered frame. False when the link dropped.
  void service_upstream(int timeout_ms);
  void handle_upstream(const Message& message);
  void apply_attach(const TaskAttach& attach);
  void apply_detach(const TaskDetach& detach);
  /// One control round-trip against the embedded coordinator's own port
  /// (the loopback path ShardAllowance and task fan-through ride).
  std::optional<Message> control_roundtrip(const Message& request);

  AggregatorNodeOptions options_;
  std::unique_ptr<CoordinatorNode> downstream_;
  std::atomic<bool> downstream_done_{false};
  std::atomic<bool> stop_{false};

  std::mutex alerts_mu_;
  std::vector<PendingAlert> pending_alerts_;

  /// The root's epoch per task id (tombstones included), gating the
  /// attach/detach fan-through exactly like MonitorNode::known_epochs_.
  std::map<TaskId, std::uint64_t> upstream_epochs_;
  std::set<TaskId> downstream_tasks_;  // live in the embedded registry

  // Upstream connection state (only touched from run()'s thread).
  TcpConnection conn_;
  FrameReader reader_;
  bool connected_{false};
  bool ever_connected_{false};
  bool coordinator_lost_{false};
  bool bye_sent_{false};
  bool shutdown_received_{false};
  std::int64_t bye_sent_ms_{0};
  std::int64_t last_rx_ms_{0};
  std::int64_t last_heartbeat_ms_{0};
  std::int64_t last_summary_ms_{0};
  std::uint64_t heartbeat_seq_{0};
  int backoff_ms_{0};
  std::int64_t next_attempt_ms_{0};
  int failed_attempts_{0};
  std::int64_t escalations_{0};
  std::int64_t summaries_sent_{0};
  std::int64_t reconnects_{0};
  Rng jitter_rng_;
};

}  // namespace volley::net
