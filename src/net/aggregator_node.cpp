#include "net/aggregator_node.h"

#include <poll.h>

#include <array>
#include <chrono>
#include <span>
#include <thread>
#include <utility>
#include <variant>

#include "common/log.h"
#include "core/task.h"
#include "obs/metrics.h"

namespace volley::net {

namespace {
std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct AggregatorMetrics {
  obs::Counter* escalations;
  obs::Counter* summaries;

  static AggregatorMetrics make(obs::MetricsRegistry& m) {
    return AggregatorMetrics{
        &m.counter("volley_net_shard_escalations_total",
                   "Downstream subset alerts escalated upstream"),
        &m.counter("volley_net_shard_summaries_total",
                   "ShardSummary frames pushed to the root"),
    };
  }

  static const AggregatorMetrics& get() { return obs::scoped_handles(&make); }
};
}  // namespace

AggregatorNode::AggregatorNode(const AggregatorNodeOptions& options)
    : options_(options),
      jitter_rng_(static_cast<std::uint64_t>(options.shard_id) * 7919 + 31) {
  CoordinatorNodeOptions down;
  down.port = options.listen_port;
  down.monitors = options.monitors;
  down.global_threshold = options.global_threshold;
  down.error_allowance = options.error_allowance;
  down.adaptive_allocation = options.adaptive_allocation;
  down.poll_timeout_ms = options.poll_timeout_ms;
  down.idle_timeout_ms = options.idle_timeout_ms;
  down.heartbeat_timeout_ms = options.heartbeat_timeout_ms;
  down.staleness_bound_ms = options.staleness_bound_ms;
  down.registry_path = options.registry_path;
  // A settled subset poll above T_s is the shard's local violation one
  // level up; queue it for the upstream leg (this fires on the embedded
  // coordinator's thread).
  down.on_alert = [this](TaskId task, Tick tick, double value) {
    std::lock_guard<std::mutex> lock(alerts_mu_);
    pending_alerts_.push_back(PendingAlert{task, tick, value});
  };
  downstream_ = std::make_unique<CoordinatorNode>(down);
  // Both ends seed the boot task (id 0) at epoch 1 from consistent configs,
  // exactly as monitors do: the root's first attach push is a no-op here.
  downstream_tasks_.insert(kBootTaskId);
  upstream_epochs_[kBootTaskId] = 1;
}

void AggregatorNode::request_stop() {
  stop_.store(true);
  downstream_->request_stop();
}

bool AggregatorNode::send(const Message& message) {
  if (!connected_) return false;
  const auto payload = encode(message);
  if (conn_.send_all(frame_payload(payload))) return true;
  drop_connection();
  return false;
}

void AggregatorNode::drop_connection() {
  if (connected_) {
    VLOG_WARN("aggregator", "lost root coordinator link; shard ",
              options_.shard_id, " runs standalone while reconnecting");
  }
  conn_.close();
  connected_ = false;
  reader_ = FrameReader{};
  backoff_ms_ = options_.reconnect_backoff_ms;
  next_attempt_ms_ = now_ms();  // first retry is immediate
}

bool AggregatorNode::try_attach_session(bool resume) {
  auto conn = TcpConnection::try_connect(options_.coordinator_host,
                                         options_.coordinator_port,
                                         options_.connect_timeout_ms);
  if (!conn) return false;
  conn->set_nonblocking(true);
  conn_ = std::move(*conn);
  reader_ = FrameReader{};
  connected_ = true;
  last_rx_ms_ = now_ms();
  last_heartbeat_ms_ = 0;  // heartbeat on the next loop turn
  return send(ShardHello{options_.shard_id,
                         static_cast<std::uint32_t>(options_.monitors),
                         resume});
}

void AggregatorNode::maybe_reconnect(std::int64_t now) {
  if (connected_ || coordinator_lost_ || shutdown_received_) return;
  if (now < next_attempt_ms_) return;
  if (try_attach_session(/*resume=*/ever_connected_)) {
    failed_attempts_ = 0;
    if (ever_connected_) {
      ++reconnects_;
      VLOG_INFO("aggregator", "shard ", options_.shard_id,
                " reconnected to root (resume)");
    }
    ever_connected_ = true;
    return;
  }
  ++failed_attempts_;
  if (failed_attempts_ >= options_.max_reconnect_attempts) {
    VLOG_ERROR("aggregator", "giving up on root after ", failed_attempts_,
               " attempts; shard ", options_.shard_id,
               " runs standalone to the end");
    coordinator_lost_ = true;
    return;
  }
  const double jitter = jitter_rng_.uniform(0.75, 1.25);
  next_attempt_ms_ =
      now + static_cast<std::int64_t>(backoff_ms_ * jitter);
  backoff_ms_ = std::min(backoff_ms_ * 2, options_.reconnect_backoff_max_ms);
}

void AggregatorNode::heartbeat_if_due(std::int64_t now) {
  if (!connected_) return;
  if (now - last_heartbeat_ms_ < options_.heartbeat_interval_ms) return;
  if (send(Heartbeat{options_.shard_id, ++heartbeat_seq_})) {
    last_heartbeat_ms_ = now;
  }
}

void AggregatorNode::summaries_if_due(std::int64_t now) {
  // Drain only over a live link: the export accumulators keep aggregating
  // while disconnected, so a resumed session reports the full gap.
  if (!connected_) return;
  if (now - last_summary_ms_ < options_.summary_interval_ms) return;
  last_summary_ms_ = now;
  for (const ShardSummary& summary :
       downstream_->drain_shard_summaries(options_.shard_id)) {
    if (!send(summary)) break;
    ++summaries_sent_;
    AggregatorMetrics::get().summaries->inc();
  }
}

void AggregatorNode::drain_alerts() {
  std::vector<PendingAlert> alerts;
  {
    std::lock_guard<std::mutex> lock(alerts_mu_);
    alerts.swap(pending_alerts_);
  }
  for (const PendingAlert& alert : alerts) {
    // Without a root there is no one to escalate to; the subset alert is
    // already recorded downstream, which is the guarantee that matters.
    if (!connected_) break;
    if (send(LocalViolation{options_.shard_id, alert.tick, alert.value,
                            alert.task})) {
      ++escalations_;
      AggregatorMetrics::get().escalations->inc();
    }
  }
}

std::optional<Message> AggregatorNode::control_roundtrip(
    const Message& request) {
  auto conn = TcpConnection::try_connect("127.0.0.1", downstream_->port(),
                                         options_.connect_timeout_ms);
  if (!conn) return std::nullopt;
  if (!conn->send_all(frame_payload(encode(request)))) return std::nullopt;
  FrameReader reader;
  std::array<std::byte, 8192> buf;
  const std::int64_t deadline = now_ms() + options_.heartbeat_timeout_ms;
  while (now_ms() < deadline) {
    pollfd pfd{conn->fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 50);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const auto n = conn->recv_some(buf);
    if (!n || *n == 0) break;
    reader.feed(std::span<const std::byte>(buf.data(), *n));
    if (auto payload = reader.next()) return decode(*payload);
    if (reader.failed()) {
      count_protocol_error("aggregator");
      break;
    }
  }
  VLOG_WARN("aggregator", "loopback control round-trip failed");
  return std::nullopt;
}

void AggregatorNode::apply_attach(const TaskAttach& attach) {
  auto& known = upstream_epochs_[attach.task];
  if (attach.epoch <= known) return;  // replayed / stale revision: no-op
  known = attach.epoch;
  // The root's per-shard slice becomes the shard's own global task: its
  // local_threshold is this subset's T_s, its error_allowance the budget
  // err_s. The embedded coordinator re-slices both across the monitors.
  TaskSpec spec;
  spec.global_threshold = attach.local_threshold;
  spec.error_allowance = attach.error_allowance;
  spec.slack_ratio = attach.slack_ratio;
  spec.patience = attach.patience;
  spec.max_interval = attach.max_interval;
  spec.updating_period = attach.updating_period;
  const bool exists = downstream_tasks_.count(attach.task) != 0;
  Message request = exists ? Message{UpdateTask{attach.task, spec}}
                           : Message{AddTask{attach.task, spec}};
  auto reply = control_roundtrip(request);
  if (!exists && reply) {
    // A durable downstream registry may already hold the task (restart
    // restore): re-spec it instead.
    if (const auto* control = std::get_if<ControlReply>(&*reply);
        control != nullptr &&
        control->status == control::ControlStatus::kExists) {
      reply = control_roundtrip(Message{UpdateTask{attach.task, spec}});
    }
  }
  if (reply) {
    if (const auto* control = std::get_if<ControlReply>(&*reply);
        control != nullptr &&
        control->status == control::ControlStatus::kOk) {
      downstream_tasks_.insert(attach.task);
      VLOG_INFO("aggregator", "shard ", options_.shard_id, " fanned task ",
                attach.task, " through at root epoch ", attach.epoch);
    }
  }
}

void AggregatorNode::apply_detach(const TaskDetach& detach) {
  auto& known = upstream_epochs_[detach.task];
  if (detach.epoch <= known) return;
  known = detach.epoch;
  if (downstream_tasks_.count(detach.task) == 0) return;
  (void)control_roundtrip(Message{RemoveTask{detach.task}});
  downstream_tasks_.erase(detach.task);
}

void AggregatorNode::handle_upstream(const Message& message) {
  if (const auto* poll = std::get_if<PollRequest>(&message)) {
    // Cached-value semantics: answer with the latest settled subset
    // aggregate (see the header). 0.0 before the shard's first poll.
    send(PollResponse{options_.shard_id, poll->poll_id, poll->tick,
                      downstream_->shard_aggregate(poll->task), poll->task});
    return;
  }
  if (const auto* attach = std::get_if<TaskAttach>(&message)) {
    apply_attach(*attach);
    return;
  }
  if (const auto* detach = std::get_if<TaskDetach>(&message)) {
    apply_detach(*detach);
    return;
  }
  if (const auto* budget = std::get_if<ShardAllowance>(&message)) {
    // The root's budget push loops back into the embedded coordinator's
    // control path: live split rescale, no sampler restarts.
    (void)control_roundtrip(Message{*budget});
    return;
  }
  if (std::get_if<Shutdown>(&message) != nullptr) {
    shutdown_received_ = true;
    return;
  }
  // HeartbeatAck and anything unexpected: the read already refreshed
  // last_rx_ms_, which is all an ack is for.
}

void AggregatorNode::service_upstream(int timeout_ms) {
  if (!connected_) {
    std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
    return;
  }
  pollfd pfd{conn_.fd(), POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return;
  std::array<std::byte, 8192> buf;
  while (connected_) {
    const auto n = conn_.recv_some(buf);
    if (!n) break;  // drained to EAGAIN
    if (*n == 0) {
      drop_connection();
      return;
    }
    last_rx_ms_ = now_ms();
    reader_.feed(std::span<const std::byte>(buf.data(), *n));
    while (auto payload = reader_.next()) {
      const auto message = decode(*payload);
      if (!message) {
        VLOG_WARN("aggregator", "dropping malformed frame");
        continue;
      }
      handle_upstream(*message);
      if (!connected_) return;
    }
    if (reader_.failed()) {
      count_protocol_error("aggregator");
      drop_connection();
      return;
    }
  }
}

void AggregatorNode::run() {
  std::thread downstream_thread([this] {
    downstream_->run();
    downstream_done_.store(true);
  });

  if (try_attach_session(/*resume=*/false)) {
    ever_connected_ = true;
  } else {
    backoff_ms_ = options_.reconnect_backoff_ms;
    next_attempt_ms_ = now_ms();
  }

  std::int64_t done_since_ms = 0;
  while (!stop_.load()) {
    std::int64_t now = now_ms();
    maybe_reconnect(now);
    if (connected_ && now - last_rx_ms_ > options_.coordinator_timeout_ms) {
      drop_connection();
    }
    service_upstream(10);
    drain_alerts();
    now = now_ms();
    heartbeat_if_due(now);
    summaries_if_due(now);

    if (downstream_done_.load()) {
      if (done_since_ms == 0) done_since_ms = now;
      if (connected_ && !bye_sent_) {
        // The shard is finished: report the subset's total op count (each
        // monitor's Bye, summed) and await the root's Shutdown.
        std::int64_t ops = 0;
        for (const auto& [id, n] : downstream_->reported_ops()) {
          (void)id;
          ops += n;
        }
        if (send(Bye{options_.shard_id, ops, 0})) {
          bye_sent_ = true;
          bye_sent_ms_ = now;
        }
      }
      if (shutdown_received_ || coordinator_lost_) break;
      if (bye_sent_ && now - bye_sent_ms_ > options_.shutdown_grace_ms) break;
      if (!connected_ && now - done_since_ms > options_.shutdown_grace_ms)
        break;
    }
  }

  downstream_->request_stop();  // no-op when the run already returned
  downstream_thread.join();
}

}  // namespace volley::net
