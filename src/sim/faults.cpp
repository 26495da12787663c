#include "sim/faults.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/rng.h"
#include "core/error_allocation.h"
#include "core/monitor.h"

namespace volley {

void FaultPlan::validate() const {
  if (violation_report_loss < 0.0 || violation_report_loss >= 1.0)
    throw std::invalid_argument("FaultPlan: report loss in [0,1)");
  if (poll_response_loss < 0.0 || poll_response_loss >= 1.0)
    throw std::invalid_argument("FaultPlan: response loss in [0,1)");
  for (const auto& outage : outages) {
    if (outage.start < 0 || outage.end <= outage.start)
      throw std::invalid_argument("FaultPlan: bad outage window");
  }
  // Overlapping windows for one monitor are almost certainly a plan bug
  // (double-counted outage ticks); reject them.
  auto sorted = outages;
  std::sort(sorted.begin(), sorted.end(),
            [](const MonitorOutage& a, const MonitorOutage& b) {
              return a.monitor != b.monitor ? a.monitor < b.monitor
                                            : a.start < b.start;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].monitor == sorted[i - 1].monitor &&
        sorted[i].start < sorted[i - 1].end)
      throw std::invalid_argument("FaultPlan: overlapping outage windows");
  }
}

void NetFaultPlan::validate() const {
  message_loss.validate();
  if (heartbeat_loss < 0.0 || heartbeat_loss >= 1.0)
    throw std::invalid_argument("NetFaultPlan: heartbeat loss in [0,1)");
  if (delay_prob < 0.0 || delay_prob > 1.0)
    throw std::invalid_argument("NetFaultPlan: delay_prob in [0,1]");
  if (delay_prob > 0.0 && delay_ms <= 0)
    throw std::invalid_argument("NetFaultPlan: delay_ms > 0 when delaying");
  if (partial_write_prob < 0.0 || partial_write_prob > 1.0)
    throw std::invalid_argument("NetFaultPlan: partial_write_prob in [0,1]");
  if (disconnect_after_frames == 0)
    throw std::invalid_argument(
        "NetFaultPlan: disconnect_after_frames > 0 (or -1 to disable)");
  if (max_disconnects < 0)
    throw std::invalid_argument("NetFaultPlan: max_disconnects >= 0");
}

namespace {
bool in_outage(const FaultPlan& plan, std::size_t monitor, Tick t) {
  for (const auto& outage : plan.outages) {
    if (outage.monitor == monitor && t >= outage.start && t < outage.end)
      return true;
  }
  return false;
}
}  // namespace

FaultyRunResult run_volley_faulty(const TaskSpec& spec,
                                  std::span<const TimeSeries> monitor_series,
                                  std::span<const double> local_thresholds,
                                  const FaultPlan& plan) {
  spec.validate();
  plan.validate();
  if (monitor_series.empty())
    throw std::invalid_argument("run_volley_faulty: no monitors");
  if (monitor_series.size() != local_thresholds.size())
    throw std::invalid_argument("run_volley_faulty: thresholds mismatch");
  const Tick ticks = monitor_series.front().ticks();
  for (const auto& s : monitor_series) {
    if (s.ticks() != ticks)
      throw std::invalid_argument("run_volley_faulty: length mismatch");
  }
  for (const auto& outage : plan.outages) {
    if (outage.monitor >= monitor_series.size())
      throw std::invalid_argument("run_volley_faulty: outage monitor id");
  }

  Rng rng(plan.seed);
  const std::size_t n = monitor_series.size();
  std::vector<std::unique_ptr<SeriesSource>> sources;
  std::vector<std::unique_ptr<Monitor>> monitors;
  const double share = spec.error_allowance / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    sources.push_back(std::make_unique<SeriesSource>(monitor_series[i]));
    monitors.push_back(std::make_unique<Monitor>(
        static_cast<MonitorId>(i), *sources[i], spec.sampler_options(share),
        local_thresholds[i]));
  }
  AdaptiveAllocation allocator;
  std::vector<double> allocation(n, share);

  FaultyRunResult result;
  result.run.ticks = ticks;
  result.run.monitors = n;
  std::vector<char> detected(static_cast<std::size_t>(ticks), 0);
  std::vector<double> last_known(n, 0.0);
  Tick next_update = spec.updating_period;

  SampleTally tally;
  for (Tick t = 0; t < ticks; ++t) {
    int surviving_reports = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (in_outage(plan, i, t)) {
        ++result.outage_monitor_ticks;
        continue;
      }
      Monitor& m = *monitors[i];
      if (!m.due(t)) continue;
      const auto outcome = m.step(t, tally);
      last_known[i] = outcome.sample.value;
      if (outcome.local_violation) {
        ++result.run.local_violations;
        if (rng.bernoulli(plan.violation_report_loss)) {
          ++result.lost_reports;
        } else {
          ++surviving_reports;
        }
      }
    }

    if (surviving_reports > 0) {
      ++result.run.global_polls;
      bool stale = false;
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const bool down = in_outage(plan, i, t);
        const bool dropped =
            !down && rng.bernoulli(plan.poll_response_loss);
        if (down || dropped) {
          if (dropped) ++result.lost_responses;
          stale = true;
          sum += last_known[i];  // timeout fallback: stale value
          continue;
        }
        const auto outcome = monitors[i]->force_sample(t, tally);
        last_known[i] = outcome.sample.value;
        sum += outcome.sample.value;
      }
      if (stale) ++result.stale_polls;
      if (sum > spec.global_threshold)
        detected[static_cast<std::size_t>(t)] = 1;
    }
    publish(tally);

    if (t >= next_update) {
      next_update = t + spec.updating_period;
      std::vector<CoordStats> stats;
      stats.reserve(n);
      for (auto& m : monitors) stats.push_back(m->drain_coord_stats());
      allocation =
          allocator.allocate(spec.error_allowance, allocation, stats);
      for (std::size_t i = 0; i < n; ++i)
        monitors[i]->set_error_allowance(allocation[i]);
      ++result.run.reallocations;
    }
  }

  for (const auto& m : monitors) {
    result.run.scheduled_ops += m->scheduled_ops();
    result.run.forced_ops += m->forced_ops();
    result.run.total_cost += m->total_cost();
  }
  const TimeSeries aggregate = TimeSeries::sum(monitor_series);
  const GroundTruth truth =
      GroundTruth::from_series(aggregate, spec.global_threshold);
  score_detection(result.run, truth, detected);
  return result;
}

}  // namespace volley
