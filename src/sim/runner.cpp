#include "sim/runner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "control/task_registry.h"
#include "obs/metrics.h"
#include "sim/run_registry.h"

namespace volley {

namespace {
std::unique_ptr<AllowanceAllocator> make_allocator(AllocatorKind kind) {
  switch (kind) {
    case AllocatorKind::kNone:
      return nullptr;
    case AllocatorKind::kEven:
      return std::make_unique<EvenAllocation>();
    case AllocatorKind::kAdaptive:
      return std::make_unique<AdaptiveAllocation>();
  }
  throw std::invalid_argument("make_allocator: unknown kind");
}

}  // namespace

RunResult run_volley(const TaskSpec& spec,
                     std::span<const TimeSeries> monitor_series,
                     std::span<const double> local_thresholds,
                     const RunOptions& options) {
  if (monitor_series.empty())
    throw std::invalid_argument("run_volley: no monitors");
  const TimeSeries aggregate = TimeSeries::sum(monitor_series);
  const GroundTruth truth =
      GroundTruth::from_series(aggregate, spec.global_threshold);
  return run_volley(spec, monitor_series, local_thresholds, truth, options);
}

RunResult run_volley(const TaskSpec& spec,
                     std::span<const TimeSeries> monitor_series,
                     std::span<const double> local_thresholds,
                     const GroundTruth& truth, const RunOptions& options) {
  spec.validate();
  if (monitor_series.empty())
    throw std::invalid_argument("run_volley: no monitors");
  if (monitor_series.size() != local_thresholds.size())
    throw std::invalid_argument("run_volley: thresholds size mismatch");
  const Tick ticks = monitor_series.front().ticks();
  for (const auto& s : monitor_series) {
    if (s.ticks() != ticks)
      throw std::invalid_argument("run_volley: series length mismatch");
  }
  {
    double sum = 0.0;
    for (double t : local_thresholds) sum += t;
    const double scale =
        std::max({std::abs(sum), std::abs(spec.global_threshold), 1.0});
    if (std::abs(sum - spec.global_threshold) > 1e-6 * scale)
      throw std::invalid_argument(
          "run_volley: local thresholds must sum to the global threshold");
  }

  return with_run_registry([&]() {
    // Sources must outlive the monitors.
    std::vector<std::unique_ptr<SeriesSource>> sources;
    sources.reserve(monitor_series.size());
    for (const auto& s : monitor_series)
      sources.push_back(std::make_unique<SeriesSource>(s));

    std::vector<std::unique_ptr<Monitor>> monitors;
    monitors.reserve(monitor_series.size());
    for (std::size_t i = 0; i < monitor_series.size(); ++i) {
      // The per-monitor allowance is overwritten by the coordinator's
      // initial even split; pass the task-level value as a placeholder.
      monitors.push_back(std::make_unique<Monitor>(
          static_cast<MonitorId>(i), *sources[i],
          spec.sampler_options(spec.error_allowance), local_thresholds[i]));
    }
    Coordinator coordinator(spec, std::move(monitors),
                            make_allocator(options.allocator));

    RunResult result;
    result.ticks = ticks;
    result.monitors = monitor_series.size();
    std::vector<char> detected(static_cast<std::size_t>(ticks), 0);
    std::vector<std::int64_t> prev_ops(monitor_series.size(), 0);
    if (options.record_ops) result.op_ticks.resize(monitor_series.size());

    for (Tick t = 0; t < ticks; ++t) {
      const auto tick = coordinator.run_tick(t);
      if (tick.global_violation) detected[static_cast<std::size_t>(t)] = 1;
      result.local_violations += tick.local_violations;
      if (options.record_ops || options.record_intervals) {
        for (std::size_t i = 0; i < coordinator.monitor_count(); ++i) {
          const std::int64_t ops = coordinator.monitor(i).total_ops();
          if (ops != prev_ops[i]) {
            prev_ops[i] = ops;
            if (options.record_ops)
              result.op_ticks[i].push_back(t);
            if (options.record_intervals && i == 0)
              result.interval_trajectory.push_back(
                  coordinator.monitor(0).interval());
          }
        }
      }
    }

    for (std::size_t i = 0; i < coordinator.monitor_count(); ++i) {
      result.scheduled_ops += coordinator.monitor(i).scheduled_ops();
      result.forced_ops += coordinator.monitor(i).forced_ops();
    }
    result.total_cost = coordinator.total_cost();
    result.global_polls = coordinator.global_polls();
    result.reallocations = coordinator.reallocations();

    score_detection(result, truth, detected);
    return result;
  });
}

RunResult run_volley_single(const TaskSpec& spec, const TimeSeries& series,
                            const RunOptions& options) {
  const double threshold[] = {spec.global_threshold};
  return run_volley(spec, std::span<const TimeSeries>(&series, 1), threshold,
                    options);
}

RunResult run_volley_single(const TaskSpec& spec, const TimeSeries& series,
                            const GroundTruth& truth,
                            const RunOptions& options) {
  const double threshold[] = {spec.global_threshold};
  return run_volley(spec, std::span<const TimeSeries>(&series, 1), threshold,
                    truth, options);
}

RunResult run_periodic(std::span<const TimeSeries> monitor_series,
                       double global_threshold, Tick interval) {
  if (monitor_series.empty())
    throw std::invalid_argument("run_periodic: no monitors");
  if (interval < 1) throw std::invalid_argument("run_periodic: interval >= 1");
  const Tick ticks = monitor_series.front().ticks();
  for (const auto& s : monitor_series) {
    if (s.ticks() != ticks)
      throw std::invalid_argument("run_periodic: series length mismatch");
  }

  return with_run_registry([&]() {
    RunResult result;
    result.ticks = ticks;
    result.monitors = monitor_series.size();
    std::vector<char> detected(static_cast<std::size_t>(ticks), 0);
    const TimeSeries aggregate = TimeSeries::sum(monitor_series);
    for (Tick t = 0; t < ticks; t += interval) {
      result.scheduled_ops += static_cast<std::int64_t>(monitor_series.size());
      result.total_cost += static_cast<double>(monitor_series.size());
      const auto i = static_cast<std::size_t>(t);
      if (aggregate[i] > global_threshold) {
        detected[i] = 1;
        ++result.global_polls;
      }
    }
    const GroundTruth truth =
        GroundTruth::from_series(aggregate, global_threshold);
    score_detection(result, truth, detected);
    return result;
  });
}

std::int64_t CorrelatedGroupResult::total_ops() const {
  std::int64_t ops = 0;
  for (const auto& r : per_task) ops += r.total_ops();
  return ops;
}

double CorrelatedGroupResult::total_weighted_cost(
    std::span<const CorrelatedTask> tasks) const {
  if (tasks.size() != per_task.size())
    throw std::invalid_argument("total_weighted_cost: size mismatch");
  double cost = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    cost += static_cast<double>(per_task[i].total_ops()) *
            tasks[i].cost_per_sample;
  }
  return cost;
}

CorrelatedGroupResult run_correlated_group(
    std::span<const CorrelatedTask> tasks,
    const CorrelationScheduler::Options& scheduler_options,
    bool enable_gating) {
  if (tasks.empty())
    throw std::invalid_argument("run_correlated_group: no tasks");
  const Tick ticks = tasks.front().series.ticks();
  for (const auto& task : tasks) {
    task.spec.validate();
    if (task.series.ticks() != ticks)
      throw std::invalid_argument(
          "run_correlated_group: series length mismatch");
  }

  // One registry scope for the whole group: each per-task RunResult's
  // metrics_json snapshots the group's registry (the tasks interleave on
  // one tick loop, so a finer scope would misattribute shared work).
  return with_run_registry([&]() {
  CorrelationScheduler scheduler(scheduler_options);
  std::vector<std::unique_ptr<SeriesSource>> sources;
  std::vector<std::unique_ptr<Monitor>> monitors;
  std::vector<Tick> last_op(tasks.size(), -1);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    scheduler.add_task(tasks[i].spec.global_threshold,
                       tasks[i].cost_per_sample);
    sources.push_back(std::make_unique<SeriesSource>(tasks[i].series));
    monitors.push_back(std::make_unique<Monitor>(
        static_cast<MonitorId>(i), *sources[i],
        tasks[i].spec.sampler_options(tasks[i].spec.error_allowance),
        tasks[i].spec.global_threshold));
  }

  std::vector<std::vector<char>> detected(
      tasks.size(), std::vector<char>(static_cast<std::size_t>(ticks), 0));

  SampleTally tally;
  for (Tick t = 0; t < ticks; ++t) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      Monitor& m = *monitors[i];
      if (!m.due(t)) continue;
      // A suppressed follower rests at the task's maximum interval: its due
      // samples are skipped until rest ticks have passed since the last op.
      if (enable_gating && scheduler.suppressed(i) && last_op[i] >= 0 &&
          t - last_op[i] < tasks[i].spec.max_interval) {
        continue;
      }
      const auto outcome = m.step(t, tally);
      last_op[i] = t;
      scheduler.observe(i, outcome.sample.value);
      if (outcome.local_violation)
        detected[i][static_cast<std::size_t>(t)] = 1;
    }
    scheduler.end_tick();
    publish(tally);
  }

  CorrelatedGroupResult result;
  result.final_plan = scheduler.plan();
  result.per_task.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    RunResult& r = result.per_task[i];
    r.ticks = ticks;
    r.monitors = 1;
    r.scheduled_ops = monitors[i]->scheduled_ops();
    r.forced_ops = monitors[i]->forced_ops();
    r.total_cost = monitors[i]->total_cost();
    r.local_violations = monitors[i]->local_violations();
    const GroundTruth truth = GroundTruth::from_series(
        tasks[i].series, tasks[i].spec.global_threshold);
    score_detection(r, truth, detected[i]);
  }
  return result;
  });
}

namespace {

/// One live task instance of run_dynamic_tasks: its Coordinator over the
/// shared series plus the bookkeeping for window-scoped scoring.
struct LiveDynamicTask {
  std::uint64_t epoch{0};
  Tick arrived{0};
  std::unique_ptr<Coordinator> coordinator;
  std::vector<char> detected;  // full run length; zeros outside the window
  std::int64_t local_violations{0};
};

/// Accuracy scoring restricted to the instance's active window: only truth
/// ticks within [begin, end) count, and an episode counts when it overlaps
/// the window (detected when any overlap tick was detected).
void score_window(RunResult& result, const GroundTruth& truth,
                  std::span<const char> detected, Tick begin, Tick end) {
  for (Tick t = begin; t < end; ++t) {
    const auto i = static_cast<std::size_t>(t);
    if (!truth.alert[i]) continue;
    ++result.true_alert_ticks;
    if (detected[i]) ++result.detected_alert_ticks;
  }
  for (const auto& [start, stop] : truth.episodes) {
    const Tick lo = std::max(start, begin);
    const Tick hi = std::min(stop, end);
    if (lo >= hi) continue;
    ++result.true_episodes;
    for (Tick t = lo; t < hi; ++t) {
      if (detected[static_cast<std::size_t>(t)]) {
        ++result.detected_episodes;
        break;
      }
    }
  }
}

}  // namespace

std::int64_t DynamicRunResult::total_ops() const {
  std::int64_t ops = 0;
  for (const auto& task : tasks) ops += task.result.total_ops();
  return ops;
}

std::vector<TaskChurnEvent> canonical_churn_order(
    std::vector<TaskChurnEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const TaskChurnEvent& a, const TaskChurnEvent& b) {
              if (a.tick != b.tick) return a.tick < b.tick;
              const bool a_depart = a.kind == TaskChurnEvent::Kind::kDepart;
              const bool b_depart = b.kind == TaskChurnEvent::Kind::kDepart;
              if (a_depart != b_depart) return a_depart;
              return a.task < b.task;
            });
  return events;
}

std::vector<TaskChurnEvent> make_churn_schedule(
    const ChurnScheduleOptions& options) {
  if (options.ticks < 1)
    throw std::invalid_argument("make_churn_schedule: ticks >= 1");
  if (options.arrivals < 0)
    throw std::invalid_argument("make_churn_schedule: arrivals >= 0");
  if (options.hold_min < 1 || options.hold_max < options.hold_min)
    throw std::invalid_argument(
        "make_churn_schedule: 1 <= hold_min <= hold_max");
  options.spec.validate();

  Rng rng(options.seed);
  std::vector<TaskChurnEvent> events;
  events.reserve(static_cast<std::size_t>(options.arrivals) * 2);
  for (int i = 0; i < options.arrivals; ++i) {
    const auto task = static_cast<TaskId>(options.first_task +
                                          static_cast<TaskId>(i));
    // Fixed draw order per instance (arrive, then hold): inserting or
    // removing instances never shifts another instance's draws.
    const Tick arrive =
        static_cast<Tick>(rng.uniform_int(0, options.ticks - 1));
    const Tick hold = static_cast<Tick>(
        rng.uniform_int(options.hold_min, options.hold_max));
    events.push_back(
        {TaskChurnEvent::Kind::kArrive, arrive, task, options.spec});
    const Tick depart = arrive + hold;
    if (depart < options.ticks)
      events.push_back({TaskChurnEvent::Kind::kDepart, depart, task, {}});
  }
  return canonical_churn_order(std::move(events));
}

DynamicRunResult run_dynamic_tasks(std::span<const TimeSeries> monitor_series,
                                   std::span<const TaskChurnEvent> raw_events,
                                   AllocatorKind allocator) {
  if (monitor_series.empty())
    throw std::invalid_argument("run_dynamic_tasks: no monitors");
  const Tick ticks = monitor_series.front().ticks();
  for (const auto& s : monitor_series) {
    if (s.ticks() != ticks)
      throw std::invalid_argument("run_dynamic_tasks: series length mismatch");
  }
  // Canonicalize so the run — registry epochs included — is a function of
  // the event set alone, independent of producer ordering.
  const std::vector<TaskChurnEvent> events = canonical_churn_order(
      std::vector<TaskChurnEvent>(raw_events.begin(), raw_events.end()));
  const TimeSeries aggregate = TimeSeries::sum(monitor_series);

  return with_run_registry([&]() {
    control::TaskRegistry registry;
    std::vector<std::unique_ptr<SeriesSource>> sources;
    sources.reserve(monitor_series.size());
    for (const auto& s : monitor_series)
      sources.push_back(std::make_unique<SeriesSource>(s));

    DynamicRunResult run;
    std::map<TaskId, LiveDynamicTask> live;
    // Ground truth per distinct threshold, cached: churn events commonly
    // re-add tasks at a previously seen threshold.
    std::map<double, GroundTruth> truths;
    const auto truth_for = [&](double threshold) -> const GroundTruth& {
      auto it = truths.find(threshold);
      if (it == truths.end()) {
        it = truths
                 .emplace(threshold,
                          GroundTruth::from_series(aggregate, threshold))
                 .first;
      }
      return it->second;
    };

    const auto finalize = [&](TaskId id, LiveDynamicTask& task,
                              Tick departed) {
      DynamicTaskResult out;
      out.task = id;
      out.epoch = task.epoch;
      out.arrived = task.arrived;
      out.departed = departed;
      RunResult& r = out.result;
      r.ticks = departed - task.arrived;
      r.monitors = monitor_series.size();
      const Coordinator& coordinator = *task.coordinator;
      for (std::size_t i = 0; i < coordinator.monitor_count(); ++i) {
        r.scheduled_ops += coordinator.monitor(i).scheduled_ops();
        r.forced_ops += coordinator.monitor(i).forced_ops();
      }
      r.total_cost = coordinator.total_cost();
      r.local_violations = task.local_violations;
      r.global_polls = coordinator.global_polls();
      r.reallocations = coordinator.reallocations();
      score_window(r, truth_for(coordinator.spec().global_threshold),
                   task.detected, task.arrived, departed);
      run.tasks.push_back(std::move(out));
    };

    std::size_t next_event = 0;
    for (Tick t = 0; t < ticks; ++t) {
      while (next_event < events.size() && events[next_event].tick <= t) {
        const TaskChurnEvent& event = events[next_event++];
        if (event.kind == TaskChurnEvent::Kind::kArrive) {
          const auto result = registry.add(event.task, event.spec);
          if (!result.ok())
            throw std::invalid_argument("run_dynamic_tasks: arrive: " +
                                        result.error);
          const auto thresholds = split_threshold(
              event.spec.global_threshold, monitor_series.size());
          std::vector<std::unique_ptr<Monitor>> monitors;
          monitors.reserve(monitor_series.size());
          for (std::size_t i = 0; i < monitor_series.size(); ++i) {
            monitors.push_back(std::make_unique<Monitor>(
                static_cast<MonitorId>(i), *sources[i],
                event.spec.sampler_options(event.spec.error_allowance),
                thresholds[i]));
          }
          LiveDynamicTask task;
          task.epoch = result.epoch;
          task.arrived = t;
          task.coordinator = std::make_unique<Coordinator>(
              event.spec, std::move(monitors), make_allocator(allocator));
          task.detected.assign(static_cast<std::size_t>(ticks), 0);
          live.emplace(event.task, std::move(task));
          ++run.arrivals;
        } else {
          const auto it = live.find(event.task);
          if (it == live.end())
            throw std::invalid_argument(
                "run_dynamic_tasks: depart of unknown task");
          const auto removed = registry.remove(event.task);
          if (!removed.ok())
            throw std::invalid_argument("run_dynamic_tasks: depart: " +
                                        removed.error);
          finalize(event.task, it->second, t);
          live.erase(it);
          ++run.departures;
        }
      }
      for (auto& [id, task] : live) {
        const auto tick = task.coordinator->run_tick(t);
        if (tick.global_violation)
          task.detected[static_cast<std::size_t>(t)] = 1;
        task.local_violations += tick.local_violations;
      }
    }
    for (auto& [id, task] : live) finalize(id, task, ticks);
    run.registry_version = registry.version();
    return run;
  });
}

}  // namespace volley
