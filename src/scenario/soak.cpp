#include "scenario/soak.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "control/task_registry.h"
#include "core/error_allocation.h"
#include "core/monitor.h"
#include "net/chaos_proxy.h"
#include "net/coordinator_node.h"
#include "net/framing.h"
#include "net/messages.h"
#include "net/monitor_node.h"
#include "net/socket.h"
#include "sim/experiment.h"

namespace volley::scenario {

namespace {

// --- deterministic JSON rendering ------------------------------------------

std::string fmt_double(double v) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.9g", v);
  return buf.data();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void append_check(std::string& out, const InvariantCheck& check) {
  out += "{\"name\":\"" + json_escape(check.name) + "\",\"pass\":";
  out += check.pass ? "true" : "false";
  out += ",\"detail\":\"" + json_escape(check.detail) + "\"}";
}

// --- phase bookkeeping ------------------------------------------------------

std::vector<ScenarioPhase> effective_phases(const Scenario& scenario) {
  if (!scenario.phases.empty()) return scenario.phases;
  return {{"run", 0, scenario.ticks, -1.0}};
}

double phase_tolerance(const Scenario& scenario, const ScenarioPhase& phase,
                       bool net) {
  // Net mode always judges against net_tolerance: per-phase tolerances are
  // tuned for the simulator's windowed faults, while the chaos proxy applies
  // the union fault plan to the whole run (scenario.h, build_net_fault_plan),
  // so sim-phase budgets carry no meaning on the wire.
  if (net) return scenario.invariants.net_tolerance;
  return phase.tolerance >= 0.0 ? phase.tolerance
                                : scenario.invariants.tolerance;
}

/// Episode miss rate over the window [begin, end): the fraction of ground
/// truth alert episodes overlapping the window in which no overlap tick was
/// detected (the same windowed rule as run_dynamic_tasks scoring).
struct WindowScore {
  std::int64_t episodes{0};
  std::int64_t detected{0};
  double miss_rate() const {
    return episodes == 0
               ? 0.0
               : 1.0 - static_cast<double>(detected) /
                           static_cast<double>(episodes);
  }
};

WindowScore score_episodes(const GroundTruth& truth,
                           std::span<const char> detected, Tick begin,
                           Tick end) {
  WindowScore score;
  for (const auto& [start, stop] : truth.episodes) {
    const Tick lo = std::max(start, begin);
    const Tick hi = std::min(stop, end);
    if (lo >= hi) continue;
    ++score.episodes;
    for (Tick t = lo; t < hi; ++t) {
      if (detected[static_cast<std::size_t>(t)]) {
        ++score.detected;
        break;
      }
    }
  }
  return score;
}

/// Writes the report and snapshot artifacts; throws std::runtime_error on
/// I/O failure (a soak harness must not silently lose its evidence).
class ArtifactWriter {
 public:
  ArtifactWriter(const std::string& dir, const std::string& scenario,
                 const std::string& mode) {
    if (dir.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
      throw std::runtime_error("soak: cannot create artifact dir '" + dir +
                               "': " + ec.message());
    base_ = dir + "/" + scenario + "-" + mode;
    snapshots_.open(base_ + "-snapshots.jsonl",
                    std::ios::binary | std::ios::trunc);
    if (!snapshots_)
      throw std::runtime_error("soak: cannot write " + base_ +
                               "-snapshots.jsonl");
  }

  bool enabled() const { return !base_.empty(); }

  void snapshot(const std::string& line) {
    if (!enabled()) return;
    snapshots_ << line << '\n';
    if (!snapshots_)
      throw std::runtime_error("soak: snapshot write failed (" + base_ + ")");
  }

  void report(const std::string& json) {
    if (!enabled()) return;
    std::ofstream out(base_ + "-report.json",
                      std::ios::binary | std::ios::trunc);
    out << json << '\n';
    if (!out)
      throw std::runtime_error("soak: cannot write " + base_ +
                               "-report.json");
  }

 private:
  std::string base_;
  std::ofstream snapshots_;
};

void check_epochs_monotone(SoakReport& report) {
  InvariantCheck check;
  check.name = "epochs_monotone";
  std::string bad;
  for (std::size_t i = 1; i < report.epochs.size(); ++i) {
    if (report.epochs[i] <= report.epochs[i - 1]) {
      bad = "epoch " + std::to_string(report.epochs[i]) + " after " +
            std::to_string(report.epochs[i - 1]);
      break;
    }
  }
  check.pass = bad.empty();
  check.detail = check.pass ? std::to_string(report.epochs.size()) +
                                  " mutations, strictly increasing"
                            : bad;
  report.global_checks.push_back(std::move(check));
}

}  // namespace

std::string SoakReport::to_json() const {
  std::string out = "{";
  out += "\"scenario\":\"" + json_escape(scenario) + "\",";
  out += "\"mode\":\"" + mode + "\",";
  out += "\"seed\":" + std::to_string(seed) + ",";
  out += "\"ticks\":" + std::to_string(ticks) + ",";
  out += "\"monitors\":" + std::to_string(monitors) + ",";
  out += "\"boot_threshold\":" + fmt_double(boot_threshold) + ",";
  out += "\"passed\":";
  out += passed() ? "true" : "false";
  out += ",\"epochs\":[";
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(epochs[i]);
  }
  out += "],\"phases\":[";
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const auto& phase = phases[p];
    if (p > 0) out += ',';
    out += "{\"phase\":\"" + json_escape(phase.phase) + "\",";
    out += "\"start\":" + std::to_string(phase.start) + ",";
    out += "\"end\":" + std::to_string(phase.end) + ",";
    out += "\"ops\":" + std::to_string(phase.ops) + ",";
    out += "\"local_violations\":" + std::to_string(phase.local_violations) +
           ",";
    out += "\"global_polls\":" + std::to_string(phase.global_polls) + ",";
    out += "\"reallocations\":" + std::to_string(phase.reallocations) + ",";
    out += "\"lost_reports\":" + std::to_string(phase.lost_reports) + ",";
    out += "\"lost_responses\":" + std::to_string(phase.lost_responses) + ",";
    out += "\"outage_monitor_ticks\":" +
           std::to_string(phase.outage_monitor_ticks) + ",";
    out += "\"stale_polls\":" + std::to_string(phase.stale_polls) + ",";
    out += "\"alerts\":" + std::to_string(phase.alerts) + ",";
    out += "\"passed\":";
    out += phase.passed() ? "true" : "false";
    out += ",\"checks\":[";
    for (std::size_t c = 0; c < phase.checks.size(); ++c) {
      if (c > 0) out += ',';
      append_check(out, phase.checks[c]);
    }
    out += "]}";
  }
  out += "],\"global_checks\":[";
  for (std::size_t c = 0; c < global_checks.size(); ++c) {
    if (c > 0) out += ',';
    append_check(out, global_checks[c]);
  }
  out += "]}";
  return out;
}

// --- sim mode ---------------------------------------------------------------

namespace {

/// One live task instance of the sim soak loop.
struct SoakTask {
  TaskSpec spec;
  std::uint64_t epoch{0};
  Tick arrived{0};
  std::vector<std::unique_ptr<Monitor>> monitors;
  std::vector<double> allocation;
  std::vector<double> last_known;
  std::vector<char> detected;  // full run length
  std::unique_ptr<AllowanceAllocator> allocator;
  Tick next_update{0};
  const GroundTruth* truth{nullptr};
};

struct SimCounters {
  std::int64_t ops{0};  // retired tasks' ops folded in
  std::int64_t local_violations{0};
  std::int64_t global_polls{0};
  std::int64_t reallocations{0};
  std::int64_t lost_reports{0};
  std::int64_t lost_responses{0};
  std::int64_t outage_monitor_ticks{0};
  std::int64_t stale_polls{0};
  std::int64_t alerts{0};
};

std::int64_t live_ops(const std::map<TaskId, SoakTask>& live) {
  std::int64_t ops = 0;
  for (const auto& [id, task] : live)
    for (const auto& m : task.monitors) ops += m->total_ops();
  return ops;
}

}  // namespace

SoakReport run_scenario_sim(const Scenario& input,
                            const SoakOptions& options) {
  const Scenario scenario =
      options.quick ? input.scaled(options.quick_ticks) : input;
  scenario.validate();

  const std::vector<TimeSeries> series = build_monitor_series(scenario);
  const TimeSeries aggregate = TimeSeries::sum(series);
  const TaskSpec boot = resolve_boot_task(scenario, aggregate);
  const SimFaultModel faults(scenario);
  const std::vector<ScenarioPhase> phases = effective_phases(scenario);
  const std::size_t n = scenario.monitors;

  // Churn schedule: the boot task arrives at tick 0 ahead of everything
  // else, then the scenario's explicit + seed-derived events.
  std::vector<TaskChurnEvent> events;
  events.push_back({TaskChurnEvent::Kind::kArrive, 0, 0, boot});
  {
    auto churn = build_churn_events(scenario, boot);
    events.insert(events.end(), churn.begin(), churn.end());
  }
  events = canonical_churn_order(std::move(events));

  ArtifactWriter artifacts(options.artifact_dir, scenario.name, "sim");

  SoakReport report;
  report.scenario = scenario.name;
  report.mode = "sim";
  report.seed = scenario.seed;
  report.ticks = scenario.ticks;
  report.monitors = n;
  report.boot_threshold = boot.global_threshold;

  control::TaskRegistry registry;
  std::vector<std::unique_ptr<SeriesSource>> sources;
  sources.reserve(n);
  for (const auto& s : series)
    sources.push_back(std::make_unique<SeriesSource>(s));

  // Ground truth per distinct threshold (churned tasks share thresholds).
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

  std::map<TaskId, SoakTask> live;
  SimCounters counters;  // cumulative over the whole run
  // All fault draws come from one stream consumed in (tick, task id,
  // monitor id) order — fixed by the canonical churn order and the sorted
  // task map, independent of anything external.
  Rng rng(scenario.seed ^ 0x9E3779B97F4A7C15ULL);

  const auto make_task = [&](const TaskSpec& spec, std::uint64_t epoch,
                             Tick arrived) {
    SoakTask task;
    task.spec = spec;
    task.epoch = epoch;
    task.arrived = arrived;
    const double share = spec.error_allowance / static_cast<double>(n);
    const auto thresholds = split_threshold(spec.global_threshold, n);
    for (std::size_t i = 0; i < n; ++i) {
      task.monitors.push_back(std::make_unique<Monitor>(
          static_cast<MonitorId>(i), *sources[i],
          spec.sampler_options(share), thresholds[i]));
    }
    task.allocation.assign(n, share);
    task.last_known.assign(n, 0.0);
    task.detected.assign(static_cast<std::size_t>(scenario.ticks), 0);
    task.allocator = std::make_unique<AdaptiveAllocation>();
    task.next_update = arrived + spec.updating_period;
    task.truth = &truth_for(spec.global_threshold);
    return task;
  };

  // Per-phase state: counters + per-task ops/detected baselines at entry.
  std::size_t phase_index = 0;
  SimCounters phase_start_counters;
  std::int64_t phase_start_ops = 0;
  // (task id, monitor) ops at phase entry; tasks arriving mid-phase are
  // added on arrival.
  std::map<TaskId, std::vector<std::int64_t>> phase_ops_baseline;
  const auto baseline_task = [&](TaskId id, const SoakTask& task) {
    auto& ops = phase_ops_baseline[id];
    ops.clear();
    for (const auto& m : task.monitors) ops.push_back(m->total_ops());
  };

  const auto begin_phase = [&]() {
    phase_start_counters = counters;
    phase_start_ops = counters.ops + live_ops(live);
    phase_ops_baseline.clear();
    for (const auto& [id, task] : live) baseline_task(id, task);
  };

  const auto emit_snapshot = [&](Tick t) {
    if (!artifacts.enabled()) return;
    std::string line = "{\"tick\":" + std::to_string(t);
    line += ",\"tasks\":" + std::to_string(live.size());
    line += ",\"ops\":" + std::to_string(counters.ops + live_ops(live));
    line += ",\"global_polls\":" + std::to_string(counters.global_polls);
    line += ",\"alerts\":" + std::to_string(counters.alerts);
    line += ",\"lost_reports\":" + std::to_string(counters.lost_reports);
    line += ",\"registry_version\":" + std::to_string(registry.version());
    line += "}";
    artifacts.snapshot(line);
  };

  const auto end_phase = [&](const ScenarioPhase& phase) {
    PhaseReport out;
    out.phase = phase.name;
    out.start = phase.start;
    out.end = phase.end;
    out.ops = counters.ops + live_ops(live) - phase_start_ops;
    out.local_violations =
        counters.local_violations - phase_start_counters.local_violations;
    out.global_polls =
        counters.global_polls - phase_start_counters.global_polls;
    out.reallocations =
        counters.reallocations - phase_start_counters.reallocations;
    out.lost_reports =
        counters.lost_reports - phase_start_counters.lost_reports;
    out.lost_responses =
        counters.lost_responses - phase_start_counters.lost_responses;
    out.outage_monitor_ticks = counters.outage_monitor_ticks -
                               phase_start_counters.outage_monitor_ticks;
    out.stale_polls = counters.stale_polls - phase_start_counters.stale_polls;
    out.alerts = counters.alerts - phase_start_counters.alerts;

    const double tolerance = phase_tolerance(scenario, phase, false);

    // error_budget: every live task instance, over phase∩lifetime.
    {
      InvariantCheck check;
      check.name = "error_budget";
      std::string detail;
      for (const auto& [id, task] : live) {
        const Tick lo = std::max(phase.start, task.arrived);
        const Tick hi = phase.end;
        const Tick min_window = static_cast<Tick>(
            scenario.invariants.stuck_factor) * task.spec.max_interval;
        if (hi - lo < min_window) {
          detail += "task " + std::to_string(id) + ": skipped (window " +
                    std::to_string(hi - lo) + " < " +
                    std::to_string(min_window) + "); ";
          continue;
        }
        const auto score = score_episodes(*task.truth, task.detected, lo, hi);
        const double budget = task.spec.error_allowance + tolerance;
        const bool ok = score.miss_rate() <= budget;
        detail += "task " + std::to_string(id) + ": miss=" +
                  fmt_double(score.miss_rate()) + " (" +
                  std::to_string(score.detected) + "/" +
                  std::to_string(score.episodes) + " episodes) budget=" +
                  fmt_double(budget) + "; ";
        if (!ok) check.pass = false;
      }
      check.detail = detail.empty() ? "no live tasks" : detail;
      out.checks.push_back(std::move(check));
    }

    // allowance_conservation: per live task, sum(allocation) == err.
    {
      InvariantCheck check;
      check.name = "allowance_conservation";
      std::string detail;
      for (const auto& [id, task] : live) {
        double sum = 0.0;
        for (double a : task.allocation) sum += a;
        const double drift = std::abs(sum - task.spec.error_allowance);
        if (drift > scenario.invariants.allowance_epsilon) {
          check.pass = false;
          detail += "task " + std::to_string(id) + ": drift=" +
                    fmt_double(drift) + "; ";
        }
      }
      check.detail = detail.empty()
                         ? std::to_string(live.size()) + " task(s) conserve"
                         : detail;
      out.checks.push_back(std::move(check));
    }

    // no_stuck_monitors: sampling progress for every monitor with enough
    // non-outage room in the phase.
    {
      InvariantCheck check;
      check.name = "no_stuck_monitors";
      std::string detail;
      for (const auto& [id, task] : live) {
        const auto baseline = phase_ops_baseline.find(id);
        if (baseline == phase_ops_baseline.end()) continue;
        const Tick lo = std::max(phase.start, task.arrived);
        const Tick min_window = static_cast<Tick>(
            scenario.invariants.stuck_factor) * task.spec.max_interval;
        if (phase.end - lo < min_window) continue;
        for (std::size_t i = 0; i < n; ++i) {
          Tick available = 0;
          for (Tick t = lo; t < phase.end; ++t)
            if (!faults.in_outage(i, t)) ++available;
          if (available <= task.spec.max_interval) continue;  // mostly down
          if (task.monitors[i]->total_ops() <= baseline->second[i]) {
            check.pass = false;
            detail += "task " + std::to_string(id) + " monitor " +
                      std::to_string(i) + " made no progress; ";
          }
        }
      }
      check.detail = detail.empty() ? "all monitors progressed" : detail;
      out.checks.push_back(std::move(check));
    }

    report.phases.push_back(std::move(out));
    emit_snapshot(phase.end);
  };

  std::size_t next_event = 0;
  begin_phase();
  for (Tick t = 0; t < scenario.ticks; ++t) {
    // Control-plane churn scheduled for this tick.
    while (next_event < events.size() && events[next_event].tick <= t) {
      const TaskChurnEvent& event = events[next_event++];
      if (event.kind == TaskChurnEvent::Kind::kArrive) {
        const auto result = registry.add(event.task, event.spec);
        if (!result.ok())
          throw std::invalid_argument("soak: churn add failed: " +
                                      result.error);
        report.epochs.push_back(result.epoch);
        auto task = make_task(event.spec, result.epoch, t);
        baseline_task(event.task, task);
        live.emplace(event.task, std::move(task));
      } else {
        const auto it = live.find(event.task);
        if (it == live.end())
          throw std::invalid_argument("soak: churn depart of unknown task " +
                                      std::to_string(event.task));
        const auto removed = registry.remove(event.task);
        if (!removed.ok())
          throw std::invalid_argument("soak: churn remove failed: " +
                                      removed.error);
        report.epochs.push_back(removed.epoch);
        for (const auto& m : it->second.monitors)
          counters.ops += m->total_ops();
        phase_ops_baseline.erase(event.task);
        live.erase(it);
      }
    }

    // Per-task tick: sampling, lossy reports, lossy polls, reallocation.
    for (auto& [id, task] : live) {
      int surviving_reports = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (faults.in_outage(i, t)) {
          ++counters.outage_monitor_ticks;
          continue;
        }
        Monitor& m = *task.monitors[i];
        if (!m.due(t)) continue;
        const auto outcome = m.step(t);
        task.last_known[i] = outcome.sample.value;
        if (outcome.local_violation) {
          ++counters.local_violations;
          if (rng.bernoulli(faults.report_loss_at(t))) {
            ++counters.lost_reports;
          } else {
            ++surviving_reports;
          }
        }
      }

      if (surviving_reports > 0) {
        ++counters.global_polls;
        bool stale = false;
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const bool down = faults.in_outage(i, t);
          const bool dropped =
              !down && rng.bernoulli(faults.response_loss_at(t));
          if (down || dropped) {
            if (dropped) ++counters.lost_responses;
            stale = true;
            sum += task.last_known[i];
            continue;
          }
          const auto outcome = task.monitors[i]->force_sample(t);
          task.last_known[i] = outcome.sample.value;
          sum += outcome.sample.value;
        }
        if (stale) ++counters.stale_polls;
        if (sum > task.spec.global_threshold) {
          task.detected[static_cast<std::size_t>(t)] = 1;
          ++counters.alerts;
        }
      }

      if (t >= task.next_update) {
        task.next_update = t + task.spec.updating_period;
        std::vector<CoordStats> stats;
        stats.reserve(n);
        for (auto& m : task.monitors) stats.push_back(m->drain_coord_stats());
        task.allocation = task.allocator->allocate(
            task.spec.error_allowance, task.allocation, stats);
        for (std::size_t i = 0; i < n; ++i)
          task.monitors[i]->set_error_allowance(task.allocation[i]);
        ++counters.reallocations;
      }
    }

    if (scenario.snapshot_every > 0 && t > 0 &&
        t % scenario.snapshot_every == 0)
      emit_snapshot(t);

    // Phase boundary: the phase [start, end) is scored once tick end-1 ran.
    if (t + 1 == phases[phase_index].end) {
      end_phase(phases[phase_index]);
      ++phase_index;
      if (phase_index < phases.size()) begin_phase();
    }
  }

  check_epochs_monotone(report);
  {
    InvariantCheck check;
    check.name = "registry_version_matches";
    const std::uint64_t expected =
        report.epochs.empty() ? 0 : report.epochs.back();
    check.pass = registry.version() == expected;
    check.detail = "version=" + std::to_string(registry.version()) +
                   " last_epoch=" + std::to_string(expected);
    report.global_checks.push_back(std::move(check));
  }

  artifacts.report(report.to_json());
  return report;
}

// --- net mode ---------------------------------------------------------------

namespace {

/// One scheduled control-plane RPC of the net soak run.
struct WireChurnOp {
  Tick tick{0};
  net::Message request;
  std::string label;
};

/// Control round trip on a fresh connection (the volleyctl exchange,
/// in-process). nullopt on transport failure.
std::optional<net::Message> control_round_trip(std::uint16_t port,
                                               const net::Message& request,
                                               int timeout_ms) {
  auto conn = TcpConnection::try_connect("127.0.0.1", port, timeout_ms);
  if (!conn) return std::nullopt;
  if (!conn->send_all(frame_payload(net::encode(request))))
    return std::nullopt;
  FrameReader reader;
  std::array<std::byte, 8192> buf;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto n = conn->recv_some(buf);
    if (!n) continue;
    if (*n == 0) break;
    reader.feed(std::span<const std::byte>(buf.data(), *n));
    if (auto payload = reader.next()) return net::decode(*payload);
  }
  return std::nullopt;
}

std::vector<WireChurnOp> build_wire_churn(const Scenario& scenario,
                                          const TaskSpec& boot) {
  std::vector<WireChurnOp> ops;
  for (const auto& event : scenario.churn.events) {
    TaskSpec spec = boot;
    spec.global_threshold = boot.global_threshold * event.threshold_scale;
    WireChurnOp op;
    op.tick = event.tick;
    switch (event.op) {
      case ChurnSpec::Event::Op::kAdd:
        op.request = net::AddTask{event.task, spec};
        op.label = "add " + std::to_string(event.task);
        break;
      case ChurnSpec::Event::Op::kRemove:
        op.request = net::RemoveTask{event.task};
        op.label = "remove " + std::to_string(event.task);
        break;
      case ChurnSpec::Event::Op::kUpdate:
        op.request = net::UpdateTask{event.task, spec};
        op.label = "update " + std::to_string(event.task);
        break;
    }
    ops.push_back(std::move(op));
  }
  if (scenario.churn.random_arrivals > 0) {
    ChurnScheduleOptions schedule;
    schedule.seed = scenario.seed ^ 0xC4CEB9FE1A85EC53ULL;
    schedule.ticks = scenario.ticks;
    schedule.arrivals = scenario.churn.random_arrivals;
    schedule.first_task = scenario.churn.first_task;
    schedule.hold_min = scenario.churn.hold_min;
    schedule.hold_max = scenario.churn.hold_max;
    schedule.spec = boot;
    schedule.spec.global_threshold =
        boot.global_threshold * scenario.churn.threshold_scale;
    for (const auto& event : make_churn_schedule(schedule)) {
      WireChurnOp op;
      op.tick = event.tick;
      if (event.kind == TaskChurnEvent::Kind::kArrive) {
        op.request = net::AddTask{event.task, event.spec};
        op.label = "add " + std::to_string(event.task);
      } else {
        op.request = net::RemoveTask{event.task};
        op.label = "remove " + std::to_string(event.task);
      }
      ops.push_back(std::move(op));
    }
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const WireChurnOp& a, const WireChurnOp& b) {
                     return a.tick < b.tick;
                   });
  return ops;
}

}  // namespace

SoakReport run_scenario_net(const Scenario& input,
                            const SoakOptions& options) {
  const Scenario scenario =
      options.quick ? input.scaled(options.quick_ticks) : input;
  scenario.validate();

  const std::vector<TimeSeries> series = build_monitor_series(scenario);
  const TimeSeries aggregate = TimeSeries::sum(series);
  const TaskSpec boot = resolve_boot_task(scenario, aggregate);
  const std::vector<ScenarioPhase> phases = effective_phases(scenario);
  const std::size_t n = scenario.monitors;
  const std::vector<WireChurnOp> churn = build_wire_churn(scenario, boot);

  ArtifactWriter artifacts(options.artifact_dir, scenario.name, "net");

  SoakReport report;
  report.scenario = scenario.name;
  report.mode = "net";
  report.seed = scenario.seed;
  report.ticks = scenario.ticks;
  report.monitors = n;
  report.boot_threshold = boot.global_threshold;

  net::CoordinatorNodeOptions copt;
  copt.monitors = n;
  copt.global_threshold = boot.global_threshold;
  copt.error_allowance = boot.error_allowance;
  copt.adaptive_allocation = true;
  // Alerts are scored per tick, so collect them as they are raised: the
  // node itself keeps only a bounded window. Written on the coordinator's
  // thread, read after it is joined.
  const auto tick_count = static_cast<std::size_t>(scenario.ticks);
  std::vector<char> detected(tick_count, 0);    // boot-task alerts
  std::vector<std::int64_t> alerts_at(tick_count, 0);  // every task
  copt.on_alert = [&detected, &alerts_at](TaskId task, Tick tick, double) {
    if (tick < 0 || static_cast<std::size_t>(tick) >= alerts_at.size())
      return;
    ++alerts_at[static_cast<std::size_t>(tick)];
    if (task == 0) detected[static_cast<std::size_t>(tick)] = 1;
  };
  net::CoordinatorNode coordinator(copt);

  net::ChaosProxyOptions popt;
  popt.upstream_port = coordinator.port();
  popt.plan = build_net_fault_plan(scenario);
  net::ChaosProxy proxy(popt);

  std::vector<std::unique_ptr<SeriesSource>> sources;
  std::vector<std::unique_ptr<net::MonitorNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    sources.push_back(std::make_unique<SeriesSource>(series[i]));
    net::MonitorNodeOptions mopt;
    mopt.id = static_cast<MonitorId>(i);
    mopt.coordinator_port = proxy.port();
    mopt.local_threshold =
        boot.global_threshold / static_cast<double>(n);
    mopt.sampler = boot.sampler_options(boot.error_allowance /
                                        static_cast<double>(n));
    mopt.ticks = scenario.ticks;
    mopt.updating_period = boot.updating_period;
    mopt.tick_micros = scenario.tick_micros;
    nodes.push_back(std::make_unique<net::MonitorNode>(mopt, *sources[i]));
  }

  std::thread coord_thread([&coordinator] { coordinator.run(); });
  std::thread proxy_thread([&proxy] { proxy.run(); });
  std::vector<std::thread> monitor_threads;
  monitor_threads.reserve(nodes.size());
  for (auto& node : nodes)
    monitor_threads.emplace_back([&node] { node->run(); });

  // Churn driver: control RPCs go straight to the coordinator (the fault
  // plan is for the data plane; a dropped AddTask would make the epoch
  // record ambiguous). Ops fire on the scenario's tick schedule mapped to
  // the monitors' compressed wall clock.
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::pair<std::string, bool>> churn_outcomes;
  std::optional<net::TaskListReply> last_list;
  for (const auto& op : churn) {
    std::this_thread::sleep_until(
        wall_start + std::chrono::microseconds(
                         static_cast<std::int64_t>(op.tick) *
                         scenario.tick_micros));
    const auto reply = control_round_trip(coordinator.port(), op.request,
                                          2000);
    bool ok = false;
    if (reply) {
      if (const auto* control = std::get_if<net::ControlReply>(&*reply)) {
        ok = control->status == control::ControlStatus::kOk;
        if (ok) report.epochs.push_back(control->epoch);
      }
    }
    churn_outcomes.emplace_back(op.label, ok);
    if (artifacts.enabled()) {
      artifacts.snapshot("{\"churn\":\"" + json_escape(op.label) +
                         "\",\"tick\":" + std::to_string(op.tick) +
                         ",\"ok\":" + (ok ? "true" : "false") + "}");
    }
    if (const auto list_reply =
            control_round_trip(coordinator.port(), net::ListTasks{}, 2000)) {
      if (const auto* list = std::get_if<net::TaskListReply>(&*list_reply))
        last_list = *list;
    }
  }

  for (auto& t : monitor_threads) t.join();
  coord_thread.join();
  proxy.request_stop();
  proxy_thread.join();

  // Ground truth scoring: the coordinator's boot-task alerts, judged per
  // phase against the composed aggregate.
  const GroundTruth truth =
      GroundTruth::from_series(aggregate, boot.global_threshold);

  for (const auto& phase : phases) {
    PhaseReport out;
    out.phase = phase.name;
    out.start = phase.start;
    out.end = phase.end;
    for (Tick t = std::max<Tick>(phase.start, 0);
         t < std::min<Tick>(phase.end, scenario.ticks); ++t) {
      out.alerts += alerts_at[static_cast<std::size_t>(t)];
    }

    const double tolerance = phase_tolerance(scenario, phase, true);
    InvariantCheck budget;
    budget.name = "error_budget";
    const Tick min_window =
        static_cast<Tick>(scenario.invariants.stuck_factor) *
        boot.max_interval;
    if (tolerance >= 1.0) {
      budget.detail = "skipped (net_tolerance disables the check)";
    } else if (phase.end - phase.start < min_window) {
      budget.detail = "skipped (phase shorter than " +
                      std::to_string(min_window) + " ticks)";
    } else {
      const auto score =
          score_episodes(truth, detected, phase.start, phase.end);
      const double cap = boot.error_allowance + tolerance;
      budget.pass = score.miss_rate() <= cap;
      budget.detail = "miss=" + fmt_double(score.miss_rate()) + " (" +
                      std::to_string(score.detected) + "/" +
                      std::to_string(score.episodes) + " episodes) budget=" +
                      fmt_double(cap);
    }
    out.checks.push_back(std::move(budget));
    report.phases.push_back(std::move(out));
  }

  // Global invariants.
  check_epochs_monotone(report);
  {
    InvariantCheck check;
    check.name = "churn_accepted";
    std::string failed;
    for (const auto& [label, ok] : churn_outcomes) {
      if (!ok) failed += label + "; ";
    }
    check.pass = failed.empty();
    check.detail = check.pass ? std::to_string(churn_outcomes.size()) +
                                    " control op(s) accepted"
                              : "rejected/lost: " + failed;
    report.global_checks.push_back(std::move(check));
  }
  {
    InvariantCheck check;
    check.name = "no_stuck_monitors";
    std::string detail;
    for (std::size_t i = 0; i < n; ++i) {
      const auto it =
          coordinator.reported_ops().find(static_cast<MonitorId>(i));
      if (it == coordinator.reported_ops().end()) {
        check.pass = false;
        detail += "monitor " + std::to_string(i) + " never said Bye; ";
      } else if (it->second <= 0) {
        check.pass = false;
        detail += "monitor " + std::to_string(i) + " reported 0 ops; ";
      }
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i]->coordinator_lost()) {
        check.pass = false;
        detail += "monitor " + std::to_string(i) +
                  " abandoned reconnection; ";
      }
    }
    check.detail = detail.empty() ? "all monitors reported ops" : detail;
    report.global_checks.push_back(std::move(check));
  }
  {
    InvariantCheck check;
    check.name = "allowance_conservation";
    if (!last_list) {
      check.detail = churn.empty()
                         ? "skipped (no churn, no registry snapshot taken)"
                         : "skipped (no ListTasks snapshot survived)";
    } else {
      std::string detail;
      for (const auto& task : last_list->tasks) {
        double sum = 0.0;
        for (const auto& [monitor, allowance] : task.allowance_split)
          sum += allowance;
        const double drift = std::abs(sum - task.error_allowance);
        // The wire runtime reclaims allowance from dead monitors, so the
        // split can be a strict subset mid-fault; conservation means never
        // exceeding the task budget.
        if (sum > task.error_allowance +
                      scenario.invariants.allowance_epsilon) {
          check.pass = false;
          detail += "task " + std::to_string(task.task) + ": over-budget " +
                    fmt_double(drift) + "; ";
        }
      }
      check.detail = detail.empty()
                         ? std::to_string(last_list->tasks.size()) +
                               " task(s) within budget"
                         : detail;
    }
    report.global_checks.push_back(std::move(check));
  }

  artifacts.report(report.to_json());
  return report;
}

SoakReport run_scenario(const Scenario& scenario, const SoakOptions& options) {
  return options.mode == SoakOptions::Mode::kSim
             ? run_scenario_sim(scenario, options)
             : run_scenario_net(scenario, options);
}

}  // namespace volley::scenario
