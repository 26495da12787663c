// The two simulated workloads: quiet_fleet (a flat core::Coordinator over
// quiet lanes) and hot_shards (a two-tier shard::ShardedCoordinator over
// noisy lanes). Both run single-threaded through the library's public tick
// loop; every input value is a pure function of (seed, monitor, tick).
#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/coordinator.h"
#include "core/metric_source.h"
#include "core/monitor.h"
#include "core/task.h"
#include "obs/metrics.h"
#include "shard/runner.h"
#include "shard/sharded_coordinator.h"
#include "sim/experiment.h"
#include "sim/runner.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

using volley::Coordinator;
using volley::Monitor;
using volley::Tick;
using volley::shard::ShardedCoordinator;

// ---------------------------------------------------------------------------
// Inputs

/// The shape of a simulated fleet. Every local threshold is 1.0 and the
/// global threshold is the monitor count, so a lane's value reads directly
/// as a fraction of its threshold.
struct FleetShape {
  std::size_t monitors{0};
  // Timed window length per requested second: about one second's worth of
  // ticks on the reference box, fixed so that every run of a seed does the
  // same work whatever the speed of the code under test.
  Tick ticks_per_second{1000};
  std::size_t shards{1};      // 1 = flat core::Coordinator
  Tick updating_period{1000};
  Tick warmup_ticks{0};       // run before the timed window, untimed
  Tick chunk_ticks{1000};     // reference work runs after every chunk of this many

  // Quiet lanes: a constant level plus bounded uniform noise, small enough
  // that β̄ stays exactly 0 (the likelihood kernel's certificate) up to Im.
  double quiet_level{0.5};
  double quiet_noise{1e-10};

  // Hot lanes (hot_shards only): in every `hot_every`-th shard the first
  // `hot_lanes` lanes swing around their threshold with a period of
  // `hot_period` ticks, one phase per block of `hot_block` lanes.
  std::size_t hot_every{0};  // 0 = no hot lanes
  std::size_t hot_lanes{0};
  std::size_t hot_block{64};
  double hot_level{0.82};
  double hot_swing{0.2};
  double hot_noise{0.03};
  Tick hot_period{233};  // not a divisor of any updating period
  double hot_phase_jitter{0.3};  // radians around the shard's phase

  // Rack blips: once in each slot of `blip_slot` ticks, for one tick, one
  // rack of `blip_width` adjacent lanes jumps far enough that the fleet
  // aggregate crosses T.
  Tick blip_slot{8};
  std::size_t blip_width{4};
};

/// Stride between the racks of consecutive blips: a prime, so it is
/// coprime with every rack count the workloads use.
constexpr std::uint64_t kRackStride = 397;

struct Blip {
  Tick tick{0};
  std::size_t first_lane{0};
};

/// value(i, t): the monitored state of lane i at tick t, computed on the
/// fly so that memory measures the monitoring state, not stored input.
class FleetSignal {
 public:
  FleetSignal(const FleetShape& shape, std::uint64_t seed)
      : shape_(shape), seed_(seed) {
    const std::size_t n = shape.monitors;
    if (n == 0 || shape.shards == 0 || n % shape.shards != 0)
      throw std::invalid_argument("FleetShape: monitors % shards != 0");
    if (shape.hot_lanes > n / shape.shards || shape.hot_lanes % shape.hot_block != 0)
      throw std::invalid_argument("FleetShape: hot lanes must be whole blocks within a shard");
    if (shape.blip_width == 0 || n % shape.blip_width != 0)
      throw std::invalid_argument("FleetShape: monitors % blip_width != 0");
    hot_.assign(n, 0);
    phase_.assign(n, 0.0);
    const std::size_t per_shard = n / shape.shards;
    if (shape.hot_every > 0) {
      for (std::size_t s = 0; s < shape.shards; s += shape.hot_every) {
        // Hot shards peak in turn, evenly spread over the period; the seed
        // only shifts the whole pattern.
        const double shard_phase =
            2.0 * std::numbers::pi *
            (unit(hash3(seed, 0x51a7d, 0)) +
             static_cast<double>(s / shape.hot_every) * static_cast<double>(shape.hot_every) /
                 static_cast<double>(shape.shards));
        // Blocks within a hot shard are spread evenly across
        // [-jitter, +jitter] around the shard's phase.
        const std::size_t blocks = shape.hot_lanes / shape.hot_block;
        for (std::size_t k = 0; k < shape.hot_lanes; ++k) {
          const std::size_t block = k / shape.hot_block;
          const double offset =
              blocks < 2 ? 0.0
                         : 2.0 * static_cast<double>(block) / static_cast<double>(blocks - 1) - 1.0;
          hot_[s * per_shard + k] = 1;
          phase_[s * per_shard + k] = shard_phase + shape.hot_phase_jitter * offset;
        }
      }
    }
    // Bounds without blips: the aggregate never reaches T outside a blip,
    // and a blip lifts it above T whatever the noise does.
    double floor_sum = 0.0;
    double ceiling_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (hot_[i]) {
        floor_sum += shape.hot_level - shape.hot_swing - shape.hot_noise;
        ceiling_sum += shape.hot_level + shape.hot_swing + shape.hot_noise;
      } else {
        floor_sum += shape.quiet_level - shape.quiet_noise;
        ceiling_sum += shape.quiet_level + shape.quiet_noise;
      }
    }
    const double threshold = static_cast<double>(n);
    if (ceiling_sum >= threshold)
      throw std::invalid_argument("FleetShape: aggregate can reach T unprompted");
    blip_lift_ = 1.25 * (threshold - floor_sum) /
                 static_cast<double>(shape.blip_width);
  }

  std::size_t monitors() const { return shape_.monitors; }
  double global_threshold() const { return static_cast<double>(shape_.monitors); }

  Blip blip_in_slot(std::uint64_t slot) const {
    Blip b;
    const std::uint64_t h = hash3(seed_, 0xb1195, slot);
    b.tick = static_cast<Tick>(slot) * shape_.blip_slot +
             static_cast<Tick>(mix64(h) % static_cast<std::uint64_t>(shape_.blip_slot));
    // Racks are visited with a fixed stride from a seeded start, so every
    // seed spreads its blips evenly over hot and quiet racks.
    const std::uint64_t racks = shape_.monitors / shape_.blip_width;
    const std::uint64_t first = hash3(seed_, 0x7ac, 0) % racks;
    b.first_lane = static_cast<std::size_t>((first + slot * kRackStride) % racks) *
                   shape_.blip_width;
    return b;
  }

  double value(std::size_t i, Tick t) const {
    const double u = 2.0 * unit(hash3(seed_, i, static_cast<std::uint64_t>(t))) - 1.0;
    double v;
    if (hot_[i]) {
      const double angle =
          2.0 * std::numbers::pi * static_cast<double>(t % shape_.hot_period) /
              static_cast<double>(shape_.hot_period) +
          phase_[i];
      v = shape_.hot_level + shape_.hot_swing * std::sin(angle) +
          shape_.hot_noise * u;
    } else {
      v = shape_.quiet_level + shape_.quiet_noise * u;
    }
    const Blip b = blip_in_slot(static_cast<std::uint64_t>(t / shape_.blip_slot));
    if (t == b.tick && i >= b.first_lane &&
        i < b.first_lane + shape_.blip_width) {
      v += blip_lift_;
    }
    return v;
  }

  /// Ground truth over [from, to): per tick, does the aggregate exceed T?
  /// Outside blips the bounds above prove it does not, so only blip ticks
  /// are summed (in lane order, exactly as TimeSeries::sum would).
  std::vector<char> truth(Tick from, Tick to) const {
    std::vector<char> alert(static_cast<std::size_t>(to - from), 0);
    const double threshold = global_threshold();
    for (Tick slot = from / shape_.blip_slot; slot * shape_.blip_slot < to; ++slot) {
      const Blip b = blip_in_slot(static_cast<std::uint64_t>(slot));
      if (b.tick < from || b.tick >= to) continue;
      double sum = 0.0;
      for (std::size_t i = 0; i < shape_.monitors; ++i) sum += value(i, b.tick);
      alert[static_cast<std::size_t>(b.tick - from)] = sum > threshold ? 1 : 0;
    }
    return alert;
  }

 private:
  FleetShape shape_;
  std::uint64_t seed_;
  std::vector<char> hot_;
  std::vector<double> phase_;
  double blip_lift_{0.0};
};

class LaneSource final : public volley::MetricSource {
 public:
  LaneSource(const FleetSignal& signal, std::size_t lane)
      : signal_(signal), lane_(lane) {}
  double value_at(Tick t) const override { return signal_.value(lane_, t); }
  Tick length() const override { return std::numeric_limits<Tick>::max(); }

 private:
  const FleetSignal& signal_;
  std::size_t lane_;
};

volley::TaskSpec task_spec(const FleetShape& shape) {
  volley::TaskSpec spec;
  spec.global_threshold = static_cast<double>(shape.monitors);
  spec.updating_period = shape.updating_period;
  return spec;
}

// ---------------------------------------------------------------------------
// The system under test, flat or sharded, behind one tick interface.

class Fleet {
 public:
  Fleet(const FleetShape& shape, const std::vector<std::unique_ptr<LaneSource>>& sources)
      : spec_(task_spec(shape)) {
    std::vector<std::unique_ptr<Monitor>> monitors;
    monitors.reserve(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      // As the library's runners do: the coordinator's even split
      // overwrites the placeholder allowance.
      monitors.push_back(std::make_unique<Monitor>(
          static_cast<volley::MonitorId>(i), *sources[i],
          spec_.sampler_options(spec_.error_allowance), 1.0));
    }
    // The flat runner's allocator is AdaptiveAllocation's defaults, whose
    // err/100 floor is infeasible past 100 lanes; the shard factory caps it
    // at half an even share and equals the defaults at <= 50 lanes.
    const auto factory =
        volley::shard::make_allocator_factory(volley::AllocatorKind::kAdaptive);
    if (shape.shards == 1) {
      flat_ = std::make_unique<Coordinator>(spec_, std::move(monitors),
                                            factory(sources.size()));
    } else {
      sharded_ = std::make_unique<ShardedCoordinator>(spec_, std::move(monitors),
                                                      shape.shards, factory);
    }
  }

  Coordinator::TickResult run_tick(Tick t) {
    return flat_ ? flat_->run_tick(t) : sharded_->run_tick(t);
  }
  std::int64_t polls() const {
    return flat_ ? flat_->global_polls()
                 : sharded_->shard_polls() + sharded_->escalations();
  }
  std::int64_t reallocations() const {
    return flat_ ? flat_->reallocations() : sharded_->reallocations();
  }
  std::int64_t escalations() const { return flat_ ? 0 : sharded_->escalations(); }
  std::int64_t root_reallocations() const {
    return flat_ ? 0 : sharded_->root_reallocations();
  }
  std::int64_t total_ops() const {
    return flat_ ? flat_->total_ops() : sharded_->total_ops();
  }

 private:
  volley::TaskSpec spec_;
  std::unique_ptr<Coordinator> flat_;
  std::unique_ptr<ShardedCoordinator> sharded_;
};

// ---------------------------------------------------------------------------
// Timed windows

/// Exact accounting of a tick window, used for the metrics and compared
/// between the untraced and traced windows.
struct Accounting {
  Tick ticks{0};
  std::int64_t ops{0};
  std::int64_t scheduled{0};
  std::int64_t forced{0};
  std::int64_t polls{0};
  std::int64_t reallocations{0};
  std::int64_t root_reallocations{0};
  std::int64_t escalations{0};
  std::int64_t local_violations{0};
  std::int64_t detected_ticks{0};
  std::int64_t beta_evals{0};
  std::int64_t resets{0};
  std::int64_t uniform_skips{0};
  std::int64_t floor_clamps{0};

  bool operator==(const Accounting&) const = default;
};

/// Handles to the run-scoped registry's counters the windows read.
struct RegistryView {
  explicit RegistryView(volley::obs::MetricsRegistry& r)
      : scheduled(r.counter("volley_monitor_scheduled_ops_total")),
        forced(r.counter("volley_monitor_forced_ops_total")),
        resets(r.counter("volley_sampler_interval_resets_total")),
        uniform_skips(r.counter("volley_allocation_uniform_skips_total")),
        floor_clamps(r.counter("volley_allocation_floor_clamps_total")),
        beta(r.histogram("volley_sampler_beta_bound", 0.0, 1.0, 20)) {}
  volley::obs::Counter& scheduled;
  volley::obs::Counter& forced;
  volley::obs::Counter& resets;
  volley::obs::Counter& uniform_skips;
  volley::obs::Counter& floor_clamps;
  volley::obs::HistogramMetric& beta;
};

Accounting snapshot(const Fleet& fleet, const RegistryView& reg) {
  Accounting a;
  a.ops = fleet.total_ops();
  a.scheduled = reg.scheduled.value();
  a.forced = reg.forced.value();
  a.polls = fleet.polls();
  a.reallocations = fleet.reallocations();
  a.root_reallocations = fleet.root_reallocations();
  a.escalations = fleet.escalations();
  a.beta_evals = reg.beta.snapshot().count();
  a.resets = reg.resets.value();
  a.uniform_skips = reg.uniform_skips.value();
  a.floor_clamps = reg.floor_clamps.value();
  return a;
}

Accounting minus(Accounting b, const Accounting& a) {
  b.ops -= a.ops;
  b.scheduled -= a.scheduled;
  b.forced -= a.forced;
  b.polls -= a.polls;
  b.reallocations -= a.reallocations;
  b.root_reallocations -= a.root_reallocations;
  b.escalations -= a.escalations;
  b.beta_evals -= a.beta_evals;
  b.resets -= a.resets;
  b.uniform_skips -= a.uniform_skips;
  b.floor_clamps -= a.floor_clamps;
  return b;
}

/// Traced windows: wall time and scheduled ops per kind of tick.
struct TickClass {
  double ns{0.0};
  std::int64_t count{0};
  std::int64_t scheduled_ops{0};
};

/// Untraced windows: thread CPU time of the window's ticks, in total and
/// over the ticks of each kind that an end-to-end metric times.
struct TickTimes {
  std::int64_t ticks{0};
  std::int64_t cpu_ns{0};
  std::int64_t alert_ns{0};
  std::int64_t alert_ticks{0};
  std::int64_t realloc_ns{0};
  std::int64_t realloc_ticks{0};
  std::int64_t poll_ns{0};
  std::int64_t polls{0};  // polls run by the poll-holding ticks
};

struct WindowResult {
  Accounting acct;
  std::map<std::string, TickClass> classes;  // traced windows only
  TickTimes times;                           // untraced windows only
  std::int64_t wall_ns{0};
  std::vector<char> detected;  // per tick: alert raised
};

/// Runs ticks [first, first + ticks). With a span log, every tick becomes
/// one span named after what it did, timed by the wall clock. Without one,
/// every tick is timed by the thread's CPU clock (which leaves out time the
/// host took the CPU away), and `between_chunks` runs, untimed, after every
/// `chunk_ticks` ticks but the last.
WindowResult run_window(Fleet& fleet, const RegistryView& reg, Tick first,
                        Tick ticks, SpanLog* spans, Tick chunk_ticks = 0,
                        const std::function<void()>& between_chunks = {}) {
  WindowResult w;
  w.detected.reserve(static_cast<std::size_t>(ticks));
  const Accounting before = snapshot(fleet, reg);
  const std::int64_t wall0 = now_ns();
  std::int64_t reallocs = before.reallocations;
  std::int64_t escalations = before.escalations;
  std::int64_t scheduled = before.scheduled;
  std::int64_t polls = before.polls;
  TickTimes& tt = w.times;
  Tick t = first;
  std::int64_t t_b = wall0;
  std::int64_t c_b = spans == nullptr ? thread_cpu_ns() : 0;
  for (; t < first + ticks; ++t) {
    const std::int64_t t_a = spans != nullptr ? now_ns() : 0;
    const std::int64_t c_a = c_b;
    const auto r = fleet.run_tick(t);
    if (spans != nullptr) {
      t_b = now_ns();
    } else {
      c_b = thread_cpu_ns();
    }
    const std::int64_t tick_cpu = c_b - c_a;
    w.acct.local_violations += r.local_violations;
    w.detected.push_back(r.global_violation ? 1 : 0);
    const std::int64_t now_reallocs = fleet.reallocations();
    const bool realloc = now_reallocs != reallocs;
    reallocs = now_reallocs;
    if (r.global_violation) ++w.acct.detected_ticks;
    if (spans == nullptr) {
      ++tt.ticks;
      tt.cpu_ns += tick_cpu;
      if (r.global_violation) {
        tt.alert_ns += tick_cpu;
        ++tt.alert_ticks;
      }
      if (realloc) {
        tt.realloc_ns += tick_cpu;
        ++tt.realloc_ticks;
      }
      const std::int64_t now_polls = fleet.polls();
      if (now_polls != polls) {
        tt.poll_ns += tick_cpu;
        tt.polls += now_polls - polls;
        polls = now_polls;
      }
      if (between_chunks && chunk_ticks > 0 && tt.ticks % chunk_ticks == 0 &&
          t + 1 < first + ticks) {
        between_chunks();
        c_b = thread_cpu_ns();
      }
    } else {
      const std::int64_t now_esc = fleet.escalations();
      const std::int64_t now_sched = reg.scheduled.value();
      const char* name = "tick.idle";
      if (now_esc != escalations) {
        name = "tick.escalation";
      } else if (realloc) {
        name = "tick.realloc";
      } else if (r.global_poll) {
        name = "tick.poll";
      } else if (r.any_due) {
        name = "tick.sample";
      }
      spans->add(name, t_a, t_b, static_cast<std::uint64_t>(t) + 1);
      TickClass& c = w.classes[name];
      c.ns += static_cast<double>(t_b - t_a);
      ++c.count;
      c.scheduled_ops += now_sched - scheduled;
      escalations = now_esc;
      scheduled = now_sched;
    }
  }
  w.wall_ns = now_ns() - wall0;
  const Accounting after = snapshot(fleet, reg);
  const std::int64_t local_violations = w.acct.local_violations;
  const std::int64_t detected_ticks = w.acct.detected_ticks;
  w.acct = minus(after, before);
  w.acct.local_violations = local_violations;
  w.acct.detected_ticks = detected_ticks;
  w.acct.ticks = t - first;
  return w;
}

/// Episodes (maximal runs of true alert ticks) and how many of them had at
/// least one detected tick.
std::pair<std::int64_t, std::int64_t> score_episodes(const std::vector<char>& truth,
                                                     const std::vector<char>& detected) {
  std::int64_t episodes = 0;
  std::int64_t hit = 0;
  bool in = false;
  bool seen = false;
  for (std::size_t t = 0; t < truth.size(); ++t) {
    if (truth[t]) {
      if (!in) {
        in = true;
        seen = false;
        ++episodes;
      }
      if (detected[t] && !seen) {
        seen = true;
        ++hit;
      }
    } else {
      in = false;
    }
  }
  return {episodes, hit};
}

std::vector<std::unique_ptr<LaneSource>> make_sources(const FleetSignal& signal) {
  std::vector<std::unique_ptr<LaneSource>> sources;
  sources.reserve(signal.monitors());
  for (std::size_t i = 0; i < signal.monitors(); ++i)
    sources.push_back(std::make_unique<LaneSource>(signal, i));
  return sources;
}

// ---------------------------------------------------------------------------
// Correctness gate: the benchmark's own tick loop, at reduced size, must
// account exactly what the library's runner reports for the same inputs.

void identity_gate(const FleetShape& full, std::uint64_t seed, RunReport& report) {
  FleetShape small = full;
  small.monitors = 48;
  small.shards = full.shards == 1 ? 1 : 4;
  small.blip_width = 2;
  small.hot_block = 4;
  small.hot_lanes = full.hot_lanes == 0 ? 0 : 4;
  small.hot_every = full.hot_every == 0 ? 0 : 2;
  small.updating_period = 251;
  const Tick ticks = 4000;

  const FleetSignal signal(small, seed);
  const auto sources = make_sources(signal);
  volley::obs::MetricsRegistry registry;
  Accounting mine;
  std::pair<std::int64_t, std::int64_t> episodes;
  {
    volley::obs::ScopedMetricsRegistry scope(registry);
    const RegistryView reg(registry);
    Fleet fleet(small, sources);
    const WindowResult w = run_window(fleet, reg, 0, ticks, nullptr);
    mine = w.acct;
    episodes = score_episodes(signal.truth(0, ticks), w.detected);
  }

  std::vector<volley::TimeSeries> series(small.monitors,
                                         volley::TimeSeries(static_cast<std::size_t>(ticks)));
  for (std::size_t i = 0; i < small.monitors; ++i)
    for (Tick t = 0; t < ticks; ++t)
      series[i][static_cast<std::size_t>(t)] = signal.value(i, t);
  const std::vector<double> thresholds(small.monitors, 1.0);
  const volley::TaskSpec spec = task_spec(small);
  volley::RunResult ref;
  if (small.shards == 1) {
    ref = volley::run_volley(spec, series, thresholds);
  } else {
    volley::shard::ShardedRunOptions options;
    options.shards = small.shards;
    ref = volley::shard::run_volley_sharded(spec, series, thresholds, options);
  }
  const auto check = [&](const char* what, std::int64_t got, std::int64_t want) {
    if (got != want)
      report.fail(std::string("identity gate: ") + what + " " + std::to_string(got) +
                  " != runner's " + std::to_string(want));
  };
  check("ops", mine.ops, ref.total_ops());
  check("scheduled ops", mine.scheduled, ref.scheduled_ops);
  check("forced ops", mine.forced, ref.forced_ops);
  check("polls", mine.polls, ref.global_polls);
  check("reallocations", mine.reallocations, ref.reallocations);
  check("local violations", mine.local_violations, ref.local_violations);
  check("detected alert ticks", mine.detected_ticks, ref.detected_alert_ticks);
  check("episodes", episodes.first, ref.true_episodes);
  check("detected episodes", episodes.second, ref.detected_episodes);
  if (ref.true_episodes == 0) report.fail("identity gate: no episodes at reduced size");
}

// ---------------------------------------------------------------------------

// On a shared host the same code runs up to ~1.4x slower for minutes at a
// time (other guests share the cores), and a run meets a different host
// each time. The sims therefore also time slices of fixed reference work,
// spread over the same span as the work they measure, and scale every time
// they report to the speed at which the reference work runs on the
// reference box. The reference work is benchmark code that no change to
// the program touches: hashing and sine as in the input generator above,
// and a vectorised multiply-add as in the β̄ batches.

/// CPU time of one reference slice on the reference box at full speed.
constexpr double kReferenceWorkNs = 1.5e6;

/// Runs one slice of reference work; returns its thread CPU time.
std::int64_t reference_work_ns() {
  static double a[512], b[512], c[512];
  const std::int64_t t0 = thread_cpu_ns();
  double s = 0.0;
  for (std::uint64_t i = 0; i < 20000; ++i)
    s += std::sin(6.0 * unit(hash3(7, i, 11))) + 0.5 * unit(mix64(i));
  for (int rep = 0; rep < 4800; ++rep) {
    for (int i = 0; i < 512; ++i) c[i] = c[i] * 0.999 + a[i] * b[i];
    asm volatile("" : : "r"(c) : "memory");
  }
  asm volatile("" : : "x"(s));
  return thread_cpu_ns() - t0;
}

/// The factor that scales times measured here to the reference box:
/// kReferenceWorkNs over the mean of the slices measured.
double speed_scale(const std::vector<std::int64_t>& slices_ns) {
  double sum = 0.0;
  for (std::int64_t ns : slices_ns) sum += static_cast<double>(ns);
  return kReferenceWorkNs * static_cast<double>(slices_ns.size()) / sum;
}

/// One set-up, timed by the wall clock: build the monitors, the
/// coordinator(s), allocators and the due index, and run the new fleet
/// until its first reallocation round, from which its allowances adapt.
/// The fleet records into a registry of its own, so the window's
/// accounting is untouched, and is destroyed after the clock stops.
double timed_setup_s(const FleetShape& shape,
                     const std::vector<std::unique_ptr<LaneSource>>& sources) {
  volley::obs::MetricsRegistry registry;
  volley::obs::ScopedMetricsRegistry scope(registry);
  const std::int64_t t0 = now_ns();
  const auto fleet = std::make_unique<Fleet>(shape, sources);
  for (Tick t = 0; fleet->reallocations() == 0; ++t) {
    if (t > 4 * shape.updating_period)
      throw std::runtime_error("set-up fleet never reallocated");
    fleet->run_tick(t);
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Set-ups timed per run; setup_s is their median.
constexpr int kSetups = 11;

void warm_up(Fleet& fleet, Tick ticks) {
  for (Tick t = 0; t < ticks; ++t) fleet.run_tick(t);
}

RunReport run_sim(const FleetShape& shape, const RunConfig& config,
                  const char* name) {
  RunReport report;
  std::vector<int> cpus = allowed_cpus();
  const int cpu = cpus.empty() ? -1 : cpus.back();
  report.box["pinning"] = cpu >= 0 && pin_this_thread(cpu)
                              ? "sim thread on cpu " + std::to_string(cpu)
                              : "unpinned";
  report.box["monitors"] = std::to_string(shape.monitors);
  report.box["shards"] = std::to_string(shape.shards);
  report.box["offered"] = "closed loop, ticks back to back";

  identity_gate(shape, config.seed, report);

  const FleetSignal signal(shape, config.seed);
  const auto sources = make_sources(signal);
  const double n = static_cast<double>(shape.monitors);

  volley::obs::MetricsRegistry registry;
  volley::obs::ScopedMetricsRegistry scope(registry);
  const RegistryView reg(registry);

  const Tick first = shape.warmup_ticks;
  // A whole number of chunks, about `seconds` long on the reference box.
  const auto window_ticks = [&](double seconds) {
    const double chunks = seconds * static_cast<double>(shape.ticks_per_second) /
                          static_cast<double>(shape.chunk_ticks);
    return std::max<Tick>(1, static_cast<Tick>(std::llround(chunks))) * shape.chunk_ticks;
  };

  if (!config.trace) {
    // The set-ups come first, each fleet destroyed before the next one and
    // the fleet under test are built, so peak RSS holds one fleet. A slice
    // of reference work follows each set-up and each chunk of the window.
    std::vector<double> setups;
    std::vector<std::int64_t> setup_refs;
    for (int k = 0; k < kSetups; ++k) {
      setups.push_back(timed_setup_s(shape, sources));
      setup_refs.push_back(reference_work_ns());
    }
    Fleet fleet(shape, sources);
    warm_up(fleet, shape.warmup_ticks);
    std::vector<std::int64_t> window_refs;
    const auto reference = [&] { window_refs.push_back(reference_work_ns()); };
    const WindowResult w = run_window(fleet, reg, first, window_ticks(config.seconds), nullptr,
                                      shape.chunk_ticks, reference);
    reference();
    const auto truth = signal.truth(first, first + w.acct.ticks);
    const auto [episodes, hit] = score_episodes(truth, w.detected);
    if (episodes < 10) report.fail("fewer than 10 ground-truth episodes in the window");
    const TickTimes& tt = w.times;
    if (tt.alert_ticks == 0 || tt.realloc_ticks == 0 || tt.polls == 0)
      report.fail("window raised no alert, ran no reallocation or no poll");

    const double scale = speed_scale(window_refs);
    const double setup_scale = speed_scale(setup_refs);
    const double monitor_ticks = static_cast<double>(w.acct.ticks) * n;
    const auto scaled_us = [&](std::int64_t ns, std::int64_t count) {
      return ratio(static_cast<double>(ns) * scale * 1e-3, static_cast<double>(count));
    };
    report.attempted = w.acct.ticks;
    report.set("setup_s", median(setups) * setup_scale, "s");
    report.set("cpu_ns_per_monitor_tick", static_cast<double>(tt.cpu_ns) * scale / monitor_ticks,
               "ns");
    report.set("sampling_ratio", static_cast<double>(w.acct.ops) / monitor_ticks, "ratio");
    report.set("episode_detect_rate", ratio(static_cast<double>(hit), static_cast<double>(episodes)), "ratio");
    report.set("alert_us", scaled_us(tt.alert_ns, tt.alert_ticks), "us");
    report.set("control_us", scaled_us(tt.realloc_ns, tt.realloc_ticks), "us");
    report.set("cpu_us_per_poll", scaled_us(tt.poll_ns, tt.polls), "us");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.box["window_ticks"] = std::to_string(w.acct.ticks);
    report.box["episodes"] = std::to_string(episodes);
    report.box["timed_ticks"] = std::to_string(tt.alert_ticks) + " alert, " +
                                std::to_string(tt.realloc_ticks) + " realloc, " +
                                std::to_string(tt.polls) + " polls";
    report.box["speed_scale"] = std::to_string(scale) + " window, " +
                                std::to_string(setup_scale) + " set-up";
    report.box["unscaled"] = "cpu_ns_per_monitor_tick " +
                             std::to_string(static_cast<double>(tt.cpu_ns) / monitor_ticks) +
                             ", setup_s " + std::to_string(median(setups));
    return report;
  }

  auto fleet = std::make_unique<Fleet>(shape, sources);
  warm_up(*fleet, shape.warmup_ticks);
  // Traced run: an untraced window for half the time, then a fresh fleet
  // over the same inputs runs exactly as many ticks with spans on. Their
  // accounting must agree; their wall time gives the tracing overhead.
  const WindowResult plain =
      run_window(*fleet, reg, first, window_ticks(config.seconds / 2.0), nullptr);
  fleet.reset();
  registry.reset();
  fleet = std::make_unique<Fleet>(shape, sources);
  warm_up(*fleet, shape.warmup_ticks);
  SpanLog spans;
  spans.reserve(static_cast<std::size_t>(plain.acct.ticks) * 2);
  const WindowResult traced =
      run_window(*fleet, reg, first, plain.acct.ticks, &spans);
  if (!(traced.acct == plain.acct))
    report.fail("traced window's accounting differs from the untraced window's");
  const std::string path = config.out_dir + "/" + name + ".spans.jsonl";
  if (!spans.write(path)) report.fail("cannot write " + path);

  auto classes = traced.classes;
  const auto mean_ns = [&](const char* cls) {
    const TickClass& c = classes[cls];
    return c.count == 0 ? 0.0 : c.ns / static_cast<double>(c.count);
  };
  const TickClass& sample = classes["tick.sample"];
  const Accounting& a = traced.acct;
  const double kiloticks = static_cast<double>(a.ticks) / 1000.0;
  report.attempted = a.ticks;
  report.set("core.idle_tick_ns", mean_ns("tick.idle"), "ns");
  report.set("core.sample_ns_per_op", ratio(sample.ns, static_cast<double>(sample.scheduled_ops)), "ns");
  report.set("core.poll_us", mean_ns("tick.poll") * 1e-3, "us");
  report.set("core.realloc_us", mean_ns("tick.realloc") * 1e-3, "us");
  report.set("shard.escalation_us", mean_ns("tick.escalation") * 1e-3, "us");
  report.set("core.beta_evals_per_op", ratio(static_cast<double>(a.beta_evals), static_cast<double>(a.ops)), "1/op");
  report.set("core.interval_resets_per_kop",
             ratio(static_cast<double>(a.resets) * 1000.0, static_cast<double>(a.ops)), "1/kop");
  report.set("core.polls_per_kilotick", static_cast<double>(a.polls) / kiloticks, "1/kilotick");
  report.set("core.forced_ops_per_kilotick", static_cast<double>(a.forced) / kiloticks, "1/kilotick");
  report.set("core.local_violations_per_kilotick",
             static_cast<double>(a.local_violations) / kiloticks, "1/kilotick");
  report.set("core.alloc_uniform_skips", static_cast<double>(a.uniform_skips), "count");
  report.set("core.alloc_floor_clamps", static_cast<double>(a.floor_clamps), "count");
  report.set("shard.escalations_per_kilotick", static_cast<double>(a.escalations) / kiloticks,
             "1/kilotick");
  report.set("shard.root_reallocations", static_cast<double>(a.root_reallocations), "count");
  report.set("bench.trace_overhead_pct",
             100.0 * (ratio(static_cast<double>(traced.wall_ns), static_cast<double>(plain.wall_ns)) - 1.0),
             "%");
  return report;
}

}  // namespace

RunReport run_quiet_fleet(const RunConfig& config) {
  FleetShape shape;
  shape.monitors = 10240;
  shape.shards = 1;
  shape.ticks_per_second = 16000;
  // Updating periods are prime so that reallocation ticks do not lock onto
  // the fleet's sampling bursts (every Im = 40 ticks).
  shape.updating_period = 1009;
  shape.warmup_ticks = 16000;
  shape.chunk_ticks = 10000;
  return run_sim(shape, config, "quiet_fleet");
}

RunReport run_hot_shards(const RunConfig& config) {
  FleetShape shape;
  shape.monitors = 10240;
  shape.shards = 16;
  shape.ticks_per_second = 1400;
  shape.updating_period = 101;
  shape.warmup_ticks = 4000;
  shape.hot_every = 2;
  shape.hot_lanes = 128;
  return run_sim(shape, config, "hot_shards");
}

}  // namespace perfbench
