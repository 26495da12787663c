// Datacenter-scale hot-path benchmark (DESIGN.md §10, §11).
//
// Part 1 — single-task coordinator tick throughput at 1k/10k/50k monitors.
// A quiet workload (every sampler pinned at Im in steady state) is driven
// through Coordinator::run_tick three ways, all asserted bit-identical:
//   scan+scalar   legacy full scan with the verbatim β̄ loop — the
//                 pre-due-index, pre-kernel baseline;
//   index+scalar  due index, still the scalar β̄ loop (VOLLEY_SCALAR_BETA
//                 semantics) — isolates the scheduling win;
//   index+kernel  due index plus the likelihood kernel — the default
//                 path; isolates the β̄-evaluation win.
// Idle ticks (nothing due — the due index's O(1) case) and sample ticks
// (every monitor due — the β̄ kernel's case) are timed as separate phases.
// Im = 128 also exercises the Im-derived interval-histogram bound.
//
// Part 2 — the β̄-evaluation phase alone: identical lane populations
// evaluated by the scalar loop, the kernel lane by lane (cold memos), and
// the kernel with warm memos (the incremental layer), reporting ns per
// evaluation. Two populations: "quiet" (far below threshold — the zero-β̄
// certificate regime adaptive sampling spends its life in) and "noisy"
// (near threshold — the blocked/SIMD product loop has to run). Every
// variant's outputs are asserted bitwise equal to the scalar loop's.
//
// Part 3 — a mixed fleet of 200 tasks on the discrete-event simulator with
// the paper's default-interval mix (1 s application, 5 s system, 15 s
// network tasks) and occasional bursts that force global polls, reporting
// events/sec scan vs indexed with the same identity assertion over every
// task's accounting and the run-scoped metrics snapshot.
//
// VOLLEY_BENCH_QUICK=1 shrinks all parts to smoke size. Emits
// BENCH_scale.json (schema checked by the CI bench-smoke job). The
// process-global trace sink is switched off while the bench runs
// (obs::set_global_trace_enabled) so the numbers measure the monitoring
// hot path, not the trace ring.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/coordinator.h"
#include "core/error_allocation.h"
#include "core/likelihood_kernel.h"
#include "core/metric_source.h"
#include "core/monitor.h"
#include "core/task.h"
#include "obs/metrics.h"
#include "obs/trace_events.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace volley {
namespace {

/// Deterministic value hash: the per-monitor series are computed on the fly
/// (50k monitors worth of TimeSeries would dwarf the structures being
/// measured), and both modes replay the exact same values.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = (a + 1) * 0x9e3779b97f4a7c15ull ^
                    (b + 0x2545f4914f6cdd1dull) * 0xbf58476d1ce4e5b9ull;
  h ^= h >> 31;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 28;
  return h;
}

// --- Part 1: single-task run_tick throughput --------------------------
//
// Steady state is phase-locked by construction: every monitor follows the
// same adaptation timeline (identical options, always-safe series), so all
// of them are due on the same tick once per Im — the remaining Im-1 ticks
// are no-op ticks, which is where the scan pays O(monitors) for nothing.
// The two tick classes are timed separately (idle ticks in blocks between
// sample ticks, so no per-tick clock reads pollute the idle numbers):
//  * idle ticks — pure scheduling overhead, the cost the due index removes;
//  * sample ticks — dominated by the adaptation rule itself (the O(I)
//    beta-bound product per observation), identical work in both modes.

struct SingleTiming {
  RunResult result;
  double idle_seconds{0.0};
  double sample_seconds{0.0};
  Tick idle_ticks{0};
  Tick sample_ticks{0};

  double idle_tps() const {
    return static_cast<double>(idle_ticks) / idle_seconds;
  }
  double sample_tps() const {
    return static_cast<double>(sample_ticks) / sample_seconds;
  }
  double overall_tps() const {
    return static_cast<double>(idle_ticks + sample_ticks) /
           (idle_seconds + sample_seconds);
  }
};

SingleTiming run_single(std::size_t n, bool scan, bool scalar, Tick warmup,
                        Tick timed, Tick max_interval) {
  const bool prior_scalar = scalar_beta();
  set_scalar_beta(scalar);
  SingleTiming out;
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetricsRegistry scope(registry);

    TaskSpec spec;
    // Far enough above the ~1.0 values that the kernel's zero-β̄
    // certificate regime holds at I = Im: k_Im = T/(Im·σ) ≈ 1e9/(128·6e-4)
    // ≈ 1.3e10 ≥ 2^28. A merely-comfortable margin (say 1e6) leaves k_Im
    // ~2e7 below the certificate threshold and β̄ genuinely nonzero
    // (~1e-13), forcing the O(I) loop — quiet must mean *quiet*.
    spec.global_threshold = 1e9 * static_cast<double>(n);
    spec.error_allowance = 0.05;
    spec.max_interval = max_interval;
    spec.patience = 1;
    // No reallocation round inside the measured run: draining coordination
    // stats is O(monitors) in both modes and would blur the idle-tick
    // numbers (Part 2 exercises reallocation; the identity tests cover it).
    spec.updating_period = warmup + timed + 1;
    spec.estimator.stats_window = 32;

    const Tick total = warmup + timed;
    std::vector<std::unique_ptr<CallableSource>> sources;
    sources.reserve(n);
    std::vector<std::unique_ptr<Monitor>> monitors;
    monitors.reserve(n);
    const auto thresholds = split_threshold(spec.global_threshold, n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<MonitorId>(i);
      // Quiet series: ~1.0 with a deterministic wiggle, far below the
      // local threshold, so every sampler climbs to Im and stays there.
      sources.push_back(std::make_unique<CallableSource>(
          [id](Tick t) {
            const std::uint64_t h = mix(id, static_cast<std::uint64_t>(t));
            return 1.0 + 1e-3 * static_cast<double>(h & 1023u) / 1024.0;
          },
          total));
      monitors.push_back(std::make_unique<Monitor>(
          id, *sources.back(), spec.sampler_options(spec.error_allowance),
          thresholds[i]));
    }
    Coordinator coordinator(spec, std::move(monitors),
                            std::make_unique<EvenAllocation>());

    RunResult& r = out.result;
    r.ticks = total;
    r.monitors = n;
    // Untimed warm-up, always due-indexed (cheaper; both modes' runs stay
    // identical since the mode only changes *how* due monitors are found):
    // lets the AIMD rule climb to Im so the timed segment measures the
    // steady state a long-lived task lives in.
    Tick last_due = -1;
    for (Tick t = 0; t < warmup; ++t) {
      const auto tick = coordinator.run_tick(t);
      r.local_violations += tick.local_violations;
      if (tick.any_due) last_due = t;
    }
    if (last_due < 0 || coordinator.monitor(0).interval() != max_interval) {
      std::fprintf(stderr,
                   "bench scale: warm-up did not reach steady state at %zu "
                   "monitors (interval %lld, want Im=%lld)\n",
                   n, static_cast<long long>(coordinator.monitor(0).interval()),
                   static_cast<long long>(max_interval));
      std::exit(1);
    }
    coordinator.set_scan_ticks(scan);

    // Phase lock makes the sample ticks predictable: t = last_due (mod Im).
    const Tick residue = last_due % max_interval;
    double block_t0 = bench::now_seconds();
    for (Tick t = warmup; t < total; ++t) {
      const bool expect_due = (t % max_interval) == residue;
      if (expect_due) {
        out.idle_seconds += bench::now_seconds() - block_t0;
        const double s0 = bench::now_seconds();
        const auto tick = coordinator.run_tick(t);
        out.sample_seconds += bench::now_seconds() - s0;
        ++out.sample_ticks;
        r.local_violations += tick.local_violations;
        if (!tick.any_due) {
          std::fprintf(stderr, "bench scale: lost phase lock at tick %lld\n",
                       static_cast<long long>(t));
          std::exit(1);
        }
        block_t0 = bench::now_seconds();
      } else {
        const auto tick = coordinator.run_tick(t);
        r.local_violations += tick.local_violations;
        ++out.idle_ticks;
        if (tick.any_due) {
          std::fprintf(stderr, "bench scale: lost phase lock at tick %lld\n",
                       static_cast<long long>(t));
          std::exit(1);
        }
      }
    }
    out.idle_seconds += bench::now_seconds() - block_t0;

    for (std::size_t i = 0; i < n; ++i) {
      const Monitor& m = coordinator.monitor(i);
      r.scheduled_ops += m.scheduled_ops();
      r.forced_ops += m.forced_ops();
    }
    r.total_cost = coordinator.total_cost();
    r.global_polls = coordinator.global_polls();
    r.reallocations = coordinator.reallocations();
    r.metrics_json = registry.to_json();
  }
  set_scalar_beta(prior_scalar);
  return out;
}

// --- Part 2: the β̄-evaluation phase in isolation ----------------------
//
// Lane populations mirror the two regimes a monitor lives in. Quiet: far
// below threshold, where the kernel's zero-β̄ certificate answers in O(1);
// this is the steady state adaptive sampling creates (the whole point of
// growing I is that violations became unlikely). Noisy: near threshold,
// where the O(I) product loop must run and only the blocked/SIMD factor
// computation helps. "Incremental" re-evaluates the same lanes against
// warm per-lane memos — the same-key re-evaluation the AIMD rule performs
// between adaptation decisions.

struct BetaEvalTiming {
  std::size_t lanes{0};
  int reps{0};
  double scalar_ns{0.0};       // baseline loop, per evaluation
  double kernel_ns{0.0};       // kernel, cold memos
  double incremental_ns{0.0};  // kernel, warm memos

  double kernel_speedup() const { return scalar_ns / kernel_ns; }
  double incremental_speedup() const { return scalar_ns / incremental_ns; }
};

BetaEvalTiming time_beta_eval(bool quiet_population, std::size_t lanes,
                              int reps, Tick interval) {
  const bool prior_scalar = scalar_beta();
  set_scalar_beta(false);  // the kernel variants must not take the hatch
  BetaEvalTiming out;
  out.lanes = lanes;
  out.reps = reps;

  std::vector<double> value(lanes), threshold(lanes);
  std::vector<DeltaStats> stats(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::uint64_t h = mix(0x5eedull, l);
    const double u = static_cast<double>(h & 0xffffu) / 65536.0;
    if (quiet_population) {
      // Matches Part 1's steady state: k_I ~ 1e10 >= 2^28, so the zero-β̄
      // certificate answers without running the product loop.
      value[l] = 1.0 + 1e-3 * u;
      threshold[l] = 1e9;
      stats[l] = DeltaStats{1e-6 * u, 4e-4 * (0.5 + u)};
    } else {
      value[l] = 5.0 * u;
      threshold[l] = 10.0;
      stats[l] = DeltaStats{0.01 * u, 0.8 + u};
    }
  }

  // Scalar baseline loop.
  std::vector<double> expected(lanes);
  const double s0 = bench::now_seconds();
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t l = 0; l < lanes; ++l) {
      expected[l] = beta_bound_with(value[l], threshold[l], stats[l],
                                    interval, chebyshev_step_bound);
    }
  }
  out.scalar_ns = (bench::now_seconds() - s0) * 1e9 /
                  (static_cast<double>(lanes) * reps);

  std::vector<double> got(lanes);
  const auto check = [&](const char* variant) {
    for (std::size_t l = 0; l < lanes; ++l) {
      if (std::memcmp(&got[l], &expected[l], sizeof(double)) != 0) {
        std::fprintf(stderr,
                     "bench scale: %s beta diverged from the scalar loop at "
                     "lane %zu (identity violation)\n",
                     variant, l);
        std::exit(1);
      }
    }
  };
  const auto evaluate = [&](std::vector<BetaBoundCache>& memos) {
    const double t0 = bench::now_seconds();
    for (std::size_t l = 0; l < lanes; ++l) {
      got[l] = beta_bound_chebyshev(value[l], threshold[l], stats[l],
                                    interval, &memos[l]);
    }
    return bench::now_seconds() - t0;
  };

  // Kernel, cold memos: every evaluation re-proves the certificate or
  // re-runs the blocked loop (caches cleared each rep).
  std::vector<BetaBoundCache> memos(lanes);
  double kernel_seconds = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    for (auto& memo : memos) memo.invalidate();
    kernel_seconds += evaluate(memos);
  }
  check("kernel");
  out.kernel_ns = kernel_seconds * 1e9 / (static_cast<double>(lanes) * reps);

  // Incremental: memos stay warm, so each evaluation is a key compare and
  // a memo read (the same-interval hit path).
  double incremental_seconds = 0.0;
  for (int rep = 0; rep < reps; ++rep) incremental_seconds += evaluate(memos);
  check("incremental");
  out.incremental_ns =
      incremental_seconds * 1e9 / (static_cast<double>(lanes) * reps);
  set_scalar_beta(prior_scalar);
  return out;
}

// --- Part 3: mixed-interval fleet on the event queue ------------------

struct SimOutcome {
  std::uint64_t events{0};
  double run_seconds{0.0};
  std::string metrics_json;
  // Per-task accounting, compared field by field between the two modes.
  std::vector<Tick> ticks_run;
  std::vector<std::int64_t> alerts;
  std::vector<std::int64_t> total_ops;
  std::vector<std::int64_t> polls;
  std::vector<std::int64_t> violations;
  std::vector<double> costs;

  bool same_as(const SimOutcome& o) const {
    return events == o.events && ticks_run == o.ticks_run &&
           alerts == o.alerts && total_ops == o.total_ops &&
           polls == o.polls && violations == o.violations &&
           costs == o.costs && metrics_json == o.metrics_json;
  }
};

SimOutcome run_sim(std::size_t tasks, SimTime horizon, bool scan) {
  SimOutcome out;
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetricsRegistry scope(registry);

    constexpr std::size_t kMonitorsPerTask = 4;
    constexpr double kIds[] = {1.0, 5.0, 15.0};  // app / system / network

    std::vector<std::vector<std::unique_ptr<CallableSource>>> sources;
    sources.reserve(tasks);
    Simulation sim;
    for (std::size_t task = 0; task < tasks; ++task) {
      const double id_seconds = kIds[task % 3];
      const Tick ticks = static_cast<Tick>(horizon / id_seconds);

      TaskSpec spec;
      spec.global_threshold = 1.6 * kMonitorsPerTask;
      spec.error_allowance = 0.02;
      spec.id_seconds = id_seconds;
      spec.max_interval = 16;
      spec.patience = 2;
      spec.updating_period = 500;
      spec.estimator.stats_window = 32;

      const auto thresholds =
          split_threshold(spec.global_threshold, kMonitorsPerTask);
      std::vector<std::unique_ptr<CallableSource>> task_sources;
      std::vector<std::unique_ptr<Monitor>> monitors;
      for (std::size_t i = 0; i < kMonitorsPerTask; ++i) {
        const std::uint64_t key = task * kMonitorsPerTask + i;
        // Mildly noisy baseline with rare bursts past the local threshold:
        // the bursts trigger local violations and global polls, so the
        // identity check covers the poll + index-rebuild path too.
        task_sources.push_back(std::make_unique<CallableSource>(
            [key](Tick t) {
              const std::uint64_t h = mix(key, static_cast<std::uint64_t>(t));
              double v = 1.0 + 0.05 * static_cast<double>(h & 1023u) / 1024.0;
              if (h % 997 == 0) v += 1.0;
              return v;
            },
            ticks + 1));
        monitors.push_back(std::make_unique<Monitor>(
            static_cast<MonitorId>(i), *task_sources.back(),
            spec.sampler_options(spec.error_allowance), thresholds[i]));
      }
      auto coordinator = std::make_unique<Coordinator>(
          spec, std::move(monitors), std::make_unique<EvenAllocation>());
      coordinator->set_scan_ticks(scan);
      // Real fleets are not phase-aligned: stagger task starts.
      const double offset =
          id_seconds * static_cast<double>(task % 8) / 8.0;
      sim.add_task(std::move(coordinator), id_seconds, ticks, offset);
      sources.push_back(std::move(task_sources));
    }

    const double t0 = bench::now_seconds();
    out.events = sim.run(horizon + 60.0);
    out.run_seconds = bench::now_seconds() - t0;

    for (std::size_t task = 0; task < tasks; ++task) {
      const auto& stats = sim.stats(task);
      const Coordinator& c = sim.coordinator(task);
      out.ticks_run.push_back(stats.ticks_run);
      out.alerts.push_back(stats.alerts);
      out.total_ops.push_back(c.total_ops());
      out.polls.push_back(c.global_polls());
      std::int64_t lv = 0;
      for (std::size_t i = 0; i < c.monitor_count(); ++i)
        lv += c.monitor(i).local_violations();
      out.violations.push_back(lv);
      out.costs.push_back(c.total_cost());
    }
    out.metrics_json = registry.to_json();
  }
  return out;
}

// --- driver -----------------------------------------------------------

struct SingleRow {
  std::size_t monitors;
  double scan_idle_tps;
  double indexed_idle_tps;
  double speedup;  // idle-tick run_tick throughput ratio: the scan tax
  double scan_overall_tps;
  double indexed_overall_tps;
  double overall_speedup;
  // β̄ kernel columns (index+kernel vs index+scalar, DESIGN.md §11):
  double scalar_sample_tps;   // sample ticks/s, scalar β̄ loop
  double kernel_sample_tps;   // sample ticks/s, kernel
  double kernel_sample_speedup;
  double kernel_overall_tps;
  double kernel_overall_speedup;  // vs index+scalar: the headline claim
};

bool simd_enabled() {
#if defined(VOLLEY_OPENMP_SIMD)
  return true;
#else
  return false;
#endif
}

void write_scale_json(bool quick, Tick max_interval, Tick timed,
                      const std::vector<SingleRow>& rows,
                      const BetaEvalTiming& quiet_eval,
                      const BetaEvalTiming& noisy_eval,
                      std::size_t sim_tasks, const SimOutcome& sim_scan,
                      const SimOutcome& sim_indexed) {
  std::FILE* f = std::fopen("BENCH_scale.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench scale: cannot write BENCH_scale.json\n");
    return;
  }
  std::fprintf(f, "{\"bench\":\"scale\",\"quick\":%s,", quick ? "true" : "false");
  std::fprintf(f, "\"max_interval\":%lld,\"timed_ticks\":%lld,\"single\":[",
               static_cast<long long>(max_interval),
               static_cast<long long>(timed));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "%s{\"monitors\":%zu,\"scan_idle_ticks_per_sec\":%.1f,"
                 "\"indexed_idle_ticks_per_sec\":%.1f,\"speedup\":%.3f,"
                 "\"scan_overall_ticks_per_sec\":%.1f,"
                 "\"indexed_overall_ticks_per_sec\":%.1f,"
                 "\"overall_speedup\":%.3f,"
                 "\"scalar_sample_ticks_per_sec\":%.1f,"
                 "\"kernel_sample_ticks_per_sec\":%.1f,"
                 "\"kernel_sample_speedup\":%.3f,"
                 "\"kernel_overall_ticks_per_sec\":%.1f,"
                 "\"kernel_overall_speedup\":%.3f}",
                 i == 0 ? "" : ",", r.monitors, r.scan_idle_tps,
                 r.indexed_idle_tps, r.speedup, r.scan_overall_tps,
                 r.indexed_overall_tps, r.overall_speedup,
                 r.scalar_sample_tps, r.kernel_sample_tps,
                 r.kernel_sample_speedup, r.kernel_overall_tps,
                 r.kernel_overall_speedup);
  }
  std::fprintf(f,
               "],\"beta_eval\":{\"interval\":%lld,\"simd\":%s,"
               "\"quiet\":{\"lanes\":%zu,\"reps\":%d,"
               "\"scalar_ns_per_eval\":%.2f,\"kernel_ns_per_eval\":%.2f,"
               "\"incremental_ns_per_eval\":%.2f,\"kernel_speedup\":%.2f,"
               "\"incremental_speedup\":%.2f},"
               "\"noisy\":{\"lanes\":%zu,\"reps\":%d,"
               "\"scalar_ns_per_eval\":%.2f,\"kernel_ns_per_eval\":%.2f,"
               "\"incremental_ns_per_eval\":%.2f,\"kernel_speedup\":%.2f,"
               "\"incremental_speedup\":%.2f}},",
               static_cast<long long>(max_interval),
               simd_enabled() ? "true" : "false", quiet_eval.lanes,
               quiet_eval.reps, quiet_eval.scalar_ns, quiet_eval.kernel_ns,
               quiet_eval.incremental_ns, quiet_eval.kernel_speedup(),
               quiet_eval.incremental_speedup(), noisy_eval.lanes,
               noisy_eval.reps, noisy_eval.scalar_ns, noisy_eval.kernel_ns,
               noisy_eval.incremental_ns, noisy_eval.kernel_speedup(),
               noisy_eval.incremental_speedup());
  const double scan_eps =
      sim_scan.run_seconds > 0.0
          ? static_cast<double>(sim_scan.events) / sim_scan.run_seconds
          : 0.0;
  const double indexed_eps =
      sim_indexed.run_seconds > 0.0
          ? static_cast<double>(sim_indexed.events) / sim_indexed.run_seconds
          : 0.0;
  std::fprintf(f,
               "\"sim_tasks\":%zu,\"sim_events\":%llu,"
               "\"sim_scan_events_per_sec\":%.1f,"
               "\"sim_indexed_events_per_sec\":%.1f,\"sim_speedup\":%.3f,"
               "\"identical\":true}\n",
               sim_tasks, static_cast<unsigned long long>(sim_scan.events),
               scan_eps, indexed_eps,
               scan_eps > 0.0 ? indexed_eps / scan_eps : 0.0);
  std::fclose(f);
}

void run() {
  const bool quick = bench::quick();
  // Measure the monitoring hot path, not the trace ring: with the global
  // sink disabled, per-sample trace().record calls reduce to one branch.
  obs::set_global_trace_enabled(false);

  std::vector<std::size_t> sizes = {1000, 10000, 50000};
  Tick max_interval = 128;  // > 64: exercises the Im-derived histogram bound
  Tick warmup = 8600;       // AIMD climb to Im takes ~Im^2/2 ticks
  Tick timed = 1280;        // ten full Im cycles in steady state
  if (quick) {
    sizes = {1000, 10000};
    max_interval = 32;
    warmup = 700;
    timed = 320;
  }

  bench::print_header(
      "Scale — single-run hot path: due index + β̄ kernel",
      "in-process mirror of the paper's 800-VM deployment scale (Sec. V)");
  std::printf(
      "steady state: every sampler pinned at Im=%lld, so %lld of every "
      "%lld run_tick calls are no-op (idle) ticks — the scan still pays "
      "O(monitors) on each of them, the due index pays O(1). Sample-tick "
      "work (the adaptation rule itself) is identical in both modes.\n\n",
      static_cast<long long>(max_interval),
      static_cast<long long>(max_interval - 1),
      static_cast<long long>(max_interval));

  bench::print_row({"monitors", "idle speedup", "beta speedup", "overall",
                    "vs seed"});
  std::vector<SingleRow> rows;
  for (std::size_t n : sizes) {
    const auto scan = run_single(n, true, true, warmup, timed, max_interval);
    const auto scalar =
        run_single(n, false, true, warmup, timed, max_interval);
    const auto kernel =
        run_single(n, false, false, warmup, timed, max_interval);
    if (!bench::same_result(scan.result, scalar.result) ||
        !bench::same_result(scalar.result, kernel.result)) {
      std::fprintf(stderr,
                   "bench scale: scan/scalar/kernel runs diverged at "
                   "%zu monitors (determinism violation)\n",
                   n);
      std::exit(1);
    }
    SingleRow row;
    row.monitors = n;
    row.scan_idle_tps = scan.idle_tps();
    row.indexed_idle_tps = scalar.idle_tps();
    row.speedup = row.indexed_idle_tps / row.scan_idle_tps;
    row.scan_overall_tps = scan.overall_tps();
    row.indexed_overall_tps = scalar.overall_tps();
    row.overall_speedup = row.indexed_overall_tps / row.scan_overall_tps;
    row.scalar_sample_tps = scalar.sample_tps();
    row.kernel_sample_tps = kernel.sample_tps();
    row.kernel_sample_speedup = row.kernel_sample_tps / row.scalar_sample_tps;
    row.kernel_overall_tps = kernel.overall_tps();
    row.kernel_overall_speedup =
        row.kernel_overall_tps / row.indexed_overall_tps;
    rows.push_back(row);
    bench::print_row({std::to_string(n), bench::fmt(row.speedup, 1) + "x",
                      bench::fmt(row.kernel_sample_speedup, 1) + "x",
                      bench::fmt(row.kernel_overall_speedup, 2) + "x",
                      bench::fmt(row.kernel_overall_tps /
                                     row.scan_overall_tps, 2) + "x"});
  }
  std::printf(
      "\n(idle speedup: due-index vs scan on ticks with nothing due; beta "
      "speedup: likelihood kernel vs the scalar β̄ loop on sample "
      "ticks; overall: index+kernel vs index+scalar across all ticks — the "
      "DESIGN.md §11 headline; vs seed: index+kernel vs scan+scalar, the "
      "pre-index pre-kernel baseline. Identical RunResult accounting "
      "asserted across all three runs per size.)\n\n");

  // --- Part 2: β̄ evaluation in isolation ------------------------------
  const std::size_t eval_lanes = quick ? 20000 : 50000;
  const int eval_reps = quick ? 4 : 8;
  const auto quiet_eval =
      time_beta_eval(true, eval_lanes, eval_reps, max_interval);
  const auto noisy_eval =
      time_beta_eval(false, eval_lanes, eval_reps, max_interval);
  std::printf("beta evaluation phase (%zu lanes, I=%lld, SIMD %s):\n",
              eval_lanes, static_cast<long long>(max_interval),
              simd_enabled() ? "on" : "off");
  bench::print_row(
      {"population", "scalar ns", "kernel ns", "increm. ns", "speedup"});
  bench::print_row({"quiet", bench::fmt(quiet_eval.scalar_ns, 1),
                    bench::fmt(quiet_eval.kernel_ns, 1),
                    bench::fmt(quiet_eval.incremental_ns, 1),
                    bench::fmt(quiet_eval.kernel_speedup(), 1) + "x"});
  bench::print_row({"noisy", bench::fmt(noisy_eval.scalar_ns, 1),
                    bench::fmt(noisy_eval.kernel_ns, 1),
                    bench::fmt(noisy_eval.incremental_ns, 1),
                    bench::fmt(noisy_eval.kernel_speedup(), 1) + "x"});
  std::printf(
      "\n(ns per β̄ evaluation. quiet = far below threshold, the zero-β̄ "
      "certificate regime; noisy = near threshold, the blocked/SIMD loop. "
      "Every variant's lanes asserted bitwise equal to the scalar loop.)\n\n");

  const std::size_t sim_tasks = quick ? 40 : 200;
  const SimTime horizon = quick ? 900.0 : 3600.0;
  const auto sim_scan = run_sim(sim_tasks, horizon, true);
  const auto sim_indexed = run_sim(sim_tasks, horizon, false);
  if (!sim_scan.same_as(sim_indexed)) {
    std::fprintf(stderr,
                 "bench scale: mixed-fleet due-index run diverged from the "
                 "scan (determinism violation)\n");
    std::exit(1);
  }
  const double scan_eps =
      static_cast<double>(sim_scan.events) / sim_scan.run_seconds;
  const double indexed_eps =
      static_cast<double>(sim_indexed.events) / sim_indexed.run_seconds;
  std::printf("mixed fleet: %zu tasks (1 s / 5 s / 15 s Id mix), %llu "
              "events over %.0f virtual seconds\n",
              sim_tasks, static_cast<unsigned long long>(sim_scan.events),
              horizon);
  bench::print_row({"mode", "events/s", "", ""});
  bench::print_row({"scan", bench::fmt(scan_eps, 0), "", ""});
  bench::print_row({"due-index", bench::fmt(indexed_eps, 0), "", ""});
  std::printf("\nsim speedup: %.2fx (identical per-task accounting and "
              "metrics snapshots asserted)\n",
              indexed_eps / scan_eps);

  write_scale_json(quick, max_interval, timed, rows, quiet_eval, noisy_eval,
                   sim_tasks, sim_scan, sim_indexed);
  std::printf("-> BENCH_scale.json\n");
  obs::set_global_trace_enabled(true);
}

}  // namespace
}  // namespace volley

int main() {
  volley::run();
  return 0;
}
