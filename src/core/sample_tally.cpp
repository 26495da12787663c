#include "core/sample_tally.h"

#include <algorithm>

#include "obs/metrics.h"

namespace volley {

namespace {

/// Handles into the current registry, re-resolved per thread whenever a
/// scoped registry is installed (registration locks; publishing never
/// does, apart from one lock per histogram).
struct TallyMetrics {
  obs::Counter* scheduled;
  obs::Counter* forced;
  obs::Counter* violations;
  obs::Counter* observations;
  obs::Counter* resets;
  obs::Counter* growths;
  obs::HistogramMetric* beta;

  static TallyMetrics make(obs::MetricsRegistry& m) {
    return TallyMetrics{
        &m.counter("volley_monitor_scheduled_ops_total",
                   "Sampling operations on the monitor's own schedule"),
        &m.counter("volley_monitor_forced_ops_total",
                   "Sampling operations forced by coordinator global polls"),
        &m.counter("volley_monitor_local_violations_total",
                   "Samples that exceeded the monitor's local threshold T_i"),
        &m.counter("volley_sampler_observations_total",
                   "Adaptation-rule evaluations (one per sampling operation)"),
        &m.counter("volley_sampler_interval_resets_total",
                   "Multiplicative decreases: beta_bound exceeded err, "
                   "interval reset to Id"),
        &m.counter("volley_sampler_interval_growths_total",
                   "Additive increases: p consecutive safe checks grew the "
                   "interval by one Id"),
        &m.histogram("volley_sampler_beta_bound", 0.0, 1.0,
                     SampleTally::kBetaBins,
                     "Violation-likelihood bound beta_bound(I) at each "
                     "adaptation decision"),
    };
  }

  static const TallyMetrics& get() { return obs::scoped_handles(&make); }
};

/// The chosen-interval histogram, with the upper bound derived from the
/// first-registering tally's Im instead of the former hard cap of 64
/// (which silently funneled every interval of a large-Im configuration
/// into the overflow bucket). The bound is Im+1 rounded up to a multiple
/// of 64, one unit-width bin per interval (bins capped at 1024): rounding
/// keeps every configuration with Im <= 63 on the exact legacy 0-64x64
/// shape, so run-private registries with heterogeneous small Im stay
/// merge-compatible with their parent (Histogram::merge requires matching
/// shapes). Per MetricsRegistry semantics the shape is fixed by the first
/// registration in each registry; later samplers with a larger Im in the
/// same registry spill into overflow (visible in the snapshot's overflow
/// count). Documented in DESIGN.md's metric catalog.
obs::HistogramMetric& interval_histogram(Tick max_interval) {
  thread_local std::uint64_t owner_uid = 0;  // no registry has uid 0
  thread_local obs::HistogramMetric* handle = nullptr;
  obs::MetricsRegistry& m = obs::metrics();
  if (m.uid() != owner_uid) {
    const Tick hi = (max_interval / 64 + 1) * 64;
    const auto bins =
        static_cast<std::size_t>(std::min<Tick>(hi, 1024));
    handle = &m.histogram("volley_sampler_interval_ticks", 0.0,
                          static_cast<double>(hi), bins,
                          "Sampling interval chosen after each observation, "
                          "in default intervals Id (upper bound derived "
                          "from max_interval at first registration)");
    owner_uid = m.uid();
  }
  return *handle;
}

}  // namespace

void publish(SampleTally& tally) {
  const std::int64_t samples = tally.samples();
  if (samples == 0) return;
  const TallyMetrics& m = TallyMetrics::get();
  m.scheduled->inc(tally.scheduled);
  m.forced->inc(tally.forced);
  m.violations->inc(tally.local_violations);
  m.observations->inc(samples);
  m.resets->inc(tally.resets);
  m.growths->inc(tally.growths);
  m.beta->merge(tally.beta);
  interval_histogram(tally.first_max_interval).observe_counts(tally.intervals);

  tally.scheduled = 0;
  tally.forced = 0;
  tally.local_violations = 0;
  tally.resets = 0;
  tally.growths = 0;
  tally.beta.clear();
  std::fill(tally.intervals.begin(), tally.intervals.end(), 0);
}

}  // namespace volley
