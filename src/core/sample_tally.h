// Per-tick tally of sampling operations (DESIGN.md §10, "Instrumentation
// on the hot path").
//
// A sampling operation does not touch the metrics registry. The monitor
// adds it to a plain SampleTally owned by the code that runs the tick: a
// few integer adds, one β̄ bin (stats/Histogram's own formula) and one
// interval count. That owner calls publish() once per tick, after the
// tick's samples and before its tick call returns: each counter takes one
// inc(n) and each histogram one lock. The registry ends up with the same
// counts and bins as recording every sample would give; only the β̄
// histogram's sum may round differently, since it is summed per tick.
//
// There is one publication path. The tick's owner passes its tally
// explicitly to Monitor::step / Monitor::force_sample and publishes it:
// core::Coordinator (run_tick, force_poll), the sim runners and the fault
// runner, the scenario soak and net::MonitorNode. Cached poll reads add
// nothing, as they never cost a sampling operation.
//
// Thread-safety: none. A tally belongs to its owner's thread, and
// publish() records into that thread's obs::metrics() registry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/adaptive_sampler.h"
#include "core/types.h"
#include "stats/histogram.h"

namespace volley {

struct SampleTally {
  /// Shape of volley_sampler_beta_bound: [0, 1) in 20 bins.
  static constexpr std::size_t kBetaBins = 20;

  std::int64_t scheduled{0};
  std::int64_t forced{0};
  std::int64_t local_violations{0};
  std::int64_t resets{0};   // counted multiplicative decreases
  std::int64_t growths{0};  // additive increases
  /// β̄ at each decision.
  Histogram beta{0.0, 1.0, kBetaBins};
  /// intervals[I]: decisions that chose interval I. Sized to the largest
  /// Im seen; kept (zeroed) across publishes, so a warm tally never
  /// allocates.
  std::vector<std::int64_t> intervals;
  /// Im of the first sample since the last publish. If this publish is the
  /// registry's first, it sizes volley_sampler_interval_ticks, as the
  /// first sample's own observation used to.
  Tick first_max_interval{0};

  std::int64_t samples() const { return scheduled + forced; }

  /// Adds one sampling operation; `sampler` has just applied its rule.
  void add(SampleReason reason, bool local_violation,
           const AdaptiveSampler& sampler) {
    if (samples() == 0) first_max_interval = sampler.max_interval();
    if (reason == SampleReason::kScheduled) {
      ++scheduled;
    } else {
      ++forced;
    }
    if (local_violation) ++local_violations;
    const IntervalChange change = sampler.last_change();
    if (change == IntervalChange::kReset) ++resets;
    if (change == IntervalChange::kGrowth) ++growths;
    beta.add(sampler.last_beta());
    const auto i = static_cast<std::size_t>(sampler.interval());
    if (i >= intervals.size())
      intervals.resize(static_cast<std::size_t>(sampler.max_interval()) + 1);
    ++intervals[i];
  }
};

/// Publishes the tally into obs::metrics() and zeroes it. An empty tally
/// publishes nothing and registers nothing.
void publish(SampleTally& tally);

}  // namespace volley
