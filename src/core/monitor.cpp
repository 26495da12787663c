#include "core/monitor.h"

#include <stdexcept>

#include "obs/trace_events.h"

namespace volley {

Monitor::Monitor(MonitorId id, const MetricSource& source,
                 const AdaptiveSamplerOptions& options, double local_threshold)
    : id_(id), source_(source), sampler_(options, local_threshold) {}

Monitor::Outcome Monitor::sample_at(Tick t, SampleReason reason,
                                    SampleTally& tally) {
  if (last_sample_tick_ && t <= *last_sample_tick_) {
    if (t == *last_sample_tick_ && reason == SampleReason::kGlobalPoll) {
      // The datum for this tick is already in hand; serve it for free.
      Outcome cached;
      cached.sample = Sample{t, last_value_};
      cached.local_violation = last_was_violation_;
      cached.reason = reason;
      return cached;
    }
    throw std::logic_error("Monitor: sampling must move forward in time");
  }
  const double value = source_.value_at(t);
  const Tick gap = last_sample_tick_ ? t - *last_sample_tick_ : 1;
  const Tick interval = sampler_.observe(value, gap);
  last_sample_tick_ = t;
  next_sample_ = t + interval;

  gain_acc_.add(sampler_.cost_reduction_gain());
  allowance_acc_.add(sampler_.allowance_to_grow());
  total_cost_ += source_.sampling_cost(t);

  Outcome out;
  out.sample = Sample{t, value};
  out.local_violation = value > sampler_.threshold();
  out.reason = reason;
  last_value_ = value;
  last_was_violation_ = out.local_violation;
  if (out.local_violation) ++local_violations_;
  if (reason == SampleReason::kScheduled) {
    ++scheduled_ops_;
  } else {
    ++forced_ops_;
  }
  tally.add(reason, out.local_violation, sampler_);
  if (obs::trace_enabled()) {
    obs::trace().record(obs::TraceKind::kSampleTaken, t, id_, value,
                        reason == SampleReason::kScheduled ? 0.0 : 1.0);
    obs::trace().record(obs::TraceKind::kIntervalChosen, t, id_,
                        static_cast<double>(interval), sampler_.last_beta());
  }
  return out;
}

Monitor::Outcome Monitor::step(Tick t, SampleTally& tally) {
  if (!due(t)) throw std::logic_error("Monitor::step called when not due");
  return sample_at(t, SampleReason::kScheduled, tally);
}

Monitor::Outcome Monitor::force_sample(Tick t, SampleTally& tally) {
  return sample_at(t, SampleReason::kGlobalPoll, tally);
}

CoordStats Monitor::drain_coord_stats() {
  CoordStats stats;
  stats.observations = gain_acc_.count();
  stats.avg_gain = gain_acc_.mean();
  stats.avg_allowance = allowance_acc_.mean();
  gain_acc_.reset();
  allowance_acc_.reset();
  return stats;
}

}  // namespace volley
