#include "core/adaptive_sampler.h"

#include <stdexcept>

namespace volley {

void AdaptiveSamplerOptions::validate() const {
  if (error_allowance < 0.0 || error_allowance > 1.0)
    throw std::invalid_argument("AdaptiveSampler: err in [0,1]");
  if (slack_ratio < 0.0 || slack_ratio >= 1.0)
    throw std::invalid_argument("AdaptiveSampler: gamma in [0,1)");
  if (patience < 1)
    throw std::invalid_argument("AdaptiveSampler: patience >= 1");
  if (max_interval < 1)
    throw std::invalid_argument("AdaptiveSampler: max_interval >= 1");
}

AdaptiveSampler::AdaptiveSampler(const AdaptiveSamplerOptions& options,
                                 double threshold)
    : options_(options), threshold_(threshold),
      estimator_(options.estimator) {
  options_.validate();
}

Tick AdaptiveSampler::observe(double value, Tick gap) {
  estimator_.observe(value, gap);
  last_beta_ = estimator_.beta_bound(threshold_, interval_);
  last_change_ = IntervalChange::kHold;

  const double err = options_.error_allowance;
  if (last_beta_ > err) {
    // Estimated mis-detection rate exceeds the allowance: fall back to the
    // default interval immediately (multiplicative-decrease step).
    if (interval_ != 1) last_change_ = IntervalChange::kReset;
    interval_ = 1;
    safe_streak_ = 0;
  } else if (last_beta_ <= (1.0 - options_.slack_ratio) * err) {
    if (++safe_streak_ >= options_.patience) {
      if (interval_ < options_.max_interval) {
        ++interval_;
        last_change_ = IntervalChange::kGrowth;
      }
      safe_streak_ = 0;
    }
  } else {
    // Inside the slack band: acceptable, but growing would be risky.
    safe_streak_ = 0;
  }
  return interval_;
}

void AdaptiveSampler::set_error_allowance(double err) {
  if (err < 0.0 || err > 1.0)
    throw std::invalid_argument("set_error_allowance: err in [0,1]");
  options_.error_allowance = err;
}

double AdaptiveSampler::cost_reduction_gain() const {
  if (interval_ >= options_.max_interval) return 0.0;
  const double i = static_cast<double>(interval_);
  return 1.0 / i - 1.0 / (i + 1.0);
}

double AdaptiveSampler::allowance_to_grow() const {
  return last_beta_ / (1.0 - options_.slack_ratio);
}

void AdaptiveSampler::reset() {
  estimator_.reset();
  interval_ = 1;
  safe_streak_ = 0;
  last_beta_ = 1.0;
  last_change_ = IntervalChange::kHold;
}

}  // namespace volley
