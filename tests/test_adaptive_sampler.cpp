// Unit tests for the monitor-level adaptation rule (paper Section III-B):
// additive increase after p safe checks, immediate reset on beta > err,
// slack band behaviour, Im cap, and the r_i / e_i coordination statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/adaptive_sampler.h"
#include "core/metric_source.h"
#include "core/monitor.h"
#include "core/sample_tally.h"
#include "obs/metrics.h"

namespace volley {
namespace {

AdaptiveSamplerOptions quiet_options() {
  AdaptiveSamplerOptions o;
  o.error_allowance = 0.05;
  o.slack_ratio = 0.2;
  o.patience = 5;
  o.max_interval = 10;
  return o;
}

TEST(AdaptiveSamplerOptions, Validation) {
  AdaptiveSamplerOptions o;
  o.error_allowance = 1.5;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = AdaptiveSamplerOptions{};
  o.slack_ratio = 1.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = AdaptiveSamplerOptions{};
  o.patience = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = AdaptiveSamplerOptions{};
  o.max_interval = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

TEST(AdaptiveSampler, StartsAtDefaultInterval) {
  AdaptiveSampler sampler(quiet_options(), 100.0);
  EXPECT_EQ(sampler.interval(), 1);
  EXPECT_DOUBLE_EQ(sampler.last_beta(), 1.0);
}

TEST(AdaptiveSampler, GrowsAfterPatienceSafeChecks) {
  auto options = quiet_options();
  options.patience = 5;
  AdaptiveSampler sampler(options, 1000.0);
  // A flat series far below the threshold: beta ~ 0 once stats exist.
  Tick interval = 1;
  int observes_at_growth = -1;
  for (int i = 0; i < 40; ++i) {
    interval = sampler.observe(1.0 + 0.001 * (i % 2), 1);
    if (interval == 2 && observes_at_growth < 0) observes_at_growth = i;
  }
  ASSERT_GT(observes_at_growth, 0);
  // Growth requires at least `patience` consecutive safe checks (plus the
  // cold-start observations before statistics exist).
  EXPECT_GE(observes_at_growth, 5);
  EXPECT_GT(interval, 1);
}

TEST(AdaptiveSampler, CapsAtMaxInterval) {
  auto options = quiet_options();
  options.patience = 1;
  options.max_interval = 4;
  AdaptiveSampler sampler(options, 1e9);
  for (int i = 0; i < 200; ++i) sampler.observe(0.0, sampler.interval());
  EXPECT_EQ(sampler.interval(), 4);
}

TEST(AdaptiveSampler, ResetsToDefaultOnDanger) {
  auto options = quiet_options();
  options.patience = 1;
  AdaptiveSampler sampler(options, 100.0);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) sampler.observe(rng.normal(1.0, 0.1), 1);
  ASSERT_GT(sampler.interval(), 1);
  // A jump right next to the threshold: beta -> 1 > err -> immediate reset.
  sampler.observe(99.9, sampler.interval());
  EXPECT_EQ(sampler.interval(), 1);
  EXPECT_EQ(sampler.safe_streak(), 0);
}

TEST(AdaptiveSampler, LastChangeNamesCountedResetsAndGrowths) {
  // What the sampler reports is what the tally counts: kGrowth exactly when
  // the interval grew, kReset only for a decrease from I > 1, kHold
  // otherwise (including a reset that finds I = 1 already).
  auto options = quiet_options();
  options.patience = 1;
  AdaptiveSampler sampler(options, 100.0);
  EXPECT_EQ(sampler.last_change(), IntervalChange::kHold);
  Rng rng(3);
  int growths = 0;
  for (int i = 0; i < 100; ++i) {
    const Tick before = sampler.interval();
    sampler.observe(rng.normal(1.0, 0.1), 1);
    const bool grew = sampler.interval() > before;
    EXPECT_EQ(sampler.last_change() == IntervalChange::kGrowth, grew);
    if (grew) ++growths;
  }
  EXPECT_EQ(growths, options.max_interval - 1);
  sampler.observe(1.0, 1);  // at Im: a safe check holds
  EXPECT_EQ(sampler.last_change(), IntervalChange::kHold);
  sampler.observe(99.9, sampler.interval());
  ASSERT_EQ(sampler.interval(), 1);
  EXPECT_EQ(sampler.last_change(), IntervalChange::kReset);
  sampler.observe(99.95, 1);  // still unsafe, already at I = 1
  ASSERT_EQ(sampler.interval(), 1);
  EXPECT_EQ(sampler.last_change(), IntervalChange::kHold);
  sampler.reset();
  EXPECT_EQ(sampler.last_change(), IntervalChange::kHold);
}

TEST(AdaptiveSampler, SlackBandClearsStreakWithoutReset) {
  // Observations whose beta lands inside ((1-gamma)err, err] are acceptable
  // (no reset) but risky to grow from: the safe streak must clear.
  AdaptiveSamplerOptions options;
  options.error_allowance = 0.05;
  options.slack_ratio = 0.2;
  options.patience = 1000;  // growth disabled; isolates streak behaviour
  options.max_interval = 10;
  // Threshold ~4.5 sigma above the mean puts beta(1) near the band for a
  // noticeable fraction of N(0,1) draws.
  AdaptiveSampler sampler(options, 4.5);
  Rng rng(5);
  int band_hits = 0;
  int streak_growth_hits = 0;
  for (int i = 0; i < 2000; ++i) {
    sampler.observe(rng.normal(0.0, 1.0), 1);
    const double beta = sampler.last_beta();
    const double err = options.error_allowance;
    if (beta > (1.0 - options.slack_ratio) * err && beta <= err) {
      ++band_hits;
      EXPECT_EQ(sampler.safe_streak(), 0);  // band entry clears the streak
    } else if (beta <= (1.0 - options.slack_ratio) * err) {
      if (sampler.safe_streak() > 0) ++streak_growth_hits;
    }
  }
  EXPECT_GT(band_hits, 0);           // the band was actually exercised
  EXPECT_GT(streak_growth_hits, 0);  // and safe observations accumulate
}

TEST(AdaptiveSampler, ZeroAllowanceNeverGrows) {
  auto options = quiet_options();
  options.error_allowance = 0.0;
  options.patience = 1;
  AdaptiveSampler sampler(options, 1e12);
  for (int i = 0; i < 100; ++i) sampler.observe(0.0, 1);
  // beta is 0 for a constant series far below T... but growth needs
  // beta <= (1-gamma)*0 = 0, which a zero beta satisfies; the paper's
  // err = 0 case degenerates to periodic sampling only when beta > 0.
  // With a strictly constant series beta == 0, growth is permitted.
  // Feed a noisy series instead: beta > 0 -> beta > err -> stays at 1.
  AdaptiveSampler noisy(options, 10.0);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) noisy.observe(rng.normal(0.0, 1.0), 1);
  EXPECT_EQ(noisy.interval(), 1);
}

TEST(AdaptiveSampler, CostReductionGainMatchesFormula) {
  auto options = quiet_options();
  options.patience = 1;
  options.max_interval = 5;
  AdaptiveSampler sampler(options, 1e9);
  EXPECT_NEAR(sampler.cost_reduction_gain(), 1.0 - 0.5, 1e-12);  // I=1
  for (int i = 0; i < 300; ++i) sampler.observe(0.0, sampler.interval());
  EXPECT_EQ(sampler.interval(), 5);
  EXPECT_DOUBLE_EQ(sampler.cost_reduction_gain(), 0.0);  // pinned at Im
}

TEST(AdaptiveSampler, AllowanceToGrowInvertsIncreaseRule) {
  auto options = quiet_options();
  AdaptiveSampler sampler(options, 50.0);
  Rng rng(11);
  for (int i = 0; i < 100; ++i) sampler.observe(rng.normal(40.0, 2.0), 1);
  const double beta = sampler.last_beta();
  EXPECT_NEAR(sampler.allowance_to_grow(), beta / (1.0 - options.slack_ratio),
              1e-12);
}

TEST(AdaptiveSampler, SetErrorAllowanceValidates) {
  AdaptiveSampler sampler(quiet_options(), 10.0);
  EXPECT_THROW(sampler.set_error_allowance(-0.1), std::invalid_argument);
  EXPECT_THROW(sampler.set_error_allowance(1.1), std::invalid_argument);
  sampler.set_error_allowance(0.2);
  EXPECT_DOUBLE_EQ(sampler.error_allowance(), 0.2);
}

TEST(AdaptiveSampler, LargerAllowanceGrowsFasterOrFurther) {
  auto small_opt = quiet_options();
  small_opt.error_allowance = 0.001;
  auto large_opt = quiet_options();
  large_opt.error_allowance = 0.1;
  AdaptiveSampler small(small_opt, 10.0), large(large_opt, 10.0);
  Rng rng_a(13), rng_b(13);
  for (int i = 0; i < 400; ++i) {
    small.observe(rng_a.normal(0.0, 1.0), small.interval());
    large.observe(rng_b.normal(0.0, 1.0), large.interval());
  }
  EXPECT_GE(large.interval(), small.interval());
}

TEST(AdaptiveSampler, ResetRestoresInitialState) {
  auto options = quiet_options();
  options.patience = 1;
  AdaptiveSampler sampler(options, 1e9);
  for (int i = 0; i < 50; ++i) sampler.observe(0.0, sampler.interval());
  ASSERT_GT(sampler.interval(), 1);
  sampler.reset();
  EXPECT_EQ(sampler.interval(), 1);
  EXPECT_DOUBLE_EQ(sampler.last_beta(), 1.0);
  EXPECT_EQ(sampler.safe_streak(), 0);
}

TEST(AdaptiveSampler, StreakBrokenByBandEntry) {
  // A safe streak interrupted by one slack-band observation restarts.
  auto options = quiet_options();
  options.patience = 3;
  AdaptiveSampler sampler(options, 100.0);
  Rng rng(17);
  // Warm up statistics with safe values.
  for (int i = 0; i < 10; ++i) sampler.observe(rng.normal(0.0, 0.5), 1);
  const int streak_before = sampler.safe_streak();
  // One observation very near the threshold lands beta above err -> reset,
  // or inside the band -> streak cleared; either way streak drops to 0.
  sampler.observe(99.0, 1);
  EXPECT_EQ(sampler.safe_streak(), 0);
  (void)streak_before;
}

TEST(AdaptiveSampler, ExposesMaxInterval) {
  auto options = quiet_options();
  options.max_interval = 23;
  AdaptiveSampler sampler(options, 100.0);
  EXPECT_EQ(sampler.max_interval(), 23);
}

TEST(AdaptiveSampler, IntervalHistogramBoundTracksMaxInterval) {
  // Regression: volley_sampler_interval_ticks was hard-capped at 64, so a
  // configuration with Im > 64 funneled every chosen interval into the
  // overflow bucket. The bound is now derived from Im at first registration
  // (rounded up to a multiple of 64 so small-Im runs keep the legacy shape
  // and stay merge-compatible). The sampler records no metrics itself: a
  // monitor tallies its decisions and the tally's publish registers the
  // histogram with the first tallied sample's Im.
  CallableSource source([](Tick) { return 1.0; }, 1000);
  {
    obs::MetricsRegistry registry;
    obs::ScopedMetricsRegistry scope(registry);
    auto options = quiet_options();
    options.max_interval = 100;
    Monitor monitor(0, source, options, 1000.0);
    SampleTally tally;
    for (Tick t = 0; t < 5; ++t) monitor.force_sample(t, tally);
    publish(tally);
    const auto snap =
        registry.histogram("volley_sampler_interval_ticks", 0.0, 1.0, 1)
            .snapshot();
    // Im = 100 -> bound 128 with unit-width bins; interval 100 is in range.
    EXPECT_EQ(snap.bins(), 128u);
    EXPECT_DOUBLE_EQ(snap.bin_hi(snap.bins() - 1), 128.0);
    EXPECT_EQ(snap.overflow(), 0);
    EXPECT_EQ(snap.count(), 5);
  }
  {
    // Im <= 63 keeps the legacy 0-64x64 shape exactly.
    obs::MetricsRegistry registry;
    obs::ScopedMetricsRegistry scope(registry);
    Monitor monitor(0, source, quiet_options(), 1000.0);  // Im = 10
    SampleTally tally;
    monitor.force_sample(0, tally);
    publish(tally);
    const auto snap =
        registry.histogram("volley_sampler_interval_ticks", 0.0, 1.0, 1)
            .snapshot();
    EXPECT_EQ(snap.bins(), 64u);
    EXPECT_DOUBLE_EQ(snap.bin_hi(snap.bins() - 1), 64.0);
  }
}

}  // namespace
}  // namespace volley
