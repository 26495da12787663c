// Identity tests for the β̄ likelihood kernel (DESIGN.md §11): every fast
// path — zero-β̄ certificate, certified-prefix skip, incremental prefix
// memo, blocked/SIMD loop — must return the double that the
// baseline `beta_bound_with(..., chebyshev_step_bound)` loop returns,
// compared *bitwise*, across a property sweep that covers σ = 0, k ≤ 0,
// cold start, saturation early-exits, and the AIMD access pattern. Plus the
// VOLLEY_SCALAR_BETA escape-hatch regression: with the hatch on, the legacy
// per-monitor evaluation is restored and a whole run is byte-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/coordinator.h"
#include "core/likelihood.h"
#include "core/likelihood_kernel.h"
#include "core/threshold_split.h"
#include "sim/runner.h"

namespace volley {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Bitwise equality — EXPECT_DOUBLE_EQ would pass 0.0 == -0.0 and fail on
/// NaN == NaN; the kernel's contract is stricter than either.
#define EXPECT_BITEQ(a, b) EXPECT_EQ(bits(a), bits(b))
#define ASSERT_BITEQ(a, b) ASSERT_EQ(bits(a), bits(b))

double scalar_reference(double v, double t, const DeltaStats& s, Tick i) {
  return beta_bound_with(v, t, s, i, chebyshev_step_bound);
}

/// RAII guard for the runtime escape hatch; restores the prior state.
class ScalarBetaGuard {
 public:
  explicit ScalarBetaGuard(bool scalar) : prior_(scalar_beta()) {
    set_scalar_beta(scalar);
  }
  ~ScalarBetaGuard() { set_scalar_beta(prior_); }
  ScalarBetaGuard(const ScalarBetaGuard&) = delete;
  ScalarBetaGuard& operator=(const ScalarBetaGuard&) = delete;

 private:
  bool prior_;
};

// --- beta_bound_chebyshev vs the baseline loop ------------------------

TEST(KernelIdentity, GridSweepIsBitwiseIdentical) {
  // Deliberately spans every regime: far-below-threshold (certificate),
  // near-threshold (full loop), mean drift crossing T (k <= 0, survive
  // hits 0), negative mean (margin grows with i), sigma = 0 (deterministic
  // drift), and tiny sigma (huge k without the drift ever crossing).
  const double values[] = {0.0, 1.0, 9.5, 10.0, 11.0, -3.0};
  const double thresholds[] = {10.0, 1e6, 0.5};
  const double means[] = {0.0, 0.1, -0.2, 5.0, 1e-9};
  const double stddevs[] = {0.0, 1e-12, 0.05, 1.0, 50.0};
  const Tick intervals[] = {1, 2, 3, 7, 15, 16, 17, 40, 128, 1000};

  for (double v : values)
    for (double t : thresholds)
      for (double mu : means)
        for (double sigma : stddevs)
          for (Tick i : intervals) {
            const DeltaStats s{mu, sigma};
            ASSERT_BITEQ(beta_bound_chebyshev(v, t, s, i),
                         scalar_reference(v, t, s, i))
                << "v=" << v << " T=" << t << " mu=" << mu
                << " sigma=" << sigma << " I=" << i;
          }
}

TEST(KernelIdentity, RandomSweepIsBitwiseIdentical) {
  Rng rng(2024);
  for (int trial = 0; trial < 5000; ++trial) {
    const double v = rng.normal(0.0, 100.0);
    const double t = v + rng.normal(5.0, 50.0);  // margins of both signs
    const DeltaStats s{rng.normal(0.0, 2.0),
                       std::fabs(rng.normal(0.0, 3.0))};
    const auto i = static_cast<Tick>(1 + (trial % 200));
    ASSERT_BITEQ(beta_bound_chebyshev(v, t, s, i),
                 scalar_reference(v, t, s, i))
        << "v=" << v << " T=" << t << " mu=" << s.mean
        << " sigma=" << s.stddev << " I=" << i;
  }
}

TEST(KernelIdentity, CertificateRegimeIsExactZero) {
  // A quiet metric far below its threshold: every survival factor rounds
  // to exactly 1.0, so the certificate may answer 0.0 in O(1) — and the
  // baseline loop must agree it is exactly +0.0, not merely tiny. The
  // regime needs k_I = (T - v - I*mu)/(I*sigma) >= 2^28 at the far
  // endpoint: T = 1e12 over I = 128 steps of sigma = 0.5 gives k ~ 1.6e10.
  const DeltaStats s{0.001, 0.5};
  const double beta = beta_bound_chebyshev(1.0, 1e12, s, 128);
  EXPECT_BITEQ(beta, 0.0);
  EXPECT_BITEQ(beta, scalar_reference(1.0, 1e12, s, 128));
}

TEST(KernelIdentity, SaturationRegimesMatch) {
  // survive hits exactly 0 (a k <= 0 step)...
  const DeltaStats drift{5.0, 1.0};
  ASSERT_BITEQ(beta_bound_chebyshev(8.0, 10.0, drift, 4),
               scalar_reference(8.0, 10.0, drift, 4));
  EXPECT_BITEQ(beta_bound_chebyshev(8.0, 10.0, drift, 4), 1.0);
  // ...and the 1 - survive == 1.0 early-exit (tiny positive k: each factor
  // ~k^2, the product underflows the 2^-53 threshold within a few steps).
  const DeltaStats noisy{0.0, 1e6};
  ASSERT_BITEQ(beta_bound_chebyshev(0.0, 1.0, noisy, 64),
               scalar_reference(0.0, 1.0, noisy, 64));
  EXPECT_BITEQ(beta_bound_chebyshev(0.0, 1.0, noisy, 64), 1.0);
}

TEST(KernelIdentity, RejectsNonPositiveInterval) {
  const DeltaStats s{0.0, 1.0};
  EXPECT_THROW(beta_bound_chebyshev(0.0, 1.0, s, 0), std::invalid_argument);
}

// --- the certified-prefix skip ----------------------------------------

/// Asserts the kernel equals the baseline bitwise at (v, T, s, I), and that
/// the baseline's factors over the prefix the kernel skips are exactly 1.0.
/// Returns that prefix's length.
Tick expect_prefix_identity(double v, double t, const DeltaStats& s, Tick i) {
  EXPECT_BITEQ(beta_bound_chebyshev(v, t, s, i), scalar_reference(v, t, s, i))
      << "v=" << v << " T=" << t << " mu=" << s.mean << " sigma=" << s.stddev
      << " I=" << i;
  const Tick j = certified_unit_prefix(v, t, s, i);
  EXPECT_GE(j, 0);
  EXPECT_LT(j, i);
  for (Tick step = 1; step <= j; ++step) {
    EXPECT_BITEQ(1.0 - chebyshev_step_bound(v, t, s, step), 1.0)
        << "skipped factor " << step << " of I=" << i;
  }
  return j;
}

/// σ of a lane whose k_i = (T − v)/(i·σ) crosses 2^28 at step `crossing`
/// (μ = 0): the gap-1 statistics of a quiet lane polled every tick.
double sigma_crossing_at(double margin, double crossing) {
  return margin / (crossing * 0x1p28);
}

TEST(KernelPrefix, QuietGapOneLaneAtEveryInterval) {
  // v = 0.5 under T = 1 with σ such that k_i falls below 2^28 after step
  // 22: the full certificate holds up to I = 22 and fails beyond, where
  // the kernel skips the certified prefix instead of folding ~22 factors
  // of exactly 1.0.
  const DeltaStats s{0.0, sigma_crossing_at(0.5, 22.5)};
  for (Tick i = 2; i <= 64; ++i) {
    const Tick j = expect_prefix_identity(0.5, 1.0, s, i);
    if (i > 23) {
      EXPECT_GE(j, 20) << "I=" << i;  // the skip is exercised
    }
  }
}

TEST(KernelPrefix, MarginsStraddlingTheBound) {
  // k_c sits within a few ulps of 2^28 at step c: the closed form and the
  // certificate must agree on which side it falls, or skip nothing.
  for (double crossing : {1.0, 2.0, 7.0, 16.0, 39.0}) {
    const double sigma = sigma_crossing_at(0.25, crossing);
    for (double scale : {1.0 - 0x1p-50, 1.0 - 0x1p-52, 1.0, 1.0 + 0x1p-52,
                         1.0 + 0x1p-50}) {
      const DeltaStats s{0.0, sigma * scale};
      for (Tick i : {Tick{2}, Tick{8}, Tick{40}, Tick{64}})
        expect_prefix_identity(0.75, 1.0, s, i);
    }
  }
}

TEST(KernelPrefix, SignedMeans) {
  const double sigma = sigma_crossing_at(1.0, 10.0);
  for (double mu : {-1e-3, -sigma * 0x1p27, -1e-12, 1e-12, sigma * 0x1p20,
                    1e-3, 0.02}) {
    const DeltaStats s{mu, sigma};
    for (Tick i : {Tick{2}, Tick{11}, Tick{40}, Tick{64}})
      expect_prefix_identity(2.0, 3.0, s, i);
  }
  // μ·I large enough to reach the threshold: the tail saturates.
  expect_prefix_identity(2.0, 3.0, DeltaStats{0.05, 1e-9}, 64);
}

TEST(KernelPrefix, ZeroSigmaSkipsNothing) {
  for (double mu : {0.0, 0.01, -0.01, 0.05}) {
    const DeltaStats s{mu, 0.0};
    for (Tick i : {Tick{2}, Tick{20}, Tick{40}, Tick{64}}) {
      EXPECT_EQ(expect_prefix_identity(0.0, 1.0, s, i), 0);
    }
  }
}

TEST(KernelPrefix, NaNInputsSkipNothing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sigma = sigma_crossing_at(0.5, 5.0);
  const struct {
    double v, t;
    DeltaStats s;
  } cases[] = {
      {nan, 1.0, {0.0, sigma}},  {0.5, nan, {0.0, sigma}},
      {0.5, 1.0, {nan, sigma}},  {0.5, 1.0, {0.0, nan}},
  };
  for (const auto& c : cases) {
    for (Tick i : {Tick{2}, Tick{40}}) {
      EXPECT_EQ(expect_prefix_identity(c.v, c.t, c.s, i), 0);
    }
  }
}

TEST(KernelPrefix, ColdMemoThenExtension) {
  // The prefix path stores the memo; extending the same key continues the
  // product from it and must still equal the baseline at every I.
  const DeltaStats s{0.0, sigma_crossing_at(0.5, 12.0)};
  BetaBoundCache cache;
  ASSERT_BITEQ(beta_bound_chebyshev(0.5, 1.0, s, 30, &cache),
               scalar_reference(0.5, 1.0, s, 30));
  ASSERT_GT(certified_unit_prefix(0.5, 1.0, s, 30), 0);
  EXPECT_EQ(cache.interval, 30);
  for (Tick i = 31; i <= 64; ++i) {
    ASSERT_BITEQ(beta_bound_chebyshev(0.5, 1.0, s, i, &cache),
                 scalar_reference(0.5, 1.0, s, i))
        << "I=" << i;
  }
}

// --- the incremental memo ---------------------------------------------

TEST(KernelCache, AimdAccessPatternStaysIdentical) {
  // The sampler's real access pattern: same key, interval grows by one,
  // occasionally resets to 1, occasionally re-asks the same interval.
  const DeltaStats s{0.01, 0.8};
  const double v = 2.0, t = 60.0;
  BetaBoundCache cache;
  for (int round = 0; round < 3; ++round) {
    for (Tick i = 1; i <= 128; ++i) {
      ASSERT_BITEQ(beta_bound_chebyshev(v, t, s, i, &cache),
                   scalar_reference(v, t, s, i))
          << "round=" << round << " I=" << i;
      // Same-interval re-evaluation (a pure memo hit) must also agree.
      ASSERT_BITEQ(beta_bound_chebyshev(v, t, s, i, &cache),
                   scalar_reference(v, t, s, i));
    }
  }
}

TEST(KernelCache, ShrinkingIntervalRecomputes) {
  const DeltaStats s{0.05, 1.2};
  BetaBoundCache cache;
  for (Tick i : {Tick{100}, Tick{3}, Tick{40}, Tick{1}, Tick{99}}) {
    ASSERT_BITEQ(beta_bound_chebyshev(4.0, 80.0, s, i, &cache),
                 scalar_reference(4.0, 80.0, s, i))
        << "I=" << i;
  }
}

TEST(KernelCache, KeyChangeInvalidates) {
  BetaBoundCache cache;
  const DeltaStats a{0.1, 1.0}, b{0.1, 1.5};
  ASSERT_BITEQ(beta_bound_chebyshev(1.0, 30.0, a, 20, &cache),
               scalar_reference(1.0, 30.0, a, 20));
  // stddev changed under the same pointer: stale reuse would be visible.
  ASSERT_BITEQ(beta_bound_chebyshev(1.0, 30.0, b, 21, &cache),
               scalar_reference(1.0, 30.0, b, 21));
  // value changed:
  ASSERT_BITEQ(beta_bound_chebyshev(2.0, 30.0, b, 22, &cache),
               scalar_reference(2.0, 30.0, b, 22));
  // threshold changed:
  ASSERT_BITEQ(beta_bound_chebyshev(2.0, 29.0, b, 23, &cache),
               scalar_reference(2.0, 29.0, b, 23));
}

TEST(KernelCache, SaturatedThenShorterInterval) {
  // Saturate the memo at a long interval, then ask for a shorter one whose
  // true result is NOT saturated: the memo must not round-trip the 1.0.
  const DeltaStats s{0.4, 0.8};
  BetaBoundCache cache;
  const double v = 0.0, t = 20.0;
  ASSERT_BITEQ(beta_bound_chebyshev(v, t, s, 200, &cache),
               scalar_reference(v, t, s, 200));
  for (Tick i = 1; i <= 30; ++i) {
    ASSERT_BITEQ(beta_bound_chebyshev(v, t, s, i, &cache),
                 scalar_reference(v, t, s, i))
        << "I=" << i;
  }
}

TEST(KernelCache, CertificateExtensionKeepsResult) {
  // Quiet regime: first evaluation certifies 0.0, growing I extends via
  // the range certificate without touching the stored product.
  const DeltaStats s{0.0, 0.1};
  BetaBoundCache cache;
  for (Tick i = 1; i <= 128; ++i) {
    ASSERT_BITEQ(beta_bound_chebyshev(0.0, 1e11, s, i, &cache), 0.0);
  }
}

// --- estimator layer --------------------------------------------------

/// Feeds both estimators the same walk; returns them warmed up.
void feed(ViolationLikelihoodEstimator& est, std::uint64_t seed, int n) {
  Rng rng(seed);
  double v = 0.0;
  for (int i = 0; i < n; ++i) {
    v += rng.normal(0.05, 0.4);
    est.observe(v, 1);
  }
}

TEST(KernelEstimator, BetaBoundMatchesScalarFlag) {
  // The estimator's kernel-backed beta_bound must equal the same call with
  // the escape hatch on (which routes through the verbatim legacy loop).
  ViolationLikelihoodEstimator kernel_est, scalar_est;
  feed(kernel_est, 31, 300);
  feed(scalar_est, 31, 300);
  for (Tick i : {Tick{1}, Tick{5}, Tick{40}, Tick{128}}) {
    for (double t : {5.0, 50.0, 1e6}) {
      double with_kernel = 0.0, with_scalar = 0.0;
      {
        ScalarBetaGuard guard(false);
        with_kernel = kernel_est.beta_bound(t, i);
      }
      {
        ScalarBetaGuard guard(true);
        with_scalar = scalar_est.beta_bound(t, i);
      }
      ASSERT_BITEQ(with_kernel, with_scalar) << "T=" << t << " I=" << i;
    }
  }
}

TEST(KernelEstimator, GaussianPathUnaffected) {
  ViolationLikelihoodEstimator::Options options;
  options.bound = ViolationLikelihoodEstimator::Bound::kGaussian;
  ViolationLikelihoodEstimator est(options);
  feed(est, 47, 200);
  const auto stats = est.delta_stats();
  ASSERT_TRUE(stats.has_value());
  const double direct = beta_bound_with(*est.last_value(), 25.0, *stats, 12,
                                        gaussian_step_bound);
  EXPECT_BITEQ(est.beta_bound(25.0, 12), direct);
}

// --- escape-hatch flag -------------------------------------------------

TEST(ScalarBetaFlag, SetterRoundTrips) {
  const bool prior = scalar_beta();
  set_scalar_beta(true);
  EXPECT_TRUE(scalar_beta());
  set_scalar_beta(false);
  EXPECT_FALSE(scalar_beta());
  set_scalar_beta(prior);
}

// --- whole-run regression: kernel vs legacy per-monitor loop -----------

std::vector<TimeSeries> walk_series(int monitors, Tick ticks,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TimeSeries> series;
  for (int m = 0; m < monitors; ++m) {
    TimeSeries s(static_cast<std::size_t>(ticks));
    double x = 0.0;
    for (Tick t = 0; t < ticks; ++t) {
      x = 0.85 * x + rng.normal(0.0, 0.4);
      s[static_cast<std::size_t>(t)] = x;
    }
    series.push_back(std::move(s));
  }
  return series;
}

TEST(ScalarBetaRegression, WholeRunIsByteIdenticalEitherWay) {
  // 16 monitors through the kernel (certificate, prefix skip, memo,
  // blocked loop). With the hatch on, every evaluation instead takes the
  // verbatim legacy loop. The two runs must agree byte for byte —
  // including the metrics_json snapshot, which covers every counter and
  // histogram either path touches.
  const Tick ticks = 4000;
  const auto series = walk_series(16, ticks, 321);
  TaskSpec spec;
  spec.global_threshold =
      TimeSeries::sum(series).threshold_for_selectivity(2.0);
  spec.error_allowance = 0.02;
  spec.max_interval = 12;
  spec.updating_period = 500;
  const auto locals = split_threshold(spec.global_threshold, series.size());

  RunOptions options;
  options.record_ops = true;
  options.record_intervals = true;
  RunResult legacy, kernel;
  {
    ScalarBetaGuard guard(true);
    legacy = run_volley(spec, series, locals, options);
  }
  {
    ScalarBetaGuard guard(false);
    kernel = run_volley(spec, series, locals, options);
  }
  ASSERT_GT(legacy.global_polls, 0);
  EXPECT_EQ(legacy.scheduled_ops, kernel.scheduled_ops);
  EXPECT_EQ(legacy.forced_ops, kernel.forced_ops);
  EXPECT_EQ(legacy.total_cost, kernel.total_cost);
  EXPECT_EQ(legacy.local_violations, kernel.local_violations);
  EXPECT_EQ(legacy.global_polls, kernel.global_polls);
  EXPECT_EQ(legacy.reallocations, kernel.reallocations);
  EXPECT_EQ(legacy.detected_alert_ticks, kernel.detected_alert_ticks);
  EXPECT_EQ(legacy.op_ticks, kernel.op_ticks);
  EXPECT_EQ(legacy.interval_trajectory, kernel.interval_trajectory);
  EXPECT_EQ(legacy.metrics_json, kernel.metrics_json);
}

}  // namespace
}  // namespace volley
