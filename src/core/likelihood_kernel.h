// Fast evaluation kernel for the Chebyshev mis-detection bound β̄(I)
// (DESIGN.md §11; the derivation itself lives in likelihood.h and is not
// repeated here).
//
// `beta_bound_with(value, threshold, stats, I, chebyshev_step_bound)` in
// likelihood.h is the *identity baseline*: an O(I) loop with two divisions
// per step. After the due index (DESIGN.md §10) made idle ticks O(1), that
// loop dominated every sample tick (ROADMAP "kill the β̄ bottleneck"). This
// kernel removes it with three layers, every one of which returns the
// **bitwise-identical** double the baseline would have returned:
//
//  1. Zero-β̄ certificate (O(1)). When every per-step survival factor
//     fl(1 - p_i) rounds to exactly 1.0 — the common case for a quiet
//     metric far below its threshold, which is precisely when adaptive
//     sampling has stretched I to Im — the whole product is exactly 1.0
//     and β̄ is exactly 0.0. Two endpoint evaluations of k_i certify this
//     (k is monotone in i), with a 2× headroom over the rounding threshold
//     and a conditioning guard on the margin subtraction; DESIGN.md §11
//     gives the ulp argument. When the certificate fails on [1, I], a
//     closed-form prefix [1, j] (the steps whose k_i clears the same
//     bound) is certified the same way and skipped: its factors are
//     exactly 1.0, so the loop starts at j + 1 with survive = 1.0.
//
//  2. Incremental prefix reuse (O(ΔI)). A small per-estimator memo
//     (`BetaBoundCache`) keeps the survive product after the last
//     evaluation. While (value, threshold, mean, stddev) are bitwise
//     unchanged, re-evaluating at the same I is a lookup and at a larger I
//     extends the product from the cached prefix — the same multiply
//     sequence the baseline performs, hence bitwise identical. (A log-space
//     running sum Σ log(k_i²/(1+k_i²)) was considered and rejected:
//     exp(Σlog) is not the FP product, so it cannot meet the identity
//     contract; the prefix-product memo gives the same O(1)/O(ΔI)
//     re-evaluation for the AIMD access pattern. See DESIGN.md §11.)
//
//  3. Blocked/SIMD step loop. When the loop must run, per-step factors are
//     computed block-wise in a branch-light form the compiler can
//     vectorize (`#pragma omp simd` when built with -fopenmp-simd; plain
//     scalar code otherwise — selected at build time, no runtime dispatch),
//     then folded serially in i order so the product and its saturation
//     early-exits match the baseline step for step.
//
// Escape hatch / identity baseline: `set_scalar_beta(true)` (env:
// `VOLLEY_SCALAR_BETA=1`, read once like VOLLEY_SCAN_TICKS) routes every
// evaluation back through the verbatim baseline loop.
// tests/test_likelihood_kernel.cpp asserts kernel == baseline bitwise
// across a property sweep; bench_scale
// re-asserts identical runs scalar-vs-kernel on every invocation.
//
// Thread-safety: the flag accessors are thread-safe (relaxed atomic). A
// `BetaBoundCache` belongs to one estimator and inherits its confinement
// (one monitor, one thread). The kernel itself keeps no mutable global
// state, so coordinator shards never contend.
#pragma once

#include "common/clock.h"
#include "core/likelihood.h"

namespace volley {

/// True when the legacy scalar β̄ path is forced. Initialized from the
/// VOLLEY_SCALAR_BETA environment variable (set and not "0") on first use.
bool scalar_beta();

/// Overrides the escape hatch at runtime (tests and benches flip it per
/// run to prove both paths agree).
void set_scalar_beta(bool scalar);

/// Length j of the prefix [1, j] of β̄(I)'s steps whose survival factors
/// are provably exactly 1.0 (k_i ≥ 2^28, checked by the same endpoint
/// certificate as layer 1), capped at I − 1; 0 when there is none (I = 1,
/// σ ≤ 0, a non-positive margin, NaN). beta_bound_chebyshev starts its
/// product loop at j + 1 when the certificate fails on all of [1, I].
Tick certified_unit_prefix(double value, double threshold,
                           const DeltaStats& stats, Tick interval);

/// Chebyshev β̄(I), bitwise identical to
/// `beta_bound_with(value, threshold, stats, interval, chebyshev_step_bound)`.
/// `cache` may be null (no reuse across calls).
double beta_bound_chebyshev(double value, double threshold,
                            const DeltaStats& stats, Tick interval,
                            BetaBoundCache* cache = nullptr);

}  // namespace volley
