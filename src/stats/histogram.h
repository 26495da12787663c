// Fixed-width binned histogram over a closed value range.
//
// Used by experiment accounting (distribution of sampling intervals chosen
// by the adaptive sampler, distribution of Dom0 CPU utilisation samples) and
// by tests that assert distributional properties of the trace generators.
// Out-of-range values are clamped into the edge bins and counted separately
// so callers can detect mis-sized ranges.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace volley {

class Histogram {
 public:
  /// [lo, hi) split into `bins` equal-width bins.
  Histogram(double lo, double hi, std::size_t bins);

  /// Inline: the per-sample tally (core/sample_tally.h) bins every β̄
  /// with it, so the bin formula stays the registry's own.
  void add(double x) { add_unchecked(x, 1); }
  void add_n(double x, std::int64_t n);

  /// Zeroes every count and the sum; keeps the shape and the storage.
  void clear();

  /// Adds every observation of `other` into this histogram. Both must share
  /// the same [lo, hi) range and bin count (throws otherwise); counts,
  /// under/overflow, and the running sum combine exactly, so merging K
  /// shard histograms equals observing the concatenated stream.
  void merge(const Histogram& other);

  std::int64_t count() const { return total_; }
  std::int64_t bin_count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t bins() const { return counts_.size(); }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;
  std::int64_t underflow() const { return underflow_; }
  std::int64_t overflow() const { return overflow_; }

  double mean() const;

  /// Value below which `q` of the mass lies, interpolated within a bin.
  double quantile(double q) const;

  /// Multi-line ASCII rendering (for example programs), widest bin = width.
  std::string render(std::size_t width = 50) const;

 private:
  void add_unchecked(double x, std::int64_t n) {
    std::size_t bin;
    if (x < lo_) {
      underflow_ += n;
      bin = 0;
    } else if (x >= hi_) {
      overflow_ += n;
      bin = counts_.size() - 1;
    } else {
      bin = static_cast<std::size_t>((x - lo_) / bin_width_);
      bin = std::min(bin, counts_.size() - 1);  // guard x just below hi_
    }
    counts_[bin] += n;
    total_ += n;
    sum_ += x * static_cast<double>(n);
  }

  double lo_, hi_, bin_width_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_{0};
  std::int64_t underflow_{0};
  std::int64_t overflow_{0};
  double sum_{0.0};
};

}  // namespace volley
