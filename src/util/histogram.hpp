#pragma once
// Lock-free log-linear latency histogram.
//
// Nanosecond bins bumped with relaxed atomics, so it can sit on a
// measurement path shared by many workers without itself becoming a
// contention source. Below 16 ns every value has its own bin; above, each
// power-of-two octave is split into 8 equal sub-bins, so a bin's width is
// at most 1/8 of its lower edge and a percentile (a bin's upper edge)
// overstates the true value by at most 12.5%. Bins are inclusive of their
// upper edge: powers of two are upper edges.

#include <atomic>
#include <cstdint>
#include <string>

namespace spdag {

class latency_histogram {
 public:
  static constexpr int sub_bins = 8;  // per octave
  // Exact bins 0..15, then 8 per octave up to 2^64.
  static constexpr int bin_count = sub_bins * 62;

  void record(std::uint64_t ns) noexcept {
    bins_[bin_for(ns)].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& b : bins_) n += b.load(std::memory_order_relaxed);
    return n;
  }

  // Upper bound (in ns) of the bin containing the q-quantile, q in [0, 1].
  std::uint64_t percentile_ns(double q) const noexcept {
    const std::uint64_t total = count();
    if (total == 0) return 0;
    const double target = q * static_cast<double>(total);
    double seen = 0;
    for (int i = 0; i < bin_count; ++i) {
      seen += static_cast<double>(bins_[i].load(std::memory_order_relaxed));
      if (seen >= target) return bin_upper_ns(i);
    }
    return bin_upper_ns(bin_count - 1);
  }

  double mean_ns() const noexcept {
    const std::uint64_t total = count();
    if (total == 0) return 0;
    double acc = 0;
    for (int i = 0; i < bin_count; ++i) {
      // Midpoint of the bin's values, (lower edge, upper edge].
      const double lo =
          i == 0 ? 0.0 : static_cast<double>(bin_upper_ns(i - 1));
      const double hi = static_cast<double>(bin_upper_ns(i));
      const double mid = 0.5 * (lo + 1.0 + hi);
      acc += mid * static_cast<double>(bins_[i].load(std::memory_order_relaxed));
    }
    return acc / static_cast<double>(total);
  }

  void reset() noexcept {
    for (auto& b : bins_) b.store(0, std::memory_order_relaxed);
  }

  // Merges another histogram into this one (quiescent use).
  void merge(const latency_histogram& other) noexcept {
    for (int i = 0; i < bin_count; ++i) {
      bins_[i].fetch_add(other.bins_[i].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    }
  }

  std::uint64_t bin(int i) const noexcept {
    return bins_[i].load(std::memory_order_relaxed);
  }

  // "<=1ns", "<=2ns", ... label for a bin (reporting).
  static std::string bin_label(int i) {
    return "<=" + std::to_string(bin_upper_ns(i)) + "ns";
  }

  // Upper edge (inclusive, in ns) of bin i.
  static constexpr std::uint64_t bin_upper_ns(int i) noexcept {
    if (i >= bin_count - 1) return ~0ULL;
    if (i < 2 * sub_bins) return static_cast<std::uint64_t>(i) + 1;
    const int octave = i / sub_bins + 2;  // bins of [2^octave, 2^(octave+1))
    const std::uint64_t sub = static_cast<std::uint64_t>(i % sub_bins);
    return (sub_bins + sub + 1) << (octave - 3);
  }

 private:
  // Bin of ns, through v = ns - 1 so that upper edges are inclusive: v
  // below 16 is its own bin; otherwise the octave of v (its top bit) picks
  // a row of 8 and the next three bits pick the sub-bin.
  static constexpr int bin_for(std::uint64_t ns) noexcept {
    const std::uint64_t v = ns == 0 ? 0 : ns - 1;
    if (v < 2 * sub_bins) return static_cast<int>(v);
    const int octave = 63 - __builtin_clzll(v);
    const int sub = static_cast<int>((v >> (octave - 3)) & (sub_bins - 1));
    return sub_bins * (octave - 2) + sub;
  }

  std::atomic<std::uint64_t> bins_[bin_count] = {};
};

}  // namespace spdag
