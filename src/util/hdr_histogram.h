// HdrHistogram: fixed-memory log-linear latency histogram with mergeable
// shards and quantile queries — the simulator's equivalent of the kernel's
// bucketed latency_hist tracer and of HdrHistogram proper.
//
// Values (nanoseconds in every current user) are bucketed log-linearly: the
// first 2^kSubBits values are exact, and every further power-of-two octave is
// split into 2^(kSubBits-1) linear sub-buckets, bounding the relative
// quantization error at 2^-(kSubBits-1) (~3% at the default 6 sub-bucket
// bits) across the full 64-bit range. Count storage is a fixed inline array:
// recording is an index computation plus an increment — no allocation, no
// rehashing, no data-dependent branches beyond the bit scan — so the
// histogram can sit on the per-packet delivery path of the zero-allocation
// steady state (tests/slo_test.cc gates this).
//
// Histograms merge with operator+= exactly like sim::NodeStats shards:
// bucket-wise sums plus min/max/total folds. Merging is associative and
// commutative (tests/slo_test.cc checks order-invariance), so per-CPU or
// per-phase shards can be combined in any order without changing any
// reported quantile.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace srv6bpf::util {

class HdrHistogram {
 public:
  // Linear sub-bucket resolution: 2^kSubBits slots in the exact range and
  // per octave above it (upper half). 6 bits = 64 slots, <= 1/32 (~3.1%)
  // relative quantization error on any recorded value.
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kSubCount = 1ull << kSubBits;
  // Octaves above the exact range needed to cover every uint64 value.
  static constexpr unsigned kOctaves = 64 - kSubBits;
  static constexpr std::size_t kSlots =
      static_cast<std::size_t>(kSubCount) + kOctaves * (kSubCount / 2);

  constexpr HdrHistogram() = default;

  // Records one (or `n`) observation(s) of `v`. Never allocates or fails;
  // every uint64 value has a slot.
  void record(std::uint64_t v) noexcept { record_n(v, 1); }
  void record_n(std::uint64_t v, std::uint64_t n) noexcept {
    counts_[slot_index(v)] += n;
    count_ += n;
    sum_ += v * n;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  // Shard merge: bucket-wise sum. Associative and commutative.
  HdrHistogram& operator+=(const HdrHistogram& o) noexcept {
    for (std::size_t i = 0; i < kSlots; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.min_ < min_) min_ = o.min_;
    if (o.max_ > max_) max_ = o.max_;
    return *this;
  }

  void reset() noexcept { *this = HdrHistogram{}; }

  std::uint64_t count() const noexcept { return count_; }
  // Exact (unbucketed) extremes and mean over everything recorded.
  std::uint64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  // Value at quantile q in [0, 1]: the upper bound of the bucket holding the
  // ceil(q * count)-th observation (rank 1 = lowest). Deterministic for a
  // given multiset of recordings regardless of insertion or merge order;
  // exact when every recorded value is below 2^kSubBits or equals a bucket
  // upper bound. Returns 0 on an empty histogram; the result is clamped to
  // the exact max() so p100 never exceeds an observed value.
  std::uint64_t quantile(double q) const noexcept;
  // Convenience percentile forms the SLO reports use.
  std::uint64_t p50() const noexcept { return quantile(0.50); }
  std::uint64_t p99() const noexcept { return quantile(0.99); }
  std::uint64_t p999() const noexcept { return quantile(0.999); }

  // Bucketing maths, exposed for tests: the slot an observation lands in and
  // the highest value mapping to that slot.
  static std::size_t slot_index(std::uint64_t v) noexcept {
    if (v < kSubCount) return static_cast<std::size_t>(v);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned octave = msb - (kSubBits - 1);  // 1-based above exact range
    const std::uint64_t sub = v >> octave;  // in [kSubCount/2, kSubCount)
    return static_cast<std::size_t>(kSubCount +
                                    (octave - 1) * (kSubCount / 2) +
                                    (sub - kSubCount / 2));
  }
  static std::uint64_t slot_upper_bound(std::size_t slot) noexcept {
    if (slot < kSubCount) return slot;
    const unsigned octave =
        static_cast<unsigned>((slot - kSubCount) / (kSubCount / 2)) + 1;
    const std::uint64_t sub =
        (slot - kSubCount) % (kSubCount / 2) + kSubCount / 2;
    return ((sub + 1) << octave) - 1;
  }

 private:
  std::uint64_t counts_[kSlots] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

}  // namespace srv6bpf::util
