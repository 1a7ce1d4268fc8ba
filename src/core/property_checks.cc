#include "core/property_checks.h"

namespace setsketch {

namespace {

/// Sign test on a counter word read as two's complement.
bool Positive(uint64_t cell) { return static_cast<int64_t>(cell) > 0; }

uint64_t Total(const TwoLevelHashSketch& x, int level) {
  return static_cast<uint64_t>(x.LevelTotal(level));
}

}  // namespace

bool BucketEmpty(const TwoLevelHashSketch& x, int level) {
  return x.LevelEmpty(level);
}

bool SingletonBucket(const TwoLevelHashSketch& x, int level) {
  if (x.LevelEmpty(level)) return false;
  const uint64_t total = Total(x, level);
  for (const uint64_t one : x.OnesRow(level)) {
    // Two distinct elements in the bucket are split by some g_j w.h.p.,
    // leaving both second-level counters positive.
    if (Positive(total - one) && Positive(one)) return false;
  }
  return true;
}

bool IdenticalSingletonBucket(const TwoLevelHashSketch& a,
                              const TwoLevelHashSketch& b, int level) {
  if (!(a.seed() == b.seed())) return false;
  if (!SingletonBucket(a, level) || !SingletonBucket(b, level)) return false;
  const uint64_t total_a = Total(a, level);
  const uint64_t total_b = Total(b, level);
  const std::span<const uint64_t> ones_a = a.OnesRow(level);
  const std::span<const uint64_t> ones_b = b.OnesRow(level);
  for (size_t j = 0; j < ones_a.size(); ++j) {
    // A singleton occupies exactly one of the two second-level cells per j;
    // identical values occupy the same cell for every j.
    if (Positive(total_a - ones_a[j]) != Positive(total_b - ones_b[j]) ||
        Positive(ones_a[j]) != Positive(ones_b[j])) {
      return false;
    }
  }
  return true;
}

bool SingletonUnionBucket(const TwoLevelHashSketch& a,
                          const TwoLevelHashSketch& b, int level) {
  if (!(a.seed() == b.seed())) return false;
  if (BucketEmpty(b, level)) return SingletonBucket(a, level);
  if (BucketEmpty(a, level)) return SingletonBucket(b, level);
  return IdenticalSingletonBucket(a, b, level);
}

bool GroupSeedsMatch(const SketchGroup& group) {
  if (group.empty()) return false;
  for (const TwoLevelHashSketch* x : group) {
    if (x == nullptr) return false;
    if (!(x->seed() == group[0]->seed())) return false;
  }
  return true;
}

bool UnionBucketEmpty(const SketchGroup& group, int level) {
  for (const TwoLevelHashSketch* x : group) {
    if (!x->LevelEmpty(level)) return false;
  }
  return true;
}

bool UnionSingletonBucket(const SketchGroup& group, int level) {
  // By linearity, summing counters across the group yields the bucket of
  // the multiset union of the streams; run SingletonBucket on those sums.
  uint64_t total = 0;
  for (const TwoLevelHashSketch* x : group) total += Total(*x, level);
  if (total == 0) return false;
  const size_t s = static_cast<size_t>(group[0]->num_second_level());
  for (size_t j = 0; j < s; ++j) {
    uint64_t one = 0;
    for (const TwoLevelHashSketch* x : group) one += x->OnesRow(level)[j];
    if (Positive(total - one) && Positive(one)) return false;
  }
  return true;
}

}  // namespace setsketch
