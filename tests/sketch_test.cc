// Tests for the 2-level hash sketch synopsis itself: construction, update
// routing, linearity (deletion imperviousness, merge), serialization, and
// the SketchSeed / SketchFamily / SketchBank plumbing.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sketch_bank.h"
#include "core/sketch_seed.h"
#include "core/two_level_hash_sketch.h"
#include "hash/prng.h"
#include "stream/stream_generator.h"

namespace setsketch {
namespace {

SketchParams SmallParams() {
  SketchParams params;
  params.levels = 24;
  params.num_second_level = 16;
  return params;
}

std::shared_ptr<const SketchSeed> MakeSeed(uint64_t value = 1,
                                           SketchParams params = SmallParams()) {
  return std::make_shared<const SketchSeed>(params, value);
}

// ---------------------------------------------------------------------------
// SketchParams / SketchSeed / SketchFamily

TEST(SketchParamsTest, ValidityChecks) {
  SketchParams p;
  EXPECT_TRUE(p.Valid());
  p.levels = 0;
  EXPECT_FALSE(p.Valid());
  p.levels = 65;
  EXPECT_FALSE(p.Valid());
  p = SketchParams{};
  p.num_second_level = 0;
  EXPECT_FALSE(p.Valid());
  p = SketchParams{};
  p.first_level_kind = FirstLevelKind::kKWisePoly;
  p.independence = 1;
  EXPECT_FALSE(p.Valid());
  p.independence = 2;
  EXPECT_TRUE(p.Valid());
}

TEST(SketchSeedTest, SameSeedValueSameFunctions) {
  const auto a = MakeSeed(7);
  const auto b = MakeSeed(7);
  EXPECT_TRUE(*a == *b);
  for (uint64_t e = 0; e < 200; ++e) {
    EXPECT_EQ(a->Level(e), b->Level(e));
    for (int j = 0; j < a->num_second_level(); ++j) {
      EXPECT_EQ(a->second_level(j)(e), b->second_level(j)(e));
    }
  }
}

TEST(SketchSeedTest, DifferentSeedValuesDiffer) {
  const auto a = MakeSeed(7);
  const auto b = MakeSeed(8);
  EXPECT_FALSE(*a == *b);
  int level_diffs = 0;
  for (uint64_t e = 0; e < 500; ++e) {
    if (a->Level(e) != b->Level(e)) ++level_diffs;
  }
  EXPECT_GT(level_diffs, 100);
}

TEST(SketchSeedTest, LevelsWithinRange) {
  const auto seed = MakeSeed(3);
  for (uint64_t e = 0; e < 10000; ++e) {
    const int level = seed->Level(e);
    EXPECT_GE(level, 0);
    EXPECT_LT(level, SmallParams().levels);
  }
}

TEST(SketchSeedTest, LevelDistributionIsGeometric) {
  const auto seed = MakeSeed(5);
  const int n = 1 << 15;
  std::vector<int> counts(static_cast<size_t>(SmallParams().levels), 0);
  for (int e = 0; e < n; ++e) {
    ++counts[static_cast<size_t>(seed->Level(static_cast<uint64_t>(e)))];
  }
  for (int level = 0; level < 5; ++level) {
    const double p = 1.0 / std::exp2(level + 1);
    EXPECT_NEAR(counts[static_cast<size_t>(level)], n * p,
                6 * std::sqrt(n * p * (1 - p)));
  }
}

TEST(SketchFamilyTest, CopiesAreIndependentButReproducible) {
  const SketchFamily f1(SmallParams(), 8, 99);
  const SketchFamily f2(SmallParams(), 8, 99);
  ASSERT_EQ(f1.size(), 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(*f1.seed(i) == *f2.seed(i));
  }
  // Distinct copies use distinct coins.
  EXPECT_FALSE(*f1.seed(0) == *f1.seed(1));
}

// ---------------------------------------------------------------------------
// TwoLevelHashSketch: basic behavior

TEST(TwoLevelHashSketchTest, StartsEmpty) {
  const TwoLevelHashSketch sketch(MakeSeed());
  EXPECT_TRUE(sketch.Empty());
  for (int level = 0; level < sketch.levels(); ++level) {
    EXPECT_TRUE(sketch.LevelEmpty(level));
  }
}

TEST(TwoLevelHashSketchTest, SingleInsertLandsInOneLevelOneCellPerJ) {
  const auto seed = MakeSeed(11);
  TwoLevelHashSketch sketch(seed);
  const uint64_t e = 42;
  sketch.Update(e, 3);
  const int level = seed->Level(e);
  EXPECT_EQ(sketch.LevelTotal(level), 3);
  for (int j = 0; j < sketch.num_second_level(); ++j) {
    const int bit = seed->second_level(j)(e);
    EXPECT_EQ(sketch.Count(level, j, bit), 3);
    EXPECT_EQ(sketch.Count(level, j, 1 - bit), 0);
  }
  // All other levels untouched.
  for (int l = 0; l < sketch.levels(); ++l) {
    if (l != level) {
      EXPECT_TRUE(sketch.LevelEmpty(l));
    }
  }
}

TEST(TwoLevelHashSketchTest, InsertThenDeleteRestoresEmpty) {
  TwoLevelHashSketch sketch(MakeSeed(13));
  for (uint64_t e = 0; e < 100; ++e) sketch.Update(e, 2);
  EXPECT_FALSE(sketch.Empty());
  for (uint64_t e = 0; e < 100; ++e) sketch.Update(e, -2);
  EXPECT_TRUE(sketch.Empty());
}

TEST(TwoLevelHashSketchTest, ApplyUsesElementAndDelta) {
  const auto seed = MakeSeed(15);
  TwoLevelHashSketch a(seed), b(seed);
  a.Apply(Insert(3, 77, 5));  // Stream id ignored by the sketch.
  b.Update(77, 5);
  EXPECT_TRUE(a == b);
}

TEST(TwoLevelHashSketchTest, ClearZeroesEverything) {
  TwoLevelHashSketch sketch(MakeSeed(17));
  for (uint64_t e = 0; e < 50; ++e) sketch.Update(e, 1);
  sketch.Clear();
  EXPECT_TRUE(sketch.Empty());
}

// ---------------------------------------------------------------------------
// Linearity: the paper's deletion-imperviousness guarantee.

// Property: for arbitrary legal insert/delete interleavings, the sketch
// equals the sketch of the net multiset — "identical to a sketch that
// never sees the deleted items" (Section 3.1).
class DeletionImperviousTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeletionImperviousTest, SketchEqualsNetMultisetSketch) {
  const uint64_t trial_seed = GetParam();
  const auto seed = MakeSeed(1000 + trial_seed);

  // Base: 512 distinct elements inserted once.
  std::vector<Update> base;
  for (uint64_t e = 0; e < 512; ++e) base.push_back(Insert(0, e * 2654435761));

  // Churned: same net multiset, heavy insert/delete traffic.
  ChurnOptions churn;
  churn.max_multiplicity = 5;
  churn.transient_fraction = 0.8;
  churn.seed = trial_seed;
  std::vector<Update> churned = InjectChurn(base, churn);
  ShuffleUpdates(&base, trial_seed ^ 1);

  TwoLevelHashSketch clean(seed), noisy(seed);
  for (const Update& u : base) clean.Apply(u);
  for (const Update& u : churned) noisy.Apply(u);
  EXPECT_TRUE(clean == noisy)
      << "sketch diverged after churn (trial " << trial_seed << ")";
}

INSTANTIATE_TEST_SUITE_P(Trials, DeletionImperviousTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(TwoLevelHashSketchTest, OrderInsensitive) {
  const auto seed = MakeSeed(21);
  std::vector<Update> updates;
  for (uint64_t e = 0; e < 300; ++e) updates.push_back(Insert(0, e));
  for (uint64_t e = 0; e < 300; e += 3) updates.push_back(Delete(0, e));
  TwoLevelHashSketch forward(seed), shuffled_sketch(seed);
  for (const Update& u : updates) forward.Apply(u);
  // Note: shuffling may reorder a delete before its insert; counters can go
  // transiently negative but linearity still holds at the end.
  ShuffleUpdates(&updates, 7);
  for (const Update& u : updates) shuffled_sketch.Apply(u);
  EXPECT_TRUE(forward == shuffled_sketch);
}

// ---------------------------------------------------------------------------
// Merge

TEST(TwoLevelHashSketchTest, MergeEqualsConcatenatedStream) {
  const auto seed = MakeSeed(23);
  TwoLevelHashSketch part1(seed), part2(seed), whole(seed);
  for (uint64_t e = 0; e < 200; ++e) {
    if (e % 2 == 0) {
      part1.Update(e, 1);
    } else {
      part2.Update(e, 1);
    }
    whole.Update(e, 1);
  }
  EXPECT_TRUE(part1.Merge(part2));
  EXPECT_TRUE(part1 == whole);
}

TEST(TwoLevelHashSketchTest, MergeRejectsForeignSeed) {
  TwoLevelHashSketch a(MakeSeed(1)), b(MakeSeed(2));
  b.Update(5, 1);
  EXPECT_FALSE(a.Merge(b));
  EXPECT_TRUE(a.Empty());  // Unchanged.
}

TEST(TwoLevelHashSketchTest, MergeWithOverlapAddsFrequencies) {
  const auto seed = MakeSeed(25);
  TwoLevelHashSketch a(seed), b(seed), expect(seed);
  a.Update(7, 2);
  b.Update(7, 3);
  expect.Update(7, 5);
  ASSERT_TRUE(a.Merge(b));
  EXPECT_TRUE(a == expect);
}

// ---------------------------------------------------------------------------
// Serialization

TEST(TwoLevelHashSketchSerializationTest, RoundTripPreservesEverything) {
  SketchParams params = SmallParams();
  params.first_level_kind = FirstLevelKind::kKWisePoly;
  params.independence = 6;
  TwoLevelHashSketch sketch(MakeSeed(31, params));
  for (uint64_t e = 0; e < 400; ++e) sketch.Update(e * 7919, 1 + (e % 3));
  for (uint64_t e = 0; e < 400; e += 5) sketch.Update(e * 7919, -1);

  std::string bytes;
  sketch.SerializeTo(&bytes);
  size_t offset = 0;
  const auto decoded = TwoLevelHashSketch::Deserialize(bytes, &offset);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(offset, bytes.size());
  EXPECT_TRUE(*decoded == sketch);
  // The decoded sketch keeps working (same hash functions).
  TwoLevelHashSketch copy = *decoded;
  copy.Update(123456789, 1);
  TwoLevelHashSketch reference = sketch;
  reference.Update(123456789, 1);
  EXPECT_TRUE(copy == reference);
}

TEST(TwoLevelHashSketchSerializationTest, MultipleSketchesBackToBack) {
  const auto seed = MakeSeed(33);
  TwoLevelHashSketch a(seed), b(seed);
  a.Update(1, 1);
  b.Update(2, 2);
  std::string bytes;
  a.SerializeTo(&bytes);
  b.SerializeTo(&bytes);
  size_t offset = 0;
  const auto da = TwoLevelHashSketch::Deserialize(bytes, &offset);
  const auto db = TwoLevelHashSketch::Deserialize(bytes, &offset);
  ASSERT_NE(da, nullptr);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(offset, bytes.size());
  EXPECT_TRUE(*da == a);
  EXPECT_TRUE(*db == b);
}

TEST(TwoLevelHashSketchSerializationTest, RejectsCorruptedInput) {
  TwoLevelHashSketch sketch(MakeSeed(35));
  sketch.Update(9, 1);
  std::string bytes;
  sketch.SerializeTo(&bytes);

  // Truncation.
  std::string truncated = bytes.substr(0, bytes.size() / 2);
  size_t offset = 0;
  EXPECT_EQ(TwoLevelHashSketch::Deserialize(truncated, &offset), nullptr);

  // Bad magic.
  std::string corrupted = bytes;
  corrupted[0] = static_cast<char>(corrupted[0] + 1);
  offset = 0;
  EXPECT_EQ(TwoLevelHashSketch::Deserialize(corrupted, &offset), nullptr);

  // Empty.
  offset = 0;
  EXPECT_EQ(TwoLevelHashSketch::Deserialize("", &offset), nullptr);
}

TEST(TwoLevelHashSketchSerializationTest, RefusesPairsThatMissTheirLevelTotal) {
  // The two cells of every pair sum to the level total; a fixed-width
  // encoding with any single cell changed breaks that for some pair of
  // its level (s >= 2) and is refused, not decoded into a synopsis no
  // stream can produce.
  TwoLevelHashSketch sketch(MakeSeed(37));
  for (uint64_t e = 0; e < 300; ++e) sketch.Update(e * 7919, 1 + (e % 2));
  std::string bytes;
  sketch.SerializeTo(&bytes);
  const size_t cells = 2 * 24 * 16;
  const size_t header = bytes.size() - cells * sizeof(int64_t);
  for (size_t cell = 0; cell < cells; ++cell) {
    std::string tampered = bytes;
    tampered[header + cell * sizeof(int64_t)] ^= 1;
    size_t offset = 0;
    EXPECT_EQ(TwoLevelHashSketch::Deserialize(tampered, &offset), nullptr)
        << "cell " << cell;
  }
  // Changing both cells of a pair by opposite amounts keeps its sum: a
  // legal counter array, decoded (the check is exactly the pair sums).
  std::string rebalanced = bytes;
  int64_t bit0 = 0, bit1 = 0;
  std::memcpy(&bit0, rebalanced.data() + header, sizeof(bit0));
  std::memcpy(&bit1, rebalanced.data() + header + 8, sizeof(bit1));
  ++bit0;
  --bit1;
  std::memcpy(rebalanced.data() + header, &bit0, sizeof(bit0));
  std::memcpy(rebalanced.data() + header + 8, &bit1, sizeof(bit1));
  size_t offset = 0;
  const auto decoded = TwoLevelHashSketch::Deserialize(rebalanced, &offset);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->Count(0, 0, 0), sketch.Count(0, 0, 0) + 1);
  EXPECT_EQ(decoded->Count(0, 0, 1), sketch.Count(0, 0, 1) - 1);
}

// Both encodings are persisted (WAL checkpoints, SSN snapshots) and
// shipped (site summaries, cluster pulls), so their bytes are pinned
// independently of how the counters are stored in memory: each case
// below is a fixed seed and update stream whose encodings were captured
// once and must never change.
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Mixed +/- stream with repeated elements (cells cancel back to zero),
/// net-negative elements and a few +/-2^40 deltas (10-byte varints).
TwoLevelHashSketch GoldenSketch(int s, uint64_t seed_value) {
  SketchParams params = SmallParams();
  params.num_second_level = s;
  TwoLevelHashSketch sketch(MakeSeed(seed_value, params));
  SplitMix64 sm(seed_value * 31 + 7);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t element = sm.Next() % 700;
    int64_t delta = static_cast<int64_t>(sm.Next() % 5) - 2;
    if (i % 97 == 0) {
      delta = (i % 2 == 0) ? (int64_t{1} << 40) : -(int64_t{1} << 40);
    }
    sketch.Update(element, delta);
  }
  return sketch;
}

struct GoldenEncoding {
  int s;
  uint64_t seed_value;
  size_t fixed_size;
  uint64_t fixed_fnv;
  size_t compact_size;
  uint64_t compact_fnv;
};

TEST(TwoLevelHashSketchSerializationTest, EncodingsMatchGoldenBytes) {
  const GoldenEncoding kGolden[] = {
      {16, 101, 6169, 0x1dbf02e4c3ad39daULL, 913, 0x302f6e6d655083bcULL},
      {32, 102, 12313, 0xd9feda530630dc55ULL, 1534, 0x969f2090389562deULL},
      {65, 103, 24985, 0xc029909bda6cbe82ULL, 3906, 0x115ec826338fc490ULL},
  };
  for (const GoldenEncoding& golden : kGolden) {
    const TwoLevelHashSketch sketch =
        GoldenSketch(golden.s, golden.seed_value);
    std::string fixed, compact;
    sketch.SerializeTo(&fixed);
    sketch.SerializeCompactTo(&compact);
    EXPECT_EQ(fixed.size(), golden.fixed_size) << "s=" << golden.s;
    EXPECT_EQ(Fnv1a64(fixed), golden.fixed_fnv)
        << "s=" << golden.s << std::hex << " fnv=0x" << Fnv1a64(fixed);
    EXPECT_EQ(compact.size(), golden.compact_size) << "s=" << golden.s;
    EXPECT_EQ(Fnv1a64(compact), golden.compact_fnv)
        << "s=" << golden.s << std::hex << " fnv=0x" << Fnv1a64(compact);
    // Decoding either encoding and re-encoding reproduces the bytes.
    for (const std::string* bytes : {&fixed, &compact}) {
      size_t offset = 0;
      const auto decoded = TwoLevelHashSketch::Deserialize(*bytes, &offset);
      ASSERT_NE(decoded, nullptr) << "s=" << golden.s;
      EXPECT_TRUE(*decoded == sketch) << "s=" << golden.s;
      std::string again;
      if (bytes == &fixed) {
        decoded->SerializeTo(&again);
      } else {
        decoded->SerializeCompactTo(&again);
      }
      EXPECT_EQ(again, *bytes) << "s=" << golden.s;
    }
  }
}

// ---------------------------------------------------------------------------
// SketchBank

TEST(SketchBankTest, AddStreamAndApply) {
  SketchBank bank(SketchFamily(SmallParams(), 4, 71));
  EXPECT_TRUE(bank.AddStream("A"));
  EXPECT_FALSE(bank.AddStream("A"));  // Idempotent.
  EXPECT_TRUE(bank.HasStream("A"));
  EXPECT_FALSE(bank.HasStream("B"));
  EXPECT_TRUE(bank.Apply("A", 42, 1));
  EXPECT_FALSE(bank.Apply("B", 42, 1));
  EXPECT_EQ(bank.num_copies(), 4);
  for (const TwoLevelHashSketch& sketch : bank.Sketches("A")) {
    EXPECT_FALSE(sketch.Empty());
  }
}

TEST(SketchBankTest, GroupsAlignCopies) {
  SketchBank bank(SketchFamily(SmallParams(), 3, 73));
  bank.AddStream("A");
  bank.AddStream("B");
  const std::vector<SketchGroup> groups = bank.Groups({"A", "B"});
  ASSERT_EQ(groups.size(), 3u);
  for (const SketchGroup& group : groups) {
    ASSERT_EQ(group.size(), 2u);
    EXPECT_TRUE(GroupSeedsMatch(group));  // Same copy => same coins.
  }
  // Different copies use different coins.
  EXPECT_FALSE(groups[0][0]->seed() == groups[1][0]->seed());
}

TEST(SketchBankTest, GroupsUnknownStreamIsEmpty) {
  SketchBank bank(SketchFamily(SmallParams(), 2, 75));
  bank.AddStream("A");
  EXPECT_TRUE(bank.Groups({"A", "nope"}).empty());
}

TEST(SketchBankTest, CounterBytesScalesWithStreamsAndCopies) {
  SketchBank bank(SketchFamily(SmallParams(), 2, 77));
  EXPECT_EQ(bank.CounterBytes(), 0u);
  bank.AddStream("A");
  const size_t one = bank.CounterBytes();
  EXPECT_GT(one, 0u);
  bank.AddStream("B");
  EXPECT_EQ(bank.CounterBytes(), 2 * one);
}

}  // namespace
}  // namespace setsketch
