// Randomized equivalence suite for the bit-sliced / batched ingest
// kernels: the SecondLevelSlice transpose must produce exactly the bits
// of the per-function scalar family (same GF(2) functions, different
// evaluation order), and every batched route — UpdateBatch, ApplyBatch,
// the grouped ParallelIngest/server unit — must be bit-identical to the
// serial per-update loops, including the s > 64 scalar fallback. Also
// pins the nonzero-cell-count invariant behind the O(1) Empty().

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/mask_add.h"
#include "core/sketch_bank.h"
#include "core/sketch_seed.h"
#include "core/two_level_hash_sketch.h"
#include "hash/prng.h"
#include "stream/update.h"

namespace setsketch {
namespace {

// Edge s values around the 64-bit slice width, plus the fallback.
const int kSweepS[] = {1, 31, 32, 33, 63, 64};
constexpr int kFallbackS = 65;

SketchParams ParamsWithS(int s, FirstLevelKind kind = FirstLevelKind::kMix64) {
  SketchParams params;
  params.levels = 24;
  params.num_second_level = s;
  params.first_level_kind = kind;
  params.independence = 4;
  return params;
}

/// Mixed +/- update batch over a small element universe so deletions hit
/// previously inserted elements (exercising 0 -> nonzero -> 0 cells).
std::vector<ElementDelta> RandomItems(size_t n, uint64_t seed) {
  SplitMix64 sm(seed);
  std::vector<ElementDelta> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t element = sm.Next() % 512;
    const int64_t delta = (sm.Next() & 1) ? 1 : -1;
    items.push_back(ElementDelta{element, delta});
  }
  return items;
}

/// Nonzero *stored* cells: each level's total plus its ones counters
/// X[level, j, 1] (the bit-0 cells are derived, not stored).
int64_t BruteForceNonzero(const TwoLevelHashSketch& sketch) {
  int64_t nonzero = 0;
  for (int level = 0; level < sketch.levels(); ++level) {
    nonzero += sketch.LevelTotal(level) != 0;
    for (int j = 0; j < sketch.num_second_level(); ++j) {
      nonzero += sketch.Count(level, j, 1) != 0;
    }
  }
  return nonzero;
}

bool AllCountsZero(const TwoLevelHashSketch& sketch) {
  for (int level = 0; level < sketch.levels(); ++level) {
    for (int j = 0; j < sketch.num_second_level(); ++j) {
      for (int bit = 0; bit < 2; ++bit) {
        if (sketch.Count(level, j, bit) != 0) return false;
      }
    }
  }
  return true;
}

/// Every logical counter X[level, j, bit] of `a` equals `b`'s.
void ExpectSameCounts(const TwoLevelHashSketch& a, const TwoLevelHashSketch& b,
                      int s) {
  for (int level = 0; level < a.levels(); ++level) {
    for (int j = 0; j < s; ++j) {
      for (int bit = 0; bit < 2; ++bit) {
        ASSERT_EQ(a.Count(level, j, bit), b.Count(level, j, bit))
            << "s=" << s << " level=" << level << " j=" << j
            << " bit=" << bit;
      }
    }
  }
}

TEST(SecondLevelSliceTest, BitsMatchScalarFamilyAcrossS) {
  for (int s : kSweepS) {
    const SketchSeed seed(ParamsWithS(s), 0x5EEDF00DULL + s);
    const SecondLevelSlice* slice = seed.slice();
    ASSERT_NE(slice, nullptr) << "s=" << s;
    SplitMix64 sm(99);
    for (int trial = 0; trial < 500; ++trial) {
      // Mix raw random words with sparse/dense edge patterns.
      uint64_t x = sm.Next();
      if (trial % 5 == 1) x = 0;
      if (trial % 5 == 2) x = ~0ULL;
      if (trial % 5 == 3) x = 1ULL << (trial % 64);
      const uint64_t bits = slice->Bits(x);
      for (int j = 0; j < s; ++j) {
        ASSERT_EQ((bits >> j) & 1,
                  static_cast<uint64_t>(seed.second_level(j)(x)))
            << "s=" << s << " j=" << j << " x=" << x;
      }
      // Unused high bits must stay clear so masks are comparable.
      if (s < 64) {
        ASSERT_EQ(bits >> s, 0u) << "s=" << s << " x=" << x;
      }
    }
  }
}

TEST(SecondLevelSliceTest, FallbackAboveSliceWidthHasNoSlice) {
  const SketchSeed seed(ParamsWithS(kFallbackS), 77);
  EXPECT_EQ(seed.slice(), nullptr);
}

TEST(BatchIngestTest, SlicedUpdateMatchesScalarBothFamilies) {
  // Every logical Count() of the sliced Update and of UpdateBatch equals
  // the per-function scalar reference's — through wide deltas that wrap
  // too — and every pair sums to its level total (mod 2^64).
  std::vector<int> sweep(std::begin(kSweepS), std::end(kSweepS));
  sweep.push_back(kFallbackS);
  for (FirstLevelKind kind :
       {FirstLevelKind::kMix64, FirstLevelKind::kKWisePoly}) {
    for (int s : sweep) {
      const auto seed = std::make_shared<const SketchSeed>(
          ParamsWithS(s, kind), 4242 + s);
      TwoLevelHashSketch sliced(seed);
      TwoLevelHashSketch batched(seed);
      TwoLevelHashSketch scalar(seed);
      std::vector<ElementDelta> items = RandomItems(2000, 11 + s);
      SplitMix64 sm(97 + s);
      for (size_t i = 0; i < items.size(); i += 50) {
        items[i].delta = static_cast<int64_t>(sm.Next());
      }
      for (const ElementDelta& u : items) {
        sliced.Update(u.element, u.delta);
        scalar.UpdateScalar(u.element, u.delta);
      }
      batched.UpdateBatch(items);
      EXPECT_EQ(sliced, scalar) << "kind=" << static_cast<int>(kind)
                                << " s=" << s;
      ExpectSameCounts(sliced, scalar, s);
      ExpectSameCounts(batched, scalar, s);
      for (int level = 0; level < scalar.levels(); ++level) {
        for (int j = 0; j < s; ++j) {
          ASSERT_EQ(static_cast<uint64_t>(scalar.Count(level, j, 0)) +
                        static_cast<uint64_t>(scalar.Count(level, j, 1)),
                    static_cast<uint64_t>(scalar.LevelTotal(level)))
              << "s=" << s << " level=" << level << " j=" << j;
        }
      }
      EXPECT_EQ(sliced.NonzeroCells(), scalar.NonzeroCells());
      EXPECT_EQ(scalar.NonzeroCells(), BruteForceNonzero(scalar))
          << "s=" << s;
    }
  }
}

TEST(BatchIngestTest, UpdateBatchMatchesSerialLoopIncludingFallback) {
  std::vector<int> sweep(std::begin(kSweepS), std::end(kSweepS));
  sweep.push_back(kFallbackS);  // s > 64: UpdateBatch takes the scalar path.
  for (int s : sweep) {
    const auto seed =
        std::make_shared<const SketchSeed>(ParamsWithS(s), 31337 + s);
    TwoLevelHashSketch batched(seed);
    TwoLevelHashSketch serial(seed);
    const std::vector<ElementDelta> items = RandomItems(3000, 23 + s);
    batched.UpdateBatch(items);
    for (const ElementDelta& u : items) serial.Update(u.element, u.delta);
    EXPECT_EQ(batched, serial) << "s=" << s;
    EXPECT_EQ(batched.NonzeroCells(), BruteForceNonzero(batched))
        << "s=" << s;
  }
}

TEST(BatchIngestTest, BankApplyBatchMatchesSerialApply) {
  const std::vector<std::string> names = {"A", "B", "C"};
  SketchBank batched(SketchFamily(ParamsWithS(16), 8, 5));
  SketchBank serial(SketchFamily(ParamsWithS(16), 8, 5));
  for (const std::string& name : names) {
    batched.AddStream(name);
    serial.AddStream(name);
  }
  // Mixed batch over 3 streams plus updates addressing an unknown id.
  SplitMix64 sm(71);
  std::vector<Update> updates;
  for (int i = 0; i < 4000; ++i) {
    updates.push_back(Update{static_cast<StreamId>(sm.Next() % 4),
                             sm.Next() % 300,
                             (sm.Next() & 1) ? int64_t{1} : int64_t{-1}});
  }
  const size_t expected_known =
      static_cast<size_t>(std::count_if(updates.begin(), updates.end(),
                                        [](const Update& u) {
                                          return u.stream < 3;
                                        }));
  EXPECT_EQ(batched.ApplyBatch(names, updates), expected_known);
  for (const Update& u : updates) {
    if (u.stream < 3) {
      serial.Apply(names[u.stream], u.element, u.delta);
    }
  }
  for (const std::string& name : names) {
    const auto& a = batched.Sketches(name);
    const auto& b = serial.Sketches(name);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << name << " copy " << i;
    }
  }
}

TEST(BatchIngestTest, GroupUpdatesPreservesOrderAndSkipsUnknown) {
  SketchBank bank(SketchFamily(ParamsWithS(8), 2, 9));
  bank.AddStream("A");
  bank.AddStream("B");
  const std::vector<Update> updates = {
      {1, 10, 1}, {0, 20, 1}, {1, 30, -1}, {2, 40, 1}, {0, 50, 2}};
  size_t applied = 0;
  const std::vector<StreamBatch> groups =
      bank.GroupUpdates({"A", "B", "missing"}, updates, &applied);
  EXPECT_EQ(applied, 4u);  // Stream id 2 resolves to an unknown name.
  ASSERT_EQ(groups.size(), 2u);
  // Groups in order of first appearance: B first, then A.
  EXPECT_EQ(groups[0].column, bank.MutableSketches("B"));
  EXPECT_EQ(groups[0].items,
            (std::vector<ElementDelta>{{10, 1}, {30, -1}}));
  EXPECT_EQ(groups[1].column, bank.MutableSketches("A"));
  EXPECT_EQ(groups[1].items,
            (std::vector<ElementDelta>{{20, 1}, {50, 2}}));
}

TEST(NonzeroCellsTest, EmptyIsO1AndTracksCancellations) {
  const auto seed = std::make_shared<const SketchSeed>(ParamsWithS(32), 3);
  TwoLevelHashSketch sketch(seed);
  EXPECT_TRUE(sketch.Empty());
  EXPECT_EQ(sketch.NonzeroCells(), 0);

  const std::vector<ElementDelta> items = RandomItems(500, 13);
  sketch.UpdateBatch(items);
  EXPECT_EQ(sketch.NonzeroCells(), BruteForceNonzero(sketch));

  // Applying the exact inverse cancels every counter: back to Empty.
  for (const ElementDelta& u : items) sketch.Update(u.element, -u.delta);
  EXPECT_EQ(sketch.NonzeroCells(), 0);
  EXPECT_TRUE(sketch.Empty());

  sketch.Update(7, 1);
  EXPECT_FALSE(sketch.Empty());
  sketch.Clear();
  EXPECT_TRUE(sketch.Empty());
  EXPECT_EQ(sketch.NonzeroCells(), 0);
}

TEST(NonzeroCellsTest, MergeTracksTransitions) {
  const auto seed = std::make_shared<const SketchSeed>(ParamsWithS(16), 21);
  TwoLevelHashSketch a(seed);
  TwoLevelHashSketch b(seed);
  const std::vector<ElementDelta> items = RandomItems(400, 17);
  a.UpdateBatch(items);
  // b = -a, so merging cancels everything.
  for (const ElementDelta& u : items) b.Update(u.element, -u.delta);
  ASSERT_TRUE(a.Merge(b));
  EXPECT_TRUE(a.Empty());
  EXPECT_EQ(a.NonzeroCells(), 0);

  // Merging disjoint content sums and stays consistent.
  TwoLevelHashSketch c(seed);
  c.Update(1001, 1);
  ASSERT_TRUE(a.Merge(c));
  EXPECT_FALSE(a.Empty());
  EXPECT_EQ(a.NonzeroCells(), BruteForceNonzero(a));
}

TEST(NonzeroCellsTest, SerializationRoundTripRestoresInvariant) {
  const auto seed = std::make_shared<const SketchSeed>(ParamsWithS(32), 37);
  TwoLevelHashSketch sketch(seed);
  sketch.UpdateBatch(RandomItems(800, 29));
  const int64_t expected = BruteForceNonzero(sketch);
  ASSERT_EQ(sketch.NonzeroCells(), expected);

  for (const bool compact : {false, true}) {
    std::string buffer;
    if (compact) {
      sketch.SerializeCompactTo(&buffer);
    } else {
      sketch.SerializeTo(&buffer);
    }
    size_t offset = 0;
    const auto decoded = TwoLevelHashSketch::Deserialize(buffer, &offset);
    ASSERT_NE(decoded, nullptr) << "compact=" << compact;
    EXPECT_EQ(offset, buffer.size());
    EXPECT_EQ(*decoded, sketch);
    EXPECT_EQ(decoded->NonzeroCells(), expected) << "compact=" << compact;
    EXPECT_FALSE(decoded->Empty());
  }

  // An empty sketch round-trips to Empty() in both encodings.
  TwoLevelHashSketch empty(seed);
  for (const bool compact : {false, true}) {
    std::string buffer;
    if (compact) {
      empty.SerializeCompactTo(&buffer);
    } else {
      empty.SerializeTo(&buffer);
    }
    size_t offset = 0;
    const auto decoded = TwoLevelHashSketch::Deserialize(buffer, &offset);
    ASSERT_NE(decoded, nullptr);
    EXPECT_TRUE(decoded->Empty()) << "compact=" << compact;
    EXPECT_EQ(decoded->NonzeroCells(), 0);
  }
}

TEST(NonzeroCellsTest, EmptyIffEveryCountIsZero) {
  // Insert a random multiset, then delete it in a shuffled order: the
  // sketch passes through many nonzero states and must end Empty().
  for (int s : {1, 16, 33, 65}) {
    const auto seed =
        std::make_shared<const SketchSeed>(ParamsWithS(s), 55 + s);
    TwoLevelHashSketch sketch(seed);
    std::vector<ElementDelta> items = RandomItems(600, 61 + s);
    std::vector<ElementDelta> inverse;
    for (const ElementDelta& u : items) {
      inverse.push_back(ElementDelta{u.element, -u.delta});
    }
    SplitMix64 sm(67 + s);
    for (size_t i = inverse.size(); i > 1; --i) {
      std::swap(inverse[i - 1], inverse[sm.Next() % i]);
    }
    items.insert(items.end(), inverse.begin(), inverse.end());
    for (size_t i = 0; i < items.size(); ++i) {
      sketch.Update(items[i].element, items[i].delta);
      if (i % 7 == 0 || i + 1 == items.size()) {
        ASSERT_EQ(sketch.Empty(), AllCountsZero(sketch))
            << "s=" << s << " after " << i + 1 << " updates";
        ASSERT_EQ(sketch.NonzeroCells(), BruteForceNonzero(sketch));
      }
    }
    EXPECT_TRUE(sketch.Empty()) << "s=" << s;
  }
}

// --- Masked-add kernels -------------------------------------------------

TEST(MaskAddTest, EveryKernelMatchesPortable) {
  const MaskAddFn portable = MaskAddFor(MaskAddKernel::kPortable);
  ASSERT_NE(portable, nullptr);
  EXPECT_NE(BestMaskAdd(), nullptr);
  constexpr int kLevels = 4;
  constexpr size_t kUpdates = 300;
  for (MaskAddKernel kernel :
       {MaskAddKernel::kPortable, MaskAddKernel::kAvx2,
        MaskAddKernel::kAvx512}) {
    const MaskAddFn fn = MaskAddFor(kernel);
    if (fn == nullptr) continue;  // Not on this CPU or build.
    for (int s : {1, 3, 4, 7, 8, 9, 16, 31, 32, 33, 63, 64}) {
      SplitMix64 sm(1000 + s);
      // Small counter values so adds often cross zero both ways.
      std::vector<uint64_t> cells(kLevels * (s + 1));
      for (uint64_t& c : cells) c = (sm.Next() % 3 == 0) ? sm.Next() % 3 : 0;
      std::vector<int> levels(kUpdates);
      std::vector<uint64_t> masks(kUpdates), deltas(kUpdates);
      const uint64_t valid = s == 64 ? ~0ULL : (1ULL << s) - 1;
      for (size_t k = 0; k < kUpdates; ++k) {
        levels[k] = static_cast<int>(sm.Next() % kLevels);
        // Bits at or above s must be ignored: half the masks carry some.
        masks[k] = (k % 2 == 0) ? sm.Next() & valid : sm.Next();
        const uint64_t pick = sm.Next() % 4;
        deltas[k] = pick == 0   ? 1
                    : pick == 1 ? ~0ULL  // -1
                    : pick == 2 ? 0
                                : sm.Next();
      }
      std::vector<uint64_t> expected = cells;
      const int64_t expected_change =
          portable(expected.data(), expected.data() + kLevels, s,
                   levels.data(), masks.data(), deltas.data(), kUpdates);
      const int64_t change = fn(cells.data(), cells.data() + kLevels, s,
                                levels.data(), masks.data(), deltas.data(),
                                kUpdates);
      EXPECT_EQ(cells, expected)
          << "kernel " << static_cast<int>(kernel) << " s=" << s;
      EXPECT_EQ(change, expected_change)
          << "kernel " << static_cast<int>(kernel) << " s=" << s;
    }
  }
}

TEST(MaskAddTest, CountersWrapModTwoToTheSixtyFour) {
  // Two INT64_MAX deltas on one element: every touched counter wraps to
  // 2 * (2^63 - 1) mod 2^64 = -2, identically on the scalar (s > 64) and
  // the SIMD (s <= 64) paths, with no signed overflow on the way.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (int s : {kFallbackS, 32}) {
    const auto seed = std::make_shared<const SketchSeed>(ParamsWithS(s), 5);
    TwoLevelHashSketch sketch(seed);
    TwoLevelHashSketch reference(seed);
    constexpr uint64_t kElement = 12345;
    for (int i = 0; i < 2; ++i) {
      sketch.Update(kElement, kMax);
      reference.UpdateScalar(kElement, kMax);
    }
    ExpectSameCounts(sketch, reference, s);
    const int level = seed->Level(kElement);
    EXPECT_EQ(sketch.LevelTotal(level), -2) << "s=" << s;
    for (int j = 0; j < s; ++j) {
      const int bit = seed->second_level(j)(kElement);
      EXPECT_EQ(sketch.Count(level, j, bit), -2) << "s=" << s << " j=" << j;
      EXPECT_EQ(sketch.Count(level, j, 1 - bit), 0) << "s=" << s;
    }
    sketch.Update(kElement, 2);
    EXPECT_TRUE(sketch.Empty()) << "s=" << s;
    EXPECT_EQ(sketch.NonzeroCells(), 0);
  }
}

}  // namespace
}  // namespace setsketch
