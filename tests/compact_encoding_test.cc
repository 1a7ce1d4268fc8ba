// Tests for varint primitives and the compact sketch wire encoding.

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/two_level_hash_sketch.h"
#include "hash/prng.h"
#include "util/varint.h"

namespace setsketch {
namespace {

// ---------------------------------------------------------------------------
// ZigZag

TEST(ZigZagTest, SmallMagnitudesStaySmall) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
  EXPECT_EQ(ZigZagEncode(2), 4u);
}

TEST(ZigZagTest, RoundTripsExtremes) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1},
                    std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(ZigZagTest, RoundTripsRandomValues) {
  Xoshiro256StarStar rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = static_cast<int64_t>(rng.Next());
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

// ---------------------------------------------------------------------------
// Varint

TEST(VarintTest, EncodesKnownValues) {
  std::string out;
  AppendVarint(&out, 0);
  EXPECT_EQ(out, std::string(1, '\0'));
  out.clear();
  AppendVarint(&out, 127);
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  AppendVarint(&out, 128);
  EXPECT_EQ(out.size(), 2u);
  out.clear();
  AppendVarint(&out, ~0ULL);
  EXPECT_EQ(out.size(), 10u);
}

TEST(VarintTest, RoundTripsRandomValues) {
  Xoshiro256StarStar rng(7);
  std::string buffer;
  std::vector<uint64_t> values;
  for (int i = 0; i < 500; ++i) {
    // Mix magnitudes: shift a random value by a random amount.
    const uint64_t v = rng.Next() >> rng.NextBelow(64);
    values.push_back(v);
    AppendVarint(&buffer, v);
  }
  size_t offset = 0;
  for (uint64_t expected : values) {
    uint64_t got = 0;
    ASSERT_TRUE(ReadVarint(buffer, &offset, &got));
    EXPECT_EQ(got, expected);
  }
  EXPECT_EQ(offset, buffer.size());
}

TEST(VarintTest, RejectsTruncation) {
  std::string buffer;
  AppendVarint(&buffer, 1ULL << 40);
  buffer.resize(buffer.size() - 1);
  size_t offset = 0;
  uint64_t value = 0;
  EXPECT_FALSE(ReadVarint(buffer, &offset, &value));
}

TEST(VarintTest, RejectsOverlongEncoding) {
  // 11 continuation bytes can't be a valid u64.
  const std::string buffer(11, '\x80');
  size_t offset = 0;
  uint64_t value = 0;
  EXPECT_FALSE(ReadVarint(buffer, &offset, &value));
}

// ---------------------------------------------------------------------------
// Compact sketch encoding

class CompactEncodingTest : public ::testing::Test {
 protected:
  static TwoLevelHashSketch MakeSketch(int elements, uint64_t seed) {
    SketchParams params;
    params.levels = 32;
    params.num_second_level = 32;
    TwoLevelHashSketch sketch(
        std::make_shared<const SketchSeed>(params, seed));
    for (int e = 0; e < elements; ++e) {
      sketch.Update(static_cast<uint64_t>(e) * 2654435761ULL, 1 + e % 3);
    }
    return sketch;
  }
};

TEST_F(CompactEncodingTest, RoundTripsExactly) {
  const TwoLevelHashSketch sketch = MakeSketch(5000, 11);
  std::string bytes;
  sketch.SerializeCompactTo(&bytes);
  size_t offset = 0;
  const auto decoded = TwoLevelHashSketch::Deserialize(bytes, &offset);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(offset, bytes.size());
  EXPECT_TRUE(*decoded == sketch);
}

TEST_F(CompactEncodingTest, EmptySketchIsTiny) {
  const TwoLevelHashSketch sketch = MakeSketch(0, 13);
  std::string compact;
  sketch.SerializeCompactTo(&compact);
  // Header + a single zero-run token pair.
  EXPECT_LT(compact.size(), 40u);
  size_t offset = 0;
  const auto decoded = TwoLevelHashSketch::Deserialize(compact, &offset);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(decoded->Empty());
}

TEST_F(CompactEncodingTest, MuchSmallerThanFixedWidth) {
  const TwoLevelHashSketch sketch = MakeSketch(5000, 17);
  std::string fixed, compact;
  sketch.SerializeTo(&fixed);
  sketch.SerializeCompactTo(&compact);
  EXPECT_LT(compact.size() * 3, fixed.size())
      << "compact " << compact.size() << " vs fixed " << fixed.size();
}

TEST_F(CompactEncodingTest, HandlesNegativeCounters) {
  // Out-of-order delete-then-insert leaves transient negative cells only
  // mid-stream, but a plain negative net is also representable (callers
  // may merge partial sketches). Force one.
  SketchParams params;
  params.levels = 16;
  params.num_second_level = 8;
  TwoLevelHashSketch sketch(
      std::make_shared<const SketchSeed>(params, 19));
  sketch.Update(42, -5);
  std::string bytes;
  sketch.SerializeCompactTo(&bytes);
  size_t offset = 0;
  const auto decoded = TwoLevelHashSketch::Deserialize(bytes, &offset);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(*decoded == sketch);
}

TEST_F(CompactEncodingTest, BothEncodingsInterleaveInOneBuffer) {
  const TwoLevelHashSketch a = MakeSketch(100, 21);
  const TwoLevelHashSketch b = MakeSketch(200, 21);
  std::string bytes;
  a.SerializeTo(&bytes);
  b.SerializeCompactTo(&bytes);
  a.SerializeCompactTo(&bytes);
  size_t offset = 0;
  const auto da = TwoLevelHashSketch::Deserialize(bytes, &offset);
  const auto db = TwoLevelHashSketch::Deserialize(bytes, &offset);
  const auto da2 = TwoLevelHashSketch::Deserialize(bytes, &offset);
  ASSERT_TRUE(da && db && da2);
  EXPECT_EQ(offset, bytes.size());
  EXPECT_TRUE(*da == a);
  EXPECT_TRUE(*db == b);
  EXPECT_TRUE(*da2 == a);
}

TEST_F(CompactEncodingTest, RejectsCorruptRunLengths) {
  const TwoLevelHashSketch sketch = MakeSketch(50, 23);
  std::string bytes;
  sketch.SerializeCompactTo(&bytes);
  // Truncations at every prefix must fail cleanly, never crash.
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    std::string truncated = bytes.substr(0, cut);
    size_t offset = 0;
    EXPECT_EQ(TwoLevelHashSketch::Deserialize(truncated, &offset), nullptr);
  }
}

/// Compact token stream of the logical cells `cells` behind `header`,
/// written with the encoder's rules (maximal zero runs, zigzag values).
std::string EncodeCompactCells(const std::string& header,
                               const std::vector<int64_t>& cells) {
  std::string out = header;
  size_t i = 0;
  while (i < cells.size()) {
    if (cells[i] == 0) {
      size_t run = 1;
      while (i + run < cells.size() && cells[i + run] == 0) ++run;
      AppendVarint(&out, 0);
      AppendVarint(&out, run);
      i += run;
    } else {
      AppendVarint(&out, ZigZagEncode(cells[i]));
      ++i;
    }
  }
  return out;
}

TEST_F(CompactEncodingTest, RefusesPairsThatMissTheirLevelTotal) {
  const TwoLevelHashSketch sketch = MakeSketch(300, 33);
  std::string fixed, compact;
  sketch.SerializeTo(&fixed);
  sketch.SerializeCompactTo(&compact);
  const size_t num_cells = 2 * 32 * 32;
  const size_t header_bytes = fixed.size() - num_cells * sizeof(int64_t);
  std::vector<int64_t> cells(num_cells);
  std::memcpy(cells.data(), fixed.data() + header_bytes,
              num_cells * sizeof(int64_t));
  const std::string header = compact.substr(0, header_bytes);
  ASSERT_EQ(EncodeCompactCells(header, cells), compact);
  // Any single logical cell off by one — a nonzero cell or a zero cell
  // inside a run — leaves its pair summing to something else than the
  // level total, and the encoding is refused.
  for (size_t cell = 0; cell < num_cells; cell += 5) {
    std::vector<int64_t> tampered = cells;
    ++tampered[cell];
    const std::string bytes = EncodeCompactCells(header, tampered);
    size_t offset = 0;
    EXPECT_EQ(TwoLevelHashSketch::Deserialize(bytes, &offset), nullptr)
        << "cell " << cell;
  }
}

TEST_F(CompactEncodingTest, FuzzRandomCorruption) {
  const TwoLevelHashSketch sketch = MakeSketch(500, 29);
  std::string bytes;
  sketch.SerializeCompactTo(&bytes);
  Xoshiro256StarStar rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = bytes;
    const size_t index = rng.NextBelow(corrupted.size());
    corrupted[index] = static_cast<char>(rng.Next());
    size_t offset = 0;
    // Must either fail cleanly or produce *some* sketch (flips can be
    // semantically valid); the requirement is no crash/overrun.
    const auto decoded = TwoLevelHashSketch::Deserialize(corrupted, &offset);
    if (decoded) {
      EXPECT_LE(offset, corrupted.size());
    }
  }
}

}  // namespace
}  // namespace setsketch
