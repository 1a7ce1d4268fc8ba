// The 2-level hash sketch synopsis of Section 3.1.
//
// Conceptually a Theta(log M) x s x 2 array of element counters: an incoming
// element e is routed to first-level bucket LSB(h(e)) and, within that
// bucket, each second-level function g_j routes it to one of two counters.
// An update <e, +/-v> adds +/-v to all s selected counters, which makes the
// synopsis *linear* in the stream: the sketch at the end of an update stream
// is identical to the sketch of the stream's net multiset — deletions leave
// no trace (the paper's key robustness property), and sketches of disjoint
// stream fragments combine by plain counter addition (used by the
// distributed model).
//
// Stored layout. The two cells of every pair sum to the level total,
// X[l, j, 0] + X[l, j, 1] = T[l], so only half of them are stored: one
// allocation holds the `levels` totals T[l], then a levels x s "ones"
// array with row l holding X[l, j, 1]. X[l, j, 0] is derived as
// T[l] - X[l, j, 1]. An update is T[level] += v plus a masked add of v
// into the level's ones row (core/mask_add.h). Counters are uint64_t
// words, added mod 2^64; Count() reads them as two's-complement int64.
// The encodings still carry every logical cell, so their bytes do not
// depend on this layout.

#ifndef SETSKETCH_CORE_TWO_LEVEL_HASH_SKETCH_H_
#define SETSKETCH_CORE_TWO_LEVEL_HASH_SKETCH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/sketch_seed.h"
#include "stream/update.h"
#include "util/aligned_alloc.h"

namespace setsketch {

/// One 2-level hash sketch over one update stream.
class TwoLevelHashSketch {
 public:
  /// Creates an empty sketch drawing its hash functions from `seed`.
  explicit TwoLevelHashSketch(std::shared_ptr<const SketchSeed> seed);

  /// Processes one update <e, +/-v>: O(s) counter additions. The s
  /// second-level bits come from the seed's bit-sliced transpose (one
  /// XOR-fold, no popcounts) when s <= 64, from the per-function scalar
  /// path otherwise — bit-identical either way.
  void Update(uint64_t element, int64_t delta);

  /// Reference implementation of Update that always evaluates the s
  /// second-level functions one popcount at a time. Kept public so the
  /// equivalence tests and kernel benches can pin the sliced path against
  /// it; production callers should use Update.
  void UpdateScalar(uint64_t element, int64_t delta);

  /// Applies a run of updates addressed to this sketch's stream. Same
  /// result as calling Update per item; amortizes the per-call setup and
  /// separates hashing from counter scatter for better pipelining.
  void UpdateBatch(std::span<const ElementDelta> batch);

  /// Applies the element/delta part of `u` (the stream id is the caller's
  /// concern — a sketch summarizes exactly one stream).
  void Apply(const setsketch::Update& u) { Update(u.element, u.delta); }

  /// Counter X[level, j, bit] (the paper's X[i1, i2, i3]).
  int64_t Count(int level, int j, int bit) const {
    const uint64_t one = OnesRow(level)[static_cast<size_t>(j)];
    return static_cast<int64_t>(bit != 0 ? one : cells_[level] - one);
  }

  /// Total element count (sum of net frequencies) mapped to `level`.
  /// Equals Count(level, j, 0) + Count(level, j, 1) for every j (mod 2^64).
  int64_t LevelTotal(int level) const {
    return static_cast<int64_t>(cells_[level]);
  }

  /// The stored ones row of `level`: row[j] is Count(level, j, 1) as a
  /// two's-complement word, and Count(level, j, 0) is LevelTotal(level) -
  /// row[j] mod 2^64. Lets per-bucket readers scan a level without
  /// deriving the other cell of each pair.
  std::span<const uint64_t> OnesRow(int level) const {
    return {cells_.data() + OnesOffset(level),
            static_cast<size_t>(num_second_level_)};
  }

  /// True iff no element with nonzero net frequency maps to `level`.
  bool LevelEmpty(int level) const { return LevelTotal(level) == 0; }

  /// Adds `other`'s counters into this sketch. Both sketches must share the
  /// same SketchSeed; the result is the sketch of the concatenated streams.
  /// Returns false (and changes nothing) on seed/shape mismatch.
  bool Merge(const TwoLevelHashSketch& other);

  /// Resets all counters to zero.
  void Clear();

  /// True iff every counter is zero. O(1): Update/Merge/Clear/Deserialize
  /// maintain the nonzero-cell count (the coordinator and property checks
  /// call this per query). All stored cells are zero exactly when all
  /// logical cells are.
  bool Empty() const { return nonzero_cells_ == 0; }

  /// Number of *stored* cells currently nonzero — level totals plus ones
  /// counters (the invariant behind Empty(); exposed for tests).
  int64_t NonzeroCells() const { return nonzero_cells_; }

  const SketchSeed& seed() const { return *seed_; }
  const std::shared_ptr<const SketchSeed>& shared_seed() const {
    return seed_;
  }
  int levels() const { return seed_->params().levels; }
  int num_second_level() const { return seed_->params().num_second_level; }

  /// Size of the stored counters in bytes (the synopsis' dominant cost):
  /// levels * (s + 1) words.
  size_t CounterBytes() const { return cells_.size() * sizeof(uint64_t); }

  /// Appends a portable binary encoding (params, seed value, counters) to
  /// `*out`. The encoding is self-delimiting. Fixed-width counters:
  /// simple, O(levels * s) bytes.
  void SerializeTo(std::string* out) const;

  /// Appends the compact wire encoding: zigzag varint counters with
  /// zero-run-length. Counter arrays are mostly zeros/small values, so
  /// this is typically 5-20x smaller than SerializeTo — what the
  /// distributed model ships between sites and coordinator.
  void SerializeCompactTo(std::string* out) const;

  /// Decodes a sketch previously written by SerializeTo or
  /// SerializeCompactTo starting at (*data)[*offset]; advances *offset
  /// past it. Returns nullptr on a malformed or truncated encoding, and
  /// on counters no stream can produce: a level whose pairs do not all
  /// sum to the same total (mod 2^64).
  static std::unique_ptr<TwoLevelHashSketch> Deserialize(
      const std::string& data, size_t* offset);

  /// Two sketches are equal iff they share seed identity and all counters.
  friend bool operator==(const TwoLevelHashSketch& a,
                         const TwoLevelHashSketch& b);

 private:
  /// Index in cells_ of the ones row of `level`.
  size_t OnesOffset(int level) const {
    return static_cast<size_t>(num_levels_) +
           static_cast<size_t>(level) * static_cast<size_t>(num_second_level_);
  }

  /// O(cells) ground-truth recount of nonzero stored cells — the
  /// invariant behind Empty(); sets nonzero_cells_ after a decode and is
  /// compared against it by debug checks after Merge.
  int64_t RecountNonzeroCells() const;

  std::shared_ptr<const SketchSeed> seed_;
  int num_levels_;
  int num_second_level_;
  /// Cached seed_->slice(); nullptr iff s > 64 (scalar fallback).
  const SecondLevelSlice* slice_;
  /// The level totals T[0..levels), then the ones rows. Cache-line
  /// aligned: the server's shard workers partition adjacent sketch
  /// copies, and alignment keeps the copy-range split from false sharing
  /// a line across workers (util/aligned_alloc.h).
  std::vector<uint64_t, AlignedAllocator<uint64_t>> cells_;
  int64_t nonzero_cells_ = 0;
};

}  // namespace setsketch

#endif  // SETSKETCH_CORE_TWO_LEVEL_HASH_SKETCH_H_
