#include "core/two_level_hash_sketch.h"

#include <algorithm>
#include <cstring>

#include "core/mask_add.h"
#include "util/check.h"
#include "util/varint.h"

namespace setsketch {

namespace {

constexpr uint32_t kMagic = 0x534B3231;         // "SK21": fixed-width.
constexpr uint32_t kMagicCompact = 0x534B3243;  // "SK2C": varint + RLE.

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(const std::string& data, size_t* offset, T* value) {
  if (data.size() - *offset < sizeof(T)) return false;
  std::memcpy(value, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

}  // namespace

TwoLevelHashSketch::TwoLevelHashSketch(std::shared_ptr<const SketchSeed> seed)
    : seed_(std::move(seed)),
      num_levels_(seed_->params().levels),
      num_second_level_(seed_->params().num_second_level),
      slice_(seed_->slice()),
      cells_(static_cast<size_t>(num_levels_) *
                 (static_cast<size_t>(num_second_level_) + 1),
             0) {}

void TwoLevelHashSketch::Update(uint64_t element, int64_t delta) {
  if (slice_ == nullptr) {  // s > 64: per-function evaluation.
    UpdateScalar(element, delta);
    return;
  }
  const int level = seed_->Level(element);
  const uint64_t mask = slice_->Bits(element);
  const uint64_t add = static_cast<uint64_t>(delta);
  nonzero_cells_ +=
      BestMaskAdd()(cells_.data(), cells_.data() + OnesOffset(0),
                    num_second_level_, &level, &mask, &add, 1);
}

void TwoLevelHashSketch::UpdateScalar(uint64_t element, int64_t delta) {
  const int level = seed_->Level(element);
  const uint64_t add = static_cast<uint64_t>(delta);
  int64_t change = AddCounted(&cells_[level], add);
  uint64_t* row = cells_.data() + OnesOffset(level);
  for (int j = 0; j < num_second_level_; ++j) {
    // Branch-free select: the bits are coin flips, a branch would miss
    // half the time.
    const uint64_t select = 0 - static_cast<uint64_t>(
                                    seed_->second_level(j)(element));
    change += AddCounted(&row[j], add & select);
  }
  nonzero_cells_ += change;
}

void TwoLevelHashSketch::UpdateBatch(std::span<const ElementDelta> batch) {
  if (slice_ == nullptr) {
    for (const ElementDelta& u : batch) UpdateScalar(u.element, u.delta);
    return;
  }
  // Hash a block ahead of the counter writes: the (level, mask) loop is
  // pure computation, the masked adds are mostly memory traffic, and
  // splitting them keeps both pipelines full.
  constexpr size_t kBlock = 64;
  int level[kBlock];
  uint64_t mask[kBlock];
  uint64_t add[kBlock];
  const SketchSeed& seed = *seed_;
  const MaskAddFn kernel = BestMaskAdd();
  uint64_t* ones = cells_.data() + OnesOffset(0);
  for (size_t i = 0; i < batch.size(); i += kBlock) {
    const size_t n = std::min(kBlock, batch.size() - i);
    for (size_t k = 0; k < n; ++k) {
      level[k] = seed.Level(batch[i + k].element);
      mask[k] = slice_->Bits(batch[i + k].element);
      add[k] = static_cast<uint64_t>(batch[i + k].delta);
    }
    nonzero_cells_ += kernel(cells_.data(), ones, num_second_level_, level,
                             mask, add, n);
  }
}

bool TwoLevelHashSketch::Merge(const TwoLevelHashSketch& other) {
  if (!(*seed_ == *other.seed_)) return false;
  // Equal seeds imply equal params, hence equal counter shapes; anything
  // else means a sketch was corrupted after construction.
  SETSKETCH_CHECK(cells_.size() == other.cells_.size())
      << "seed-compatible sketches with mismatched counter arrays:"
      << cells_.size() << "vs" << other.cells_.size();
  // Totals and ones rows are both linear in the stream: cellwise sums.
  for (size_t i = 0; i < cells_.size(); ++i) {
    nonzero_cells_ += AddCounted(&cells_[i], other.cells_[i]);
  }
  SETSKETCH_DCHECK(nonzero_cells_ == RecountNonzeroCells())
      << "nonzero-cell count diverged from counters after Merge";
  return true;
}

void TwoLevelHashSketch::Clear() {
  std::fill(cells_.begin(), cells_.end(), 0);
  nonzero_cells_ = 0;
}

namespace {

/// Encoded size of AppendHeader's fields.
constexpr size_t kHeaderBytes = sizeof(uint32_t) + 3 * sizeof(int32_t) +
                                sizeof(uint8_t) + sizeof(uint64_t);

void AppendHeader(std::string* out, uint32_t magic, const SketchParams& p,
                  uint64_t seed_value) {
  AppendPod(out, magic);
  AppendPod(out, static_cast<int32_t>(p.levels));
  AppendPod(out, static_cast<int32_t>(p.num_second_level));
  AppendPod(out, static_cast<uint8_t>(p.first_level_kind));
  AppendPod(out, static_cast<int32_t>(p.independence));
  AppendPod(out, seed_value);
}

/// Folds logical cells, read in encoding order X[l, 0, 0], X[l, 0, 1],
/// X[l, 1, 0], ..., back into the stored layout: the first pair of a
/// level sets its total, every pair stores its bit-1 cell, and a pair
/// whose cells do not sum to the level total is refused.
class CellFolder {
 public:
  CellFolder(uint64_t* totals, uint64_t* ones, int s)
      : total_(totals), one_(ones), s_(s) {}

  /// False iff `cell` completes a pair that contradicts its level total.
  bool Put(uint64_t cell) {
    if (!have_bit0_) {
      bit0_ = cell;
      have_bit0_ = true;
      return true;
    }
    have_bit0_ = false;
    const uint64_t sum = bit0_ + cell;
    if (j_ == 0) {
      *total_ = sum;
    } else if (sum != *total_) {
      return false;
    }
    *one_++ = cell;
    if (++j_ == s_) {
      j_ = 0;
      ++total_;
    }
    return true;
  }

 private:
  uint64_t* total_;
  uint64_t* one_;
  const int s_;
  int j_ = 0;
  bool have_bit0_ = false;
  uint64_t bit0_ = 0;
};

}  // namespace

void TwoLevelHashSketch::SerializeTo(std::string* out) const {
  // Exact output size up front: every PUSH_SUMMARY otherwise grows the
  // buffer through repeated reallocation.
  const size_t logical_cells =
      2 * static_cast<size_t>(num_levels_) *
      static_cast<size_t>(num_second_level_);
  out->reserve(out->size() + kHeaderBytes + logical_cells * sizeof(int64_t));
  AppendHeader(out, kMagic, seed_->params(), seed_->seed_value());
  // Every logical cell, row by row: a plain dump keeps the decoder
  // trivial and the encoding O(levels * s).
  const uint64_t* one = cells_.data() + OnesOffset(0);
  for (int level = 0; level < num_levels_; ++level) {
    const uint64_t total = cells_[level];
    for (int j = 0; j < num_second_level_; ++j, ++one) {
      AppendPod(out, static_cast<int64_t>(total - *one));
      AppendPod(out, static_cast<int64_t>(*one));
    }
  }
}

void TwoLevelHashSketch::SerializeCompactTo(std::string* out) const {
  // Upper bound on the token stream: <= 10 varint bytes per nonzero
  // logical cell and <= nonzero + 1 zero runs of <= 11 bytes (token + run
  // length). A nonzero ones cell makes at most two logical cells nonzero;
  // a nonzero total at most s (one per pair, when its ones are zero).
  size_t nonzero_totals = 0;
  for (int level = 0; level < num_levels_; ++level) {
    nonzero_totals += static_cast<size_t>(cells_[level] != 0);
  }
  const size_t nonzero =
      2 * (static_cast<size_t>(nonzero_cells_) - nonzero_totals) +
      static_cast<size_t>(num_second_level_) * nonzero_totals;
  out->reserve(out->size() + kHeaderBytes + 10 * nonzero +
               11 * (nonzero + 1));
  AppendHeader(out, kMagicCompact, seed_->params(), seed_->seed_value());
  // Token stream over the logical cells: a zero token is followed by a
  // run length; any nonzero token is zigzag(counter), which is nonzero
  // for every nonzero counter, so the two cases disambiguate. Runs are
  // maximal, so they may span pairs and levels.
  uint64_t zero_run = 0;
  const auto end_run = [&] {
    if (zero_run == 0) return;
    AppendVarint(out, 0);
    AppendVarint(out, zero_run);
    zero_run = 0;
  };
  const auto emit = [&](uint64_t cell) {
    if (cell == 0) {
      ++zero_run;
      return;
    }
    end_run();
    AppendVarint(out, ZigZagEncode(static_cast<int64_t>(cell)));
  };
  const uint64_t* one = cells_.data() + OnesOffset(0);
  for (int level = 0; level < num_levels_; ++level) {
    const uint64_t total = cells_[level];
    for (int j = 0; j < num_second_level_; ++j, ++one) {
      emit(total - *one);
      emit(*one);
    }
  }
  end_run();
}

std::unique_ptr<TwoLevelHashSketch> TwoLevelHashSketch::Deserialize(
    const std::string& data, size_t* offset) {
  uint32_t magic = 0;
  if (!ReadPod(data, offset, &magic) ||
      (magic != kMagic && magic != kMagicCompact)) {
    return nullptr;
  }
  int32_t levels = 0, s = 0, independence = 0;
  uint8_t kind = 0;
  uint64_t seed_value = 0;
  if (!ReadPod(data, offset, &levels) || !ReadPod(data, offset, &s) ||
      !ReadPod(data, offset, &kind) ||
      !ReadPod(data, offset, &independence) ||
      !ReadPod(data, offset, &seed_value)) {
    return nullptr;
  }
  SketchParams params;
  params.levels = levels;
  params.num_second_level = s;
  params.first_level_kind = static_cast<FirstLevelKind>(kind);
  params.independence = independence;
  if (!params.Valid()) return nullptr;
  if (params.first_level_kind != FirstLevelKind::kMix64 &&
      params.first_level_kind != FirstLevelKind::kKWisePoly) {
    return nullptr;
  }
  auto sketch = std::make_unique<TwoLevelHashSketch>(
      std::make_shared<const SketchSeed>(params, seed_value));
  CellFolder folder(sketch->cells_.data(),
                    sketch->cells_.data() + sketch->OnesOffset(0), s);
  const size_t n = 2 * static_cast<size_t>(levels) * static_cast<size_t>(s);
  if (magic == kMagic) {
    for (size_t i = 0; i < n; ++i) {
      int64_t cell = 0;
      if (!ReadPod(data, offset, &cell)) return nullptr;
      if (!folder.Put(static_cast<uint64_t>(cell))) return nullptr;
    }
  } else {
    // Compact decoding: zigzag varints with zero-run-length tokens.
    size_t i = 0;
    while (i < n) {
      uint64_t token = 0;
      if (!ReadVarint(data, offset, &token)) return nullptr;
      if (token == 0) {
        uint64_t run = 0;
        if (!ReadVarint(data, offset, &run)) return nullptr;
        if (run == 0 || run > n - i) return nullptr;  // Corrupt run.
        for (uint64_t k = 0; k < run; ++k) {
          if (!folder.Put(0)) return nullptr;
        }
        i += run;
      } else {
        if (!folder.Put(static_cast<uint64_t>(ZigZagDecode(token)))) {
          return nullptr;
        }
        ++i;
      }
    }
  }
  sketch->nonzero_cells_ = sketch->RecountNonzeroCells();
  return sketch;
}

int64_t TwoLevelHashSketch::RecountNonzeroCells() const {
  int64_t nonzero = 0;
  for (const uint64_t c : cells_) nonzero += static_cast<int64_t>(c != 0);
  return nonzero;
}

bool operator==(const TwoLevelHashSketch& a, const TwoLevelHashSketch& b) {
  // The stored cells determine the logical ones (and vice versa).
  return *a.seed_ == *b.seed_ && a.cells_ == b.cells_;
}

}  // namespace setsketch
