#include "core/mask_add.h"

#include <bit>

#if defined(__x86_64__) && defined(__GNUC__)
#define SETSKETCH_MASK_ADD_X86 1
#include <immintrin.h>
#endif

namespace setsketch {

namespace {

/// Portable masked add into one ones row: visits only the selected
/// lanes, one set bit of the mask at a time.
int64_t MaskAddRowPortable(uint64_t* row, uint64_t mask, uint64_t delta,
                           int s) {
  if (s < 64) mask &= (uint64_t{1} << s) - 1;
  int64_t change = 0;
  for (; mask != 0; mask &= mask - 1) {
    change += AddCounted(&row[std::countr_zero(mask)], delta);
  }
  return change;
}

int64_t MaskAddPortable(uint64_t* totals, uint64_t* ones, int s,
                        const int* levels, const uint64_t* masks,
                        const uint64_t* deltas, size_t n) {
  int64_t change = 0;
  for (size_t k = 0; k < n; ++k) {
    change += AddCounted(&totals[levels[k]], deltas[k]);
    change += MaskAddRowPortable(
        ones + static_cast<size_t>(levels[k]) * static_cast<size_t>(s),
        masks[k], deltas[k], s);
  }
  return change;
}

#ifdef SETSKETCH_MASK_ADD_X86
// The SIMD rows find zero transitions from two bitmaps: lanes zero
// before and lanes zero after the add. An unselected lane is in both or
// in neither, so popcount(before) - popcount(after) is exactly the
// change in the nonzero count, with no branch on the common no-change
// case.

/// AVX2: four lanes per step; the lane mask is the broadcast update mask
/// ANDed with per-lane bits (1, 2, 4, 8) << j and compared back to them.
__attribute__((target("avx2,popcnt"))) inline int64_t MaskAddRowAvx2(
    uint64_t* row, uint64_t mask, uint64_t delta, int s) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i add = _mm256_set1_epi64x(static_cast<long long>(delta));
  const __m256i bits = _mm256_set1_epi64x(static_cast<long long>(mask));
  __m256i lane_bit = _mm256_setr_epi64x(1, 2, 4, 8);
  uint64_t zero_before = 0;
  uint64_t zero_after = 0;
  int j = 0;
  for (; j + 4 <= s; j += 4) {
    const __m256i pick =
        _mm256_cmpeq_epi64(_mm256_and_si256(bits, lane_bit), lane_bit);
    __m256i* lanes = reinterpret_cast<__m256i*>(row + j);
    const __m256i before = _mm256_loadu_si256(lanes);
    const __m256i after =
        _mm256_add_epi64(before, _mm256_and_si256(pick, add));
    _mm256_storeu_si256(lanes, after);
    zero_before |= static_cast<uint64_t>(_mm256_movemask_pd(
                       _mm256_castsi256_pd(_mm256_cmpeq_epi64(before, zero))))
                   << j;
    zero_after |= static_cast<uint64_t>(_mm256_movemask_pd(
                      _mm256_castsi256_pd(_mm256_cmpeq_epi64(after, zero))))
                  << j;
    lane_bit = _mm256_slli_epi64(lane_bit, 4);
  }
  int64_t change = std::popcount(zero_before) - std::popcount(zero_after);
  if (j < s) change += MaskAddRowPortable(row + j, mask >> j, delta, s - j);
  return change;
}

__attribute__((target("avx2,popcnt"))) int64_t MaskAddAvx2(
    uint64_t* totals, uint64_t* ones, int s, const int* levels,
    const uint64_t* masks, const uint64_t* deltas, size_t n) {
  int64_t change = 0;
  for (size_t k = 0; k < n; ++k) {
    change += AddCounted(&totals[levels[k]], deltas[k]);
    change += MaskAddRowAvx2(
        ones + static_cast<size_t>(levels[k]) * static_cast<size_t>(s),
        masks[k], deltas[k], s);
  }
  return change;
}

/// AVX-512F: eight lanes per step, the update mask's next 8 bits used
/// directly as the add's lane mask; a last partial step loads and stores
/// only the lanes below s.
__attribute__((target("avx512f,popcnt"))) inline int64_t MaskAddRowAvx512(
    uint64_t* row, uint64_t mask, uint64_t delta, int s) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i add = _mm512_set1_epi64(static_cast<long long>(delta));
  uint64_t zero_before = 0;
  uint64_t zero_after = 0;
  int j = 0;
  for (; j + 8 <= s; j += 8) {
    const __m512i before = _mm512_loadu_si512(row + j);
    const __m512i after = _mm512_mask_add_epi64(
        before, static_cast<__mmask8>(mask >> j), before, add);
    _mm512_storeu_si512(row + j, after);
    zero_before |=
        static_cast<uint64_t>(_mm512_cmpeq_epi64_mask(before, zero)) << j;
    zero_after |=
        static_cast<uint64_t>(_mm512_cmpeq_epi64_mask(after, zero)) << j;
  }
  if (j < s) {
    const __mmask8 lanes = static_cast<__mmask8>(0xFFu >> (8 - (s - j)));
    const __m512i before = _mm512_maskz_loadu_epi64(lanes, row + j);
    const __m512i after = _mm512_mask_add_epi64(
        before, static_cast<__mmask8>(mask >> j) & lanes, before, add);
    _mm512_mask_storeu_epi64(row + j, lanes, after);
    zero_before |=
        static_cast<uint64_t>(_mm512_cmpeq_epi64_mask(before, zero)) << j;
    zero_after |=
        static_cast<uint64_t>(_mm512_cmpeq_epi64_mask(after, zero)) << j;
  }
  return std::popcount(zero_before) - std::popcount(zero_after);
}

__attribute__((target("avx512f,popcnt"))) int64_t MaskAddAvx512(
    uint64_t* totals, uint64_t* ones, int s, const int* levels,
    const uint64_t* masks, const uint64_t* deltas, size_t n) {
  int64_t change = 0;
  for (size_t k = 0; k < n; ++k) {
    change += AddCounted(&totals[levels[k]], deltas[k]);
    change += MaskAddRowAvx512(
        ones + static_cast<size_t>(levels[k]) * static_cast<size_t>(s),
        masks[k], deltas[k], s);
  }
  return change;
}
#endif  // SETSKETCH_MASK_ADD_X86

}  // namespace

MaskAddFn MaskAddFor(MaskAddKernel kernel) {
  switch (kernel) {
    case MaskAddKernel::kPortable:
      return MaskAddPortable;
#ifdef SETSKETCH_MASK_ADD_X86
    case MaskAddKernel::kAvx2:
      return __builtin_cpu_supports("avx2") ? MaskAddAvx2 : nullptr;
    case MaskAddKernel::kAvx512:
      return __builtin_cpu_supports("avx512f") ? MaskAddAvx512 : nullptr;
#else
    case MaskAddKernel::kAvx2:
    case MaskAddKernel::kAvx512:
      return nullptr;
#endif
  }
  return nullptr;
}

MaskAddFn BestMaskAdd() {
  static const MaskAddFn best = [] {
    if (const MaskAddFn fn = MaskAddFor(MaskAddKernel::kAvx512)) return fn;
    if (const MaskAddFn fn = MaskAddFor(MaskAddKernel::kAvx2)) return fn;
    return MaskAddFor(MaskAddKernel::kPortable);
  }();
  return best;
}

}  // namespace setsketch
