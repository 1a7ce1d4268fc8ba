// The counter write of the 2-level hash sketch's update kernel.
//
// A TwoLevelHashSketch stores, per first-level bucket, the level total
// T[l] and the s "ones" counters X[l, j, 1] (the j-th pair's other cell
// is T[l] - X[l, j, 1]). Applying one hashed update <level, mask, delta>
// is therefore T[level] += delta plus a masked add of delta into the
// level's ones row, with bit j of the second-level mask selecting lane j.
// All arithmetic is on uint64_t, i.e. mod 2^64: counters wrap by
// definition instead of reaching signed-overflow UB, and the signed view
// callers read back is the two's-complement one.
//
// Three kernels implement the masked add, picked at run time:
// AVX-512F (`_mm512_mask_add_epi64` takes 8 mask bits directly as its
// lane mask), AVX2 (expands 4 mask bits at a time into lane masks), and
// a portable loop. They are bit-identical, including the change in the
// number of nonzero stored cells they report (the count behind the
// sketch's O(1) Empty()).

#ifndef SETSKETCH_CORE_MASK_ADD_H_
#define SETSKETCH_CORE_MASK_ADD_H_

#include <cstddef>
#include <cstdint>

namespace setsketch {

/// Adds `delta` to `*cell` (mod 2^64) and returns the change in the
/// number of nonzero cells: +1 on a 0 -> nonzero step, -1 on a
/// nonzero -> 0 step, 0 otherwise.
inline int64_t AddCounted(uint64_t* cell, uint64_t delta) {
  const uint64_t before = *cell;
  const uint64_t after = before + delta;
  *cell = after;
  return static_cast<int64_t>(before == 0) - static_cast<int64_t>(after == 0);
}

/// Applies `n` hashed updates to one sketch's stored counters: for update
/// k, totals[levels[k]] += deltas[k], and ones[levels[k] * s + j] +=
/// deltas[k] for every set bit j < s of masks[k] (s <= 64). Returns the
/// change in the number of nonzero cells among totals and ones.
using MaskAddFn = int64_t (*)(uint64_t* totals, uint64_t* ones, int s,
                              const int* levels, const uint64_t* masks,
                              const uint64_t* deltas, size_t n);

enum class MaskAddKernel { kPortable, kAvx2, kAvx512 };

/// The kernel's entry point, or nullptr when this build or this CPU
/// cannot run it (kPortable is always available).
MaskAddFn MaskAddFor(MaskAddKernel kernel);

/// The fastest kernel this CPU runs — AVX-512F, else AVX2, else
/// portable — resolved on first use.
MaskAddFn BestMaskAdd();

}  // namespace setsketch

#endif  // SETSKETCH_CORE_MASK_ADD_H_
