// The shared estimator kernel (the single scan engine behind every
// estimator in core/).
//
// All of the paper's estimators consume the same two facts about the
// *union* of the participating streams, per sketch copy and first-level
// bucket:
//   * occupancy   — is the union bucket non-empty?   (stage 1, Figure 5)
//   * singleton   — is the union bucket a singleton?  (stage 2, Figures
//                   6/7 and Section 4's witness sampling)
// GroupUnionView answers those two probes; KernelEstimateUnion and
// KernelCountWitnesses implement the scan loops (threshold scan /
// all-levels MLE, and strict / pooled witness counting) exactly once. The
// per-operation estimators — union, MLE union, difference, intersection,
// Jaccard, inclusion-exclusion and general expressions — are thin
// strategies that validate their inputs, build the view, and supply a witness
// predicate.
//
// The view probes aligned SketchGroups lazily, with nothing
// materialized. Direct estimation and the plan cache (query/plan_cache.h)
// both run it straight over a bank's live sketches: a probe reads only
// the streams' bucket state, so there is no merged union worth building
// or keeping.

#ifndef SETSKETCH_CORE_ESTIMATOR_KERNEL_H_
#define SETSKETCH_CORE_ESTIMATOR_KERNEL_H_

#include <functional>
#include <vector>

#include "core/property_checks.h"
#include "core/set_difference_estimator.h"  // WitnessOptions
#include "core/set_union_estimator.h"       // UnionEstimate
#include "core/witness_estimate.h"

namespace setsketch {

/// Read-only occupancy/singleton oracle over the r x levels bucket matrix
/// of the union of r aligned SketchGroups, probed lazily (nothing is
/// merged or materialized). With `pairwise` set (groups of exactly two
/// sketches), the singleton probe uses the paper's case-based two-sketch
/// SingletonUnionBucket — the binary estimators' historical check —
/// instead of the n-ary summed-counter check; the two agree whenever
/// per-stream net frequencies are nonnegative.
class GroupUnionView {
 public:
  explicit GroupUnionView(const std::vector<SketchGroup>& groups,
                          bool pairwise = false);

  /// Independent sketch copies r.
  int copies() const;
  /// First-level buckets per copy.
  int levels() const;
  /// True iff copy's union bucket at `level` is non-empty (the negation
  /// of UnionBucketEmpty over the group).
  bool NonEmpty(int copy, int level) const;
  /// True iff copy's union bucket at `level` holds a single distinct
  /// element (UnionSingletonBucket over the group).
  bool UnionSingleton(int copy, int level) const;

 private:
  const std::vector<SketchGroup>& groups_;
  bool pairwise_;
};

/// Stage 1: the Figure 5 union-cardinality estimate over a view (threshold
/// scan for the sparsest informative level), optionally refined by the
/// all-levels maximum-likelihood extension (`mle`). Equivalent to
/// EstimateSetUnion / EstimateSetUnionMle modulo input validation, which
/// stays with the calling strategy.
UnionEstimate KernelEstimateUnion(const GroupUnionView& view, double epsilon,
                                  bool mle);

/// Stage 2 witness predicate: given (copy, level) of a union-singleton
/// bucket, does the singleton element witness the target expression?
using WitnessPredicate = std::function<bool(int copy, int level)>;

/// Stage 2: witness counting over a view — one observation per copy at
/// the witness level derived from `union_estimate` (strict mode), or one
/// per union-singleton bucket anywhere (options.pool_all_levels). The
/// shared loop of the difference / intersection / Jaccard / expression
/// strategies.
WitnessEstimate KernelCountWitnesses(const GroupUnionView& view,
                                     const WitnessPredicate& witness,
                                     double union_estimate,
                                     const WitnessOptions& options);

}  // namespace setsketch

#endif  // SETSKETCH_CORE_ESTIMATOR_KERNEL_H_
