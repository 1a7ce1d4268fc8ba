#include "query/plan_cache.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "expr/analysis.h"
#include "expr/parser.h"
#include "util/check.h"

namespace setsketch {

namespace {

// True iff the canonical node is a union whose children are all stream
// leaves — the sub-expression shape whose occupancy bits are memoizable
// independently of the rest of the plan.
bool IsLeafOnlyUnion(const CanonicalPlan& plan, const CanonicalNode& node) {
  if (node.kind != Expression::Kind::kUnion) return false;
  for (int child : node.children) {
    if (plan.nodes[static_cast<size_t>(child)].kind !=
        Expression::Kind::kStream) {
      return false;
    }
  }
  return true;
}

std::string HashToHex(uint64_t hash) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kDigits[(hash >> shift) & 0xf];
  }
  return out;
}

// A zero-capacity cache would evict the entry FindOrCompileLocked just
// inserted and hand back a dangling pointer; one entry is the usable
// minimum.
PlanCache::Options Sanitize(PlanCache::Options options) {
  if (options.max_entries == 0) options.max_entries = 1;
  return options;
}

}  // namespace

PlanCache::PlanCache(const Options& options) : options_(Sanitize(options)) {}

PlanCache::Result PlanCache::Query(const std::string& text,
                                   const SketchBank& bank) {
  const ParseResult parsed = ParseExpression(text);
  if (!parsed.ok()) {
    Result result;
    result.error = parsed.error;
    return result;
  }
  return Query(*parsed.expression, bank);
}

namespace {

// Algebraically empty expressions (A - A, ...) are answered exactly,
// with no sketch access and no cache entry: the estimate is 0 for every
// possible stream contents. Mirrors StreamEngine's historical shortcut.
PlanCache::Result ExactEmptyResult(std::string canonical) {
  PlanCache::Result result;
  result.ok = true;
  result.cache_hit = true;
  result.estimate = 0.0;
  result.canonical = std::move(canonical);
  result.detail.ok = true;
  result.detail.expression.ok = true;
  return result;
}

}  // namespace

bool PlanCache::UsesBackendStreams(const Expression& expr,
                                   const SketchBank& bank) {
  for (const std::string& name : expr.StreamNames()) {
    if (bank.StreamBackend(name) != SketchBackendId::kTwoLevelHash) {
      return true;
    }
  }
  return false;
}

PlanCache::Result PlanCache::BackendQuery(const Expression& expr,
                                          const SketchBank& bank) {
  Result result;
  result.canonical = Canonicalize(expr).ToString();
  // Homogeneity first, so a two-level stream mixed into a backend query
  // reports "mixed backends" rather than a confusing lookup miss.
  for (const std::string& name : expr.StreamNames()) {
    if (!bank.HasStream(name)) {
      result.error = "unknown stream in expression";
      return result;
    }
    if (bank.StreamBackend(name) == SketchBackendId::kTwoLevelHash) {
      result.error = "mixed sketch backends in one expression ('" + name +
                     "' is two_level_hash)";
      return result;
    }
  }
  const BackendEstimate estimate = EstimateWithBackend(
      expr, [&bank](const std::string& name) -> const DistinctSketch* {
        return bank.BackendSketch(name);
      });
  {
    MutexLock lock(&mutex_);
    ++stats_.backend_queries;
  }
  if (!estimate.ok) {
    result.error = estimate.error;
    return result;
  }
  result.ok = true;
  result.estimate = estimate.estimate;
  // The backends carry a design-point relative standard error rather than
  // a witness-count interval; report +/- 2 sigma around the estimate.
  const DistinctSketch* representative =
      bank.BackendSketch(expr.StreamNames().front());
  const double sigma =
      representative->TargetRelativeError() / 3.0 * estimate.estimate;
  result.interval.lo = std::max(0.0, estimate.estimate - 2.0 * sigma);
  result.interval.hi = estimate.estimate + 2.0 * sigma;
  result.detail.ok = true;
  result.detail.expression.ok = true;
  return result;
}

PlanCache::Result PlanCache::Query(const Expression& expr,
                                   const SketchBank& bank) {
  if (UsesBackendStreams(expr, bank)) return BackendQuery(expr, bank);
  CanonicalPlan plan = Canonicalize(expr);
  std::string canonical = plan.ToString();
  if (ProvablyEmpty(expr)) return ExactEmptyResult(std::move(canonical));

  MutexLock lock(&mutex_);
  Entry* entry = FindOrCompileLocked(plan, canonical);
  Entry scratch_entry;
  if (entry == nullptr) {
    // Structural-hash collision with a different canonical form (never
    // observed in practice; SplitMix64-mixed 64-bit hashes). Answer
    // correctly without caching.
    ++stats_.misses;
    scratch_entry.plan = std::move(plan);
    scratch_entry.canonical = std::move(canonical);
    scratch_entry.streams = scratch_entry.plan.streams;
    entry = &scratch_entry;
  } else {
    if (FreshLocked(*entry, bank)) {
      ++stats_.hits;
      Result result = entry->result;
      result.cache_hit = true;
      return result;
    }
    if (entry->result_built) {
      ++stats_.invalidations;
    } else {
      ++stats_.misses;
    }
  }

  const std::vector<SketchGroup> groups = bank.Groups(entry->streams);
  if (groups.empty()) {
    Result result;
    result.canonical = entry->canonical;
    result.error = "unknown stream in expression";
    entry->result_built = false;
    return result;
  }
  std::vector<uint64_t> epochs(entry->streams.size(), 0);
  for (size_t k = 0; k < entry->streams.size(); ++k) {
    epochs[k] = bank.StreamEpoch(entry->streams[k]);
  }
  return EvaluateLocked(entry, groups, bank.bank_id(), std::move(epochs));
}

bool PlanCache::FreshLocked(const Entry& entry,
                            const SketchBank& bank) const {
  if (!entry.result_built || entry.bank_id != bank.bank_id()) return false;
  for (size_t k = 0; k < entry.streams.size(); ++k) {
    if (bank.StreamEpoch(entry.streams[k]) != entry.epochs[k]) return false;
  }
  return true;
}

PlanCache::Entry* PlanCache::FindOrCompileLocked(const CanonicalPlan& plan,
                                                 const std::string& canonical) {
  const uint64_t key = plan.hash();
  ++tick_;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.canonical != canonical) return nullptr;  // Collision.
    it->second.last_used = tick_;
    return &it->second;
  }

  ++stats_.compiles;
  Entry entry;
  entry.plan = plan;
  entry.canonical = canonical;
  entry.streams = plan.streams;
  entry.last_used = tick_;
  // Pre-plan the memoizable sub-union tasks: every shared or standalone
  // leaf-only union node gets its own occupancy memo keyed by just its own
  // streams' epochs.
  for (size_t id = 0; id < plan.nodes.size(); ++id) {
    const CanonicalNode& node = plan.nodes[id];
    if (!IsLeafOnlyUnion(plan, node)) continue;
    SubUnionMemo memo;
    memo.node = static_cast<int>(id);
    for (int child : node.children) {
      memo.columns.push_back(plan.nodes[static_cast<size_t>(child)].column);
    }
    entry.sub_memos.push_back(std::move(memo));
  }

  Entry* inserted = &entries_.emplace(key, std::move(entry)).first->second;
  EvictIfNeededLocked();
  return inserted;
}

PlanCache::Result PlanCache::EvaluateLocked(
    Entry* entry, const std::vector<SketchGroup>& groups, uint64_t bank_id,
    std::vector<uint64_t> epochs) {
  Result result;
  result.canonical = entry->canonical;

  // A different bank instance invalidates every memo wholesale: epochs from
  // another bank are meaningless here, and bank ids are process-unique.
  if (entry->bank_id != bank_id) {
    entry->bank_id = bank_id;
    for (SubUnionMemo& memo : entry->sub_memos) memo.built = false;
    entry->result_built = false;
  }

  // Stage 1 probes the live groups lazily; nothing is copied or merged.
  // The bank pins every stream's copy i to family seed i, so each group
  // shares its hash functions. merge_builds counts one stage-1 union per
  // cold evaluation plus one per sub-union memo rebuilt below.
  SETSKETCH_DCHECK(std::all_of(groups.begin(), groups.end(),
                               GroupSeedsMatch))
      << "plan streams on mismatched sketch seeds";
  ++stats_.merge_builds;

  // Sub-expression memos: each tracks only its own streams, so ingest into
  // stream X leaves the memo for "B | C" intact.
  const int copies = static_cast<int>(groups.size());
  const int levels =
      copies > 0 && !groups[0].empty() ? groups[0][0]->levels() : 0;
  for (SubUnionMemo& memo : entry->sub_memos) {
    bool stale = !memo.built;
    if (!stale) {
      for (size_t k = 0; k < memo.columns.size(); ++k) {
        if (memo.epochs[k] !=
            epochs[static_cast<size_t>(memo.columns[k])]) {
          stale = true;
          break;
        }
      }
    }
    if (!stale) continue;
    memo.nonempty.assign(static_cast<size_t>(copies),
                         std::vector<unsigned char>(
                             static_cast<size_t>(levels), 0));
    for (int copy = 0; copy < copies; ++copy) {
      const SketchGroup& group = groups[static_cast<size_t>(copy)];
      for (int level = 0; level < levels; ++level) {
        bool occupied = false;
        for (int column : memo.columns) {
          if (!BucketEmpty(*group[static_cast<size_t>(column)], level)) {
            occupied = true;
            break;
          }
        }
        memo.nonempty[static_cast<size_t>(copy)]
                     [static_cast<size_t>(level)] =
            occupied ? 1 : 0;
      }
    }
    memo.epochs.resize(memo.columns.size());
    for (size_t k = 0; k < memo.columns.size(); ++k) {
      memo.epochs[k] = epochs[static_cast<size_t>(memo.columns[k])];
    }
    memo.built = true;
    ++stats_.merge_builds;
  }

  // Witness predicate: evaluate the canonical DAG bottom-up into the
  // entry's scratch arena. Leaves probe the group directly; memoized
  // sub-unions read their precomputed bit. Pointwise identical to
  // Expression::Evaluate on the original tree.
  const CanonicalPlan& plan = entry->plan;
  std::vector<int> memo_of_node(plan.nodes.size(), -1);
  for (size_t m = 0; m < entry->sub_memos.size(); ++m) {
    memo_of_node[static_cast<size_t>(entry->sub_memos[m].node)] =
        static_cast<int>(m);
  }
  std::vector<unsigned char>& scratch = entry->scratch;
  const auto witness = [&](int copy, int level) {
    scratch.assign(plan.nodes.size(), 0);
    const SketchGroup& group = groups[static_cast<size_t>(copy)];
    for (size_t id = 0; id < plan.nodes.size(); ++id) {
      const CanonicalNode& node = plan.nodes[id];
      bool value = false;
      const int memo_index = memo_of_node[id];
      if (memo_index >= 0) {
        value = entry->sub_memos[static_cast<size_t>(memo_index)]
                    .nonempty[static_cast<size_t>(copy)]
                             [static_cast<size_t>(level)] != 0;
      } else {
        switch (node.kind) {
          case Expression::Kind::kStream:
            value = !BucketEmpty(
                *group[static_cast<size_t>(node.column)], level);
            break;
          case Expression::Kind::kUnion:
            for (int child : node.children) {
              if (scratch[static_cast<size_t>(child)] != 0) {
                value = true;
                break;
              }
            }
            break;
          case Expression::Kind::kIntersect:
            value = true;
            for (int child : node.children) {
              if (scratch[static_cast<size_t>(child)] == 0) {
                value = false;
                break;
              }
            }
            break;
          case Expression::Kind::kDifference:
            value = scratch[static_cast<size_t>(node.children[0])] != 0 &&
                    scratch[static_cast<size_t>(node.children[1])] == 0;
            break;
        }
      }
      scratch[id] = value ? 1 : 0;
    }
    return scratch[static_cast<size_t>(plan.root)] != 0;
  };

  const GroupUnionView view(groups);
  result.detail = EstimateExpressionWithKernel(view, witness,
                                               options_.witness);
  result.ok = result.detail.ok;
  if (result.ok) {
    result.estimate = result.detail.expression.estimate;
    result.interval = WitnessInterval(result.detail.expression,
                                      UnionInterval(result.detail.union_part));
  }

  entry->epochs = std::move(epochs);
  entry->result = result;
  entry->result_built = true;
  return result;
}

PlanCache::Result PlanCache::EstimateUncached(
    const Expression& expr, const std::vector<std::string>& stream_names,
    const std::vector<SketchGroup>& groups) {
  {
    MutexLock lock(&mutex_);
    ++stats_.bypasses;
  }
  Result result;
  result.canonical = Canonicalize(expr).ToString();
  if (ProvablyEmpty(expr)) {
    result.ok = true;
    result.estimate = 0.0;
    result.detail.ok = true;
    result.detail.expression.ok = true;
    return result;
  }
  result.detail =
      EstimateSetExpression(expr, stream_names, groups, options_.witness);
  result.ok = result.detail.ok;
  if (result.ok) {
    result.estimate = result.detail.expression.estimate;
    result.interval = WitnessInterval(result.detail.expression,
                                      UnionInterval(result.detail.union_part));
  } else {
    result.error = "estimation failed";
  }
  return result;
}

std::string PlanCache::Explain(const std::string& text,
                               const SketchBank& bank) const {
  const ParseResult parsed = ParseExpression(text);
  if (!parsed.ok()) return "error: " + parsed.error + "\n";
  return Explain(*parsed.expression, bank);
}

std::string PlanCache::Explain(const Expression& expr,
                               const SketchBank& bank) const {
  const CanonicalPlan plan = Canonicalize(expr);
  const std::string canonical = plan.ToString();

  std::ostringstream out;
  out << "expression: " << expr.ToString() << "\n";
  out << "canonical plan: " << canonical << "\n";
  out << "canonical hash: " << HashToHex(plan.hash()) << "\n";
  out << "streams (" << plan.streams.size() << "):";
  for (const std::string& name : plan.streams) {
    out << " " << name;
    if (bank.StreamEpoch(name) == 0) out << " [unknown]";
  }
  out << "\n";
  if (UsesBackendStreams(expr, bank)) {
    SketchBackendId backend = SketchBackendId::kTwoLevelHash;
    for (const std::string& name : plan.streams) {
      if (bank.StreamBackend(name) != SketchBackendId::kTwoLevelHash) {
        backend = bank.StreamBackend(name);
        break;
      }
    }
    out << "backend: " << SketchBackendName(backend)
        << " — routed to the backend's expression algebra "
           "(no plan memoization; synopses are merged inline)\n";
    return out.str();
  }
  out << "plan nodes: " << plan.nodes.size() << ", shared sub-expressions: "
      << plan.SharedNodeCount() << "\n";
  for (size_t id = 0; id < plan.nodes.size(); ++id) {
    const CanonicalNode& node = plan.nodes[id];
    if (node.kind == Expression::Kind::kStream || node.uses <= 1) continue;
    out << "  shared: " << plan.NodeToString(static_cast<int>(id))
        << " (used " << node.uses << "x)\n";
  }
  if (ProvablyEmpty(expr)) {
    out << "provably empty: answered exactly 0 without a plan\n";
    return out.str();
  }

  // Merge tasks: the stage-1 full union plus every memoizable leaf-only
  // sub-union.
  out << "merge tasks: full union over " << plan.streams.size()
      << " stream(s)";
  int sub_tasks = 0;
  for (const CanonicalNode& node : plan.nodes) {
    if (IsLeafOnlyUnion(plan, node)) ++sub_tasks;
  }
  if (sub_tasks > 0) out << " + " << sub_tasks << " memoized sub-union(s)";
  out << "\n";

  MutexLock lock(&mutex_);
  auto it = entries_.find(plan.hash());
  if (it == entries_.end() || it->second.canonical != canonical) {
    out << "cache: MISS (not compiled yet)\n";
  } else {
    const Entry& entry = it->second;
    if (!entry.result_built || entry.bank_id != bank.bank_id()) {
      out << "cache: COMPILED (no valid result for this bank)\n";
    } else {
      std::vector<std::string> changed;
      for (size_t k = 0; k < entry.streams.size(); ++k) {
        if (bank.StreamEpoch(entry.streams[k]) != entry.epochs[k]) {
          changed.push_back(entry.streams[k]);
        }
      }
      if (changed.empty()) {
        out << "cache: HIT (all stream epochs current)\n";
      } else {
        out << "cache: STALE (changed streams:";
        for (const std::string& name : changed) out << " " << name;
        out << ")\n";
      }
    }
  }
  out << "plan cache: hits=" << stats_.hits << " misses=" << stats_.misses
      << " invalidations=" << stats_.invalidations
      << " merge_builds=" << stats_.merge_builds
      << " entries=" << entries_.size() << "\n";
  return out.str();
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(&mutex_);
  Stats stats = stats_;
  stats.entries = entries_.size();
  stats.memo_bytes = 0;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    for (const SubUnionMemo& memo : entry.sub_memos) {
      for (const std::vector<unsigned char>& row : memo.nonempty) {
        stats.memo_bytes += row.size();
      }
    }
    stats.memo_bytes += entry.scratch.size();
  }
  return stats;
}

void PlanCache::Clear() {
  MutexLock lock(&mutex_);
  entries_.clear();
}

void PlanCache::EvictIfNeededLocked() {
  while (entries_.size() > options_.max_entries) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

}  // namespace setsketch
