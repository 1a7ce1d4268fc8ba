// Tests for the plan cache (query/plan_cache.h): bit-identical equivalence
// of planned + cached evaluation vs direct EstimateSetExpression (the
// refactor's correctness bar), including through ingest -> epoch
// invalidation -> re-query cycles and cold re-answers after net-zero
// writes; cache-hit semantics for equivalent spellings; sub-expression
// memo granularity and memo size; LRU eviction; bank-identity
// invalidation; and the engine-level wiring.

#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/confidence.h"
#include "core/set_expression_estimator.h"
#include "core/sketch_bank.h"
#include "expr/analysis.h"
#include "expr/canonical.h"
#include "expr/expression.h"
#include "expr/parser.h"
#include "query/plan_cache.h"
#include "query/stream_engine.h"
#include "test_helpers.h"

namespace setsketch {
namespace {

ExprPtr Parse(const std::string& text) {
  const ParseResult p = ParseExpression(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.error;
  return p.expression;
}

/// Uniform region probabilities over the 2^n - 1 non-empty Venn regions.
std::vector<double> UniformRegionProbs(int num_streams) {
  const size_t regions = size_t{1} << num_streams;
  std::vector<double> probs(regions, 1.0 / static_cast<double>(regions - 1));
  probs[0] = 0.0;
  return probs;
}

/// Asserts the planned result equals direct estimation bit for bit: the
/// whole point of routing everything through one kernel is that caching
/// and canonicalization change nothing about the answer.
void ExpectBitIdentical(const PlanCache::Result& planned,
                        const ExpressionEstimate& direct,
                        const std::string& context) {
  ASSERT_EQ(planned.detail.ok, direct.ok) << context;
  EXPECT_EQ(planned.detail.expression.estimate, direct.expression.estimate)
      << context;
  EXPECT_EQ(planned.detail.expression.witnesses, direct.expression.witnesses)
      << context;
  EXPECT_EQ(planned.detail.expression.valid_observations,
            direct.expression.valid_observations)
      << context;
  EXPECT_EQ(planned.detail.expression.level, direct.expression.level)
      << context;
  EXPECT_EQ(planned.detail.union_part.estimate, direct.union_part.estimate)
      << context;
  EXPECT_EQ(planned.detail.union_part.level, direct.union_part.level)
      << context;
  EXPECT_EQ(planned.detail.union_part.nonempty_count,
            direct.union_part.nonempty_count)
      << context;
  if (direct.ok) {
    EXPECT_EQ(planned.estimate, direct.expression.estimate) << context;
  }
}

/// Uniformly random expression tree over `names`, depth-bounded.
ExprPtr RandomExpression(std::mt19937_64& rng,
                         const std::vector<std::string>& names, int depth) {
  std::uniform_int_distribution<int> pick_kind(0, depth <= 0 ? 0 : 3);
  std::uniform_int_distribution<size_t> pick_name(0, names.size() - 1);
  switch (pick_kind(rng)) {
    case 1:
      return Expression::Union(RandomExpression(rng, names, depth - 1),
                               RandomExpression(rng, names, depth - 1));
    case 2:
      return Expression::Intersect(RandomExpression(rng, names, depth - 1),
                                   RandomExpression(rng, names, depth - 1));
    case 3:
      return Expression::Difference(RandomExpression(rng, names, depth - 1),
                                    RandomExpression(rng, names, depth - 1));
    default:
      return Expression::Stream(names[pick_name(rng)]);
  }
}

// --- Bit-identical equivalence ------------------------------------------

TEST(PlanCacheTest, PlannedAnswersMatchDirectEstimatorExactly) {
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  const auto bank = BankFromDataset(gen.Generate(4096, 11), 64, 11);
  PlanCache cache(PlanCache::Options{});
  const std::vector<std::string> queries = {
      "S0", "S0 | S1", "S0 & S1", "S0 - S1", "(S0 - S1) - S2",
      "S0 | (S1 & S2)", "(S0 | S1) & S2", "(S0 & S1) | ((S0 & S1) - S2)",
      "(S0 | S1) - (S0 & S1)", "S0 & S1 & S2",
  };
  for (const std::string& text : queries) {
    const ExprPtr expr = Parse(text);
    const ExpressionEstimate direct = EstimateSetExpression(*expr, *bank);
    const PlanCache::Result cold = cache.Query(*expr, *bank);
    ExpectBitIdentical(cold, direct, text + " (cold)");
    EXPECT_FALSE(cold.cache_hit);
    // The memoized re-answer is the same object, bit for bit.
    const PlanCache::Result hot = cache.Query(*expr, *bank);
    ExpectBitIdentical(hot, direct, text + " (hot)");
    EXPECT_TRUE(hot.cache_hit);
  }
}

TEST(PlanCacheTest, RandomizedEquivalenceThroughIngestAndInvalidation) {
  std::mt19937_64 rng(0x5E7CA11);
  const std::vector<std::string> names = {"S0", "S1", "S2"};
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  auto bank = BankFromDataset(gen.Generate(2048, 21), 48, 21);
  PlanCache cache(PlanCache::Options{});

  std::uniform_int_distribution<uint64_t> pick_element(1, 1u << 20);
  std::uniform_int_distribution<size_t> pick_stream(0, names.size() - 1);
  for (int round = 0; round < 40; ++round) {
    const ExprPtr expr = RandomExpression(rng, names, 3);
    // The cache short-circuits provably-empty queries to an exact 0
    // without running the estimator, so the bit-identical comparison only
    // applies to the non-degenerate ones.
    if (ProvablyEmpty(*expr)) {
      const PlanCache::Result empty = cache.Query(*expr, *bank);
      EXPECT_TRUE(empty.ok);
      EXPECT_EQ(empty.estimate, 0.0);
      continue;
    }
    const std::string text = expr->ToString();
    ExpectBitIdentical(cache.Query(*expr, *bank),
                       EstimateSetExpression(*expr, *bank), text);
    // Mutate a random stream (epoch bump), then require the re-planned
    // answer to track the bank's new state exactly — a stale memo would
    // reproduce the old numbers instead.
    bank->Apply(names[pick_stream(rng)], pick_element(rng), 1);
    ExpectBitIdentical(cache.Query(*expr, *bank),
                       EstimateSetExpression(*expr, *bank),
                       text + " (after ingest)");
  }
}

TEST(PlanCacheTest, EquivalentSpellingsHitOneCachedPlan) {
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  const auto bank = BankFromDataset(gen.Generate(1024, 31), 32, 31);
  PlanCache cache(PlanCache::Options{});

  const PlanCache::Result first = cache.Query("S0 | (S1 & S2)", *bank);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // A commuted + reassociated spelling canonicalizes to the same plan and
  // is answered from the memo without compiling anything new.
  const PlanCache::Result second = cache.Query("(S2 & S1) | S0", *bank);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.canonical, first.canonical);
  EXPECT_EQ(second.estimate, first.estimate);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.memo_bytes, 0u);
}

TEST(PlanCacheTest, IngestInvalidatesOnlyTouchedMemos) {
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  auto bank = BankFromDataset(gen.Generate(1024, 41), 32, 41);
  PlanCache::Options options;
  options.witness.pool_all_levels = true;  // Robust across seeds.
  PlanCache cache(options);

  // Plan with a leaf-only union sub-expression (S0 | S1) under the root:
  // it gets its own occupancy memo keyed on {S0, S1} epochs only.
  const ExprPtr expr = Parse("(S0 | S1) & S2");
  const PlanCache::Result cold = cache.Query(*expr, *bank);
  ASSERT_TRUE(cold.ok) << cold.error;
  const uint64_t builds_cold = cache.stats().merge_builds;
  EXPECT_GE(builds_cold, 2u);  // Stage-1 union + (S0|S1) memo.

  // Ingest into S2 only: stage 1 re-runs, but the (S0 | S1) sub-memo's
  // epochs are unchanged and it is reused.
  bank->Apply("S2", 987654321u, 1);
  ASSERT_TRUE(cache.Query(*expr, *bank).ok);
  const uint64_t builds_after_s2 = cache.stats().merge_builds;
  EXPECT_EQ(builds_after_s2, builds_cold + 1);
  EXPECT_EQ(cache.stats().invalidations, 1u);

  // Ingest into S0: now both stage 1 and the sub-memo rebuild.
  bank->Apply("S0", 123456789u, 1);
  ASSERT_TRUE(cache.Query(*expr, *bank).ok);
  EXPECT_EQ(cache.stats().merge_builds, builds_after_s2 + 2);
  EXPECT_EQ(cache.stats().invalidations, 2u);

  // Quiescent re-query: pure hit, nothing rebuilt.
  ASSERT_TRUE(cache.Query(*expr, *bank).ok);
  EXPECT_EQ(cache.stats().merge_builds, builds_after_s2 + 2);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, IngestIntoUnrelatedStreamKeepsPlansHot) {
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  auto bank = BankFromDataset(gen.Generate(1024, 51), 32, 51);
  bank->AddStream("Other");
  PlanCache cache(PlanCache::Options{});

  ASSERT_TRUE(cache.Query("S0 & S1", *bank).ok);
  bank->Apply("Other", 42u, 1);  // Epoch bump on a non-participant.
  const PlanCache::Result again = cache.Query("S0 & S1", *bank);
  ASSERT_TRUE(again.ok);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, DifferentBankNeverReusesMemos) {
  // Two banks with identical content but distinct identities: the second
  // query must re-derive everything (bank ids differ), never serve the
  // first bank's memo — this is the recovery-safety property.
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  const PartitionedDataset data = gen.Generate(1024, 61);
  const auto bank_a = BankFromDataset(data, 32, 61);
  const auto bank_b = BankFromDataset(data, 32, 61);
  PlanCache cache(PlanCache::Options{});

  const PlanCache::Result on_a = cache.Query("S0 - S1", *bank_a);
  ASSERT_TRUE(on_a.ok);
  const PlanCache::Result on_b = cache.Query("S0 - S1", *bank_b);
  ASSERT_TRUE(on_b.ok);
  EXPECT_FALSE(on_b.cache_hit);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // Same data + same seed => same answer, recomputed rather than reused.
  EXPECT_EQ(on_a.estimate, on_b.estimate);

  // And the memo now belongs to bank_b: querying it again is a hit...
  EXPECT_TRUE(cache.Query("S0 - S1", *bank_b).cache_hit);
  // ...while going back to bank_a re-derives again.
  EXPECT_FALSE(cache.Query("S0 - S1", *bank_a).cache_hit);
}

// --- Cache management ----------------------------------------------------

TEST(PlanCacheTest, LruEvictionBoundsTheCache) {
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  const auto bank = BankFromDataset(gen.Generate(512, 71), 16, 71);
  PlanCache::Options options;
  options.max_entries = 2;
  PlanCache cache(options);

  ASSERT_TRUE(cache.Query("S0 | S1", *bank).ok);
  ASSERT_TRUE(cache.Query("S0 & S1", *bank).ok);
  ASSERT_TRUE(cache.Query("S0 - S1", *bank).ok);  // Evicts "S0 | S1".
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  // The evicted plan recompiles on next use; the survivors stay hot.
  EXPECT_TRUE(cache.Query("S0 - S1", *bank).cache_hit);
  EXPECT_FALSE(cache.Query("S0 | S1", *bank).cache_hit);
  EXPECT_EQ(cache.stats().compiles, 4u);
}

TEST(PlanCacheTest, ZeroCapacityClampsToOneUsableEntry) {
  // max_entries = 0 would otherwise evict the entry FindOrCompile just
  // inserted and leave a dangling pointer; the cache clamps to 1.
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  const auto bank = BankFromDataset(gen.Generate(512, 77), 16, 77);
  PlanCache::Options options;
  options.max_entries = 0;
  PlanCache cache(options);

  ASSERT_TRUE(cache.Query("S0 | S1", *bank).ok);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_TRUE(cache.Query("S0 | S1", *bank).cache_hit);
  // A second distinct plan evicts the first (capacity one), never itself.
  ASSERT_TRUE(cache.Query("S0 & S1", *bank).ok);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_TRUE(cache.Query("S0 & S1", *bank).cache_hit);
}

// --- Cold answers over the live bank -------------------------------------

/// The served benchmark's expression shapes (e2ebench/workload.cc) over
/// four streams; S0 and S1 appear in every one of them.
const std::vector<std::string>& ServedShapes() {
  static const std::vector<std::string> shapes = {
      "S0 | S1",
      "S0 | S1 | S2",
      "S0 & S1",
      "S0 - S1",
      "(S0 - S1) & S2",
      "(S0 | S1) & S2",
      "((S0 | S1) & S2) | ((S0 | S1) - S3)",
      "(S0 & S1) | (S2 - S3)",
  };
  return shapes;
}

/// Adds and removes one element: the stream's counters end where they
/// started, but its epoch moves, so the next query over it is cold.
void NetZeroWrite(SketchBank* bank, const std::string& stream,
                  uint64_t element) {
  bank->Apply(stream, element, 1);
  bank->Apply(stream, element, -1);
}

TEST(PlanCacheTest, ColdAnswerAfterNetZeroWriteMatchesDirectBitForBit) {
  VennPartitionGenerator gen(4, UniformRegionProbs(4));
  const auto bank = BankFromDataset(gen.Generate(4096, 13), 64, 13);
  for (const bool pooled : {false, true}) {
    for (const bool mle : {false, true}) {
      PlanCache::Options options;
      options.witness.pool_all_levels = pooled;
      options.witness.mle_union = mle;
      PlanCache cache(options);
      for (size_t i = 0; i < ServedShapes().size(); ++i) {
        const std::string& text = ServedShapes()[i];
        const std::string context = text + (pooled ? " pooled" : " strict") +
                                    (mle ? " mle" : " fig5");
        const ExprPtr expr = Parse(text);
        const PlanCache::Result warm = cache.Query(*expr, *bank);
        NetZeroWrite(bank.get(), i % 2 == 0 ? "S0" : "S1", 0xC01D + i);
        const PlanCache::Result cold = cache.Query(*expr, *bank);
        EXPECT_FALSE(cold.cache_hit) << context;

        const ExpressionEstimate direct =
            EstimateSetExpression(*expr, *bank, options.witness);
        ExpectBitIdentical(cold, direct, context);
        ASSERT_EQ(cold.ok, direct.ok) << context;
        if (direct.ok) {
          const Interval interval = WitnessInterval(
              direct.expression, UnionInterval(direct.union_part));
          EXPECT_EQ(cold.interval.lo, interval.lo) << context;
          EXPECT_EQ(cold.interval.hi, interval.hi) << context;
        }
        // The write left every counter as it was, so the re-evaluated
        // answer is the warm one, bit for bit.
        EXPECT_EQ(cold.estimate, warm.estimate) << context;
        EXPECT_EQ(cold.interval.lo, warm.interval.lo) << context;
        EXPECT_EQ(cold.interval.hi, warm.interval.hi) << context;
      }
    }
  }
}

TEST(PlanCacheTest, MemoBytesHoldNoPerCopyCounterState) {
  // A cached plan keeps occupancy bits (one byte per copy and level for
  // each leaf-only sub-union) and a scratch byte per plan node — never a
  // merged copy of any sketch's counters.
  constexpr size_t kCopies = 64;
  VennPartitionGenerator gen(4, UniformRegionProbs(4));
  const auto bank = BankFromDataset(gen.Generate(2048, 23), kCopies, 23);
  const size_t levels = static_cast<size_t>(TestParams().levels);
  const size_t one_sketch_per_copy =
      bank->Sketches("S0")[0].CounterBytes() * kCopies;
  PlanCache::Options options;
  options.witness.pool_all_levels = true;
  for (const std::string& text : ServedShapes()) {
    PlanCache cache(options);
    ASSERT_TRUE(cache.Query(text, *bank).ok) << text;
    NetZeroWrite(bank.get(), "S0", 0xB17E5);
    ASSERT_FALSE(cache.Query(text, *bank).cache_hit) << text;
    const size_t nodes = Canonicalize(*Parse(text)).nodes.size();
    const uint64_t bytes = cache.stats().memo_bytes;
    EXPECT_GT(bytes, 0u) << text;
    EXPECT_LE(bytes, nodes * kCopies * levels + nodes) << text;
    EXPECT_LT(bytes, one_sketch_per_copy) << text;
  }
}

TEST(PlanCacheTest, ClearDropsPlansButKeepsCounters) {
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  const auto bank = BankFromDataset(gen.Generate(512, 81), 16, 81);
  PlanCache cache(PlanCache::Options{});
  ASSERT_TRUE(cache.Query("S0 | S1", *bank).ok);
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().compiles, 1u);  // History retained.
  EXPECT_FALSE(cache.Query("S0 | S1", *bank).cache_hit);
  EXPECT_EQ(cache.stats().compiles, 2u);
}

// --- Error and degenerate paths -----------------------------------------

TEST(PlanCacheTest, UnknownStreamIsATypedErrorNotACrash) {
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  const auto bank = BankFromDataset(gen.Generate(256, 91), 16, 91);
  PlanCache cache(PlanCache::Options{});
  const PlanCache::Result result = cache.Query("S0 & Missing", *bank);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown stream"), std::string::npos)
      << result.error;
  // The error is not memoized as an answer: registering the stream later
  // makes the same plan answerable.
  bank->AddStream("Missing");
  EXPECT_TRUE(cache.Query("S0 & Missing", *bank).ok);
}

TEST(PlanCacheTest, ParseFailuresSurfaceTypedErrors) {
  SketchBank bank(SketchFamily(TestParams(), 8, 3));
  PlanCache cache(PlanCache::Options{});
  const PlanCache::Result result = cache.Query("(S0 &", bank);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("position"), std::string::npos)
      << result.error;
  EXPECT_EQ(cache.stats().entries, 0u);  // Nothing was compiled.
}

TEST(PlanCacheTest, ProvablyEmptyQueriesShortCircuitToExactZero) {
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  const auto bank = BankFromDataset(gen.Generate(512, 101), 16, 101);
  PlanCache cache(PlanCache::Options{});
  for (const std::string text : {"S0 - S0", "(S0 & S1) - S0"}) {
    const PlanCache::Result result = cache.Query(text, *bank);
    EXPECT_TRUE(result.ok) << text;
    EXPECT_EQ(result.estimate, 0.0) << text;
    EXPECT_TRUE(result.cache_hit) << text;  // Answered without a plan.
  }
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().compiles, 0u);
}

TEST(PlanCacheTest, UncachedPathMatchesDirectAndCountsBypasses) {
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  const auto bank = BankFromDataset(gen.Generate(1024, 111), 32, 111);
  PlanCache cache(PlanCache::Options{});
  const ExprPtr expr = Parse("S0 - S1");
  const std::vector<std::string> names = {"S0", "S1"};
  const std::vector<SketchGroup> groups = bank->Groups(names);
  const PlanCache::Result bypass =
      cache.EstimateUncached(*expr, names, groups);
  const ExpressionEstimate direct =
      EstimateSetExpression(*expr, names, groups);
  ASSERT_TRUE(bypass.ok);
  EXPECT_EQ(bypass.estimate, direct.expression.estimate);
  EXPECT_EQ(cache.stats().bypasses, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);  // Bypasses never populate cache.
}

// --- Engine wiring -------------------------------------------------------

TEST(PlanCacheTest, EngineAnswersRunThroughThePlanCache) {
  StreamEngine::Options options;
  options.params = TestParams();
  options.copies = 32;
  options.seed = 7;
  StreamEngine engine(options);
  const StreamEngine::QueryHandle handle =
      engine.RegisterQuery("(A | B) & C");
  ASSERT_TRUE(handle.ok()) << handle.error;
  for (uint64_t e = 1; e <= 600; ++e) {
    engine.Ingest("A", e, 1);
    if (e % 2 == 0) engine.Ingest("B", e, 1);
    if (e % 3 == 0) engine.Ingest("C", e, 1);
  }

  const StreamEngine::Answer first = engine.AnswerQuery(handle.id);
  ASSERT_TRUE(first.ok);
  const PlanCache::Stats after_first = engine.plan_cache_stats();
  EXPECT_EQ(after_first.misses, 1u);
  EXPECT_EQ(after_first.hits, 0u);

  // Same synopsis, same question: a pure cache hit with the same answer.
  const StreamEngine::Answer second = engine.AnswerQuery(handle.id);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.estimate, first.estimate);
  EXPECT_EQ(engine.plan_cache_stats().hits, 1u);

  // Ingest invalidates; the answer re-derives against the new state and
  // matches the direct estimator bit for bit.
  engine.Ingest("A", 999999u, 1);
  const StreamEngine::Answer third = engine.AnswerQuery(handle.id);
  ASSERT_TRUE(third.ok);
  EXPECT_EQ(engine.plan_cache_stats().invalidations, 1u);
  const ExpressionEstimate direct =
      EstimateSetExpression(*Parse("(A | B) & C"), engine.bank());
  EXPECT_EQ(third.estimate, direct.expression.estimate);
}

TEST(PlanCacheTest, RestoredEngineStartsWithAFreshPlanCache) {
  StreamEngine::Options options;
  options.params = TestParams();
  options.copies = 32;
  options.seed = 17;
  StreamEngine engine(options);
  ASSERT_TRUE(engine.RegisterQuery("A - B").ok());
  for (uint64_t e = 1; e <= 400; ++e) {
    engine.Ingest("A", e, 1);
    if (e % 2 == 0) engine.Ingest("B", e, 1);
  }
  const StreamEngine::Answer before = engine.AnswerQuery(0);
  ASSERT_TRUE(before.ok);
  EXPECT_GE(engine.plan_cache_stats().misses, 1u);

  const std::unique_ptr<StreamEngine> restored =
      StreamEngine::LoadSnapshot(engine.SaveSnapshot());
  ASSERT_NE(restored, nullptr);
  // Fresh cache, fresh bank identity: no counter or memo survives the
  // snapshot boundary, so a stale plan can never answer post-restore.
  const PlanCache::Stats fresh = restored->plan_cache_stats();
  EXPECT_EQ(fresh.hits, 0u);
  EXPECT_EQ(fresh.misses, 0u);
  EXPECT_EQ(fresh.entries, 0u);
  const StreamEngine::Answer after = restored->AnswerQuery(0);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.estimate, before.estimate);  // Same synopsis bytes.
  EXPECT_FALSE(restored->plan_cache_stats().hits > 0);
}

TEST(PlanCacheTest, BackendQueriesRouteAroundTheMemoAndCountStats) {
  SketchBank bank(SketchFamily(TestParams(), 32, 99), /*backend_size=*/512);
  ASSERT_TRUE(bank.AddStreamWithBackend("T", SketchBackendId::kThetaKmv,
                                        bank.backend_options()));
  ASSERT_TRUE(bank.AddStreamWithBackend("U", SketchBackendId::kThetaKmv,
                                        bank.backend_options()));
  ASSERT_TRUE(bank.AddStream("D"));
  for (uint64_t e = 0; e < 3000; ++e) {
    bank.MutableBackendSketch("T")->Update(e, 1);
    if (e < 1000) bank.MutableBackendSketch("U")->Update(e, 1);
    bank.Apply("D", e, 1);
  }

  PlanCache cache(PlanCache::Options{});
  const ExprPtr expr = Parse("T | U");
  const PlanCache::Result first = cache.Query(*expr, bank);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  // |T u U| = 3000 (U is a subset); theta at k=512 targets ~4.4% RSE.
  EXPECT_NEAR(first.estimate, 3000.0, 3000.0 * 0.2);
  EXPECT_LE(first.interval.lo, first.estimate);
  EXPECT_GE(first.interval.hi, first.estimate);
  EXPECT_EQ(cache.stats().backend_queries, 1u);

  // No memoization: a repeat re-evaluates inline (the synopsis is tiny),
  // so the backend counter keeps climbing and hits never do.
  const PlanCache::Result second = cache.Query(*expr, bank);
  ASSERT_TRUE(second.ok);
  EXPECT_DOUBLE_EQ(second.estimate, first.estimate);
  EXPECT_EQ(cache.stats().backend_queries, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);

  // Mixing a default-backend stream into a backend expression is a typed
  // refusal, not a crash or a silent wrong answer.
  const PlanCache::Result mixed = cache.Query(*Parse("T | D"), bank);
  EXPECT_FALSE(mixed.ok);
  EXPECT_NE(mixed.error.find("mixed sketch backends"), std::string::npos);

  // Unknown streams stay a typed error on the backend path too.
  const PlanCache::Result unknown = cache.Query(*Parse("T | Zz"), bank);
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("unknown stream"), std::string::npos);

  // Default-backend queries are untouched by any of this: D still goes
  // through the memo and lands a cache entry.
  const PlanCache::Result d1 = cache.Query(*Parse("D"), bank);
  ASSERT_TRUE(d1.ok) << d1.error;
  const PlanCache::Result d2 = cache.Query(*Parse("D"), bank);
  ASSERT_TRUE(d2.ok);
  EXPECT_TRUE(d2.cache_hit);
  EXPECT_EQ(d2.estimate, d1.estimate);
}

TEST(PlanCacheTest, BackendQueryInvalidatesNothingAndFollowsEpochs) {
  SketchBank bank(SketchFamily(TestParams(), 32, 7), /*backend_size=*/256);
  ASSERT_TRUE(bank.AddStreamWithBackend("S", SketchBackendId::kSetSketch,
                                        bank.backend_options()));
  for (uint64_t e = 0; e < 2000; ++e) {
    bank.MutableBackendSketch("S")->Update(e, 1);
  }
  PlanCache cache(PlanCache::Options{});
  const ExprPtr expr = Parse("S");
  const PlanCache::Result before = cache.Query(*expr, bank);
  ASSERT_TRUE(before.ok) << before.error;

  // Deletions flow straight through: the next query sees the shrunken
  // stream with no epoch/invalidiation machinery in between.
  for (uint64_t e = 1000; e < 2000; ++e) {
    bank.MutableBackendSketch("S")->Update(e, -1);
  }
  const PlanCache::Result after = cache.Query(*expr, bank);
  ASSERT_TRUE(after.ok);
  EXPECT_NEAR(after.estimate, 1000.0, 1000.0 * 0.2);
  EXPECT_LT(after.estimate, before.estimate);
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

}  // namespace
}  // namespace setsketch
