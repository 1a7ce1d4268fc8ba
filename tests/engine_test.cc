// Integration tests for the StreamEngine: the Figure 1 architecture
// end-to-end (register streams + continuous queries, ingest update streams
// with deletions, answer from synopses, compare against exact tracking).

#include <gtest/gtest.h>

#include "query/stream_engine.h"
#include "stream/stream_generator.h"
#include "util/stats.h"

namespace setsketch {
namespace {

StreamEngine::Options TestOptions(int copies = 256, bool exact = true) {
  StreamEngine::Options options;
  options.params.levels = 24;
  options.params.num_second_level = 16;
  options.copies = copies;
  options.seed = 424242;
  options.track_exact = exact;
  return options;
}

TEST(StreamEngineTest, RegisterStreamIsIdempotent) {
  StreamEngine engine(TestOptions(8, false));
  const StreamId a = engine.RegisterStream("A");
  const StreamId a2 = engine.RegisterStream("A");
  const StreamId b = engine.RegisterStream("B");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(engine.IdOf("A"), std::optional<StreamId>(a));
  EXPECT_EQ(engine.IdOf("zzz"), std::nullopt);
  EXPECT_EQ(engine.stream_names(),
            (std::vector<std::string>{"A", "B"}));
}

TEST(StreamEngineTest, RegisterQueryAutoRegistersStreams) {
  StreamEngine engine(TestOptions(8, false));
  const auto handle = engine.RegisterQuery("(R1 & R2) - R3");
  ASSERT_TRUE(handle.ok());
  EXPECT_TRUE(engine.IdOf("R1").has_value());
  EXPECT_TRUE(engine.IdOf("R2").has_value());
  EXPECT_TRUE(engine.IdOf("R3").has_value());
  EXPECT_EQ(engine.num_queries(), 1);
}

TEST(StreamEngineTest, RegisterQueryReportsParseErrors) {
  StreamEngine engine(TestOptions(8, false));
  const auto handle = engine.RegisterQuery("A & ");
  EXPECT_FALSE(handle.ok());
  EXPECT_FALSE(handle.error.empty());
  EXPECT_EQ(engine.num_queries(), 0);
}

TEST(StreamEngineTest, IngestRejectsUnknownStreams) {
  StreamEngine engine(TestOptions(8, false));
  engine.RegisterStream("A");
  EXPECT_TRUE(engine.Ingest("A", 1, 1));
  EXPECT_FALSE(engine.Ingest("B", 1, 1));
  EXPECT_FALSE(engine.Ingest(Update{99, 1, 1}));
  EXPECT_EQ(engine.updates_processed(), 1);
}

TEST(StreamEngineTest, AnswerInvalidQueryIdNotOk) {
  StreamEngine engine(TestOptions(8, false));
  EXPECT_FALSE(engine.AnswerQuery(0).ok);
  EXPECT_FALSE(engine.AnswerQuery(-1).ok);
}

TEST(StreamEngineTest, EndToEndIntersectionWithDeletions) {
  StreamEngine engine(TestOptions());
  const auto q = engine.RegisterQuery("A & B");
  ASSERT_TRUE(q.ok());

  // Controlled dataset with churn: |A n B| = u/4 net.
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.25));
  const PartitionedDataset data = gen.Generate(4096, 55);
  std::vector<Update> updates = data.ToInsertUpdates(3);
  ChurnOptions churn;
  churn.seed = 77;
  updates = InjectChurn(updates, churn);

  // Stream ids assigned by auto-registration order: A=0, B=1.
  EXPECT_EQ(engine.IngestAll(updates), updates.size());

  const StreamEngine::Answer answer = engine.AnswerQuery(q.id);
  ASSERT_TRUE(answer.ok);
  ASSERT_GT(answer.exact, 0);
  EXPECT_EQ(answer.exact, static_cast<int64_t>(data.regions[3].size()));
  EXPECT_LT(RelativeError(answer.estimate,
                          static_cast<double>(answer.exact)),
            0.7);
}

TEST(StreamEngineTest, AnswerAllCoversEveryQuery) {
  StreamEngine engine(TestOptions(384));
  engine.RegisterQuery("A | B");
  engine.RegisterQuery("A & B");
  engine.RegisterQuery("A - B");
  for (int e = 0; e < 1000; ++e) {
    const uint64_t elem = static_cast<uint64_t>(e) * 2654435761u;
    engine.Ingest("A", elem, 1);
    if (e % 2 == 0) engine.Ingest("B", elem, 1);
  }
  const auto answers = engine.AnswerAll();
  ASSERT_EQ(answers.size(), 3u);
  for (const auto& answer : answers) {
    EXPECT_TRUE(answer.ok) << answer.expression;
    EXPECT_GE(answer.exact, 0);
  }
  // Union >= intersection; union ~ 1000; intersection ~ 500; diff ~ 500.
  EXPECT_GT(answers[0].estimate, answers[1].estimate);
  EXPECT_LT(RelativeError(answers[0].estimate, 1000), 0.4);
  EXPECT_LT(RelativeError(answers[1].estimate, 500), 0.7);
  EXPECT_LT(RelativeError(answers[2].estimate, 500), 0.7);
}

TEST(StreamEngineTest, EstimateNowAdHocQueries) {
  StreamEngine engine(TestOptions(128));
  engine.RegisterStream("A");
  engine.RegisterStream("B");
  for (int e = 0; e < 500; ++e) {
    engine.Ingest("A", static_cast<uint64_t>(e) * 7919, 1);
    engine.Ingest("B", static_cast<uint64_t>(e) * 7919, 1);
  }
  const auto ok_answer = engine.EstimateNow("A & B");
  EXPECT_TRUE(ok_answer.ok);
  EXPECT_LT(RelativeError(ok_answer.estimate, 500), 0.5);

  EXPECT_FALSE(engine.EstimateNow("A & Unknown").ok);
  EXPECT_FALSE(engine.EstimateNow("A & ").ok);
}

TEST(StreamEngineTest, ExactTrackingMatchesGenerator) {
  StreamEngine engine(TestOptions(16));
  engine.RegisterQuery("(A - B) & C");
  VennPartitionGenerator gen(3, ExprDiffIntersectProbs(0.2));
  const PartitionedDataset data = gen.Generate(2048, 88);
  // Id order A=0, B=1, C=2 matches the generator's stream indices.
  engine.IngestAll(data.ToInsertUpdates(5));
  const auto answer = engine.AnswerQuery(0);
  EXPECT_EQ(answer.exact, static_cast<int64_t>(data.regions[5].size()));
}

TEST(StreamEngineTest, SynopsisBytesAccounting) {
  StreamEngine engine(TestOptions(4, false));
  EXPECT_EQ(engine.SynopsisBytes(), 0u);
  engine.RegisterStream("A");
  // 4 copies x 24 levels x (1 total + 16 ones counters) x 8 bytes.
  EXPECT_EQ(engine.SynopsisBytes(), 4u * 24u * (16u + 1u) * 8u);
}

TEST(StreamEngineTest, AnswersCarryConfidenceIntervals) {
  StreamEngine engine(TestOptions(256));
  const auto q = engine.RegisterQuery("A & B");
  ASSERT_TRUE(q.ok());
  for (int e = 0; e < 3000; ++e) {
    const uint64_t elem = static_cast<uint64_t>(e) * 2654435761ULL;
    engine.Ingest("A", elem, 1);
    if (e % 2 == 0) engine.Ingest("B", elem, 1);
  }
  const auto answer = engine.AnswerQuery(q.id);
  ASSERT_TRUE(answer.ok);
  EXPECT_LE(answer.interval.lo, answer.estimate);
  EXPECT_GE(answer.interval.hi, answer.estimate);
  EXPECT_GT(answer.interval.Width(), 0.0);
  // The interval should usually cover the truth (not asserted per-trial;
  // coverage rates are tested in confidence_test). Here only sanity: the
  // truth is within 3 widths.
  EXPECT_NEAR(static_cast<double>(answer.exact), answer.estimate,
              3 * answer.interval.Width() + 1);
}

TEST(StreamEngineTest, PooledAndMleOptionsImproveDefaults) {
  // Same data, three engines: paper-strict, pooled, pooled+MLE. All must
  // produce sane answers; the enhanced modes carry more observations.
  std::vector<StreamEngine::Options> configs(3, TestOptions(192));
  configs[1].witness.pool_all_levels = true;
  configs[2].witness.pool_all_levels = true;
  configs[2].witness.mle_union = true;

  std::vector<int> valid_counts;
  for (const auto& options : configs) {
    StreamEngine engine(options);
    const auto q = engine.RegisterQuery("A & B");
    for (int e = 0; e < 3000; ++e) {
      const uint64_t elem = static_cast<uint64_t>(e) * 48271ULL + 7;
      engine.Ingest("A", elem, 1);
      if (e % 4 != 0) engine.Ingest("B", elem, 1);
    }
    const auto answer = engine.AnswerQuery(q.id);
    ASSERT_TRUE(answer.ok);
    valid_counts.push_back(answer.detail.expression.valid_observations);
  }
  EXPECT_GT(valid_counts[1], 3 * valid_counts[0]);  // Pooling helps.
  EXPECT_GT(valid_counts[2], 3 * valid_counts[0]);
}

TEST(StreamEngineTest, NetZeroChurnLeavesEstimatesAtZero) {
  StreamEngine engine(TestOptions(64));
  engine.RegisterQuery("A");
  // Insert then fully delete everything.
  for (int e = 0; e < 1000; ++e) {
    engine.Ingest("A", static_cast<uint64_t>(e), 2);
  }
  for (int e = 0; e < 1000; ++e) {
    engine.Ingest("A", static_cast<uint64_t>(e), -2);
  }
  const auto answer = engine.AnswerQuery(0);
  ASSERT_TRUE(answer.ok);
  EXPECT_DOUBLE_EQ(answer.estimate, 0.0);
  EXPECT_EQ(answer.exact, 0);
}

}  // namespace
}  // namespace setsketch
