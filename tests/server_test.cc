// End-to-end tests for the TCP sketch-serving subsystem (src/server/):
// the acceptance loopback flow (bulk updates with deletions + a site
// summary + remote set-expression queries), backpressure (RETRY_LATER)
// with zero acknowledged loss across graceful shutdown, shard-queue
// semantics, and the server's protocol-error handling on a raw socket.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "core/sketch_backend.h"
#include "distributed/site.h"
#include "expr/exact_evaluator.h"
#include "expr/parser.h"
#include "hash/prng.h"
#include "query/plan_cache.h"
#include "server/shard_queue.h"
#include "server/sketch_client.h"
#include "server/sketch_server.h"
#include "stream/exact_set_store.h"
#include "stream/stream_generator.h"
#include "util/stats.h"

namespace setsketch {
namespace {

SketchParams TestParams() {
  SketchParams params;
  params.levels = 24;
  params.num_second_level = 16;
  return params;
}

constexpr uint64_t kMasterSeed = 20030609;

SketchServer::Options ServerOptions(int copies, int shards = 2,
                                    size_t queue_capacity = 64) {
  SketchServer::Options options;
  options.params = TestParams();
  options.copies = copies;
  options.seed = kMasterSeed;
  options.shards = shards;
  options.queue_capacity = queue_capacity;
  options.witness.pool_all_levels = true;
  return options;
}

std::unique_ptr<SketchClient> MustConnect(const SketchServer& server) {
  std::string error;
  auto client = SketchClient::Connect("127.0.0.1", server.port(), &error);
  EXPECT_NE(client, nullptr) << error;
  return client;
}

// --- ShardQueue unit behavior ------------------------------------------

TEST(ShardQueueTest, CapacityCountsWorkInFlight) {
  ShardQueue queue(2);
  auto batch = std::make_shared<IngestBatch>();
  EXPECT_TRUE(queue.CanAccept());
  EXPECT_TRUE(queue.Push(batch));
  EXPECT_TRUE(queue.CanAccept());
  EXPECT_TRUE(queue.Push(batch));
  EXPECT_FALSE(queue.CanAccept());  // Full: 2 in flight.
  // Popping alone does not free the slot — TaskDone does.
  ASSERT_NE(queue.PopOrWait(), nullptr);
  EXPECT_FALSE(queue.CanAccept());
  queue.TaskDone();
  EXPECT_TRUE(queue.CanAccept());
  ASSERT_NE(queue.PopOrWait(), nullptr);
  queue.TaskDone();
  queue.WaitDrained();  // Immediate: nothing in flight.
  EXPECT_EQ(queue.stats().depth, 0u);
  EXPECT_EQ(queue.stats().pushed, 2u);
}

TEST(ShardQueueTest, StopDrainsQueuedBatchesBeforeNull) {
  ShardQueue queue(8);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.Push(std::make_shared<IngestBatch>()));
  }
  queue.Stop();
  EXPECT_FALSE(queue.CanAccept());
  EXPECT_FALSE(queue.Push(std::make_shared<IngestBatch>()));
  // All three queued batches are still delivered after Stop.
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(queue.PopOrWait(), nullptr) << "batch " << i;
    queue.TaskDone();
  }
  EXPECT_EQ(queue.PopOrWait(), nullptr);
}

TEST(ShardQueueTest, ShutdownWhileFullDeliversEveryQueuedBatch) {
  // Stop() on a queue at capacity: nothing queued is dropped, the stats
  // stay coherent, and a blocked worker drains to completion.
  constexpr size_t kCapacity = 4;
  ShardQueue queue(kCapacity);
  for (size_t i = 0; i < kCapacity; ++i) {
    ASSERT_TRUE(queue.CanAccept()) << "slot " << i;
    ASSERT_TRUE(queue.Push(std::make_shared<IngestBatch>()));
  }
  ASSERT_FALSE(queue.CanAccept());  // Full.
  EXPECT_EQ(queue.stats().depth, kCapacity);

  std::atomic<uint64_t> drained{0};
  std::thread worker([&queue, &drained] {
    while (queue.PopOrWait() != nullptr) {
      ++drained;
      queue.TaskDone();
    }
  });
  queue.Stop();  // While full, with the worker mid-drain.
  worker.join();
  EXPECT_EQ(drained.load(), kCapacity);
  const ShardQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.pushed, kCapacity);
  EXPECT_EQ(stats.depth, 0u);
  // WaitDrained after full drain returns immediately instead of hanging.
  queue.WaitDrained();
}

TEST(ShardQueueTest, DrainAfterShutdownReturnsNullForever) {
  ShardQueue queue(2);
  ASSERT_TRUE(queue.Push(std::make_shared<IngestBatch>()));
  queue.Stop();
  // The queued batch is still handed out once, then the queue stays
  // terminally empty: repeated PopOrWait calls keep returning nullptr
  // without blocking (a worker re-polling after shutdown must not hang).
  ASSERT_NE(queue.PopOrWait(), nullptr);
  queue.TaskDone();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(queue.PopOrWait(), nullptr) << "poll " << i;
  }
  // Push after shutdown is refused and does not disturb accounting.
  EXPECT_FALSE(queue.Push(std::make_shared<IngestBatch>()));
  const ShardQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.pushed, 1u);
  EXPECT_EQ(stats.depth, 0u);
}

// --- Acceptance: end-to-end loopback flow ------------------------------

TEST(SketchServerTest, EndToEndLoopbackWithSummaryAndQueries) {
  SketchServer server(ServerOptions(/*copies=*/256));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok);

  // Two overlapping streams with churn (insertions AND deletions).
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.25));
  const PartitionedDataset data = gen.Generate(49152, 55);
  std::vector<Update> updates = data.ToInsertUpdates(3);
  ChurnOptions churn;
  churn.seed = 77;
  updates = InjectChurn(updates, churn);
  ASSERT_GE(updates.size(), 100000u);

  ExactSetStore exact(3);
  for (const Update& u : updates) exact.Apply(u);

  const std::vector<std::string> names = {"A", "B"};
  uint64_t acknowledged = 0;
  const size_t kBatch = 8192;
  for (size_t begin = 0; begin < updates.size(); begin += kBatch) {
    UpdateBatch batch;
    batch.stream_names = names;
    const size_t end = std::min(updates.size(), begin + kBatch);
    batch.updates.assign(updates.begin() + begin, updates.begin() + end);
    const SketchClient::Status status = client->PushUpdatesWithRetry(batch);
    ASSERT_TRUE(status.ok) << status.error;
    acknowledged += status.accepted;
  }
  EXPECT_EQ(acknowledged, updates.size());

  // One site ships a summary for a third stream C over the same coins.
  Site site("site-1", TestParams(), 256, kMasterSeed);
  site.ObserveStream("C");
  Xoshiro256StarStar rng(4242);
  for (int e = 0; e < 4000; ++e) {
    const uint64_t element = rng.Next();
    site.Ingest("C", element, 1);
    exact.Apply(Insert(2, element));
  }
  const SketchClient::Status summary_status =
      client->PushSummary(site.EncodeSummary());
  ASSERT_TRUE(summary_status.ok) << summary_status.error;
  EXPECT_EQ(summary_status.accepted, 1u);
  EXPECT_FALSE(summary_status.replaced);
  // Idempotent retransmission.
  const SketchClient::Status again = client->PushSummary(site.EncodeSummary());
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_TRUE(again.replaced);

  // Union, intersection and difference queries answered remotely must hit
  // the same relative-error envelope the in-process engine test asserts.
  const StreamNameMap name_map = {{"A", 0}, {"B", 1}, {"C", 2}};
  for (const std::string& text :
       {std::string("A | B"), std::string("A & B"), std::string("A - B"),
        std::string("A | C")}) {
    const QueryResultInfo answer = client->Query(text);
    ASSERT_TRUE(answer.ok) << text << ": " << answer.error;
    const ParseResult parsed = ParseExpression(text);
    const int64_t truth =
        ExactCardinality(*parsed.expression, exact, name_map);
    ASSERT_GT(truth, 0) << text;
    EXPECT_LT(RelativeError(answer.estimate, static_cast<double>(truth)),
              0.7)
        << text << ": estimate " << answer.estimate << " vs exact " << truth;
    EXPECT_LE(answer.lo, answer.hi) << text;
  }

  std::string stats_text;
  ASSERT_TRUE(client->Stats(&stats_text).ok);
  EXPECT_NE(stats_text.find("updates_applied " +
                            std::to_string(updates.size())),
            std::string::npos)
      << stats_text;
  EXPECT_NE(stats_text.find("summaries_accepted 2"), std::string::npos);

  ASSERT_TRUE(client->Shutdown().ok);
  server.Wait();
  EXPECT_EQ(server.stats().updates_applied, updates.size());
}

TEST(SketchServerTest, TamperedSummaryIsRejectedAndLeavesNoTrace) {
  SketchServer server(ServerOptions(/*copies=*/16));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  Site site("site-1", TestParams(), 16, kMasterSeed);
  site.ObserveStream("C");
  for (uint64_t e = 0; e < 500; ++e) site.Ingest("C", e * 2654435761ULL, 1);
  const std::string summary = site.EncodeSummary(/*compact=*/false);
  // Flip the low bit of the first counter cell of the first sketch copy
  // (right after its fixed-width "SK21" header): that pair no longer sums
  // to its level total, which no update stream can produce.
  const size_t magic = summary.find("12KS");
  ASSERT_NE(magic, std::string::npos);
  std::string tampered = summary;
  tampered[magic + 25] ^= 1;

  const SketchClient::Status rejected = client->PushSummary(tampered);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.code, WireError::kRejectedSummary) << rejected.error;
  EXPECT_EQ(server.stats().summaries_rejected, 1u);
  EXPECT_EQ(server.stats().summaries_accepted, 0u);

  // Nothing of the refused summary was kept: the untampered one is a
  // first arrival, not a replacement.
  const SketchClient::Status accepted = client->PushSummary(summary);
  ASSERT_TRUE(accepted.ok) << accepted.error;
  EXPECT_EQ(accepted.accepted, 1u);
  EXPECT_FALSE(accepted.replaced);
  const QueryResultInfo answer = client->Query("C");
  ASSERT_TRUE(answer.ok) << answer.error;
  EXPECT_GT(answer.estimate, 0.0);

  ASSERT_TRUE(client->Shutdown().ok);
  server.Wait();
}

// --- Served cold answers ≡ in-process plans ------------------------------

TEST(SketchServerTest, ColdAnswerAfterNetZeroPushMatchesInProcessPlan) {
  // A cold served answer is evaluated over the server's live bank; it
  // must equal PlanCache::Query over a reference bank fed the same
  // updates, bit for bit, for every served expression shape.
  constexpr int kCopies = 64;
  const SketchServer::Options options = ServerOptions(kCopies);
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  const std::vector<std::string> names = {"A", "B", "C", "D"};
  SketchBank reference(SketchFamily(options.params, kCopies, options.seed));
  for (const std::string& name : names) reference.AddStream(name);
  PlanCache reference_cache(PlanCache::Options{options.witness, 128});

  std::vector<double> region_probs(16, 1.0 / 15.0);
  region_probs[0] = 0.0;  // Every element lands in at least one stream.
  VennPartitionGenerator gen(4, region_probs);
  const PartitionedDataset data = gen.Generate(8192, 91);
  const auto push = [&](const std::vector<Update>& batch_updates) {
    UpdateBatch batch;
    batch.stream_names = names;
    batch.updates = batch_updates;
    const SketchClient::Status status = client->PushUpdatesWithRetry(batch);
    ASSERT_TRUE(status.ok) << status.error;
    for (const Update& u : batch_updates) {
      reference.Apply(names[u.stream], u.element, u.delta);
    }
  };
  push(data.ToInsertUpdates(5));

  const std::vector<std::string> shapes = {
      "A | B",
      "A | B | C",
      "A & B",
      "A - B",
      "(A - B) & C",
      "(A | B) & C",
      "((A | B) & C) | ((A | B) - D)",
      "(A & B) | (C - D)",
  };
  for (size_t i = 0; i < shapes.size(); ++i) {
    const std::string& text = shapes[i];
    ASSERT_TRUE(client->Query(text).ok) << text;  // Warm the plan.
    const uint64_t element = 0xC01DC0FFEEULL + i;
    push({Update{0, element, 1}, Update{0, element, -1}});
    const SketchServer::StatsSnapshot before = server.stats();
    const QueryResultInfo served = client->Query(text);
    const SketchServer::StatsSnapshot after = server.stats();
    EXPECT_EQ(after.plan_cache_hits, before.plan_cache_hits) << text;

    const PlanCache::Result in_process =
        reference_cache.Query(text, reference);
    ASSERT_EQ(served.ok, in_process.ok) << text << ": " << served.error;
    EXPECT_EQ(served.estimate, in_process.estimate) << text;
    EXPECT_EQ(served.lo, in_process.interval.lo) << text;
    EXPECT_EQ(served.hi, in_process.interval.hi) << text;
  }

  server.Stop();
}

// --- Acceptance: backpressure + graceful drain --------------------------

TEST(SketchServerTest, BackpressureRetryLaterLosesNoAcknowledgedBatch) {
  // One slow shard with a single-slot queue: the round trip is much
  // faster than applying a 5000-update batch at r = 512, so consecutive
  // pushes must observe RETRY_LATER.
  SketchServer::Options options =
      ServerOptions(/*copies=*/512, /*shards=*/1, /*queue_capacity=*/1);
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  constexpr int kBatches = 20;
  constexpr int kPerBatch = 5000;
  std::vector<Update> all;
  all.reserve(kBatches * kPerBatch);
  uint64_t retries_seen = 0;
  uint64_t acknowledged_updates = 0;
  for (int b = 0; b < kBatches; ++b) {
    UpdateBatch batch;
    batch.stream_names = {"A"};
    batch.updates.reserve(kPerBatch);
    for (int i = 0; i < kPerBatch; ++i) {
      const uint64_t element =
          static_cast<uint64_t>(b * kPerBatch + i) * 2654435761ULL;
      // Every 5th update is a deletion of the previous element (net
      // churn), so the drained state exercises signed counters too.
      const int64_t delta = i % 5 == 4 ? -1 : 1;
      batch.updates.push_back(Update{0, element, delta});
    }
    all.insert(all.end(), batch.updates.begin(), batch.updates.end());
    uint64_t retries = 0;
    const SketchClient::Status status = client->PushUpdatesWithRetry(
        batch, /*max_attempts=*/10000, /*backoff_ms=*/1, &retries);
    ASSERT_TRUE(status.ok) << status.error;
    retries_seen += retries;
    acknowledged_updates += status.accepted;
  }
  EXPECT_GT(retries_seen, 0u) << "backpressure never engaged";
  EXPECT_EQ(acknowledged_updates, all.size());

  // Graceful shutdown drains the queue; afterwards the server's bank must
  // be bit-identical to a serial reference ingest — nothing acknowledged
  // was lost, nothing applied twice.
  ASSERT_TRUE(client->Shutdown().ok);
  server.Wait();
  EXPECT_EQ(server.stats().updates_applied, all.size());
  EXPECT_EQ(server.stats().batches_rejected, retries_seen);

  SketchBank reference(SketchFamily(options.params, options.copies,
                                    options.seed));
  reference.AddStream("A");
  for (const Update& u : all) reference.Apply("A", u.element, u.delta);
  const auto& served = server.bank().Sketches("A");
  const auto& expected = reference.Sketches("A");
  ASSERT_EQ(served.size(), expected.size());
  for (size_t i = 0; i < served.size(); ++i) {
    ASSERT_TRUE(served[i] == expected[i]) << "copy " << i;
  }
}

// --- Query/push edge cases over the wire --------------------------------

TEST(SketchServerTest, QueryErrorsAndProvablyEmpty) {
  SketchServer server(ServerOptions(/*copies=*/16));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  UpdateBatch batch;
  batch.stream_names = {"A"};
  batch.updates = {Insert(0, 7), Insert(0, 8)};
  ASSERT_TRUE(client->PushUpdates(batch).ok);

  const QueryResultInfo parse_error = client->Query("A &");
  EXPECT_FALSE(parse_error.ok);
  EXPECT_NE(parse_error.error.find("parse error"), std::string::npos);

  const QueryResultInfo unknown = client->Query("A & Nope");
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("unknown stream"), std::string::npos);

  // Algebraically empty: answered exactly, even for unknown streams' ids.
  const QueryResultInfo empty = client->Query("A - A");
  EXPECT_TRUE(empty.ok) << empty.error;
  EXPECT_DOUBLE_EQ(empty.estimate, 0.0);
}

TEST(SketchServerTest, DrainingServerRefusesNewPushes) {
  SketchServer server(ServerOptions(/*copies=*/8));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Shutdown().ok);

  UpdateBatch batch;
  batch.stream_names = {"A"};
  batch.updates = {Insert(0, 1)};
  const SketchClient::Status refused = client->PushUpdates(batch);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("SHUTTING_DOWN"), std::string::npos);
  server.Wait();
}

// --- Raw-socket protocol robustness -------------------------------------

/// Minimal raw connection for sending hand-crafted (possibly malformed)
/// byte sequences that SketchClient refuses to produce.
class RawConnection {
 public:
  explicit RawConnection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  bool Send(const std::string& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// Reads frames until one is decoded, the peer closes, or decoding
  /// fails client-side. Returns false on close/failure.
  bool ReadFrame(Frame* frame) {
    char buffer[4096];
    while (true) {
      const FrameDecoder::Status status = decoder_.Next(frame);
      if (status == FrameDecoder::Status::kFrame) return true;
      if (status == FrameDecoder::Status::kError) return false;
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) return false;
      decoder_.Feed(buffer, static_cast<size_t>(n));
    }
  }

  /// True iff the server closed the connection (EOF or reset).
  bool WaitClosed() {
    char buffer[256];
    while (true) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) return true;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameDecoder decoder_;
};

TEST(SketchServerTest, MalformedPayloadKeepsConnectionUsable) {
  SketchServer server(ServerOptions(/*copies=*/8));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  RawConnection raw(server.port());
  ASSERT_TRUE(raw.connected());

  // A PUSH_UPDATES frame whose payload is garbage: ERROR BAD_PAYLOAD,
  // but the frame boundary is intact so the connection survives.
  ASSERT_TRUE(raw.Send(EncodeFrame(Opcode::kPushUpdates, "\xff\xff\xff")));
  Frame reply;
  ASSERT_TRUE(raw.ReadFrame(&reply));
  ASSERT_EQ(reply.opcode, Opcode::kError);
  ErrorInfo info;
  ASSERT_TRUE(DecodeError(reply.payload, &info));
  EXPECT_EQ(info.code, WireError::kBadPayload);

  // A response opcode sent as a request: UNKNOWN_OPCODE, still open.
  ASSERT_TRUE(raw.Send(EncodeFrame(Opcode::kPong, "")));
  ASSERT_TRUE(raw.ReadFrame(&reply));
  ASSERT_EQ(reply.opcode, Opcode::kError);
  ASSERT_TRUE(DecodeError(reply.payload, &info));
  EXPECT_EQ(info.code, WireError::kUnknownOpcode);

  // The connection still answers pings afterwards.
  ASSERT_TRUE(raw.Send(EncodeFrame(Opcode::kPing, "still-here")));
  ASSERT_TRUE(raw.ReadFrame(&reply));
  EXPECT_EQ(reply.opcode, Opcode::kPong);
  EXPECT_EQ(reply.payload, "still-here");

  EXPECT_GE(server.stats().protocol_errors, 2u);
  server.Stop();
}

TEST(SketchServerTest, HeaderCorruptionClosesConnectionWithErrorFrame) {
  SketchServer server(ServerOptions(/*copies=*/8));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  RawConnection raw(server.port());
  ASSERT_TRUE(raw.connected());

  ASSERT_TRUE(raw.Send("this is not a frame at all"));
  Frame reply;
  ASSERT_TRUE(raw.ReadFrame(&reply));
  ASSERT_EQ(reply.opcode, Opcode::kError);
  ErrorInfo info;
  ASSERT_TRUE(DecodeError(reply.payload, &info));
  EXPECT_EQ(info.code, WireError::kBadMagic);
  EXPECT_TRUE(raw.WaitClosed());
  server.Stop();
}

TEST(SketchServerTest, ErrorBudgetDropsAbusiveConnection) {
  SketchServer::Options options = ServerOptions(/*copies=*/8);
  options.max_connection_errors = 3;
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  RawConnection raw(server.port());
  ASSERT_TRUE(raw.connected());

  // Three recoverable payload errors exhaust the budget; the server
  // answers each, then drops the connection with TOO_MANY_ERRORS.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(raw.Send(EncodeFrame(Opcode::kPushUpdates, "\xff")));
  }
  Frame reply;
  ErrorInfo info;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(raw.ReadFrame(&reply)) << "reply " << i;
    ASSERT_EQ(reply.opcode, Opcode::kError);
    ASSERT_TRUE(DecodeError(reply.payload, &info));
    EXPECT_EQ(info.code, WireError::kBadPayload);
  }
  ASSERT_TRUE(raw.ReadFrame(&reply));
  ASSERT_EQ(reply.opcode, Opcode::kError);
  ASSERT_TRUE(DecodeError(reply.payload, &info));
  EXPECT_EQ(info.code, WireError::kTooManyErrors);
  EXPECT_TRUE(raw.WaitClosed());
  server.Stop();
}

TEST(SketchServerTest, ConcurrentClientsMergeIntoOneView) {
  SketchServer server(ServerOptions(/*copies=*/128));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Three clients concurrently push disjoint fragments of stream A.
  constexpr int kClients = 3;
  constexpr int kPerClient = 2000;
  std::vector<std::thread> pushers;
  for (int c = 0; c < kClients; ++c) {
    pushers.emplace_back([&server, c] {
      std::string connect_error;
      auto client =
          SketchClient::Connect("127.0.0.1", server.port(), &connect_error);
      ASSERT_NE(client, nullptr) << connect_error;
      UpdateBatch batch;
      batch.stream_names = {"A"};
      for (int i = 0; i < kPerClient; ++i) {
        batch.updates.push_back(
            Insert(0, static_cast<uint64_t>(c * kPerClient + i) * 7919 + 1));
      }
      const SketchClient::Status status =
          client->PushUpdatesWithRetry(batch);
      EXPECT_TRUE(status.ok) << status.error;
    });
  }
  for (std::thread& pusher : pushers) pusher.join();

  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  const QueryResultInfo answer = client->Query("A");
  ASSERT_TRUE(answer.ok) << answer.error;
  EXPECT_LT(RelativeError(answer.estimate, kClients * kPerClient), 0.5);
  server.Stop();
}

// --- Backend-tagged ingest -----------------------------------------------

TEST(SketchServerTest, BackendTaggedPushServesEstimatesAndStats) {
  SketchServer server(ServerOptions(/*copies=*/64));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  // One batch names a default stream D plus two backend-tagged streams:
  // T on theta/KMV and S on SetSketch. The tags ride the PUSH frame.
  UpdateBatch batch;
  batch.stream_names = {"D", "T", "S"};
  batch.stream_backends = {
      0, static_cast<uint8_t>(SketchBackendId::kThetaKmv),
      static_cast<uint8_t>(SketchBackendId::kSetSketch)};
  constexpr int kD = 6000, kT = 4000, kS = 2000;
  for (int e = 0; e < kD; ++e) {
    const uint64_t element = static_cast<uint64_t>(e) * 0x9E3779B9ULL + 1;
    batch.updates.push_back(Insert(0, element));
    if (e < kT) batch.updates.push_back(Insert(1, element));
    if (e < kS) batch.updates.push_back(Insert(2, element));
  }
  const SketchClient::Status status = client->PushUpdatesWithRetry(batch);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(status.accepted, batch.updates.size());

  // Every stream answers through its own synopsis within a loose
  // envelope (backend size 4096 => eps well under 10%).
  const std::pair<const char*, double> probes[] = {
      {"D", kD}, {"T", kT}, {"S", kS}};
  for (const auto& [name, truth] : probes) {
    const QueryResultInfo answer = client->Query(name);
    ASSERT_TRUE(answer.ok) << name << ": " << answer.error;
    EXPECT_LT(RelativeError(answer.estimate, truth), 0.2)
        << name << ": estimate " << answer.estimate << " vs " << truth;
    EXPECT_LE(answer.lo, answer.hi) << name;
  }

  // Expressions cannot mix synopsis types; the refusal is typed, not a
  // crash or a silently wrong number.
  const QueryResultInfo mixed = client->Query("T | S");
  EXPECT_FALSE(mixed.ok);
  EXPECT_NE(mixed.error.find("mixed sketch backends"), std::string::npos)
      << mixed.error;

  // STATS surfaces the backend wiring for operators.
  std::string stats_text;
  ASSERT_TRUE(client->Stats(&stats_text).ok);
  EXPECT_NE(stats_text.find("backend_default two_level_hash"),
            std::string::npos)
      << stats_text;
  EXPECT_NE(stats_text.find("backend_streams 2"), std::string::npos)
      << stats_text;
  EXPECT_NE(stats_text.find("plan_cache_backend_queries"),
            std::string::npos)
      << stats_text;
  server.Stop();
}

TEST(SketchServerTest, BackendConflictRefusedWithoutSideEffects) {
  SketchServer server(ServerOptions(/*copies=*/64));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  // X is born on theta/KMV.
  UpdateBatch first;
  first.stream_names = {"X"};
  first.stream_backends = {static_cast<uint8_t>(SketchBackendId::kThetaKmv)};
  for (int e = 0; e < 1000; ++e) {
    first.updates.push_back(Insert(0, static_cast<uint64_t>(e) * 7919 + 3));
  }
  ASSERT_TRUE(client->PushUpdatesWithRetry(first).ok);
  // The ACK means enqueued, not applied; a query drains the shard queues
  // first, so the count below includes the whole batch.
  ASSERT_TRUE(client->Query("X").ok);
  const uint64_t applied_before = server.stats().updates_applied;
  ASSERT_EQ(applied_before, first.updates.size());

  // A batch re-tagging X as set_sketch is refused wholesale — including
  // the brand-new stream Y riding in the same frame.
  UpdateBatch conflicting;
  conflicting.stream_names = {"X", "Y"};
  conflicting.stream_backends = {
      static_cast<uint8_t>(SketchBackendId::kSetSketch),
      static_cast<uint8_t>(SketchBackendId::kSetSketch)};
  conflicting.updates = {Insert(0, 1), Insert(1, 2)};
  const SketchClient::Status refused = client->PushUpdates(conflicting);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("CONFIG_MISMATCH"), std::string::npos)
      << refused.error;
  EXPECT_NE(refused.error.find("already uses the theta_kmv backend"),
            std::string::npos)
      << refused.error;

  // No trace: nothing applied, Y never registered, X still queryable.
  EXPECT_EQ(server.stats().updates_applied, applied_before);
  EXPECT_FALSE(client->Query("Y").ok);
  const QueryResultInfo x = client->Query("X");
  ASSERT_TRUE(x.ok) << x.error;
  EXPECT_LT(RelativeError(x.estimate, 1000.0), 0.2);

  // Tag 0 means "no preference": untagged updates to X are welcome.
  UpdateBatch untagged;
  untagged.stream_names = {"X"};
  untagged.updates = {Insert(0, 0xFEEDu)};
  EXPECT_TRUE(client->PushUpdatesWithRetry(untagged).ok);
  server.Stop();
}

}  // namespace
}  // namespace setsketch
