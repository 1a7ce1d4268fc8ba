// Tests for the ingest fast path (src/server/epoll_backend,
// src/server/ingest_arena, src/util/varint_bulk and the zero-copy
// protocol decode): the bulk varint decoder must agree byte-for-byte
// with ReadVarint on random and hostile input, the zero-copy
// PUSH_UPDATES decode must agree with the legacy owning decode down to
// the error strings, ScanFrame must agree with FrameDecoder under any
// read chunking, and the served bank and WAL bytes must be bit-identical
// to an in-process reference (SketchBank::ApplyBatch on the same batches,
// direct Wal appends of their payloads). A TSan-targeted suite
// (IngestFastPathTsan, see tools/check.sh) stresses concurrent
// push/query/shutdown through the epoll loop.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/sketch_bank.h"
#include "core/two_level_hash_sketch.h"
#include "hash/prng.h"
#include "server/ingest_arena.h"
#include "server/protocol.h"
#include "server/sketch_client.h"
#include "server/sketch_server.h"
#include "server/wal.h"
#include "util/varint.h"
#include "util/varint_bulk.h"

namespace setsketch {
namespace {

constexpr uint64_t kMasterSeed = 20030609;

SketchServer::Options ServerOptions() {
  SketchServer::Options options;
  options.params.levels = 24;
  options.params.num_second_level = 16;
  options.copies = 16;
  options.seed = kMasterSeed;
  options.shards = 2;
  options.queue_capacity = 64;
  options.witness.pool_all_levels = true;
  return options;
}

// --- Bulk varint decode vs ReadVarint ----------------------------------

/// Reference decode of up to `count` varints via ReadVarint; returns the
/// decoded values and sets *consumed like DecodeVarintRun does.
std::vector<uint64_t> ReferenceRun(const std::string& bytes, size_t count,
                                   size_t* consumed) {
  std::vector<uint64_t> values;
  size_t offset = 0;
  while (values.size() < count) {
    uint64_t value = 0;
    size_t probe = offset;
    if (!ReadVarint(bytes, &probe, &value)) break;
    values.push_back(value);
    offset = probe;
  }
  *consumed = offset;
  return values;
}

void ExpectRunMatchesReference(const std::string& bytes, size_t count) {
  size_t want_used = 0;
  const std::vector<uint64_t> want = ReferenceRun(bytes, count, &want_used);
  std::vector<uint64_t> got(count, 0);
  size_t got_used = 0;
  const size_t n = DecodeVarintRun(
      reinterpret_cast<const uint8_t*>(bytes.data()),
      reinterpret_cast<const uint8_t*>(bytes.data()) + bytes.size(), count,
      got.data(), &got_used);
  ASSERT_EQ(n, want.size()) << "run length mismatch on " << bytes.size()
                            << " bytes";
  EXPECT_EQ(got_used, want_used);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], want[i]) << "value " << i << " differs";
  }
}

TEST(VarintBulkTest, SingleDecodeAgreesWithReadVarintOnRandomBytes) {
  Xoshiro256StarStar rng(kMasterSeed);
  for (int round = 0; round < 20000; ++round) {
    std::string bytes;
    const size_t len = rng.NextBelow(14);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    uint64_t want_value = 0;
    size_t want_offset = 0;
    const bool want_ok = ReadVarint(bytes, &want_offset, &want_value);
    uint64_t got_value = 0;
    const size_t got_len = DecodeVarint(
        reinterpret_cast<const uint8_t*>(bytes.data()),
        reinterpret_cast<const uint8_t*>(bytes.data()) + bytes.size(),
        &got_value);
    ASSERT_EQ(got_len != 0, want_ok) << "round " << round;
    if (want_ok) {
      EXPECT_EQ(got_len, want_offset);
      EXPECT_EQ(got_value, want_value);
    }
  }
}

TEST(VarintBulkTest, RunDecodeAgreesOnRandomValueStreams) {
  Xoshiro256StarStar rng(kMasterSeed + 1);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes;
    const size_t count = rng.NextBelow(200);
    for (size_t i = 0; i < count; ++i) {
      // Mix widths: small ids, medium counts, full 64-bit elements.
      uint64_t value = rng.Next();
      const int width = static_cast<int>(rng.NextBelow(4));
      if (width == 0) value &= 0x7F;
      if (width == 1) value &= 0xFFFF;
      if (width == 2) value &= 0xFFFFFFFFull;
      char tmp[kMaxVarintBytes];
      bytes.append(tmp, static_cast<size_t>(WriteVarint(tmp, value) - tmp));
    }
    ExpectRunMatchesReference(bytes, count);
    // Also ask for more than is present: the run must stop cleanly.
    ExpectRunMatchesReference(bytes, count + 1 + rng.NextBelow(4));
  }
}

TEST(VarintBulkTest, RunDecodeAgreesOnHostileTails) {
  const std::vector<std::string> hostile = {
      std::string(9, '\x80'),                    // truncated 9-byte prefix
      std::string(10, '\x80'),                   // 10th byte continues
      std::string(11, '\x80'),                   // overlong
      std::string(10, '\x80') + '\x01',          // 11-byte varint
      "\x80",                                    // lone continuation
      std::string(9, '\xFF'),                    // truncated, bits set
      std::string(9, '\xFF') + '\x7F',           // legal 10-byte varint
      std::string(9, '\xFF') + '\x01',           // legal, top bit only
      std::string(9, '\xFF') + '\xFF' + '\x00',  // continues past 10
  };
  Xoshiro256StarStar rng(kMasterSeed + 2);
  for (int round = 0; round < 4000; ++round) {
    // Valid prefix, one hostile tail, then (sometimes) valid suffix: the
    // run must stop exactly where ReadVarint stops, never resync.
    std::string bytes;
    size_t valid = rng.NextBelow(40);
    for (size_t i = 0; i < valid; ++i) {
      char tmp[kMaxVarintBytes];
      uint64_t value = rng.Next() >> (8 * rng.NextBelow(8));
      bytes.append(tmp, static_cast<size_t>(WriteVarint(tmp, value) - tmp));
    }
    bytes += hostile[rng.NextBelow(hostile.size())];
    if (rng.NextBelow(2) == 0) {
      char tmp[kMaxVarintBytes];
      bytes.append(tmp, static_cast<size_t>(WriteVarint(tmp, 5) - tmp));
    }
    ExpectRunMatchesReference(bytes, valid + 4);
  }
}

TEST(VarintBulkTest, RunDecodeAgreesOnRandomByteSoup) {
  Xoshiro256StarStar rng(kMasterSeed + 3);
  for (int round = 0; round < 4000; ++round) {
    std::string bytes;
    const size_t len = rng.NextBelow(120);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    ExpectRunMatchesReference(bytes, 1 + rng.NextBelow(64));
  }
}

// --- Zero-copy PUSH_UPDATES decode vs the legacy owning decode ---------

UpdateBatch SampleBatch(Xoshiro256StarStar* rng) {
  UpdateBatch batch;
  const size_t num_names = 1 + rng->NextBelow(5);
  for (size_t i = 0; i < num_names; ++i) {
    std::string name = "stream-";
    name.push_back(static_cast<char>('a' + i));
    if (rng->NextBelow(8) == 0) name.append(rng->NextBelow(200), 'x');
    batch.stream_names.push_back(std::move(name));
  }
  const size_t num_updates = rng->NextBelow(300);
  for (size_t i = 0; i < num_updates; ++i) {
    batch.updates.push_back(
        Update{static_cast<StreamId>(rng->NextBelow(num_names)),
               rng->Next() >> (8 * rng->NextBelow(8)),
               rng->NextBelow(2) == 0 ? int64_t{3} : int64_t{-1}});
  }
  if (rng->NextBelow(2) == 0) {
    batch.site_id = "site-";
    batch.site_id.append(1 + rng->NextBelow(kMaxSiteIdBytes - 5), 's');
    batch.sequence = rng->Next();
  }
  // A third of the corpus carries backend tags (the optional trailing
  // PUSH section), so both decoders fuzz the tagged layout too.
  if (rng->NextBelow(3) == 0) {
    for (size_t i = 0; i < num_names; ++i) {
      batch.stream_backends.push_back(
          static_cast<uint8_t>(rng->NextBelow(3)));
    }
  }
  return batch;
}

/// Both decoders must agree on ok/error-string; on success the view
/// decode must read back the exact same batch.
void ExpectDecodersAgree(const std::string& payload) {
  UpdateBatch legacy;
  std::string legacy_error;
  const bool legacy_ok = DecodePushUpdates(payload, &legacy, &legacy_error);
  UpdateBatchView view;
  std::string view_error;
  const bool view_ok =
      DecodePushUpdates(std::string_view(payload), &view, &view_error);
  ASSERT_EQ(view_ok, legacy_ok) << "legacy: " << legacy_error
                                << " view: " << view_error;
  if (!legacy_ok) {
    EXPECT_EQ(view_error, legacy_error);
    return;
  }
  EXPECT_EQ(view.site_id, legacy.site_id);
  EXPECT_EQ(view.sequence, legacy.sequence);
  ASSERT_EQ(view.stream_names.size(), legacy.stream_names.size());
  for (size_t i = 0; i < view.stream_names.size(); ++i) {
    EXPECT_EQ(view.stream_names[i], legacy.stream_names[i]);
  }
  ASSERT_EQ(view.updates.size(), legacy.updates.size());
  for (size_t i = 0; i < view.updates.size(); ++i) {
    EXPECT_EQ(view.updates[i].stream, legacy.updates[i].stream);
    EXPECT_EQ(view.updates[i].element, legacy.updates[i].element);
    EXPECT_EQ(view.updates[i].delta, legacy.updates[i].delta);
  }
  // Both decoders normalize tags to one per stream (0 = default).
  EXPECT_EQ(view.stream_backends, legacy.stream_backends);
  EXPECT_EQ(legacy.stream_backends.size(), legacy.stream_names.size());
}

TEST(ZeroCopyDecodeTest, AgreesWithLegacyOnRandomBatches) {
  Xoshiro256StarStar rng(kMasterSeed + 10);
  for (int round = 0; round < 400; ++round) {
    const UpdateBatch batch = SampleBatch(&rng);
    ExpectDecodersAgree(
        EncodePushUpdates(batch, batch.site_id, batch.sequence));
  }
}

TEST(ZeroCopyDecodeTest, AgreesWithLegacyOnEveryTruncation) {
  Xoshiro256StarStar rng(kMasterSeed + 11);
  const UpdateBatch batch = SampleBatch(&rng);
  const std::string payload =
      EncodePushUpdates(batch, batch.site_id, batch.sequence);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    ExpectDecodersAgree(payload.substr(0, cut));
  }
}

TEST(ZeroCopyDecodeTest, AgreesWithLegacyOnMutatedPayloads) {
  Xoshiro256StarStar rng(kMasterSeed + 12);
  for (int round = 0; round < 2000; ++round) {
    const UpdateBatch batch = SampleBatch(&rng);
    std::string payload =
        EncodePushUpdates(batch, batch.site_id, batch.sequence);
    const size_t flips = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < flips && !payload.empty(); ++i) {
      payload[rng.NextBelow(payload.size())] ^=
          static_cast<char>(1u << rng.NextBelow(8));
    }
    ExpectDecodersAgree(payload);
  }
}

TEST(ZeroCopyDecodeTest, AgreesWithLegacyOnRandomPayloadSoup) {
  Xoshiro256StarStar rng(kMasterSeed + 13);
  for (int round = 0; round < 4000; ++round) {
    std::string payload;
    const size_t len = rng.NextBelow(160);
    for (size_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    ExpectDecodersAgree(payload);
  }
}

// --- ScanFrame vs FrameDecoder under arbitrary chunking ----------------

TEST(ZeroCopyDecodeTest, ScanFrameAgreesWithFrameDecoderUnderChunking) {
  Xoshiro256StarStar rng(kMasterSeed + 14);
  for (int round = 0; round < 300; ++round) {
    // A stream of small frames, occasionally ending in corruption.
    std::string wire;
    const size_t num_frames = rng.NextBelow(8);
    for (size_t i = 0; i < num_frames; ++i) {
      std::string payload;
      const size_t len = rng.NextBelow(40);
      for (size_t j = 0; j < len; ++j) {
        payload.push_back(static_cast<char>(rng.NextBelow(256)));
      }
      wire += EncodeFrame(Opcode::kPing, payload);
    }
    const bool corrupt = rng.NextBelow(2) == 0;
    if (corrupt) {
      std::string tail = EncodeFrame(Opcode::kPing, "x");
      tail[rng.NextBelow(8)] ^= static_cast<char>(0xFF);
      wire += tail;
    }

    // Reference: FrameDecoder fed in random chunks.
    FrameDecoder decoder;
    std::vector<std::string> want_payloads;
    bool want_error = false;
    std::string want_message;
    size_t offset = 0;
    while (offset < wire.size() && !want_error) {
      const size_t chunk =
          1 + rng.NextBelow(std::min<size_t>(wire.size() - offset, 61));
      decoder.Feed(wire.data() + offset, chunk);
      offset += chunk;
      while (true) {
        Frame frame;
        const FrameDecoder::Status status = decoder.Next(&frame);
        if (status == FrameDecoder::Status::kFrame) {
          want_payloads.push_back(frame.payload);
        } else if (status == FrameDecoder::Status::kError) {
          want_error = true;
          want_message = decoder.error_message();
          break;
        } else {
          break;
        }
      }
    }

    // ScanFrame over an accumulating buffer, arena-style.
    std::vector<std::string> got_payloads;
    bool got_error = false;
    std::string got_message;
    std::string buffer = wire;
    size_t parsed = 0;
    while (parsed < buffer.size()) {
      FrameView frame;
      size_t frame_bytes = 0;
      WireError wire_error;
      std::string message;
      const FrameScanStatus status =
          ScanFrame(std::string_view(buffer).substr(parsed), &frame,
                    &frame_bytes, &wire_error, &message);
      if (status == FrameScanStatus::kFrame) {
        got_payloads.push_back(std::string(frame.payload));
        parsed += frame_bytes;
      } else if (status == FrameScanStatus::kError) {
        got_error = true;
        got_message = message;
        break;
      } else {
        break;
      }
    }

    ASSERT_EQ(got_payloads.size(), want_payloads.size()) << "round "
                                                         << round;
    for (size_t i = 0; i < got_payloads.size(); ++i) {
      EXPECT_EQ(got_payloads[i], want_payloads[i]);
    }
    EXPECT_EQ(got_error, want_error);
    EXPECT_EQ(got_message, want_message);
  }
}

// --- IngestArena -------------------------------------------------------

TEST(IngestArenaTest, GrowsCompactsAndTracksHighWatermark) {
  IngestArena arena;
  EXPECT_EQ(arena.capacity(), 0u);
  EXPECT_EQ(arena.Unparsed().size(), 0u);

  char* w = arena.WritePtr(100);
  std::memcpy(w, std::string(100, 'a').data(), 100);
  arena.CommitRead(100);
  EXPECT_EQ(arena.Unparsed(), std::string(100, 'a'));
  EXPECT_EQ(arena.high_watermark(), 100u);

  arena.Consume(40);
  EXPECT_EQ(arena.Unparsed(), std::string(60, 'a'));

  // Growth preserves the unparsed suffix (compaction moved it down).
  const size_t big = 1u << 20;
  w = arena.WritePtr(big);
  std::memcpy(w, std::string(big, 'b').data(), big);
  arena.CommitRead(big);
  EXPECT_GE(arena.capacity(), big + 60);
  const std::string_view unparsed = arena.Unparsed();
  ASSERT_EQ(unparsed.size(), 60 + big);
  EXPECT_EQ(unparsed.substr(0, 60), std::string(60, 'a'));
  EXPECT_EQ(unparsed.substr(60), std::string(big, 'b'));
  EXPECT_EQ(arena.high_watermark(), big + 60);

  // Fully drained: offsets reset, shrink releases an oversized buffer.
  arena.Consume(60 + big);
  EXPECT_EQ(arena.Unparsed().size(), 0u);
  arena.MaybeShrink(1024);
  EXPECT_EQ(arena.capacity(), 0u);
  EXPECT_EQ(arena.high_watermark(), big + 60);

  // A drained arena under the idle threshold keeps its buffer.
  w = arena.WritePtr(64);
  std::memcpy(w, "xy", 2);
  arena.CommitRead(2);
  arena.Consume(2);
  const size_t small_capacity = arena.capacity();
  EXPECT_GT(small_capacity, 0u);
  arena.MaybeShrink(1u << 20);
  EXPECT_EQ(arena.capacity(), small_capacity);
}

// --- Epoll backend end to end ------------------------------------------

TEST(EpollIngestTest, ServesPushQueryStatsOverEpollBackend) {
  SketchServer server(ServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  auto client = SketchClient::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(client, nullptr) << error;

  Xoshiro256StarStar rng(kMasterSeed + 20);
  UpdateBatch batch;
  batch.stream_names = {"A", "B"};
  for (int i = 0; i < 5000; ++i) {
    batch.updates.push_back(Update{static_cast<StreamId>(i % 2),
                                   rng.Next() % 4096,
                                   i % 7 == 0 ? int64_t{-1} : int64_t{2}});
  }
  const SketchClient::Status push = client->PushUpdatesWithRetry(batch);
  ASSERT_TRUE(push.ok) << push.error;
  EXPECT_EQ(push.accepted, batch.updates.size());

  const QueryResultInfo answer = client->Query("A | B");
  EXPECT_TRUE(answer.ok) << answer.error;
  EXPECT_GT(answer.estimate, 0.0);

  std::string stats_text;
  ASSERT_TRUE(client->Stats(&stats_text).ok);
  EXPECT_NE(stats_text.find("ingest_backend epoll"), std::string::npos)
      << stats_text;

  ASSERT_TRUE(client->Shutdown().ok);
  server.Wait();
  const SketchServer::StatsSnapshot stats = server.stats();
  EXPECT_GT(stats.ingest_bytes_read, 0u);
  EXPECT_GT(stats.ingest_read_calls, 0u);
  EXPECT_GT(stats.ingest_max_frames_per_read, 0u);
  EXPECT_GT(stats.ingest_arena_hwm_bytes, 0u);
  EXPECT_EQ(stats.updates_applied, batch.updates.size());
}

/// The deterministic churned workload of the bit-identity test.
std::vector<UpdateBatch> IdentityWorkload() {
  Xoshiro256StarStar rng(kMasterSeed + 21);
  std::vector<UpdateBatch> batches(40);
  for (UpdateBatch& batch : batches) {
    batch.stream_names = {"A", "B", "C"};
    const size_t count = 1 + rng.NextBelow(700);
    for (size_t i = 0; i < count; ++i) {
      batch.updates.push_back(
          Update{static_cast<StreamId>(rng.NextBelow(3)), rng.Next() % 9999,
                 rng.NextBelow(5) == 0 ? int64_t{-1} : int64_t{1}});
    }
  }
  return batches;
}

/// Every file in `dir`, by name.
std::map<std::string, std::string> ReadFiles(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  return files;
}

/// Each stream's r serialized sketches, in bank stream order.
std::vector<std::string> SerializeBank(const SketchBank& bank) {
  std::vector<std::string> serialized;
  for (const std::string& name : bank.StreamNames()) {
    std::string bytes;
    for (const TwoLevelHashSketch& sketch : bank.Sketches(name)) {
      sketch.SerializeTo(&bytes);
    }
    serialized.push_back(std::move(bytes));
  }
  return serialized;
}

TEST(EpollIngestTest, BankAndWalBitIdenticalToInProcessReference) {
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() / "setsketch_identity_wal";
  std::filesystem::remove_all(base);
  const std::vector<UpdateBatch> batches = IdentityWorkload();
  const std::string site = "identity-site";

  // Served: one client pushes every batch over the wire.
  SketchServer::Options options = ServerOptions();
  options.wal_dir = (base / "served").string();
  options.wal_fsync = false;
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  SketchClient::Options client_options;
  client_options.port = server.port();
  client_options.site_id = site;
  auto client = SketchClient::Connect(client_options, &error);
  ASSERT_NE(client, nullptr) << error;
  for (const UpdateBatch& batch : batches) {
    const SketchClient::Status status = client->PushUpdatesWithRetry(batch);
    ASSERT_TRUE(status.ok) << status.error;
  }
  // Every ACKed batch is appended before its ACK; read the segments now,
  // because a graceful stop folds them into the final checkpoint.
  const std::map<std::string, std::string> served_wal =
      ReadFiles(base / "served");
  client->Shutdown();
  server.Wait();

  // Reference: the same batches through ApplyBatch, and their payloads
  // (stamped with the client's sequences 1, 2, ...) through direct
  // appends to a fresh WAL with the server's options.
  SketchBank reference(
      SketchFamily(options.params, options.copies, options.seed),
      options.backend_size);
  Wal::Options wal_options;
  wal_options.dir = (base / "reference").string();
  wal_options.shards = static_cast<size_t>(options.wal_shards);
  wal_options.fsync = false;
  std::unique_ptr<Wal> wal = Wal::Open(wal_options, 0, &error);
  ASSERT_NE(wal, nullptr) << error;
  for (const std::string& name : batches.front().stream_names) {
    reference.AddStream(name);
  }
  for (size_t i = 0; i < batches.size(); ++i) {
    const uint64_t sequence = client_options.first_sequence + i;
    ASSERT_TRUE(wal->Append(site, sequence,
                            EncodePushUpdates(batches[i], site, sequence),
                            &error))
        << error;
    reference.ApplyBatch(batches[i].stream_names, batches[i].updates);
  }
  wal.reset();
  const std::map<std::string, std::string> reference_wal =
      ReadFiles(base / "reference");

  ASSERT_EQ(server.bank().StreamNames(), reference.StreamNames());
  const std::vector<std::string> served_bank = SerializeBank(server.bank());
  const std::vector<std::string> reference_bank = SerializeBank(reference);
  for (size_t i = 0; i < served_bank.size(); ++i) {
    EXPECT_EQ(served_bank[i], reference_bank[i])
        << "bank state differs for stream " << reference.StreamNames()[i];
  }
  ASSERT_EQ(served_wal.size(), reference_wal.size());
  for (const auto& [name, contents] : reference_wal) {
    const auto it = served_wal.find(name);
    ASSERT_NE(it, served_wal.end()) << "missing WAL file " << name;
    EXPECT_EQ(it->second, contents) << "WAL bytes differ in " << name;
  }
  std::filesystem::remove_all(base);
}

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

std::string RecvFrame(int fd) {
  std::string bytes;
  char tmp[4096];
  while (true) {
    if (bytes.size() >= 12) {
      uint32_t payload_len = 0;
      std::memcpy(&payload_len, bytes.data() + 8, sizeof(payload_len));
      if (bytes.size() >= 12 + payload_len) {
        return bytes.substr(0, 12 + payload_len);
      }
    }
    const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0) return bytes;
    bytes.append(tmp, static_cast<size_t>(n));
  }
}

TEST(EpollIngestTest, ReassemblesFramesTornAcrossReads) {
  SketchServer server(ServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int fd = ConnectTo(server.port());

  UpdateBatch batch;
  batch.stream_names = {"torn"};
  for (int i = 0; i < 100; ++i) {
    batch.updates.push_back(Update{0, static_cast<uint64_t>(i), 1});
  }
  const std::string wire =
      EncodeFrame(Opcode::kPushUpdates, EncodePushUpdates(batch));
  // Dribble the frame a few bytes at a time so the arena sees many
  // partial reads before a complete frame materializes.
  for (size_t offset = 0; offset < wire.size();) {
    const size_t chunk = std::min<size_t>(7, wire.size() - offset);
    ASSERT_EQ(::send(fd, wire.data() + offset, chunk, 0),
              static_cast<ssize_t>(chunk));
    offset += chunk;
  }
  const std::string response = RecvFrame(fd);
  ASSERT_GE(response.size(), 12u);
  EXPECT_EQ(response[5], static_cast<char>(Opcode::kAck));
  ::close(fd);
  server.Stop();
  EXPECT_EQ(server.stats().updates_applied, batch.updates.size());
}

TEST(EpollIngestTest, ErrorBudgetClosesAbusiveConnection) {
  SketchServer::Options options = ServerOptions();
  options.max_connection_errors = 3;
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int fd = ConnectTo(server.port());

  // Valid frames whose payloads are garbage: per-frame recoverable
  // errors that accrue to the connection's budget.
  const std::string bad = EncodeFrame(Opcode::kPushUpdates, "garbage");
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(::send(fd, bad.data(), bad.size(), 0),
              static_cast<ssize_t>(bad.size()));
  }
  // Read until the server closes, then reassemble what it sent: three
  // per-frame errors, then TOO_MANY_ERRORS, then EOF.
  FrameDecoder decoder;
  char tmp[4096];
  while (true) {
    const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0) break;
    decoder.Feed(tmp, static_cast<size_t>(n));
  }
  std::vector<Frame> responses;
  Frame frame;
  while (decoder.Next(&frame) == FrameDecoder::Status::kFrame) {
    responses.push_back(frame);
  }
  ASSERT_EQ(responses.size(), 4u);
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].opcode, Opcode::kError) << "frame " << i;
    ErrorInfo info;
    ASSERT_TRUE(DecodeError(responses[i].payload, &info));
    EXPECT_EQ(info.code, i + 1 < responses.size()
                             ? WireError::kBadPayload
                             : WireError::kTooManyErrors);
  }
  ::close(fd);
  server.Stop();
}

TEST(EpollIngestTest, HeaderCorruptionPoisonsStream) {
  SketchServer server(ServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int fd = ConnectTo(server.port());

  std::string bad = EncodeFrame(Opcode::kPing, "");
  bad[0] ^= static_cast<char>(0xFF);  // break the magic
  ASSERT_EQ(::send(fd, bad.data(), bad.size(), 0),
            static_cast<ssize_t>(bad.size()));
  const std::string response = RecvFrame(fd);
  ASSERT_GE(response.size(), 12u);
  EXPECT_EQ(response[5], static_cast<char>(Opcode::kError));
  char tmp[8];
  EXPECT_EQ(::recv(fd, tmp, sizeof(tmp), 0), 0);
  ::close(fd);
  server.Stop();
}

// --- TSan-targeted concurrency stress (see tools/check.sh) -------------

TEST(IngestFastPathTsan, ConcurrentPushQueryShutdownOverEpoll) {
  SketchServer::Options options = ServerOptions();
  options.io_threads = 2;
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int port = server.port();

  std::atomic<bool> stop{false};
  std::vector<std::thread> pushers;
  std::atomic<uint64_t> pushed{0};
  for (int t = 0; t < 3; ++t) {
    pushers.emplace_back([port, t, &stop, &pushed] {
      std::string connect_error;
      SketchClient::Options client_options;
      client_options.port = port;
      client_options.site_id = "tsan-site-" + std::to_string(t);
      auto client = SketchClient::Connect(client_options, &connect_error);
      if (client == nullptr) return;
      Xoshiro256StarStar rng(kMasterSeed + 30 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        UpdateBatch batch;
        batch.stream_names = {"A", "B"};
        for (int i = 0; i < 128; ++i) {
          batch.updates.push_back(
              Update{static_cast<StreamId>(rng.NextBelow(2)),
                     rng.Next() % 2048, 1});
        }
        const SketchClient::Status status =
            client->PushUpdatesWithRetry(batch);
        if (!status.ok) break;
        pushed += batch.updates.size();
      }
    });
  }
  std::thread querier([port, &stop] {
    std::string connect_error;
    auto client =
        SketchClient::Connect("127.0.0.1", port, &connect_error);
    if (client == nullptr) return;
    while (!stop.load(std::memory_order_relaxed)) {
      client->Query("A & B");
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (std::thread& t : pushers) t.join();
  querier.join();
  server.Stop();
  EXPECT_EQ(server.stats().updates_applied, pushed.load());
}

}  // namespace
}  // namespace setsketch
