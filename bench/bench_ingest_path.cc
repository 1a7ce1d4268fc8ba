// The served ingest path versus in-process apply: loopback ingest of a
// churned two-stream workload into the full-size bank (copies/levels/s
// match bench_fault_tolerance, so rows are comparable across
// trajectories), next to SketchBank::ApplyBatch over the same updates.
//
// Served rows (`fast_*`) run the epoll backend (batched reads, zero-copy
// frame decode, SIMD varint) with the WAL off, on without fsync and on
// with fsync, plus a client batch-width sweep. Their shard queues (8192
// batches) hold the whole run, so admission never bounces — and the
// clock stops at the last ACK, while most updates still wait in the
// queues. These rows therefore time ADMISSION (client encode, recv, frame
// scan, decode, dedup, WAL append, enqueue, ACK), not application.
// `apply_in_process` times the application that the served rows leave
// out: one thread, 4096-update ApplyBatch calls into a fresh bank. For
// this configuration it costs thousands of ns/update, against tens to
// hundreds for the served rows.
//
// Every row is the median of kRepeats runs (repeats interleave the rows,
// so drift on a shared machine spreads over all of them); the JSON also
// carries each row's quartiles.
//
// Exit status enforces the admission gate: the best served wal-off row
// must satisfy ns/update <= apply_in_process ns/update / K, with K from
// SETSKETCH_INGEST_FLOOR (default 16; 0 disables the check), so the
// admission path cannot silently grow toward the cost of the work it
// admits.
//
// Emits a JSON perf trajectory (BENCH_ingest_path.json, or the path in
// SETSKETCH_BENCH_JSON) validated by tools/validate_bench_json.py.
// Honors SETSKETCH_BENCH_SCALE (0 < scale <= 1, default 0.25).

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/sketch_bank.h"
#include "server/sketch_client.h"
#include "server/sketch_server.h"
#include "stream/stream_generator.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

using namespace setsketch;

namespace {

constexpr int kRepeats = 5;
constexpr size_t kApplyBatch = 4096;
constexpr int kCopies = 128;
constexpr uint64_t kSeed = 20030609;

struct Mode {
  std::string name;  // JSON row: "IngestPath/<name>".
  bool served = true;  // false: in-process ApplyBatch, no server.
  bool wal = false;
  bool fsync = false;
  size_t batch_size = 4096;
};

/// One run of one mode: wall time plus the server's read counters.
struct Sample {
  double seconds = 0.0;
  uint64_t bytes_read = 0;
  uint64_t read_calls = 0;
  uint64_t frames_received = 0;
  uint64_t max_frames_per_read = 0;
};

SketchParams BenchParams() {
  SketchParams params;
  params.levels = 24;
  params.num_second_level = 16;
  return params;
}

/// Pushes every update through a fresh loopback server; false on error.
bool RunServed(const Mode& mode, const std::vector<Update>& updates,
               const std::vector<std::string>& names, Sample* sample) {
  const std::filesystem::path wal_dir =
      std::filesystem::temp_directory_path() /
      ("setsketch_bench_ingest_" + mode.name);
  std::filesystem::remove_all(wal_dir);

  SketchServer::Options options;
  options.params = BenchParams();
  options.copies = kCopies;
  options.seed = kSeed;
  options.shards = 2;
  options.queue_capacity = 8192;  // Holds the whole run: no bounces.
  options.witness.pool_all_levels = true;
  if (mode.wal) {
    options.wal_dir = wal_dir.string();
    options.wal_fsync = mode.fsync;
  }
  SketchServer server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "server start failed: " << error << "\n";
    return false;
  }
  SketchClient::Options client_options;
  client_options.port = server.port();
  client_options.site_id = "bench-site";
  auto client = SketchClient::Connect(client_options, &error);
  if (client == nullptr) {
    std::cerr << "connect failed: " << error << "\n";
    return false;
  }

  Stopwatch watch;
  for (size_t begin = 0; begin < updates.size(); begin += mode.batch_size) {
    UpdateBatch batch;
    batch.stream_names = names;
    const size_t end = std::min(updates.size(), begin + mode.batch_size);
    batch.updates.assign(updates.begin() + begin, updates.begin() + end);
    const SketchClient::Status status =
        client->PushUpdatesWithRetry(batch, 10000, 1);
    if (!status.ok) {
      std::cerr << "push failed: " << status.error << "\n";
      return false;
    }
  }
  sample->seconds = watch.Seconds();
  client->Shutdown();
  server.Wait();
  const SketchServer::StatsSnapshot stats = server.stats();
  std::filesystem::remove_all(wal_dir);
  if (stats.updates_applied != updates.size()) {
    std::cerr << mode.name << ": applied " << stats.updates_applied << " of "
              << updates.size() << " updates\n";
    return false;
  }
  sample->bytes_read = stats.ingest_bytes_read;
  sample->read_calls = stats.ingest_read_calls;
  sample->frames_received = stats.frames_received;
  sample->max_frames_per_read = stats.ingest_max_frames_per_read;
  return true;
}

/// Applies every update to a fresh bank in kApplyBatch-update calls.
Sample RunApply(const std::vector<Update>& updates,
                const std::vector<std::string>& names) {
  SketchBank bank(SketchFamily(BenchParams(), kCopies, kSeed));
  for (const std::string& name : names) bank.AddStream(name);
  Sample sample;
  Stopwatch watch;
  for (size_t begin = 0; begin < updates.size(); begin += kApplyBatch) {
    const size_t end = std::min(updates.size(), begin + kApplyBatch);
    const std::vector<Update> batch(updates.begin() + begin,
                                    updates.begin() + end);
    bank.ApplyBatch(names, batch);
  }
  sample.seconds = watch.Seconds();
  return sample;
}

std::string FormatJsonDouble(double value) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed << value;
  return out.str();
}

}  // namespace

int main() {
  const double scale = EnvDouble("SETSKETCH_BENCH_SCALE", 0.25);
  const double gate_k = EnvDouble("SETSKETCH_INGEST_FLOOR", 16.0);
  const int64_t requested = static_cast<int64_t>(1200000 * scale);
  const int64_t total_updates = std::max<int64_t>(200000, requested);

  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.25));
  const PartitionedDataset data = gen.Generate(total_updates / 8, 99);
  std::vector<Update> updates = data.ToInsertUpdates(4);
  ChurnOptions churn;
  churn.seed = 7;
  updates = InjectChurn(updates, churn);
  const std::vector<std::string> names = {"A", "B"};
  const double num_updates = static_cast<double>(updates.size());

  std::cout << "ingest-path bench: " << updates.size()
            << " updates, 2 streams (scale=" << scale << ", " << kRepeats
            << " repeats, gate K=" << gate_k << ")\n\n";

  const std::vector<Mode> modes = {
      {"fast_wal_off", true, false, false, 4096},
      {"fast_wal_nofsync", true, true, false, 4096},
      {"fast_wal_fsync", true, true, true, 4096},
      {"fast_batch_16384", true, false, false, 16384},
      {"fast_batch_65536", true, false, false, 65536},
      {"apply_in_process", false, false, false, kApplyBatch},
  };
  std::vector<std::vector<Sample>> samples(modes.size());
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    for (size_t m = 0; m < modes.size(); ++m) {
      Sample sample;
      if (!modes[m].served) {
        sample = RunApply(updates, names);
      } else if (!RunServed(modes[m], updates, names, &sample)) {
        return 1;
      }
      samples[m].push_back(sample);
    }
  }

  TablePrinter table({"mode", "ns/update", "q1", "q3", "updates/s",
                      "frames/read", "bytes read"});
  std::ostringstream rows;
  double apply_ns = 0.0;
  double best_fast_wal_off_ns = 0.0;
  for (size_t m = 0; m < modes.size(); ++m) {
    const Mode& mode = modes[m];
    std::vector<double> ns;
    for (const Sample& sample : samples[m]) {
      ns.push_back(sample.seconds * 1e9 / num_updates);
    }
    const double median = Median(ns);
    const double q1 = Quantile(ns, 0.25);
    const double q3 = Quantile(ns, 0.75);
    // Socket counters are deterministic up to read chunking; report the
    // last run's.
    const Sample& last = samples[m].back();
    if (!mode.served) apply_ns = median;
    if (mode.served && !mode.wal &&
        (best_fast_wal_off_ns == 0.0 || median < best_fast_wal_off_ns)) {
      best_fast_wal_off_ns = median;
    }
    const double frames_per_read =
        last.read_calls == 0 ? 0.0
                             : static_cast<double>(last.frames_received) /
                                   static_cast<double>(last.read_calls);
    table.AddRow(std::vector<std::string>{
        mode.name, FormatDouble(median, 1), FormatDouble(q1, 1),
        FormatDouble(q3, 1), FormatDouble(1e9 / median, 0),
        FormatDouble(frames_per_read, 2), std::to_string(last.bytes_read)});
    rows << (m == 0 ? "" : ",\n") << "    {\"name\": \"IngestPath/"
         << mode.name << "\", \"ns_per_op\": " << FormatJsonDouble(median)
         << ", \"ns_per_op_q1\": " << FormatJsonDouble(q1)
         << ", \"ns_per_op_q3\": " << FormatJsonDouble(q3)
         << ", \"bytes_read\": " << last.bytes_read
         << ", \"read_calls\": " << last.read_calls
         << ", \"max_frames_per_read\": " << last.max_frames_per_read << "}";
  }
  table.Print(std::cout);

  const double threshold_ns = gate_k > 0.0 ? apply_ns / gate_k : 0.0;
  std::cout << "\nadmission gate: best fast wal-off "
            << FormatDouble(best_fast_wal_off_ns, 1)
            << " ns/update vs apply_in_process "
            << FormatDouble(apply_ns, 1) << " / K=" << FormatDouble(gate_k, 1)
            << " = " << FormatDouble(threshold_ns, 1) << " ns/update\n";

  const char* env = std::getenv("SETSKETCH_BENCH_JSON");
  const std::string path =
      (env != nullptr && *env != '\0') ? env : "BENCH_ingest_path.json";
  std::ofstream out(path);
  out << "{\n  \"bench\": \"ingest_path\",\n";
  out << "  \"scale\": " << FormatJsonDouble(scale) << ",\n";
  out << "  \"updates\": " << updates.size() << ",\n";
  out << "  \"repeats\": " << kRepeats << ",\n";
  out << "  \"apply_ns_per_update\": " << FormatJsonDouble(apply_ns)
      << ",\n";
  out << "  \"best_fast_wal_off_ns_per_update\": "
      << FormatJsonDouble(best_fast_wal_off_ns) << ",\n";
  out << "  \"gate_k\": " << FormatJsonDouble(gate_k) << ",\n";
  out << "  \"gate_threshold_ns_per_update\": "
      << FormatJsonDouble(threshold_ns) << ",\n";
  out << "  \"results\": [\n" << rows.str() << "\n  ]\n}\n";
  if (!out) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";

  if (gate_k > 0.0 && best_fast_wal_off_ns > threshold_ns) {
    std::cerr << "FAIL: best fast wal-off "
              << FormatDouble(best_fast_wal_off_ns, 1)
              << " ns/update exceeds apply_in_process / K = "
              << FormatDouble(threshold_ns, 1) << " ns/update\n";
    return 1;
  }
  return 0;
}
