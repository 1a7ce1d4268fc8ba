// loadgen: the single load-generator process of the end-to-end benchmark.
//
//   loadgen selftest
//   loadgen preload --workload W --seed N --copies C --ports P[,S1,S2]
//   loadgen run     --workload W --seed N --copies C --ports P[,S1,S2]
//                   --pids PID[,PID..] --seconds S --trace 0|1 --rundir DIR
//
// run.py starts the served system (`sketchtool serve` / `route`), calls
// `preload` to load and warm it, then `run` for the timed window. `run`
// prints a per-op-class report and, as its last line, one JSON object
// with the run's checks and metrics (see README.md). The first port is
// the one clients talk to (a server, or the router); the others are the
// router's shards, whose STATS are scraped too.

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.h"
#include "core/sketch_bank.h"
#include "distributed/summary_codec.h"
#include "expr/canonical.h"
#include "expr/parser.h"
#include "query/plan_cache.h"
#include "server/protocol.h"
#include "server/sketch_client.h"
#include "server/wal.h"
#include "util/backoff.h"
#include "workload.h"

namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;
using setsketch::SketchBank;
using setsketch::SketchClient;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads. The server-side settings (copies, shards, WAL) live in
// run.py, which passes the copy count through.

// Settings shared by every workload.
const DataShape kShape;             // 40 Zipf-skewed streams, 25% deletions
constexpr size_t kPreloadBatch = 4096;
constexpr int kPool = 32;           // expressions a mix draws its queries from
constexpr int kLeafStreams = 16;    // expressions read the 16 largest streams
constexpr int kVerify = 400;        // verification expressions after the window
// Timed verification answers every expression cold this many times,
// making every leaf written again between passes (Verify).
constexpr int kColdPasses = 4;
// The element of that write: outside the inputs' element range.
constexpr uint64_t kBumpElement = uint64_t{1} << 40;
constexpr double kWriteShare = 0.5;
constexpr double kHotShare = 0.3;  // of the queries
constexpr size_t kWriteUpdates = 32;
// A mix is given a schedule this many ops per second long, well above its
// measured capacity, and stops at the end of the window.
constexpr double kScheduleRateCap = 8000;
// Traced mixes replay every push and an evenly spaced sample of this many
// queries.
constexpr size_t kTraceQueries = 2000;
// A one-site closed loop reports its throughput over all but this share
// of its frame cycles, the slowest: those are the ones the host's steal
// lands on (README.md).
constexpr double kSlowCycleShare = 0.1;

// What differs between workloads. The server-side settings (copies,
// shards, WAL) live in run.py, which passes the copy count through.
struct Config {
  std::string name;
  bool mix = false;        // seeded write/query schedule vs closed-loop ingest
  bool federated = false;  // first port is a router
  size_t preload_updates = 0;
  // Closed-loop ingest: `sites` push their `cycle_updates`-update cycle in
  // `batch`-update batches; a traced run replays `trace_pushes` per site.
  int sites = 0;
  size_t batch = 0;
  size_t cycle_updates = 0;
  size_t trace_pushes = 0;
  // Answers per verification expression (first cold, then hot); ingest
  // workloads time them, mixes only check them.
  int verify_repeats = 1;
};

const Config kWorkloads[] = {
    {.name = "ingest_bulk", .preload_updates = 100000, .sites = 2,
     .batch = 2048, .cycle_updates = 131072, .trace_pushes = 128,
     .verify_repeats = 4},
    {.name = "ingest_frames", .preload_updates = 100000, .sites = 1,
     .batch = 32, .cycle_updates = 65536, .trace_pushes = 20000,
     .verify_repeats = 4},
    {.name = "query_mix", .mix = true, .preload_updates = 200000},
    {.name = "federated_mix", .mix = true, .federated = true,
     .preload_updates = 200000},
};

// Sketch configuration of `sketchtool serve/route` with default flags:
// levels 32, s = 32, seed 42, pooled witnesses.
setsketch::SketchParams ServeParams() {
  setsketch::SketchParams params;
  params.levels = 32;
  params.num_second_level = 32;
  return params;
}

std::unique_ptr<SketchBank> NewBank(int copies, int streams) {
  auto bank = std::make_unique<SketchBank>(
      setsketch::SketchFamily(ServeParams(), copies, 42));
  for (int s = 0; s < streams; ++s) bank->AddStream(StreamName(s));
  return bank;
}

setsketch::PlanCache::Options CacheOptions() {
  setsketch::PlanCache::Options options;
  options.witness.pool_all_levels = true;
  return options;
}

std::vector<std::string> StreamNames(const DataShape& shape) {
  std::vector<std::string> names;
  for (int s = 0; s < shape.streams; ++s) names.push_back(StreamName(s));
  return names;
}

setsketch::UpdateBatch ToBatch(const std::vector<std::string>& names,
                               const std::vector<Update>& updates) {
  setsketch::UpdateBatch batch;
  batch.stream_names = names;
  batch.updates = updates;
  return batch;
}

// ---------------------------------------------------------------------------
// Process and STATS probes.

using StatsMap = std::map<std::string, double>;

// One STATS connection per port, kept open so polling adds no connection
// churn to the served system.
bool ScrapeStats(int port, StatsMap* out, std::string* error) {
  static std::map<int, std::unique_ptr<SketchClient>> clients;
  std::unique_ptr<SketchClient>& client = clients[port];
  if (client == nullptr) {
    client = SketchClient::Connect("127.0.0.1", port, error);
    if (client == nullptr) return false;
  }
  std::string text;
  const SketchClient::Status status = client->Stats(&text);
  if (!status.ok) {
    *error = "STATS on port " + std::to_string(port) + ": " + status.error;
    return false;
  }
  std::istringstream in(text);
  std::string key, value;
  while (in >> key && std::getline(in, value)) {
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end != value.c_str()) (*out)[key] = v;
  }
  return true;
}

double Delta(const StatsMap& before, const StatsMap& after,
             const std::string& key) {
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

double Get(const StatsMap& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

// CPU milliseconds (user + system, all threads) of a process.
double CpuMs(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) {
      stime = std::stod(field);
      break;
    }
  }
  return (utime + stime) * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Machine-wide CPU time from /proc/stat: {total, steal} in clock ticks.
// Steal is time the hypervisor ran something else while a CPU of this
// machine had work.
std::pair<double, double> MachineCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {total, steal};
}

// Peak resident set (VmHWM) in MB.
double PeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Checked pushes. RETRY_LATER bounces are re-sent under the same sequence
// with the client's own capped backoff policy (1 ms doubling to 64 ms,
// jitter seeded from the fixed site id and port), so the bounce schedule
// repeats from run to run.

struct PushOutcome {
  bool ok = false;
  std::string error;
  uint64_t bounces = 0;
  Clock::time_point accepted_sent;  // send time of the ACKed attempt
  Clock::time_point acked;
};

class Pusher {
 public:
  Pusher(int port, const std::string& site)
      : site_(site),
        backoff_(1, 64,
                 setsketch::Backoff::DeriveSeed(0x736B636C69656E74ULL, site,
                                                port)) {
    SketchClient::Options options;
    options.port = port;
    options.site_id = site;
    client_ = SketchClient::Connect(options, &error_);
  }
  bool connected() const { return client_ != nullptr; }
  const std::string& error() const { return error_; }
  SketchClient* client() { return client_.get(); }
  uint64_t sequence() const { return sequence_; }

  PushOutcome Push(const setsketch::UpdateBatch& batch) {
    PushOutcome out;
    const uint64_t sequence = ++sequence_;
    for (int failures = 0; failures < 1000;) {
      out.accepted_sent = Clock::now();
      const SketchClient::Status status =
          client_->PushUpdatesAt(batch, sequence);
      out.acked = Clock::now();
      if (status.ok) {
        out.ok = status.accepted == batch.updates.size() && !status.duplicate;
        if (!out.ok) {
          out.error = "ACK accepted " + std::to_string(status.accepted) +
                      " of " + std::to_string(batch.updates.size()) +
                      (status.duplicate ? " (duplicate)" : "");
        }
        return out;
      }
      if (!status.retry) {
        out.error = status.error;
        return out;
      }
      ++out.bounces;
      backoff_.Sleep(++failures);
    }
    out.error = "push bounced 1000 times";
    return out;
  }

 private:
  std::string site_;
  std::string error_;
  setsketch::Backoff backoff_;
  std::unique_ptr<SketchClient> client_;
  uint64_t sequence_ = 0;
};

// ---------------------------------------------------------------------------
// Tracing: in-memory spans, written out when the run ends.

struct Span {
  std::string name;
  uint64_t op = 0;     // op id; children share their op's id
  bool child = false;  // false: the client op itself
  double start_us = 0, dur_us = 0;
  double units = 1;    // updates, streams, lookups or bytes, per span
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  void Op(const std::string& name, uint64_t op, Clock::time_point a,
          Clock::time_point b) {
    spans_.push_back(
        {name, op, false, UsBetween(origin_, a), UsBetween(a, b), 1});
  }
  // Times fn() as a child span of `op`; returns its duration in us.
  template <typename Fn>
  double Child(const std::string& name, uint64_t op, double units, Fn&& fn) {
    const Clock::time_point a = Clock::now();
    fn();
    const Clock::time_point b = Clock::now();
    spans_.push_back(
        {name, op, true, UsBetween(origin_, a), UsBetween(a, b), units});
    return spans_.back().dur_us;
  }
  std::vector<Span>& spans() { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// In-process replicas of the served layers, driven by the traced replay.
struct Layers {
  setsketch::DedupIndex dedup;
  std::unique_ptr<setsketch::Wal> wal;
  setsketch::Placement placement;
  std::vector<std::shared_ptr<const setsketch::SketchSeed>> seeds;
  setsketch::PlanCache cache{CacheOptions()};
  std::vector<std::string> names;

  Layers(const std::string& wal_dir, const std::vector<int>& ports,
         const SketchBank& bank, const DataShape& shape)
      : placement(setsketch::Placement::Mode::kRing, ShardNames(ports), 7,
                  64),
        names(StreamNames(shape)) {
    setsketch::Wal::Options options;
    options.dir = wal_dir;
    options.fsync = false;
    std::string error;
    wal = setsketch::Wal::Open(options, 0, &error);
    for (int i = 0; i < bank.num_copies(); ++i) {
      seeds.push_back(bank.family().seed(i));
    }
  }
  static std::vector<std::string> ShardNames(const std::vector<int>& ports) {
    std::vector<std::string> names;
    for (size_t i = 1; i < ports.size(); ++i) {
      names.push_back("127.0.0.1:" + std::to_string(ports[i]));
    }
    if (names.empty()) names = {"127.0.0.1:1", "127.0.0.1:2"};
    return names;
  }

  // The admission path of one push: client encode, frame scan + view
  // decode, dedup, WAL append, placement of its streams, then the kernel
  // on `bank`. Returns the summed blocking-path (ACK) time in us.
  double ReplayPush(Tracer* t, uint64_t op, const std::string& site,
                    uint64_t seq, const std::vector<Update>& updates,
                    SketchBank* bank, bool federated) {
    setsketch::UpdateBatch batch = ToBatch(names, updates);
    const auto n = static_cast<double>(updates.size());
    std::string payload;
    double path = t->Child("server.encode_push", op, 1, [&] {
      payload = setsketch::EncodePushUpdates(batch, site, seq);
    });
    const std::string frame =
        setsketch::EncodeFrame(setsketch::Opcode::kPushUpdates, payload);
    setsketch::UpdateBatchView view;
    path += t->Child("server.decode", op, n, [&] {
      setsketch::FrameView fv;
      size_t bytes = 0;
      setsketch::WireError code;
      std::string error;
      setsketch::ScanFrame(frame, &fv, &bytes, &code, &error);
      setsketch::DecodePushUpdates(fv.payload, &view, &error);
    });
    path += t->Child("server.dedup", op, 1, [&] {
      if (!dedup.Seen(site, seq)) dedup.Record(site, seq);
    });
    path += t->Child("server.wal_append", op, 1, [&] {
      std::string error;
      wal->Append(site, seq, payload, &error);
    });
    std::vector<std::string> touched;
    for (const Update& u : updates) {
      if (std::find(touched.begin(), touched.end(), names[u.stream]) ==
          touched.end()) {
        touched.push_back(names[u.stream]);
      }
    }
    const double place = t->Child("cluster.placement", op,
                                  static_cast<double>(touched.size()), [&] {
      for (const std::string& name : touched) {
        volatile size_t sink = placement.Targets(name, 2).size();
        (void)sink;
      }
    });
    if (federated) path += place;
    t->Child("core.apply", op, n, [&] { bank->ApplyBatch(names, updates); });
    return path;
  }

  // The query path: parse, canonicalize, a plan-cache hit on the
  // unchanged bank, a cold plan after one leaf's epoch bump, the summary
  // codec for every leaf and their placement. Returns the summed
  // blocking-path time in us for a hot or cold answer; on the router,
  // `full_leaves` leaves changed since it last pulled them, so their
  // summaries cross the codec.
  double ReplayQuery(Tracer* t, uint64_t op, const std::string& text,
                     SketchBank* bank, bool hot, bool federated,
                     size_t full_leaves) {
    setsketch::ParseResult parsed;
    const double parse = t->Child("expr.parse", op, 1, [&] {
      parsed = setsketch::ParseExpression(text);
    });
    const double canon = t->Child("expr.canonicalize", op, 1, [&] {
      volatile size_t sink =
          setsketch::Canonicalize(*parsed.expression).nodes.size();
      (void)sink;
    });
    const std::vector<std::string> leaves = parsed.expression->StreamNames();
    cache.Query(*parsed.expression, *bank);  // compile + memoize (untimed)
    const double hit = t->Child("query.plan_hit", op, 1, [&] {
      cache.Query(*parsed.expression, *bank);
    });
    bank->MutableSketches(leaves.front());  // epoch bump, no counter write
    const double cold = t->Child("query.plan_cold", op, 1, [&] {
      cache.Query(*parsed.expression, *bank);
    });
    // The router estimates every answer straight from its cached
    // summaries, without the plan cache's memo.
    const double uncached = t->Child("query.estimate_uncached", op, 1, [&] {
      cache.EstimateUncached(*parsed.expression, leaves, bank->Groups(leaves));
    });
    double codec = 0;
    for (const std::string& leaf : leaves) {
      setsketch::StreamSummary summary;
      summary.sketches = bank->Sketches(leaf);
      std::string bytes;
      codec += t->Child("distributed.summary_encode", op, 1, [&] {
        setsketch::EncodeStreamSummary(summary, true, &bytes);
      });
      t->Child("distributed.summary_bytes", op,
               static_cast<double>(bytes.size()), [] {});
      codec += t->Child("distributed.summary_decode", op, 1, [&] {
        setsketch::StreamSummary decoded;
        size_t offset = 0;
        std::string error;
        setsketch::DecodeStreamSummary(bytes, &offset, bank->num_copies(),
                                       &seeds, nullptr, &decoded, &error);
      });
    }
    const double place = t->Child("cluster.placement", op,
                                  static_cast<double>(leaves.size()), [&] {
      for (const std::string& name : leaves) {
        volatile size_t sink = placement.Targets(name, 2).size();
        (void)sink;
      }
    });
    if (!federated) return parse + canon + (hot ? hit : cold);
    // The router parses, places every leaf, pulls summaries (full ones
    // only for changed leaves) and always estimates from the merge.
    return parse + place + uncached +
           codec * static_cast<double>(full_leaves) /
               static_cast<double>(leaves.size());
  }
};

// ---------------------------------------------------------------------------
// Served answers and their checks.

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Accuracy envelope of a served answer (README.md):
//   |estimate - exact| <= 0.5 * exact + 3 * |leaf union| / sqrt(copies).
// A witness estimate errs by the union estimate's relative error times
// the answer (the first term; Figure 5's union stage alone errs by up to
// ~0.35) plus the union times the witness fraction's sampling error,
// whose standard deviation is at most 0.42 / sqrt(copies) with pooled
// witnesses (the second term is about 7 of those).
constexpr double kAnswerShare = 0.5;
constexpr double kUnionSigmas = 3.0;
// Today's union stage misses the envelope on a few expressions per seed
// (CHANGES.md, FOUND), so a run fails only past these limits: an answer
// more than kMaxEnvelopes envelopes off, more than kMaxOutsideShare of
// the verification answers outside the envelope, their mean relative
// error above kMaxRelErrorMean (an estimator that answers 0 scores 1), or
// ~95% intervals that hold the exact answer for less than kMinCoverage
// of the answers. Over 160 seeded runs of the four workloads the worst
// values were 3.05 envelopes, 11 of 400 outside, 0.70 and 0.935
// (README.md).
constexpr double kMaxEnvelopes = 8.0;
constexpr double kMaxOutsideShare = 0.10;
constexpr double kMaxRelErrorMean = 0.95;
constexpr double kMinCoverage = 0.8;

struct Checker {
  double copies = 1;
  uint64_t checked = 0, mismatched = 0, out_of_bound = 0, covered = 0;
  // Verification answers: the first answer of each verification
  // expression over the final state, so every seed and run length checks
  // the same number of distinct expressions.
  uint64_t verified = 0, verified_outside = 0;
  uint64_t positive = 0;
  double rel_error_sum = 0;
  double signed_error_sum = 0, exact_sum = 0;  // of the same answers
  double worst = 0;  // largest |error| / envelope seen
  std::string worst_text;
  std::string first_problem;

  void Check(const setsketch::QueryResultInfo& served,
             const setsketch::PlanCache::Result& ref,
             const Oracle& oracle, const OracleExpr& expr,
             const std::string& text, bool verification) {
    ++checked;
    if (!served.ok || !ref.ok || !SameBits(served.estimate, ref.estimate) ||
        !SameBits(served.lo, ref.interval.lo) ||
        !SameBits(served.hi, ref.interval.hi)) {
      ++mismatched;
      Note("served answer differs from the in-process reference for '" +
           text + "': served " + (served.ok ? std::to_string(served.estimate)
                                            : served.error) +
           ", reference " +
           (ref.ok ? std::to_string(ref.estimate) : ref.error));
      return;
    }
    const double exact = static_cast<double>(oracle.Evaluate(expr));
    const double leaf_union = static_cast<double>(oracle.LeafUnion(expr));
    const double scaled =
        std::abs(served.estimate - exact) /
        std::max(1.0, kAnswerShare * exact +
                          kUnionSigmas * leaf_union / std::sqrt(copies));
    if (scaled > worst) {
      worst = scaled;
      worst_text = text + " est " + std::to_string(served.estimate) +
                   " exact " + std::to_string(exact) + " union " +
                   std::to_string(leaf_union);
    }
    if (scaled > 1.0) ++out_of_bound;
    if (served.lo <= exact && exact <= served.hi) ++covered;
    if (!verification) return;
    ++verified;
    if (scaled > 1.0) ++verified_outside;
    // Relative error is reported where it is meaningful for a witness
    // estimator: answers of at least 5% of the expression's leaf union.
    if (exact > 0 && exact >= 0.05 * leaf_union) {
      ++positive;
      rel_error_sum += std::abs(served.estimate - exact) / exact;
      signed_error_sum += served.estimate - exact;
      exact_sum += exact;
    }
  }
  void Note(const std::string& what) {
    if (first_problem.empty()) first_problem = what;
  }
  double OutsideShare() const { return Share(verified_outside, verified); }
  double RelErrorMean() const {
    return positive ? rel_error_sum / static_cast<double>(positive) : 0.0;
  }
  double Coverage() const { return Share(covered, checked); }
  // Summed signed error over summed exact answers: the estimator's bias.
  double Bias() const {
    return exact_sum > 0 ? signed_error_sum / exact_sum : 0.0;
  }
  // The accuracy limits above; empty when the answers are within them.
  std::vector<std::string> Problems() const {
    std::vector<std::string> out;
    if (worst > kMaxEnvelopes) {
      out.push_back("answer " + std::to_string(worst) +
                    " envelopes off the exact one: " + worst_text);
    }
    if (OutsideShare() > kMaxOutsideShare) {
      out.push_back(std::to_string(verified_outside) + " of " +
                    std::to_string(verified) +
                    " verification answers outside the envelope");
    }
    if (RelErrorMean() > kMaxRelErrorMean) {
      out.push_back("mean relative error " + std::to_string(RelErrorMean()));
    }
    if (Coverage() < kMinCoverage) {
      out.push_back("intervals hold the exact answer for only " +
                    std::to_string(covered) + " of " +
                    std::to_string(checked) + " answers");
    }
    return out;
  }

 private:
  static double Share(uint64_t part, uint64_t whole) {
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
  }
};

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name, unit;
  double value;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<Metric> end_to_end, per_layer;
  std::vector<std::string> problems;
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

std::string Json(const RunResult& r, bool trace) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  const std::vector<Metric>& metrics = trace ? r.per_layer : r.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

struct Args {
  std::string mode, workload, rundir = ".";
  uint64_t seed = 1;
  int copies = 128;
  double seconds = 10;
  bool trace = false;
  std::vector<int> ports, pids;
};

std::vector<int> IntList(const std::string& text) {
  std::vector<int> out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(std::stoi(item));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The benchmark proper.

class Bench {
 public:
  Bench(const Args& args, const Config& config)
      : args_(args),
        config_(config),
        names_(StreamNames(kShape)),
        pool_(MakeExpressionPool(SubSeed(args.seed, 2), kPool, kLeafStreams)),
        verify_(MakeExpressionPool(SubSeed(args.seed, 4), kVerify,
                                   kLeafStreams)) {
    for (const std::string& text : pool_) {
      pool_exprs_.push_back(ParseOracleExpr(text));
      pool_leaves_.push_back(ExpressionStreams(text));
    }
    for (const std::string& text : verify_) {
      verify_exprs_.push_back(ParseOracleExpr(text));
    }
  }

  std::vector<std::vector<Update>> PreloadBatches(UpdateGenerator* gen) {
    return MakeBatches(gen, config_.preload_updates, kPreloadBatch);
  }

  // Waits until every server's STATS shows `expected` updates applied
  // (each shard holds every stream: two shards, one replica).
  bool WaitApplied(const std::vector<double>& expected, std::string* error) {
    const std::vector<int> ports = ServerPorts();
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    for (;;) {
      bool done = true;
      for (size_t i = 0; i < ports.size(); ++i) {
        StatsMap stats;
        if (!ScrapeStats(ports[i], &stats, error)) return false;
        const double applied = Get(stats, "updates_applied");
        if (applied > expected[i]) {
          *error = "port " + std::to_string(ports[i]) + " applied " +
                   std::to_string(applied) + " updates, more than the " +
                   std::to_string(expected[i]) + " ACKed";
          return false;
        }
        done = done && applied == expected[i];
      }
      if (done) return true;
      if (Clock::now() > deadline) {
        *error = "updates not applied within 60 s";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  // Ports whose updates_applied counts ingest: the server, or the shards.
  std::vector<int> ServerPorts() const {
    if (!config_.federated) return {args_.ports[0]};
    return std::vector<int>(args_.ports.begin() + 1, args_.ports.end());
  }

  int Preload() {
    UpdateGenerator gen(kShape, SubSeed(args_.seed, 1));
    Pusher pusher(args_.ports[0], "preload");
    if (!pusher.connected()) return Fail("connect: " + pusher.error());
    double pushed = 0;
    uint64_t bounces = 0;
    const Clock::time_point t0 = Clock::now();
    for (const auto& batch : PreloadBatches(&gen)) {
      const PushOutcome out = pusher.Push(ToBatch(names_, batch));
      if (!out.ok) return Fail("preload push: " + out.error);
      pushed += static_cast<double>(batch.size());
      bounces += out.bounces;
    }
    const Clock::time_point t1 = Clock::now();
    std::string error;
    if (!WaitApplied(std::vector<double>(ServerPorts().size(), pushed),
                     &error)) {
      return Fail(error);
    }
    const Clock::time_point t2 = Clock::now();
    std::cout << "  preload: pushed " << pushed << " updates in "
              << MsBetween(t0, t1) << " ms (" << bounces
              << " RETRY_LATER bounces), applied " << MsBetween(t1, t2)
              << " ms later" << std::endl;
    if (config_.mix) {
      // Warm-up: compile every pool plan (and, on the router, cache every
      // leaf summary) so the window's first answers are not misses.
      for (const std::string& text : pool_) {
        const setsketch::QueryResultInfo r = pusher.client()->Query(text);
        if (!r.ok) return Fail("warm-up query '" + text + "': " + r.error);
      }
    }
    return 0;
  }

  int Run() {
    RunResult result;
    const Clock::time_point origin = Clock::now();
    Tracer tracer(origin);
    const bool federated = config_.federated;

    // The preload's reference state, rebuilt from the same seed.
    UpdateGenerator gen(kShape, SubSeed(args_.seed, 1));
    const auto preload = PreloadBatches(&gen);
    auto ref = NewBank(args_.copies, kShape.streams);
    Oracle oracle(kShape);
    for (const auto& batch : preload) {
      ref->ApplyBatch(names_, batch);
      if (!oracle.Apply(batch)) result.Fail("illegal deletion in preload");
    }
    std::string error;
    StatsMap before_entry, after_entry;
    std::vector<StatsMap> before(ServerPorts().size()),
        after(ServerPorts().size());
    auto scrape = [&](StatsMap* entry, std::vector<StatsMap>* servers) {
      bool ok = ScrapeStats(args_.ports[0], entry, &error);
      for (size_t i = 0; ok && i < servers->size(); ++i) {
        ok = ScrapeStats(ServerPorts()[i], &(*servers)[i], &error);
      }
      return ok;
    };
    auto cpu = [&] {
      double ms = 0;
      for (const int pid : args_.pids) ms += CpuMs(pid);
      return ms;
    };

    std::unique_ptr<Layers> traced;
    if (args_.trace) {
      traced = std::make_unique<Layers>(args_.rundir + "/trace-wal",
                                        args_.ports, *ref, kShape);
    }
    Layers* layers = traced.get();
    Checker checker;
    checker.copies = args_.copies;
    std::vector<double> push_ms, hot_ms, cold_ms, query_ms;
    // Mixes: the ops that started in each whole second of the window.
    struct Second {
      std::vector<double> push_ms, cold_ms;
      double updates = 0;  // ACKed
    };
    std::vector<Second> per_second;
    std::vector<double> push_trace_e2e, push_trace_path, query_trace_e2e,
        query_trace_path;
    double window_ms = 0, acked_updates = 0, cpu_ms = 0;
    double fast_cycles_updates_per_s = 0;  // one-site closed loop
    double steal_share = 0;  // of the machine's CPU time in the window
    uint64_t window_ops = 0, bounces = 0;
    if (!scrape(&before_entry, &before)) return Fail(error);
    // STATS around the timed queries: the window for the mixes, the
    // post-ingest answers for the ingest workloads.
    std::vector<StatsMap> query_before, query_after;
    const double preloaded = Get(before[0], "updates_applied");

    if (!config_.mix) {
      // ---- Closed-loop ingest: every site pushes its legal cycle of
      // batches over and over until the window closes, then the window
      // stays open until STATS shows every ACKed update applied.
      struct Site {
        std::vector<std::vector<Update>> cycle;
        std::vector<double> ack_ms;
        std::vector<std::pair<Clock::time_point, Clock::time_point>> times;
        uint64_t pushes = 0, bounces = 0;
        std::string error;
      };
      std::vector<Site> sites(static_cast<size_t>(config_.sites));
      for (int s = 0; s < config_.sites; ++s) {
        UpdateGenerator site_gen(kShape, SubSeed(args_.seed, 10 + s));
        sites[s].cycle =
            MakeBatches(&site_gen, config_.cycle_updates, config_.batch);
        Oracle fresh(kShape);
        for (const auto& batch : sites[s].cycle) {
          if (!fresh.Apply(batch)) result.Fail("illegal deletion in cycle");
        }
      }
      std::vector<std::unique_ptr<Pusher>> pushers;
      for (int s = 0; s < config_.sites; ++s) {
        pushers.push_back(std::make_unique<Pusher>(
            args_.ports[0], "site-" + std::to_string(s)));
        if (!pushers.back()->connected()) return Fail(pushers.back()->error());
      }
      const double cpu0 = cpu();
      const auto machine0 = MachineCpuTicks();
      const Clock::time_point t0 = Clock::now();
      const Clock::time_point stop =
          t0 + std::chrono::microseconds(
                   static_cast<int64_t>(args_.seconds * 1e6));
      std::vector<std::thread> threads;
      for (int s = 0; s < config_.sites; ++s) {
        threads.emplace_back([&, s] {
          Site& site = sites[s];
          for (size_t i = 0; Clock::now() < stop; ++i) {
            const auto& batch = site.cycle[i % site.cycle.size()];
            const PushOutcome out = pushers[s]->Push(ToBatch(names_, batch));
            if (!out.ok) {
              site.error = out.error;
              return;
            }
            site.ack_ms.push_back(MsBetween(out.accepted_sent, out.acked));
            site.times.emplace_back(out.accepted_sent, out.acked);
            site.bounces += out.bounces;
            ++site.pushes;
          }
        });
      }
      for (std::thread& t : threads) t.join();
      for (const Site& site : sites) {
        if (!site.error.empty()) return Fail("push: " + site.error);
        for (uint64_t i = 0; i < site.pushes; ++i) {
          acked_updates += static_cast<double>(
              site.cycle[i % site.cycle.size()].size());
        }
      }
      if (config_.sites == 1) {
        // A frame's cycle runs from the previous ACK (or the window's
        // start) to its own ACK; the window is the sum of the cycles.
        const Site& site = sites[0];
        std::vector<std::pair<double, double>> cycles;  // (ms, updates)
        Clock::time_point previous = t0;
        for (uint64_t i = 0; i < site.pushes; ++i) {
          cycles.emplace_back(
              MsBetween(previous, site.times[i].second),
              static_cast<double>(site.cycle[i % site.cycle.size()].size()));
          previous = site.times[i].second;
        }
        std::sort(cycles.begin(), cycles.end());
        const auto kept = static_cast<size_t>(
            std::ceil(static_cast<double>(cycles.size()) *
                      (1.0 - kSlowCycleShare)));
        double kept_ms = 0, kept_updates = 0;
        for (size_t i = 0; i < kept; ++i) {
          kept_ms += cycles[i].first;
          kept_updates += cycles[i].second;
        }
        fast_cycles_updates_per_s = kept_updates / (kept_ms / 1000.0);
      }
      if (!WaitApplied(std::vector<double>(ServerPorts().size(),
                                           preloaded + acked_updates),
                       &error)) {
        return Fail(error);
      }
      const Clock::time_point drained = Clock::now();
      cpu_ms = cpu() - cpu0;
      const auto machine1 = MachineCpuTicks();
      steal_share = (machine1.second - machine0.second) /
                    std::max(1.0, machine1.first - machine0.first);
      window_ms = MsBetween(t0, drained);
      if (!scrape(&after_entry, &after)) return Fail(error);

      // Reference and oracle: preload + k full cycles + a prefix per site
      // (counters are linear, so k cycles merge in as k copies).
      for (int s = 0; s < config_.sites; ++s) {
        Site& site = sites[s];
        window_ops += site.pushes;
        bounces += site.bounces;
        push_ms.insert(push_ms.end(), site.ack_ms.begin(), site.ack_ms.end());
        const size_t n = site.cycle.size();
        const uint64_t full = site.pushes / n;
        const size_t prefix = site.pushes % n;
        auto cycle_bank = NewBank(args_.copies, kShape.streams);
        for (size_t b = 0; b < n; ++b) {
          if (b == prefix) MergeInto(*cycle_bank, ref.get(), 1);
          cycle_bank->ApplyBatch(names_, site.cycle[b]);
          oracle.AddScaled(site.cycle[b], static_cast<int64_t>(full));
          if (b < prefix) oracle.Apply(site.cycle[b]);
        }
        MergeInto(*cycle_bank, ref.get(), full);
        if (args_.trace) {
          // Replay an evenly spaced sample of the window's pushes.
          auto trace_bank = NewBank(args_.copies, kShape.streams);
          const uint64_t stride =
              std::max<uint64_t>(1, site.pushes / config_.trace_pushes);
          for (uint64_t i = 0; i < site.pushes; i += stride) {
            const uint64_t op = (static_cast<uint64_t>(s) << 40) | i;
            tracer.Op("op.push", op, site.times[i].first, site.times[i].second);
            push_trace_e2e.push_back(site.ack_ms[i]);
            push_trace_path.push_back(
                layers->ReplayPush(&tracer, op, "site-" + std::to_string(s),
                                  i + 1, site.cycle[i % n], trace_bank.get(),
                                  federated) /
                1000.0);
          }
        }
      }

      // ---- Answers right after the ingest, timed (and traced); the
      // planner's STATS deltas cover exactly these answers.
      query_before = after;
      if (!Verify(pushers[0].get(), ref.get(), oracle, &checker, &result,
                  &hot_ms, &cold_ms, &query_ms, &tracer, layers,
                  &query_trace_e2e, &query_trace_path, &error)) {
        return Fail(error);
      }
      StatsMap ignored;
      query_after.resize(after.size());
      if (!scrape(&ignored, &query_after)) return Fail(error);
      result.attempted = window_ops + query_ms.size() + (kColdPasses - 1);
    } else {
      // ---- Mix: one thread runs a seeded schedule of writes and queries
      // back to back, one op in flight, and stops at the first schedule
      // block that would start after the window.
      ScheduleSpec spec;
      spec.ops = static_cast<size_t>(kScheduleRateCap * args_.seconds);
      spec.write_share = kWriteShare;
      spec.hot_share = kHotShare;
      spec.write_updates = kWriteUpdates;
      std::vector<Op> ops = MakeSchedule(spec, kPool, pool_leaves_, &gen,
                                         SubSeed(args_.seed, 3));
      Pusher pusher(args_.ports[0], "mix");
      if (!pusher.connected()) return Fail(pusher.error());
      std::vector<setsketch::QueryResultInfo> answers(ops.size());
      std::vector<double> op_ms(ops.size(), 0);
      std::vector<std::pair<Clock::time_point, Clock::time_point>> times(
          ops.size());
      const auto seconds = static_cast<size_t>(args_.seconds);
      per_second.assign(seconds, Second{});
      const double cpu0 = cpu();
      const auto machine0 = MachineCpuTicks();
      const Clock::time_point t0 = Clock::now();
      const Clock::time_point stop =
          t0 + std::chrono::microseconds(
                   static_cast<int64_t>(args_.seconds * 1e6));
      Clock::time_point last = t0;
      for (size_t i = 0; i < ops.size(); ++i) {
        const Clock::time_point start = Clock::now();
        if (i % kScheduleBlock == 0 && start >= stop) {
          ops.resize(i);
          break;
        }
        // The whole second of the window this op started in, if any.
        const auto sec = static_cast<size_t>(MsBetween(t0, start) / 1000.0);
        Second* second = sec < seconds ? &per_second[sec] : nullptr;
        const Op& op = ops[i];
        if (op.kind == Op::kWrite) {
          const PushOutcome out = pusher.Push(ToBatch(names_, op.updates));
          last = out.acked;
          if (!out.ok) {
            ++result.failed;
            result.Fail("push: " + out.error);
            continue;
          }
          bounces += out.bounces;
          acked_updates += static_cast<double>(op.updates.size());
          op_ms[i] = MsBetween(start, out.acked);
          push_ms.push_back(op_ms[i]);
          if (second != nullptr) {
            second->push_ms.push_back(op_ms[i]);
            second->updates += static_cast<double>(op.updates.size());
          }
        } else {
          const setsketch::QueryResultInfo got =
              pusher.client()->Query(pool_[static_cast<size_t>(op.expr)]);
          last = Clock::now();
          if (!got.ok) ++result.failed;
          answers[i] = got;
          op_ms[i] = MsBetween(start, last);
          (op.hot ? hot_ms : cold_ms).push_back(op_ms[i]);
          query_ms.push_back(op_ms[i]);
          if (second != nullptr && !op.hot) {
            second->cold_ms.push_back(op_ms[i]);
          }
        }
        times[i] = {start, last};
      }
      std::vector<double> expected(ServerPorts().size(),
                                   preloaded + acked_updates);
      if (!WaitApplied(expected, &error)) return Fail(error);
      cpu_ms = cpu() - cpu0;
      const auto machine1 = MachineCpuTicks();
      steal_share = (machine1.second - machine0.second) /
                    std::max(1.0, machine1.first - machine0.first);
      window_ms = MsBetween(t0, last);
      window_ops = ops.size();
      result.attempted = ops.size();
      if (!scrape(&after_entry, &after)) return Fail(error);
      query_before = before;
      query_after = after;

      // Replay the schedule in-process: every served answer against the
      // reference bank and the oracle, op by op.
      setsketch::PlanCache ref_cache(CacheOptions());
      // Streams written since the router last pulled their summary.
      std::vector<bool> stale(static_cast<size_t>(kShape.streams));
      const size_t trace_stride =
          std::max<size_t>(1, query_ms.size() / kTraceQueries);
      for (size_t i = 0, queries = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        if (op.kind == Op::kWrite) {
          stale[op.updates.front().stream] = true;
          if (args_.trace) {
            tracer.Op("op.push", i, times[i].first, times[i].second);
            push_trace_e2e.push_back(op_ms[i]);
            push_trace_path.push_back(
                layers->ReplayPush(&tracer, i, "mix",
                                  static_cast<uint64_t>(push_trace_e2e.size()),
                                  op.updates, ref.get(), federated) /
                1000.0);
          } else {
            ref->ApplyBatch(names_, op.updates);
          }
          if (!oracle.Apply(op.updates)) result.Fail("illegal deletion");
          continue;
        }
        const auto e = static_cast<size_t>(op.expr);
        checker.Check(answers[i], ref_cache.Query(pool_[e], *ref), oracle,
                      *pool_exprs_[e], pool_[e], false);
        size_t full_leaves = 0;
        for (const int leaf : pool_leaves_[e]) {
          full_leaves += stale[static_cast<size_t>(leaf)];
          stale[static_cast<size_t>(leaf)] = false;
        }
        if (args_.trace && queries++ % trace_stride == 0) {
          tracer.Op(op.hot ? "op.query.hot" : "op.query.cold", i,
                    times[i].first, times[i].second);
          query_trace_e2e.push_back(op_ms[i]);
          query_trace_path.push_back(
              layers->ReplayQuery(&tracer, i, pool_[e], ref.get(), op.hot,
                                 federated, full_leaves) /
              1000.0);
        }
      }
      // Verification answers over the final state (untimed).
      Verify(&pusher, ref.get(), oracle, &checker, &result, nullptr, nullptr,
             nullptr, nullptr, nullptr, nullptr, nullptr, &error);
      result.attempted += verify_.size();
    }

    // ---- Served-system checks over the window's STATS deltas.
    if (oracle.illegal_deletions() != 0) {
      result.Fail("oracle saw illegal deletions");
    }
    if (checker.mismatched) result.Fail(checker.first_problem);
    for (const std::string& p : checker.Problems()) result.Fail(p);
    for (size_t i = 0; i < after.size(); ++i) {
      const double applied = Delta(before[i], after[i], "updates_applied");
      if (applied != acked_updates) {
        result.Fail("port " + std::to_string(ServerPorts()[i]) + " applied " +
                    std::to_string(applied) + " updates in the window, " +
                    std::to_string(acked_updates) + " were ACKed");
      }
    }
    std::vector<const StatsMap*> finals = {&after_entry};
    for (const StatsMap& s : after) finals.push_back(&s);
    for (const StatsMap* s : finals) {
      for (const char* key :
           {"duplicates_dropped", "protocol_errors", "forward_failures"}) {
        if (Get(*s, key) != 0) {
          result.Fail(std::string(key) + " = " + std::to_string(Get(*s, key)));
        }
      }
    }

    double rss = 0;
    for (const int pid : args_.pids) rss += PeakRssMb(pid);

    // ---- Report.
    auto line = [&](const char* cls, uint64_t attempted, uint64_t failed,
                    const std::vector<double>& ms) {
      std::cout << "  " << std::left << std::setw(11) << cls
                << " attempted " << std::setw(7) << attempted << " failed "
                << failed << "  p50 " << std::fixed << std::setprecision(4)
                << Median(ms) << " ms (n=" << ms.size() << ")";
      if (TailSupported(ms.size(), 0.99)) {
        std::cout << "  p99 " << Quantile(ms, 0.99) << " ms (n=" << ms.size()
                  << ", " << ms.size() - (ms.size() * 990 + 999) / 1000
                  << " beyond)";
      } else {
        std::cout << "  p99 not reported (fewer than 10 samples beyond)";
      }
      std::cout << "\n";
    };
    std::cout << "workload " << config_.name << " seed " << args_.seed
              << " seconds " << args_.seconds << " trace " << args_.trace
              << "\n";
    line(config_.mix ? "push" : "push(bulk)", push_ms.size(), 0, push_ms);
    line("query_hot", hot_ms.size(), 0, hot_ms);
    line("query_cold", cold_ms.size(), 0, cold_ms);
    // The mixes report the best whole second of the window (README.md).
    double best_push_ms = Median(push_ms), best_cold_ms = Median(cold_ms);
    double best_updates_per_s = 0;
    if (config_.mix && !per_second.empty()) {
      best_push_ms = best_cold_ms = 1e300;
      for (const Second& sec : per_second) {
        if (sec.push_ms.empty() || sec.cold_ms.empty()) continue;
        best_push_ms = std::min(best_push_ms, Median(sec.push_ms));
        best_cold_ms = std::min(best_cold_ms, Median(sec.cold_ms));
        best_updates_per_s = std::max(best_updates_per_s, sec.updates);
      }
      std::cout << "  best of " << per_second.size()
                << " seconds: push p50 " << best_push_ms << " ms, cold p50 "
                << best_cold_ms << " ms, " << best_updates_per_s
                << " updates ACKed\n";
    }
    std::cout << "  checked answers " << checker.checked << ", bit-identical "
              << checker.checked - checker.mismatched
              << ", outside the accuracy envelope " << checker.out_of_bound
              << ", interval covers exact " << checker.covered
              << ", worst error / envelope " << checker.worst << " ("
              << checker.worst_text << ")\n"
              << "  verification answers " << checker.verified
              << ": outside the envelope " << checker.verified_outside
              << ", mean relative error " << checker.RelErrorMean() << " (n="
              << checker.positive << "), bias " << checker.Bias()
              << ", interval coverage "
              << checker.Coverage() << "\n"
              << "  RETRY_LATER bounces " << bounces << "\n"
              << "  host steal " << 100.0 * steal_share
              << "% of the machine's CPU time in the window\n"
              << "  window " << window_ms << " ms, " << window_ops
              << " ops, "
              << static_cast<double>(window_ops) * 1000.0 / window_ms
              << " ops/s"
              << "\n";
    if (fast_cycles_updates_per_s > 0) {
      std::cout << "  updates/s over the fastest "
                << 100.0 * (1.0 - kSlowCycleShare) << "% of frame cycles "
                << fast_cycles_updates_per_s << ", over the whole window "
                << acked_updates / (window_ms / 1000.0) << "\n";
    }
    for (const std::string& p : result.problems) {
      std::cout << "  CHECK FAILED: " << p << "\n";
    }

    const double ops_done = static_cast<double>(window_ops);
    result.end_to_end = {
        {"ingest_updates_per_s", "updates/s",
         config_.mix          ? best_updates_per_s
         : config_.sites == 1 ? fast_cycles_updates_per_s
                              : acked_updates / (window_ms / 1000.0)},
        {"push_ack_p50_ms", "ms", best_push_ms},
        {"query_cold_p50_ms", "ms", best_cold_ms},
        {"sut_peak_rss_mb", "MB", rss},
        {"sut_cpu_ms_per_op", "ms", cpu_ms / std::max(1.0, ops_done)},
    };

    if (args_.trace) {
      PerLayer(&result, tracer, before_entry, after_entry, before, after,
               query_before, query_after, *ref, checker,
               push_trace_e2e, push_trace_path, query_trace_e2e,
               query_trace_path);
      WriteTrace(tracer);
    }
    std::cout << Json(result, args_.trace) << std::endl;
    return 0;
  }

 private:
  // Answers every verification expression over the final state and checks
  // each answer against the reference bank and the oracle; the first
  // answer of each expression feeds the accuracy statistics. Untimed (no
  // latency vectors), each expression is answered verify_repeats times.
  // Timed, the answers run in kColdPasses passes: each pass answers every
  // expression once cold, the first pass then verify_repeats - 1 times
  // hot, and before each later pass `pusher` writes +1 and -1 of one
  // element to every stream, which leaves every counter as it was but
  // makes every leaf written since its last answer. With a tracer, each
  // timed answer is replayed in-process.
  bool Verify(Pusher* pusher, SketchBank* ref, const Oracle& oracle,
              Checker* checker, RunResult* result, std::vector<double>* hot,
              std::vector<double>* cold, std::vector<double>* all,
              Tracer* tracer, Layers* layers, std::vector<double>* trace_e2e,
              std::vector<double>* trace_path, std::string* error) {
    setsketch::PlanCache ref_cache(CacheOptions());
    std::vector<setsketch::PlanCache::Result> expected;
    for (const std::string& text : verify_) {
      expected.push_back(ref_cache.Query(text, *ref));
    }
    std::vector<Update> bump;
    for (int s = 0; s < kShape.streams; ++s) {
      const auto stream = static_cast<setsketch::StreamId>(s);
      bump.push_back(Update{stream, kBumpElement, 1});
      bump.push_back(Update{stream, kBumpElement, -1});
    }
    const int passes = all == nullptr ? 1 : kColdPasses;
    for (int pass = 0; pass < passes; ++pass) {
      if (pass > 0) {
        const PushOutcome out = pusher->Push(ToBatch(names_, bump));
        if (!out.ok) {
          *error = "net-zero push between verification passes: " + out.error;
          return false;
        }
      }
      const int repeats = pass == 0 ? config_.verify_repeats : 1;
      for (size_t e = 0; e < verify_.size(); ++e) {
        for (int r = 0; r < repeats; ++r) {
          const Clock::time_point a = Clock::now();
          const setsketch::QueryResultInfo got =
              pusher->client()->Query(verify_[e]);
          const Clock::time_point b = Clock::now();
          if (!got.ok) ++result->failed;
          checker->Check(got, expected[e], oracle, *verify_exprs_[e],
                         verify_[e], pass == 0 && r == 0);
          if (all == nullptr) continue;
          const double ms = MsBetween(a, b);
          (r == 0 ? cold : hot)->push_back(ms);
          all->push_back(ms);
          if (layers == nullptr) continue;
          const uint64_t op =
              (1ULL << 50) |
              ((static_cast<uint64_t>(pass) * verify_.size() + e) * 64 +
               static_cast<uint64_t>(r));
          tracer->Op(r > 0 ? "op.query.hot" : "op.query.cold", op, a, b);
          trace_e2e->push_back(ms);
          trace_path->push_back(layers->ReplayQuery(tracer, op, verify_[e],
                                                    ref, r > 0, false, 0) /
                                1000.0);
        }
      }
    }
    return true;
  }

  static void MergeInto(const SketchBank& from, SketchBank* to,
                        uint64_t times) {
    for (const std::string& name : from.StreamNames()) {
      const auto& src = from.Sketches(name);
      auto* dst = to->MutableSketches(name);
      for (uint64_t k = 0; k < times; ++k) {
        for (size_t i = 0; i < src.size(); ++i) (*dst)[i].Merge(src[i]);
      }
    }
  }

  void PerLayer(RunResult* result, Tracer& tracer, const StatsMap& be,
                const StatsMap& ae, const std::vector<StatsMap>& bs,
                const std::vector<StatsMap>& as,
                const std::vector<StatsMap>& qbs,
                const std::vector<StatsMap>& qas, const SketchBank& ref,
                const Checker& checker,
                const std::vector<double>& push_e2e,
                const std::vector<double>& push_path,
                const std::vector<double>& query_e2e,
                const std::vector<double>& query_path) {
    std::map<std::string, std::vector<double>> durs;
    std::map<std::string, double> total_us, total_units;
    for (const Span& s : tracer.spans()) {
      if (!s.child) continue;
      durs[s.name].push_back(s.dur_us);
      total_us[s.name] += s.dur_us;
      total_units[s.name] += s.units;
    }
    auto per_unit_ns = [&](const std::string& name) {
      return total_units[name] > 0
                 ? total_us[name] * 1000.0 / total_units[name]
                 : 0.0;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    // Server STATS: the single server, or summed over the shards.
    auto server_delta = [&](const std::string& key) {
      double sum = 0;
      for (size_t i = 0; i < as.size(); ++i) sum += Delta(bs[i], as[i], key);
      return sum;
    };
    double frames_per_read_max = 0;
    for (const StatsMap& s : as) {
      frames_per_read_max =
          std::max(frames_per_read_max, Get(s, "ingest_max_frames_per_read"));
    }
    auto query_delta = [&](const std::string& key) {
      double sum = 0;
      for (size_t i = 0; i < qas.size(); ++i) sum += Delta(qbs[i], qas[i], key);
      return sum;
    };
    const double lookups =
        query_delta("plan_cache_hits") + query_delta("plan_cache_misses") +
        query_delta("plan_cache_invalidations");
    const double summary_full = Delta(be, ae, "summary_streams_full");
    const double summary_unchanged = Delta(be, ae, "summary_streams_unchanged");
    const bool fed = config_.federated;
    result->per_layer = {
        {"server.encode_push_us", "us", Median(durs["server.encode_push"])},
        {"server.decode_ns_per_update", "ns", per_unit_ns("server.decode")},
        {"server.dedup_ns_per_frame", "ns",
         Median(durs["server.dedup"]) * 1000.0},
        {"server.wal_append_us", "us", Median(durs["server.wal_append"])},
        {"server.read_calls_per_frame", "ratio",
         ratio(server_delta("ingest_read_calls"),
               server_delta("frames_received"))},
        {"server.frames_per_read_max", "count", frames_per_read_max},
        {"server.push_bounces_per_batch", "ratio",
         ratio(server_delta("batches_rejected") +
                   (fed ? Delta(be, ae, "push_bounces") : 0),
               fed ? Delta(be, ae, "pushes_forwarded")
                   : server_delta("batches_accepted"))},
        {"server.wal_bytes_per_update", "bytes",
         ratio(server_delta("wal_bytes"), server_delta("updates_applied"))},
        {"core.apply_ns_per_update", "ns", per_unit_ns("core.apply")},
        {"core.counter_bytes", "bytes",
         static_cast<double>(ref.CounterBytes())},
        {"est_rel_error_mean", "ratio", checker.RelErrorMean()},
        {"core.interval_coverage", "ratio", checker.Coverage()},
        {"expr.parse_us", "us", Median(durs["expr.parse"])},
        {"expr.canonicalize_us", "us", Median(durs["expr.canonicalize"])},
        {"query.plan_hit_us", "us", Median(durs["query.plan_hit"])},
        {"query.plan_cold_us", "us", Median(durs["query.plan_cold"])},
        {"query.plan_hit_ratio", "ratio",
         ratio(query_delta("plan_cache_hits"), lookups)},
        {"query.merge_builds_per_query", "ratio",
         ratio(query_delta("plan_cache_merge_builds"),
               query_delta("queries_answered"))},
        {"distributed.summary_encode_us_per_stream", "us",
         Median(durs["distributed.summary_encode"])},
        {"distributed.summary_decode_us_per_stream", "us",
         Median(durs["distributed.summary_decode"])},
        {"distributed.summary_bytes_per_stream", "bytes",
         ratio(total_units["distributed.summary_bytes"],
               static_cast<double>(durs["distributed.summary_bytes"].size()))},
        {"cluster.placement_ns", "ns", per_unit_ns("cluster.placement")},
        {"ledger.push_unattributed_ms", "ms",
         Median(push_e2e) - Median(push_path)},
        {"ledger.query_unattributed_ms", "ms",
         Median(query_e2e) - Median(query_path)},
    };
    if (fed) {
      // Router STATS; single-node layouts have none.
      result->per_layer.insert(
          result->per_layer.end(),
          {{"cluster.subbatches_per_push", "ratio",
            ratio(Delta(be, ae, "subbatches_forwarded"),
                  Delta(be, ae, "pushes_forwarded"))},
           {"cluster.summary_pulls_per_query", "ratio",
            ratio(Delta(be, ae, "summary_pulls"),
                  Delta(be, ae, "queries_answered"))},
           {"cluster.summary_unchanged_ratio", "ratio",
            ratio(summary_unchanged, summary_full + summary_unchanged)}});
    }
  }

  void WriteTrace(Tracer& tracer) {
    std::ofstream out(args_.rundir + "/trace-" + config_.name + "-seed" +
                      std::to_string(args_.seed) + ".jsonl");
    out << std::setprecision(12);
    for (const Span& s : tracer.spans()) {
      out << "{\"name\": \"" << s.name << "\", \"op\": " << s.op
          << ", \"parent\": " << (s.child ? "\"op\"" : "null")
          << ", \"start_us\": " << s.start_us << ", \"dur_us\": " << s.dur_us
          << ", \"units\": " << s.units << "}\n";
    }
  }

  int Fail(const std::string& why) {
    std::cerr << "loadgen " << args_.mode << " " << config_.name << ": "
              << why << "\n";
    return 1;
  }

  Args args_;
  Config config_;
  std::vector<std::string> names_;
  std::vector<std::string> pool_;
  std::vector<std::unique_ptr<OracleExpr>> pool_exprs_;
  std::vector<std::string> verify_;
  std::vector<std::unique_ptr<OracleExpr>> verify_exprs_;
  std::vector<std::vector<int>> pool_leaves_;
};

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  if (argc < 2) {
    std::cerr << "usage: loadgen selftest|preload|run [flags]\n";
    return 2;
  }
  Args args;
  args.mode = argv[1];
  if (args.mode == "selftest") return SelfTest() ? 0 : 1;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (flag == "--workload") args.workload = value();
    else if (flag == "--seed") args.seed = std::stoull(value());
    else if (flag == "--copies") args.copies = std::stoi(value());
    else if (flag == "--seconds") args.seconds = std::stod(value());
    else if (flag == "--trace") args.trace = value() == "1";
    else if (flag == "--ports") args.ports = IntList(value());
    else if (flag == "--pids") args.pids = IntList(value());
    else if (flag == "--rundir") args.rundir = value();
    else {
      std::cerr << "loadgen: unknown flag " << flag << "\n";
      return 2;
    }
  }
  const Config* config = nullptr;
  for (const Config& c : kWorkloads) {
    if (c.name == args.workload) config = &c;
  }
  if (config == nullptr || args.ports.empty()) {
    std::cerr << "loadgen: unknown workload or missing --ports\n";
    return 2;
  }
  Bench bench(args, *config);
  if (args.mode == "preload") return bench.Preload();
  if (args.mode == "run") return bench.Run();
  std::cerr << "loadgen: unknown mode " << args.mode << "\n";
  return 2;
}
