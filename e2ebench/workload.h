// Input generation, exact oracle and latency statistics of the end-to-end
// benchmark. Nothing here talks to the system under test: the generator
// turns a seed into update batches and op schedules, the oracle keeps
// exact net frequencies and evaluates set expressions by set algebra, and
// the statistics helpers apply the benchmark's reporting rules. The
// library is used only for its plain data types (Update), so a change to
// setsketch's hashing, parsing or estimation cannot change the inputs or
// the exact answers.

#ifndef SETSKETCH_E2EBENCH_WORKLOAD_H_
#define SETSKETCH_E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stream/update.h"

namespace e2ebench {

using setsketch::Update;

/// SplitMix64: the benchmark's own PRNG, so inputs depend on the seed
/// alone and never on the library's hash code.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Derives independent sub-seeds (preload, site k, schedule, pool).
uint64_t SubSeed(uint64_t seed, uint64_t salt);

/// Zipf(s) over ranks 0..n-1 (rank 0 most likely).
class Zipf {
 public:
  Zipf(int n, double exponent);
  int Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Shape of the generated data, shared by every workload.
struct DataShape {
  int streams = 40;             ///< Named s00..s39.
  uint32_t universe = 32768;    ///< Elements are drawn from [0, universe).
  double stream_zipf = 1.0;     ///< Skew of updates over streams.
  double delete_share = 0.25;   ///< Share of updates that are deletions.
};

std::string StreamName(int index);

/// Produces legal update streams: an insertion adds +1 to a uniformly
/// drawn element, a deletion removes one occurrence of an element this
/// generator inserted earlier and has not yet fully deleted, so no net
/// frequency it produces ever drops below zero (paper §2.1).
class UpdateGenerator {
 public:
  UpdateGenerator(const DataShape& shape, uint64_t seed);
  /// One update for `stream`.
  Update Next(int stream);
  /// One update for a Zipf-drawn stream.
  Update NextAny();

 private:
  DataShape shape_;
  Rng rng_;
  Zipf zipf_;
  std::vector<std::vector<int32_t>> count_;     // [stream][element]
  std::vector<std::vector<uint32_t>> live_;     // elements with count > 0
  std::vector<std::vector<uint32_t>> live_pos_; // element -> index in live_
};

/// Cuts `count` updates from `gen` into batches of `batch` updates.
std::vector<std::vector<Update>> MakeBatches(UpdateGenerator* gen,
                                             size_t count, size_t batch);

// ---------------------------------------------------------------------------
// Exact oracle.

/// Minimal AST of the expression grammar (| + - & parentheses), parsed by
/// the oracle itself rather than the library's parser.
struct OracleExpr {
  char op = 0;  ///< 0 = leaf, '|', '&', '-'.
  int stream = -1;
  std::unique_ptr<OracleExpr> left, right;
};
/// Parses `text`; streams must be named s<NN>. Null on malformed text.
std::unique_ptr<OracleExpr> ParseOracleExpr(const std::string& text);

/// Exact per-stream net frequencies and set membership.
class Oracle {
 public:
  explicit Oracle(const DataShape& shape);
  /// Applies updates; returns false (and records it) if any net
  /// frequency would drop below zero, i.e. the deletion is illegal.
  bool Apply(const std::vector<Update>& updates);
  /// Adds `times` x the net effect of `updates` (legal cycle replays).
  void AddScaled(const std::vector<Update>& updates, int64_t times);
  /// |E| over the current multisets (an element is present iff its net
  /// frequency is positive).
  uint64_t Evaluate(const OracleExpr& expr) const;
  /// |union of the expression's leaves|.
  uint64_t LeafUnion(const OracleExpr& expr) const;
  uint64_t illegal_deletions() const { return illegal_; }

 private:
  std::vector<uint64_t> Bits(const OracleExpr& expr) const;
  void LeafBits(const OracleExpr& expr, std::vector<uint64_t>* acc) const;
  DataShape shape_;
  std::vector<std::vector<int64_t>> count_;
  uint64_t illegal_ = 0;
};

// ---------------------------------------------------------------------------
// Query pool and op schedule.

/// A fixed pool of set expressions over the `leaf_streams` largest
/// streams: unions, intersections, differences and FIG8-like general
/// expressions, some with a shared sub-expression.
std::vector<std::string> MakeExpressionPool(uint64_t seed, int size,
                                            int leaf_streams);

/// Streams each expression reads, by index.
std::vector<int> ExpressionStreams(const std::string& text);

struct Op {
  enum Kind : uint8_t { kWrite = 0, kQuery = 1 };
  Kind kind = kWrite;
  int expr = -1;               ///< kQuery: index into the pool.
  bool hot = false;            ///< kQuery: no leaf written since last answer.
  std::vector<Update> updates; ///< kWrite: the batch.
};

/// Writes fill the same number of slots of every block of this many ops.
constexpr size_t kScheduleBlock = 20;

struct ScheduleSpec {
  size_t ops = 0;
  double write_share = 0.3;
  double hot_share = 0.3;     ///< Of the queries.
  size_t write_updates = 32;  ///< Updates per write (one stream each).
};

/// The seeded write/query interleaving of a mix. Writes continue
/// `gen`'s update stream, so they stay legal after the preload. Every
/// pool expression is assumed answered once before op 0 (the warm-up).
std::vector<Op> MakeSchedule(const ScheduleSpec& spec, int pool_size,
                             const std::vector<std::vector<int>>& leaves,
                             UpdateGenerator* gen, uint64_t seed);

/// Byte serialization (determinism self-test).
std::string SerializeSchedule(const std::vector<Op>& ops);

// ---------------------------------------------------------------------------
// Statistics.

/// Nearest-rank quantile of `samples` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> samples, double q);

/// The tail rule: a quantile q is reported only when at least 10 samples
/// lie beyond it, i.e. floor(n * (1 - q)) >= 10.
bool TailSupported(size_t samples, double q);

/// Runs the oracle, percentile-rule and schedule-determinism checks;
/// prints failures to stderr. True iff all pass.
bool SelfTest();

}  // namespace e2ebench

#endif  // SETSKETCH_E2EBENCH_WORKLOAD_H_
