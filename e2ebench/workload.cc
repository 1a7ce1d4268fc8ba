#include "workload.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <utility>

namespace e2ebench {

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  Rng rng(seed ^ (salt * 0xD6E8FEB86659FD93ULL));
  rng.Next();
  return rng.Next();
}

Zipf::Zipf(int n, double exponent) {
  double total = 0.0;
  for (int r = 1; r <= n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r), exponent);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(
      std::min<ptrdiff_t>(it - cdf_.begin(), std::ssize(cdf_) - 1));
}

std::string StreamName(int index) {
  char name[16];
  std::snprintf(name, sizeof(name), "s%02d", index);
  return name;
}

UpdateGenerator::UpdateGenerator(const DataShape& shape, uint64_t seed)
    : shape_(shape),
      rng_(seed),
      zipf_(shape.streams, shape.stream_zipf),
      count_(shape.streams, std::vector<int32_t>(shape.universe, 0)),
      live_(shape.streams),
      live_pos_(shape.streams, std::vector<uint32_t>(shape.universe, 0)) {}

Update UpdateGenerator::Next(int stream) {
  const auto s = static_cast<size_t>(stream);
  std::vector<uint32_t>& live = live_[s];
  if (!live.empty() && rng_.NextDouble() < shape_.delete_share) {
    const uint32_t e = live[rng_.Below(live.size())];
    if (--count_[s][e] == 0) {
      const uint32_t pos = live_pos_[s][e];
      live[pos] = live.back();
      live_pos_[s][live[pos]] = pos;
      live.pop_back();
    }
    return Update{static_cast<setsketch::StreamId>(stream), e, -1};
  }
  const auto e = static_cast<uint32_t>(rng_.Below(shape_.universe));
  if (count_[s][e]++ == 0) {
    live_pos_[s][e] = static_cast<uint32_t>(live.size());
    live.push_back(e);
  }
  return Update{static_cast<setsketch::StreamId>(stream), e, 1};
}

Update UpdateGenerator::NextAny() { return Next(zipf_.Sample(&rng_)); }

std::vector<std::vector<Update>> MakeBatches(UpdateGenerator* gen,
                                             size_t count, size_t batch) {
  std::vector<std::vector<Update>> batches;
  for (size_t done = 0; done < count; done += batch) {
    std::vector<Update> b;
    const size_t n = std::min(batch, count - done);
    b.reserve(n);
    for (size_t i = 0; i < n; ++i) b.push_back(gen->NextAny());
    batches.push_back(std::move(b));
  }
  return batches;
}

// ---------------------------------------------------------------------------
// Oracle.

namespace {

struct Parser {
  const std::string& text;
  size_t pos = 0;

  void Skip() {
    while (pos < text.size() && text[pos] == ' ') ++pos;
  }
  std::unique_ptr<OracleExpr> Primary() {
    Skip();
    if (pos < text.size() && text[pos] == '(') {
      ++pos;
      auto inner = Expr();
      Skip();
      if (inner == nullptr || pos >= text.size() || text[pos] != ')') {
        return nullptr;
      }
      ++pos;
      return inner;
    }
    if (pos + 3 > text.size() || text[pos] != 's') return nullptr;
    int index = 0;
    size_t digits = 0;
    for (++pos; pos < text.size() && std::isdigit(text[pos]); ++pos) {
      index = index * 10 + (text[pos] - '0');
      ++digits;
    }
    if (digits == 0) return nullptr;
    auto leaf = std::make_unique<OracleExpr>();
    leaf->stream = index;
    return leaf;
  }
  std::unique_ptr<OracleExpr> Term() {
    auto left = Primary();
    for (Skip(); left != nullptr && pos < text.size() && text[pos] == '&';
         Skip()) {
      ++pos;
      left = Join('&', std::move(left), Primary());
    }
    return left;
  }
  std::unique_ptr<OracleExpr> Expr() {
    auto left = Term();
    for (Skip(); left != nullptr && pos < text.size() &&
                 (text[pos] == '|' || text[pos] == '+' || text[pos] == '-');
         Skip()) {
      const char op = text[pos] == '-' ? '-' : '|';
      ++pos;
      left = Join(op, std::move(left), Term());
    }
    return left;
  }
  static std::unique_ptr<OracleExpr> Join(char op,
                                          std::unique_ptr<OracleExpr> l,
                                          std::unique_ptr<OracleExpr> r) {
    if (r == nullptr) return nullptr;
    auto node = std::make_unique<OracleExpr>();
    node->op = op;
    node->left = std::move(l);
    node->right = std::move(r);
    return node;
  }
};

}  // namespace

std::unique_ptr<OracleExpr> ParseOracleExpr(const std::string& text) {
  Parser parser{text};
  auto expr = parser.Expr();
  parser.Skip();
  if (parser.pos != text.size()) return nullptr;
  return expr;
}

Oracle::Oracle(const DataShape& shape)
    : shape_(shape),
      count_(shape.streams, std::vector<int64_t>(shape.universe, 0)) {}

bool Oracle::Apply(const std::vector<Update>& updates) {
  bool legal = true;
  for (const Update& u : updates) {
    int64_t& c = count_[u.stream][u.element];
    c += u.delta;
    if (c < 0) {
      ++illegal_;
      legal = false;
    }
  }
  return legal;
}

void Oracle::AddScaled(const std::vector<Update>& updates, int64_t times) {
  for (const Update& u : updates) {
    count_[u.stream][u.element] += u.delta * times;
  }
}

std::vector<uint64_t> Oracle::Bits(const OracleExpr& expr) const {
  const size_t words = (shape_.universe + 63) / 64;
  if (expr.op == 0) {
    std::vector<uint64_t> bits(words, 0);
    const std::vector<int64_t>& c = count_[static_cast<size_t>(expr.stream)];
    for (uint32_t e = 0; e < shape_.universe; ++e) {
      if (c[e] > 0) bits[e / 64] |= 1ULL << (e % 64);
    }
    return bits;
  }
  std::vector<uint64_t> l = Bits(*expr.left);
  const std::vector<uint64_t> r = Bits(*expr.right);
  for (size_t w = 0; w < words; ++w) {
    switch (expr.op) {
      case '|': l[w] |= r[w]; break;
      case '&': l[w] &= r[w]; break;
      default: l[w] &= ~r[w]; break;
    }
  }
  return l;
}

uint64_t Oracle::Evaluate(const OracleExpr& expr) const {
  uint64_t n = 0;
  for (const uint64_t w : Bits(expr)) n += std::popcount(w);
  return n;
}

void Oracle::LeafBits(const OracleExpr& expr,
                      std::vector<uint64_t>* acc) const {
  if (expr.op != 0) {
    LeafBits(*expr.left, acc);
    LeafBits(*expr.right, acc);
    return;
  }
  const std::vector<uint64_t> bits = Bits(expr);
  for (size_t w = 0; w < acc->size(); ++w) (*acc)[w] |= bits[w];
}

uint64_t Oracle::LeafUnion(const OracleExpr& expr) const {
  std::vector<uint64_t> acc((shape_.universe + 63) / 64, 0);
  LeafBits(expr, &acc);
  uint64_t n = 0;
  for (const uint64_t w : acc) n += std::popcount(w);
  return n;
}

// ---------------------------------------------------------------------------
// Pool and schedule.

std::vector<std::string> MakeExpressionPool(uint64_t seed, int size,
                                            int leaf_streams) {
  // Shapes: union, 3-way union, intersection, difference, the paper's
  // FIG8 expression (A - B) & C, and general expressions whose two arms
  // share the sub-expression (A | B).
  static const char* const kShapes[] = {
      "A | B",
      "A | B | C",
      "A & B",
      "A - B",
      "(A - B) & C",
      "(A | B) & C",
      "((A | B) & C) | ((A | B) - D)",
      "(A & B) | (C - D)",
  };
  constexpr int kNumShapes = sizeof(kShapes) / sizeof(kShapes[0]);
  Rng rng(seed);
  std::vector<std::string> pool;
  for (int i = 0; i < size; ++i) {
    const std::string shape = kShapes[i % kNumShapes];
    int picks[4];
    for (int k = 0; k < 4; ++k) {
      bool fresh = false;
      while (!fresh) {
        picks[k] = static_cast<int>(
            rng.Below(static_cast<uint64_t>(leaf_streams)));
        fresh = std::find(picks, picks + k, picks[k]) == picks + k;
      }
    }
    std::string text;
    for (const char c : shape) {
      if (c >= 'A' && c <= 'D') {
        text += StreamName(picks[c - 'A']);
      } else {
        text += c;
      }
    }
    pool.push_back(text);
  }
  return pool;
}

std::vector<int> ExpressionStreams(const std::string& text) {
  std::vector<int> streams;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != 's') continue;
    const int index = std::atoi(text.c_str() + i + 1);
    if (std::find(streams.begin(), streams.end(), index) == streams.end()) {
      streams.push_back(index);
    }
  }
  return streams;
}

std::vector<Op> MakeSchedule(const ScheduleSpec& spec, int pool_size,
                             const std::vector<std::vector<int>>& leaves,
                             UpdateGenerator* gen, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> last_write;  // op index + 1, per stream
  std::vector<uint64_t> last_answer(static_cast<size_t>(pool_size), 0);
  auto is_hot = [&](size_t e) {
    for (const int s : leaves[e]) {
      const auto stream = static_cast<size_t>(s);
      if (stream < last_write.size() && last_write[stream] > last_answer[e]) {
        return false;
      }
    }
    return true;
  };
  std::vector<Op> ops(spec.ops);
  // Every block of kScheduleBlock ops holds the same number of writes,
  // hot queries and cold queries, at seeded positions, so every seed
  // offers the same amount of each kind of work.
  enum Slot : uint8_t { kWriteSlot, kHotSlot, kColdSlot };
  const auto writes =
      static_cast<size_t>(std::lround(spec.write_share * kScheduleBlock));
  const auto hot = static_cast<size_t>(std::lround(
      spec.hot_share * static_cast<double>(kScheduleBlock - writes)));
  std::vector<Slot> block(kScheduleBlock);
  std::vector<int> candidates;
  for (size_t i = 0; i < spec.ops; ++i) {
    if (i % kScheduleBlock == 0) {
      for (size_t k = 0; k < kScheduleBlock; ++k) {
        block[k] = k < writes ? kWriteSlot
                              : k < writes + hot ? kHotSlot : kColdSlot;
      }
      for (size_t k = kScheduleBlock - 1; k > 0; --k) {
        std::swap(block[k], block[rng.Below(k + 1)]);
      }
    }
    Op& op = ops[i];
    const Slot slot = block[i % kScheduleBlock];
    if (slot == kWriteSlot) {
      op.kind = Op::kWrite;
      const Update first = gen->NextAny();
      op.updates.push_back(first);
      while (op.updates.size() < spec.write_updates) {
        op.updates.push_back(gen->Next(static_cast<int>(first.stream)));
      }
      if (first.stream >= last_write.size()) {
        last_write.resize(first.stream + 1);
      }
      last_write[first.stream] = i + 1;
      continue;
    }
    // A query of the slot's kind, drawn from the pool expressions that
    // are hot (no leaf written since their last answer) or cold; any
    // expression if none is of that kind.
    op.kind = Op::kQuery;
    candidates.clear();
    for (int e = 0; e < pool_size; ++e) {
      if (is_hot(static_cast<size_t>(e)) == (slot == kHotSlot)) {
        candidates.push_back(e);
      }
    }
    op.expr = candidates.empty()
                  ? static_cast<int>(
                        rng.Below(static_cast<uint64_t>(pool_size)))
                  : candidates[rng.Below(candidates.size())];
    const auto e = static_cast<size_t>(op.expr);
    op.hot = is_hot(e);
    last_answer[e] = i + 1;
  }
  return ops;
}

std::string SerializeSchedule(const std::vector<Op>& ops) {
  std::string out;
  auto put = [&out](uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (const Op& op : ops) {
    put(op.kind);
    put(static_cast<uint64_t>(op.expr));
    put(op.hot);
    put(op.updates.size());
    for (const Update& u : op.updates) {
      put(u.stream);
      put(u.element);
      put(static_cast<uint64_t>(u.delta));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statistics.

namespace {
// Nearest rank (1-based) of quantile q among n samples, in integer
// arithmetic on q in thousandths so 0.99 x 1000 is exactly 990.
size_t Rank(size_t n, double q) {
  const auto thousandths = static_cast<size_t>(std::llround(q * 1000.0));
  return std::max<size_t>(1, (n * thousandths + 999) / 1000);
}
}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t k = std::min(Rank(samples.size(), q), samples.size()) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

bool TailSupported(size_t samples, double q) {
  return samples > 0 && samples - std::min(samples, Rank(samples, q)) >= 10;
}

// ---------------------------------------------------------------------------
// Self-test.

bool SelfTest() {
  bool ok = true;
  auto expect = [&ok](bool condition, const char* what) {
    if (!condition) {
      std::cerr << "selftest FAILED: " << what << "\n";
      ok = false;
    }
  };

  // Oracle: hand-checked set algebra over three small streams.
  DataShape tiny;
  tiny.streams = 3;
  tiny.universe = 128;
  Oracle oracle(tiny);
  std::vector<Update> ups;
  for (uint32_t e = 0; e < 10; ++e) ups.push_back({0, e, 1});   // A = 0..9
  for (uint32_t e = 5; e < 15; ++e) ups.push_back({1, e, 2});   // B = 5..14
  for (uint32_t e = 8; e < 20; ++e) ups.push_back({2, e, 1});   // C = 8..19
  ups.push_back({1, 14, -2});                                   // B = 5..13
  expect(oracle.Apply(ups), "legal updates accepted");
  auto eval = [&](const char* text) {
    const auto expr = ParseOracleExpr(text);
    return expr == nullptr ? ~0ULL : oracle.Evaluate(*expr);
  };
  expect(eval("s00 | s01") == 14, "|A u B| = 14");
  expect(eval("s00 & s01") == 5, "|A n B| = 5");
  expect(eval("s00 - s01") == 5, "|A - B| = 5");
  expect(eval("(s00 - s01) & s02") == 0, "|(A - B) n C| = 0");
  expect(eval("(s00 | s01) & s02") == 6, "|(A u B) n C| = 6");
  expect(eval("s00 | s01 - s02") == 8, "left-assoc: |(A u B) - C| = 8");
  expect(eval("s00 + s01 & s02") == 14, "& binds tighter: |A u (B n C)|");
  expect(ParseOracleExpr("s00 | (s01") == nullptr, "unbalanced rejected");
  expect(!oracle.Apply({{2, 0, -1}}), "illegal deletion flagged");
  expect(oracle.illegal_deletions() == 1, "illegal deletion counted");
  Oracle scaled(tiny);
  scaled.AddScaled({{0, 3, 2}, {0, 4, -1}, {0, 4, 1}}, 3);
  expect(scaled.Evaluate(*ParseOracleExpr("s00")) == 1, "scaled replay");

  // Generator legality: an independent oracle sees no negative count.
  DataShape shape;
  UpdateGenerator gen(shape, 7);
  Oracle check(shape);
  std::vector<Update> stream;
  size_t deletions = 0;
  for (int i = 0; i < 200000; ++i) {
    stream.push_back(gen.NextAny());
    deletions += stream.back().delta < 0;
  }
  expect(check.Apply(stream), "generated deletions are legal");
  const double share = static_cast<double>(deletions) / 200000.0;
  expect(share > 0.2 && share < 0.26, "deletion share near 25%");

  // Percentile rule.
  expect(!TailSupported(999, 0.99), "p99 needs 1000 samples");
  expect(TailSupported(1000, 0.99), "p99 at 1000 samples");
  expect(!TailSupported(39, 0.75), "p75 needs 40 samples");
  expect(TailSupported(40, 0.75), "p75 at 40 samples");
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  expect(Quantile(ramp, 0.5) == 500.0, "median of 1..1000");
  expect(Quantile(ramp, 0.99) == 990.0, "p99 of 1..1000 leaves 10 beyond");

  // Schedule determinism: same seed -> byte-identical ops; new seed differs.
  auto schedule_bytes = [&shape](uint64_t seed) {
    UpdateGenerator g(shape, SubSeed(seed, 1));
    const std::vector<std::string> pool = MakeExpressionPool(seed, 16, 12);
    std::vector<std::vector<int>> leaves;
    for (const std::string& text : pool) {
      leaves.push_back(ExpressionStreams(text));
    }
    ScheduleSpec spec;
    spec.ops = 2000;
    return SerializeSchedule(MakeSchedule(spec, 16, leaves, &g, seed));
  };
  expect(schedule_bytes(11) == schedule_bytes(11), "schedule determinism");
  {
    // Hot and cold queries fill their slots: 3 hot, 7 cold per block.
    UpdateGenerator g(shape, SubSeed(5, 1));
    const std::vector<std::string> pool = MakeExpressionPool(5, 32, 16);
    std::vector<std::vector<int>> leaves;
    for (const std::string& text : pool) {
      leaves.push_back(ExpressionStreams(text));
    }
    ScheduleSpec spec;
    spec.ops = 2000;
    spec.write_share = 0.5;
    spec.hot_share = 0.3;
    size_t writes = 0, hot = 0;
    for (const Op& op : MakeSchedule(spec, 32, leaves, &g, 5)) {
      writes += op.kind == Op::kWrite;
      hot += op.kind == Op::kQuery && op.hot;
    }
    expect(writes == 1000 && hot == 300, "fixed write and hot shares");
  }
  expect(schedule_bytes(11) != schedule_bytes(12), "seeds differ");
  return ok;
}

}  // namespace e2ebench
