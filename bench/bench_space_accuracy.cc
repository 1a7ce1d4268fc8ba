// SPACE experiment (Section 5.2's space accounting): accuracy as a
// function of synopsis bytes. The paper approximates synopsis size as
// 32 bytes per sketch for insert-only streams (bits instead of counters,
// s = 32 fixed); general update streams need O(log N)-bit counters.
//
// Protocol: Figure 7(a)-style intersection workload (|A n B| = u/8),
// sweeping the sketch count; each row reports both space accountings
// alongside the achieved error, so error-vs-bytes curves can be plotted
// for either regime.

#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/set_intersection_estimator.h"
#include "core/set_union_estimator.h"
#include "core/sketch_bank.h"
#include "core/sketch_seed.h"
#include "core/two_level_hash_sketch.h"
#include "stream/stream_generator.h"
#include "util/csv_writer.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace setsketch {
namespace {

int Run() {
  using bench::kSketchCounts;
  const bench::BenchScale scale = bench::ReadBenchScale();
  const int64_t u = scale.union_size;
  const double ratio = 1.0 / 8.0;
  const SketchParams params = bench::FigureParams();

  std::cout << "=== SPACE: accuracy vs synopsis size ===\n"
            << "|A n B| = u/8, u = " << u << ", trials = " << scale.trials
            << ", pooled witnesses\n\n";

  CsvWriter csv("space_accuracy.csv",
                {"sketches", "paper_bytes_per_stream",
                 "counter_bytes_per_stream", "avg_rel_error_pct"});
  TablePrinter table({"sketches", "paper acct (KB)", "counters (KB)",
                      "avg error"});

  std::vector<std::vector<double>> errors(kSketchCounts.size());
  for (int t = 0; t < scale.trials; ++t) {
    const uint64_t seed = 70001 + static_cast<uint64_t>(t) * 131;
    VennPartitionGenerator gen(2, BinaryIntersectionProbs(ratio));
    const PartitionedDataset data = gen.Generate(u, seed);
    const double exact = static_cast<double>(data.regions[3].size());

    SketchBank bank(
        SketchFamily(params, kSketchCounts.back(), seed ^ 0x5ACE));
    bank.AddStream("A");
    bank.AddStream("B");
    for (size_t mask = 1; mask < data.regions.size(); ++mask) {
      for (uint64_t e : data.regions[mask]) {
        if (mask & 1) bank.Apply("A", e, 1);
        if (mask & 2) bank.Apply("B", e, 1);
      }
    }
    const auto all_pairs = bank.Groups({"A", "B"});
    for (size_t i = 0; i < kSketchCounts.size(); ++i) {
      const std::vector<SketchGroup> pairs(
          all_pairs.begin(), all_pairs.begin() + kSketchCounts[i]);
      const UnionEstimate ue = EstimateSetUnion(pairs, 0.5);
      WitnessOptions wopts;
      wopts.pool_all_levels = true;
      const WitnessEstimate est =
          EstimateSetIntersection(pairs, ue.estimate, wopts);
      errors[i].push_back(est.ok ? RelativeError(est.estimate, exact)
                                 : 1.0);
    }
  }

  // Update-stream regime: the 64-bit counters one sketch stores.
  const double sketch_counter_bytes = static_cast<double>(
      TwoLevelHashSketch(std::make_shared<const SketchSeed>(params, 0))
          .CounterBytes());
  for (size_t i = 0; i < kSketchCounts.size(); ++i) {
    const int r = kSketchCounts[i];
    // The paper's rough accounting: #sketches x 32 bytes (bit cells,
    // insert-only regime).
    const double paper_bytes = static_cast<double>(r) * 32.0;
    const double counter_bytes = static_cast<double>(r) * sketch_counter_bytes;
    const double error =
        TrimmedMeanDropHighest(errors[i], bench::kTrimFraction) * 100;
    table.AddRow(std::vector<std::string>{
        std::to_string(r), FormatDouble(paper_bytes / 1024.0, 1),
        FormatDouble(counter_bytes / 1024.0, 0),
        FormatDouble(error, 2) + "%"});
    csv.AddRow(std::vector<double>{static_cast<double>(r), paper_bytes,
                                   counter_bytes, error});
  }

  table.Print(std::cout);
  std::cout << "\ncsv written to space_accuracy.csv\n\n";
  return 0;
}

}  // namespace
}  // namespace setsketch

int main() { return setsketch::Run(); }
