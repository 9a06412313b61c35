// Planner scaling sweep (DESIGN.md §8): wall time and exact-evaluation
// counts of the heuristic mergers with the spatial candidate index and
// admissible benefit bounds on versus off, as |Q| grows. The pruned
// planner must return the byte-identical partition and cost — that
// invariant is checked here at every size where both modes run (nonzero
// exit on violation); the payoff columns are the speedup and the shrink
// in exact GroupCost evaluations.
//
//   evals     = MergeOutcome::candidates — exact profit evaluations the
//               merger performed (under pruning: bound refinements only).
//   groups    = MergeContext::groups_evaluated() — distinct groups whose
//               statistics were computed (the memo's size).
//
// `--smoke` runs the small sizes only (CI perf-smoke job).
//
// `--shards` switches to the sharded-planning matrix (DESIGN.md §12):
// assign x shards x threads over the ShardedPlanner at large |Q|,
// asserting that shards=1 is byte-identical to the unsharded merger and
// that every multi-shard plan costs within 2% of it. `--assign
// grid|balanced` restricts the assignment axis (default: both). The
// fig16-hybrid 16-shard cell is the headline skew number (DESIGN.md
// §13): grid assignment must show estimated-cost imbalance > 4 (one
// cell inherits a whole cluster) where balanced stays < 2, and — on
// machines where timing is meaningful — balanced must be strictly
// faster end-to-end at equal shard/thread counts. `--shards --big` adds
// a single 10^6-query cell. The speedup acceptance (>= 3x at >= 4
// shards and >= 8 threads vs 1x1) engages only on machines with >= 4
// hardware threads; the identity, cost, and imbalance checks always
// run.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "exec/thread_pool.h"
#include "merge/clustering_merger.h"
#include "merge/directed_search_merger.h"
#include "merge/pair_merger.h"
#include "merge/sharded_planner.h"
#include "obs/run_report.h"
#include "util/table_printer.h"

namespace qsp {
namespace {

constexpr uint64_t kSeed = 42;

struct Cell {
  std::string merger;
  size_t n = 0;
  bool pruning = false;
  double ms = 0.0;
  double cost = 0.0;
  uint64_t evals = 0;
  size_t groups = 0;
  Partition partition;
};

std::unique_ptr<Merger> Make(const std::string& merger, bool pruning) {
  if (merger == "pair") {
    return std::make_unique<PairMerger>(pruning);
  }
  if (merger == "clustering") {
    return std::make_unique<ClusteringMerger>(/*exact_component_limit=*/10,
                                              /*tight_bound=*/true, pruning);
  }
  return std::make_unique<DirectedSearchMerger>(2, kSeed, pruning);
}

bool RunCell(const std::string& merger, size_t n, bool pruning, Cell* cell) {
  bench::Instance inst(bench::Fig16WorkloadConfig(n), kSeed,
                       bench::kFig16Density);
  const CostModel model = bench::Fig16CostModel();
  const auto start = std::chrono::steady_clock::now();
  auto outcome = Make(merger, pruning)->Merge(*inst.ctx, model);
  const auto end = std::chrono::steady_clock::now();
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s n=%zu failed: %s\n", merger.c_str(), n,
                 outcome.status().ToString().c_str());
    return false;
  }
  cell->merger = merger;
  cell->n = n;
  cell->pruning = pruning;
  cell->ms = std::chrono::duration<double, std::milli>(end - start).count();
  cell->cost = outcome->cost;
  cell->evals = outcome->candidates;
  cell->groups = inst.ctx->groups_evaluated();
  cell->partition = std::move(outcome->partition);
  return true;
}

std::string Fmt(double v, const char* format = "%.1f") {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), format, v);
  return buffer;
}

int Run(bool smoke) {
  bench::EnableTelemetryIfReportRequested();

  bench::PrintHeader(
      "Planner scaling — spatial pruning + admissible benefit bounds",
      "Wall time and exact-evaluation counts per merger and |Q|, pruning "
      "off vs on (DESIGN.md 8). The pruned plan must be byte-identical; "
      "speedup and eval shrink are the payoff. Hybrid workload, uniform "
      "estimator, Fig. 16 cost constants.");

  // Sizes per merger: the exhaustive baselines are O(n^2) or worse, so
  // the largest points run pruned-only (that asymmetry is the point).
  struct Sweep {
    std::string merger;
    std::vector<size_t> both;    // run unpruned + pruned, check identity
    std::vector<size_t> pruned;  // pruned-only (baseline intractable)
  };
  std::vector<Sweep> sweeps;
  if (smoke) {
    sweeps = {{"pair", {250, 1000}, {}},
              {"clustering", {250, 1000}, {}},
              {"directed-search", {250}, {}}};
  } else {
    sweeps = {{"pair", {250, 1000, 4000}, {16000}},
              {"clustering", {250, 1000, 4000}, {}},
              {"directed-search", {250}, {}}};
  }

  TablePrinter table({"merger", "|Q|", "pruning", "time ms", "evals",
                      "groups", "speedup", "evals shrink"});
  obs::RunReport report("planner_scaling");
  bool identical = true;
  double pair_speedup_at_4000 = 0.0;
  double pair_shrink_at_4000 = 0.0;

  for (const Sweep& sweep : sweeps) {
    for (const size_t n : sweep.both) {
      Cell off, on;
      if (!RunCell(sweep.merger, n, false, &off)) return 1;
      if (!RunCell(sweep.merger, n, true, &on)) return 1;
      if (on.partition != off.partition || on.cost != off.cost) {
        std::fprintf(stderr,
                     "INVARIANT VIOLATED: pruned plan differs from "
                     "exhaustive plan (%s, n=%zu)\n",
                     sweep.merger.c_str(), n);
        identical = false;
      }
      const double speedup = on.ms > 0.0 ? off.ms / on.ms : 0.0;
      const double shrink =
          on.evals > 0 ? static_cast<double>(off.evals) /
                             static_cast<double>(on.evals)
                       : 0.0;
      table.AddRow({sweep.merger, std::to_string(n), "off", Fmt(off.ms),
                    std::to_string(off.evals), std::to_string(off.groups),
                    "", ""});
      table.AddRow({sweep.merger, std::to_string(n), "on", Fmt(on.ms),
                    std::to_string(on.evals), std::to_string(on.groups),
                    Fmt(speedup, "%.2f"), Fmt(shrink, "%.2f")});
      if (sweep.merger == "pair" && n == 4000) {
        pair_speedup_at_4000 = speedup;
        pair_shrink_at_4000 = shrink;
      }
      const std::string key =
          sweep.merger + ".n" + std::to_string(n);
      report.AddScalar(key + ".off.ms", off.ms);
      report.AddScalar(key + ".off.evals", static_cast<double>(off.evals));
      report.AddScalar(key + ".on.ms", on.ms);
      report.AddScalar(key + ".on.evals", static_cast<double>(on.evals));
      report.AddScalar(key + ".speedup", speedup);
      report.AddScalar(key + ".evals_shrink", shrink);
    }
    for (const size_t n : sweep.pruned) {
      Cell on;
      if (!RunCell(sweep.merger, n, true, &on)) return 1;
      table.AddRow({sweep.merger, std::to_string(n), "on", Fmt(on.ms),
                    std::to_string(on.evals), std::to_string(on.groups),
                    "", ""});
      const std::string key =
          sweep.merger + ".n" + std::to_string(n);
      report.AddScalar(key + ".on.ms", on.ms);
      report.AddScalar(key + ".on.evals", static_cast<double>(on.evals));
    }
  }

  std::printf("%s\n", table.ToText().c_str());
  std::printf("Pruned plans identical to exhaustive plans: %s\n",
              identical ? "yes" : "NO");
  if (!smoke) {
    std::printf(
        "pair @ n=4000: %.2fx faster, %.2fx fewer exact evaluations\n",
        pair_speedup_at_4000, pair_shrink_at_4000);
  }

  report.AddText("description",
                 "Planner wall time and exact-evaluation counts, pruning "
                 "off vs on, per merger and query-set size.");
  report.AddBool("plans_identical", identical);
  report.AddBool("smoke", smoke);
  if (!smoke) {
    report.AddScalar("pair_speedup_at_4000", pair_speedup_at_4000);
    report.AddScalar("pair_evals_shrink_at_4000", pair_shrink_at_4000);
  }
  report.AddTable("planner_scaling", table);
  if (obs::Enabled()) report.AddMetrics(obs::MetricRegistry::Default());
  bench::WriteReportIfRequested(report);
  return identical ? 0 : 1;
}

// ---------------------------------------------------------------------
// --shards: the sharded-planning matrix.

struct ShardCell {
  size_t n = 0;
  ShardAssign assign = ShardAssign::kBalanced;
  int shards = 0;
  int threads = 0;
  double ms = 0.0;
  double cost = 0.0;
  double imbalance = 0.0;
  size_t groups = 0;
  size_t seam_groups = 0;
  size_t seam_merges = 0;
  Partition partition;
};

const char* AssignName(ShardAssign assign) {
  return assign == ShardAssign::kGrid ? "grid" : "balanced";
}

/// The 10^6-query workload. The fig16 hybrid puts ~40% of all queries
/// into each of two clusters only ~3% of the domain wide, so one grid
/// cell inherits the whole cluster and its inner merge never finishes
/// at this scale — spatial sharding needs spatial dispersion to win.
/// The big cell keeps a clustered component but spreads it (df=0.25)
/// and shrinks rects so groups stay interior to 32x32 cells.
QueryGenConfig BigWorkloadConfig(size_t n) {
  QueryGenConfig config = bench::Fig16WorkloadConfig(n);
  config.cf = 0.2;
  config.df = 0.25;
  config.min_extent = 0.002;
  config.max_extent = 0.01;
  return config;
}

/// One (n, shards, threads) cell: fresh instance and context (fair
/// timing, no memo reuse across cells), clustering inner merger (the
/// one whose grid join scales to these sizes).
bool RunShardCell(const QueryGenConfig& workload, ShardAssign assign,
                  int shards, int threads, ShardCell* cell) {
  const size_t n = workload.num_queries;
  exec::SetDefaultThreads(threads);
  bench::Instance inst(workload, kSeed, bench::kFig16Density);
  const CostModel model = bench::Fig16CostModel();
  const ClusteringMerger inner(/*exact_component_limit=*/10,
                               /*tight_bound=*/true, /*pruning=*/true);
  const ShardedPlanner planner(
      &inner, ShardedPlanner::Options{shards, assign, /*pruning=*/true});
  const auto start = std::chrono::steady_clock::now();
  auto outcome = planner.Plan(*inst.ctx, model);
  const auto end = std::chrono::steady_clock::now();
  exec::SetDefaultThreads(1);
  if (!outcome.ok()) {
    std::fprintf(stderr, "assign=%s shards=%d threads=%d n=%zu failed: %s\n",
                 AssignName(assign), shards, threads, n,
                 outcome.status().ToString().c_str());
    return false;
  }
  cell->n = n;
  cell->assign = assign;
  cell->shards = shards;
  cell->threads = threads;
  cell->ms = std::chrono::duration<double, std::milli>(end - start).count();
  cell->cost = outcome->outcome.cost;
  cell->imbalance = outcome->imbalance;
  cell->groups = outcome->outcome.partition.size();
  cell->seam_groups = outcome->seam_groups_in;
  cell->seam_merges = outcome->seam_merges;
  cell->partition = std::move(outcome->outcome.partition);
  return true;
}

int RunShards(bool smoke, bool big, const std::vector<ShardAssign>& assigns) {
  bench::EnableTelemetryIfReportRequested();
  const unsigned hw = std::thread::hardware_concurrency();

  bench::PrintHeader(
      "Sharded parallel planning — assign x shards x threads (DESIGN.md "
      "12-13)",
      "ShardedPlanner over the hybrid workload, clustering inner merger, "
      "pruning on. shards=1 must be byte-identical to the unsharded "
      "merger; every multi-shard plan must cost within 2% of it. The "
      "16-shard cell pins the skew story: grid imbalance > 4 (one cell "
      "inherits a cluster), balanced < 2. Fresh instance per cell.");
  std::printf("hardware threads: %u%s%s\n\n", hw, smoke ? "   [smoke]" : "",
              big ? "   [big]" : "");

  const size_t n = smoke ? 4000 : 100000;
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{1, 4, 16} : std::vector<int>{1, 4, 16, 64};
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 8};

  TablePrinter table({"|Q|", "assign", "shards", "threads", "time ms",
                      "cost", "imbalance", "groups", "seam in",
                      "seam merges", "speedup"});
  obs::RunReport report("planner_shards");
  int failures = 0;

  // Unsharded reference for the identity and cost-quality checks.
  Cell reference;
  if (!RunCell("clustering", n, /*pruning=*/true, &reference)) return 1;

  double baseline_ms = 0.0;  // shards=1, threads=1 (assign-independent)
  double best_parallel_ms = 0.0;
  int best_shards = 0, best_threads = 0;
  ShardAssign best_assign = ShardAssign::kBalanced;
  // ms per (assign, shards, threads) for the balanced-vs-grid wall-clock
  // comparison at equal shard/thread counts; imbalance at the 16-shard
  // headline cell per assign.
  std::vector<ShardCell> cells;
  for (const ShardAssign assign : assigns) {
    for (const int shards : shard_counts) {
      // shards=1 delegates before assignment runs, so the cell is the
      // same under every assign; run it once.
      if (shards == 1 && assign != assigns.front()) continue;
      for (const int threads : thread_counts) {
        ShardCell cell;
        if (!RunShardCell(bench::Fig16WorkloadConfig(n), assign, shards,
                          threads, &cell)) {
          return 1;
        }
        if (shards == 1) {
          // Delegation must be byte-identical to the plain merger run.
          if (cell.partition != reference.partition ||
              cell.cost != reference.cost) {
            std::fprintf(stderr,
                         "INVARIANT VIOLATED: shards=1 (threads=%d) differs "
                         "from the unsharded plan at n=%zu\n",
                         threads, n);
            ++failures;
          }
          if (threads == 1) baseline_ms = cell.ms;
        } else {
          // Seam reconciliation keeps the plan near the unsharded one.
          if (!(cell.cost <= reference.cost * 1.02)) {
            std::fprintf(stderr,
                         "INVARIANT VIOLATED: assign=%s shards=%d "
                         "threads=%d cost %.6g exceeds unsharded %.6g by "
                         "more than 2%%\n",
                         AssignName(assign), shards, threads, cell.cost,
                         reference.cost);
            ++failures;
          }
          if (shards >= 4 && threads >= thread_counts.back() &&
              (best_parallel_ms == 0.0 || cell.ms < best_parallel_ms)) {
            best_parallel_ms = cell.ms;
            best_shards = shards;
            best_threads = threads;
            best_assign = assign;
          }
        }
        const double speedup =
            (baseline_ms > 0.0 && cell.ms > 0.0) ? baseline_ms / cell.ms
                                                 : 0.0;
        table.AddRow({std::to_string(n), AssignName(cell.assign),
                      std::to_string(shards), std::to_string(threads),
                      Fmt(cell.ms), Fmt(cell.cost, "%.6g"),
                      shards > 1 ? Fmt(cell.imbalance, "%.2f") : "",
                      std::to_string(cell.groups),
                      std::to_string(cell.seam_groups),
                      std::to_string(cell.seam_merges),
                      speedup > 0.0 ? Fmt(speedup, "%.2fx") : ""});
        // Built with append rather than chained operator+ to sidestep a
        // spurious GCC 12 -Wrestrict diagnostic on the inlined concat.
        std::string key = "n";
        key += std::to_string(n);
        key += ".";
        key += AssignName(cell.assign);
        key += ".s";
        key += std::to_string(shards);
        key += ".t";
        key += std::to_string(threads);
        report.AddScalar(key + ".ms", cell.ms);
        report.AddScalar(key + ".cost", cell.cost);
        report.AddScalar(key + ".imbalance", cell.imbalance);
        report.AddScalar(key + ".seam_groups",
                         static_cast<double>(cell.seam_groups));
        cell.partition.clear();
        cells.push_back(std::move(cell));
      }
    }
  }

  // --- Headline skew checks at the 16-shard fig16-hybrid cell
  // (deterministic — the imbalance is a function of the assignment
  // alone, so these run in smoke mode too). Grid sharding drops a whole
  // cluster into one cell (imbalance > 4); balanced bisection splits it
  // (< 2).
  for (const ShardCell& cell : cells) {
    if (cell.shards != 16 || cell.threads != thread_counts.back()) continue;
    if (cell.assign == ShardAssign::kGrid && !(cell.imbalance > 4.0)) {
      std::fprintf(stderr,
                   "FAIL: grid 16-shard imbalance %.2f not > 4.0 — the "
                   "hybrid workload should be skew-bound under the grid\n",
                   cell.imbalance);
      ++failures;
    }
    if (cell.assign == ShardAssign::kBalanced && !(cell.imbalance < 2.0)) {
      std::fprintf(stderr,
                   "FAIL: balanced 16-shard imbalance %.2f not < 2.0\n",
                   cell.imbalance);
      ++failures;
    }
  }
  // Balanced must beat grid end-to-end at equal shard/thread counts —
  // enforced only where timing is meaningful (full run, real
  // parallelism), always printed.
  for (const ShardCell& grid_cell : cells) {
    if (grid_cell.assign != ShardAssign::kGrid || grid_cell.shards <= 1) {
      continue;
    }
    for (const ShardCell& bal_cell : cells) {
      if (bal_cell.assign != ShardAssign::kBalanced ||
          bal_cell.shards != grid_cell.shards ||
          bal_cell.threads != grid_cell.threads) {
        continue;
      }
      const bool faster = bal_cell.ms < grid_cell.ms;
      std::printf("balanced vs grid @ shards=%d threads=%d: %.1f ms vs "
                  "%.1f ms (%s)\n",
                  grid_cell.shards, grid_cell.threads, bal_cell.ms,
                  grid_cell.ms, faster ? "balanced faster" : "GRID FASTER");
      if (!faster && !smoke && hw >= 4 && grid_cell.threads >= 4) {
        std::fprintf(stderr,
                     "FAIL: balanced not faster than grid at shards=%d "
                     "threads=%d\n",
                     grid_cell.shards, grid_cell.threads);
        ++failures;
      }
    }
  }

  // The 10^6-query cell: completion + accounting, no baseline rerun (an
  // unsharded pass at this size is exactly what sharding exists to
  // avoid timing). Runs the dispersed big workload — see
  // BigWorkloadConfig for why the hybrid can't shard at this scale
  // under the grid; balanced assignment is the default here.
  if (big) {
    const size_t big_n = 1000000;
    const int big_shards = 1024;
    const int big_threads = static_cast<int>(hw > 0 ? hw : 1u);
    ShardCell cell;
    if (!RunShardCell(BigWorkloadConfig(big_n), assigns.back(), big_shards,
                      big_threads, &cell)) {
      return 1;
    }
    table.AddRow({std::to_string(big_n), AssignName(cell.assign),
                  std::to_string(big_shards), std::to_string(big_threads),
                  Fmt(cell.ms), Fmt(cell.cost, "%.6g"),
                  Fmt(cell.imbalance, "%.2f"), std::to_string(cell.groups),
                  std::to_string(cell.seam_groups),
                  std::to_string(cell.seam_merges), ""});
    report.AddScalar("big.n1000000.ms", cell.ms);
    report.AddScalar("big.n1000000.cost", cell.cost);
    report.AddScalar("big.n1000000.groups",
                     static_cast<double>(cell.groups));
  }

  std::printf("%s\n", table.ToText().c_str());

  if (!smoke && hw >= 4) {
    const double speedup =
        best_parallel_ms > 0.0 ? baseline_ms / best_parallel_ms : 0.0;
    std::printf(
        "acceptance: best parallel cell (assign=%s, shards=%d, "
        "threads=%d) = %.2fx vs 1x1 (need >= 3x)\n",
        AssignName(best_assign), best_shards, best_threads, speedup);
    report.AddScalar("best_parallel_speedup", speedup);
    if (speedup < 3.0) {
      std::fprintf(stderr, "FAIL: sharded speedup below 3x\n");
      ++failures;
    }
  } else {
    std::printf(
        "acceptance: speedup check skipped (%s — identity, 2%% cost, and "
        "imbalance checks still enforced)\n",
        smoke ? "smoke mode" : "fewer than 4 hardware threads");
  }

  report.AddText("description",
                 "ShardedPlanner assign x shards x threads matrix: wall "
                 "time, plan cost, imbalance, and seam accounting per "
                 "cell.");
  report.AddBool("smoke", smoke);
  report.AddBool("checks_passed", failures == 0);
  report.AddTable("planner_shards", table);
  if (obs::Enabled()) report.AddMetrics(obs::MetricRegistry::Default());
  bench::WriteReportIfRequested(report);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qsp

int main(int argc, char** argv) {
  bool smoke = false;
  bool shards = false;
  bool big = false;
  // Default: both assignments, grid first — the table reads old to new
  // and the grid-vs-balanced comparisons need both sides.
  std::vector<qsp::ShardAssign> assigns = {qsp::ShardAssign::kGrid,
                                           qsp::ShardAssign::kBalanced};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--shards") == 0) shards = true;
    if (std::strcmp(argv[i], "--big") == 0) big = true;
    if (std::strcmp(argv[i], "--assign") == 0 && i + 1 < argc) {
      const char* value = argv[++i];
      if (std::strcmp(value, "grid") == 0) {
        assigns = {qsp::ShardAssign::kGrid};
      } else if (std::strcmp(value, "balanced") == 0) {
        assigns = {qsp::ShardAssign::kBalanced};
      } else {
        std::fprintf(stderr, "unknown --assign '%s'\n", value);
        return 2;
      }
    }
  }
  return shards ? qsp::RunShards(smoke, big, assigns) : qsp::Run(smoke);
}
