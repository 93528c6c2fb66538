#pragma once
// Cost-guided schedule search: beam search and branch-and-bound over
// rule-application sequences, replacing one-step-greedy rewriting.
//
// The greedy optimizer (optimizer.h) commits to the locally best rewrite
// at every step, but many programs admit several rewrite orders with very
// different costs — e.g. `bcast ; scan(+) ; scan(+) ; reduce(+)` can be
// fused whole by BSS-Comcast or first balanced by SR-Reduction and then
// fused by BS-Comcast, and which order wins depends on (p, m, ts, tw).
// The search layer explores the space of rule-application sequences:
//
//   * `beam`        — level-synchronous beam search: expand every state of
//                     the current frontier, keep the `beam_width` cheapest
//                     successors.  Width 0 means unbounded, which is plain
//                     breadth-first exhaustive search; `exhaustive` is an
//                     alias for that special case (and what the legacy
//                     Optimizer::optimize_exhaustive now delegates to).
//   * `branch_bound`— best-first search ordered by an admissible lower
//                     bound (model::cost_floor over the stages no rule can
//                     consume); a state whose bound already meets the
//                     incumbent is pruned, and since the frontier is
//                     bound-ordered the first such pop drains the queue.
//   * `greedy`      — the legacy strategy, wrapped for a uniform report.
//
// Dominance guarantee: the search seeds its incumbent with the greedy
// result, so every strategy returns a schedule at most as expensive as
// greedy's even when the beam is narrow or the node budget runs out.
// States are deduplicated and priced once by canonical program key
// (model::CostMemo), so rule-order permutations that converge on the same
// program cost one evaluation.
//
// The result carries the winner, a ranked top-K of near-miss schedules
// (rule paths + cost gaps), and the search internals (nodes expanded,
// pruned by bound/beam/budget, memo hit rate, frontier peak) for the
// telemetry hub and the run-store manifest.  Soundness of the winner is
// NOT assumed here: colop::verify re-discharges every winning sequence's
// rewrite certificates (verify::certify_search) before colopt returns it.

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "colop/ir/program.h"
#include "colop/model/machine.h"
#include "colop/rules/optimizer.h"
#include "colop/rules/rules.h"

namespace colop::obs {
class Registry;
}  // namespace colop::obs

namespace colop::rules {

enum class SearchStrategy {
  greedy,        ///< legacy one-step-greedy (Optimizer::optimize)
  beam,          ///< level-synchronous beam search of width beam_width
  branch_bound,  ///< best-first with admissible lower-bound pruning
  exhaustive,    ///< breadth-first over all sequences (= beam, width 0)
};

/// Parse a strategy name ("greedy" | "beam" | "bnb" | "exhaustive");
/// nullopt on anything else — the CLI turns that into a usage error.
[[nodiscard]] std::optional<SearchStrategy> parse_strategy(
    const std::string& name);
[[nodiscard]] std::string strategy_name(SearchStrategy strategy);

struct SearchOptions {
  SearchStrategy strategy = SearchStrategy::beam;
  /// Beam width; 0 = unbounded (exhaustive).  Ignored by greedy/bnb.
  std::size_t beam_width = 8;
  /// Ranked schedules to keep in the report (winner + near misses).
  std::size_t top_k = 5;
  /// Seed the incumbent with the greedy result (dominance guarantee:
  /// search never returns a schedule worse than greedy).  Tests may turn
  /// this off to measure the raw search.
  bool seed_greedy = true;
  /// The underlying optimizer options: equivalence policy, memory budget
  /// and node budget (max_search_nodes) gate the search exactly as they
  /// gate the legacy exhaustive BFS; require_cost_improvement only
  /// affects the greedy seed (search explores worse intermediates).
  OptimizerOptions base;
};

/// Search internals, published to obs::Registry and archived in the run
/// manifest so `colop_diff` can explain why two runs chose different
/// schedules.
struct SearchStats {
  std::size_t nodes_expanded = 0;   ///< states popped and expanded
  std::size_t nodes_generated = 0;  ///< admissible successor states generated
  std::size_t pruned_by_bound = 0;  ///< bnb: lower bound >= incumbent
  std::size_t pruned_by_beam = 0;   ///< beam: outside the width at a depth
  std::size_t pruned_by_budget = 0; ///< frontier left unexpanded at budget
  std::size_t memo_hits = 0;        ///< state pricings served from the memo
  std::size_t memo_entries = 0;     ///< distinct states priced
  std::size_t frontier_peak = 0;    ///< widest frontier / deepest queue
  std::size_t depth_reached = 0;    ///< longest rule sequence considered

  [[nodiscard]] double memo_hit_rate() const {
    const std::size_t total = memo_hits + memo_entries;
    return total == 0 ? 0.0
                      : static_cast<double>(memo_hits) /
                            static_cast<double>(total);
  }
};

/// One ranked schedule of the top-K report: a complete rewrite target with
/// the rule path that reaches it and its predicted cost.
struct RankedSchedule {
  ir::Program program;
  std::vector<AppliedRule> path;
  double cost = 0;
  /// Certificate status, filled by verify::certify_search: -1 unknown
  /// (not yet discharged), 0 failed, 1 discharged.  Lives here so one
  /// report renderer covers both the raw and the certified result.
  int certified = -1;

  /// "SR-Reduction@2 ; BS-Comcast@0", "(source)" for the empty path.
  [[nodiscard]] std::string path_text() const;
};

struct SearchResult {
  SearchStrategy strategy = SearchStrategy::beam;
  std::size_t beam_width = 0;  ///< as searched; 0 = unbounded
  /// The winner in the legacy shape (program, derivation log, costs) —
  /// what the rest of the colopt pipeline consumes.
  OptimizeResult best;
  /// Cheapest-first ranked schedules, at most SearchOptions::top_k; the
  /// entry at `winner_index` is `best` (index 0 unless verification
  /// demoted cheaper-but-uncertified schedules).
  std::vector<RankedSchedule> ranked;
  std::size_t winner_index = 0;
  SearchStats stats;
  /// Greedy baseline cost (the seeded incumbent); equals best.cost_final
  /// when search found nothing cheaper.
  double greedy_cost = 0;

  /// Human-readable search report: stats header + ranked table with rule
  /// paths, cost gaps to the winner, and certificate status when known.
  [[nodiscard]] std::string render_report() const;
  /// Machine-readable report ({"kind":"colop_search_report",...}).
  void write_json(std::ostream& os) const;
};

/// True when no rewrite rule in the paper's catalog consumes a stage of
/// this kind: the `persistent` column of the stage-kind table (ir/stage.h).
/// Scan/Reduce/AllReduce/Bcast are the consumable ones, and so are the
/// split-phase stages, which also price below their window; MB-Swap
/// re-emits its map with identical cost, so Map counts as persistent.
/// This is the predicate behind the branch-and-bound lower bound; it is a
/// property of all_rules(), so custom rule sets that consume other kinds
/// must not use bound pruning.
[[nodiscard]] bool search_persistent_stage(const ir::Stage& stage);

class SearchOptimizer {
 public:
  explicit SearchOptimizer(model::Machine machine,
                           std::vector<RulePtr> rules = all_rules(),
                           SearchOptions options = {});

  [[nodiscard]] SearchResult search(const ir::Program& prog) const;

  [[nodiscard]] const model::Machine& machine() const;
  [[nodiscard]] const SearchOptions& options() const { return options_; }

 private:
  Optimizer optimizer_;  ///< greedy seed + equivalence/memory gating
  std::vector<RulePtr> rules_;
  SearchOptions options_;
};

/// Publish search telemetry into the hub registry:
///   colop_search_nodes_total{event=expanded|generated}
///   colop_search_pruned_total{reason=bound|beam|budget}
///   colop_search_memo_total{result=hit|miss}
///   colop_search_frontier_peak, colop_search_depth, colop_search_beam_width
///   colop_search_cost_units{version=greedy|winner}
void publish_search_metrics(const SearchResult& result,
                            obs::Registry& registry);

}  // namespace colop::rules
