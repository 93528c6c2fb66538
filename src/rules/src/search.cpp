#include "colop/rules/search.h"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "colop/model/cost_memo.h"
#include "colop/obs/json.h"
#include "colop/obs/metrics.h"
#include "colop/obs/trace_context.h"

namespace colop::rules {
namespace {

/// One search state: a reachable program, the rule path that produced it,
/// and its memoized price.  `key` is the canonical dedup/memo key, `id`
/// the generation sequence number (deterministic tie-break).
struct Node {
  ir::Program program;
  std::vector<AppliedRule> path;
  double cost = 0;
  double bound = 0;  ///< admissible floor (branch-and-bound only)
  std::string key;
  std::uint64_t id = 0;
};

bool cheaper(const Node& a, const Node& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  return a.id < b.id;
}

/// Bounded cheapest-first collector for the top-K report.  States arrive
/// already deduplicated by canonical key (the seen-set admits each key
/// once; the greedy seed is inserted first and guarded by the same set).
class RankedCollector {
 public:
  explicit RankedCollector(std::size_t top_k) : top_k_(top_k) {}

  void offer(const Node& node) {
    if (top_k_ == 0) return;
    RankedSchedule r;
    r.program = node.program;
    r.path = node.path;
    r.cost = node.cost;
    const auto pos = std::upper_bound(
        ranked_.begin(), ranked_.end(), node,
        [this](const Node& n, const RankedSchedule& s) {
          return n.cost < s.cost ||
                 (n.cost == s.cost && n.id < order_[&s - ranked_.data()]);
        });
    const auto idx = static_cast<std::size_t>(pos - ranked_.begin());
    ranked_.insert(pos, std::move(r));
    order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(idx), node.id);
    if (ranked_.size() > top_k_) {
      ranked_.pop_back();
      order_.pop_back();
    }
  }

  [[nodiscard]] std::vector<RankedSchedule> take() { return std::move(ranked_); }

 private:
  std::size_t top_k_;
  std::vector<RankedSchedule> ranked_;
  std::vector<std::uint64_t> order_;  ///< node id per ranked entry
};

std::string fmt_cost(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::optional<SearchStrategy> parse_strategy(const std::string& name) {
  if (name == "greedy") return SearchStrategy::greedy;
  if (name == "beam") return SearchStrategy::beam;
  if (name == "bnb") return SearchStrategy::branch_bound;
  if (name == "exhaustive") return SearchStrategy::exhaustive;
  return std::nullopt;
}

std::string strategy_name(SearchStrategy strategy) {
  switch (strategy) {
    case SearchStrategy::greedy: return "greedy";
    case SearchStrategy::beam: return "beam";
    case SearchStrategy::branch_bound: return "bnb";
    case SearchStrategy::exhaustive: return "exhaustive";
  }
  return "?";
}

bool search_persistent_stage(const ir::Stage& stage) {
  return stage.row().persistent;
}

std::string RankedSchedule::path_text() const {
  if (path.empty()) return "(source)";
  std::string out;
  for (const auto& step : path) {
    if (!out.empty()) out += " ; ";
    out += step.rule + "@" + std::to_string(step.position);
  }
  return out;
}

SearchOptimizer::SearchOptimizer(model::Machine machine,
                                 std::vector<RulePtr> rules,
                                 SearchOptions options)
    : optimizer_(machine, rules, options.base),
      rules_(std::move(rules)),
      options_(options) {}

const model::Machine& SearchOptimizer::machine() const {
  return optimizer_.machine();
}

SearchResult SearchOptimizer::search(const ir::Program& prog) const {
  const bool bnb = options_.strategy == SearchStrategy::branch_bound;
  const std::size_t width = options_.strategy == SearchStrategy::exhaustive
                                ? 0
                                : options_.beam_width;

  SearchResult out;
  out.strategy = options_.strategy;
  out.beam_width = options_.strategy == SearchStrategy::beam ? width : 0;

  model::CostMemo memo(machine());
  const auto floor_of = [&](const ir::Program& p) {
    return model::cost_floor(p, machine(), search_persistent_stage);
  };

  std::uint64_t next_id = 0;
  Node root;
  root.program = prog;
  root.key = model::canonical_key(prog);
  root.cost = memo.time(root.key, prog);
  root.id = next_id++;

  out.best.program = prog;
  out.best.cost_initial = root.cost;
  out.best.cost_final = root.cost;

  // Greedy baseline: always priced (it is the report's reference point),
  // and — with seed_greedy — installed as the incumbent so no strategy
  // can return a worse schedule than the legacy optimizer.
  const OptimizeResult greedy = optimizer_.optimize(prog);
  out.greedy_cost = greedy.cost_final;

  if (options_.strategy == SearchStrategy::greedy) {
    out.best = greedy;
    RankedCollector ranked(options_.top_k);
    Node g;
    g.program = greedy.program;
    g.path = greedy.log;
    g.key = model::canonical_key(greedy.program);
    g.cost = memo.time(g.key, greedy.program);
    g.id = next_id++;
    ranked.offer(g);
    out.ranked = ranked.take();
    out.stats.memo_hits = memo.hits();
    out.stats.memo_entries = memo.entries();
    return out;
  }

  RankedCollector ranked(options_.top_k);
  std::unordered_set<std::string> seen{root.key};
  ranked.offer(root);

  Node incumbent = root;
  if (options_.seed_greedy) {
    Node g;
    g.program = greedy.program;
    g.path = greedy.log;
    g.key = model::canonical_key(greedy.program);
    g.cost = memo.time(g.key, greedy.program);
    g.id = next_id++;
    if (seen.insert(g.key).second) ranked.offer(g);
    if (cheaper(g, incumbent)) incumbent = std::move(g);
  }

  SearchStats& stats = out.stats;
  const std::size_t budget = options_.base.max_search_nodes;

  // Generate the admissible successors of `node`, deduplicated and priced
  // through the memo; every fresh state competes for incumbent and report.
  const auto expand = [&](const Node& node) {
    std::vector<Node> children;
    for (const auto& rule : rules_) {
      for (auto& m : rule->matches(node.program)) {
        // Like the legacy exhaustive BFS the search explores locally
        // non-improving steps (a worse intermediate can enable a better
        // final program) but still respects the equivalence policy and
        // the memory budget.
        if (!optimizer_.expansion_ok(node.program, m)) continue;
        ir::Program next = m.apply(node.program);
        std::string key = model::canonical_key(next);
        const double t = memo.time(key, next);
        if (!seen.insert(key).second) continue;  // shared subpath: priced once
        ++stats.nodes_generated;
        Node child;
        child.path = node.path;
        child.path.push_back(AppliedRule{m.rule_name, m.first, m.count,
                                         m.replacement.size(), m.note,
                                         node.cost, t, key});
        child.program = std::move(next);
        child.cost = t;
        child.key = std::move(key);
        child.id = next_id++;
        stats.depth_reached = std::max(stats.depth_reached, child.path.size());
        ranked.offer(child);
        if (cheaper(child, incumbent)) incumbent = child;
        children.push_back(std::move(child));
      }
    }
    return children;
  };

  if (!bnb) {
    // Level-synchronous beam search; width 0 = unbounded = exhaustive BFS.
    std::vector<Node> frontier;
    frontier.push_back(std::move(root));
    while (!frontier.empty()) {
      std::vector<Node> next_frontier;
      std::size_t processed = 0;
      for (Node& node : frontier) {
        if (stats.nodes_expanded >= budget) break;
        ++stats.nodes_expanded;
        ++processed;
        for (Node& child : expand(node))
          next_frontier.push_back(std::move(child));
      }
      if (processed < frontier.size()) {
        stats.pruned_by_budget +=
            frontier.size() - processed + next_frontier.size();
        break;
      }
      stats.frontier_peak = std::max(stats.frontier_peak, next_frontier.size());
      if (width > 0 && next_frontier.size() > width) {
        std::sort(next_frontier.begin(), next_frontier.end(), cheaper);
        stats.pruned_by_beam += next_frontier.size() - width;
        next_frontier.resize(width);
      }
      frontier = std::move(next_frontier);
    }
  } else {
    // Best-first branch-and-bound ordered by the admissible floor; the
    // greedy incumbent makes pruning effective from the first pop.
    root.bound = floor_of(root.program);
    const auto later = [](const Node& a, const Node& b) {
      if (a.bound != b.bound) return a.bound > b.bound;
      return a.id > b.id;  // FIFO among equal bounds: deterministic
    };
    std::vector<Node> queue;
    queue.push_back(std::move(root));
    while (!queue.empty()) {
      if (stats.nodes_expanded >= budget) {
        stats.pruned_by_budget += queue.size();
        break;
      }
      std::pop_heap(queue.begin(), queue.end(), later);
      Node node = std::move(queue.back());
      queue.pop_back();
      if (node.bound >= incumbent.cost) {
        // The queue is bound-ordered: everything left is at least as
        // hopeless as this node.
        stats.pruned_by_bound += queue.size() + 1;
        break;
      }
      ++stats.nodes_expanded;
      for (Node& child : expand(node)) {
        child.bound = floor_of(child.program);
        if (child.bound >= incumbent.cost) {
          // No descendant can undercut the incumbent: the floor's stages
          // survive every further rewrite at this exact cost.
          ++stats.pruned_by_bound;
          continue;
        }
        queue.push_back(std::move(child));
        std::push_heap(queue.begin(), queue.end(), later);
      }
      stats.frontier_peak = std::max(stats.frontier_peak, queue.size());
    }
  }

  stats.memo_hits = memo.hits();
  stats.memo_entries = memo.entries();

  out.best.program = incumbent.program;
  out.best.log = std::move(incumbent.path);
  out.best.cost_final = incumbent.cost;
  out.ranked = ranked.take();
  for (std::size_t i = 0; i < out.ranked.size(); ++i)
    if (model::canonical_key(out.ranked[i].program) == incumbent.key)
      out.winner_index = i;
  return out;
}

std::string SearchResult::render_report() const {
  std::ostringstream os;
  os << "search report (" << strategy_name(strategy);
  if (strategy == SearchStrategy::beam)
    os << ", width " << (beam_width == 0 ? std::string("unbounded")
                                         : std::to_string(beam_width));
  os << "):\n";
  os << "  nodes    : " << stats.nodes_expanded << " expanded, "
     << stats.nodes_generated << " generated\n";
  os << "  pruned   : " << stats.pruned_by_bound << " by bound, "
     << stats.pruned_by_beam << " by beam, " << stats.pruned_by_budget
     << " by budget\n";
  os << "  memo     : " << stats.memo_hits << " hits / "
     << stats.memo_entries << " priced";
  if (stats.memo_hits + stats.memo_entries > 0) {
    std::ostringstream pct;
    pct.precision(3);
    pct << stats.memo_hit_rate() * 100;
    os << " (" << pct.str() << "% hit rate)";
  }
  os << "\n";
  os << "  frontier : peak " << stats.frontier_peak << ", depth "
     << stats.depth_reached << "\n";
  os << "  baseline : greedy cost " << fmt_cost(greedy_cost) << "\n";
  const double winner_cost = best.cost_final;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const RankedSchedule& r = ranked[i];
    os << (i == winner_index ? "  * #" : "    #") << i + 1 << "  cost "
       << fmt_cost(r.cost);
    if (r.cost != winner_cost) os << "  (+" << fmt_cost(r.cost - winner_cost) << ")";
    if (r.certified == 1) os << "  [certified]";
    if (r.certified == 0) os << "  [NOT certified]";
    os << "  " << r.path_text() << "\n";
    os << "        = " << r.program.show() << "\n";
  }
  return os.str();
}

void SearchResult::write_json(std::ostream& os) const {
  namespace json = obs::json;
  const std::string trace = obs::trace_id_json_field();
  os << "{\"kind\":\"colop_search_report\",\"schema_version\":1,";
  if (!trace.empty()) os << trace.substr(1) << ",";
  os << "\"strategy\":" << json::quote(strategy_name(strategy))
     << ",\"beam_width\":" << beam_width
     << ",\"greedy_cost\":" << json::number(greedy_cost)
     << ",\"winner_cost\":" << json::number(best.cost_final)
     << ",\"winner_index\":" << winner_index << ",\"stats\":{"
     << "\"nodes_expanded\":" << stats.nodes_expanded
     << ",\"nodes_generated\":" << stats.nodes_generated
     << ",\"pruned_by_bound\":" << stats.pruned_by_bound
     << ",\"pruned_by_beam\":" << stats.pruned_by_beam
     << ",\"pruned_by_budget\":" << stats.pruned_by_budget
     << ",\"memo_hits\":" << stats.memo_hits
     << ",\"memo_entries\":" << stats.memo_entries
     << ",\"memo_hit_rate\":" << json::number(stats.memo_hit_rate())
     << ",\"frontier_peak\":" << stats.frontier_peak
     << ",\"depth_reached\":" << stats.depth_reached << "},\"ranked\":[";
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const RankedSchedule& r = ranked[i];
    if (i != 0) os << ",";
    os << "{\"rank\":" << i + 1 << ",\"cost\":" << json::number(r.cost)
       << ",\"gap\":" << json::number(r.cost - best.cost_final)
       << ",\"certified\":" << r.certified
       << ",\"path\":" << json::quote(r.path_text())
       << ",\"program\":" << json::quote(r.program.show())
       << ",\"state\":" << json::quote([&] {
            std::ostringstream hex;
            hex << std::hex << model::canonical_hash(
                model::canonical_key(r.program));
            return hex.str();
          }())
       << ",\"rules\":[";
    for (std::size_t j = 0; j < r.path.size(); ++j) {
      const AppliedRule& step = r.path[j];
      if (j != 0) os << ",";
      os << "{\"rule\":" << json::quote(step.rule)
         << ",\"position\":" << step.position
         << ",\"note\":" << json::quote(step.note)
         << ",\"cost_after\":" << json::number(step.cost_after) << "}";
    }
    os << "]}";
  }
  os << "]}\n";
}

void publish_search_metrics(const SearchResult& result,
                            obs::Registry& registry) {
  const obs::LabelSet strat{{"strategy", strategy_name(result.strategy)}};
  registry
      .counter("colop_search_nodes_total", "Search states, by lifecycle event",
               {{"event", "expanded"}})
      .inc(static_cast<double>(result.stats.nodes_expanded));
  registry
      .counter("colop_search_nodes_total", "Search states, by lifecycle event",
               {{"event", "generated"}})
      .inc(static_cast<double>(result.stats.nodes_generated));
  const struct {
    const char* reason;
    std::size_t count;
  } pruned[] = {{"bound", result.stats.pruned_by_bound},
                {"beam", result.stats.pruned_by_beam},
                {"budget", result.stats.pruned_by_budget}};
  for (const auto& p : pruned)
    registry
        .counter("colop_search_pruned_total",
                 "Search states pruned, by reason", {{"reason", p.reason}})
        .inc(static_cast<double>(p.count));
  registry
      .counter("colop_search_memo_total",
               "State pricings, by cost-memo outcome", {{"result", "hit"}})
      .inc(static_cast<double>(result.stats.memo_hits));
  registry
      .counter("colop_search_memo_total",
               "State pricings, by cost-memo outcome", {{"result", "miss"}})
      .inc(static_cast<double>(result.stats.memo_entries));
  registry
      .gauge("colop_search_frontier_peak", "Peak frontier/queue size", strat)
      .set(static_cast<double>(result.stats.frontier_peak));
  registry
      .gauge("colop_search_depth", "Longest rule sequence considered", strat)
      .set(static_cast<double>(result.stats.depth_reached));
  registry
      .gauge("colop_search_beam_width", "Beam width (0 = unbounded)", strat)
      .set(static_cast<double>(result.beam_width));
  registry
      .gauge("colop_search_cost_units", "Predicted schedule cost in op units",
             {{"version", "greedy"}})
      .set(result.greedy_cost);
  registry
      .gauge("colop_search_cost_units", "Predicted schedule cost in op units",
             {{"version", "winner"}})
      .set(result.best.cost_final);
}

}  // namespace colop::rules
