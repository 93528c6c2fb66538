#include "colop/rules/optimizer.h"

#include "colop/model/memory.h"
#include "colop/rules/search.h"
#include "colop/obs/json.h"
#include "colop/obs/metrics.h"
#include "colop/obs/trace_context.h"

#include <algorithm>
#include <cstddef>
#include <ostream>
#include <sstream>

namespace colop::rules {

std::string ExplainLog::render_text(bool include_unmatched) const {
  std::ostringstream os;
  for (const auto& a : attempts) {
    if (!include_unmatched && !a.matched && a.verdict == "no match") continue;
    os << a.rule << " @" << a.position << ": " << a.verdict;
    if (!a.note.empty()) os << " {" << a.note << "}";
    if (a.matched)
      os << " (T " << a.cost_before << " -> " << a.cost_after
         << ", delta " << a.cost_after - a.cost_before << ")";
    os << "\n";
  }
  return os.str();
}

void ExplainLog::write_json(std::ostream& os) const {
  namespace json = obs::json;
  const std::string trace = obs::trace_id_json_field();
  os << "{";
  if (!trace.empty()) os << trace.substr(1) << ",";
  os << "\"attempts\":[";
  bool first = true;
  for (const auto& a : attempts) {
    if (!first) os << ",";
    first = false;
    os << "{\"rule\":" << json::quote(a.rule) << ",\"position\":" << a.position
       << ",\"matched\":" << (a.matched ? "true" : "false")
       << ",\"verdict\":" << json::quote(a.verdict);
    if (!a.note.empty()) os << ",\"note\":" << json::quote(a.note);
    if (a.matched)
      os << ",\"cost_before\":" << json::number(a.cost_before)
         << ",\"cost_after\":" << json::number(a.cost_after)
         << ",\"cost_delta\":" << json::number(a.cost_after - a.cost_before);
    os << "}";
  }
  os << "]}\n";
}

std::string OptimizeResult::report() const {
  std::ostringstream os;
  os << "initial cost " << cost_initial << "\n";
  for (const auto& a : log) {
    os << "  apply " << a.rule << " @" << a.position;
    if (!a.note.empty()) os << " {" << a.note << "}";
    os << ": " << a.cost_before << " -> " << a.cost_after << "\n";
    os << "    = " << a.program_after << "\n";
  }
  os << "final cost " << cost_final;
  return os.str();
}

void publish_metrics(const OptimizeResult& result, const ExplainLog* explain,
                     obs::Registry& registry) {
  for (const auto& step : result.log)
    registry
        .counter("colop_rules_applied_total",
                 "Rewrite rules applied by the optimizer", {{"rule", step.rule}})
        .inc();
  registry
      .gauge("colop_opt_cost_units", "Predicted program cost in op units",
             {{"version", "initial"}})
      .set(result.cost_initial);
  registry
      .gauge("colop_opt_cost_units", "Predicted program cost in op units",
             {{"version", "final"}})
      .set(result.cost_final);
  registry
      .counter("colop_opt_cost_saved_total",
               "Predicted op units saved by rewriting")
      .inc(std::max(0.0, result.cost_initial - result.cost_final));
  if (explain == nullptr) return;
  for (const auto& a : explain->attempts) {
    registry
        .counter("colop_rules_attempted_total",
                 "Rule x position attempts, by verdict",
                 {{"rule", a.rule},
                  {"verdict", a.matched ? (a.verdict == "applied" ? "applied"
                                                                  : "matched")
                                        : "no_match"}})
        .inc();
    if (a.verdict.rfind("rejected:", 0) == 0)
      registry
          .counter("colop_rules_rejected_total",
                   "Matched rewrites rejected by policy/memory/profitability",
                   {{"rule", a.rule},
                    {"reason", a.verdict.substr(sizeof("rejected:"))}})
          .inc();
  }
}

std::vector<std::string> stage_provenance(std::size_t initial_stages,
                                          const std::vector<AppliedRule>& log) {
  std::vector<std::string> prov(initial_stages);
  for (const auto& step : log) {
    // Mirror Program::splice: replace [position, position+count) with
    // replaced_by stages, all attributed to this step's rule.
    const std::size_t first = std::min(step.position, prov.size());
    const std::size_t count = std::min(step.count, prov.size() - first);
    const auto begin =
        prov.begin() + static_cast<std::ptrdiff_t>(first);
    const auto end = begin + static_cast<std::ptrdiff_t>(count);
    const std::vector<std::string> replacement(step.replaced_by, step.rule);
    prov.erase(begin, end);
    prov.insert(prov.begin() + static_cast<std::ptrdiff_t>(first),
                replacement.begin(), replacement.end());
  }
  return prov;
}

Optimizer::Optimizer(model::Machine machine, std::vector<RulePtr> rules,
                     OptimizerOptions options)
    : machine_(machine), rules_(std::move(rules)), options_(options) {}

bool Optimizer::equivalence_ok(const ir::Program& prog,
                               const RuleMatch& m) const {
  if (m.equivalence == Equivalence::full) return true;
  if (masked_by_bcast(prog, m.first + m.count, m.root)) return true;
  switch (options_.policy) {
    case EquivalencePolicy::strict:
      return false;
    case EquivalencePolicy::root_result:
      return m.first + m.count == prog.size();
    case EquivalencePolicy::paper:
      return true;
  }
  return false;
}

std::string Optimizer::admissibility_verdict(const ir::Program& prog,
                                             const RuleMatch& m,
                                             double& after) const {
  after = 0;
  if (!equivalence_ok(prog, m)) return "rejected: equivalence policy";
  if (options_.max_elem_words > 0) {
    try {
      if (model::peak_elem_words(m.apply(prog)) > options_.max_elem_words)
        return "rejected: memory budget";
    } catch (const Error&) {
      return "rejected: shape-inconsistent rewrite";
    }
  }
  after = model::program_time(m.apply(prog), machine_);
  if (options_.require_cost_improvement) {
    const double before = model::program_time(prog, machine_);
    if (!(after < before)) return "rejected: not profitable";
  }
  return {};
}

bool Optimizer::admissible(const ir::Program& prog, const RuleMatch& m) const {
  double after = 0;
  return admissibility_verdict(prog, m, after).empty();
}

std::vector<RuleMatch> Optimizer::admissible_matches(
    const ir::Program& prog) const {
  std::vector<RuleMatch> out;
  ExplainLog* ex = options_.explain;
  const double current =
      ex != nullptr ? model::program_time(prog, machine_) : 0;
  for (const auto& rule : rules_) {
    for (std::size_t at = 0; at < prog.size(); ++at) {
      std::string why;
      auto m = rule->match(prog, at, ex != nullptr ? &why : nullptr);
      if (!m) {
        if (ex != nullptr) {
          RuleAttempt a;
          a.rule = rule->name();
          a.position = at;
          a.verdict = why.empty() ? "no match" : "condition failed: " + why;
          ex->attempts.push_back(std::move(a));
        }
        continue;
      }
      double after = 0;
      const std::string verdict = admissibility_verdict(prog, *m, after);
      if (ex != nullptr) {
        RuleAttempt a;
        a.rule = m->rule_name;
        a.position = m->first;
        a.matched = true;
        a.verdict = verdict.empty() ? "candidate" : verdict;
        a.note = m->note;
        a.cost_before = current;
        if (after > 0) {
          a.cost_after = after;
        } else {
          try {
            a.cost_after = model::program_time(m->apply(prog), machine_);
          } catch (const Error&) {
            a.cost_after = current;  // unevaluable rewrite: report no delta
          }
        }
        ex->attempts.push_back(std::move(a));
      }
      if (verdict.empty()) out.push_back(std::move(*m));
    }
  }
  return out;
}

OptimizeResult Optimizer::optimize(const ir::Program& prog) const {
  OptimizeResult result;
  result.program = prog;
  result.cost_initial = model::program_time(prog, machine_);

  for (;;) {
    auto candidates = admissible_matches(result.program);
    if (candidates.empty()) break;

    // Pick the match with the lowest resulting predicted time.
    const RuleMatch* best = nullptr;
    ir::Program best_prog;
    double best_time = model::program_time(result.program, machine_);
    const double current = best_time;
    for (const auto& m : candidates) {
      ir::Program candidate = m.apply(result.program);
      const double t = model::program_time(candidate, machine_);
      if (t < best_time) {
        best_time = t;
        best = &m;
        best_prog = std::move(candidate);
      }
    }
    if (!best) break;  // no strict improvement available

    result.log.push_back(AppliedRule{best->rule_name, best->first, best->count,
                                     best->replacement.size(), best->note,
                                     current, best_time, best_prog.show()});
    if (options_.explain != nullptr)
      options_.explain->attempts.push_back(RuleAttempt{
          best->rule_name, best->first, true, "applied", best->note, current,
          best_time});
    result.program = std::move(best_prog);
  }
  result.cost_final = model::program_time(result.program, machine_);
  return result;
}

bool Optimizer::expansion_ok(const ir::Program& prog,
                             const RuleMatch& m) const {
  if (!equivalence_ok(prog, m)) return false;
  if (options_.max_elem_words > 0) {
    try {
      if (model::peak_elem_words(m.apply(prog)) > options_.max_elem_words)
        return false;
    } catch (const Error&) {
      return false;  // shape-inconsistent rewrite
    }
  }
  return true;
}

OptimizeResult Optimizer::optimize_exhaustive(const ir::Program& prog) const {
  SearchOptions sopts;
  sopts.strategy = SearchStrategy::exhaustive;
  sopts.beam_width = 0;
  sopts.top_k = 1;
  sopts.base = options_;
  return SearchOptimizer(machine_, rules_, sopts).search(prog).best;
}

}  // namespace colop::rules
