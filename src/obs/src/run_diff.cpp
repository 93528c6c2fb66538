#include "colop/obs/run_diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "colop/obs/html.h"
#include "colop/obs/json.h"
#include "colop/support/error.h"

namespace colop::obs {
namespace {

using html::escape;
using html::fixed;

std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Signed relative change (b - a) / |a|, rendered as "+12.3%"; "n/a" when
/// the baseline is 0.
std::string rel_text(double a, double b) {
  if (a == 0) return b == 0 ? "+0.0%" : "n/a";
  const double rel = (b - a) / std::abs(a);
  return (rel >= 0 ? "+" : "") + fixed(rel * 100, 1) + "%";
}

/// Longest-common-subsequence alignment of the two schedules by stage
/// label.  Programs are short (a handful of stages), so the quadratic DP
/// is free; matching by label keeps a stage paired with its counterpart
/// even when rewrites shifted its position.
std::vector<StageDelta> align_stages(const std::vector<StageRecord>& a,
                                     const std::vector<StageRecord>& b) {
  const std::size_t n = a.size(), m = b.size();
  std::vector<std::vector<std::size_t>> lcs(n + 1,
                                            std::vector<std::size_t>(m + 1, 0));
  for (std::size_t i = n; i-- > 0;)
    for (std::size_t j = m; j-- > 0;)
      lcs[i][j] = a[i].label == b[j].label
                      ? lcs[i + 1][j + 1] + 1
                      : std::max(lcs[i + 1][j], lcs[i][j + 1]);
  std::vector<StageDelta> rows;
  std::size_t i = 0, j = 0;
  auto removed = [&](const StageRecord& s) {
    StageDelta d;
    d.status = "removed";
    d.index_a = s.index;
    d.label = s.label;
    d.rule_a = s.rule;
    d.time_a = s.model_time;
    rows.push_back(std::move(d));
  };
  auto added = [&](const StageRecord& s) {
    StageDelta d;
    d.status = "added";
    d.index_b = s.index;
    d.label = s.label;
    d.rule_b = s.rule;
    d.time_b = s.model_time;
    rows.push_back(std::move(d));
  };
  while (i < n && j < m) {
    if (a[i].label == b[j].label) {
      StageDelta d;
      d.index_a = a[i].index;
      d.index_b = b[j].index;
      d.label = a[i].label;
      d.rule_a = a[i].rule;
      d.rule_b = b[j].rule;
      d.time_a = a[i].model_time;
      d.time_b = b[j].model_time;
      const bool cost_same =
          std::abs(d.time_b - d.time_a) <=
          1e-9 * std::max(std::abs(d.time_a), std::abs(d.time_b));
      d.status = cost_same && d.rule_a == d.rule_b ? "same" : "changed";
      rows.push_back(std::move(d));
      ++i, ++j;
    } else if (lcs[i + 1][j] >= lcs[i][j + 1]) {
      removed(a[i++]);
    } else {
      added(b[j++]);
    }
  }
  while (i < n) removed(a[i++]);
  while (j < m) added(b[j++]);
  return rows;
}

/// "rule@position {note}" — the identity of one derivation step for the
/// decision diff (cost numbers are machine-dependent and compared via the
/// stage table, not here).
std::string rule_key(const RuleRecord& r) {
  std::string key = r.rule + "@" + std::to_string(r.position);
  if (!r.note.empty()) key += " {" + r.note + "}";
  return key;
}

/// Max |time_rel_err| over the "optimized" rows of an archived drift
/// artifact; false when the document is absent or not drift-shaped.
bool drift_max_rel_err(const RunBundle& bundle, double* out) {
  const auto it = bundle.artifacts.find("drift");
  if (it == bundle.artifacts.end() || it->second.empty()) return false;
  try {
    const json::Value doc = json::parse(it->second);
    const json::Value* optimized = doc.get("optimized");
    if (optimized == nullptr) return false;
    const json::Value* rows = optimized->get("rows");
    if (rows == nullptr || !rows->is(json::Value::Type::array)) return false;
    double max_err = 0;
    for (const auto& row : rows->items)
      if (const json::Value* err = row->get("time_rel_err"))
        max_err = std::max(max_err, std::abs(err->num));
    *out = max_err;
    return true;
  } catch (const Error&) {
    return false;
  }
}

RunRef make_ref(const RunBundle& bundle) {
  RunRef ref;
  ref.trace_id = bundle.trace_id;
  ref.git_sha = bundle.git_sha;
  ref.timestamp = bundle.timestamp;
  ref.program = bundle.program_after;
  ref.model_cost = bundle.model_cost_after;
  ref.sim = bundle.sim_after;
  ref.wall_ms = bundle.wall_ms;
  return ref;
}

void write_ref_json(std::ostream& os, const RunRef& r) {
  os << "{\"trace_id\":" << json::quote(r.trace_id)
     << ",\"git_sha\":" << json::quote(r.git_sha)
     << ",\"timestamp\":" << json::quote(r.timestamp)
     << ",\"program\":" << json::quote(r.program)
     << ",\"model_cost\":" << json::number(r.model_cost)
     << ",\"sim_time\":" << json::number(r.sim.time)
     << ",\"sim_messages\":" << r.sim.messages
     << ",\"sim_words\":" << json::number(r.sim.words)
     << ",\"wall_ms\":" << json::number(r.wall_ms) << "}";
}

void write_search_json(std::ostream& os,
                       const std::optional<SearchRecord>& s) {
  if (!s) {
    os << "null";
    return;
  }
  os << "{\"strategy\":" << json::quote(s->strategy)
     << ",\"beam_width\":" << s->beam_width
     << ",\"nodes_expanded\":" << s->nodes_expanded
     << ",\"nodes_generated\":" << s->nodes_generated
     << ",\"pruned_bound\":" << s->pruned_bound
     << ",\"pruned_beam\":" << s->pruned_beam
     << ",\"pruned_budget\":" << s->pruned_budget
     << ",\"memo_hits\":" << s->memo_hits
     << ",\"memo_entries\":" << s->memo_entries
     << ",\"frontier_peak\":" << s->frontier_peak
     << ",\"depth\":" << s->depth
     << ",\"greedy_cost\":" << json::number(s->greedy_cost)
     << ",\"winner_cost\":" << json::number(s->winner_cost)
     << ",\"winner_certified\":" << (s->winner_certified ? "true" : "false")
     << ",\"ranked\":[";
  for (std::size_t i = 0; i < s->ranked.size(); ++i) {
    if (i != 0) os << ",";
    os << "{\"cost\":" << json::number(s->ranked[i].cost)
       << ",\"path\":" << json::quote(s->ranked[i].path)
       << ",\"certified\":" << s->ranked[i].certified << "}";
  }
  os << "]}";
}

void write_total_json(std::ostream& os, const char* name, double a, double b) {
  os << json::quote(name) << ":{\"a\":" << json::number(a)
     << ",\"b\":" << json::number(b) << ",\"delta\":" << json::number(b - a);
  if (a != 0) os << ",\"rel\":" << json::number((b - a) / std::abs(a));
  os << "}";
}

}  // namespace

RunDiff diff_runs(const RunBundle& a, const RunBundle& b) {
  RunDiff d;
  d.a = make_ref(a);
  d.b = make_ref(b);
  d.machine_a = a.machine;
  d.machine_b = b.machine;
  d.stages = align_stages(a.stages_after, b.stages_after);

  // Suspects: every stage that costs more in B than in A (including
  // stages that only exist in B), ranked by its share of the total
  // regression.  Ties break toward the earlier schedule position so the
  // ranking is deterministic.
  double total_regression = 0;
  for (std::size_t i = 0; i < d.stages.size(); ++i)
    if (d.stages[i].delta() > 0) total_regression += d.stages[i].delta();
  for (std::size_t i = 0; i < d.stages.size(); ++i) {
    if (d.stages[i].delta() <= 0) continue;
    Suspect s;
    s.stage = i;
    s.delta = d.stages[i].delta();
    s.share = total_regression > 0 ? s.delta / total_regression : 0;
    d.suspects.push_back(s);
  }
  std::sort(d.suspects.begin(), d.suspects.end(),
            [](const Suspect& x, const Suspect& y) {
              if (x.delta != y.delta) return x.delta > y.delta;
              return x.stage < y.stage;
            });

  // Rule-decision diff by (rule, position, note) identity, preserving
  // derivation order.
  auto contains = [](const std::vector<RuleRecord>& rules,
                     const std::string& key) {
    return std::any_of(rules.begin(), rules.end(), [&](const RuleRecord& r) {
      return rule_key(r) == key;
    });
  };
  for (const RuleRecord& r : a.rules) {
    const std::string key = rule_key(r);
    (contains(b.rules, key) ? d.rules_common : d.rules_only_a).push_back(key);
  }
  for (const RuleRecord& r : b.rules) {
    const std::string key = rule_key(r);
    if (!contains(a.rules, key)) d.rules_only_b.push_back(key);
  }

  d.search_a = a.search;
  d.search_b = b.search;

  double err_a = 0, err_b = 0;
  if (drift_max_rel_err(a, &err_a) && drift_max_rel_err(b, &err_b)) {
    d.drift_present = true;
    d.drift_max_rel_err_a = err_a;
    d.drift_max_rel_err_b = err_b;
  }
  return d;
}

std::string RunDiff::render_text() const {
  std::ostringstream os;
  os << "run diff: A=" << a.trace_id << " (" << a.timestamp << ", "
     << a.git_sha.substr(0, 12) << ")\n"
     << "          B=" << b.trace_id << " (" << b.timestamp << ", "
     << b.git_sha.substr(0, 12) << ")\n";
  os << "program A: " << a.program << "\n";
  os << "program B: " << b.program << "\n\n";

  os << "machine   : "
     << (machine_changed() ? "CHANGED" : "unchanged") << "\n";
  os << "  p  " << machine_a.p << " -> " << machine_b.p << "\n";
  os << "  m  " << fmt_g(machine_a.m) << " -> " << fmt_g(machine_b.m) << "\n";
  os << "  ts " << fmt_g(machine_a.ts) << " -> " << fmt_g(machine_b.ts) << "\n";
  os << "  tw " << fmt_g(machine_a.tw) << " -> " << fmt_g(machine_b.tw)
     << "\n\n";

  os << "totals (A -> B):\n";
  os << "  model cost   " << fmt_g(a.model_cost) << " -> " << fmt_g(b.model_cost)
     << "  (" << rel_text(a.model_cost, b.model_cost) << ")\n";
  os << "  sim time     " << fmt_g(a.sim.time) << " -> " << fmt_g(b.sim.time)
     << "  (" << rel_text(a.sim.time, b.sim.time) << ")\n";
  os << "  sim messages " << a.sim.messages << " -> " << b.sim.messages << "\n";
  os << "  sim words    " << fmt_g(a.sim.words) << " -> " << fmt_g(b.sim.words)
     << "\n";
  if (a.wall_ms > 0 || b.wall_ms > 0)
    os << "  wall ms      " << fixed(a.wall_ms) << " -> " << fixed(b.wall_ms)
       << "  (" << rel_text(a.wall_ms, b.wall_ms) << ")\n";
  if (drift_present)
    os << "  model drift  max |rel err| " << fmt_g(drift_max_rel_err_a)
       << " -> " << fmt_g(drift_max_rel_err_b) << "\n";
  os << "\n";

  os << "schedule diff (aligned by stage label):\n";
  for (const StageDelta& s : stages) {
    os << "  " << (s.status == "same"      ? "  "
                   : s.status == "changed" ? "~ "
                   : s.status == "removed" ? "- "
                                           : "+ ")
       << s.label;
    const std::string& rule = s.status == "removed" ? s.rule_a : s.rule_b;
    if (!rule.empty()) os << " [" << rule << "]";
    if (s.status == "removed")
      os << "  " << fmt_g(s.time_a) << " -> (gone)";
    else if (s.status == "added")
      os << "  (new) -> " << fmt_g(s.time_b);
    else
      os << "  " << fmt_g(s.time_a) << " -> " << fmt_g(s.time_b) << " ("
         << rel_text(s.time_a, s.time_b) << ")";
    os << "\n";
  }
  os << "\n";

  if (suspects.empty()) {
    os << "suspect stages: none (no stage costs more in B)\n";
  } else {
    os << "suspect stages (share of total regression):\n";
    for (std::size_t rank = 0; rank < suspects.size(); ++rank) {
      const Suspect& s = suspects[rank];
      const StageDelta& st = stages[s.stage];
      os << "  #" << rank + 1 << " " << st.label;
      if (!st.rule_b.empty()) os << " [" << st.rule_b << "]";
      os << "  +" << fmt_g(s.delta) << " (" << fixed(s.share * 100, 1) << "%)\n";
    }
  }
  os << "\n";

  os << "rule decisions:\n";
  if (rules_only_a.empty() && rules_only_b.empty()) {
    os << "  identical derivations (" << rules_common.size() << " step"
       << (rules_common.size() == 1 ? "" : "s") << ")\n";
  } else {
    for (const std::string& r : rules_only_a) os << "  A only: " << r << "\n";
    for (const std::string& r : rules_only_b) os << "  B only: " << r << "\n";
    for (const std::string& r : rules_common) os << "  both  : " << r << "\n";
  }
  os << "\n";

  os << "search provenance: "
     << (search_changed() ? "CHANGED" : "unchanged") << "\n";
  auto side = [&](const char* name, const std::optional<SearchRecord>& s) {
    if (!s) {
      os << "  " << name << ": greedy rewriting (no search record)\n";
      return;
    }
    os << "  " << name << ": " << s->strategy;
    if (s->strategy == "beam")
      os << " width="
         << (s->beam_width == 0 ? std::string("unbounded")
                                : std::to_string(s->beam_width));
    os << "  expanded " << s->nodes_expanded << "  generated "
       << s->nodes_generated << "  pruned bound/beam/budget "
       << s->pruned_bound << "/" << s->pruned_beam << "/" << s->pruned_budget
       << "  memo hits " << s->memo_hits << "/"
       << s->memo_hits + s->memo_entries << "  greedy "
       << fmt_g(s->greedy_cost) << " -> winner " << fmt_g(s->winner_cost)
       << (s->winner_certified ? "  [certified]" : "") << "\n";
    for (std::size_t i = 0; i < s->ranked.size(); ++i)
      os << "     #" << i + 1 << " " << fmt_g(s->ranked[i].cost) << "  "
         << s->ranked[i].path
         << (s->ranked[i].certified == 1   ? "  [certified]"
             : s->ranked[i].certified == 0 ? "  [NOT certified]"
                                           : "")
         << "\n";
  };
  side("A", search_a);
  side("B", search_b);
  return os.str();
}

void RunDiff::write_json(std::ostream& os) const {
  os << "{\"schema_version\":" << kSchemaVersion
     << ",\"kind\":\"colop_run_diff\",\"runs\":{\"a\":";
  write_ref_json(os, a);
  os << ",\"b\":";
  write_ref_json(os, b);
  os << "},\"machine\":{\"changed\":" << (machine_changed() ? "true" : "false")
     << ",\"a\":{\"p\":" << machine_a.p << ",\"m\":" << json::number(machine_a.m)
     << ",\"ts\":" << json::number(machine_a.ts)
     << ",\"tw\":" << json::number(machine_a.tw) << "}"
     << ",\"b\":{\"p\":" << machine_b.p << ",\"m\":" << json::number(machine_b.m)
     << ",\"ts\":" << json::number(machine_b.ts)
     << ",\"tw\":" << json::number(machine_b.tw) << "}},\"totals\":{";
  write_total_json(os, "model_cost", a.model_cost, b.model_cost);
  os << ",";
  write_total_json(os, "sim_time", a.sim.time, b.sim.time);
  os << ",";
  write_total_json(os, "sim_messages", static_cast<double>(a.sim.messages),
                   static_cast<double>(b.sim.messages));
  os << ",";
  write_total_json(os, "sim_words", a.sim.words, b.sim.words);
  os << ",";
  write_total_json(os, "wall_ms", a.wall_ms, b.wall_ms);
  os << "},\"stages\":[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageDelta& s = stages[i];
    if (i != 0) os << ",";
    os << "{\"status\":" << json::quote(s.status)
       << ",\"index_a\":" << s.index_a << ",\"index_b\":" << s.index_b
       << ",\"label\":" << json::quote(s.label)
       << ",\"rule_a\":" << json::quote(s.rule_a)
       << ",\"rule_b\":" << json::quote(s.rule_b)
       << ",\"time_a\":" << json::number(s.time_a)
       << ",\"time_b\":" << json::number(s.time_b)
       << ",\"delta\":" << json::number(s.delta()) << "}";
  }
  os << "],\"suspects\":[";
  for (std::size_t i = 0; i < suspects.size(); ++i) {
    const Suspect& s = suspects[i];
    const StageDelta& st = stages[s.stage];
    if (i != 0) os << ",";
    os << "{\"rank\":" << i + 1 << ",\"stage\":" << s.stage
       << ",\"label\":" << json::quote(st.label)
       << ",\"rule\":" << json::quote(st.rule_b)
       << ",\"delta\":" << json::number(s.delta)
       << ",\"share\":" << json::number(s.share) << "}";
  }
  os << "],\"rules\":{\"only_a\":[";
  for (std::size_t i = 0; i < rules_only_a.size(); ++i)
    os << (i ? "," : "") << json::quote(rules_only_a[i]);
  os << "],\"only_b\":[";
  for (std::size_t i = 0; i < rules_only_b.size(); ++i)
    os << (i ? "," : "") << json::quote(rules_only_b[i]);
  os << "],\"common\":[";
  for (std::size_t i = 0; i < rules_common.size(); ++i)
    os << (i ? "," : "") << json::quote(rules_common[i]);
  os << "]},\"search\":{\"changed\":" << (search_changed() ? "true" : "false")
     << ",\"a\":";
  write_search_json(os, search_a);
  os << ",\"b\":";
  write_search_json(os, search_b);
  os << "},\"drift\":{\"present\":" << (drift_present ? "true" : "false");
  if (drift_present)
    os << ",\"max_rel_err_a\":" << json::number(drift_max_rel_err_a)
       << ",\"max_rel_err_b\":" << json::number(drift_max_rel_err_b)
       << ",\"delta\":"
       << json::number(drift_max_rel_err_b - drift_max_rel_err_a);
  os << "}}\n";
}

void RunDiff::write_html(std::ostream& os) const {
  html::begin_page(os, "colop run diff");
  os << "<h1>colop run forensics: A vs B</h1>\n";

  // --- run identity, side by side ---------------------------------------
  os << "<table><tr><th></th><th>run A</th><th>run B</th></tr>\n"
     << "<tr><td>trace id</td><td><code>" << escape(a.trace_id)
     << "</code></td><td><code>" << escape(b.trace_id) << "</code></td></tr>\n"
     << "<tr><td>recorded</td><td>" << escape(a.timestamp) << "</td><td>"
     << escape(b.timestamp) << "</td></tr>\n"
     << "<tr><td>git sha</td><td><code>" << escape(a.git_sha.substr(0, 12))
     << "</code></td><td><code>" << escape(b.git_sha.substr(0, 12))
     << "</code></td></tr>\n"
     << "<tr><td>program</td><td><code>" << escape(a.program)
     << "</code></td><td><code>" << escape(b.program) << "</code></td></tr>\n"
     << "<tr><td>machine</td><td>p=" << machine_a.p << " m=" << fmt_g(machine_a.m)
     << " ts=" << fmt_g(machine_a.ts) << " tw=" << fmt_g(machine_a.tw)
     << "</td><td" << (machine_changed() ? " class=\"up\"" : "") << ">p="
     << machine_b.p << " m=" << fmt_g(machine_b.m) << " ts="
     << fmt_g(machine_b.ts) << " tw=" << fmt_g(machine_b.tw) << "</td></tr>\n"
     << "</table>\n";

  // --- totals ------------------------------------------------------------
  struct TotalRow {
    const char* name;
    double va, vb;
  };
  const TotalRow totals[] = {
      {"model cost (op units)", a.model_cost, b.model_cost},
      {"sim time (op units)", a.sim.time, b.sim.time},
      {"sim messages", static_cast<double>(a.sim.messages),
       static_cast<double>(b.sim.messages)},
      {"sim words", a.sim.words, b.sim.words},
      {"wall ms", a.wall_ms, b.wall_ms},
  };
  os << "<h2>totals</h2>\n<table><tr><th>metric</th><th>A</th><th>B</th>"
     << "<th>delta</th></tr>\n";
  for (const TotalRow& t : totals) {
    if (t.va == 0 && t.vb == 0) continue;
    const double delta = t.vb - t.va;
    os << "<tr><td>" << t.name << "</td><td>" << fmt_g(t.va) << "</td><td>"
       << fmt_g(t.vb) << "</td><td class=\""
       << (delta > 0 ? "up" : delta < 0 ? "down" : "") << "\">"
       << rel_text(t.va, t.vb) << "</td></tr>\n";
  }
  if (drift_present)
    os << "<tr><td>model drift (max |rel err|)</td><td>"
       << fmt_g(drift_max_rel_err_a) << "</td><td>" << fmt_g(drift_max_rel_err_b)
       << "</td><td></td></tr>\n";
  os << "</table>\n";

  // --- side-by-side stage timelines --------------------------------------
  // One horizontal bar per run, segments proportional to per-stage model
  // time, both drawn against the same scale so a longer run is visibly
  // longer.
  const double tmax = std::max(a.model_cost, b.model_cost);
  if (tmax > 0) {
    std::vector<html::Bar> bars;
    for (int which = 0; which < 2; ++which) {
      double t0 = 0;
      for (std::size_t i = 0; i < stages.size(); ++i) {
        const StageDelta& s = stages[i];
        const double t = which == 0 ? s.time_a : s.time_b;
        if (t <= 0) continue;
        bars.push_back({which, t0, t0 + t, html::color(static_cast<int>(i)),
                        s.label + " " + fmt_g(t) + " op units (" + s.status +
                            ")",
                        false, s.status != "same"});
        t0 += t;
      }
    }
    std::vector<std::string> labels;
    labels.reserve(stages.size());
    for (const StageDelta& s : stages) labels.push_back(s.label);
    os << "<h2>schedule timelines (model time)</h2>\n";
    html::lanes(os, {"A", "B"}, bars, tmax, labels);
  }

  // --- stage diff table ---------------------------------------------------
  os << "<h2>stage diff</h2>\n<table><tr><th>stage</th><th>status</th>"
     << "<th>rule A</th><th>rule B</th><th>time A</th><th>time B</th>"
     << "<th>delta</th></tr>\n";
  for (const StageDelta& s : stages) {
    const double delta = s.delta();
    os << "<tr><td><code>" << escape(s.label) << "</code></td><td>"
       << escape(s.status) << "</td><td>"
       << escape(s.rule_a.empty() ? "—" : s.rule_a) << "</td><td>"
       << escape(s.rule_b.empty() ? "—" : s.rule_b) << "</td><td>"
       << (s.index_a < 0 ? std::string("—") : fmt_g(s.time_a)) << "</td><td>"
       << (s.index_b < 0 ? std::string("—") : fmt_g(s.time_b))
       << "</td><td class=\"" << (delta > 0 ? "up" : delta < 0 ? "down" : "")
       << "\">" << (delta >= 0 ? "+" : "") << fmt_g(delta) << "</td></tr>\n";
  }
  os << "</table>\n";

  // --- suspects -----------------------------------------------------------
  os << "<h2>suspect stages</h2>\n";
  if (suspects.empty()) {
    os << "<p>none — no stage costs more in run B.</p>\n";
  } else {
    os << "<table><tr><th>rank</th><th>stage</th><th>rule</th>"
       << "<th>regression</th><th>share</th></tr>\n";
    for (std::size_t rank = 0; rank < suspects.size(); ++rank) {
      const Suspect& s = suspects[rank];
      const StageDelta& st = stages[s.stage];
      os << "<tr><td>#" << rank + 1 << "</td><td><code>" << escape(st.label)
         << "</code></td><td>" << escape(st.rule_b.empty() ? "—" : st.rule_b)
         << "</td><td class=\"up\">+" << fmt_g(s.delta) << "</td><td>"
         << fixed(s.share * 100, 1) << "%</td></tr>\n";
    }
    os << "</table>\n";
  }

  // --- search provenance --------------------------------------------------
  if (search_a || search_b) {
    os << "<h2>search provenance"
       << (search_changed() ? " <span class=\"up\">(changed)</span>" : "")
       << "</h2>\n<table><tr><th></th><th>run A</th><th>run B</th></tr>\n";
    auto cell = [&](const std::optional<SearchRecord>& s,
                    auto&& field) -> std::string {
      return s ? field(*s) : std::string("—");
    };
    const struct {
      const char* name;
      std::string (*field)(const SearchRecord&);
    } rows[] = {
        {"strategy", +[](const SearchRecord& s) { return s.strategy; }},
        {"beam width",
         +[](const SearchRecord& s) {
           return s.beam_width == 0 ? std::string("unbounded")
                                    : std::to_string(s.beam_width);
         }},
        {"nodes expanded / generated",
         +[](const SearchRecord& s) {
           return std::to_string(s.nodes_expanded) + " / " +
                  std::to_string(s.nodes_generated);
         }},
        {"pruned bound / beam / budget",
         +[](const SearchRecord& s) {
           return std::to_string(s.pruned_bound) + " / " +
                  std::to_string(s.pruned_beam) + " / " +
                  std::to_string(s.pruned_budget);
         }},
        {"memo hits / states",
         +[](const SearchRecord& s) {
           return std::to_string(s.memo_hits) + " / " +
                  std::to_string(s.memo_hits + s.memo_entries);
         }},
        {"greedy cost", +[](const SearchRecord& s) { return fmt_g(s.greedy_cost); }},
        {"winner cost", +[](const SearchRecord& s) { return fmt_g(s.winner_cost); }},
        {"winner certified",
         +[](const SearchRecord& s) {
           return std::string(s.winner_certified ? "yes" : "no");
         }},
    };
    for (const auto& row : rows)
      os << "<tr><td>" << row.name << "</td><td>"
         << escape(cell(search_a, row.field)) << "</td><td>"
         << escape(cell(search_b, row.field)) << "</td></tr>\n";
    os << "</table>\n";
  }

  // --- rule decisions -----------------------------------------------------
  os << "<h2>rule decisions</h2>\n<div class=\"cols\">\n";
  const struct {
    const char* title;
    const std::vector<std::string>* rules;
  } cols[] = {{"A only", &rules_only_a},
              {"B only", &rules_only_b},
              {"both", &rules_common}};
  for (const auto& col : cols) {
    os << "<div><h3>" << col.title << "</h3>\n";
    if (col.rules->empty()) {
      os << "<p>—</p>\n";
    } else {
      os << "<ul>\n";
      for (const std::string& r : *col.rules)
        os << "<li><code>" << escape(r) << "</code></li>\n";
      os << "</ul>\n";
    }
    os << "</div>\n";
  }
  os << "</div>\n";
  html::end_page(os);
}

}  // namespace colop::obs
