#include "colop/obs/bench_compare.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "colop/obs/json.h"
#include "colop/support/table.h"

namespace colop::obs {
namespace {

bool contains_token(const std::string& metric, const char* token) {
  return metric.find(token) != std::string::npos;
}

}  // namespace

bool higher_is_worse(const std::string& metric) {
  // Cost-like quantities: simulated/elapsed time and wire traffic.  A
  // decrease is an improvement, never a regression.
  for (const char* token :
       {"time", "makespan", "latency", "words", "messages", "msgs", "cost"})
    if (contains_token(metric, token)) return true;
  return false;
}

bool higher_is_better(const std::string& metric) {
  // Throughput-like quantities: more work per second, or a larger speedup
  // ratio, is an improvement, never a regression.
  for (const char* token :
       {"per_sec", "throughput", "speedup", "elems_per", "bytes_per"})
    if (contains_token(metric, token)) return true;
  return false;
}

bool regressed_beyond(const std::string& metric, double rel_change, double threshold) {
  if (higher_is_worse(metric)) return rel_change > threshold;
  if (higher_is_better(metric)) return rel_change < -threshold;
  return std::abs(rel_change) > threshold;
}

bool BenchDiffReport::regressed() const {
  return std::any_of(deltas.begin(), deltas.end(),
                     [](const BenchDelta& d) { return d.regressed; });
}

BenchDiffReport compare_bench_json(const std::string& name,
                                   const std::string& baseline_doc,
                                   const std::string& current_doc,
                                   double threshold) {
  BenchDiffReport report;
  report.name = name;
  report.threshold = threshold;

  const json::Value base = json::parse(baseline_doc);
  const json::Value cur = json::parse(current_doc);
  const json::Value* base_scalars = base.get("scalars");
  const json::Value* cur_scalars = cur.get("scalars");
  if (!base_scalars || !base_scalars->is(json::Value::Type::object) ||
      !cur_scalars || !cur_scalars->is(json::Value::Type::object)) {
    report.skipped = true;
    report.notes.push_back(
        "not a MetricsRegistry document (no \"scalars\" object) — skipped");
    return report;
  }

  for (const auto& [metric, base_val] : base_scalars->fields) {
    if (!base_val->is(json::Value::Type::number)) continue;
    const json::Value* cur_val = cur_scalars->get(metric);
    if (!cur_val || !cur_val->is(json::Value::Type::number)) {
      report.notes.push_back("metric \"" + metric +
                             "\" missing from current run");
      continue;
    }
    BenchDelta d;
    d.metric = metric;
    d.baseline = base_val->num;
    d.current = cur_val->num;
    d.rel_change = (d.current - d.baseline) /
                   std::max(std::abs(d.baseline), 1e-12);
    d.higher_is_worse = higher_is_worse(metric);
    d.higher_is_better = !d.higher_is_worse && higher_is_better(metric);
    d.regressed = regressed_beyond(metric, d.rel_change, threshold);
    report.deltas.push_back(std::move(d));
  }
  for (const auto& [metric, cur_val] : cur_scalars->fields) {
    if (!cur_val->is(json::Value::Type::number)) continue;
    if (!base_scalars->get(metric))
      report.notes.push_back("metric \"" + metric +
                             "\" new in current run (no baseline)");
  }
  return report;
}

std::string BenchDiffReport::render_text() const {
  std::ostringstream os;
  if (skipped) {
    os << name << ": skipped";
    for (const auto& n : notes) os << " (" << n << ")";
    os << "\n";
    return os.str();
  }
  Table t{name + " (threshold " + Table::format_cell(threshold) + ")",
          {"metric", "baseline", "current", "rel change", "verdict"}};
  for (const auto& d : deltas)
    t.add(d.metric, d.baseline, d.current, d.rel_change,
          d.regressed ? "REGRESSED"
          : (d.higher_is_worse && d.rel_change < -threshold) ||
                  (d.higher_is_better && d.rel_change > threshold)
              ? "improved"
              : "ok");
  t.print(os);
  for (const auto& n : notes) os << "  note: " << n << "\n";
  os << name << ": "
     << (regressed() ? "REGRESSION beyond threshold" : "no regression")
     << "\n";
  return os.str();
}

void BenchDiffReport::write_json(std::ostream& os) const {
  os << "{\"name\":" << json::quote(name)
     << ",\"threshold\":" << json::number(threshold)
     << ",\"skipped\":" << (skipped ? "true" : "false")
     << ",\"regressed\":" << (regressed() ? "true" : "false")
     << ",\"deltas\":[";
  bool first = true;
  for (const auto& d : deltas) {
    if (!first) os << ",";
    first = false;
    os << "{\"metric\":" << json::quote(d.metric)
       << ",\"baseline\":" << json::number(d.baseline)
       << ",\"current\":" << json::number(d.current)
       << ",\"rel_change\":" << json::number(d.rel_change)
       << ",\"higher_is_worse\":" << (d.higher_is_worse ? "true" : "false")
       << ",\"higher_is_better\":" << (d.higher_is_better ? "true" : "false")
       << ",\"regressed\":" << (d.regressed ? "true" : "false") << "}";
  }
  os << "],\"notes\":[";
  first = true;
  for (const auto& n : notes) {
    if (!first) os << ",";
    first = false;
    os << json::quote(n);
  }
  os << "]}";
}

}  // namespace colop::obs
