// bench_history — the bench observatory and regression gate.
//
// `diff` answers "did THIS run regress against the committed baseline?";
// the other commands answer the longitudinal question: how has every
// benchmark scalar moved across commits, and is the latest snapshot an
// outlier against its own recent history?
//
// All table/figure benchmarks are simnet-deterministic, so the committed
// baselines are exact; the threshold exists for metrics that may
// legitimately move a little as the model evolves.
//
// Storage is deliberately dumb: one append-only JSONL file per benchmark
// under a history directory, one line per snapshot:
//
//   {"schema_version":1,"bench":"table1_rules","git_sha":"...",
//    "timestamp":"2026-08-08 12:00:00","trace_id":"...","scalars":{...}}
//
// Commands:
//   diff    --baseline-dir D --current-dir D2 [--threshold X] [--json F]
//           compare every BENCH_*.json in D with its namesake in D2
//           (obs::compare_bench_json); exit 1 when any metric regressed
//           beyond X (default 0.15), 2 on a missing directory or when no
//           pair could be compared
//   append  --history-dir D --in-dir D2 [--git-sha S]
//           append every BENCH_*.json found in D2 as one snapshot each
//   report  --history-dir D [--bench NAME]
//           per-metric trajectory: first / best / worst / latest
//   check   --history-dir D [--threshold X] [--window N] [--bench NAME]
//           compare the latest snapshot of each bench against the rolling
//           median of up to N prior snapshots; exit 1 when any metric
//           drifted beyond X in its bad direction (direction semantics
//           shared with diff: *_time/*_cost higher-is-worse,
//           *speedup*/*throughput* higher-is-better, anything else flags
//           drift either way)
//
// Exit codes: 0 ok, 1 regression (diff) or anomaly found (check), 2 usage
// error.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "colop/obs/bench_compare.h"
#include "colop/obs/json.h"
#include "colop/obs/serve.h"
#include "colop/obs/trace_context.h"
#include "colop/support/error.h"

namespace {

namespace fs = std::filesystem;
using colop::obs::json::Value;

struct Snapshot {
  std::string bench;
  std::string git_sha = "unknown";
  std::string timestamp;
  std::string trace_id;
  std::map<std::string, double> scalars;
};

void usage() {
  std::cerr <<
      "usage: bench_history <command> [options]\n"
      "  diff   --baseline-dir D --current-dir D2 [--threshold X] [--json F]\n"
      "         gate the BENCH_*.json files in D2 against the baselines in D\n"
      "         (default threshold 0.15); exit 1 on a regression, 2 when a\n"
      "         directory is missing or nothing was comparable\n"
      "  append --history-dir D --in-dir D2 [--git-sha S]\n"
      "         append every BENCH_*.json in D2 to D/<bench>.jsonl\n"
      "  report --history-dir D [--bench NAME]\n"
      "         per-metric trajectory: first / best / worst / latest\n"
      "  check  --history-dir D [--threshold X] [--window N] [--bench NAME]\n"
      "         flag the latest snapshot against the rolling median of up\n"
      "         to N prior snapshots (default window 8, threshold 0.15);\n"
      "         exit 1 when any metric moved beyond X in its bad direction\n";
}

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "bench_history: " << message << "\n\n";
  usage();
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE)
    usage_error("bad value for " + flag + ": '" + text + "'");
  return v;
}

std::string field_string(const Value& doc, const std::string& key) {
  const Value* v = doc.get(key);
  return v != nullptr && v->is(Value::Type::string) ? v->str : std::string();
}

std::string slurp(const fs::path& path) {
  std::ifstream f(path);
  if (!f) throw colop::Error("cannot read " + path.string());
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// The BENCH_*.json files directly under `dir`, sorted.
std::vector<fs::path> bench_files(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.starts_with("BENCH_") &&
        entry.path().extension() == ".json")
      out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Read one BENCH_*.json (either the stamped post-PR-6 shape with an
/// "info" block or a bare legacy {"scalars":...} baseline) into a
/// snapshot.  `fallback_bench` is the name implied by the filename.
Snapshot read_bench_doc(const fs::path& path,
                        const std::string& fallback_bench,
                        const std::string& fallback_sha) {
  const Value doc = colop::obs::json::parse(slurp(path));

  Snapshot snap;
  snap.bench = fallback_bench;
  snap.git_sha = fallback_sha;
  snap.timestamp = colop::obs::utc_timestamp();
  if (const Value* info = doc.get("info")) {
    if (const auto s = field_string(*info, "bench"); !s.empty())
      snap.bench = s;
    if (const auto s = field_string(*info, "git_sha"); !s.empty())
      snap.git_sha = s;
    if (const auto s = field_string(*info, "timestamp"); !s.empty())
      snap.timestamp = s;
    snap.trace_id = field_string(*info, "trace_id");
  }
  const Value* scalars = doc.get("scalars");
  if (scalars == nullptr || !scalars->is(Value::Type::object))
    throw colop::Error(path.string() +
                       ": not a MetricsRegistry document (no \"scalars\")");
  for (const auto& [name, val] : scalars->fields)
    if (val->is(Value::Type::number)) snap.scalars[name] = val->num;
  return snap;
}

void write_snapshot_line(std::ostream& os, const Snapshot& snap) {
  namespace json = colop::obs::json;
  os << "{\"schema_version\":1,\"bench\":" << json::quote(snap.bench)
     << ",\"git_sha\":" << json::quote(snap.git_sha)
     << ",\"timestamp\":" << json::quote(snap.timestamp)
     << ",\"trace_id\":" << json::quote(snap.trace_id) << ",\"scalars\":{";
  bool first = true;
  for (const auto& [name, value] : snap.scalars) {
    if (!first) os << ",";
    first = false;
    os << json::quote(name) << ":" << json::number(value);
  }
  os << "}}\n";
}

Snapshot read_snapshot_line(const std::string& line, const fs::path& from) {
  const Value doc = colop::obs::json::parse(line);
  Snapshot snap;
  snap.bench = field_string(doc, "bench");
  snap.git_sha = field_string(doc, "git_sha");
  snap.timestamp = field_string(doc, "timestamp");
  snap.trace_id = field_string(doc, "trace_id");
  const Value* scalars = doc.get("scalars");
  if (scalars == nullptr || !scalars->is(Value::Type::object))
    throw colop::Error(from.string() + ": snapshot line has no \"scalars\"");
  for (const auto& [name, val] : scalars->fields)
    if (val->is(Value::Type::number)) snap.scalars[name] = val->num;
  return snap;
}

std::vector<Snapshot> read_history(const fs::path& file) {
  std::ifstream f(file);
  if (!f) throw colop::Error("cannot read " + file.string());
  std::vector<Snapshot> out;
  std::string line;
  while (std::getline(f, line))
    if (!line.empty()) out.push_back(read_snapshot_line(line, file));
  return out;
}

/// History files under `dir`, optionally restricted to one bench.
std::vector<fs::path> history_files(const fs::path& dir,
                                    const std::string& only_bench) {
  std::vector<fs::path> files;
  if (!fs::exists(dir)) return files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".jsonl")
      continue;
    if (!only_bench.empty() && entry.path().stem().string() != only_bench)
      continue;
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

int cmd_diff(const fs::path& baseline_dir, const fs::path& current_dir,
             double threshold, const std::string& json_out) {
  namespace obs = colop::obs;
  if (!fs::is_directory(baseline_dir))
    throw colop::Error("baseline dir not found: " + baseline_dir.string());
  if (!fs::is_directory(current_dir))
    throw colop::Error("current dir not found: " + current_dir.string());

  std::vector<obs::BenchDiffReport> reports;
  bool regressed = false;
  int compared = 0;
  for (const auto& base_path : bench_files(baseline_dir)) {
    const fs::path cur_path = current_dir / base_path.filename();
    if (!fs::exists(cur_path)) {
      std::cout << base_path.filename().string()
                << ": missing from current run — FAIL\n";
      regressed = true;
      continue;
    }
    auto report = obs::compare_bench_json(base_path.filename().string(),
                                          slurp(base_path), slurp(cur_path),
                                          threshold);
    std::cout << report.render_text() << "\n";
    if (!report.skipped) ++compared;
    regressed = regressed || report.regressed();
    reports.push_back(std::move(report));
  }
  for (const auto& cur_path : bench_files(current_dir))
    if (!fs::exists(baseline_dir / cur_path.filename()))
      std::cout << "note: " << cur_path.filename().string()
                << " has no baseline (new benchmark?)\n";

  if (compared == 0) {
    std::cerr << "no comparable BENCH_*.json pairs found\n";
    return 2;
  }

  if (!json_out.empty()) {
    std::ofstream f(json_out);
    if (!f) throw colop::Error("cannot open " + json_out + " for writing");
    f << "{\"threshold\":" << obs::json::number(threshold)
      << ",\"regressed\":" << (regressed ? "true" : "false")
      << ",\"benchmarks\":[";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (i > 0) f << ",";
      reports[i].write_json(f);
    }
    f << "]}\n";
    std::cout << "report written to " << json_out << "\n";
  }

  // The verdict keeps the `bench_diff:` prefix the gate's logs have always
  // carried, so the output of every earlier run still compares.
  std::cout << (regressed ? "bench_diff: REGRESSION detected"
                          : "bench_diff: all benchmarks within threshold")
            << "\n";
  return regressed ? 1 : 0;
}

int cmd_append(const fs::path& history_dir, const fs::path& in_dir,
               const std::string& git_sha) {
  if (!fs::exists(in_dir)) {
    std::cerr << "bench_history: input directory " << in_dir
              << " does not exist\n";
    return 1;
  }
  fs::create_directories(history_dir);
  int appended = 0;
  for (const auto& path : bench_files(in_dir)) {
    const std::string stem = path.stem().string();          // BENCH_<name>
    const std::string fallback = stem.substr(std::strlen("BENCH_"));
    Snapshot snap;
    try {
      snap = read_bench_doc(path, fallback, git_sha);
    } catch (const colop::Error& e) {
      // Foreign schema (e.g. google-benchmark output) — note and move on.
      std::cout << "skipped " << path.filename().string() << ": " << e.what()
                << "\n";
      continue;
    }
    if (!git_sha.empty()) snap.git_sha = git_sha;
    std::ofstream out(history_dir / (snap.bench + ".jsonl"), std::ios::app);
    write_snapshot_line(out, snap);
    std::cout << "appended " << snap.bench << " @" << snap.git_sha << " ("
              << snap.scalars.size() << " scalars)\n";
    ++appended;
  }
  if (appended == 0) {
    std::cerr << "bench_history: no BENCH_*.json in " << in_dir << "\n";
    return 1;
  }
  return 0;
}

/// Direction-aware extremes: for higher-is-worse metrics best = min, for
/// higher-is-better best = max; neutral metrics report plain min/max.
struct Extremes {
  double best;
  double worst;
};

Extremes extremes(const std::string& metric, const std::vector<double>& xs) {
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  if (colop::obs::higher_is_worse(metric)) return {*lo, *hi};
  if (colop::obs::higher_is_better(metric)) return {*hi, *lo};
  return {*lo, *hi};
}

int cmd_report(const fs::path& history_dir, const std::string& only_bench) {
  const auto files = history_files(history_dir, only_bench);
  if (files.empty()) {
    std::cerr << "bench_history: no history in " << history_dir << "\n";
    return 1;
  }
  for (const auto& file : files) {
    const auto snaps = read_history(file);
    if (snaps.empty()) continue;
    const Snapshot& latest = snaps.back();
    std::cout << "== " << file.stem().string() << " — " << snaps.size()
              << " snapshot" << (snaps.size() == 1 ? "" : "s") << ", "
              << snaps.front().git_sha.substr(0, 12) << " .. "
              << latest.git_sha.substr(0, 12) << " ==\n";
    std::cout << "  metric                          first        best"
                 "       worst      latest\n";
    for (const auto& [metric, latest_value] : latest.scalars) {
      std::vector<double> xs;
      for (const auto& snap : snaps) {
        const auto it = snap.scalars.find(metric);
        if (it != snap.scalars.end()) xs.push_back(it->second);
      }
      if (xs.empty()) continue;
      const Extremes ex = extremes(metric, xs);
      std::printf("  %-28s %11.6g %11.6g %11.6g %11.6g\n", metric.c_str(),
                  xs.front(), ex.best, ex.worst, latest_value);
    }
    std::cout << "\n";
  }
  return 0;
}

int cmd_check(const fs::path& history_dir, const std::string& only_bench,
              double threshold, int window) {
  const auto files = history_files(history_dir, only_bench);
  if (files.empty()) {
    std::cerr << "bench_history: no history in " << history_dir << "\n";
    return 1;
  }
  int anomalies = 0;
  int checked = 0;
  for (const auto& file : files) {
    const auto snaps = read_history(file);
    if (snaps.size() < 2) {
      std::cout << file.stem().string()
                << ": fewer than 2 snapshots, nothing to check\n";
      continue;
    }
    const Snapshot& latest = snaps.back();
    const std::size_t first_prior =
        snaps.size() - 1 > static_cast<std::size_t>(window)
            ? snaps.size() - 1 - static_cast<std::size_t>(window)
            : 0;
    for (const auto& [metric, latest_value] : latest.scalars) {
      std::vector<double> prior;
      for (std::size_t i = first_prior; i + 1 < snaps.size(); ++i) {
        const auto it = snaps[i].scalars.find(metric);
        if (it != snaps[i].scalars.end()) prior.push_back(it->second);
      }
      if (prior.empty()) continue;
      ++checked;
      const double med = median(prior);
      if (med == 0 && latest_value == 0) continue;
      const double scale = std::max(std::abs(med), 1e-12);
      const double delta = (latest_value - med) / scale;
      if (!colop::obs::regressed_beyond(metric, delta, threshold)) continue;
      ++anomalies;
      std::printf("ANOMALY %s/%s: latest %.6g vs rolling median %.6g "
                  "(%+.1f%%, threshold %.0f%%)\n",
                  file.stem().string().c_str(), metric.c_str(), latest_value,
                  med, delta * 100, threshold * 100);
    }
  }
  std::cout << (anomalies == 0 ? "OK" : "FAIL") << ": " << checked
            << " metric(s) checked, " << anomalies << " anomal"
            << (anomalies == 1 ? "y" : "ies") << "\n";
  return anomalies == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    usage();
    return 0;
  }
  if (command != "diff" && command != "append" && command != "report" &&
      command != "check")
    usage_error("unknown command: " + command);

  std::string history_dir, in_dir, git_sha, bench, baseline_dir, current_dir,
      json_out;
  double threshold = 0.15;
  int window = 8;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--history-dir") {
      history_dir = next();
    } else if (arg == "--in-dir") {
      in_dir = next();
    } else if (arg == "--git-sha") {
      git_sha = next();
    } else if (arg == "--bench") {
      bench = next();
    } else if (arg == "--baseline-dir") {
      baseline_dir = next();
    } else if (arg == "--current-dir") {
      current_dir = next();
    } else if (arg == "--json") {
      json_out = next();
    } else if (arg == "--threshold") {
      threshold = parse_number(arg, next());
      if (threshold < 0) usage_error("--threshold must not be negative");
    } else if (arg == "--window") {
      window = static_cast<int>(parse_number(arg, next()));
      if (window < 1) usage_error("--window must be at least 1");
    } else {
      usage_error("unknown option: " + arg);
    }
  }
  if (command == "diff" && (baseline_dir.empty() || current_dir.empty()))
    usage_error("diff needs --baseline-dir and --current-dir");
  if (command != "diff" && history_dir.empty())
    usage_error("--history-dir is required");

  try {
    if (command == "diff")
      return cmd_diff(baseline_dir, current_dir, threshold, json_out);
    if (command == "append") {
      if (in_dir.empty()) usage_error("append needs --in-dir");
      return cmd_append(history_dir, in_dir, git_sha);
    }
    if (command == "report") return cmd_report(history_dir, bench);
    return cmd_check(history_dir, bench, threshold, window);
  } catch (const colop::Error& e) {
    std::cerr << "bench_history: " << e.what() << "\n";
    return command == "diff" ? 2 : 1;  // diff: an IO error is not a regression
  }
}
