// colop_diff — cross-run forensics.
//
// Diff two runs recorded with `colopt --record` and emit text, stable JSON
// and/or a self-contained HTML report.  It needs only the archive (CI
// artifact jobs, a laptop inspecting a bundle copied out of a runner).
//
// Usage:
//   colop_diff [--store DIR] [--json F] [--html F] <runA> <runB>
//   colop_diff --list [--store DIR]
//
// <runA>/<runB>: a trace id, a unique id prefix, `latest`, `latest~N`, or
// a path to a bundle's manifest.json.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "colop/obs/run_diff.h"
#include "colop/obs/run_store.h"
#include "colop/support/error.h"

namespace {

int usage(int code) {
  std::cerr
      << "usage: colop_diff [--store DIR] [--json F] [--html F] <runA> <runB>\n"
         "       colop_diff --list [--store DIR]\n"
         "  <run>       trace id, unique id prefix, latest, latest~N, or a\n"
         "              manifest.json path\n"
         "  --store DIR run-store root (default $COLOP_RUN_DIR, else\n"
         "              .colop/runs)\n"
         "  --json F    write the diff as stable JSON to file F\n"
         "  --html F    write the diff as a single-file HTML report to F\n"
         "  --list      list archived runs, most recent first, and exit\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace colop;

  std::string store_dir = obs::RunStore::default_root();
  std::string json_file, html_file;
  bool list = false;
  std::vector<std::string> runs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage(2));
      return argv[++i];
    };
    if (arg == "--store") {
      store_dir = next();
    } else if (arg == "--json") {
      json_file = next();
    } else if (arg == "--html") {
      html_file = next();
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return usage(2);
    } else {
      runs.push_back(arg);
    }
  }

  try {
    const obs::RunStore store(store_dir);
    if (list) {
      const auto ids = store.list();
      if (ids.empty()) {
        std::cout << "no archived runs in " << store.root()
                  << " (record with colopt --record)\n";
        return 0;
      }
      for (const auto& id : ids) {
        const obs::RunBundle b = store.load(id);
        std::cout << id << "  " << b.timestamp << "  p=" << b.machine.p
                  << " m=" << b.machine.m << "  " << b.program_after << "\n";
      }
      return 0;
    }
    if (runs.size() != 2) return usage(2);

    const obs::RunBundle a = obs::load_run_or_file(store, runs[0]);
    const obs::RunBundle b = obs::load_run_or_file(store, runs[1]);
    const obs::RunDiff d = obs::diff_runs(a, b);
    std::cout << d.render_text();
    if (!json_file.empty()) {
      std::ofstream f(json_file);
      if (!f) throw Error("cannot open " + json_file + " for writing");
      d.write_json(f);
      std::cout << "\nrun diff written to " << json_file << "\n";
    }
    if (!html_file.empty()) {
      std::ofstream f(html_file);
      if (!f) throw Error("cannot open " + html_file + " for writing");
      d.write_html(f);
      std::cout << "run diff HTML report written to " << html_file << "\n";
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
