// colopt — the command-line optimizer driver.
//
// Parse a program in the textual syntax, optimize it for a given machine
// with the paper's rules and cost calculus, and report the derivation,
// predicted times (analytic + simnet) and communication volumes.
//
// Usage:
//   colopt [--p N] [--m N] [--ts X] [--tw X] [--exhaustive] [--strict]
//          "scan(*) ; reduce(+) ; bcast"
//
// Example:
//   $ colopt --p 64 --m 32 --ts 400 "bcast ; scan(+) ; scan(+)"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "colop/apps/polyeval.h"
#include "colop/exec/sim_executor.h"
#include "colop/exec/thread_executor.h"
#include "colop/exec/timeline.h"
#include "colop/ir/ir.h"
#include "colop/ir/parse.h"
#include "colop/model/calib.h"
#include "colop/obs/calibrate.h"
#include "colop/obs/chrome_trace.h"
#include "colop/obs/drift.h"
#include "colop/obs/metrics.h"
#include "colop/obs/profile.h"
#include "colop/obs/run_diff.h"
#include "colop/obs/run_store.h"
#include "colop/obs/serve.h"
#include "colop/obs/trace_context.h"
#include "colop/rt/flight_recorder.h"
#include "colop/rt/live.h"
#include "colop/rt/report.h"
#include "colop/rules/optimizer.h"
#include "colop/rules/search.h"
#include "colop/support/error.h"
#include "colop/verify/certify.h"
#include "colop/support/rng.h"
#include "colop/support/table.h"
#include "colop/verify/verify.h"

namespace {

std::ofstream open_output(const std::string& path) {
  std::ofstream f(path);
  if (!f) throw colop::Error("cannot open " + path + " for writing");
  return f;
}

void usage();

// Strict numeric flag parsing: the whole operand must be a number.  A typo
// like `--p 6x4` or `--ts fast` must fail loudly with the usage hint, not
// silently truncate to whatever atoi salvages.
[[noreturn]] void bad_value(const std::string& flag, const char* text,
                            const char* expected) {
  std::cerr << "bad value for " << flag << ": '" << text << "' (expected "
            << expected << ")\n\n";
  usage();
  std::exit(2);
}

int parse_int(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < INT_MIN ||
      v > INT_MAX)
    bad_value(flag, text, "an integer");
  return static_cast<int>(v);
}

double parse_double(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE)
    bad_value(flag, text, "a number");
  return v;
}

void usage() {
  std::cerr <<
      "usage: colopt [options] \"<program>\"\n"
      "  --p N          processors (default 64)\n"
      "  --m N          block size in elements (default 1024)\n"
      "  --ts X         message start-up time in op units (default 400)\n"
      "  --tw X         per-word transfer time in op units (default 2)\n"
      "  --opt=S        schedule-search strategy: greedy (one-step greedy\n"
      "                 rewriting, default), beam (cost-guided beam search),\n"
      "                 bnb (branch-and-bound with an admissible lower\n"
      "                 bound), or exhaustive (breadth-first over all rule\n"
      "                 sequences).  Search strategies explore rule-order\n"
      "                 permutations the greedy optimizer never sees, seed\n"
      "                 their incumbent with the greedy result (never worse),\n"
      "                 and re-discharge the winning sequence's rewrite\n"
      "                 certificates before returning it\n"
      "  --beam-width=N beam frontier width (default 8; --opt=beam only)\n"
      "  --search-report        print the ranked top-K schedule report with\n"
      "                 rule paths, cost gaps and search statistics\n"
      "  --search-report-json F write the search report as JSON to file F\n"
      "  --exhaustive   alias for --opt=exhaustive\n"
      "  --strict       require full equivalence (reject root-only rewrites\n"
      "                 unless masked by a later bcast)\n"
      "  --max-mem N    memory budget: reject rewrites whose peak element\n"
      "                 width exceeds N words (Section 4.2's caveat)\n"
      "  --overlap[=K]  enable the split-phase overlap rules (Overlap-Split,\n"
      "                 Wait-Sink): collectives followed by elementwise maps\n"
      "                 are rewritten to istart_C ; map... ; wait windows the\n"
      "                 executor pipelines in K segments (default 4, K >= 2).\n"
      "                 Works with every --opt strategy and with --verify,\n"
      "                 whose V22x split-phase contracts gate the result\n"
      "  --timeline     render before/after per-processor timelines\n"
      "  --rules        list the rule catalog and exit\n"
      "  --verify       statically verify the run: operator property\n"
      "                 declarations (checked, not trusted), distribution-\n"
      "                 state contracts of the source and optimized\n"
      "                 schedules, and one soundness certificate per rule\n"
      "                 application; exit 3 if anything is unsound\n"
      "  --verify-json F  write the verification report as JSON to file F\n"
      "                 (implies --verify)\n"
      "  --lint         also report lint-severity findings (missed fusions,\n"
      "                 packed-plane ineligibility); implies --verify\n"
      "  --example NAME use a built-in program instead of the text syntax:\n"
      "                 polyeval1|polyeval2|polyeval3|polyeval_sr2 (Section 5,\n"
      "                 coefficients 1..p)\n"
      "  --explain      log every rule attempt (rule x position) with its\n"
      "                 condition/policy verdict and predicted cost delta\n"
      "                 (greedy strategy only)\n"
      "  --explain-json F  write the explain log as JSON to file F\n"
      "  --trace F      write a Chrome trace (chrome://tracing, Perfetto) of\n"
      "                 the optimized program's simulated execution to file F\n"
      "  --metrics F    write run metrics to file F through the telemetry\n"
      "                 registry (.prom for Prometheus text, .csv for the\n"
      "                 legacy scalar CSV, JSON otherwise)\n"
      "  --serve[=PORT] run the program on the thread executor, then serve\n"
      "                 the telemetry registry over HTTP on 127.0.0.1:PORT\n"
      "                 (default: a kernel-assigned ephemeral port, printed\n"
      "                 on stdout): /metrics /metrics.json /runs\n"
      "                 /runs/<trace_id> /live /live.json /healthz\n"
      "  --live         with --serve: start the server *before* execution\n"
      "                 and stream in-flight telemetry — /metrics moves\n"
      "                 mid-run, /live streams snapshots as Server-Sent\n"
      "                 Events (watch with tools/colop_top), /healthz\n"
      "                 reports idle|running|stalled; pair with --repeat N\n"
      "                 to make the run long enough to watch\n"
      "  --record[=DIR] archive this run as a forensics bundle — manifest\n"
      "                 (identity, machine, schedule IR, applied rules, cost\n"
      "                 summary) plus every JSON artifact the run emits —\n"
      "                 under DIR/<trace_id>/ (default $COLOP_RUN_DIR, else\n"
      "                 .colop/runs); honors $COLOP_RUN_RETENTION, e.g.\n"
      "                 \"count=32,age=604800\"\n"
      "  --store DIR    run-store root for --diff and --serve lookups\n"
      "                 (default: the --record DIR, else $COLOP_RUN_DIR,\n"
      "                 else .colop/runs)\n"
      "  --diff A B     cross-run forensics: diff two archived runs (each a\n"
      "                 trace id, unique id prefix, latest, latest~N, or a\n"
      "                 manifest.json path) and exit; no program operand\n"
      "                 needed.  Reports machine drift, the stage-level\n"
      "                 schedule diff with rule provenance, ranked suspect\n"
      "                 stages, and totals\n"
      "  --diff-json F  write the run diff as stable JSON to file F\n"
      "  --diff-html F  write the run diff as a self-contained HTML report\n"
      "                 (side-by-side timelines + tables) to file F\n"
      "  --drift        report model-vs-simnet drift (time, messages, words)\n"
      "                 for p in {2,4,...,64}\n"
      "  --drift-json F write the drift report as JSON to file F\n"
      "  --profile      critical-path profile of the optimized program:\n"
      "                 per-rank busy/comm/idle, the critical path, and\n"
      "                 per-stage attribution with rule provenance\n"
      "  --profile-json F   write the profile as JSON to file F\n"
      "  --profile-trace F  write the profile as a Chrome trace (critical\n"
      "                 path drawn as flow arrows) to file F\n"
      "  --calibrate    fit ts/tw/op-cost from measured collective timings\n"
      "                 and report the fit plus drift vs the configured\n"
      "                 machine\n"
      "  --calibrate-from S  timing source: simnet (deterministic, default)\n"
      "                 or mpsim (wall-clock threads)\n"
      "  --calibrate-json F  write the calibration fit as JSON to file F\n"
      "  --rt-report    run the optimized program on the thread executor and\n"
      "                 report runtime telemetry: per-rank busy/wait/queue\n"
      "                 depth and per-stage wall-clock-vs-predicted drift\n"
      "  --rt-json F    write the runtime report as JSON to file F\n"
      "  --rt-trace F   write the flight-recorder capture as a Chrome trace\n"
      "                 (send->recv flow arrows) to file F\n"
      "  --rt-html F    write a self-contained HTML runtime report (timeline\n"
      "                 + tables, no external assets) to file F\n"
      "  --repeat N     run the threaded execution N times and report\n"
      "                 min/median/stddev wall time (default 1)\n"
      "  --warmup K     discard the first K threaded runs (default 0)\n"
      "  --machine S    optimize against the 'configured' machine (default)\n"
      "                 or the 'calibrated' one (measure + fit, then use\n"
      "                 the fitted ts/tw)\n"
      "program syntax:  map(pair|triple|quadruple|pi1|id) | scan(OP) |\n"
      "                 reduce(OP[,root=K]) | allreduce(OP) | bcast[(root=K)] |\n"
      "                 istart_reduce(OP[,root=K][,h=N]) | istart_allreduce(OP[,h=N]) |\n"
      "                 istart_bcast[(root=K[,h=N])] | wait[(h=N)]\n"
      "                 stages separated by ';'; OP: + * max min band bor gcd\n"
      "                 +modN *modN f+ f* mat2 first\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace colop;

  model::Machine machine{.p = 64, .m = 1024, .ts = 400, .tw = 2};
  bool exhaustive_flag = false;
  std::optional<rules::SearchStrategy> opt_strategy;
  std::size_t beam_width = 8;
  bool beam_width_set = false;
  bool search_report = false;
  std::string search_report_json;
  bool timeline = false;
  bool explain = false;
  bool drift = false;
  bool profile = false;
  bool calibrate = false;
  bool use_calibrated = false;
  bool rt_report = false;
  bool verify = false;
  bool lint = false;
  std::string verify_json;
  int repeat = 1;
  int warmup = 0;
  int serve_port = -1;  // -1 = no --serve; 0 = ephemeral
  bool live = false;    // --live: serve in-flight telemetry mid-run
  std::string calibrate_from = "simnet";
  std::string explain_json, trace_file, metrics_file, drift_json, example;
  std::string profile_json, profile_trace, calibrate_json;
  std::string rt_json, rt_trace, rt_html;
  bool record = false;
  std::string record_dir, store_dir;
  std::vector<std::string> diff_args;
  std::string diff_json, diff_html;
  bool overlap = false;      // --overlap: enable the split-phase rules
  int overlap_segments = 4;  // pipeline depth of each overlap window
  rules::OptimizerOptions options;
  rules::ExplainLog explain_log;
  std::string program_text;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--p") {
      machine.p = parse_int(arg, next());
      if (machine.p < 1) bad_value(arg, argv[i], "a positive integer");
    } else if (arg == "--m") {
      machine.m = parse_double(arg, next());
      if (machine.m < 0) bad_value(arg, argv[i], "a non-negative number");
    } else if (arg == "--ts") {
      machine.ts = parse_double(arg, next());
      if (machine.ts < 0) bad_value(arg, argv[i], "a non-negative number");
    } else if (arg == "--tw") {
      machine.tw = parse_double(arg, next());
      if (machine.tw < 0) bad_value(arg, argv[i], "a non-negative number");
    } else if (arg == "--exhaustive") {
      exhaustive_flag = true;
    } else if (arg == "--opt" || arg.rfind("--opt=", 0) == 0) {
      const std::string which = arg == "--opt" ? next() : arg.substr(6);
      const auto strategy = rules::parse_strategy(which);
      if (!strategy)
        bad_value("--opt", which.c_str(), "greedy, beam, bnb or exhaustive");
      opt_strategy = *strategy;
    } else if (arg == "--beam-width" || arg.rfind("--beam-width=", 0) == 0) {
      const std::string text =
          arg == "--beam-width" ? next() : arg.substr(13);
      const int w = parse_int("--beam-width", text.c_str());
      if (w < 1) bad_value("--beam-width", text.c_str(), "a positive integer");
      beam_width = static_cast<std::size_t>(w);
      beam_width_set = true;
    } else if (arg == "--search-report") {
      search_report = true;
    } else if (arg == "--search-report-json") {
      search_report_json = next();
    } else if (arg.rfind("--search-report-json=", 0) == 0) {
      search_report_json = arg.substr(21);
      if (search_report_json.empty())
        bad_value("--search-report-json", "", "a file name");
    } else if (arg == "--overlap") {
      overlap = true;
    } else if (arg.rfind("--overlap=", 0) == 0) {
      overlap = true;
      overlap_segments = parse_int("--overlap", arg.c_str() + 10);
      if (overlap_segments < 2)
        bad_value("--overlap", arg.c_str() + 10,
                  "a pipeline depth >= 2 (K segments per window)");
    } else if (arg == "--strict") {
      options.policy = rules::EquivalencePolicy::strict;
    } else if (arg == "--max-mem") {
      options.max_elem_words = parse_int(arg, next());
    } else if (arg == "--timeline") {
      timeline = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--explain-json") {
      explain_json = next();
      explain = true;
    } else if (arg == "--trace") {
      trace_file = next();
    } else if (arg == "--metrics") {
      metrics_file = next();
    } else if (arg == "--drift") {
      drift = true;
    } else if (arg == "--drift-json") {
      drift_json = next();
      drift = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--profile-json") {
      profile_json = next();
      profile = true;
    } else if (arg == "--profile-trace") {
      profile_trace = next();
      profile = true;
    } else if (arg == "--calibrate") {
      calibrate = true;
    } else if (arg == "--calibrate-from") {
      calibrate_from = next();
      calibrate = true;
      if (calibrate_from != "simnet" && calibrate_from != "mpsim")
        bad_value(arg, calibrate_from.c_str(), "simnet or mpsim");
    } else if (arg == "--calibrate-json") {
      calibrate_json = next();
      calibrate = true;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--verify-json") {
      verify_json = next();
      verify = true;
    } else if (arg == "--lint") {
      lint = true;
      verify = true;
    } else if (arg == "--rt-report") {
      rt_report = true;
    } else if (arg == "--rt-json") {
      rt_json = next();
      rt_report = true;
    } else if (arg == "--rt-trace") {
      rt_trace = next();
      rt_report = true;
    } else if (arg == "--rt-html") {
      rt_html = next();
      rt_report = true;
    } else if (arg == "--repeat") {
      repeat = parse_int(arg, next());
      if (repeat < 1) bad_value(arg, argv[i], "a positive integer");
    } else if (arg == "--warmup") {
      warmup = parse_int(arg, next());
      if (warmup < 0) bad_value(arg, argv[i], "a non-negative integer");
    } else if (arg == "--record") {
      record = true;
    } else if (arg.rfind("--record=", 0) == 0) {
      record = true;
      record_dir = arg.substr(9);
      if (record_dir.empty()) bad_value("--record", "", "a directory");
    } else if (arg == "--store") {
      store_dir = next();
    } else if (arg == "--diff") {
      diff_args = {next(), next()};
    } else if (arg == "--diff-json") {
      diff_json = next();
    } else if (arg == "--diff-html") {
      diff_html = next();
    } else if (arg == "--serve") {
      serve_port = 0;
    } else if (arg.rfind("--serve=", 0) == 0) {
      serve_port = parse_int("--serve", arg.c_str() + 8);
      if (serve_port < 0 || serve_port > 65535)
        bad_value("--serve", arg.c_str() + 8, "a port in 0..65535");
    } else if (arg == "--live") {
      live = true;
    } else if (arg == "--machine") {
      const std::string which = next();
      if (which == "calibrated")
        use_calibrated = true;
      else if (which != "configured")
        bad_value(arg, which.c_str(), "configured or calibrated");
    } else if (arg == "--example") {
      example = next();
    } else if (arg == "--rules") {
      for (const auto& r : rules::all_rules())
        std::cout << r->name() << ":\n    " << r->description() << "\n";
      for (const auto& r : rules::overlap_rules())
        std::cout << r->name() << " (--overlap only):\n    "
                  << r->description() << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      usage();
      return 2;
    } else {
      program_text = arg;
    }
  }
  // Search-flag consistency (exit 2 like any other usage error: a flag
  // combination that cannot mean what the user intended must not be
  // silently reinterpreted).
  if (exhaustive_flag) {
    if (opt_strategy &&
        *opt_strategy != rules::SearchStrategy::exhaustive) {
      std::cerr << "--exhaustive conflicts with --opt="
                << rules::strategy_name(*opt_strategy) << "\n\n";
      usage();
      return 2;
    }
    opt_strategy = rules::SearchStrategy::exhaustive;
  }
  const bool searching =
      opt_strategy && *opt_strategy != rules::SearchStrategy::greedy;
  if (beam_width_set &&
      (!opt_strategy || *opt_strategy != rules::SearchStrategy::beam)) {
    std::cerr << "--beam-width is only meaningful with --opt=beam\n\n";
    usage();
    return 2;
  }
  if ((search_report || !search_report_json.empty()) && !searching) {
    std::cerr << "--search-report requires a search strategy "
                 "(--opt=beam, --opt=bnb or --opt=exhaustive)\n\n";
    usage();
    return 2;
  }
  if (live && serve_port < 0) {
    std::cerr << "--live requires --serve (it streams through the stats "
                 "server)\n\n";
    usage();
    return 2;
  }

  // --overlap works with every strategy (greedy just appends the overlap
  // rules to its catalog); the segment count rides to the thread executor
  // through the environment, read once before rank threads spawn.
  if (overlap)
    ::setenv("COLOP_OVERLAP_SEGMENTS",
             std::to_string(overlap_segments).c_str(), 1);

  // Store root: --record=DIR wins (what we write is what we read), then
  // --store, then the environment/default.
  const std::string store_root = !record_dir.empty() ? record_dir
                                 : !store_dir.empty()
                                     ? store_dir
                                     : obs::RunStore::default_root();

  if (!diff_args.empty()) {
    // Forensics diff mode: pure archive analysis, no program run, no fresh
    // trace id (the diff carries the two recorded ids).
    try {
      const obs::RunStore store(store_root);
      const obs::RunBundle a = obs::load_run_or_file(store, diff_args[0]);
      const obs::RunBundle b = obs::load_run_or_file(store, diff_args[1]);
      const obs::RunDiff d = obs::diff_runs(a, b);
      std::cout << d.render_text();
      if (!diff_json.empty()) {
        auto f = open_output(diff_json);
        d.write_json(f);
        std::cout << "\nrun diff written to " << diff_json << "\n";
      }
      if (!diff_html.empty()) {
        auto f = open_output(diff_html);
        d.write_html(f);
        std::cout << "run diff HTML report written to " << diff_html << "\n";
      }
      return 0;
    } catch (const Error& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  if (program_text.empty() && example.empty()) {
    usage();
    return 2;
  }

  try {
    ir::Program program;
    if (!example.empty()) {
      std::vector<double> coeffs(static_cast<std::size_t>(machine.p));
      for (std::size_t i = 0; i < coeffs.size(); ++i)
        coeffs[i] = static_cast<double>(i + 1);
      if (example == "polyeval1")
        program = apps::polyeval_1(coeffs);
      else if (example == "polyeval2")
        program = apps::polyeval_2(coeffs);
      else if (example == "polyeval3")
        program = apps::polyeval_3(coeffs);
      else if (example == "polyeval_sr2")
        program = apps::polyeval_sr2(coeffs);
      else {
        std::cerr << "unknown example: " << example << "\n";
        return 2;
      }
    } else {
      program = ir::parse_program(program_text);
    }
    if (auto err = ir::check_shapes(program)) {
      std::cerr << "shape error: " << *err << "\n";
      return 1;
    }

    // One TraceId per invocation: every artifact this run writes (Chrome
    // traces, drift/profile/rt/verify JSON, metrics, /runs) carries it.
    obs::set_trace_id(obs::mint_trace_id());
    std::cout << "program : " << program.show() << "\n";
    std::cout << "machine : p=" << machine.p << " m=" << machine.m
              << " ts=" << machine.ts << " tw=" << machine.tw << "\n";
    std::cout << "trace   : " << obs::trace_id() << "\n\n";

    if (calibrate || use_calibrated) {
      const auto timings = calibrate_from == "mpsim"
                               ? obs::measure_mpsim_timings()
                               : obs::measure_simnet_timings(machine);
      auto fit = model::fit_machine(timings);
      fit.source = calibrate_from;
      if (calibrate) {
        std::cout << fit.render_text();
        std::cout << obs::machine_drift(machine, fit).render_text() << "\n";
        if (!calibrate_json.empty()) {
          auto f = open_output(calibrate_json);
          fit.write_json(f);
          std::cout << "calibration written to " << calibrate_json << "\n\n";
        }
      }
      if (use_calibrated) {
        machine = fit.machine(machine.p, machine.m);
        std::cout << "machine : (calibrated from " << calibrate_from
                  << ") ts=" << machine.ts << " tw=" << machine.tw << "\n\n";
      }
    }

    // The telemetry hub wants the optimizer's attempt log even when the
    // user didn't ask for --explain: rule attempted/rejected counters come
    // from it.  A recorded bundle archives the hub snapshot and the explain
    // log, so --record implies both.
    const bool hub_wanted =
        serve_port >= 0 || !metrics_file.empty() || record;
    if (explain || hub_wanted) options.explain = &explain_log;
    auto rule_set = rules::all_rules();
    if (overlap)
      for (auto& r : rules::overlap_rules()) rule_set.push_back(std::move(r));
    const rules::Optimizer optimizer(machine, rule_set, options);
    std::optional<rules::SearchResult> search_res;
    bool winner_fell_back = false;
    bool winner_demoted = false;
    rules::OptimizeResult result;
    if (searching) {
      rules::SearchOptions sopts;
      sopts.strategy = *opt_strategy;
      sopts.beam_width =
          *opt_strategy == rules::SearchStrategy::beam ? beam_width : 0;
      sopts.base = options;
      const rules::SearchOptimizer searcher(machine, rule_set, sopts);
      // The soundness gate: re-discharge every ranked schedule's rewrite
      // certificates (shared steps once) and install the cheapest CERTIFIED
      // schedule as the winner before anything downstream consumes it.
      auto cert = verify::certify_search(program, searcher.search(program));
      winner_fell_back = cert.fell_back_to_source;
      winner_demoted = cert.demoted;
      search_res = std::move(cert.search);
      result = search_res->best;
    } else {
      result = optimizer.optimize(program);
    }

    if (explain) {
      if (searching) {
        std::cout << "(--explain records the greedy strategy only)\n";
      } else {
        std::cout << "rule attempts (every rule x position, per step):\n"
                  << explain_log.render_text(true) << "\n";
      }
      if (!explain_json.empty()) {
        auto f = open_output(explain_json);
        explain_log.write_json(f);
        std::cout << "explain log written to " << explain_json << "\n";
      }
    }

    std::string strategy_label = "greedy";
    if (searching) {
      switch (*opt_strategy) {
        case rules::SearchStrategy::beam:
          strategy_label =
              "beam search, width " + (search_res->beam_width == 0
                                           ? std::string("unbounded")
                                           : std::to_string(
                                                 search_res->beam_width));
          break;
        case rules::SearchStrategy::branch_bound:
          strategy_label = "branch-and-bound search";
          break;
        default:
          strategy_label = "exhaustive search";
          break;
      }
    }
    if (result.log.empty()) {
      std::cout << "no profitable rewrite on this machine.\n";
    } else {
      std::cout << "derivation (" << strategy_label << "):\n";
      for (const auto& step : result.log) {
        std::cout << "  " << step.rule << " @" << step.position;
        if (!step.note.empty()) std::cout << " {" << step.note << "}";
        std::cout << "\n    = " << step.program_after << "\n";
      }
    }
    if (searching) {
      std::cout << "schedule : cost " << result.cost_final << " (greedy "
                << search_res->greedy_cost << "), certificates ";
      if (winner_fell_back)
        std::cout << "rejected every searched schedule — kept the source "
                     "program";
      else if (winner_demoted)
        std::cout << "demoted cheaper uncertified schedule(s); winner "
                     "discharged";
      else
        std::cout << "discharged";
      std::cout << "\n";
    }
    std::cout << "\n";

    if (search_report) std::cout << search_res->render_report() << "\n";
    if (!search_report_json.empty()) {
      auto f = open_output(search_report_json);
      search_res->write_json(f);
      std::cout << "search report written to " << search_report_json << "\n\n";
    }

    int verify_exit = 0;
    std::optional<verify::VerifyResult> vres;
    if (verify) {
      verify::VerifyOptions vopts;
      vopts.p = machine.p;
      vopts.lints = lint;
      vres = verify::verify_program(program, &result, vopts);
      std::cout << vres->render_text(lint);
      if (!verify_json.empty()) {
        auto f = open_output(verify_json);
        vres->write_json(f, lint);
        f << "\n";
        std::cout << "verification report written to " << verify_json << "\n";
      }
      std::cout << "\n";
      verify_exit = vres->exit_code();
    }

    Table t("prediction", {"version", "analytic cost", "simnet time",
                           "messages", "words"});
    const auto before = exec::run_on_simnet(program, machine);
    const auto after = exec::run_on_simnet(result.program, machine);
    t.add("original", model::program_time(program, machine), before.time,
          before.messages, before.words);
    t.add("optimized", model::program_time(result.program, machine), after.time,
          after.messages, after.words);
    t.print(std::cout);
    if (before.time > 0)
      std::cout << "\npredicted speedup: " << before.time / after.time << "x\n";

    if (timeline) {
      // Timelines get unreadable beyond a screenful of processors.
      model::Machine tl = machine;
      tl.p = std::min(tl.p, 16);
      const auto tb = exec::trace_on_simnet(program, tl);
      const auto ta = exec::trace_on_simnet(result.program, tl);
      std::cout << "\nbefore (p=" << tl.p << "):\n"
                << exec::render_timeline(tb, 72) << "\nafter:\n"
                << exec::render_timeline(ta, 72, tb.makespan);
    }

    if (!trace_file.empty()) {
      // Stage spans plus the fine-grained machine ops beneath them, all in
      // simulated time.
      const auto events =
          exec::trace_events(exec::trace_on_simnet(result.program, machine));
      auto f = open_output(trace_file);
      obs::write_chrome_trace(events, f, "colopt");
      std::cout << "\nChrome trace (" << events.size() << " events) written to "
                << trace_file << "\n";
    }

    std::string drift_artifact;
    if (drift) {
      const auto ro = obs::drift_report(program, machine);
      const auto rr = obs::drift_report(result.program, machine);
      std::cout << "\n" << ro.render_text() << "\n" << rr.render_text();
      std::ostringstream ss;
      ss << "{\"original\":";
      ro.write_json(ss);
      ss << ",\"optimized\":";
      rr.write_json(ss);
      ss << "}\n";
      drift_artifact = ss.str();
      if (!drift_json.empty()) {
        auto f = open_output(drift_json);
        f << drift_artifact;
        std::cout << "drift report written to " << drift_json << "\n";
      }
    }

    if (profile) {
      obs::ProfileOptions popts;
      popts.provenance = rules::stage_provenance(program.size(), result.log);
      const auto prof = obs::profile_program(result.program, machine, popts);
      std::cout << "\n" << prof.render_text();
      if (!profile_json.empty()) {
        auto f = open_output(profile_json);
        prof.write_json(f);
        std::cout << "profile written to " << profile_json << "\n";
      }
      if (!profile_trace.empty()) {
        auto f = open_output(profile_trace);
        prof.write_chrome_trace(f);
        std::cout << "profile trace written to " << profile_trace << "\n";
      }
    }

    // Telemetry hub: the typed registry behind --metrics and --serve.
    // Declared before the execution block so --live can fold in-flight
    // samples into the same registry the server exports.  Destruction
    // order matters: the server (workers may read the sampler) goes down
    // first, then the sampler (its thread writes the hub), then the hub.
    obs::Registry hub;
    std::optional<rt::LiveSampler> live_sampler;
    std::optional<obs::StatsServer> server;

    std::optional<rt::RtReport> rt_rep;
    if (rt_report || serve_port >= 0) {
      // Run the optimized program for real on the thread executor and merge
      // the flight-recorder capture with the cost calculus' predictions.
      // Input: p blocks of small integers — safe for every arithmetic op in
      // the catalog (products stay in {-1, 0, 1}).
      const auto block =
          static_cast<std::size_t>(std::clamp(machine.m, 1.0, 4096.0));
      Rng rng(0x7c01);
      ir::Dist input(static_cast<std::size_t>(machine.p));
      for (auto& b : input) {
        b.resize(block);
        for (auto& v : b) v = ir::Value(rng.uniform(-1, 1));
      }

      if (live) {
        // Live mode flips the ordering: begin the run, start the sampler
        // and the server *before* execution so scrapes and /live streams
        // observe the run in flight.
        rt::LiveRunInfo info;
        info.trace_id = obs::trace_id();
        info.program = result.program.show();
        for (const auto& stage : result.program.stages())
          info.stage_labels.push_back(stage->show());
        info.ranks = static_cast<int>(machine.p);
        info.repeats = warmup + repeat;
        live_sampler.emplace(hub);
        live_sampler->begin_run(std::move(info));
        live_sampler->start();

        obs::RunSummary run_summary;
        run_summary.trace_id = obs::trace_id();
        run_summary.program = program.show();
        run_summary.optimized = result.program.show();
        run_summary.started_at = obs::utc_timestamp();
        run_summary.state = "live";
        run_summary.rewrites = static_cast<int>(result.log.size());
        run_summary.model_cost_before = model::program_time(program, machine);
        run_summary.model_cost_after =
            model::program_time(result.program, machine);
        server.emplace(hub);
        server->add_run(run_summary);
        server->set_run_store(store_root);
        server->set_live(&*live_sampler);
        std::string err;
        if (!server->start(serve_port, &err)) {
          std::cerr << "error: " << err << "\n";
          return 1;
        }
        server->install_signal_stop();
        std::cout << "serving on http://127.0.0.1:" << server->port()
                  << " (live; GET /metrics /metrics.json /runs /live "
                     "/live.json /healthz; Ctrl-C to stop)\n"
                  << std::flush;
      }

      std::vector<double> samples_ms;
      samples_ms.reserve(static_cast<std::size_t>(repeat));
      std::optional<exec::ThreadRunResult> run;
      for (int it = 0; it < warmup + repeat; ++it) {
        if (live) live_sampler->note_repeat(it);
        auto r = exec::run_on_threads_instrumented(result.program, input);
        if (it >= warmup) samples_ms.push_back(r.wall_seconds * 1e3);
        run = std::move(r);
      }
      if (live) live_sampler->end_run();

      rt::RtReportOptions ropts;
      ropts.model_stage_times.reserve(result.program.size());
      for (const auto& stage : result.program.stages())
        ropts.model_stage_times.push_back(
            model::stage_cost(*stage).eval(machine));
      ropts.wall_seconds = run->wall_seconds;
      ropts.used_packed = run->used_packed;
      ropts.timing = rt::RepeatStats::of(samples_ms, warmup);
      rt_rep = rt::build_report(run->rt, ropts);
      if (server) server->finish_run(obs::trace_id(), rt_rep->wall_ms);
      const auto& rep = *rt_rep;

      if (rt_report) std::cout << "\n" << rep.render_text();
      if (!run->rt.enabled)
        std::cout << "(runtime telemetry disabled: COLOP_RT=0 or compiled "
                     "out; per-rank and per-stage sections are empty)\n";
      if (!rt_json.empty()) {
        auto f = open_output(rt_json);
        rep.write_json(f);
        std::cout << "runtime report written to " << rt_json << "\n";
      }
      if (!rt_trace.empty()) {
        auto f = open_output(rt_trace);
        rep.write_chrome_trace(f);
        std::cout << "runtime trace written to " << rt_trace << "\n";
      }
      if (!rt_html.empty()) {
        auto f = open_output(rt_html);
        rep.write_html(f);
        std::cout << "runtime HTML report written to " << rt_html << "\n";
      }
    }

    // Every subsystem that ran publishes its snapshot into the hub by name.
    if (hub_wanted) {
      hub.gauge("colop_machine_p", "Configured processor count")
          .set(static_cast<double>(machine.p));
      hub.gauge("colop_machine_m", "Configured block size, elements")
          .set(machine.m);
      hub.gauge("colop_machine_ts", "Message start-up time, op units")
          .set(machine.ts);
      hub.gauge("colop_machine_tw", "Per-word transfer time, op units")
          .set(machine.tw);
      const char* versions[] = {"original", "optimized"};
      const exec::SimRunResult* sims[] = {&before, &after};
      for (int v = 0; v < 2; ++v) {
        const obs::LabelSet label{{"version", versions[v]}};
        hub.gauge("colop_sim_time_units",
                  "Simulated execution time, op units", label)
            .set(sims[v]->time);
        hub.gauge("colop_sim_messages",
                  "Simulated point-to-point message count", label)
            .set(static_cast<double>(sims[v]->messages));
        hub.gauge("colop_sim_words", "Simulated words transferred", label)
            .set(sims[v]->words);
      }
      if (after.time > 0)
        hub.gauge("colop_predicted_speedup",
                  "Simulated original/optimized time ratio")
            .set(before.time / after.time);
      rules::publish_metrics(result, options.explain, hub);
      if (search_res) rules::publish_search_metrics(*search_res, hub);
      if (vres) verify::publish_metrics(*vres, hub);
      if (rt_rep) rt::publish_registry(*rt_rep, hub);
    }

    if (!metrics_file.empty()) {
      const auto ends_with = [&](const std::string& suffix) {
        return metrics_file.size() >= suffix.size() &&
               metrics_file.compare(metrics_file.size() - suffix.size(),
                                    suffix.size(), suffix) == 0;
      };
      auto f = open_output(metrics_file);
      if (ends_with(".csv")) {
        // Legacy scalar document, kept for spreadsheet-style consumers.
        obs::MetricsRegistry reg;
        reg.set_info("trace_id", obs::trace_id());
        reg.set("p", machine.p);
        reg.set("m", machine.m);
        reg.set("ts", machine.ts);
        reg.set("tw", machine.tw);
        reg.set("model_time_before", model::program_time(program, machine));
        reg.set("model_time_after",
                model::program_time(result.program, machine));
        reg.set("sim_time_before", before.time);
        reg.set("sim_time_after", after.time);
        reg.set("messages_before", static_cast<double>(before.messages));
        reg.set("messages_after", static_cast<double>(after.messages));
        reg.set("words_before", before.words);
        reg.set("words_after", after.words);
        reg.set("rewrites_applied", static_cast<double>(result.log.size()));
        if (after.time > 0) reg.set("speedup", before.time / after.time);
        if (rt_rep) rt::publish_metrics(*rt_rep, reg);
        reg.write_csv(f);
      } else if (ends_with(".prom")) {
        hub.write_prometheus(f);
      } else {
        hub.write_json(f);
        f << "\n";
      }
      std::cout << "metrics written to " << metrics_file << "\n";
    }

    if (record) {
      obs::RunBundle bundle;
      bundle.trace_id = obs::trace_id();
      bundle.git_sha = obs::env_git_sha();
      bundle.timestamp = obs::utc_timestamp();
      bundle.timestamp_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
      bundle.machine = {machine.p, machine.m, machine.ts, machine.tw};
      if (const char* dp = std::getenv("COLOP_DATA_PLANE"))
        bundle.data_plane = dp;
      for (int a = 1; a < argc; ++a) bundle.args.emplace_back(argv[a]);

      const auto kind_name = [](ir::Stage::Kind k) -> std::string {
        switch (k) {
          case ir::Stage::Kind::Map: return "map";
          case ir::Stage::Kind::MapIndexed: return "map#";
          case ir::Stage::Kind::Scan: return "scan";
          case ir::Stage::Kind::Reduce: return "reduce";
          case ir::Stage::Kind::AllReduce: return "allreduce";
          case ir::Stage::Kind::Bcast: return "bcast";
          case ir::Stage::Kind::ScanBalanced: return "scan_balanced";
          case ir::Stage::Kind::ReduceBalanced: return "reduce_balanced";
          case ir::Stage::Kind::AllReduceBalanced:
            return "allreduce_balanced";
          case ir::Stage::Kind::Iter: return "iter";
          case ir::Stage::Kind::IStartReduce: return "istart_reduce";
          case ir::Stage::Kind::IStartAllReduce: return "istart_allreduce";
          case ir::Stage::Kind::IStartBcast: return "istart_bcast";
          case ir::Stage::Kind::Wait: return "wait";
        }
        return "?";
      };
      const auto stage_records =
          [&](const ir::Program& prog,
              const std::vector<std::string>* provenance) {
            std::vector<obs::StageRecord> out;
            int idx = 0;
            for (const auto& stage : prog.stages()) {
              obs::StageRecord rec;
              rec.index = idx;
              rec.label = stage->show();
              rec.kind = kind_name(stage->kind());
              rec.local = stage->is_local();
              if (provenance != nullptr &&
                  static_cast<std::size_t>(idx) < provenance->size())
                rec.rule = (*provenance)[static_cast<std::size_t>(idx)];
              rec.model_time = model::stage_cost(*stage).eval(machine);
              out.push_back(std::move(rec));
              ++idx;
            }
            return out;
          };
      bundle.program_before = program.show();
      bundle.program_after = result.program.show();
      const auto provenance = rules::stage_provenance(program.size(), result.log);
      bundle.stages_before = stage_records(program, nullptr);
      bundle.stages_after = stage_records(result.program, &provenance);
      for (const auto& step : result.log) {
        obs::RuleRecord rec;
        rec.rule = step.rule;
        rec.position = step.position;
        rec.count = step.count;
        rec.replaced_by = step.replaced_by;
        rec.note = step.note;
        rec.cost_before = step.cost_before;
        rec.cost_after = step.cost_after;
        rec.program_after = step.program_after;
        bundle.rules.push_back(std::move(rec));
      }
      bundle.model_cost_before = model::program_time(program, machine);
      bundle.model_cost_after = model::program_time(result.program, machine);
      bundle.sim_before = {before.time, before.messages, before.words};
      bundle.sim_after = {after.time, after.messages, after.words};
      if (rt_rep) bundle.wall_ms = rt_rep->wall_ms;
      if (search_res) {
        obs::SearchRecord s;
        s.strategy = rules::strategy_name(search_res->strategy);
        s.beam_width = search_res->beam_width;
        s.nodes_expanded = search_res->stats.nodes_expanded;
        s.nodes_generated = search_res->stats.nodes_generated;
        s.pruned_bound = search_res->stats.pruned_by_bound;
        s.pruned_beam = search_res->stats.pruned_by_beam;
        s.pruned_budget = search_res->stats.pruned_by_budget;
        s.memo_hits = search_res->stats.memo_hits;
        s.memo_entries = search_res->stats.memo_entries;
        s.frontier_peak = search_res->stats.frontier_peak;
        s.depth = search_res->stats.depth_reached;
        s.greedy_cost = search_res->greedy_cost;
        s.winner_cost = search_res->best.cost_final;
        s.winner_certified =
            search_res->winner_index < search_res->ranked.size() &&
            search_res->ranked[search_res->winner_index].certified == 1;
        for (const auto& r : search_res->ranked)
          s.ranked.push_back({r.cost, r.path_text(), r.certified});
        bundle.search = std::move(s);
      }

      // Artifacts: everything this run computed, plus the explain log,
      // profile and hub snapshot --record implies.
      if (!searching) {
        std::ostringstream ss;
        explain_log.write_json(ss);
        bundle.artifacts["explain"] = ss.str();
      }
      if (search_res) {
        std::ostringstream ss;
        search_res->write_json(ss);
        bundle.artifacts["search"] = ss.str();
      }
      {
        obs::ProfileOptions popts;
        popts.provenance = provenance;
        const auto prof = obs::profile_program(result.program, machine, popts);
        std::ostringstream ss;
        prof.write_json(ss);
        bundle.artifacts["profile"] = ss.str();
      }
      {
        std::ostringstream ss;
        hub.write_json(ss);
        bundle.artifacts["metrics"] = ss.str();
      }
      if (!drift_artifact.empty()) bundle.artifacts["drift"] = drift_artifact;
      if (vres) {
        std::ostringstream ss;
        vres->write_json(ss, lint);
        ss << "\n";
        bundle.artifacts["verify"] = ss.str();
      }
      if (rt_rep) {
        std::ostringstream ss;
        rt_rep->write_json(ss);
        bundle.artifacts["rt"] = ss.str();
      }

      const obs::RunStore store(store_root);
      const std::string dir = store.save(bundle);
      std::cout << "run recorded to " << dir << "\n";
      std::string retention_warning;
      const auto policy = obs::RetentionPolicy::from_env(&retention_warning);
      if (!retention_warning.empty())
        std::cerr << "warning: " << retention_warning << "\n";
      if (!policy.unlimited()) {
        const auto evicted = store.prune(policy);
        for (const auto& id : evicted)
          std::cout << "retention: evicted run " << id << "\n";
      }
    }

    if (serve_port >= 0) {
      if (!server) {
        obs::RunSummary run_summary;
        run_summary.trace_id = obs::trace_id();
        run_summary.program = program.show();
        run_summary.optimized = result.program.show();
        run_summary.started_at = obs::utc_timestamp();
        run_summary.rewrites = static_cast<int>(result.log.size());
        run_summary.model_cost_before = model::program_time(program, machine);
        run_summary.model_cost_after =
            model::program_time(result.program, machine);
        if (rt_rep) run_summary.wall_ms = rt_rep->wall_ms;

        server.emplace(hub);
        server->add_run(run_summary);
        server->set_run_store(store_root);
        std::string err;
        if (!server->start(serve_port, &err)) {
          std::cerr << "error: " << err << "\n";
          return 1;
        }
        server->install_signal_stop();
        std::cout << "serving on http://127.0.0.1:" << server->port()
                  << " (GET /metrics /metrics.json /runs /runs/<trace_id> "
                     "/healthz; Ctrl-C to stop)\n"
                  << std::flush;
      }
      server->wait();
    }
    return verify_exit;  // 0, or 3 when --verify found the run unsound
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
