// colopt — the command-line optimizer driver.
//
// Parse a program in the textual syntax, optimize it for a given machine
// with the paper's rules and cost calculus, and report the derivation,
// predicted times (analytic + simnet) and communication volumes.
//
// `colopt --help` lists every option.  Each option is one row of the flag
// table below: its usage lines, how it takes its operand, the operand
// check and the settings it implies.
//
// Example:
//   $ colopt --p 64 --m 32 --ts 400 "bcast ; scan(+) ; scan(+)"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "colop/apps/polyeval.h"
#include "colop/exec/sim_executor.h"
#include "colop/exec/thread_executor.h"
#include "colop/exec/timeline.h"
#include "colop/ir/ir.h"
#include "colop/ir/parse.h"
#include "colop/model/calib.h"
#include "colop/obs/calibrate.h"
#include "colop/obs/drift.h"
#include "colop/obs/metrics.h"
#include "colop/obs/profile.h"
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

using namespace colop;

// Everything the command line sets.
struct Settings {
  model::Machine machine{.p = 64, .m = 1024, .ts = 400, .tw = 2};
  rules::OptimizerOptions options;
  std::optional<rules::SearchStrategy> strategy;
  bool exhaustive = false;
  std::optional<std::size_t> beam_width;  // --beam-width; 8 when not given
  bool overlap = false;      // --overlap: enable the split-phase rules
  int overlap_segments = 4;  // pipeline depth of each overlap window
  // Sections printed on stdout.
  bool search_report = false, timeline = false, explain = false, drift = false,
       profile = false, calibrate = false, rt_report = false, verify = false,
       lint = false;
  bool use_calibrated = false;
  std::string calibrate_from = "simnet";
  int repeat = 1;
  int warmup = 0;
  bool repeat_set = false;  // --repeat or --warmup given
  int serve_port = -1;      // -1 = no --serve; 0 = ephemeral
  bool live = false;        // --live: serve in-flight telemetry mid-run
  bool record = false;
  std::string record_dir, store_dir;
  std::string example, program_text;
  // Report files; empty when not asked for.
  std::string search_report_json, verify_json, explain_json, metrics,
      drift_json, profile_json, profile_trace, calibrate_json, rt_json,
      rt_trace, rt_html;
};

void usage();

// Usage errors exit 2 with `why` and the usage text on stderr.
[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << why;
  usage();
  std::exit(2);
}

// Strict numeric flag parsing: the whole operand must be a number.  A typo
// like `--p 6x4` or `--ts fast` must fail loudly with the usage hint, not
// silently truncate to whatever atoi salvages.
[[noreturn]] void bad_value(const std::string& flag, const char* text,
                            const char* expected) {
  usage_error("bad value for " + flag + ": '" + text + "' (expected " +
              expected + ")\n\n");
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

// How a flag takes its operand.
enum class Form {
  bare,      // --x
  word,      // --x V
  word_eq,   // --x V or --x=V
  optional,  // --x or --x=V
};

// The operand a flag was given.
struct Operand {
  std::string flag;  // the flag's name, for bad_value
  const char* v;     // nullptr for an optional flag given bare
};

int int_at_least(const Operand& o, int lo, const char* expected) {
  const int v = parse_int(o.flag, o.v);
  if (v < lo) bad_value(o.flag, o.v, expected);
  return v;
}

double non_negative(const Operand& o) {
  const double v = parse_double(o.flag, o.v);
  if (v < 0) bad_value(o.flag, o.v, "a non-negative number");
  return v;
}

// One row per flag.  Its name is the first word of `help`, its usage lines,
// up to '=' or '['.  A given flag stores its operand in `text`, turns on
// `on` and `also` (the settings it implies), then runs `apply` for operand
// checks and parsed values.
struct Flag {
  const char* help;
  Form form;
  std::string Settings::*text = nullptr;
  bool Settings::*on = nullptr;
  bool Settings::*also = nullptr;
  void (*apply)(Settings&, const Operand&) = nullptr;
};

const Flag kFlags[] = {
    {.help = "  --p N          processors (default 64)\n", .form = Form::word,
     .apply = [](Settings& s, const Operand& o) {
       s.machine.p = int_at_least(o, 1, "a positive integer");
     }},
    {.help = "  --m N          block size in elements (default 1024)\n",
     .form = Form::word,
     .apply = [](Settings& s, const Operand& o) { s.machine.m = non_negative(o); }},
    {.help = "  --ts X         message start-up time in op units (default 400)\n",
     .form = Form::word,
     .apply = [](Settings& s, const Operand& o) { s.machine.ts = non_negative(o); }},
    {.help = "  --tw X         per-word transfer time in op units (default 2)\n",
     .form = Form::word,
     .apply = [](Settings& s, const Operand& o) { s.machine.tw = non_negative(o); }},
    {.help = "  --opt=S        schedule-search strategy: greedy (one-step greedy\n"
             "                 rewriting, default), beam (cost-guided beam search),\n"
             "                 bnb (branch-and-bound with an admissible lower\n"
             "                 bound), or exhaustive (breadth-first over all rule\n"
             "                 sequences).  Search strategies explore rule-order\n"
             "                 permutations the greedy optimizer never sees, seed\n"
             "                 their incumbent with the greedy result (never worse),\n"
             "                 and re-discharge the winning sequence's rewrite\n"
             "                 certificates before returning it\n",
     .form = Form::word_eq, .apply = [](Settings& s, const Operand& o) {
       s.strategy = rules::parse_strategy(o.v);
       if (!s.strategy)
         bad_value(o.flag, o.v, "greedy, beam, bnb or exhaustive");
     }},
    {.help = "  --beam-width=N beam frontier width (default 8; --opt=beam only)\n",
     .form = Form::word_eq, .apply = [](Settings& s, const Operand& o) {
       s.beam_width = static_cast<std::size_t>(
           int_at_least(o, 1, "a positive integer"));
     }},
    {.help = "  --search-report        print the ranked top-K schedule report with\n"
             "                 rule paths, cost gaps and search statistics\n",
     .form = Form::bare, .on = &Settings::search_report},
    {.help = "  --search-report-json F write the search report as JSON to file F\n",
     .form = Form::word_eq, .text = &Settings::search_report_json},
    {.help = "  --exhaustive   alias for --opt=exhaustive\n", .form = Form::bare,
     .on = &Settings::exhaustive},
    {.help = "  --strict       require full equivalence (reject root-only rewrites\n"
             "                 unless masked by a later bcast)\n",
     .form = Form::bare, .apply = [](Settings& s, const Operand&) {
       s.options.policy = rules::EquivalencePolicy::strict;
     }},
    {.help = "  --max-mem N    memory budget: reject rewrites whose peak element\n"
             "                 width exceeds N words (Section 4.2's caveat)\n",
     .form = Form::word, .apply = [](Settings& s, const Operand& o) {
       s.options.max_elem_words = int_at_least(o, 1, "a positive integer");
     }},
    {.help = "  --overlap[=K]  enable the split-phase overlap rules (Overlap-Split,\n"
             "                 Wait-Sink): collectives followed by elementwise maps\n"
             "                 are rewritten to istart_C ; map... ; wait windows the\n"
             "                 executor pipelines in K segments (default 4, K >= 2).\n"
             "                 Works with every --opt strategy and with --verify,\n"
             "                 whose V22x split-phase contracts gate the result\n",
     .form = Form::optional, .on = &Settings::overlap,
     .apply = [](Settings& s, const Operand& o) {
       if (o.v != nullptr)
         s.overlap_segments = int_at_least(
             o, 2, "a pipeline depth >= 2 (K segments per window)");
     }},
    {.help = "  --timeline     render before/after per-processor timelines\n",
     .form = Form::bare, .on = &Settings::timeline},
    {.help = "  --rules        list the rule catalog and exit\n", .form = Form::bare,
     .apply = [](Settings&, const Operand&) {
       for (const auto& r : rules::all_rules())
         std::cout << r->name() << ":\n    " << r->description() << "\n";
       for (const auto& r : rules::overlap_rules())
         std::cout << r->name() << " (--overlap only):\n    "
                   << r->description() << "\n";
       std::exit(0);
     }},
    {.help = "  --verify       statically verify the run: operator property\n"
             "                 declarations (checked, not trusted), distribution-\n"
             "                 state contracts of the source and optimized\n"
             "                 schedules, and one soundness certificate per rule\n"
             "                 application; exit 3 if anything is unsound\n",
     .form = Form::bare, .on = &Settings::verify},
    {.help = "  --verify-json F  write the verification report as JSON to file F\n"
             "                 (implies --verify)\n",
     .form = Form::word, .text = &Settings::verify_json, .on = &Settings::verify},
    {.help = "  --lint         also report lint-severity findings (missed fusions,\n"
             "                 packed-plane ineligibility); implies --verify\n",
     .form = Form::bare, .on = &Settings::lint, .also = &Settings::verify},
    {.help = "  --example NAME use a built-in program instead of the text syntax:\n"
             "                 polyeval1|polyeval2|polyeval3|polyeval_sr2 (Section 5,\n"
             "                 coefficients 1..p)\n",
     .form = Form::word, .text = &Settings::example},
    {.help = "  --explain      log every rule attempt (rule x position) with its\n"
             "                 condition/policy verdict and predicted cost delta\n"
             "                 (greedy strategy only)\n",
     .form = Form::bare, .on = &Settings::explain},
    {.help = "  --explain-json F  write the explain log as JSON to file F\n",
     .form = Form::word, .text = &Settings::explain_json, .on = &Settings::explain},
    {.help = "  --metrics F    write run metrics to file F through the telemetry\n"
             "                 registry (.prom for Prometheus text, JSON otherwise)\n",
     .form = Form::word, .text = &Settings::metrics},
    {.help = "  --serve[=PORT] run the program on the thread executor, then serve\n"
             "                 the telemetry registry over HTTP on 127.0.0.1:PORT\n"
             "                 (default: a kernel-assigned ephemeral port, printed\n"
             "                 on stdout): /metrics /metrics.json /runs\n"
             "                 /runs/<trace_id> /live /live.json /healthz\n",
     .form = Form::optional, .apply = [](Settings& s, const Operand& o) {
       s.serve_port = o.v == nullptr ? 0 : parse_int(o.flag, o.v);
       if (s.serve_port < 0 || s.serve_port > 65535)
         bad_value(o.flag, o.v, "a port in 0..65535");
     }},
    {.help = "  --live         with --serve: start the server *before* execution\n"
             "                 and stream in-flight telemetry — /metrics moves\n"
             "                 mid-run, /live streams snapshots as Server-Sent\n"
             "                 Events (watch with tools/colop_top), /healthz\n"
             "                 reports idle|running|stalled; pair with --repeat N\n"
             "                 to make the run long enough to watch\n",
     .form = Form::bare, .on = &Settings::live},
    {.help = "  --record[=DIR] archive this run as a forensics bundle — manifest\n"
             "                 (identity, machine, schedule IR, applied rules, cost\n"
             "                 summary) plus every JSON artifact the run emits —\n"
             "                 under DIR/<trace_id>/ (default $COLOP_RUN_DIR, else\n"
             "                 .colop/runs); honors $COLOP_RUN_RETENTION, e.g.\n"
             "                 \"count=32,age=604800\"\n",
     .form = Form::optional, .text = &Settings::record_dir, .on = &Settings::record},
    {.help = "  --store DIR    run-store root for --record and --serve lookups\n"
             "                 (default: the --record DIR, else $COLOP_RUN_DIR,\n"
             "                 else .colop/runs)\n",
     .form = Form::word, .text = &Settings::store_dir},
    {.help = "  --drift        report model-vs-simnet drift (time, messages, words)\n"
             "                 for p in {2,4,...,64}\n",
     .form = Form::bare, .on = &Settings::drift},
    {.help = "  --drift-json F write the drift report as JSON to file F\n",
     .form = Form::word,
     .text = &Settings::drift_json, .on = &Settings::drift},
    {.help = "  --profile      critical-path profile of the optimized program:\n"
             "                 per-rank busy/comm/idle, the critical path, and\n"
             "                 per-stage attribution with rule provenance\n",
     .form = Form::bare, .on = &Settings::profile},
    {.help = "  --profile-json F   write the profile as JSON to file F\n",
     .form = Form::word,
     .text = &Settings::profile_json, .on = &Settings::profile},
    {.help = "  --profile-trace F  write the profile as a Chrome trace (critical\n"
             "                 path drawn as flow arrows) to file F\n",
     .form = Form::word, .text = &Settings::profile_trace, .on = &Settings::profile},
    {.help = "  --calibrate    fit ts/tw/op-cost from measured collective timings\n"
             "                 and report the fit plus drift vs the configured\n"
             "                 machine\n",
     .form = Form::bare, .on = &Settings::calibrate},
    {.help = "  --calibrate-from S  timing source: simnet (deterministic, default)\n"
             "                 or mpsim (wall-clock threads)\n",
     .form = Form::word, .text = &Settings::calibrate_from, .on = &Settings::calibrate,
     .apply = [](Settings& s, const Operand& o) {
       if (s.calibrate_from != "simnet" && s.calibrate_from != "mpsim")
         bad_value(o.flag, o.v, "simnet or mpsim");
     }},
    {.help = "  --calibrate-json F  write the calibration fit as JSON to file F\n",
     .form = Form::word, .text = &Settings::calibrate_json, .on = &Settings::calibrate},
    {.help = "  --rt-report    run the optimized program on the thread executor and\n"
             "                 report runtime telemetry: per-rank busy/wait/queue\n"
             "                 depth, per-stage wall-clock-vs-predicted drift and\n"
             "                 the wall-clock critical path\n",
     .form = Form::bare, .on = &Settings::rt_report},
    {.help = "  --rt-json F    write the runtime report as JSON to file F\n",
     .form = Form::word, .text = &Settings::rt_json, .on = &Settings::rt_report},
    {.help = "  --rt-trace F   write the flight-recorder capture as a Chrome trace\n"
             "                 (send->recv and critical-path flow arrows) to file F\n",
     .form = Form::word, .text = &Settings::rt_trace, .on = &Settings::rt_report},
    {.help = "  --rt-html F    write a self-contained HTML runtime report (timeline\n"
             "                 + tables, no external assets) to file F\n",
     .form = Form::word, .text = &Settings::rt_html, .on = &Settings::rt_report},
    {.help = "  --repeat N     run the threaded execution N times and report\n"
             "                 min/median/stddev wall time (default 1)\n",
     .form = Form::word, .on = &Settings::repeat_set,
     .apply = [](Settings& s, const Operand& o) {
       s.repeat = int_at_least(o, 1, "a positive integer");
     }},
    {.help = "  --warmup K     discard the first K threaded runs (default 0)\n",
     .form = Form::word, .on = &Settings::repeat_set,
     .apply = [](Settings& s, const Operand& o) {
       s.warmup = int_at_least(o, 0, "a non-negative integer");
     }},
    {.help = "  --machine S    optimize against the 'configured' machine (default)\n"
             "                 or the 'calibrated' one (measure + fit, then use\n"
             "                 the fitted ts/tw)\n",
     .form = Form::word, .apply = [](Settings& s, const Operand& o) {
       const std::string_view which = o.v;
       if (which == "calibrated")
         s.use_calibrated = true;
       else if (which != "configured")
         bad_value(o.flag, o.v, "configured or calibrated");
     }},
};

std::string_view name_of(const Flag& f) {
  const std::string_view u = std::string_view(f.help).substr(2);
  return u.substr(0, u.find_first_of(" =["));
}

// The operand's placeholder in the usage line: F, DIR, N, S, ...
std::string_view operand_of(const Flag& f) {
  std::string_view u = std::string_view(f.help).substr(2 + name_of(f).size());
  u.remove_prefix(std::min(u.find_first_not_of(" =["), u.size()));
  return u.substr(0, u.find_first_of(" ]\n"));
}

void usage() {
  std::cerr << "usage: colopt [options] \"<program>\"\n";
  for (const auto& f : kFlags) std::cerr << f.help;
  std::cerr <<
      "program syntax:  map(pair|triple|quadruple|pi1|id) | scan(OP) |\n"
      "                 reduce(OP[,root=K]) | allreduce(OP) | bcast[(root=K)] |\n"
      "                 istart_reduce(OP[,root=K][,h=N]) | istart_allreduce(OP[,h=N]) |\n"
      "                 istart_bcast[(root=K[,h=N])] | wait[(h=N)]\n"
      "                 stages separated by ';'; OP: + * max min band bor gcd\n"
      "                 +modN *modN f+ f* mat2 first\n";
}

// Read argv left to right through the flag table; exits 0 on --help and
// --rules, 2 on any usage error.
Settings parse_args(int argc, char** argv) {
  Settings s;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    }
    // A flag is spelled as its row's name, or name=VALUE if the row allows.
    const std::size_t eq = arg.find('=');
    const Flag* flag = nullptr;
    for (const auto& f : kFlags)
      if (name_of(f) == std::string_view(arg).substr(0, eq)) flag = &f;
    if (flag != nullptr && eq != std::string::npos &&
        flag->form != Form::word_eq && flag->form != Form::optional)
      flag = nullptr;
    if (flag == nullptr) {
      if (!arg.empty() && arg[0] == '-') usage_error("unknown option: " + arg + "\n");
      s.program_text = arg;
      continue;
    }
    const char* value = eq == std::string::npos ? nullptr : argv[i] + eq + 1;
    if (value == nullptr && flag->form != Form::bare &&
        flag->form != Form::optional) {
      if (i + 1 >= argc) usage_error("");
      value = argv[++i];
    }
    if (flag->text != nullptr && value != nullptr) {
      // An empty operand names no file, directory or example.
      const std::string_view operand = operand_of(*flag);
      const char* expected = operand == "F"      ? "a file name"
                             : operand == "DIR"  ? "a directory"
                             : operand == "NAME" ? "an example name"
                                                 : nullptr;
      if (expected != nullptr && *value == '\0')
        bad_value(std::string(name_of(*flag)), "", expected);
      s.*flag->text = value;
    }
    if (flag->on != nullptr) s.*flag->on = true;
    if (flag->also != nullptr) s.*flag->also = true;
    if (flag->apply != nullptr)
      flag->apply(s, {std::string(name_of(*flag)), value});
  }

  // Cross-flag consistency (exit 2 like any other usage error: a flag
  // combination that cannot mean what the user intended must not be
  // silently reinterpreted).
  if (s.exhaustive) {
    if (s.strategy && *s.strategy != rules::SearchStrategy::exhaustive)
      usage_error("--exhaustive conflicts with --opt=" +
                  rules::strategy_name(*s.strategy) + "\n\n");
    s.strategy = rules::SearchStrategy::exhaustive;
  }
  if (s.beam_width &&
      (!s.strategy || *s.strategy != rules::SearchStrategy::beam))
    usage_error("--beam-width is only meaningful with --opt=beam\n\n");
  if ((s.search_report || !s.search_report_json.empty()) &&
      (!s.strategy || *s.strategy == rules::SearchStrategy::greedy))
    usage_error(
        "--search-report requires a search strategy "
        "(--opt=beam, --opt=bnb or --opt=exhaustive)\n\n");
  if (s.live && s.serve_port < 0)
    usage_error(
        "--live requires --serve (it streams through the stats server)\n\n");
  if (s.repeat_set && !s.rt_report && s.serve_port < 0)
    usage_error(
        "--repeat and --warmup time the threaded run: they require "
        "--rt-report, an --rt-* file or --serve\n\n");
  return s;
}

std::vector<obs::StageRecord> stage_records(
    const ir::Program& prog, const model::Machine& machine,
    const std::vector<std::string>* provenance) {
  std::vector<obs::StageRecord> out;
  for (const auto& stage : prog.stages()) {
    obs::StageRecord rec;
    rec.index = static_cast<int>(out.size());
    rec.label = stage->show();
    rec.kind = stage->row().keyword;
    rec.local = stage->is_local();
    if (provenance != nullptr && out.size() < provenance->size())
      rec.rule = (*provenance)[out.size()];
    rec.model_time = model::stage_cost(*stage).eval(machine);
    out.push_back(std::move(rec));
  }
  return out;
}

obs::SearchRecord search_record(const rules::SearchResult& res) {
  obs::SearchRecord s;
  s.strategy = rules::strategy_name(res.strategy);
  s.beam_width = res.beam_width;
  s.nodes_expanded = res.stats.nodes_expanded;
  s.nodes_generated = res.stats.nodes_generated;
  s.pruned_bound = res.stats.pruned_by_bound;
  s.pruned_beam = res.stats.pruned_by_beam;
  s.pruned_budget = res.stats.pruned_by_budget;
  s.memo_hits = res.stats.memo_hits;
  s.memo_entries = res.stats.memo_entries;
  s.frontier_peak = res.stats.frontier_peak;
  s.depth = res.stats.depth_reached;
  s.greedy_cost = res.greedy_cost;
  s.winner_cost = res.best.cost_final;
  s.winner_certified = res.winner_index < res.ranked.size() &&
                       res.ranked[res.winner_index].certified == 1;
  for (const auto& r : res.ranked)
    s.ranked.push_back({r.cost, r.path_text(), r.certified});
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Settings s = parse_args(argc, argv);
  model::Machine& machine = s.machine;
  const bool searching =
      s.strategy && *s.strategy != rules::SearchStrategy::greedy;

  // Store root: --record=DIR wins (what we write is what we read), then
  // --store, then the environment/default.
  const std::string store_root = !s.record_dir.empty() ? s.record_dir
                                 : !s.store_dir.empty()
                                     ? s.store_dir
                                     : obs::RunStore::default_root();

  // Every report goes through here and is serialised once: into its flag's
  // file F, announced as "<what> written to F", and under --record into the
  // bundle as `artifact` (nullptr: not archived).  Returns whether F was
  // written.
  std::map<std::string, std::string> artifacts;
  const auto write_report = [&](const std::string& path, const std::string& what,
                                const char* artifact,
                                const std::function<void(std::ostream&)>& serialise) {
    const bool archive = s.record && artifact != nullptr;
    if (path.empty() && !archive) return false;
    std::ostringstream ss;
    serialise(ss);
    if (archive) artifacts[artifact] = ss.str();
    if (path.empty()) return false;
    std::ofstream f(path);
    if (!f) throw Error("cannot open " + path + " for writing");
    f << ss.str();
    std::cout << what << " written to " << path << "\n";
    return true;
  };

  try {
    if (s.program_text.empty() && s.example.empty()) usage_error("");

    ir::Program program;
    if (!s.example.empty()) {
      std::vector<double> coeffs(static_cast<std::size_t>(machine.p));
      for (std::size_t i = 0; i < coeffs.size(); ++i)
        coeffs[i] = static_cast<double>(i + 1);
      if (s.example == "polyeval1")
        program = apps::polyeval_1(coeffs);
      else if (s.example == "polyeval2")
        program = apps::polyeval_2(coeffs);
      else if (s.example == "polyeval3")
        program = apps::polyeval_3(coeffs);
      else if (s.example == "polyeval_sr2")
        program = apps::polyeval_sr2(coeffs);
      else {
        std::cerr << "unknown example: " << s.example << "\n";
        return 2;
      }
    } else {
      program = ir::parse_program(s.program_text);
    }
    if (auto err = ir::check_shapes(program)) {
      std::cerr << "shape error: " << *err << "\n";
      return 1;
    }
    // A root no rank holds would have every rank wait on a collective
    // nobody roots; the cost model and simnet would price it anyway.
    for (std::size_t i = 0; i < program.size(); ++i) {
      const ir::Stage& stage = program.stage(i);
      const int root = stage.root_rank();
      if (stage.row().names_root && (root < 0 || root >= machine.p))
        throw Error("stage " + std::to_string(i) + " (" + stage.show() +
                    "): root " + std::to_string(root) +
                    " is out of range for p = " + std::to_string(machine.p));
    }

    // One TraceId per invocation: every artifact this run writes (Chrome
    // traces, drift/profile/rt/verify JSON, metrics, /runs) carries it.
    obs::set_trace_id(obs::mint_trace_id());
    std::cout << "program : " << program.show() << "\n";
    std::cout << "machine : p=" << machine.p << " m=" << machine.m
              << " ts=" << machine.ts << " tw=" << machine.tw << "\n";
    std::cout << "trace   : " << obs::trace_id() << "\n\n";

    if (s.calibrate || s.use_calibrated) {
      const auto timings = s.calibrate_from == "mpsim"
                               ? obs::measure_mpsim_timings()
                               : obs::measure_simnet_timings(machine);
      auto fit = model::fit_machine(timings);
      fit.source = s.calibrate_from;
      if (s.calibrate) {
        std::cout << fit.render_text();
        std::cout << obs::machine_drift(machine, fit).render_text() << "\n";
        if (write_report(s.calibrate_json, "calibration", nullptr,
                         [&](std::ostream& os) { fit.write_json(os); }))
          std::cout << "\n";
      }
      if (s.use_calibrated) {
        machine = fit.machine(machine.p, machine.m);
        std::cout << "machine : (calibrated from " << s.calibrate_from
                  << ") ts=" << machine.ts << " tw=" << machine.tw << "\n\n";
      }
    }

    // The telemetry hub wants the optimizer's attempt log even when the
    // user didn't ask for --explain: rule attempted/rejected counters come
    // from it.  A recorded bundle archives the hub snapshot and the explain
    // log, so --record implies both.
    const bool hub_wanted =
        s.serve_port >= 0 || !s.metrics.empty() || s.record;
    rules::ExplainLog explain_log;
    if (s.explain || hub_wanted) s.options.explain = &explain_log;
    auto rule_set = rules::all_rules();
    if (s.overlap)
      for (auto& r : rules::overlap_rules()) rule_set.push_back(std::move(r));
    std::optional<verify::CertifiedSearch> cert;
    const rules::SearchResult* search_res = nullptr;
    rules::OptimizeResult result;
    if (searching) {
      rules::SearchOptions sopts;
      sopts.strategy = *s.strategy;
      sopts.beam_width =
          *s.strategy == rules::SearchStrategy::beam ? s.beam_width.value_or(8) : 0;
      sopts.base = s.options;
      const rules::SearchOptimizer searcher(machine, rule_set, sopts);
      // The soundness gate: re-discharge every ranked schedule's rewrite
      // certificates (shared steps once) and install the cheapest CERTIFIED
      // schedule as the winner before anything downstream consumes it.
      cert = verify::certify_search(program, searcher.search(program));
      search_res = &cert->search;
      result = search_res->best;
    } else {
      result = rules::Optimizer(machine, rule_set, s.options).optimize(program);
    }

    if (s.explain && searching)
      std::cout << "(--explain records the greedy strategy only)\n";
    else if (s.explain)
      std::cout << "rule attempts (every rule x position, per step):\n"
                << explain_log.render_text(true) << "\n";
    write_report(s.explain_json, "explain log", searching ? nullptr : "explain",
                 [&](std::ostream& os) { explain_log.write_json(os); });

    if (result.log.empty()) {
      std::cout << "no profitable rewrite on this machine.\n";
    } else {
      std::cout << "derivation (";
      if (!searching)
        std::cout << "greedy";
      else if (*s.strategy == rules::SearchStrategy::beam)
        std::cout << "beam search, width "
                  << (search_res->beam_width == 0
                          ? std::string("unbounded")
                          : std::to_string(search_res->beam_width));
      else if (*s.strategy == rules::SearchStrategy::branch_bound)
        std::cout << "branch-and-bound search";
      else
        std::cout << "exhaustive search";
      std::cout << "):\n";
      for (const auto& step : result.log) {
        std::cout << "  " << step.rule << " @" << step.position;
        if (!step.note.empty()) std::cout << " {" << step.note << "}";
        std::cout << "\n    = " << step.program_after << "\n";
      }
    }
    if (searching) {
      std::cout << "schedule : cost " << result.cost_final << " (greedy "
                << search_res->greedy_cost << "), certificates ";
      if (cert->fell_back_to_source)
        std::cout << "rejected every searched schedule — kept the source "
                     "program";
      else if (cert->demoted)
        std::cout << "demoted cheaper uncertified schedule(s); winner "
                     "discharged";
      else
        std::cout << "discharged";
      std::cout << "\n";
    }
    std::cout << "\n";

    if (search_res) {
      if (s.search_report) std::cout << search_res->render_report() << "\n";
      if (write_report(s.search_report_json, "search report", "search",
                       [&](std::ostream& os) { search_res->write_json(os); }))
        std::cout << "\n";
    }

    int verify_exit = 0;
    std::optional<verify::VerifyResult> vres;
    if (s.verify) {
      verify::VerifyOptions vopts;
      vopts.p = machine.p;
      vopts.lints = s.lint;
      vres = verify::verify_program(program, &result, vopts);
      std::cout << vres->render_text(s.lint);
      write_report(s.verify_json, "verification report", "verify",
                   [&](std::ostream& os) {
                     vres->write_json(os, s.lint);
                     os << "\n";
                   });
      std::cout << "\n";
      verify_exit = vres->exit_code();
    }

    Table t("prediction", {"version", "analytic cost", "simnet time",
                           "messages", "words"});
    const double cost_before = model::program_time(program, machine);
    const double cost_after = model::program_time(result.program, machine);
    const auto before = exec::run_on_simnet(program, machine);
    const auto after = exec::run_on_simnet(result.program, machine);
    t.add("original", cost_before, before.time, before.messages, before.words);
    t.add("optimized", cost_after, after.time, after.messages, after.words);
    t.print(std::cout);
    if (before.time > 0)
      std::cout << "\npredicted speedup: " << before.time / after.time << "x\n";

    if (s.timeline) {
      // Timelines get unreadable beyond a screenful of processors.
      model::Machine tl = machine;
      tl.p = std::min(tl.p, 16);
      const auto tb = exec::trace_on_simnet(program, tl);
      const auto ta = exec::trace_on_simnet(result.program, tl);
      std::cout << "\nbefore (p=" << tl.p << "):\n"
                << exec::render_timeline(tb, 72) << "\nafter:\n"
                << exec::render_timeline(ta, 72, tb.makespan);
    }

    if (s.drift) {
      const auto ro = obs::drift_report(program, machine);
      const auto rr = obs::drift_report(result.program, machine);
      std::cout << "\n" << ro.render_text() << "\n" << rr.render_text();
      write_report(s.drift_json, "drift report", "drift", [&](std::ostream& os) {
        os << "{\"original\":";
        ro.write_json(os);
        os << ",\"optimized\":";
        rr.write_json(os);
        os << "}\n";
      });
    }

    // A recorded bundle archives the profile, so --record implies it.
    const auto provenance = rules::stage_provenance(program.size(), result.log);
    if (s.profile || s.record) {
      obs::ProfileOptions popts;
      popts.provenance = provenance;
      const auto prof = obs::profile_program(result.program, machine, popts);
      if (s.profile) std::cout << "\n" << prof.render_text();
      write_report(s.profile_json, "profile", "profile",
                   [&](std::ostream& os) { prof.write_json(os); });
      write_report(s.profile_trace, "profile trace", nullptr,
                   [&](std::ostream& os) { prof.write_chrome_trace(os); });
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

    // The stats server: before execution under --live (so scrapes and
    // /live observe the run in flight), after everything else otherwise.
    const auto start_server = [&]() {
      obs::RunSummary run_summary;
      run_summary.trace_id = obs::trace_id();
      run_summary.program = program.show();
      run_summary.optimized = result.program.show();
      run_summary.started_at = obs::utc_timestamp();
      if (s.live) run_summary.state = "live";
      run_summary.rewrites = static_cast<int>(result.log.size());
      run_summary.model_cost_before = cost_before;
      run_summary.model_cost_after = cost_after;
      if (rt_rep) run_summary.wall_ms = rt_rep->wall_ms;
      server.emplace(hub);
      server->add_run(run_summary);
      server->set_run_store(store_root);
      if (live_sampler) server->set_live(&*live_sampler);
      std::string err;
      if (!server->start(s.serve_port, &err)) {
        std::cerr << "error: " << err << "\n";
        return false;
      }
      server->install_signal_stop();
      std::cout << "serving on http://127.0.0.1:" << server->port()
                << (s.live ? " (live; GET /metrics /metrics.json /runs /live "
                             "/live.json /healthz; Ctrl-C to stop)\n"
                           : " (GET /metrics /metrics.json /runs "
                             "/runs/<trace_id> /healthz; Ctrl-C to stop)\n")
                << std::flush;
      return true;
    };

    if (s.rt_report || s.serve_port >= 0) {
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

      if (s.live) {
        rt::LiveRunInfo info;
        info.trace_id = obs::trace_id();
        info.program = result.program.show();
        for (const auto& stage : result.program.stages())
          info.stage_labels.push_back(stage->show());
        info.ranks = static_cast<int>(machine.p);
        info.repeats = s.warmup + s.repeat;
        live_sampler.emplace(hub);
        live_sampler->begin_run(std::move(info));
        live_sampler->start();
        if (!start_server()) return 1;
      }

      std::vector<double> samples_ms;
      std::optional<exec::ThreadRunResult> run;
      for (int it = 0; it < s.warmup + s.repeat; ++it) {
        if (s.live) live_sampler->note_repeat(it);
        auto r = exec::run_on_threads_instrumented(
            result.program, input, ir::DataPlane::Auto, mpsim::Ranks::threads,
            s.overlap_segments);
        if (it >= s.warmup) samples_ms.push_back(r.wall_seconds * 1e3);
        run = std::move(r);
      }
      if (s.live) live_sampler->end_run();

      rt::RtReportOptions ropts;
      ropts.model_stage_times.reserve(result.program.size());
      for (const auto& stage : result.program.stages())
        ropts.model_stage_times.push_back(
            model::stage_cost(*stage).eval(machine));
      ropts.provenance = provenance;
      ropts.wall_seconds = run->wall_seconds;
      ropts.pack_seconds = run->pack_seconds;
      ropts.unpack_seconds = run->unpack_seconds;
      ropts.used_packed = run->used_packed;
      ropts.timing = rt::RepeatStats::of(samples_ms, s.warmup);
      rt_rep = rt::build_report(run->rt, ropts);
      if (server) server->finish_run(obs::trace_id(), rt_rep->wall_ms);

      if (s.rt_report) std::cout << "\n" << rt_rep->render_text();
      if (!run->rt.enabled)
        std::cout << "(runtime telemetry disabled: COLOP_RT=0 or compiled "
                     "out; per-rank and per-stage sections are empty)\n";
      write_report(s.rt_json, "runtime report", "rt",
                   [&](std::ostream& os) { rt_rep->write_json(os); });
      write_report(s.rt_trace, "runtime trace", nullptr, [&](std::ostream& os) {
        rt_rep->profile.write_chrome_trace(os, "colop rt");
      });
      write_report(s.rt_html, "runtime HTML report", nullptr,
                   [&](std::ostream& os) { rt_rep->write_html(os); });
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
      rules::publish_metrics(result, s.options.explain, hub);
      if (search_res) rules::publish_search_metrics(*search_res, hub);
      if (vres) verify::publish_metrics(*vres, hub);
      if (rt_rep) rt::publish_registry(*rt_rep, hub);
    }

    // --metrics F writes the hub as JSON unless F ends in .prom; the bundle
    // always archives the JSON snapshot.
    const bool prom = s.metrics.ends_with(".prom");
    if (prom)
      write_report(s.metrics, "metrics", nullptr,
                   [&](std::ostream& os) { hub.write_prometheus(os); });
    write_report(prom ? std::string() : s.metrics, "metrics", "metrics",
                 [&](std::ostream& os) {
                   hub.write_json(os);
                   os << "\n";
                 });

    if (s.record) {
      obs::RunBundle bundle;
      bundle.trace_id = obs::trace_id();
      bundle.git_sha = obs::env_git_sha();
      bundle.timestamp = obs::utc_timestamp();
      bundle.timestamp_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
      bundle.machine = {machine.p, machine.m, machine.ts, machine.tw};
      for (int a = 1; a < argc; ++a) bundle.args.emplace_back(argv[a]);
      bundle.program_before = program.show();
      bundle.program_after = result.program.show();
      bundle.stages_before = stage_records(program, machine, nullptr);
      bundle.stages_after = stage_records(result.program, machine, &provenance);
      for (const auto& step : result.log)
        bundle.rules.push_back({step.rule, step.position, step.count,
                                step.replaced_by, step.note, step.cost_before,
                                step.cost_after, step.program_after});
      bundle.model_cost_before = cost_before;
      bundle.model_cost_after = cost_after;
      bundle.sim_before = {before.time, before.messages, before.words};
      bundle.sim_after = {after.time, after.messages, after.words};
      if (rt_rep) bundle.wall_ms = rt_rep->wall_ms;
      if (search_res) bundle.search = search_record(*search_res);
      bundle.artifacts = std::move(artifacts);

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

    if (s.serve_port >= 0) {
      if (!server && !start_server()) return 1;
      server->wait();
    }
    return verify_exit;  // 0, or 3 when --verify found the run unsound
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
