// colop_perfbench — the repository benchmark program.
//
//   colop_perfbench --workload compile|execute|predict|profile --seed N
//                   --seconds S --trace 0|1 [--colopt PATH]
//                   [--trace-out FILE] [--inject-mismatch]
//
// One process, one client thread, a closed loop over a seeded program
// set.  With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of
// a traced pass (spans around every layer call, kept in memory and
// written to --trace-out as a Chrome trace when the run ends).  A
// human-readable report naming each metric's unit and clock goes to
// stderr.  Every op is checked by its workload's oracle; any miss, and
// any disagreement with the colopt binary on the fidelity sample, makes
// the run incorrect and the exit code 1.  --inject-mismatch perturbs the
// first op's oracle to prove that path.

#include <malloc.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "colop/support/table.h"
#include "heap.h"
#include "workloads.h"
#include "yardstick.h"

extern char** environ;

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string colopt;
  std::string trace_out;
  bool inject = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "colop_perfbench: " << why
            << "\nusage: colop_perfbench --workload compile|execute|predict|profile"
               " --seed N --seconds S --trace 0|1 [--colopt PATH]"
               " [--trace-out FILE] [--inject-mismatch]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    const auto number = [&](const std::string& text) {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !std::isfinite(v))
        usage("bad value for " + arg + ": " + text);
      return v;
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      const auto text = value();
      char* end = nullptr;
      a.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || *end != '\0') usage("bad value for --seed: " + text);
      have_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = number(value());
      if (a.seconds <= 0) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      const auto text = value();
      if (text != "0" && text != "1") usage("--trace takes 0 or 1");
      a.trace = text == "1";
    } else if (arg == "--colopt") {
      a.colopt = value();
    } else if (arg == "--trace-out") {
      a.trace_out = value();
    } else if (arg == "--inject-mismatch") {
      a.inject = true;
    } else {
      usage("unknown argument " + arg);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    usage("unknown or missing --workload");
  if (!have_seed || a.seconds <= 0 || a.trace < 0)
    usage("--seed, --seconds and --trace are required");
  return a;
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The per-op values `v` of the run's whole passes over a set of `n`
/// programs (op i runs program i mod n), so every program weighs the same.
/// Op costs differ a hundredfold between programs, and a trailing part
/// pass would make the mix, and the figures, depend on how many ops
/// fitted in the run.
std::vector<double> whole_passes(std::vector<double> v, std::size_t n) {
  v.resize(v.size() / n * n);
  return v;
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Pin the process, and every thread it starts later, to the last CPU it
/// may use.  On shared VMs, waking threads across CPUs is the noisiest
/// thing a run does.  Rewrite certification starts thread fleets for every
/// candidate: unpinned, compile's op times spread 20-30% between runs,
/// pinned 2-9%.  Execute's two rank threads share the CPU too: its spread
/// is 4-6% there against 5-12% on a CPU per rank.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu)
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof one, &one) != 0)
        std::cerr << "colop_perfbench: warning: cannot pin to CPU " << cpu << "\n";
      return;
    }
}

// --- the closed loop -----------------------------------------------------------

/// What one pass over the whole set (the loop's first size() ops) gives:
/// exact, run-independent totals.
struct Pass {
  OpCounts counts;
  double log_speedup = 0;
  std::vector<std::string> winners;
  std::vector<colop::exec::SimRunResult> source_sim, winner_sim;
};

struct LoopResult {
  std::vector<double> op_ms;         ///< untraced ops
  std::vector<double> op_heap_mb;    ///< untraced ops' peak heap growth
  std::vector<double> traced_op_ms;  ///< traced ops (--trace 1)
  std::vector<double> yardstick_ms;
  std::vector<double> setup_s;       ///< set-up repetitions
  /// For each untraced op and each set-up repetition: the number of
  /// yardstick runs taken before it.
  std::vector<std::size_t> op_yardsticks, setup_yardsticks;
  std::uint64_t attempted = 0, failed = 0;
  OpCounts traced;  ///< summed over traced ops
  Pass pass;
};

/// Runs ops until `seconds` have passed and at least the whole passes
/// holding 110 ops (10 samples beyond the p90) are done.  With `traced`, each program
/// runs twice in a row, untraced and traced, alternating which goes first,
/// so the tracing overhead is measured on paired ops.  Between ops, at
/// most every 150 ms, the yardstick (when given) is timed.  Between
/// ops, too, the set-up (when given) is repeated whenever its repetitions
/// have taken less than a tenth of the run so far, and at least 5 times
/// (each copy is built, timed and dropped; the ops keep using `w`):
/// sampled through the whole run like the ops and the yardstick, a
/// sub-millisecond set-up is not at the mercy of the machine's speed in
/// one second of it, which on shared VMs swings by a quarter.
LoopResult run_loop(Workload& w, Tracer& tracer, double seconds, bool traced,
                    bool inject, Yardstick* yardstick,
                    const std::function<std::unique_ptr<Workload>()>& setup) {
  LoopResult res;
  const std::size_t n = w.size();
  const std::size_t min_ops = (110 + n - 1) / n * n;
  res.pass.winners.resize(n);
  res.pass.source_sim.resize(n);
  res.pass.winner_sim.resize(n);
  std::size_t pass_ops = 0;  // ops of the pass's mode: traced iff `traced`
  const auto run_one = [&](std::size_t op, bool with_trace) {
    const std::size_t i = op % n;
    w.prepare(i);
    tracer.set_on(with_trace);
    OpOutput out;
    std::string why;
    const std::int64_t heap_base = reset_heap_peak();
    const auto t0 = Clock::now();
    try {
      Tracer::Scope root(tracer, "op", static_cast<std::int64_t>(op));
      out = w.run(i, tracer, static_cast<std::int64_t>(op));
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    }
    const double ms = seconds_since(t0) * 1e3;
    const double heap_mb = static_cast<double>(heap_peak() - heap_base) / (1 << 20);
    tracer.set_on(false);
    if (why.empty()) why = w.check(i, out, inject && res.attempted == 0);
    ++res.attempted;
    if (!why.empty()) {
      ++res.failed;
      std::cerr << "FAIL op " << op << " [" << w.programs()[i].text << "]: " << why << "\n";
    }
    (with_trace ? res.traced_op_ms : res.op_ms).push_back(ms);
    if (!with_trace) {
      res.op_heap_mb.push_back(heap_mb);
      res.op_yardsticks.push_back(res.yardstick_ms.size());
    }
    if (with_trace) res.traced += out.counts;
    // The first pass over the set: exact totals, and the in-process
    // results the CLI fidelity check compares against.
    if (with_trace == traced && pass_ops++ < n) {
      res.pass.counts += out.counts;
      if (out.counts.winner_time > 0)
        res.pass.log_speedup += std::log(out.counts.source_time / out.counts.winner_time);
      if (out.winner) res.pass.winners[i] = out.winner->show();
      res.pass.source_sim[i] = out.source_sim;
      res.pass.winner_sim[i] = out.winner_sim;
    }
  };
  const auto start = Clock::now();
  auto last_yardstick = start - std::chrono::seconds(1);
  double setup_spent = 0;
  const auto setups_owed = [&] { return setup && res.setup_s.size() < 5; };
  for (std::size_t op = 0; op < min_ops || seconds_since(start) < seconds || setups_owed();
       ++op) {
    if (yardstick && seconds_since(last_yardstick) >= 0.15) {
      res.yardstick_ms.push_back(yardstick->run_ms());
      last_yardstick = Clock::now();
    }
    for (double elapsed = seconds_since(start);
         setup && (setup_spent < 0.1 * elapsed || (elapsed >= seconds && setups_owed()));
         elapsed = seconds_since(start)) {
      const auto t0 = Clock::now();
      auto again = setup();
      res.setup_s.push_back(seconds_since(t0));
      res.setup_yardsticks.push_back(res.yardstick_ms.size());
      setup_spent += res.setup_s.back();
    }
    if (!traced) {
      run_one(op, false);
    } else {
      run_one(op, op % 2 == 1);
      run_one(op, op % 2 == 0);
    }
  }
  return res;
}

// --- CLI fidelity ----------------------------------------------------------------

/// Run `argv` (no shell), returning exit status and merged stdout/stderr.
std::pair<int, std::string> run_capture(const std::vector<std::string>& argv) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (ssize_t got; rc == 0 && (got = read(fds[0], buf, sizeof buf)) != 0;) {
    if (got > 0) out.append(buf, static_cast<std::size_t>(got));
    else if (errno != EINTR) break;
  }
  close(fds[0]);
  if (rc != 0) throw std::runtime_error("cannot run " + argv[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Replay a seeded sample of the set through the colopt binary and require
/// the same optimized schedule and the same simnet prediction table cells.
/// Returns the mismatches found.
std::vector<std::string> check_cli(const Workload& w, const Pass& pass,
                                   const std::vector<std::string>& flags,
                                   const std::string& colopt, std::uint64_t seed) {
  constexpr std::size_t kSample = 3;
  std::vector<std::string> misses;
  const std::size_t n = w.size();
  for (std::size_t k = 0; k < kSample; ++k) {
    const std::size_t i = (seed + k * n / kSample) % n;
    const auto& spec = w.programs()[i];
    std::vector<std::string> argv{colopt, "--p", std::to_string(spec.machine.p),
                                  "--m", num(spec.machine.m), "--ts", num(spec.machine.ts),
                                  "--tw", num(spec.machine.tw)};
    argv.insert(argv.end(), flags.begin(), flags.end());
    argv.push_back(spec.text);
    const auto [status, out] = run_capture(argv);
    std::string winner = spec.text;
    std::map<std::string, std::vector<std::string>> rows;
    std::istringstream lines(out);
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("    = ", 0) == 0) winner = line.substr(6);
      std::istringstream cells(line);
      std::vector<std::string> row;
      for (std::string c; cells >> c;) row.push_back(c);
      if (row.size() == 5 && (row[0] == "original" || row[0] == "optimized"))
        rows[row[0]] = row;
    }
    const auto cell = [](const colop::exec::SimRunResult& r) {
      return std::vector<std::string>{
          colop::Table::format_cell(r.time),
          colop::Table::format_cell(static_cast<unsigned long long>(r.messages)),
          colop::Table::format_cell(r.words)};
    };
    const auto same = [&](const std::string& name, const colop::exec::SimRunResult& r) {
      const auto it = rows.find(name);
      return it != rows.end() &&
             std::vector<std::string>(it->second.begin() + 2, it->second.end()) == cell(r);
    };
    std::string why;
    if (status != 0) why = "exit status " + std::to_string(status);
    else if (winner != pass.winners[i]) why = "schedule '" + winner + "' != '" + pass.winners[i] + "'";
    else if (!same("original", pass.source_sim[i]) || !same("optimized", pass.winner_sim[i]))
      why = "simnet prediction table differs";
    if (!why.empty()) misses.push_back("[" + spec.text + "] " + why);
  }
  return misses;
}

// --- report ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string clock;
  double raw = std::nan("");  ///< unscaled wall value, for the report
};

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Wall-time samples rescaled by the yardstick (yardstick.h): sample k,
/// taken after `at[k]` yardstick runs, becomes value x kNominalMs / the
/// median of the runs around it (up to 8 on either side, a few seconds of
/// the run).  The local median cancels the machine's drift within a run
/// as well as between runs: on predict it cut the 10-seed spread of
/// op_ms_p90 and ops_per_s by more than half against one median per run.
std::vector<double> rescaled(const std::vector<double>& v, const std::vector<std::size_t>& at,
                             const std::vector<double>& yardstick_ms) {
  constexpr std::size_t kReach = 8;
  std::vector<double> out(v.size());
  for (std::size_t k = 0; k < v.size(); ++k) {
    const std::size_t last = at[k] - 1;  // the loop runs the yardstick first
    const auto lo = last >= kReach ? last - kReach : 0;
    const auto hi = std::min(yardstick_ms.size(), last + kReach + 1);
    const std::vector<double> around(yardstick_ms.begin() + static_cast<std::ptrdiff_t>(lo),
                                     yardstick_ms.begin() + static_cast<std::ptrdiff_t>(hi));
    out[k] = v[k] * Yardstick::kNominalMs / quantile(around, 0.5);
  }
  return out;
}

double ops_per_s(const std::vector<double>& op_ms) { return 1e3 / mean(op_ms); }

std::vector<Metric> end_to_end(const Workload& w, const LoopResult& r) {
  const double n = static_cast<double>(w.size());
  const auto raw_ms = whole_passes(r.op_ms, w.size());
  const auto op_ms = whole_passes(rescaled(r.op_ms, r.op_yardsticks, r.yardstick_ms), w.size());
  const auto setup_s = rescaled(r.setup_s, r.setup_yardsticks, r.yardstick_ms);
  const char* scaled = "wall, yardstick-scaled";
  return {
      {"setup_s", quantile(setup_s, 0.5), "s", scaled, quantile(r.setup_s, 0.5)},
      {"op_ms_p50", quantile(op_ms, 0.5), "ms", scaled, quantile(raw_ms, 0.5)},
      {"op_ms_p90", quantile(op_ms, 0.9), "ms", scaled, quantile(raw_ms, 0.9)},
      {"ops_per_s", ops_per_s(op_ms), "1/s", scaled, ops_per_s(raw_ms)},
      {"heap_peak_mb", mean(whole_passes(r.op_heap_mb, w.size())), "MiB", "heap bytes"},
      {"sim_makespan_ops", r.pass.counts.winner_time, "op_units", "simnet"},
      {"sim_speedup_geomean", std::exp(r.pass.log_speedup / n), "ratio", "simnet"},
  };
}

std::vector<Metric> per_layer(const Workload& w, const LoopResult& r, const Tracer& tracer) {
  const auto self = tracer.self_ns_by_name();
  const auto ns = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double ops = static_cast<double>(r.traced_op_ms.size());
  double untraced_ms = 0, traced_ms = 0;
  for (double ms : r.traced_op_ms) traced_ms += ms;
  for (double ms : r.op_ms) untraced_ms += ms;
  double op_ns = 0;  // summed root span durations: every span's self time
  for (const auto& [name, v] : self) op_ns += v;
  const auto ms_per_op = [&](double v) { return v / 1e6 / ops; };
  const auto share = [&](double v) { return op_ns > 0 ? v / op_ns : 0.0; };
  const auto per_s = [](double count, double v_ns) { return v_ns > 0 ? count / (v_ns / 1e9) : 0.0; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto& c = r.pass.counts;
  const auto& t = r.traced;
  const double certify = ns("verify.certify"), verifying = ns("verify.verify");
  const double search = ns("rules.search") + ns("rules.optimize");
  const double parse = ns("ir.parse"), simnet = ns("simnet.run");
  const double profile = ns("obs.profile"), exec = ns("exec.run");
  const double n = static_cast<double>(w.size());
  return {
      {"verify.certify_ms", ms_per_op(certify), "ms", "wall"},
      {"verify.certify_share", share(certify), "ratio", "wall"},
      {"verify.verify_ms", ms_per_op(verifying), "ms", "wall"},
      {"verify.verify_share", share(verifying), "ratio", "wall"},
      {"verify.certificates", static_cast<double>(c.certificates), "count", "exact"},
      {"verify.winner_certified_ratio", ratio(static_cast<double>(c.winner_certified), n),
       "ratio", "exact"},
      {"verify.error_findings", static_cast<double>(c.error_findings), "count", "exact"},
      {"rules.search_ms", ms_per_op(search), "ms", "wall"},
      {"rules.search_share", share(search), "ratio", "wall"},
      {"rules.nodes_expanded", static_cast<double>(c.nodes_expanded), "count", "exact"},
      {"rules.memo_hit_rate",
       ratio(static_cast<double>(c.memo_hits), static_cast<double>(c.memo_hits + c.memo_entries)),
       "ratio", "exact"},
      {"rules.rewrites_applied", static_cast<double>(c.rewrites), "count", "exact"},
      {"ir.parse_ms", ms_per_op(parse), "ms", "wall"},
      {"ir.parse_share", share(parse), "ratio", "wall"},
      {"simnet.run_ms", ms_per_op(simnet), "ms", "wall"},
      {"simnet.share", share(simnet), "ratio", "wall"},
      {"simnet.messages", static_cast<double>(c.sim_messages), "count", "exact"},
      {"simnet.messages_per_s", per_s(static_cast<double>(t.sim_messages), simnet), "1/s", "wall"},
      {"obs.profile_ms", ms_per_op(profile), "ms", "wall"},
      {"obs.profile_share", share(profile), "ratio", "wall"},
      {"obs.profile_ns_per_message", ratio(profile, static_cast<double>(t.profiled_messages)),
       "ns", "wall"},
      {"exec.run_ms", ms_per_op(exec), "ms", "wall"},
      {"exec.share", share(exec), "ratio", "wall"},
      {"exec.packed_ratio", ratio(static_cast<double>(c.packed), n), "ratio", "exact"},
      {"exec.elems_per_s", per_s(static_cast<double>(t.exec_elems), exec), "1/s", "wall"},
      {"mpsim.messages", static_cast<double>(c.mpsim_messages), "count", "exact"},
      {"mpsim.bytes", static_cast<double>(c.mpsim_bytes), "bytes", "exact"},
      {"mpsim.bytes_per_s", per_s(static_cast<double>(t.mpsim_bytes), exec), "bytes/s", "wall"},
      {"mpsim.wait_share", ratio(t.wait_ns, t.rank_wall_ns), "ratio", "wall"},
      {"trace.overhead_ratio", ratio(traced_ms - untraced_ms, untraced_ms), "ratio", "wall"},
      {"trace.coverage", ratio(op_ns - ns("op"), op_ns), "ratio", "wall"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  pin_to_one_cpu();
  // Keep memory an op frees for the next op: blocks up to glibc's 32 MiB
  // ceiling come from the heap, not from fresh mmaps, and the heap is
  // never trimmed.  With glibc's dynamic defaults, trimming returns the
  // large blocks of execute and profile ops to the kernel after each op,
  // and the next op page-faults them back.  On a shared 4-vCPU VM that
  // made execute's ops about 40% slower and spread their times 5-11%
  // between runs, against 3-5% this way.  So page-fault costs are not
  // measured here; allocation work still is.
  if (mallopt(M_MMAP_THRESHOLD, 32 << 20) == 0 || mallopt(M_TRIM_THRESHOLD, 1 << 30) == 0) {
    std::cerr << "colop_perfbench: mallopt refused the allocator settings\n";
    return 1;
  }
  try {
    // Set-up is deterministic and single-threaded.  The untraced run
    // repeats it between ops and reports the median (run_loop).
    const auto setup = [&] { return make_workload(args.workload, args.seed); };
    const auto w = setup();

    // Warm-up, untimed: first touches of allocator arenas and code paths.
    Tracer tracer(false);
    for (std::size_t i = 0; i < std::min<std::size_t>(3, w->size()); ++i) {
      w->prepare(i);
      (void)w->run(i, tracer, -1);
    }

    Yardstick yardstick;
    const bool traced = args.trace == 1;
    const auto loop = run_loop(*w, tracer, args.seconds, traced, args.inject,
                               traced ? nullptr : &yardstick,
                               traced ? nullptr : std::function(setup));

    std::vector<std::string> cli_misses;
    if (const auto flags = w->cli_flags(); flags && !args.colopt.empty())
      cli_misses = check_cli(*w, loop.pass, *flags, args.colopt, args.seed);
    for (const auto& m : cli_misses) std::cerr << "FAIL colopt fidelity " << m << "\n";

    if (args.trace == 1 && !args.trace_out.empty()) {
      std::ofstream f(args.trace_out);
      if (!f) throw std::runtime_error("cannot write " + args.trace_out);
      tracer.write_chrome(f);
    }

    const auto metrics = traced ? per_layer(*w, loop, tracer) : end_to_end(*w, loop);
    const bool correct = loop.failed == 0 && cli_misses.empty();

    std::cerr << "workload " << args.workload << "  seed " << args.seed << "  set "
              << w->size() << " programs, digest " << std::hex << digest(w->programs())
              << std::dec << "\nops " << loop.attempted << " attempted, " << loop.failed
              << " failed (fail_ratio "
              << static_cast<double>(loop.failed) / static_cast<double>(loop.attempted)
              << "), timed samples " << loop.op_ms.size() << " untraced / "
              << loop.traced_op_ms.size() << " traced (p90 of the whole passes has "
              << (traced ? loop.traced_op_ms.size() : loop.op_ms.size() / w->size() * w->size()) / 10
              << " beyond it), peak RSS " << rss_peak_mb() << " MiB";
    if (!loop.yardstick_ms.empty())
      std::cerr << ", yardstick median " << quantile(loop.yardstick_ms, 0.5) << " ms of "
                << loop.yardstick_ms.size() << " (sink " << yardstick.sink() % 10
                << "), set-up repeated " << loop.setup_s.size() << " times";
    if (const auto flags = w->cli_flags(); flags && !args.colopt.empty())
      std::cerr << ", colopt fidelity " << (cli_misses.empty() ? "ok" : "MISMATCH");
    std::cerr << "\n";
    for (const auto& m : metrics) {
      std::fprintf(stderr, "  %-30s %18.6f  %-8s (%s", m.name.c_str(), m.value,
                   m.unit.c_str(), m.clock.c_str());
      if (!std::isnan(m.raw)) std::fprintf(stderr, "; unscaled %.6f", m.raw);
      std::fprintf(stderr, ")\n");
    }

    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << loop.attempted << ", \"failed\": " << loop.failed
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
      json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
           << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
    json << "}}";
    std::cout << json.str() << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "colop_perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
