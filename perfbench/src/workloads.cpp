#include "workloads.h"

#include <cmath>
#include <utility>

#include "colop/exec/thread_executor.h"
#include "colop/ir/packed_eval.h"
#include "colop/ir/parse.h"
#include "colop/model/cost.h"
#include "colop/obs/drift.h"
#include "colop/rules/optimizer.h"
#include "colop/rules/search.h"
#include "colop/support/error.h"
#include "colop/verify/certify.h"
#include "colop/verify/verify.h"

namespace perfbench {

namespace ir = colop::ir;
namespace exec = colop::exec;
namespace model = colop::model;
namespace obs = colop::obs;
namespace rules = colop::rules;
namespace verify = colop::verify;
using colop::Rng;
using Scope = Tracer::Scope;

OpCounts& OpCounts::operator+=(const OpCounts& o) {
  source_time += o.source_time;
  winner_time += o.winner_time;
  sim_messages += o.sim_messages;
  nodes_expanded += o.nodes_expanded;
  memo_hits += o.memo_hits;
  memo_entries += o.memo_entries;
  rewrites += o.rewrites;
  certificates += o.certificates;
  winner_certified += o.winner_certified;
  error_findings += o.error_findings;
  profiled_messages += o.profiled_messages;
  exec_elems += o.exec_elems;
  packed += o.packed;
  mpsim_messages += o.mpsim_messages;
  mpsim_bytes += o.mpsim_bytes;
  wait_ns += o.wait_ns;
  rank_wall_ns += o.rank_wall_ns;
  return *this;
}

namespace {

/// The set's shapes come from this constant (see SetRng), salted per
/// workload; the run half of the randomness comes from --seed.
SetRng set_rng(std::uint64_t workload_salt, std::uint64_t seed) {
  return {Rng(0xc0105e7ULL ^ workload_salt), Rng(seed ^ 0x5eed0fbe7c4ULL)};
}

/// Parse every text back and require the canonical spelling: the CLI
/// fidelity check replays the text and compares printed schedules.
std::vector<ir::Program> parse_set(const std::vector<ProgramSpec>& set) {
  std::vector<ir::Program> programs;
  programs.reserve(set.size());
  for (const auto& spec : set) {
    programs.push_back(ir::parse_program(spec.text));
    COLOP_REQUIRE(programs.back().show() == spec.text,
                  "generated text is not canonical: " + spec.text);
  }
  return programs;
}

/// "" when `got` equals `want` on every contract rank.
std::string compare_ranks(const ir::Dist& got, const ir::Dist& want,
                          const std::vector<std::size_t>& ranks, bool inject) {
  if (got.size() != want.size())
    return "rank count " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  for (const auto r : ranks) {
    ir::Block expected = want[r];
    if (inject && !expected.empty()) expected[0] = ir::Value(std::int64_t{-12345});
    if (got[r] != expected) return "output differs at rank " + std::to_string(r);
  }
  return {};
}

// --- compile ---------------------------------------------------------------
// Most of the op is rewrite certification and verification.  The one
// workload on the boxed reference interpreter: certify evaluates every
// candidate step differentially, by eval_reference and by thread fleets
// at p = 1..9, all inside the verify.certify span.
class Compile final : public Workload {
 public:
  explicit Compile(std::uint64_t seed) {
    constexpr std::size_t n = 64;
    auto r = set_rng(1, seed);
    set_ = random_programs(r, n);
    const auto up = stratified(r, n), um = stratified(r, n), uts = stratified(r, n);
    for (std::size_t i = 0; i < n; ++i) {
      auto& mach = set_[i].machine;
      mach.p = 8 + static_cast<int>(up[i] * 57);                 // 8..64
      mach.m = std::round(16 * std::pow(256.0, um[i]));           // 16..4096
      mach.ts = std::round(100 + uts[i] * 1500);                  // 100..1600
      mach.tw = 2;
    }
    sources_ = parse_set(set_);
    for (std::size_t i = 0; i < n; ++i) {
      source_costs_.push_back(model::program_time(sources_[i], set_[i].machine));
      inputs_.push_back(make_input(set_[i], set_[i].machine.p, 4, r.run));
      expected_.push_back(sources_[i].eval_reference(inputs_.back()));
    }
  }

  std::optional<std::vector<std::string>> cli_flags() const override {
    return std::vector<std::string>{"--opt=beam", "--verify"};
  }

  OpOutput run(std::size_t i, Tracer& tracer, std::int64_t op) override {
    const auto& mach = set_[i].machine;
    OpOutput out;
    ir::Program prog;
    {
      Scope s(tracer, "ir.parse", op);
      prog = ir::parse_program(set_[i].text);
    }
    rules::SearchResult searched;
    {
      Scope s(tracer, "rules.search", op);
      rules::SearchOptions opts;
      opts.strategy = rules::SearchStrategy::beam;
      opts.beam_width = 8;
      searched = rules::SearchOptimizer(mach, rules::all_rules(), opts).search(prog);
    }
    auto& c = out.counts;
    c.nodes_expanded = searched.stats.nodes_expanded;
    c.memo_hits = searched.stats.memo_hits;
    c.memo_entries = searched.stats.memo_entries;
    {
      Scope s(tracer, "verify.certify", op);
      out.certified = verify::certify_search(prog, std::move(searched));
    }
    const auto& cert = *out.certified;
    const auto& best = cert.search.best;
    {
      Scope s(tracer, "verify.verify", op);
      verify::VerifyOptions opts;
      opts.p = mach.p;
      out.verified = verify::verify_program(prog, &best, opts);
    }
    {
      Scope s(tracer, "simnet.run", op);
      out.source_sim = exec::run_on_simnet(prog, mach);
    }
    {
      Scope s(tracer, "simnet.run", op);
      out.winner_sim = exec::run_on_simnet(best.program, mach);
    }
    c.certificates = cert.certification.discharged_steps;
    c.winner_certified =
        !cert.fell_back_to_source &&
        cert.search.ranked.at(cert.search.winner_index).certified == 1;
    c.error_findings = out.verified->report.errors();
    c.rewrites = best.log.size();
    c.source_time = out.source_sim.time;
    c.winner_time = out.winner_sim.time;
    c.sim_messages = out.source_sim.messages + out.winner_sim.messages;
    out.greedy_cost = cert.search.greedy_cost;
    out.winner_cost = best.cost_final;
    out.winner = best.program;
    return out;
  }

  std::string check(std::size_t i, const OpOutput& out, bool inject) const override {
    const int p = set_[i].machine.p;
    const auto got = out.winner->eval_reference(inputs_[i]);
    auto why = compare_ranks(got, expected_[i], contract_ranks(sources_[i], p), inject);
    if (!why.empty()) return "winner vs source reference: " + why;
    const double source_cost = source_costs_[i], tol = 1e-9 * source_cost;
    if (out.winner_cost > out.greedy_cost + tol || out.greedy_cost > source_cost + tol)
      return "cost order broken: winner " + std::to_string(out.winner_cost) +
             ", greedy " + std::to_string(out.greedy_cost) + ", source " +
             std::to_string(source_cost);
    if (out.counts.error_findings != 0)
      return std::to_string(out.counts.error_findings) + " error-severity finding(s)";
    return {};
  }

 private:
  std::vector<ir::Program> sources_;
  std::vector<double> source_costs_;  ///< model units
  std::vector<ir::Dist> inputs_, expected_;
};

// --- execute ---------------------------------------------------------------
// The thread runtime on the packed plane: exec, mpsim and the packed ir
// kernels do all the work.  Few ranks with a large block each (p = 2,
// 65536 elements per rank) keep each op's time in the data plane rather
// than in thread scheduling, which on shared VMs is noise.  Inputs are regenerated from their seed before
// each op and expected outputs are kept as hashes, so the set costs no
// resident memory between ops.
class Execute final : public Workload {
 public:
  static constexpr int kRanks = 2;
  static constexpr std::size_t kBlock = 65536;

  explicit Execute(std::uint64_t seed) {
    constexpr std::size_t n = 16;
    auto r = set_rng(2, seed);
    set_ = random_programs(r, n);
    const auto uts = stratified(r, n);
    for (std::size_t i = 0; i < n; ++i)
      set_[i].machine = {.p = kRanks,
                         .m = static_cast<double>(kBlock),
                         .ts = std::round(100 + uts[i] * 1500),
                         .tw = 2};
    sources_ = parse_set(set_);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& mach = set_[i].machine;
      winners_.push_back(rules::Optimizer(mach).optimize(sources_[i]).program);
      COLOP_REQUIRE(ir::packable(winners_[i], ir::Shape::scalar(), kRanks),
                    "winner not packable: " + winners_[i].show());
      input_seeds_.push_back(r.run());
      const auto want = sources_[i].eval_reference(input(i));
      expected_.push_back(hash_ranks(want, contract_ranks(sources_[i], kRanks)));
      const auto before = exec::run_on_simnet(sources_[i], mach);
      const auto after = exec::run_on_simnet(winners_[i], mach);
      sim_times_.emplace_back(before.time, after.time);
    }
  }

  void prepare(std::size_t i) override { staged_ = input(i); }

  OpOutput run(std::size_t i, Tracer& tracer, std::int64_t op) override {
    OpOutput out;
    {
      Scope s(tracer, "exec.run", op);
      out.threads = exec::run_on_threads_instrumented(
          winners_[i], std::move(staged_), ir::DataPlane::Packed);
    }
    const auto& r = *out.threads;
    auto& c = out.counts;
    c.source_time = sim_times_[i].first;
    c.winner_time = sim_times_[i].second;
    c.exec_elems = kRanks * kBlock;
    c.packed = r.used_packed ? 1 : 0;
    c.mpsim_messages = r.traffic.messages;
    c.mpsim_bytes = r.traffic.bytes;
    for (const auto& rank : r.rt.per_rank)
      c.wait_ns += static_cast<double>(rank.stats.recv_wait_ns + rank.stats.barrier_wait_ns);
    c.rank_wall_ns = r.wall_seconds * 1e9 * kRanks;
    return out;
  }

  std::string check(std::size_t i, const OpOutput& out, bool inject) const override {
    if (!out.threads->used_packed) return "ran off the packed plane";
    const auto got = hash_ranks(out.threads->output, contract_ranks(sources_[i], kRanks));
    if (got != (inject ? expected_[i] ^ 1 : expected_[i]))
      return "threads output of the winner differs from the source reference";
    return {};
  }

 private:
  [[nodiscard]] ir::Dist input(std::size_t i) const {
    Rng rng(input_seeds_[i]);
    return make_input(set_[i], kRanks, kBlock, rng);
  }

  /// FNV-1a over the contract ranks' blocks (rank count included).
  static std::uint64_t hash_ranks(const ir::Dist& d, const std::vector<std::size_t>& ranks) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
    mix(d.size());
    for (const auto r : ranks) {
      if (r >= d.size()) return 0;
      mix(d[r].size());
      for (const auto& v : d[r]) {
        if (v.is_int()) mix(static_cast<std::uint64_t>(v.as_int()));
        else if (v.is_undefined()) mix(0x5f5f5f5fULL);
        else for (char c : v.to_string()) mix(static_cast<unsigned char>(c));
      }
    }
    return h;
  }

  std::vector<ir::Program> sources_, winners_;
  std::vector<std::uint64_t> input_seeds_, expected_;
  std::vector<std::pair<double, double>> sim_times_;
  ir::Dist staged_;
};

// --- predict / profile -------------------------------------------------------
// predict: colopt's default path at scale, where the simnet event engine
// does most of the work.  profile: the same op at p <= 1024 plus the
// critical-path analyzer on the winner (simnet traced through a sink
// rather than untraced), which takes nearly all of the op.
class Predict final : public Workload {
 public:
  Predict(std::uint64_t seed, bool profile) : profile_(profile) {
    constexpr std::size_t n = 96;
    const std::vector<int> ps = profile ? std::vector<int>{256, 512, 1024}
                                        : std::vector<int>{4096, 16384, 65536};
    auto r = set_rng(profile ? 4 : 3, seed);
    set_ = random_programs(r, n);
    const auto up = stratified(r, n), uts = stratified(r, n);
    for (std::size_t i = 0; i < n; ++i)
      set_[i].machine = {
          .p = ps[static_cast<std::size_t>(up[i] * static_cast<double>(ps.size()))],
          .m = 1024,
          .ts = std::round(100 + uts[i] * 1500),
          .tw = 2};
    (void)parse_set(set_);
  }

  std::optional<std::vector<std::string>> cli_flags() const override {
    if (profile_) return std::nullopt;
    return std::vector<std::string>{};
  }

  OpOutput run(std::size_t i, Tracer& tracer, std::int64_t op) override {
    const auto& mach = set_[i].machine;
    OpOutput out;
    ir::Program prog;
    {
      Scope s(tracer, "ir.parse", op);
      prog = ir::parse_program(set_[i].text);
    }
    rules::OptimizeResult res;
    {
      Scope s(tracer, "rules.optimize", op);
      res = rules::Optimizer(mach).optimize(prog);
    }
    {
      Scope s(tracer, "simnet.run", op);
      out.source_sim = exec::run_on_simnet(prog, mach);
    }
    {
      Scope s(tracer, "simnet.run", op);
      out.winner_sim = exec::run_on_simnet(res.program, mach);
    }
    if (profile_) {
      obs::ProfileOptions opts;
      opts.provenance = rules::stage_provenance(prog.size(), res.log);
      Scope s(tracer, "obs.profile", op);
      out.profile = obs::profile_program(res.program, mach, opts);
    }
    auto& c = out.counts;
    c.rewrites = res.log.size();
    c.source_time = out.source_sim.time;
    c.winner_time = out.winner_sim.time;
    c.sim_messages = out.source_sim.messages + out.winner_sim.messages;
    if (profile_) c.profiled_messages = out.winner_sim.messages;
    out.source_prog = std::move(prog);
    out.winner = std::move(res.program);
    return out;
  }

  std::string check(std::size_t i, const OpOutput& out, bool inject) const override {
    const auto& mach = set_[i].machine;
    if (profile_) {
      const auto& prof = *out.profile;
      if (!prof.balanced()) return "profile: busy + comm + idle != makespan";
      if (!prof.path_complete()) return "profile: critical path has gaps";
      const double want = out.winner_sim.time + (inject ? 1.0 : 0.0);
      if (prof.makespan != want)
        return "profile makespan " + std::to_string(prof.makespan) +
               " != untraced simnet " + std::to_string(want);
      return {};
    }
    const std::pair<const ir::Program*, const exec::SimRunResult*> runs[] = {
        {&*out.source_prog, &out.source_sim}, {&*out.winner, &out.winner_sim}};
    for (const auto& [prog, sim] : runs) {
      const auto want = obs::predicted_traffic(*prog, mach);
      const auto messages = want.messages + (inject ? 1 : 0);
      if (sim->messages != messages || sim->words != want.words)
        return "simnet traffic " + std::to_string(sim->messages) + " msgs/" +
               std::to_string(sim->words) + " words != predicted " +
               std::to_string(messages) + "/" + std::to_string(want.words) +
               " for " + prog->show();
    }
    return {};
  }

 private:
  bool profile_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"compile", "execute", "predict", "profile"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "compile") return std::make_unique<Compile>(seed);
  if (name == "execute") return std::make_unique<Execute>(seed);
  if (name == "predict") return std::make_unique<Predict>(seed, false);
  if (name == "profile") return std::make_unique<Predict>(seed, true);
  throw colop::Error("unknown workload: " + name);
}

}  // namespace perfbench
