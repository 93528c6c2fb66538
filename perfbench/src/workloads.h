#pragma once
// The four benchmark workloads.  Each is a closed loop driven by one
// client thread: op i runs program i mod size() through the layers the
// workload exercises, and the next op starts only when it returns.
//
//   compile  parse -> beam search (width 8) -> certify_search ->
//            verify_program -> simnet(source, winner)   p 8..64
//   execute  run_on_threads_instrumented(winner) on the packed plane,
//            p = 2 ranks x 65536 elements (winners compiled in set-up)
//   predict  parse -> greedy optimize -> simnet(source, winner)
//            p in {4096, 16384, 65536}, m = 1024
//   profile  the predict op + obs::profile_program(winner, provenance)
//            p in {256, 512, 1024}, m = 1024
//
// Set-up (the constructor) is deterministic and single-threaded.  An op
// returns its outputs; check() compares them against an oracle that the
// op's own layers do not compute.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "colop/exec/sim_executor.h"
#include "colop/exec/thread_executor.h"
#include "colop/ir/program.h"
#include "colop/ir/value.h"
#include "colop/obs/profile.h"
#include "colop/verify/certify.h"
#include "colop/verify/verify.h"
#include "programs.h"
#include "spans.h"

namespace perfbench {

/// Per-op counters.  Everything but the rt wait figures is a pure
/// function of the program, so sums over one pass of the set repeat bit
/// for bit on every run of a seed.
struct OpCounts {
  double source_time = 0;  ///< simnet makespan of the source (op units)
  double winner_time = 0;  ///< simnet makespan of the optimized program
  std::uint64_t sim_messages = 0;  ///< simnet messages, source + winner
  std::uint64_t nodes_expanded = 0, memo_hits = 0, memo_entries = 0;
  std::uint64_t rewrites = 0;
  std::uint64_t certificates = 0;  ///< certify_search obligation chains replayed
  std::uint64_t winner_certified = 0, error_findings = 0;
  std::uint64_t profiled_messages = 0;  ///< winner messages under obs.profile
  std::uint64_t exec_elems = 0, packed = 0;
  std::uint64_t mpsim_messages = 0, mpsim_bytes = 0;
  double wait_ns = 0, rank_wall_ns = 0;  ///< rt capture: recv + barrier waits

  OpCounts& operator+=(const OpCounts& o);
};

/// What an op produced, for its oracle.  Large layer results are moved
/// in whole, so they are freed after the op's timing ends.
struct OpOutput {
  OpCounts counts;
  std::optional<colop::ir::Program> source_prog, winner;
  double greedy_cost = 0, winner_cost = 0;  ///< model units
  colop::exec::SimRunResult source_sim, winner_sim;
  std::optional<colop::verify::CertifiedSearch> certified;
  std::optional<colop::verify::VerifyResult> verified;
  std::optional<colop::exec::ThreadRunResult> threads;
  std::optional<colop::obs::Profile> profile;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] const std::vector<ProgramSpec>& programs() const { return set_; }
  [[nodiscard]] std::size_t size() const { return set_.size(); }

  /// Untimed preparation before op `i` (staging inputs the layer call
  /// consumes).
  virtual void prepare(std::size_t /*i*/) {}
  /// One op on program `i`; every layer call sits in its own span under
  /// the op's root span.  Throws on a layer error.
  [[nodiscard]] virtual OpOutput run(std::size_t i, Tracer& tracer,
                                     std::int64_t op) = 0;
  /// Oracle verdict: empty when right, else what differed.  `inject`
  /// perturbs the oracle's expected side, to prove a mismatch is caught.
  [[nodiscard]] virtual std::string check(std::size_t i, const OpOutput& out,
                                          bool inject) const = 0;
  /// colopt flags that reproduce the op, for the CLI fidelity check;
  /// nullopt when the workload has no single colopt equivalent.
  [[nodiscard]] virtual std::optional<std::vector<std::string>> cli_flags() const {
    return std::nullopt;
  }

 protected:
  std::vector<ProgramSpec> set_;
};

/// The names the command line accepts, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build a workload's seeded set-up; throws on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
