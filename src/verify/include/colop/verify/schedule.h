#pragma once
// Static schedule analyzer (colop::verify analysis 2).
//
// A PARCOACH-style pass over an ir::Program: instead of executing the
// schedule, walk its stage composition through an abstract DISTRIBUTION
// STATE that tracks where defined data lives across the p ranks:
//
//   uniform     every rank holds the SAME defined block  (post bcast/allreduce)
//   varied      every rank holds defined, rank-dependent data (normal state)
//   root_only r only rank r holds defined data; the rest is the paper's `_`
//               (post reduce / reduce_balanced / iter)
//
// Each stage has a pre-contract (what it needs) and a post-effect (what it
// leaves).  Because colop programs are straight-line SPMD compositions,
// cross-rank collective matching — PARCOACH's central concern on arbitrary
// control flow — reduces to checking these contracts plus root/rank
// consistency: every rank executes the same stage list, so a mismatch can
// only come from data distribution, roots out of range, rank-divergent
// local stages, or shape/words metadata.
//
// Diagnostics carry the stage index, its pretty form, and — when the
// program is the output of the optimizer — the name of the rule that
// produced the stage (rules::stage_provenance), so "error V201 @2
// scan(+) [from BSR-Local]" points at the rewrite to blame.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "colop/ir/program.h"
#include "colop/ir/shape.h"
#include "colop/verify/diagnostics.h"

namespace colop::verify {

/// Abstract distribution state (see file comment).
struct DistState {
  enum class Kind { uniform, varied, root_only };
  Kind kind = Kind::varied;
  int root = 0;  ///< meaningful for root_only only

  [[nodiscard]] static DistState uniform() { return {Kind::uniform, 0}; }
  [[nodiscard]] static DistState varied() { return {Kind::varied, 0}; }
  [[nodiscard]] static DistState root_only(int r) {
    return {Kind::root_only, r};
  }
  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const DistState&, const DistState&) = default;
};

struct ScheduleOptions {
  /// Processor count the schedule is analyzed for (iter pow-2 check, root
  /// range checks).
  int p = 8;
  /// Element shape of the input distributed list.
  ir::Shape input = ir::Shape::scalar();
  /// Distribution state of the input (varied = the usual "every rank holds
  /// its share" entry state).
  DistState entry = DistState::varied();
  /// Per-stage rule provenance (rules::stage_provenance of the derivation
  /// that produced this program); empty for source programs.
  std::vector<std::string> provenance;
  /// Emit lint-severity findings (packed-plane eligibility, ...).
  bool lints = true;
};

/// Walk the program and report every contract violation:
///   V201 collective consumes blocks known undefined on p-1 ranks
///   V202 bcast roots at a rank whose block is undefined
///   V203 collective root out of range for p
///   V204 iter with non-power-of-two p and no generalized fold
///   V205 shape / words metadata inconsistency (ir::check_shapes)
///   V206 defined data computed and then discarded: collective results
///        overwritten by a bcast, a redundant bcast on replicated data
///        (either spelling, bcast or istart_bcast), or an iter zapping
///        defined non-root blocks                             (warning)
///   V207 non-associative operator in a tree-scheduled collective
///   V208 schedule falls off the packed data plane — the finding of
///        ir::packed_ineligibility, the walk packable() reads  (lint)
[[nodiscard]] Report analyze_schedule(const ir::Program& prog,
                                      const ScheduleOptions& opts = {});

/// The abstract state after every stage (result[i] = state after stage i);
/// exposed for tests and for the certificate analysis, which needs the
/// state at a rewrite's program point.  Contract violations leave the
/// state at its best-effort value and keep walking.
[[nodiscard]] std::vector<DistState> distribution_states(
    const ir::Program& prog, const ScheduleOptions& opts = {});

}  // namespace colop::verify
