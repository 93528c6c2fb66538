#pragma once
// The optimization rules of Section 3.
//
// A Rule pattern-matches a window of stages in a Program, checks the
// algebraic side conditions on the base operators, and produces the
// replacement stages.  Rules are pure: applying a match yields a new
// Program (Program::splice); the Optimizer (optimizer.h) decides WHICH
// matches to apply using the cost calculus.
//
// Equivalence levels: rules whose LHS ends in a plain `reduce` (or whose
// RHS is a Local computation) preserve the program's meaning only in the
// ROOT component — the paper notes this explicitly for the Local rules
// ("the first value should be broadcast additionally") and implicitly
// relies on it when applying SR2-Reduction inside Example (the subsequent
// bcast masks the non-root values).  Matches carry their level so callers
// can gate on it.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "colop/ir/program.h"

namespace colop::rules {

enum class Equivalence {
  full,      ///< every processor's value is preserved
  root_only  ///< only the root processor's value is preserved
};

struct RuleMatch {
  std::string rule_name;
  std::size_t first = 0;  ///< index of the first matched stage
  std::size_t count = 0;  ///< number of matched stages
  std::vector<ir::StagePtr> replacement;
  Equivalence equivalence = Equivalence::full;
  /// Root whose value carries the result when equivalence is root_only.
  int root = 0;
  std::string note;  ///< human-readable instantiation, e.g. "x=*, +=+"

  /// Apply this match to the program it was produced from.
  [[nodiscard]] ir::Program apply(const ir::Program& prog) const {
    return prog.splice(first, count, replacement);
  }
};

/// The algebraic law a rule relies on: Table 1's side-condition column.
/// It decides which checks certification re-runs on the matched operators
/// (every law re-checks associativity) and the side condition a
/// certificate states.
enum class Law {
  structural,   ///< no algebraic side condition
  associative,  ///< rank-indexed repetition of one operator
  commutative,  ///< the window's operators are one commutative +
  distributes,  ///< the first operator x distributes over the last +
  split_phase,  ///< request-handle legality of an overlap rewrite
};

struct RuleRow;  // one row of the rule catalog (rules.cpp)

/// One rule of the catalog: a view of its row.  The catalog is the single
/// list of rules; every row carries its name, description, law and match.
class Rule {
 public:
  explicit Rule(const RuleRow& row) : row_(&row) {}
  [[nodiscard]] std::string name() const;
  /// One-line statement of LHS -> RHS with the side condition.
  [[nodiscard]] std::string description() const;
  [[nodiscard]] Law law() const;
  /// The side condition a certificate of this rule states.
  [[nodiscard]] std::string side_condition() const;
  /// Try to match at stage index `at`; nullopt if the window does not
  /// match or a side condition fails.  When the window's shape matched
  /// but a condition failed and `why` is non-null, *why receives the
  /// failed condition (explain mode); otherwise no reason is built.
  [[nodiscard]] std::optional<RuleMatch> match(
      const ir::Program& prog, std::size_t at,
      std::string* why = nullptr) const;

  /// All matches of this rule anywhere in the program.
  [[nodiscard]] std::vector<RuleMatch> matches(const ir::Program& prog) const;

 private:
  const RuleRow* row_;
};

using RulePtr = std::shared_ptr<const Rule>;

// --- the paper's rules (Section 3) ---------------------------------------
[[nodiscard]] RulePtr rule_sr2_reduction();   ///< scan(*);[all]reduce(+) -> [all]reduce(op_sr2)
[[nodiscard]] RulePtr rule_sr_reduction();    ///< scan(+);[all]reduce(+) -> [all]reduce_balanced(op_sr)
[[nodiscard]] RulePtr rule_ss2_scan();        ///< scan(*);scan(+)        -> scan(op_sr2)
[[nodiscard]] RulePtr rule_ss_scan();         ///< scan(+);scan(+)        -> scan_balanced(op_ss)
[[nodiscard]] RulePtr rule_bs_comcast();      ///< bcast;scan(+)          -> bcast;map#(op_comp)
[[nodiscard]] RulePtr rule_bss2_comcast();    ///< bcast;scan(*);scan(+)  -> bcast;map#(op_comp)
[[nodiscard]] RulePtr rule_bss_comcast();     ///< bcast;scan(+);scan(+)  -> bcast;map#(op_comp)
[[nodiscard]] RulePtr rule_br_local();        ///< bcast;reduce(+)        -> iter(op_br)
[[nodiscard]] RulePtr rule_bsr2_local();      ///< bcast;scan(*);reduce(+)-> iter(op_bsr2)
[[nodiscard]] RulePtr rule_bsr_local();       ///< bcast;scan(+);reduce(+)-> iter(op_bsr)
[[nodiscard]] RulePtr rule_cr_alllocal();     ///< bcast;allreduce(+)     -> iter(op_br);bcast
// Extensions sanctioned by the paper's remark "if the last subject is
// allreduce ... just broadcast the value":
[[nodiscard]] RulePtr rule_bsr2_alllocal();   ///< bcast;scan(*);allreduce(+) -> iter;bcast
[[nodiscard]] RulePtr rule_bsr_alllocal();    ///< bcast;scan(+);allreduce(+) -> iter;bcast
// Further combinations from the paper's input/output-behaviour analysis
// (Section 6: "some combinations can be dismissed as not useful" — these
// three are useful and provable in the same framework):
[[nodiscard]] RulePtr rule_rb_allreduce();    ///< reduce(+);bcast         -> allreduce(+)
[[nodiscard]] RulePtr rule_sb_elim();         ///< scan(+);bcast           -> bcast
[[nodiscard]] RulePtr rule_bb_elim();         ///< bcast;bcast (same root) -> bcast
/// Enabling transformation (Section 2.1: "compositions ... can also arise
/// as a result of program transformations if some local and collective
/// stages are interchanged"): map f ; bcast  ->  bcast ; map f.  Cost-
/// neutral in the calculus unless f changes the element width (the new
/// bcast's width is computed by shape inference), but it creates seams for
/// the fusion rules; used by the exhaustive optimizer.
[[nodiscard]] RulePtr rule_mb_swap();

// --- split-phase overlap rules -------------------------------------------
// Beyond the paper's synchronous model: crack a blocking collective into an
// istart/wait pair straddling independent elementwise work, so the executor
// can hide the communication behind the map (the cost model prices the
// window as max(comm, local) instead of their sum).  Both are FULL
// equivalences under the continuation-overlap semantics (stage.h); their
// legality side conditions (no request outstanding at the seam, interior
// stages elementwise-local) are re-checked per application and then
// discharged as V30x certificates plus the V22x split-phase contracts.
[[nodiscard]] RulePtr rule_overlap_split();  ///< C ; map -> istart_C ; map ; wait
[[nodiscard]] RulePtr rule_wait_sink();      ///< wait ; map -> map ; wait

/// All rules above, in the paper's presentation order.
[[nodiscard]] std::vector<RulePtr> all_rules();

/// The split-phase overlap rules (Overlap-Split, Wait-Sink).  Kept out of
/// all_rules(): the optimizer considers them only under `colopt --overlap`,
/// but certificate replay always recognises them (all_rules() +
/// overlap_rules()).
[[nodiscard]] std::vector<RulePtr> overlap_rules();

/// The rule of that name among all_rules() and overlap_rules(); null when
/// there is none.
[[nodiscard]] RulePtr find_rule(std::string_view name);

/// True iff, in `prog`, every stage after index `after` up to (and
/// including) the first collective stage is rank-uniform and that first
/// collective is a bcast from `root` — i.e. non-root divergence introduced
/// at `after` is masked and a root_only match is actually full-strength.
[[nodiscard]] bool masked_by_bcast(const ir::Program& prog, std::size_t after,
                                   int root);

}  // namespace colop::rules
