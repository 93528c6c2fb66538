#pragma once
// Rewrite soundness certificates (colop::verify analysis 3).
//
// Every rule application the optimizer records (rules::AppliedRule) is a
// claim: "at position k, LHS may be replaced by RHS because the side
// condition holds".  This analysis replays the derivation and turns each
// claim into a discharged proof obligation:
//
//   1. re-derivability — the named rule still matches at the recorded
//      position and produces a replacement of the recorded size (V303);
//   2. side condition — the algebraic property the rule's guard consumed
//      (⊗ distributes over ⊕; ⊕ commutative; associativity always) is
//      re-established by the property CHECKER on the concrete matched
//      operators, not taken from their declarations (V301);
//   3. extensional equivalence — LHS ≡ RHS on small instances,
//      differentially evaluated through eval_reference for p = r+1..max_p,
//      r the largest root either side names (0 for unrooted programs),
//      under the match's own equivalence level (rules::selfcheck_match),
//      with a tolerance for floating-point operators (V302).
//      Scope: a rule is an equality between compositions of stages and `;`
//      composes functions on distributed lists, so a `full` equivalence
//      that holds on the matched window holds inside any prefix and
//      suffix.  The obligation is therefore discharged on the window alone
//      (LHS = the matched stages, RHS = the replacement, inputs drawn from
//      the window's own operators), and memoised per certify call by
//      (rule, LHS text, RHS text, generator).  It falls back to the whole
//      intermediate program for `root_only` matches (what a later stage
//      does with the non-root blocks matters), for a window whose input
//      shape is not scalar, for a window (or replacement) holding an
//      istart whose wait lies outside it or a wait whose istart does, and
//      for a window that throws when evaluated alone.  The obligation line
//      names its scope: "equivalence: ok (p=…, window)" / "…, program)".
//
// A derivation whose every obligation is discharged comes with a
// certificate chain; any failure is reported with the rule name and
// program point as provenance.  Obligations that cannot be evaluated
// (no generator covers the program's value domain) degrade to a warning
// (V304), never to silent success.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "colop/ir/program.h"
#include "colop/rules/optimizer.h"
#include "colop/rules/search.h"
#include "colop/verify/diagnostics.h"

namespace colop::verify {

struct CertifyOptions {
  /// Differential evaluation: processor counts r+1..max_p (r the largest
  /// root named, 0 if none), `trials_per_p` random inputs each, `block`
  /// elements per rank.
  int max_p = 9;
  int trials_per_p = 2;
  std::size_t block = 2;
  std::uint64_t seed = 0xce47ULL;
  /// Property re-check effort (random trials on top of the
  /// bounded-exhaustive sweep).
  int property_trials = 100;
};

/// One discharged (or failed) proof obligation chain for one rule
/// application.
struct Certificate {
  std::string rule;
  std::size_t position = 0;
  std::string note;            ///< the match's instantiation note
  std::string side_condition;  ///< what the rule's guard consumed, rendered
  bool discharged = false;     ///< all obligations held
  /// One line per obligation: "side condition: ok (+ distributes over max,
  /// 216 exhaustive + 100 random probes)" / "equivalence: ok (p=1..9, …,
  /// window)" ...
  std::vector<std::string> obligations;
};

struct DerivationCertificates {
  std::vector<Certificate> certificates;
  Report report;

  [[nodiscard]] bool ok() const { return report.ok(); }
  [[nodiscard]] std::string render_text() const;
  void write_json(std::ostream& os) const;
};

/// The BinOps a run of stages carries (Stage::binop), in stage order; an
/// istart carries the operator of its blocking twin.  Bcast, map, balanced
/// and wait stages carry none.
[[nodiscard]] std::vector<ir::BinOpPtr> stage_ops(
    std::span<const ir::StagePtr> stages);

/// The side condition a named rule consumes, read from its catalog row
/// (rules::Rule::side_condition; docs/RULES.md lists the full table).
/// Unknown rules map to "associativity of the collective operators".
[[nodiscard]] std::string side_condition_of(const std::string& rule_name);

/// Replay `log` (an optimizer derivation starting from `source`) and
/// discharge every obligation.  A V303 replay failure aborts the replay at
/// that step — later applications cannot be certified against an unknown
/// intermediate program.
[[nodiscard]] DerivationCertificates certify_derivation(
    const ir::Program& source, const std::vector<rules::AppliedRule>& log,
    const CertifyOptions& opts = {});

/// Batch discharge for several candidate derivations from one source —
/// the ranked schedules of a cost-guided search overlap heavily, both in
/// shared path prefixes and in rule-order permutations that pass through
/// the same intermediate program.  Per-step obligation chains are cached
/// by (intermediate program, rule application) identity, so each shared
/// step is discharged exactly once across the whole batch; beneath that,
/// window equivalence verdicts are shared by every step whose window and
/// replacement read the same.
struct SequenceCertification {
  std::vector<DerivationCertificates> paths;  ///< certificates, input order
  std::size_t discharged_steps = 0;  ///< obligation chains actually replayed
  std::size_t reused_steps = 0;      ///< served from the shared-step cache

  [[nodiscard]] bool all_ok() const {
    for (const auto& p : paths)
      if (!p.ok()) return false;
    return true;
  }
};

[[nodiscard]] SequenceCertification certify_sequences(
    const ir::Program& source,
    const std::vector<std::vector<rules::AppliedRule>>& paths,
    const CertifyOptions& opts = {});

/// The search soundness gate: every winning sequence is re-discharged
/// before being returned (search can be aggressive because soundness is
/// checked, not assumed).  Certifies every ranked schedule of `result`
/// (batched, shared steps discharged once), stamps each entry's
/// `certified` flag, and installs the cheapest CERTIFIED schedule as the
/// winner.  When even the top-K holds no certified schedule, the source
/// program itself — whose empty derivation is trivially sound — is
/// appended as the winner, so the returned schedule is always certified.
struct CertifiedSearch {
  rules::SearchResult search;           ///< winner = cheapest certified
  SequenceCertification certification;  ///< per original ranked entry
  /// A cheaper-ranked schedule failed its certificates and was skipped.
  bool demoted = false;
  /// No searched schedule certified; the winner is the unrewritten source.
  bool fell_back_to_source = false;

  /// Certificates of the winning schedule; null for the source fallback.
  [[nodiscard]] const DerivationCertificates* winner_certificates() const {
    return search.winner_index < certification.paths.size()
               ? &certification.paths[search.winner_index]
               : nullptr;
  }
};

[[nodiscard]] CertifiedSearch certify_search(const ir::Program& source,
                                             rules::SearchResult result,
                                             const CertifyOptions& opts = {});

}  // namespace colop::verify
