// Rule matching: side conditions reject non-qualifying operators, roots and
// shapes; matches report the right window, equivalence level and notes;
// masked_by_bcast recognizes when root-only divergence is harmless.

#include <gtest/gtest.h>

#include <set>

#include "colop/ir/ir.h"
#include "colop/ir/parse.h"
#include "colop/rules/derived_ops.h"
#include "colop/rules/optimizer.h"
#include "colop/rules/rules.h"

namespace colop::rules {
namespace {

using ir::Program;

TEST(RuleCatalog, HasThePapersRulesPlusExtensions) {
  const auto rules = all_rules();
  ASSERT_EQ(rules.size(), 17u);
  std::vector<std::string> names;
  for (const auto& r : rules) names.push_back(r->name());
  const std::vector<std::string> expect = {
      "SR2-Reduction", "SR-Reduction",  "SS2-Scan",      "SS-Scan",
      "BS-Comcast",    "BSS2-Comcast",  "BSS-Comcast",   "BR-Local",
      "BSR2-Local",    "BSR-Local",     "CR-Alllocal",   "BSR2-Alllocal",
      "BSR-Alllocal",  "RB-Allreduce",  "SB-Elim",       "BB-Elim",
      "MB-Swap"};
  EXPECT_EQ(names, expect);
  for (const auto& r : rules) EXPECT_FALSE(r->description().empty());
}

TEST(RuleConditions, Sr2RequiresDistributivity) {
  Program good;
  good.scan(ir::op_mul()).reduce(ir::op_add());
  EXPECT_TRUE(rule_sr2_reduction()->match(good, 0).has_value());

  Program bad;  // + does not distribute over *
  bad.scan(ir::op_add()).reduce(ir::op_mul());
  EXPECT_FALSE(rule_sr2_reduction()->match(bad, 0).has_value());
}

TEST(RuleConditions, SrRequiresSameCommutativeOp) {
  Program good;
  good.scan(ir::op_add()).reduce(ir::op_add());
  EXPECT_TRUE(rule_sr_reduction()->match(good, 0).has_value());

  Program different_ops;
  different_ops.scan(ir::op_add()).reduce(ir::op_max());
  EXPECT_FALSE(rule_sr_reduction()->match(different_ops, 0).has_value());

  Program non_commutative;  // mat2 is associative but not commutative
  non_commutative.scan(ir::op_mat2()).reduce(ir::op_mat2());
  EXPECT_FALSE(rule_sr_reduction()->match(non_commutative, 0).has_value());
}

TEST(RuleConditions, SsScanRejectsNonCommutative) {
  Program prog;
  prog.scan(ir::op_mat2()).scan(ir::op_mat2());
  EXPECT_FALSE(rule_ss_scan()->match(prog, 0).has_value());
  // ... and mat2 does not declare self-distributivity either:
  EXPECT_FALSE(rule_ss2_scan()->match(prog, 0).has_value());
}

TEST(RuleConditions, BsComcastNeedsNoCondition) {
  Program prog;
  prog.bcast().scan(ir::op_mat2());  // non-commutative is fine
  EXPECT_TRUE(rule_bs_comcast()->match(prog, 0).has_value());
}

TEST(RuleConditions, LocalRulesRequireRootZero) {
  Program nonzero_bcast;
  nonzero_bcast.bcast(1).reduce(ir::op_add());
  EXPECT_FALSE(rule_br_local()->match(nonzero_bcast, 0).has_value());

  Program nonzero_reduce;
  nonzero_reduce.bcast().reduce(ir::op_add(), 2);
  EXPECT_FALSE(rule_br_local()->match(nonzero_reduce, 0).has_value());

  Program good;
  good.bcast().reduce(ir::op_add());
  EXPECT_TRUE(rule_br_local()->match(good, 0).has_value());
}

TEST(RuleConditions, ComcastAllowsAnyRoot) {
  Program prog;
  prog.bcast(3).scan(ir::op_add());
  auto m = rule_bs_comcast()->match(prog, 0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->equivalence, Equivalence::full);
}

TEST(RuleMatching, WindowPositionAndCount) {
  Program prog;
  prog.map(ir::fn_id()).bcast().scan(ir::op_add()).scan(ir::op_add());
  // BSS-Comcast matches the 3-stage window starting at index 1.
  auto m = rule_bss_comcast()->match(prog, 1);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->first, 1u);
  EXPECT_EQ(m->count, 3u);
  // No match at index 0 (map is not bcast).
  EXPECT_FALSE(rule_bss_comcast()->match(prog, 0).has_value());
  // Rule::matches finds it exactly once.
  EXPECT_EQ(rule_bss_comcast()->matches(prog).size(), 1u);
}

TEST(RuleMatching, EquivalenceLevels) {
  Program reduce_prog;
  reduce_prog.scan(ir::op_mul()).reduce(ir::op_add());
  EXPECT_EQ(rule_sr2_reduction()->match(reduce_prog, 0)->equivalence,
            Equivalence::root_only);

  Program allreduce_prog;
  allreduce_prog.scan(ir::op_mul()).allreduce(ir::op_add());
  EXPECT_EQ(rule_sr2_reduction()->match(allreduce_prog, 0)->equivalence,
            Equivalence::full);

  Program scan_prog;
  scan_prog.scan(ir::op_mul()).scan(ir::op_add());
  EXPECT_EQ(rule_ss2_scan()->match(scan_prog, 0)->equivalence,
            Equivalence::full);

  Program local_prog;
  local_prog.bcast().allreduce(ir::op_add());
  EXPECT_EQ(rule_cr_alllocal()->match(local_prog, 0)->equivalence,
            Equivalence::full);
}

TEST(RuleMatching, NotesNameTheOperators) {
  Program prog;
  prog.scan(ir::op_mul()).reduce(ir::op_add());
  const auto m = rule_sr2_reduction()->match(prog, 0);
  EXPECT_EQ(m->note, "x=*, +=+");
}

TEST(RuleMatching, RulesDoNotRematchTheirOwnOutput) {
  Program prog;
  prog.scan(ir::op_mul()).scan(ir::op_add());
  const Program rewritten = rule_ss2_scan()->match(prog, 0)->apply(prog);
  // The rewritten scan carries 2-word elements; no rule should touch it.
  for (const auto& rule : all_rules())
    EXPECT_TRUE(rule->matches(rewritten).empty()) << rule->name();
}

TEST(RuleMatching, ReplacementShapes) {
  Program prog;
  prog.bcast().scan(ir::op_add()).scan(ir::op_add());
  const Program out = rule_bss_comcast()->match(prog, 0)->apply(prog);
  EXPECT_EQ(out.show(), "bcast ; map#(op_comp_bss[+])");
  EXPECT_EQ(out.collective_count(), 1u);  // 3 collectives -> 1

  Program local;
  local.bcast().scan(ir::op_mul()).reduce(ir::op_add());
  const Program out2 = rule_bsr2_local()->match(local, 0)->apply(local);
  EXPECT_EQ(out2.collective_count(), 0u);  // 3 collectives -> none
}

TEST(MaskedByBcast, DetectsMaskingSuffix) {
  // scan;reduce ; map g ; bcast — the paper's Example: non-root divergence
  // after the reduce is wiped out by the bcast from the same root.
  Program prog;
  prog.scan(ir::op_mul())
      .reduce(ir::op_add())
      .map(ir::fn_id())
      .bcast();
  EXPECT_TRUE(masked_by_bcast(prog, 2, 0));

  // bcast from a DIFFERENT root does not mask.
  Program other_root;
  other_root.scan(ir::op_mul()).reduce(ir::op_add()).bcast(1);
  EXPECT_FALSE(masked_by_bcast(other_root, 2, 0));

  // A rank-dependent local stage in between is not rank-uniform.
  Program map_indexed;
  map_indexed.scan(ir::op_mul())
      .reduce(ir::op_add())
      .map_indexed({"f", [](int, const ir::Value& v) { return v; }})
      .bcast();
  EXPECT_FALSE(masked_by_bcast(map_indexed, 2, 0));

  // A following collective that reads non-root values does not mask.
  Program followed_by_scan;
  followed_by_scan.scan(ir::op_mul()).reduce(ir::op_add()).scan(ir::op_add());
  EXPECT_FALSE(masked_by_bcast(followed_by_scan, 2, 0));

  // End of program: nothing masks.
  Program ends;
  ends.scan(ir::op_mul()).reduce(ir::op_add());
  EXPECT_FALSE(masked_by_bcast(ends, 2, 0));
}

TEST(RuleMatching, MatchBeyondEndReturnsNothing) {
  Program prog;
  prog.scan(ir::op_mul()).reduce(ir::op_add());
  for (const auto& rule : all_rules()) {
    EXPECT_FALSE(rule->match(prog, 1).has_value()) << rule->name();
    EXPECT_FALSE(rule->match(prog, 2).has_value()) << rule->name();
    EXPECT_FALSE(rule->match(prog, 99).has_value()) << rule->name();
  }
}

// --- every verdict the catalog gives --------------------------------------

RulePtr rule_by_name(const std::string& name) {
  auto rules = all_rules();
  for (auto& r : overlap_rules()) rules.push_back(std::move(r));
  for (const auto& r : rules)
    if (r->name() == name) return r;
  return nullptr;
}

/// The explain-mode attempt of `rule` at `at`, as the optimizer records it.
RuleAttempt attempt_at(const RulePtr& rule, const Program& prog,
                       std::size_t at) {
  ExplainLog log;
  OptimizerOptions opts;
  opts.explain = &log;
  const Optimizer optimizer(model::Machine{}, {rule}, opts);
  (void)optimizer.admissible_matches(prog);
  for (const auto& a : log.attempts)
    if (a.position == at) return a;
  return {};
}

struct VerdictCase {
  const char* rule;
  Program prog;
  std::size_t at;
  /// "condition failed: ..." for a declined window, "" for a match.
  const char* failed;
  const char* note;  ///< the match's note (matches only)
};

Program text(const char* program) { return ir::parse_program(program); }

std::vector<VerdictCase> verdict_cases() {
  using ir::op_add;
  using ir::op_mul;
  Program sr2_widths, sr_widths, ss2_widths, ss_widths, rb_balanced_root,
      rb_balanced, mb_pair, mb_broken;
  sr2_widths.scan(op_mul()).reduce(op_add(), 0, 2);
  sr_widths.scan(op_add()).allreduce(op_add(), 2);
  ss2_widths.scan(op_mul()).scan(op_add(), 2);
  ss_widths.scan(op_add(), 2).scan(op_add());
  rb_balanced_root.reduce_balanced(make_op_sr(op_add()), 1).bcast();
  rb_balanced.reduce_balanced(make_op_sr(op_add()), 2).bcast(2);
  mb_pair.map(ir::fn_pair()).bcast(0, 2);
  mb_broken.map(ir::fn_proj1()).map(ir::fn_id()).bcast();
  const char* not_dist = "condition failed: + does not distribute over *";
  const char* roots0 = "condition failed: roots must be processor 0";
  const char* bcast0 = "condition failed: bcast root must be processor 0";
  const char* widths = "condition failed: element widths differ";
  const char* mat2 = "condition failed: mat2 is not commutative";
  return {
      // SR2-Reduction
      {"SR2-Reduction", text("scan(*) ; reduce(+)"), 0, "", "x=*, +=+"},
      {"SR2-Reduction", text("scan(*) ; allreduce(+)"), 0, "", "x=*, +=+"},
      {"SR2-Reduction", sr2_widths, 0, widths, ""},
      {"SR2-Reduction", text("scan(+) ; reduce(*)"), 0, not_dist, ""},
      {"SR2-Reduction", text("scan(+) ; allreduce(*)"), 0, not_dist, ""},
      // SR-Reduction
      {"SR-Reduction", text("scan(+) ; reduce(+,root=3)"), 0, "", "+=+"},
      {"SR-Reduction", text("scan(max) ; allreduce(max)"), 0, "", "+=max"},
      {"SR-Reduction", sr_widths, 0, widths, ""},
      {"SR-Reduction", text("scan(+) ; reduce(max)"), 0,
       "condition failed: scan and reduce operators differ", ""},
      {"SR-Reduction", text("scan(+) ; allreduce(max)"), 0,
       "condition failed: scan and reduce operators differ", ""},
      {"SR-Reduction", text("scan(mat2) ; reduce(mat2)"), 0, mat2, ""},
      // SS2-Scan
      {"SS2-Scan", text("scan(*) ; scan(+)"), 0, "", "x=*, +=+"},
      {"SS2-Scan", ss2_widths, 0, widths, ""},
      {"SS2-Scan", text("scan(+) ; scan(*)"), 0, not_dist, ""},
      // SS-Scan
      {"SS-Scan", text("scan(+) ; scan(+)"), 0, "", "+=+"},
      {"SS-Scan", ss_widths, 0, widths, ""},
      {"SS-Scan", text("scan(+) ; scan(max)"), 0,
       "condition failed: scan operators differ", ""},
      {"SS-Scan", text("scan(mat2) ; scan(mat2)"), 0, mat2, ""},
      // Comcast
      {"BS-Comcast", text("bcast(root=2) ; scan(mat2)"), 0, "", "+=mat2"},
      {"BSS2-Comcast", text("bcast ; scan(*) ; scan(+)"), 0, "", "x=*, +=+"},
      {"BSS2-Comcast", text("bcast ; scan(+) ; scan(*)"), 0, not_dist, ""},
      {"BSS-Comcast", text("bcast ; scan(max) ; scan(max)"), 0, "", "+=max"},
      {"BSS-Comcast", text("bcast ; scan(+) ; scan(max)"), 0,
       "condition failed: scan operators differ", ""},
      {"BSS-Comcast", text("bcast ; scan(mat2) ; scan(mat2)"), 0, mat2, ""},
      // Local
      {"BR-Local", text("bcast ; reduce(+)"), 0, "", "+=+"},
      {"BR-Local", text("bcast(root=1) ; reduce(+)"), 0, roots0, ""},
      {"BR-Local", text("bcast ; reduce(+,root=2)"), 0, roots0, ""},
      {"BSR2-Local", text("bcast ; scan(*) ; reduce(+)"), 0, "", "x=*, +=+"},
      {"BSR2-Local", text("bcast ; scan(*) ; reduce(+,root=1)"), 0, roots0, ""},
      {"BSR2-Local", text("bcast ; scan(+) ; reduce(*)"), 0, not_dist, ""},
      {"BSR-Local", text("bcast ; scan(+) ; reduce(+)"), 0, "", "+=+"},
      {"BSR-Local", text("bcast(root=1) ; scan(+) ; reduce(+)"), 0, roots0, ""},
      {"BSR-Local", text("bcast ; scan(+) ; reduce(max)"), 0,
       "condition failed: scan and reduce operators differ", ""},
      {"BSR-Local", text("bcast ; scan(mat2) ; reduce(mat2)"), 0, mat2, ""},
      // Alllocal
      {"CR-Alllocal", text("bcast ; allreduce(max)"), 0, "", "+=max"},
      {"CR-Alllocal", text("bcast(root=1) ; allreduce(+)"), 0, bcast0, ""},
      {"BSR2-Alllocal", text("bcast ; scan(*) ; allreduce(+)"), 0, "",
       "x=*, +=+"},
      {"BSR2-Alllocal", text("bcast(root=1) ; scan(*) ; allreduce(+)"), 0,
       bcast0, ""},
      {"BSR2-Alllocal", text("bcast ; scan(+) ; allreduce(*)"), 0, not_dist,
       ""},
      {"BSR-Alllocal", text("bcast ; scan(+) ; allreduce(+)"), 0, "", "+=+"},
      {"BSR-Alllocal", text("bcast(root=1) ; scan(+) ; allreduce(+)"), 0,
       bcast0, ""},
      {"BSR-Alllocal", text("bcast ; scan(+) ; allreduce(max)"), 0,
       "condition failed: scan and allreduce operators differ", ""},
      {"BSR-Alllocal", text("bcast ; scan(mat2) ; allreduce(mat2)"), 0, mat2,
       ""},
      // Derived combinations
      {"RB-Allreduce", text("reduce(max,root=1) ; bcast(root=1)"), 0, "",
       "+=max"},
      {"RB-Allreduce", text("reduce(+,root=1) ; bcast"), 0,
       "condition failed: reduce root differs from bcast root", ""},
      {"RB-Allreduce", rb_balanced, 0, "", "op=op_sr[+]"},
      {"RB-Allreduce", rb_balanced_root, 0,
       "condition failed: reduce root differs from bcast root", ""},
      {"SB-Elim", text("scan(*) ; bcast"), 0, "", "+=*"},
      {"SB-Elim", text("scan(+) ; bcast(root=1)"), 0, bcast0, ""},
      {"BB-Elim", text("bcast(root=1) ; bcast(root=2)"), 0, "", ""},
      {"MB-Swap", mb_pair, 0, "", "f=pair"},
      {"MB-Swap", mb_broken, 1,
       "condition failed: shape inference failed before the map", ""},
      // Split-phase
      {"Overlap-Split", text("reduce(+) ; map(id)"), 0, "", "C=reduce(+)"},
      {"Overlap-Split", text("bcast(root=1) ; map(pair)"), 0, "", "C=bcast"},
      {"Overlap-Split",
       text("istart_bcast(h=1) ; reduce(+) ; map(id) ; wait(h=1)"), 1,
       "condition failed: another nonblocking request is already in flight "
       "here",
       ""},
      {"Wait-Sink", text("istart_reduce(+,h=4) ; wait(h=4) ; map(id)"), 1, "",
       "h=4"},
  };
}

TEST(RuleVerdicts, EveryConditionAndMatchIsPinned) {
  for (const VerdictCase& c : verdict_cases()) {
    const RulePtr rule = rule_by_name(c.rule);
    ASSERT_NE(rule, nullptr) << c.rule;
    const RuleAttempt a = attempt_at(rule, c.prog, c.at);
    const std::string where = std::string(c.rule) + " on " + c.prog.show();
    EXPECT_EQ(a.rule, c.rule) << where;
    if (*c.failed != '\0') {
      EXPECT_FALSE(a.matched) << where;
      EXPECT_EQ(a.verdict, c.failed) << where;
    } else {
      EXPECT_TRUE(a.matched) << where << ": " << a.verdict;
      EXPECT_EQ(a.note, c.note) << where;
    }
  }
}

TEST(RuleVerdicts, EveryRuleHasAPinnedMatch) {
  std::set<std::string> matched;
  for (const VerdictCase& c : verdict_cases())
    if (*c.failed == '\0') matched.insert(c.rule);
  auto rules = all_rules();
  for (auto& r : overlap_rules()) rules.push_back(std::move(r));
  for (const auto& r : rules)
    EXPECT_TRUE(matched.contains(r->name())) << r->name();
}

}  // namespace
}  // namespace colop::rules
