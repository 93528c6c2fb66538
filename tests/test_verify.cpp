// colop::verify: the algebraic property checker catches every class of
// mis-declaration (and stays quiet on the honest registry), the schedule
// analyzer enforces distribution-state contracts with provenance, and the
// certificate replay discharges all seventeen rules' obligations while
// rejecting forged derivations.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>

#include "colop/ir/ir.h"
#include "colop/ir/parse.h"
#include "colop/model/machine.h"
#include "colop/rules/derived_ops.h"
#include "colop/rules/optimizer.h"
#include "colop/rules/rules.h"
#include "colop/verify/verify.h"

namespace colop::verify {
namespace {

using ir::BinOp;
using ir::BinOpPtr;
using ir::Program;
using ir::Value;

std::size_t count_code(const Report& r, const std::string& code) {
  return static_cast<std::size_t>(
      std::count_if(r.diagnostics().begin(), r.diagnostics().end(),
                    [&](const Diagnostic& d) { return d.code == code; }));
}

bool has_code(const Report& r, const std::string& code) {
  return count_code(r, code) > 0;
}

/// Fast checker options for the negative tests (counterexamples are found
/// in the exhaustive sweep; random tails only need to not take forever).
PropertyCheckOptions fast() {
  PropertyCheckOptions o;
  o.random_trials = 50;
  return o;
}

Value sub(const Value& a, const Value& b) {
  return Value(a.as_int() - b.as_int());
}

// --- analysis 1: algebraic property checker ------------------------------

TEST(PropertyChecker, StandardRegistryIsCleanIncludingLints) {
  PropertyCheckOptions opts;
  opts.lint_undeclared = true;  // a lint here = a fusion the registry misses
  const Report r = check_registry(opts);
  EXPECT_TRUE(r.empty()) << r.render_text();
}

TEST(PropertyChecker, CatchesFakeAssociativity) {
  const auto op = BinOp::make({.name = "sub", .fn = sub,
                               .associative = true, .commutative = false});
  const Report r = check_binop(op, {}, fast());
  EXPECT_TRUE(has_code(r, "V101")) << r.render_text();
  EXPECT_FALSE(r.ok());
}

TEST(PropertyChecker, CatchesFakeCommutativity) {
  const auto op = BinOp::make({.name = "sub", .fn = sub,
                               .associative = false, .commutative = true});
  const Report r = check_binop(op, {}, fast());
  EXPECT_TRUE(has_code(r, "V102")) << r.render_text();
  EXPECT_FALSE(r.ok());
}

TEST(PropertyChecker, CatchesFakeDistributivity) {
  // max is associative and commutative but does NOT distribute over +.
  const auto op = BinOp::make(
      {.name = "fakemax",
       .fn = [](const Value& a, const Value& b) {
         return Value(std::max(a.as_int(), b.as_int()));
       },
       .associative = true,
       .commutative = true,
       .distributes_over = {"+"}});
  const Report r = check_binop(op, {ir::op_add()}, fast());
  EXPECT_TRUE(has_code(r, "V103")) << r.render_text();
}

TEST(PropertyChecker, CatchesWrongUnit) {
  const auto op = BinOp::make(
      {.name = "addish",
       .fn = [](const Value& a, const Value& b) {
         return Value(a.as_int() + b.as_int());
       },
       .associative = true,
       .commutative = true,
       // the unit of + is 0, not 1
       .unit = std::optional<Value>(std::in_place, std::int64_t{1})});
  const Report r = check_binop(op, {}, fast());
  EXPECT_TRUE(has_code(r, "V104")) << r.render_text();
}

TEST(PropertyChecker, CatchesBrokenPackedKernel) {
  // Boxed fn computes max, the attached packed kernel computes +.
  const auto op = BinOp::make(
      {.name = "maxish",
       .fn = [](const Value& a, const Value& b) {
         return Value(std::max(a.as_int(), b.as_int()));
       },
       .associative = true,
       .commutative = true,
       .packed_fn = ir::op_add()->packed()});
  const Report r = check_binop(op, {}, fast());
  EXPECT_TRUE(has_code(r, "V105")) << r.render_text();
}

TEST(PropertyChecker, UnresolvablePartnerIsAWarningNotASilentPass) {
  const auto op = BinOp::make(
      {.name = "addish",
       .fn = [](const Value& a, const Value& b) {
         return Value(a.as_int() + b.as_int());
       },
       .associative = true,
       .commutative = true,
       .distributes_over = {"no-such-op"}});
  const Report r = check_binop(op, {}, fast());
  EXPECT_TRUE(has_code(r, "V106")) << r.render_text();
  EXPECT_TRUE(r.ok());  // warning, not error
}

TEST(PropertyChecker, UnknownCarrierDegradesToWarning) {
  // An operator over some carrier the verifier has no domain for must not
  // be blamed with bogus counterexamples — V107, properties unchecked.
  const auto op = BinOp::make(
      {.name = "weird",
       .fn = [](const Value& a, const Value& b) {
         return Value(a.as_tuple()[0].as_int() + b.as_tuple()[0].as_int());
       },
       .associative = true});
  const Report r = check_binop(op, {}, fast());
  EXPECT_TRUE(has_code(r, "V107")) << r.render_text();
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(has_code(r, "V101"));
}

TEST(PropertyChecker, LintsUndeclaredProperties) {
  PropertyCheckOptions opts = fast();
  opts.lint_undeclared = true;
  // + with nothing declared: associativity (V110), commutativity (V111)
  // and distributivity over max (V112) all hold but are invisible to the
  // optimizer.
  const auto op = BinOp::make(
      {.name = "quietadd",
       .fn = [](const Value& a, const Value& b) {
         return Value(a.as_int() + b.as_int());
       },
       .associative = false,
       .commutative = false});
  const Report r = check_binop(op, {ir::op_max()}, opts);
  EXPECT_TRUE(has_code(r, "V110")) << r.render_text();
  EXPECT_TRUE(has_code(r, "V111")) << r.render_text();
  EXPECT_TRUE(has_code(r, "V112")) << r.render_text();
  EXPECT_TRUE(r.ok());  // lints never fail the build

  opts.lint_undeclared = false;
  EXPECT_TRUE(check_binop(op, {ir::op_max()}, opts).empty());
}

TEST(PropertyChecker, DerivedPairOperatorGetsAPairDomain) {
  // op_sr2[f*,f+] consumes (s, r) pairs; the checker must probe it on
  // 2-tuples (and confirm the associativity SR2-Reduction relies on).
  const auto op = rules::make_op_sr2(ir::op_fmul(), ir::op_fadd());
  const ValueDomain dom = domain_for(*op);
  EXPECT_EQ(dom.name, "pair<real>");
  bool saw_tuple = false;
  for (const auto& v : dom.small) saw_tuple |= v.is_tuple();
  EXPECT_TRUE(saw_tuple);
  const Report r = check_binop(op, {}, fast());
  EXPECT_TRUE(r.ok()) << r.render_text();
  EXPECT_FALSE(has_code(r, "V107"));  // it IS checkable

  const auto int_op = rules::make_op_sr2(ir::op_mul(), ir::op_add());
  EXPECT_TRUE(check_binop(int_op, {}, fast()).ok());
}

// --- satellite: registry declarations pinned by regression -----------------

TEST(Registry, EveryOperatorDistributesOverFirst) {
  for (const auto& op : standard_registry())
    EXPECT_TRUE(op->distributes_over(*ir::op_first())) << op->name();
}

TEST(Registry, FirstDistributesExactlyOverIdempotents) {
  const auto first = ir::op_first();
  for (const char* name : {"max", "min", "band", "bor", "gcd", "first"}) {
    bool declared = false;
    for (const auto& op : standard_registry())
      if (op->name() == name) declared = first->distributes_over(*op);
    EXPECT_TRUE(declared) << name;
  }
  EXPECT_FALSE(first->distributes_over(*ir::op_add()));
  // ... and the checker agrees: first over + has a counterexample.
  const auto joint = joint_domain(*first, *ir::op_add());
  ASSERT_TRUE(joint.has_value());
  EXPECT_TRUE(
      find_distrib_counterexample(*first, *ir::op_add(), *joint, fast())
          .has_value());
}

TEST(Registry, CrossDomainTwinsDeclareDistributivity) {
  EXPECT_TRUE(ir::op_mul()->distributes_over(*ir::op_fadd()));
  EXPECT_TRUE(ir::op_fmul()->distributes_over(*ir::op_add()));
  EXPECT_TRUE(ir::op_add()->distributes_over(*ir::op_max()));
  EXPECT_TRUE(ir::op_fadd()->distributes_over(*ir::op_min()));
}

TEST(Registry, MulDistributesOverGcdOnTheNaturals) {
  EXPECT_TRUE(ir::op_mul()->distributes_over(*ir::op_gcd()));
  const auto joint = joint_domain(*ir::op_mul(), *ir::op_gcd());
  ASSERT_TRUE(joint.has_value());
  EXPECT_EQ(joint->name, "nonneg");
  EXPECT_FALSE(
      find_distrib_counterexample(*ir::op_mul(), *ir::op_gcd(), *joint, fast())
          .has_value());
}

TEST(Registry, GcdCanonicalizesNegativeOperands) {
  // The declarations above lean on gcd's canonical nonneg carrier: its
  // unit law `gcd(0, x) == x` only holds after canonicalization.
  EXPECT_EQ((*ir::op_gcd())(Value(std::int64_t{0}), Value(std::int64_t{-3})),
            Value(std::int64_t{3}));
}

// --- analysis 2: static schedule analyzer --------------------------------

TEST(ScheduleAnalyzer, CleanPipelineHasNoFindings) {
  Program prog;
  prog.scan(ir::op_mul()).reduce(ir::op_add()).bcast();
  ScheduleOptions opts;
  opts.lints = false;
  const Report r = analyze_schedule(prog, opts);
  EXPECT_TRUE(r.empty()) << r.render_text();
}

TEST(ScheduleAnalyzer, ScanAfterReduceConsumesUndefinedBlocks) {
  Program prog;
  prog.reduce(ir::op_add()).scan(ir::op_add());
  const Report r = analyze_schedule(prog);
  EXPECT_TRUE(has_code(r, "V201")) << r.render_text();
  EXPECT_EQ(r.exit_code(), 3);
}

TEST(ScheduleAnalyzer, BcastRootedWhereDataIsUndefined) {
  Program prog;  // reduce leaves the value on rank 2; bcast reads rank 0
  prog.reduce(ir::op_add(), 2).bcast(0);
  const Report r = analyze_schedule(prog);
  EXPECT_TRUE(has_code(r, "V202")) << r.render_text();
}

TEST(ScheduleAnalyzer, RootOutOfRange) {
  Program prog;
  prog.reduce(ir::op_add(), 99);
  ScheduleOptions opts;
  opts.p = 8;
  const Report r = analyze_schedule(prog, opts);
  EXPECT_TRUE(has_code(r, "V203")) << r.render_text();
}

TEST(ScheduleAnalyzer, IterNeedsPowerOfTwoWithoutGeneralFold) {
  Program prog;
  prog.iter(ir::fn_id());
  ScheduleOptions opts;
  opts.p = 6;
  EXPECT_TRUE(has_code(analyze_schedule(prog, opts), "V204"));
  opts.p = 8;
  EXPECT_FALSE(has_code(analyze_schedule(prog, opts), "V204"));
}

TEST(ScheduleAnalyzer, ShapeInconsistencyIsReported) {
  Program prog;  // scalar input into a words=3 scan
  prog.scan(ir::op_add(), 3);
  const Report r = analyze_schedule(prog);
  EXPECT_TRUE(has_code(r, "V205")) << r.render_text();
}

TEST(ScheduleAnalyzer, RedundantBcastOnReplicatedData) {
  Program prog;
  prog.bcast().bcast();
  const Report r = analyze_schedule(prog);
  EXPECT_TRUE(has_code(r, "V206")) << r.render_text();
  EXPECT_TRUE(r.ok());  // legal, just wasteful: warning
}

TEST(ScheduleAnalyzer, NonAssociativeOperatorInACollective) {
  const auto op = BinOp::make({.name = "sub", .fn = sub,
                               .associative = false});
  Program prog;
  prog.scan(op);
  const Report r = analyze_schedule(prog);
  EXPECT_TRUE(has_code(r, "V207")) << r.render_text();
  EXPECT_FALSE(r.ok());
}

TEST(ScheduleAnalyzer, PackedIneligibilityIsALint) {
  const auto boxed_only = BinOp::make(
      {.name = "slowmax",
       .fn = [](const Value& a, const Value& b) {
         return Value(std::max(a.as_int(), b.as_int()));
       },
       .associative = true,
       .commutative = true});  // no packed_fn
  Program prog;
  prog.scan(boxed_only);
  ScheduleOptions opts;
  opts.lints = true;
  const Report with = analyze_schedule(prog, opts);
  EXPECT_TRUE(has_code(with, "V208")) << with.render_text();
  EXPECT_TRUE(with.ok());
  opts.lints = false;
  EXPECT_FALSE(has_code(analyze_schedule(prog, opts), "V208"));
}

TEST(ScheduleAnalyzer, TracksDistributionStates) {
  Program prog;
  prog.scan(ir::op_add()).reduce(ir::op_add()).bcast();
  const auto states = distribution_states(prog);
  ASSERT_EQ(states.size(), 3u);
  EXPECT_EQ(states[0], DistState::varied());
  EXPECT_EQ(states[1], DistState::root_only(0));
  EXPECT_EQ(states[2], DistState::uniform());
}

TEST(ScheduleAnalyzer, DiagnosticsCarryRuleProvenance) {
  Program prog;
  prog.reduce(ir::op_add()).scan(ir::op_add());
  ScheduleOptions opts;
  opts.provenance = {"", "X-Rule"};  // stage 1 was produced by "X-Rule"
  const Report r = analyze_schedule(prog, opts);
  ASSERT_TRUE(has_code(r, "V201"));
  for (const auto& d : r.diagnostics()) {
    if (d.code != "V201") continue;
    EXPECT_EQ(d.provenance, "X-Rule");
    EXPECT_NE(d.render().find("[from X-Rule]"), std::string::npos)
        << d.render();
  }
}

// --- analysis 3: rewrite soundness certificates --------------------------

rules::RulePtr rule_named(const std::string& name) {
  for (const auto& r : rules::all_rules())
    if (r->name() == name) return r;
  for (const auto& r : rules::overlap_rules())
    if (r->name() == name) return r;
  return nullptr;
}

/// Build the one-step derivation log of `rule` matching `prog` and certify
/// it; the obligations of every honest rule must discharge.
void expect_discharges(const std::string& rule_name, const Program& prog) {
  const auto rule = rule_named(rule_name);
  ASSERT_NE(rule, nullptr) << rule_name;
  const auto ms = rule->matches(prog);
  ASSERT_FALSE(ms.empty()) << rule_name << " does not match " << prog.show();
  rules::AppliedRule ar;
  ar.rule = rule_name;
  ar.position = ms[0].first;
  ar.count = ms[0].count;
  ar.replaced_by = ms[0].replacement.size();
  ar.note = ms[0].note;
  const auto certs = certify_derivation(prog, {ar});
  EXPECT_TRUE(certs.ok()) << rule_name << ":\n"
                          << certs.report.render_text();
  ASSERT_EQ(certs.certificates.size(), 1u);
  EXPECT_TRUE(certs.certificates[0].discharged) << certs.render_text();
  EXPECT_FALSE(certs.certificates[0].side_condition.empty());
}

TEST(Certificates, AllSeventeenRulesDischarge) {
  const auto add = ir::op_add();
  const auto mul = ir::op_mul();
  using Build = std::function<void(Program&)>;
  const std::vector<std::pair<std::string, Build>> table = {
      {"SR2-Reduction", [&](Program& p) { p.scan(mul).reduce(add); }},
      {"SR-Reduction", [&](Program& p) { p.scan(add).reduce(add); }},
      {"SS2-Scan", [&](Program& p) { p.scan(mul).scan(add); }},
      {"SS-Scan", [&](Program& p) { p.scan(add).scan(add); }},
      {"BS-Comcast", [&](Program& p) { p.bcast().scan(add); }},
      {"BSS2-Comcast", [&](Program& p) { p.bcast().scan(mul).scan(add); }},
      {"BSS-Comcast", [&](Program& p) { p.bcast().scan(add).scan(add); }},
      {"BR-Local", [&](Program& p) { p.bcast().reduce(add); }},
      {"BSR2-Local", [&](Program& p) { p.bcast().scan(mul).reduce(add); }},
      {"BSR-Local", [&](Program& p) { p.bcast().scan(add).reduce(add); }},
      {"CR-Alllocal", [&](Program& p) { p.bcast().allreduce(add); }},
      {"BSR2-Alllocal",
       [&](Program& p) { p.bcast().scan(mul).allreduce(add); }},
      {"BSR-Alllocal",
       [&](Program& p) { p.bcast().scan(add).allreduce(add); }},
      {"RB-Allreduce", [&](Program& p) { p.reduce(add).bcast(); }},
      {"SB-Elim", [&](Program& p) { p.scan(add).bcast(); }},
      {"BB-Elim", [&](Program& p) { p.bcast().bcast(); }},
      {"MB-Swap", [&](Program& p) { p.map(ir::fn_id()).bcast(); }},
  };
  ASSERT_EQ(table.size(), rules::all_rules().size());
  for (const auto& [name, build] : table) {
    Program prog;
    build(prog);
    expect_discharges(name, prog);
  }
}

TEST(Certificates, FakeCommutativityIsCaught) {
  // Associative but non-commutative, falsely declared commutative: the
  // SR-Reduction guard is satisfied by the LIE, so the rule matches — the
  // certificate must re-establish the property and fail it.
  const auto left = BinOp::make(
      {.name = "left",
       .fn = [](const Value& a, const Value&) { return a; },
       .associative = true,
       .commutative = true});
  Program prog;
  prog.scan(left).reduce(left);
  const auto rule = rule_named("SR-Reduction");
  ASSERT_NE(rule, nullptr);
  const auto ms = rule->matches(prog);
  ASSERT_FALSE(ms.empty());  // the optimizer trusts declarations...
  rules::AppliedRule ar;
  ar.rule = "SR-Reduction";
  ar.position = ms[0].first;
  ar.count = ms[0].count;
  ar.replaced_by = ms[0].replacement.size();
  const auto certs = certify_derivation(prog, {ar});
  EXPECT_FALSE(certs.ok());  // ...the verifier does not
  EXPECT_TRUE(has_code(certs.report, "V301")) << certs.report.render_text();
  ASSERT_EQ(certs.certificates.size(), 1u);
  EXPECT_FALSE(certs.certificates[0].discharged);
}

TEST(Certificates, FakeDistributivityIsCaught) {
  const auto fakemax = BinOp::make(
      {.name = "fakemax",
       .fn = [](const Value& a, const Value& b) {
         return Value(std::max(a.as_int(), b.as_int()));
       },
       .associative = true,
       .commutative = true,
       .distributes_over = {"+"}});
  Program prog;
  prog.scan(fakemax).reduce(ir::op_add());
  const auto rule = rule_named("SR2-Reduction");
  ASSERT_NE(rule, nullptr);
  const auto ms = rule->matches(prog);
  ASSERT_FALSE(ms.empty());
  rules::AppliedRule ar;
  ar.rule = "SR2-Reduction";
  ar.position = ms[0].first;
  ar.count = ms[0].count;
  ar.replaced_by = ms[0].replacement.size();
  const auto certs = certify_derivation(prog, {ar});
  EXPECT_FALSE(certs.ok());
  EXPECT_TRUE(has_code(certs.report, "V301")) << certs.report.render_text();
}

/// The one-step derivation log of the first match of `rule_name` in `prog`.
rules::AppliedRule first_match_step(const std::string& rule_name,
                                    const Program& prog) {
  const auto ms = rule_named(rule_name)->matches(prog);
  EXPECT_FALSE(ms.empty()) << rule_name << " does not match " << prog.show();
  rules::AppliedRule ar;
  ar.rule = rule_name;
  ar.position = ms.at(0).first;
  ar.count = ms.at(0).count;
  ar.replaced_by = ms.at(0).replacement.size();
  ar.note = ms.at(0).note;
  return ar;
}

std::string equivalence_line(const Certificate& cert) {
  for (const auto& o : cert.obligations)
    if (o.rfind("equivalence:", 0) == 0) return o;
  return {};
}

TEST(Certificates, RootedRewriteIsCheckedAboveItsRoot) {
  // No group of p <= 3 ranks has a rank 3, so the differential check of a
  // rewrite involving reduce(+,root=3) runs at p = 4..9 — evidence, not a
  // V304 "invalid root" under a discharged certificate.
  Program prog;
  prog.scan(ir::op_add()).reduce(ir::op_add(), 3);
  const auto certs =
      certify_derivation(prog, {first_match_step("SR-Reduction", prog)});
  EXPECT_TRUE(certs.ok()) << certs.report.render_text();
  EXPECT_FALSE(has_code(certs.report, "V304")) << certs.report.render_text();
  ASSERT_EQ(certs.certificates.size(), 1u);
  EXPECT_EQ(equivalence_line(certs.certificates[0]).rfind("equivalence: ok (p=4..9, ", 0), 0u)
      << certs.render_text();
}

TEST(Certificates, RootBeyondMaxPIsNotEvaluable) {
  // root = 9 leaves no p in 10..9 to check: the obligation stays V304.
  Program prog;
  prog.scan(ir::op_add()).reduce(ir::op_add(), 9);
  const auto certs =
      certify_derivation(prog, {first_match_step("SR-Reduction", prog)});
  EXPECT_TRUE(has_code(certs.report, "V304")) << certs.report.render_text();
  ASSERT_EQ(certs.certificates.size(), 1u);
  EXPECT_EQ(equivalence_line(certs.certificates[0])
                .rfind("equivalence: NOT EVALUABLE", 0),
            0u)
      << certs.render_text();
}

/// The equivalence obligation of the one-step derivation of `rule_name`
/// at its first match in `prog`, after checking it discharged cleanly.
std::string discharged_equivalence(const std::string& rule_name,
                                   const Program& prog) {
  const auto certs =
      certify_derivation(prog, {first_match_step(rule_name, prog)});
  EXPECT_TRUE(certs.ok()) << certs.report.render_text();
  EXPECT_FALSE(has_code(certs.report, "V304")) << certs.report.render_text();
  EXPECT_EQ(certs.certificates.size(), 1u);
  if (certs.certificates.empty()) return {};
  EXPECT_TRUE(certs.certificates[0].discharged) << certs.render_text();
  return equivalence_line(certs.certificates[0]);
}

TEST(Certificates, MisdeclaredAssociativityIsCaughtOnTheWindow) {
  // RB-Allreduce at position 1 matches on the (false) declaration; the
  // window check alone must still refute it: the side condition (V301)
  // and the tree-scheduled evaluation of reduce(minus) ; bcast (V302).
  const auto minus = BinOp::make(
      {.name = "minus", .fn = sub, .associative = true});
  Program prog;
  prog.scan(ir::op_add()).reduce(minus).bcast().scan(ir::op_add());
  const auto step = first_match_step("RB-Allreduce", prog);
  ASSERT_EQ(step.position, 1u);
  const auto certs = certify_derivation(prog, {step});
  EXPECT_FALSE(certs.ok());
  EXPECT_TRUE(has_code(certs.report, "V301")) << certs.report.render_text();
  EXPECT_TRUE(has_code(certs.report, "V302")) << certs.report.render_text();
  ASSERT_EQ(certs.certificates.size(), 1u);
  EXPECT_FALSE(certs.certificates[0].discharged);
  const std::string eq = equivalence_line(certs.certificates[0]);
  EXPECT_EQ(eq.rfind("equivalence: FAILED", 0), 0u) << certs.render_text();
  EXPECT_NE(eq.find("lhs = reduce(minus) ; bcast\n"), std::string::npos)
      << eq;
}

TEST(Certificates, FullMatchIsDischargedOnItsWindow) {
  Program prog;
  prog.scan(ir::op_add()).reduce(ir::op_add()).bcast().scan(ir::op_add());
  const std::string eq = discharged_equivalence("RB-Allreduce", prog);
  EXPECT_EQ(eq.rfind("equivalence: ok (p=1..9, ", 0), 0u) << eq;
  EXPECT_TRUE(eq.ends_with(" int[-9,9] inputs, window)")) << eq;
}

TEST(Certificates, FallbacksAreDischargedOnTheProgram) {
  const std::vector<std::pair<std::string, std::string>> table = {
      // root_only: what follows decides whether the non-root blocks matter.
      {"SR-Reduction", "scan(+) ; reduce(+) ; bcast"},
      // The request wait(h=1) completes is issued outside the window.
      {"Wait-Sink", "istart_allreduce(+,h=1) ; wait(h=1) ; map(id)"},
      // The window reads the pairs map(pair) makes; scalar inputs miss them.
      {"BB-Elim", "map(pair) ; bcast ; bcast"},
  };
  for (const auto& [rule, text] : table) {
    const std::string eq =
        discharged_equivalence(rule, ir::parse_program(text));
    EXPECT_TRUE(eq.ends_with(", program)")) << rule << ": " << eq;
  }
}

TEST(Certificates, IStartOperatorPicksTheGenerator) {
  // The program's only mat2 sits in an istart: its inputs must still be
  // 4-tuples, not integers that mat2 rejects (V304 "not a tuple").
  const Program prog =
      ir::parse_program("istart_allreduce(mat2,h=1) ; wait(h=1) ; map(pair)");
  const std::string eq = discharged_equivalence("Wait-Sink", prog);
  EXPECT_TRUE(eq.ends_with(" mat2[-2,2] inputs, program)")) << eq;
}

TEST(Certificates, ForgedDerivationFailsReplay) {
  Program prog;
  prog.scan(ir::op_mul()).reduce(ir::op_add());
  rules::AppliedRule ar;
  ar.rule = "SR2-Reduction";
  ar.position = 5;  // no such window
  ar.count = 2;
  ar.replaced_by = 1;
  const auto certs = certify_derivation(prog, {ar});
  EXPECT_FALSE(certs.ok());
  EXPECT_TRUE(has_code(certs.report, "V303")) << certs.report.render_text();

  rules::AppliedRule unknown;
  unknown.rule = "No-Such-Rule";
  const auto certs2 = certify_derivation(prog, {unknown});
  EXPECT_TRUE(has_code(certs2.report, "V303"));
}

TEST(Certificates, SideConditionTableNamesTheGuards) {
  const std::string distributes =
      "x distributes over + (all operators associative)";
  const std::string commutative = "+ commutative (and associative)";
  const std::string associative =
      "+ associative (rank-indexed repetition of one operator)";
  const std::string structural = "structural (no algebraic side condition)";
  const std::vector<std::pair<std::string, std::string>> expect = {
      {"SR2-Reduction", distributes},
      {"SR-Reduction", commutative},
      {"SS2-Scan", distributes},
      {"SS-Scan", commutative},
      {"BS-Comcast", associative},
      {"BSS2-Comcast", distributes},
      {"BSS-Comcast", commutative},
      {"BR-Local", associative},
      {"BSR2-Local", distributes},
      {"BSR-Local", commutative},
      {"CR-Alllocal", associative},
      {"BSR2-Alllocal", distributes},
      {"BSR-Alllocal", commutative},
      {"RB-Allreduce", structural},
      {"SB-Elim", structural},
      {"BB-Elim", structural},
      {"MB-Swap", structural},
      {"Overlap-Split",
       "no request in flight at the seam; interior elementwise-local "
       "(V22x split-phase contracts hold)"},
      {"Wait-Sink",
       "sunk-past stage is elementwise-local and does not need the "
       "request's completion"},
      {"No-Such-Rule", "associativity of the collective operators"},
  };
  for (const auto& [rule, condition] : expect)
    EXPECT_EQ(side_condition_of(rule), condition) << rule;
  // Every catalog rule is in the table above.
  auto catalog = rules::all_rules();
  for (auto& r : rules::overlap_rules()) catalog.push_back(std::move(r));
  EXPECT_EQ(catalog.size() + 1, expect.size());
}

// --- umbrella: verify_program --------------------------------------------

TEST(VerifyProgram, OptimizedDerivationComesBackCertified) {
  Program prog;
  prog.scan(ir::op_mul()).reduce(ir::op_add()).bcast();
  model::Machine machine;
  machine.p = 8;
  const rules::Optimizer optimizer(machine);
  const auto opt = optimizer.optimize(prog);
  ASSERT_FALSE(opt.log.empty());
  const auto res = verify_program(prog, &opt, {});
  EXPECT_TRUE(res.ok()) << res.render_text(true);
  EXPECT_EQ(res.exit_code(), 0);
  EXPECT_EQ(res.certificates.certificates.size(), opt.log.size());
  for (const auto& c : res.certificates.certificates)
    EXPECT_TRUE(c.discharged) << c.rule;
}

TEST(VerifyProgram, UnsoundScheduleExitsThree) {
  Program prog;
  prog.reduce(ir::op_add()).scan(ir::op_add());
  const auto res = verify_program(prog, nullptr, {});
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.exit_code(), 3);
  EXPECT_TRUE(has_code(res.report, "V201"));
  EXPECT_NE(res.render_text(false).find("UNSOUND"), std::string::npos);
}

}  // namespace
}  // namespace colop::verify
