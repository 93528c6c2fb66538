// Split-phase collectives end to end: parse/show round-trips, the overlap
// window planner, the V22x nonblocking-contract analysis (PARCOACH's bug
// classes over straight-line SPMD programs), the Overlap-Split/Wait-Sink
// rewrite rules with their certificates, max(comm, local) window pricing in
// the cost model and simnet, and a differential fuzz pass showing the
// threaded executor computes bit-identical results for blocking and
// split-phase spellings of every Table-1 shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "colop/exec/sim_executor.h"
#include "colop/exec/thread_executor.h"
#include "colop/ir/ir.h"
#include "colop/ir/overlap.h"
#include "colop/ir/parse.h"
#include "colop/model/cost.h"
#include "colop/obs/drift.h"
#include "colop/obs/profile.h"
#include "colop/rules/optimizer.h"
#include "colop/rules/rules.h"
#include "colop/support/rng.h"
#include "colop/verify/splitphase.h"
#include "colop/verify/verify.h"

namespace colop {
namespace {

using ir::Dist;
using ir::Program;
using ir::Value;

std::size_t count_code(const verify::Report& r, const std::string& code) {
  return static_cast<std::size_t>(std::count_if(
      r.diagnostics().begin(), r.diagnostics().end(),
      [&](const verify::Diagnostic& d) { return d.code == code; }));
}

bool has_code(const verify::Report& r, const std::string& code) {
  return count_code(r, code) > 0;
}

/// An elementwise function with real local work, so overlap windows have
/// something to hide under the collective.
ir::ElemFn fn_heavy(double ops = 50.0) {
  return {"id", [](const Value& v) { return v; }, ops, nullptr, {}};
}

Dist random_dist(int p, std::size_t block, std::uint64_t seed) {
  Rng rng(seed);
  Dist d(static_cast<std::size_t>(p));
  for (auto& b : d) {
    b.reserve(block);
    for (std::size_t j = 0; j < block; ++j) b.emplace_back(rng.uniform(-50, 50));
  }
  return d;
}

// --- syntax --------------------------------------------------------------

TEST(SplitPhaseSyntax, ParseShowRoundTrips) {
  for (const char* text : {
           "istart_reduce(+,h=1) ; map(pair) ; wait(h=1)",
           "istart_reduce(+,root=2,h=3) ; wait(h=3)",
           "istart_allreduce(max,h=1) ; map(triple) ; wait(h=1)",
           "istart_bcast(root=1,h=2) ; wait(h=2)",
           "istart_bcast ; wait",
           "istart_allreduce(*) ; map(pair) ; map(pi1) ; wait",
       }) {
    EXPECT_EQ(ir::parse_program(text).show(), text);
  }
}

TEST(SplitPhaseSyntax, EvalReferenceMatchesBlockingTwin) {
  Program split;
  split.istart_allreduce(ir::op_add(), 1, 1).map(ir::fn_pair()).wait(1);
  Program blocking;
  blocking.allreduce(ir::op_add()).map(ir::fn_pair());
  const Dist in = ir::dist_of_ints({3, 1, 4, 1, 5});
  EXPECT_EQ(split.eval_reference(in), blocking.eval_reference(in));
}

// --- window planner ------------------------------------------------------

TEST(OverlapWindows, FindsIstartMapWaitSpans) {
  Program p;
  p.istart_bcast(0, 1, 1).map(ir::fn_pair()).map(ir::fn_proj1()).wait(1);
  const auto w = ir::overlap_windows(p);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].istart, 0u);
  EXPECT_EQ(w[0].wait, 3u);
  EXPECT_TRUE(ir::in_overlap_window(w, 0));
  EXPECT_TRUE(ir::in_overlap_window(w, 2));
  EXPECT_TRUE(ir::in_overlap_window(w, 3));
}

TEST(OverlapWindows, NonLocalInteriorBreaksTheWindow) {
  // A scan between istart and wait is not elementwise-local: the window is
  // ineligible (the executor falls back to the blocking twin; the verifier
  // separately flags the scan as a V222 hazard).
  Program p;
  p.istart_reduce(ir::op_add(), 0, 1, 1).scan(ir::op_add()).wait(1);
  EXPECT_TRUE(ir::overlap_windows(p).empty());
  EXPECT_FALSE(ir::in_overlap_window(ir::overlap_windows(p), 0));
}

TEST(OverlapWindows, HandlesMustMatch) {
  Program p;
  p.istart_reduce(ir::op_add(), 0, 1, 1).map(ir::fn_pair()).wait(2);
  EXPECT_TRUE(ir::overlap_windows(p).empty());
}

// --- the V22x contract analysis ------------------------------------------

TEST(SplitPhaseVerifier, WellFormedWindowIsClean) {
  Program p;
  p.istart_allreduce(ir::op_add(), 1, 1).map(ir::fn_pair()).wait(1);
  const auto r = verify::analyze_splitphase(p);
  EXPECT_TRUE(r.empty()) << r.render_text();
}

TEST(SplitPhaseVerifier, BlockingProgramsAreUntouched) {
  Program p;
  p.scan(ir::op_mul()).reduce(ir::op_add()).bcast();
  EXPECT_TRUE(verify::analyze_splitphase(p).empty());
}

TEST(SplitPhaseVerifier, V220UnmatchedIstart) {
  Program p;
  p.istart_reduce(ir::op_add(), 0, 1, 1).map(ir::fn_pair());
  const auto r = verify::analyze_splitphase(p);
  EXPECT_EQ(count_code(r, "V220"), 1u) << r.render_text();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.exit_code(), 3);
}

TEST(SplitPhaseVerifier, V221WaitWithoutIstart) {
  Program lone_wait;
  lone_wait.wait();
  EXPECT_EQ(count_code(verify::analyze_splitphase(lone_wait), "V221"), 1u);

  Program double_wait;
  double_wait.istart_bcast(0, 1, 1).wait(1).wait(1);
  const auto r = verify::analyze_splitphase(double_wait);
  EXPECT_EQ(count_code(r, "V221"), 1u) << r.render_text();
}

TEST(SplitPhaseVerifier, V222BlockingCollectiveInsideWindow) {
  Program p;
  p.istart_allreduce(ir::op_add(), 1, 1).allreduce(ir::op_add()).wait(1);
  const auto r = verify::analyze_splitphase(p);
  EXPECT_EQ(count_code(r, "V222"), 1u) << r.render_text();
  EXPECT_EQ(r.exit_code(), 3);
}

TEST(SplitPhaseVerifier, V222HandleReuseWhileInFlight) {
  Program p;
  p.istart_bcast(0, 1, 1).istart_bcast(0, 1, 1);
  const auto r = verify::analyze_splitphase(p);
  EXPECT_TRUE(has_code(r, "V222")) << r.render_text();
}

TEST(SplitPhaseVerifier, V223OutOfOrderCompletion) {
  // Two DISJOINT requests in flight is legal; completing the younger one
  // first is the rank-divergence hazard.
  Program p;
  p.istart_reduce(ir::op_add(), 0, 1, 1)
      .istart_bcast(0, 1, 2)
      .wait(2)
      .wait(1);
  const auto r = verify::analyze_splitphase(p);
  EXPECT_EQ(count_code(r, "V223"), 1u) << r.render_text();
  EXPECT_FALSE(has_code(r, "V222"));
  EXPECT_FALSE(has_code(r, "V220"));

  Program in_order;  // same two requests completed in issue order: clean
  in_order.istart_reduce(ir::op_add(), 0, 1, 1)
      .istart_bcast(0, 1, 2)
      .wait(1)
      .wait(2);
  EXPECT_TRUE(verify::analyze_splitphase(in_order).empty());
}

TEST(SplitPhaseVerifier, AnalyzeScheduleRunsThePass) {
  Program p;
  p.istart_reduce(ir::op_add(), 0, 1, 1).map(ir::fn_pair());
  const auto r = verify::analyze_schedule(p);
  EXPECT_TRUE(has_code(r, "V220")) << r.render_text();
  EXPECT_EQ(r.exit_code(), 3);
}

// The distribution-state walker checks an istart against its blocking
// twin's contracts and words each finding with the istart spelling.

/// The only diagnostic with `code` in `r`; fails the test otherwise.
verify::Diagnostic only_diag(const verify::Report& r, const std::string& code) {
  EXPECT_EQ(count_code(r, code), 1u) << r.render_text();
  for (const auto& d : r.diagnostics())
    if (d.code == code) return d;
  return {};
}

bool contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

TEST(SplitPhaseVerifier, V201IstartAllreduceOnRootOnlyData) {
  const auto r = verify::analyze_schedule(
      ir::parse_program("reduce(+) ; istart_allreduce(+,h=1) ; wait(h=1)"));
  const auto d = only_diag(r, "V201");
  EXPECT_EQ(d.stage, 1u);
  EXPECT_EQ(d.stage_show, "istart_allreduce(+,h=1)");
  EXPECT_TRUE(contains(d.message, "istart_allreduce combines the blocks of all 8 ranks"))
      << d.message;
  EXPECT_EQ(r.exit_code(), 3);
}

TEST(SplitPhaseVerifier, V202IstartBcastRootedWhereNothingLives) {
  const auto r = verify::analyze_schedule(
      ir::parse_program("reduce(+,root=2) ; istart_bcast(h=1) ; wait(h=1)"));
  const auto d = only_diag(r, "V202");
  EXPECT_EQ(d.stage, 1u);
  EXPECT_EQ(d.stage_show, "istart_bcast(h=1)");
  EXPECT_TRUE(contains(d.message, "istart_bcast roots at rank 0")) << d.message;
  EXPECT_TRUE(contains(d.hint, "root the istart_bcast at 2")) << d.hint;
}

TEST(SplitPhaseVerifier, V203IstartRootOutOfRange) {
  for (const char* text : {"istart_reduce(+,root=8,h=1) ; wait(h=1)",
                           "istart_bcast(root=9,h=1) ; wait(h=1)"}) {
    const auto r = verify::analyze_schedule(ir::parse_program(text));
    const auto d = only_diag(r, "V203");
    EXPECT_EQ(d.stage, 0u) << text;
    EXPECT_TRUE(contains(d.stage_show, "istart_")) << d.stage_show;
    EXPECT_TRUE(contains(d.message, "is out of range for p = 8")) << d.message;
  }
}

TEST(SplitPhaseVerifier, V207IstartWithNonAssociativeOperator) {
  const auto sub = ir::BinOp::make(
      {.name = "sub",
       .fn = [](const Value& a, const Value& b) {
         return Value(a.as_int() - b.as_int());
       },
       .associative = false});
  Program reduce;
  reduce.map(ir::fn_id()).istart_reduce(sub, 0, 1, 1).wait(1);
  Program allreduce;
  allreduce.map(ir::fn_id()).istart_allreduce(sub, 1, 1).wait(1);
  for (const Program* p : {&reduce, &allreduce}) {
    const auto r = verify::analyze_schedule(*p);
    const auto d = only_diag(r, "V207");
    EXPECT_EQ(d.stage, 1u);
    EXPECT_EQ(d.stage_show, p->stage(1).show());
    EXPECT_TRUE(contains(d.stage_show, "istart_")) << d.stage_show;
    EXPECT_TRUE(contains(d.message, "operator `sub` is not declared associative"))
        << d.message;
  }
}

TEST(SplitPhaseVerifier, V206RedundantIstartBcast) {
  const auto blocking =
      verify::analyze_schedule(ir::parse_program("allreduce(+) ; bcast"));
  const auto b = only_diag(blocking, "V206");
  EXPECT_EQ(b.stage, 1u);

  const auto r = verify::analyze_schedule(
      ir::parse_program("allreduce(+) ; istart_bcast(h=1) ; wait(h=1)"));
  const auto d = only_diag(r, "V206");
  EXPECT_EQ(d.severity, verify::Severity::warning);
  EXPECT_EQ(d.stage, 1u);
  EXPECT_EQ(d.stage_show, "istart_bcast(h=1)");
  EXPECT_TRUE(contains(d.message, "redundant istart_bcast")) << d.message;
  EXPECT_TRUE(contains(d.hint, "wait(h=1)")) << d.hint;
  EXPECT_TRUE(r.ok());
}

TEST(SplitPhaseVerifier, V206IstartBcastDiscardsCollectiveResults) {
  const auto r = verify::analyze_schedule(
      ir::parse_program("scan(+) ; istart_bcast(h=1) ; wait(h=1)"));
  const auto d = only_diag(r, "V206");
  EXPECT_EQ(d.stage, 1u);
  EXPECT_TRUE(contains(d.message, "scan(+)")) << d.message;
  EXPECT_TRUE(contains(d.message, "istart_bcast")) << d.message;
}

// --- the overlap rules ---------------------------------------------------

TEST(OverlapRules, CatalogHasTheTwoRulesOutsideAllRules) {
  const auto extra = rules::overlap_rules();
  ASSERT_EQ(extra.size(), 2u);
  EXPECT_EQ(extra[0]->name(), "Overlap-Split");
  EXPECT_EQ(extra[1]->name(), "Wait-Sink");
  for (const auto& r : rules::all_rules())
    EXPECT_NE(r->name(), "Overlap-Split");
}

TEST(OverlapRules, SplitRewritesCollectiveMapToWindow) {
  Program p;
  p.reduce(ir::op_add()).map(ir::fn_pair());
  const auto m = rules::rule_overlap_split()->match(p, 0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->equivalence, rules::Equivalence::full);
  EXPECT_EQ(m->apply(p).show(),
            "istart_reduce(+,h=1) ; map(pair) ; wait(h=1)");
}

TEST(OverlapRules, SplitRejectsWhenARequestIsInFlight) {
  Program p;
  p.istart_allreduce(ir::op_add(), 1, 1)
      .allreduce(ir::op_add())
      .map(ir::fn_pair());
  EXPECT_FALSE(rules::rule_overlap_split()->match(p, 1).has_value());

  Program no_map;  // nothing to overlap with
  no_map.reduce(ir::op_add()).scan(ir::op_add());
  EXPECT_FALSE(rules::rule_overlap_split()->match(no_map, 0).has_value());
}

TEST(OverlapRules, WaitSinkPushesTheWaitPastLocalWork) {
  Program p;
  p.istart_bcast(0, 1, 1).wait(1).map(ir::fn_pair());
  const auto m = rules::rule_wait_sink()->match(p, 1);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->apply(p).show(),
            "istart_bcast(h=1) ; map(pair) ; wait(h=1)");
}

TEST(OverlapRules, SplitPhaseSpellingsEvaluateIdentically) {
  // The rules are full equivalences: applying them never changes the
  // reference denotation.
  Program p;
  p.allreduce(ir::op_max()).map(ir::fn_triple());
  const auto m = rules::rule_overlap_split()->match(p, 0);
  ASSERT_TRUE(m.has_value());
  const Dist in = ir::dist_of_ints({7, -2, 9, 4});
  EXPECT_EQ(m->apply(p).eval_reference(in), p.eval_reference(in));
}

TEST(OverlapRules, GreedyOptimizerBuildsACertifiedWindow) {
  // Latency-bound machine: BS-Comcast turns bcast;scan into bcast;map#,
  // then Overlap-Split hides the map# under the bcast.  The derivation's
  // certificates (including the overlap rule's) must discharge.
  const model::Machine mach{.p = 8, .m = 256, .ts = 5000, .tw = 2};
  Program p;
  p.bcast().scan(ir::op_add());
  auto catalog = rules::all_rules();
  for (auto& r : rules::overlap_rules()) catalog.push_back(std::move(r));
  const rules::Optimizer opt(mach, catalog);
  const auto result = opt.optimize(p);
  const bool split_applied =
      std::any_of(result.log.begin(), result.log.end(),
                  [](const auto& s) { return s.rule == "Overlap-Split"; });
  ASSERT_TRUE(split_applied) << result.program.show();
  EXPECT_FALSE(ir::overlap_windows(result.program).empty());

  verify::VerifyOptions vopts;
  vopts.p = mach.p;
  const auto vres = verify::verify_program(p, &result, vopts);
  EXPECT_TRUE(vres.ok()) << vres.render_text(true);
  EXPECT_EQ(vres.exit_code(), 0);
}

// --- cost model and simnet pricing ---------------------------------------

TEST(OverlapCost, ProgramTimePricesWindowsAsMaxCommLocal) {
  const model::Machine mach{.p = 8, .m = 100, .ts = 1000, .tw = 2};
  Program split;
  split.istart_allreduce(ir::op_add(), 1, 1).map(fn_heavy(50)).wait(1);
  Program blocking;
  blocking.allreduce(ir::op_add()).map(fn_heavy(50));

  const double comm = model::stage_cost(*blocking.stages()[0]).eval(mach);
  const double local = model::stage_cost(*blocking.stages()[1]).eval(mach);
  EXPECT_DOUBLE_EQ(model::program_time(split, mach), std::max(comm, local));
  EXPECT_DOUBLE_EQ(model::program_time(blocking, mach), comm + local);
  EXPECT_LT(model::program_time(split, mach),
            model::program_time(blocking, mach));
  // The symbolic per-stage sum stays conservative (istart = its twin).
  EXPECT_DOUBLE_EQ(model::program_cost(split).eval(mach), comm + local);
}

TEST(OverlapCost, IneligibleSplitPhasePricesAsBlocking) {
  const model::Machine mach{.p = 8, .m = 100, .ts = 1000, .tw = 2};
  Program p;  // scan interior: no window, no discount
  p.istart_reduce(ir::op_add(), 0, 1, 1).scan(ir::op_add()).wait(1);
  Program twin;
  twin.reduce(ir::op_add()).scan(ir::op_add());
  EXPECT_DOUBLE_EQ(model::program_time(p, mach),
                   model::program_time(twin, mach));
}

TEST(OverlapSimnet, WindowShortensTheMakespan) {
  const model::Machine mach{.p = 8, .m = 200, .ts = 2000, .tw = 2};
  Program split;
  split.istart_allreduce(ir::op_add(), 1, 1).map(fn_heavy(40)).wait(1);
  Program blocking;
  blocking.allreduce(ir::op_add()).map(fn_heavy(40));
  const auto s = exec::run_on_simnet(split, mach);
  const auto b = exec::run_on_simnet(blocking, mach);
  EXPECT_LT(s.time, b.time);
  EXPECT_EQ(s.messages, b.messages);  // same traffic, only the clocks move
  EXPECT_EQ(s.words, b.words);
}

// Every consumer prices, counts, simulates and shapes an istart exactly
// like its blocking twin; only an overlap window's interior moves clocks.
TEST(SplitPhaseTwins, EveryIstartSpellingEqualsItsBlockingTwin) {
  const std::pair<const char*, const char*> twins[] = {
      {"reduce(+)", "istart_reduce(+,h=1)"},
      {"reduce(+,root=3)", "istart_reduce(+,root=3,h=1)"},
      {"allreduce(+)", "istart_allreduce(+,h=1)"},
      {"bcast", "istart_bcast(h=1)"},
      {"bcast(root=3)", "istart_bcast(root=3,h=1)"},
  };
  const ir::Shape pair = ir::Shape::replicate(ir::Shape::scalar(), 2);
  for (const auto& [blocking_text, istart_text] : twins) {
    const Program blocking = ir::parse_program(blocking_text);
    const Program split =
        ir::parse_program(std::string(istart_text) + " ; wait(h=1)");
    SCOPED_TRACE(split.show());
    ASSERT_EQ(split.stage(0).show(), istart_text);

    const model::Cost bc = model::stage_cost(blocking.stage(0));
    const model::Cost sc = model::stage_cost(split.stage(0));
    EXPECT_EQ(sc.logp_ts, bc.logp_ts);
    EXPECT_EQ(sc.logp_mtw, bc.logp_mtw);
    EXPECT_EQ(sc.logp_m, bc.logp_m);
    EXPECT_EQ(model::stage_cost(split.stage(1)).eval({}), 0.0);

    EXPECT_EQ(ir::infer_shapes(split)[0], ir::infer_shapes(blocking)[0]);
    // A pair element transmits 2 words but the stage declares 1: both
    // spellings reject it.
    EXPECT_TRUE(ir::check_shapes(blocking, pair).has_value());
    EXPECT_TRUE(ir::check_shapes(split, pair).has_value());

    for (const int p : {1, 2, 3, 4, 5, 6, 7, 8, 9, 64}) {
      const model::Machine mach{.p = p, .m = 48, .ts = 300, .tw = 3};
      const auto tb = obs::predicted_traffic(blocking, mach);
      const auto ts = obs::predicted_traffic(split, mach);
      EXPECT_EQ(ts.messages, tb.messages) << "p=" << p;
      EXPECT_EQ(ts.words, tb.words) << "p=" << p;
      const auto rb = exec::run_on_simnet(blocking, mach);
      const auto rs = exec::run_on_simnet(split, mach);
      EXPECT_EQ(rs.time, rb.time) << "p=" << p;
      EXPECT_EQ(rs.messages, rb.messages) << "p=" << p;
      EXPECT_EQ(rs.words, rb.words) << "p=" << p;
    }
  }
}

// --- profiler: overlapped spans ------------------------------------------

TEST(OverlapProfile, LabelsOverlappedSpansAndReportsTheGap) {
  const model::Machine mach{.p = 4, .m = 100, .ts = 1500, .tw = 2};
  Program split;
  split.istart_allreduce(ir::op_add(), 1, 1).map(fn_heavy(30)).wait(1);
  const auto prof = obs::profile_program(split, mach);
  ASSERT_EQ(prof.stages.size(), 3u);
  for (const auto& sp : prof.stages) EXPECT_TRUE(sp.overlapped) << sp.label;
  EXPECT_GT(prof.blocking_makespan, prof.makespan);
  EXPECT_TRUE(prof.balanced());
  EXPECT_TRUE(prof.path_complete());
  EXPECT_NE(prof.render_text().find("[overlapped]"), std::string::npos);
  EXPECT_NE(prof.render_text().find("hidden by istart..wait"),
            std::string::npos);

  Program blocking;  // no windows: the gap line stays off
  blocking.allreduce(ir::op_add()).map(fn_heavy(30));
  const auto base = obs::profile_program(blocking, mach);
  EXPECT_EQ(base.blocking_makespan, 0.0);
  for (const auto& sp : base.stages) EXPECT_FALSE(sp.overlapped);
}

TEST(OverlapProfile, UnhiddenLocalWorkIsBusyTimeOfTheIstartStage) {
  // Two butterfly rounds (2 x 2400 comm + 2 x 200 combine = 5200) under
  // 40 x 200 = 8000 of local work: the window ends at 8000 on every rank,
  // and the 2800 the allreduce does not hide is local work, not idle time.
  const model::Machine mach{.p = 4, .m = 200, .ts = 2000, .tw = 2};
  Program split;
  split.istart_allreduce(ir::op_add(), 1, 1).map(fn_heavy(40)).wait(1);
  const auto prof = obs::profile_program(split, mach);
  EXPECT_EQ(prof.makespan, 8000.0);
  EXPECT_EQ(prof.makespan, exec::run_on_simnet(split, mach).time);
  ASSERT_EQ(prof.ranks.size(), 4u);
  for (const auto& r : prof.ranks) {
    EXPECT_EQ(r.busy, 3200.0) << "rank " << r.rank;
    EXPECT_EQ(r.comm, 4800.0) << "rank " << r.rank;
    EXPECT_EQ(r.idle, 0.0) << "rank " << r.rank;
  }
  EXPECT_TRUE(prof.balanced());
  EXPECT_TRUE(prof.path_complete());
  ASSERT_EQ(prof.stages.size(), 3u);
  EXPECT_EQ(prof.stages[0].busy, 4 * 3200.0);
  EXPECT_EQ(prof.stages[0].critical, 8000.0);
  EXPECT_EQ(prof.stages[1].busy, 0.0);
  EXPECT_EQ(prof.stages[2].busy, 0.0);
  ASSERT_FALSE(prof.critical_path.empty());
  EXPECT_EQ(prof.critical_path.back().kind, "compute");
  EXPECT_EQ(prof.critical_path.back().start, 5200.0);
}

// --- threaded execution: differential fuzz -------------------------------

struct Spelling {
  const char* name;
  Program blocking;
  Program split;
  int min_p = 1;  ///< rooted spellings need the root in range
};

std::vector<Spelling> table1_spellings() {
  std::vector<Spelling> out;
  {
    Spelling s{.name = "reduce"};
    s.blocking.reduce(ir::op_add()).map(ir::fn_pair());
    s.split.istart_reduce(ir::op_add(), 0, 1, 1).map(ir::fn_pair()).wait(1);
    out.push_back(std::move(s));
  }
  {
    Spelling s{.name = "allreduce"};
    s.blocking.allreduce(ir::op_max()).map(ir::fn_triple());
    s.split.istart_allreduce(ir::op_max(), 1, 1).map(ir::fn_triple()).wait(1);
    out.push_back(std::move(s));
  }
  {
    Spelling s{.name = "bcast"};
    s.blocking.bcast().map(ir::fn_pair()).map(ir::fn_proj1());
    s.split.istart_bcast(0, 1, 1)
        .map(ir::fn_pair())
        .map(ir::fn_proj1())
        .wait(1);
    out.push_back(std::move(s));
  }
  {
    Spelling s{.name = "two-windows", .min_p = 2};
    s.blocking.allreduce(ir::op_add())
        .map(ir::fn_pair())
        .map(ir::fn_proj1())
        .bcast(1)
        .map(ir::fn_id());
    s.split.istart_allreduce(ir::op_add(), 1, 1)
        .map(ir::fn_pair())
        .map(ir::fn_proj1())
        .wait(1)
        .istart_bcast(1, 1, 2)
        .map(ir::fn_id())
        .wait(2);
    out.push_back(std::move(s));
  }
  {
    Spelling s{.name = "rooted-reduce", .min_p = 3};
    s.blocking.reduce(ir::op_add(), 2).map(ir::fn_pair()).bcast(2);
    s.split.istart_reduce(ir::op_add(), 2, 1, 7)
        .map(ir::fn_pair())
        .wait(7)
        .bcast(2);
    out.push_back(std::move(s));
  }
  return out;
}

// The split-phase program on the packed plane against the boxed one, at
// several pipeline depths: it runs packed, and output, message count and
// byte count match the boxed run and `want`.
void expect_packed_window_matches_boxed(const Program& split, const Dist& in,
                                        const Dist& want) {
  for (const int segs : {1, 3, 7, 64}) {
    SCOPED_TRACE("segments=" + std::to_string(segs));
    const auto boxed = exec::run_on_threads_instrumented(
        split, in, ir::DataPlane::Boxed, mpsim::Ranks::threads, segs);
    const auto packed = exec::run_on_threads_instrumented(
        split, in, ir::DataPlane::Packed, mpsim::Ranks::threads, segs);
    EXPECT_TRUE(packed.used_packed);
    EXPECT_EQ(boxed.output, want);
    EXPECT_EQ(packed.output, boxed.output);
    EXPECT_EQ(packed.traffic.messages, boxed.traffic.messages);
    EXPECT_EQ(packed.traffic.bytes, boxed.traffic.bytes);
  }
}

TEST(SplitPhaseThreads, BlockingAndSplitPhaseAgreeOnEveryShape) {
  std::uint64_t seed = 1;
  for (const auto& s : table1_spellings()) {
    for (int p = s.min_p; p <= 8; ++p) {
      const Dist in = random_dist(p, 2, seed++);
      const Dist want = s.blocking.eval_reference(in);
      EXPECT_EQ(exec::run_on_threads(s.blocking, in), want)
          << s.name << " blocking, p=" << p;
      EXPECT_EQ(exec::run_on_threads(s.split, in), want)
          << s.name << " split, p=" << p;
      SCOPED_TRACE(std::string(s.name) + " split, p=" + std::to_string(p));
      expect_packed_window_matches_boxed(s.split, in, want);
    }
  }
}

TEST(SplitPhaseThreads, SegmentCountDoesNotChangeResults) {
  Program split;
  split.istart_allreduce(ir::op_add(), 1, 1).map(ir::fn_pair()).wait(1);
  Program blocking;
  blocking.allreduce(ir::op_add()).map(ir::fn_pair());
  const Dist in = random_dist(6, 5, 42);
  const Dist want = blocking.eval_reference(in);
  for (const int segs : {1, 3, 7, 64}) {
    EXPECT_EQ(exec::run_on_threads(split, in, ir::DataPlane::Auto,
                                   mpsim::Ranks::threads, segs),
              want)
        << "segments=" << segs;
  }
  expect_packed_window_matches_boxed(split, in, want);
}

}  // namespace
}  // namespace colop
