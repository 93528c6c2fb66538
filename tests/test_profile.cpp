// The critical-path profiler: the per-rank accounting must tile the
// makespan (busy + comm + idle == makespan on EVERY rank of every traced
// schedule), the critical path must be a gap-free chain covering
// [0, makespan], stage attribution must agree with the cost calculus on
// programs with a clear bottleneck, provenance must label rewritten
// stages, and the Chrome export must be valid JSON with flow arrows.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "colop/ir/parse.h"
#include "colop/obs/json.h"
#include "colop/obs/profile.h"
#include "colop/rules/optimizer.h"

namespace colop::obs {
namespace {

const model::Machine kMach{.p = 8, .m = 64, .ts = 400, .tw = 2};

const char* kPrograms[] = {
    "bcast",
    "scan(+)",
    "reduce(+)",
    "allreduce(+)",
    "bcast ; scan(+)",
    "scan(*) ; scan(+)",
    "map(pair) ; scan(+) ; reduce(*) ; bcast",
};

TEST(Profile, BusyCommIdleTileTheMakespanOnEveryTracedSchedule) {
  using B = exec::SimSchedules::Bcast;
  using R = exec::SimSchedules::Reduce;
  for (const B b : {B::butterfly, B::binomial, B::vdg, B::pipelined})
    for (const R r : {R::butterfly, R::binomial, R::vdg})
      for (const char* text : kPrograms)
        for (const int p : {2, 5, 8, 13}) {
          model::Machine mach = kMach;
          mach.p = p;
          ProfileOptions opts;
          opts.sched = {b, r};
          const auto prof =
              profile_program(ir::parse_program(text), mach, opts);
          EXPECT_TRUE(prof.balanced())
              << text << " p=" << p << " bcast=" << static_cast<int>(b)
              << " reduce=" << static_cast<int>(r) << "\n"
              << prof.render_text();
          EXPECT_TRUE(prof.path_complete())
              << text << " p=" << p << "\n" << prof.render_text();
        }
}

TEST(Profile, RankBreakdownSumsExactly) {
  const auto prof = profile_program(
      ir::parse_program("bcast ; scan(+) ; reduce(*)"), kMach);
  ASSERT_EQ(prof.ranks.size(), 8u);
  for (const auto& r : prof.ranks)
    EXPECT_NEAR(r.busy + r.comm + r.idle, prof.makespan,
                1e-9 * prof.makespan);
}

TEST(Profile, CriticalPathCoversZeroToMakespan) {
  const auto prof =
      profile_program(ir::parse_program("scan(*) ; scan(+)"), kMach);
  ASSERT_FALSE(prof.critical_path.empty());
  EXPECT_NEAR(prof.critical_path.front().start, 0, 1e-9);
  EXPECT_NEAR(prof.critical_path.back().end, prof.makespan,
              1e-9 * prof.makespan);
  double covered = 0;
  for (const auto& seg : prof.critical_path) covered += seg.duration();
  EXPECT_NEAR(covered, prof.makespan, 1e-9 * prof.makespan);
}

TEST(Profile, BottleneckAgreesWithTheCostModel) {
  // Programs whose stage costs differ sharply: the profiler's measured
  // bottleneck and the calculus' predicted one must be the same stage.
  for (const char* text :
       {"bcast ; scan(+)", "map(pair) ; scan(+)", "scan(+) ; reduce(*) ; bcast"}) {
    const auto prof = profile_program(ir::parse_program(text), kMach);
    const auto* measured = prof.bottleneck();
    const auto* predicted = prof.model_bottleneck();
    ASSERT_NE(measured, nullptr) << text;
    ASSERT_NE(predicted, nullptr) << text;
    EXPECT_EQ(measured->index, predicted->index)
        << text << "\n" << prof.render_text();
  }
}

TEST(Profile, EmptyProgramProfilesCleanly) {
  const auto prof = profile_program(ir::Program{}, kMach);
  EXPECT_EQ(prof.makespan, 0);
  EXPECT_TRUE(prof.balanced());
  EXPECT_TRUE(prof.path_complete());
  EXPECT_EQ(prof.bottleneck(), nullptr);
}

TEST(Profile, CriticalPathStepsOverZeroLengthOps) {
  // `first` costs 0 ops per element, so its combine steps are zero-length
  // compute events; the backward walk must pass them and still reach 0.
  for (const char* text :
       {"scan(first)", "reduce(first) ; bcast", "scan(first) ; scan(+)",
        "allreduce(+) ; scan(first)"})
    for (const int p : {2, 5, 8}) {
      const model::Machine mach{.p = p, .m = 4, .ts = 400, .tw = 2};
      const auto prof = profile_program(ir::parse_program(text), mach);
      EXPECT_TRUE(prof.balanced()) << text << " p=" << p;
      EXPECT_TRUE(prof.path_complete())
          << text << " p=" << p << "\n" << prof.render_text();
      EXPECT_EQ(prof.makespan,
                exec::run_on_simnet(ir::parse_program(text), mach).time)
          << text << " p=" << p;
    }
}

TEST(Provenance, ReplaysTheDerivationSplices) {
  // SS2-Scan on a high-startup machine: scan(*) ; scan(+) becomes
  // map(pair) ; scan(op_sr2) ; map(pi1), all three produced by the rule.
  const auto prog = ir::parse_program("scan(*) ; scan(+)");
  const rules::Optimizer opt(kMach);
  const auto result = opt.optimize(prog);
  ASSERT_FALSE(result.log.empty());
  const auto prov = rules::stage_provenance(prog.size(), result.log);
  ASSERT_EQ(prov.size(), result.program.size());
  for (const auto& rule : prov) EXPECT_EQ(rule, "SS2-Scan");
}

TEST(Provenance, SourceStagesKeepEmptyProvenance) {
  const auto prov = rules::stage_provenance(3, {});
  ASSERT_EQ(prov.size(), 3u);
  for (const auto& rule : prov) EXPECT_TRUE(rule.empty());
}

TEST(Provenance, UntouchedStagesSurviveAroundARewrite) {
  std::vector<rules::AppliedRule> log(1);
  log[0].rule = "R";
  log[0].position = 1;
  log[0].count = 2;
  log[0].replaced_by = 3;
  const auto prov = rules::stage_provenance(4, log);
  ASSERT_EQ(prov.size(), 5u);
  EXPECT_EQ(prov[0], "");
  EXPECT_EQ(prov[1], "R");
  EXPECT_EQ(prov[2], "R");
  EXPECT_EQ(prov[3], "R");
  EXPECT_EQ(prov[4], "");
}

TEST(Profile, ProvenanceLabelsReachTheStageTable) {
  const auto prog = ir::parse_program("scan(*) ; scan(+)");
  const rules::Optimizer opt(kMach);
  const auto result = opt.optimize(prog);
  ProfileOptions popts;
  popts.provenance = rules::stage_provenance(prog.size(), result.log);
  const auto prof = profile_program(result.program, kMach, popts);
  ASSERT_FALSE(prof.stages.empty());
  for (const auto& sp : prof.stages) EXPECT_EQ(sp.rule, "SS2-Scan");
  // The optimized scan carries (nearly) all of the critical path.
  EXPECT_EQ(prof.bottleneck()->label, "scan(op_sr2[*,+])");
}

TEST(Profile, ChromeTraceIsValidJsonWithNamedRanksAndFlows) {
  const auto prof =
      profile_program(ir::parse_program("bcast ; scan(+)"), kMach);
  std::ostringstream os;
  prof.write_chrome_trace(os);
  const auto doc = json::parse(os.str());
  const auto* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_rank0 = false, saw_flow_start = false, saw_flow_end = false;
  for (const auto& ev : events->items) {
    const auto* ph = ev->get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "s") saw_flow_start = true;
    if (ph->str == "f") saw_flow_end = true;
    if (ph->str == "M") {
      if (const auto* args = ev->get("args"))
        if (const auto* name = args->get("name"))
          saw_rank0 |= name->str == "rank 0";
    }
  }
  EXPECT_TRUE(saw_rank0);
  EXPECT_TRUE(saw_flow_start);
  EXPECT_TRUE(saw_flow_end);
}

TEST(Profile, JsonExportParsesAndCarriesInvariants) {
  const auto prof =
      profile_program(ir::parse_program("scan(+) ; bcast"), kMach);
  std::ostringstream os;
  prof.write_json(os);
  const auto doc = json::parse(os.str());
  ASSERT_NE(doc.get("balanced"), nullptr);
  EXPECT_TRUE(doc.get("balanced")->b);
  EXPECT_TRUE(doc.get("path_complete")->b);
  EXPECT_EQ(doc.get("ranks")->items.size(), 8u);
  EXPECT_EQ(doc.get("stages")->items.size(), 2u);
}

}  // namespace
}  // namespace colop::obs
