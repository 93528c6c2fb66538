// The model-vs-measured drift report: closed forms (15)-(17) must agree
// with the simnet discrete-event measurement at every power of two, the
// predicted traffic (counting twins of the schedules) must match the
// simulated message/word totals at EVERY p, and the JSON export parses.

#include <gtest/gtest.h>

#include <sstream>

#include "colop/apps/polyeval.h"
#include "colop/ir/parse.h"
#include "colop/obs/drift.h"
#include "colop/obs/json.h"

namespace colop::obs {
namespace {

const model::Machine kMach{.p = 64, .m = 64, .ts = 400, .tw = 2};

TEST(Drift, ModelAgreesWithSimnetAtPowersOfTwo) {
  for (const char* text :
       {"bcast", "scan(+)", "reduce(+)", "allreduce(+)",
        "bcast ; scan(*) ; reduce(+)", "reduce(+) ; bcast"}) {
    const auto prog = ir::parse_program(text);
    const auto rep = drift_report(prog, kMach);
    EXPECT_EQ(rep.rows.size(), 6u) << text;  // p in {2,4,...,64}
    EXPECT_TRUE(rep.all_ok()) << text << "\n" << rep.render_text();
  }
}

TEST(Drift, PolyEvalDerivationStaysWithinToleranceAtPowersOfTwo) {
  std::vector<double> as(64);
  for (std::size_t i = 0; i < as.size(); ++i)
    as[i] = static_cast<double>(i + 1);
  for (const auto& prog : {apps::polyeval_1(as), apps::polyeval_3(as)}) {
    const auto rep = drift_report(prog, kMach);
    EXPECT_TRUE(rep.all_ok()) << prog.show() << "\n" << rep.render_text();
  }
}

TEST(Drift, PredictedTrafficMatchesMeasurementAtEveryP) {
  // Off powers of two the time drifts (the model is log2-exact only at
  // 2^k), but the traffic prediction mirrors the schedule loops and must
  // match the simulation exactly for every p.
  DriftOptions opts;
  opts.procs = {2, 3, 5, 6, 7, 9, 12, 16, 24, 33};
  for (const char* text :
       {"bcast ; allreduce(+)", "scan(+) ; reduce(*)", "bcast ; scan(+)"}) {
    const auto prog = ir::parse_program(text);
    const auto rep = drift_report(prog, kMach, opts);
    ASSERT_EQ(rep.rows.size(), opts.procs.size()) << text;
    for (const auto& row : rep.rows) {
      EXPECT_EQ(row.predicted_messages, row.sim_messages)
          << text << " p=" << row.p;
      EXPECT_DOUBLE_EQ(row.predicted_words, row.sim_words)
          << text << " p=" << row.p;
    }
  }
}

TEST(Drift, PredictedTrafficClosedFormsOnOneStage) {
  // Butterfly schedules at p = 16: log2 p = 4 phases, every rank sends
  // once per phase, m words per message.
  model::Machine mach = kMach;
  mach.p = 16;
  const double m = mach.m;
  const auto bcast = predicted_traffic(ir::parse_program("bcast"), mach);
  EXPECT_EQ(bcast.messages, 64u);  // p*log2(p) butterfly exchanges
  EXPECT_DOUBLE_EQ(bcast.words, 64 * m);
  const auto scan = predicted_traffic(ir::parse_program("scan(+)"), mach);
  EXPECT_EQ(scan.messages, 64u);
  const auto local = predicted_traffic(ir::parse_program("map(pair)"), mach);
  EXPECT_EQ(local.messages, 0u);
  EXPECT_DOUBLE_EQ(local.words, 0.0);
}

TEST(Drift, ReportFlagsDivergenceBeyondTolerance) {
  // An unsatisfiable (negative) tolerance must flag every row, proving
  // the ok/all_ok/DIVERGENCE path is live.
  DriftOptions opts;
  opts.procs = {4, 8};
  opts.tolerance = -1.0;
  const auto rep = drift_report(ir::parse_program("scan(+)"), kMach, opts);
  ASSERT_EQ(rep.rows.size(), 2u);
  EXPECT_FALSE(rep.rows[0].ok);
  EXPECT_FALSE(rep.all_ok());
  EXPECT_NE(rep.render_text().find("DIVERGENCE"), std::string::npos);
}

TEST(Drift, JsonExportParsesAndMirrorsTheRows) {
  const auto rep = drift_report(ir::parse_program("allreduce(+)"), kMach);
  std::ostringstream os;
  rep.write_json(os);
  const auto doc = json::parse(os.str());
  ASSERT_NE(doc.get("program"), nullptr);
  EXPECT_EQ(doc.get("program")->str, rep.program);
  ASSERT_NE(doc.get("all_ok"), nullptr);
  EXPECT_EQ(doc.get("all_ok")->b, rep.all_ok());
  const auto* rows = doc.get("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items.size(), rep.rows.size());
  for (std::size_t i = 0; i < rows->items.size(); ++i) {
    const auto& item = *rows->items[i];
    ASSERT_NE(item.get("p"), nullptr);
    EXPECT_EQ(static_cast<int>(item.get("p")->num), rep.rows[i].p);
    ASSERT_NE(item.get("sim_messages"), nullptr);
    EXPECT_DOUBLE_EQ(item.get("sim_messages")->num,
                     static_cast<double>(rep.rows[i].sim_messages));
    ASSERT_NE(item.get("ok"), nullptr);
  }
}

}  // namespace
}  // namespace colop::obs
