// Runtime report: per-rank accounting and wall-vs-model drift built from a
// real thread-executor capture, plus the JSON/trace/HTML exporters and the
// telemetry-registry bridge (acceptance: a Table-1 program at p = 8 reports per-rank
// busy/wait/queue-depth stats, per-stage wall-vs-predicted drift, and the
// wall-clock critical path from the analyzer simulated runs use).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "colop/exec/thread_executor.h"
#include "colop/ir/parse.h"
#include "colop/model/cost.h"
#include "colop/obs/json.h"
#include "colop/obs/metrics.h"
#include "colop/rt/report.h"
#include "colop/support/rng.h"

namespace colop {
namespace {

constexpr int kProcs = 8;

/// Run the paper's Table-1 program at p = 8 and build the merged report;
/// `snap` receives the capture it was built from.
rt::RtReport table1_report(rt::FleetSnapshot* snap = nullptr) {
  const ir::Program program = ir::parse_program("scan(*) ; reduce(+) ; bcast");
  Rng rng(0x51);
  ir::Dist input(kProcs);
  for (auto& b : input) {
    b.reserve(4);
    for (int j = 0; j < 4; ++j) b.emplace_back(rng.uniform(-1, 1));
  }
  const auto run = exec::run_on_threads_instrumented(program, input);

  const model::Machine mach{.p = kProcs, .m = 4, .ts = 400, .tw = 2};
  rt::RtReportOptions opts;
  for (const auto& stage : program.stages())
    opts.model_stage_times.push_back(model::stage_cost(*stage).eval(mach));
  opts.wall_seconds = run.wall_seconds;
  opts.pack_seconds = run.pack_seconds;
  opts.unpack_seconds = run.unpack_seconds;
  opts.used_packed = run.used_packed;
  opts.timing = rt::RepeatStats::of({run.wall_seconds * 1e3});
  if (snap != nullptr) *snap = run.rt;
  return rt::build_report(run.rt, opts);
}

/// Time from rank `rank`'s first op to its last: its first to last record.
double span_ns(const rt::RtReport& rep, int rank) {
  double first = -1, last = 0;
  for (const auto& op : rep.profile.ops)
    if (op.rank == rank) {
      if (first < 0 || op.start < first) first = op.start;
      last = std::max(last, op.end);
    }
  return first < 0 ? 0 : last - first;
}

TEST(RtReport, PerRankAccountingAtP8) {
  const auto rep = table1_report();
  ASSERT_EQ(rep.ranks.size(), static_cast<std::size_t>(kProcs));
  EXPECT_EQ(rep.procs, kProcs);
  EXPECT_GT(rep.wall_ms, 0.0);

  std::uint64_t sends = 0, queue_max = 0;
  for (const auto& r : rep.ranks) {
    EXPECT_GT(r.events, 0u) << "rank " << r.rank;
    EXPECT_GT(span_ns(rep, r.rank), 0.0) << "rank " << r.rank;
    EXPECT_GE(r.busy_ms, 0.0) << "rank " << r.rank;
    EXPECT_GE(r.recv_wait_ms, 0.0);
    sends += r.sends;
    queue_max = std::max(queue_max, r.queue_depth_max);
  }
  EXPECT_GT(sends, 0u) << "Table-1 program moves data";
  EXPECT_GE(queue_max, 1u) << "eager sends must show up as queue depth";
}

TEST(RtReport, StageDriftAgainstModel) {
  const auto rep = table1_report();
  ASSERT_EQ(rep.stages.size(), 3u);
  EXPECT_GT(rep.scale_ns_per_op, 0.0);

  double measured = 0, predicted = 0;
  for (const auto& s : rep.stages) {
    EXPECT_EQ(s.ranks_observed, kProcs) << s.label;
    EXPECT_TRUE(std::isfinite(s.drift)) << s.label;
    measured += s.measured_share;
    predicted += s.predicted_share;
  }
  EXPECT_NEAR(measured, 1.0, 1e-9);
  EXPECT_NEAR(predicted, 1.0, 1e-9);
  // Drift is wall/(model*scale)-1 with scale fit on the totals, so the
  // weighted drifts cancel: at least one stage on each side of zero, or
  // all exactly zero.
  EXPECT_EQ(rep.stages[0].label, "scan(*)");
}

TEST(RtReport, JsonRoundTrips) {
  const auto rep = table1_report();
  std::ostringstream os;
  rep.write_json(os);
  const auto doc = obs::json::parse(os.str());

  ASSERT_TRUE(doc.is(obs::json::Value::Type::object));
  EXPECT_EQ(doc.get("procs")->num, kProcs);
  const auto* ranks = doc.get("ranks");
  ASSERT_NE(ranks, nullptr);
  ASSERT_EQ(ranks->items.size(), static_cast<std::size_t>(kProcs));
  const auto& r0 = *ranks->items[0];
  for (const char* key : {"busy_ms", "recv_wait_ms", "barrier_wait_ms",
                          "queue_depth_max", "queue_depth_mean", "sends"})
    EXPECT_NE(r0.get(key), nullptr) << key;
  const auto* stages = doc.get("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->items.size(), 3u);
  for (const char* key : {"label", "wall_ms", "model_time", "drift"})
    EXPECT_NE(stages->items[0]->get(key), nullptr) << key;
  const auto* timing = doc.get("timing");
  ASSERT_NE(timing, nullptr);
  EXPECT_NE(timing->get("median_ms"), nullptr);
}

// The table-1 run is packable: its boundary shows next to the wall time,
// in the text and in the JSON.
TEST(RtReport, BoundaryLineCarriesPackAndUnpack) {
  const auto rep = table1_report();
  ASSERT_TRUE(rep.used_packed);
  EXPECT_GT(rep.pack_ms, 0.0);
  EXPECT_GT(rep.unpack_ms, 0.0);
  const std::string text = rep.render_text();
  const auto wall = text.find("\nwall    : ");
  const auto boundary = text.find("\nboundary: pack ");
  ASSERT_NE(boundary, std::string::npos) << text;
  EXPECT_EQ(text.find('\n', wall + 1), boundary) << "the line after the wall time";
  std::ostringstream os;
  rep.write_json(os);
  const auto doc = obs::json::parse(os.str());
  EXPECT_EQ(doc.get("pack_ms")->num, rep.pack_ms);
  EXPECT_EQ(doc.get("unpack_ms")->num, rep.unpack_ms);
}

TEST(RtReport, TraceAndHtmlExportersProduceDocuments) {
  const auto rep = table1_report();
  ASSERT_FALSE(rep.profile.ops.empty());

  std::ostringstream trace;
  rep.profile.write_chrome_trace(trace);
  EXPECT_NE(trace.str().find("traceEvents"), std::string::npos);
  // Validate the trace is well-formed JSON, not just a prefix.
  EXPECT_NO_THROW((void)obs::json::parse(trace.str()));

  std::ostringstream html;
  rep.write_html(html);
  const std::string page = html.str();
  EXPECT_NE(page.find("<svg"), std::string::npos);
  EXPECT_NE(page.find("</html>"), std::string::npos);
  EXPECT_NE(page.find("scan(*)"), std::string::npos);
}

TEST(RtReport, RenderTextMentionsEveryRank) {
  const auto rep = table1_report();
  const std::string text = rep.render_text();
  EXPECT_NE(text.find("per-rank accounting"), std::string::npos);
  EXPECT_NE(text.find("wall vs model"), std::string::npos);
}

TEST(RtReport, RankRowsAreTheRankStats) {
  rt::FleetSnapshot snap;
  const auto rep = table1_report(&snap);
  ASSERT_EQ(rep.ranks.size(), snap.per_rank.size());
  for (std::size_t i = 0; i < rep.ranks.size(); ++i) {
    const auto& r = rep.ranks[i];
    const auto& st = snap.per_rank[i].stats;
    EXPECT_EQ(r.events, snap.per_rank[i].logged);
    EXPECT_EQ(r.dropped, snap.per_rank[i].dropped);
    EXPECT_EQ(r.sends, st.sends);
    EXPECT_EQ(r.send_bytes, st.send_bytes);
    EXPECT_EQ(r.recvs, st.recvs);
    EXPECT_DOUBLE_EQ(r.recv_wait_ms, static_cast<double>(st.recv_wait_ns) / 1e6);
    EXPECT_DOUBLE_EQ(r.barrier_wait_ms,
                     static_cast<double>(st.barrier_wait_ns) / 1e6);
    EXPECT_EQ(r.queue_depth_max, st.queue_depth_max);
    EXPECT_DOUBLE_EQ(r.queue_depth_mean, st.queue_depth_mean());
    EXPECT_EQ(r.queue_bytes_max, st.queue_bytes_max);
  }
}

// The thread run goes through the simulated runs' analyzer: its accounting
// tiles each rank's timeline, its critical path covers [0, makespan] in
// ns, and each stage's wall time is its ops' extent on the slowest rank.
TEST(RtReport, CriticalPathOnTheWallClock) {
  rt::FleetSnapshot snap;
  const auto rep = table1_report(&snap);
  const auto& prof = rep.profile;
  EXPECT_EQ(prof.clock, "ns");
  EXPECT_TRUE(prof.balanced()) << prof.render_text();
  EXPECT_TRUE(prof.path_complete()) << prof.render_text();
  ASSERT_FALSE(prof.critical_path.empty());
  ASSERT_EQ(prof.stages.size(), rep.stages.size());
  for (std::size_t i = 0; i < rep.stages.size(); ++i) {
    EXPECT_EQ(prof.stages[i].label, rep.stages[i].label);
    EXPECT_EQ(prof.stages[i].model_time, rep.stages[i].model_time);
    EXPECT_LE(rep.stages[i].wall_ms * 1e6, prof.makespan);
  }
  // A stage's wall time is still stage_end - stage_begin, max over ranks.
  std::vector<double> longest(rep.stages.size(), 0);
  for (const auto& rs : snap.per_rank) {
    std::vector<double> begin(rep.stages.size(), 0);
    for (const auto& r : rs.records) {
      if (r.stage >= rep.stages.size()) continue;
      const double t = static_cast<double>(r.t_ns);
      if (r.kind == rt::Ev::stage_begin) begin[r.stage] = t;
      if (r.kind == rt::Ev::stage_end)
        longest[r.stage] = std::max(longest[r.stage], t - begin[r.stage]);
    }
  }
  for (std::size_t i = 0; i < rep.stages.size(); ++i)
    EXPECT_NEAR(rep.stages[i].wall_ms, longest[i] / 1e6, 1e-9) << i;
  for (const auto& r : rep.ranks)
    EXPECT_DOUBLE_EQ(r.busy_ms,
                     prof.ranks[static_cast<std::size_t>(r.rank)].busy / 1e6);

  EXPECT_NE(rep.render_text().find("bottleneck: stage "), std::string::npos)
      << rep.render_text();
  std::ostringstream os;
  rep.write_json(os);
  const auto doc = obs::json::parse(os.str());
  EXPECT_TRUE(doc.get("balanced")->b);
  EXPECT_TRUE(doc.get("path_complete")->b);
  EXPECT_EQ(doc.get("clock")->str, "ns");
  EXPECT_FALSE(doc.get("critical_path")->items.empty());
  for (const char* key : {"critical", "busy", "comm", "rule"})
    EXPECT_NE(doc.get("stages")->items[0]->get(key), nullptr) << key;
}

TEST(RtReport, PublishRegistryExportsRanksAndStages) {
  const auto rep = table1_report();
  obs::Registry reg;
  rt::publish_registry(rep, reg);
  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();
  for (const auto& r : rep.ranks)
    EXPECT_NE(text.find("colop_mpsim_messages_total{rank=\"" +
                        std::to_string(r.rank) + "\"} " +
                        std::to_string(r.sends)),
              std::string::npos)
        << text;
  EXPECT_EQ(rep.ranks.size(), static_cast<std::size_t>(kProcs));
  EXPECT_NE(text.find("colop_exec_stage_seconds_count{index=\"0\",stage=\"scan(*)\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("colop_exec_run_seconds_count 1"), std::string::npos);
}

TEST(RepeatStats, OfComputesOrderStatistics) {
  const auto s = rt::RepeatStats::of({3.0, 1.0, 2.0}, 1);
  EXPECT_EQ(s.repeats, 3);
  EXPECT_EQ(s.warmups, 1);
  EXPECT_DOUBLE_EQ(s.min_ms, 1.0);
  EXPECT_DOUBLE_EQ(s.median_ms, 2.0);
  EXPECT_DOUBLE_EQ(s.mean_ms, 2.0);
  EXPECT_DOUBLE_EQ(s.stddev_ms, 1.0);

  const auto one = rt::RepeatStats::of({5.0});
  EXPECT_DOUBLE_EQ(one.median_ms, 5.0);
  EXPECT_DOUBLE_EQ(one.stddev_ms, 0.0);
}

TEST(RtReport, EmptySnapshotYieldsEmptyReport) {
  const auto rep = rt::build_report(rt::FleetSnapshot{});
  EXPECT_TRUE(rep.ranks.empty());
  EXPECT_TRUE(rep.stages.empty());
  // Exporters must still emit valid documents.
  std::ostringstream os;
  rep.write_json(os);
  EXPECT_NO_THROW((void)obs::json::parse(os.str()));
  EXPECT_FALSE(rep.render_text().empty());
}

}  // namespace
}  // namespace colop
