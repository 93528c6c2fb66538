// Timeline tracing: spans are contiguous per processor, consistent with
// the one-shot simulation, and the renderer shows every stage.

#include <gtest/gtest.h>

#include <utility>

#include "colop/exec/timeline.h"
#include "colop/ir/ir.h"
#include "colop/rules/rules.h"

namespace colop::exec {
namespace {

TEST(Timeline, SpansArePerProcessorContiguousAndMonotone) {
  ir::Program prog;
  prog.bcast().scan(ir::op_add()).reduce(ir::op_mul());
  const model::Machine mach{.p = 8, .m = 16, .ts = 100, .tw = 2};
  const auto trace = trace_on_simnet(prog, mach);
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.procs, 8);
  for (int r = 0; r < 8; ++r) {
    double t = 0;
    for (const auto& span : trace.spans) {
      EXPECT_DOUBLE_EQ(span.start[static_cast<std::size_t>(r)], t);
      EXPECT_GE(span.end[static_cast<std::size_t>(r)], t);
      t = span.end[static_cast<std::size_t>(r)];
    }
    EXPECT_LE(t, trace.makespan);
  }
}

TEST(Timeline, MakespanMatchesOneShotSimulation) {
  ir::Program prog;
  prog.bcast().scan(ir::op_add()).reduce(ir::op_mul());
  const model::Machine mach{.p = 16, .m = 64, .ts = 300, .tw = 3};
  const auto trace = trace_on_simnet(prog, mach);
  EXPECT_DOUBLE_EQ(trace.makespan, run_on_simnet(prog, mach).time);

  // Split-phase programs: an overlap window is one span priced as the
  // untraced walk prices it, max(collective, local work).
  const ir::ElemFn heavy{"id", [](const ir::Value& v) { return v; }, 40,
                         nullptr, {}};
  ir::Program one_map;
  one_map.istart_allreduce(ir::op_add(), 1, 1).map(heavy).wait(1);
  ir::Program two_maps;
  two_maps.scan(ir::op_add())
      .istart_bcast(0, 1, 2)
      .map(heavy)
      .map(heavy)
      .wait(2)
      .reduce(ir::op_add());
  const model::Machine split_mach{.p = 8, .m = 200, .ts = 2000, .tw = 2};
  const std::pair<const ir::Program*, std::size_t> cases[] = {
      {&one_map, 1}, {&two_maps, 3}};
  for (const auto& [split, spans] : cases) {
    const auto st = trace_on_simnet(*split, split_mach);
    EXPECT_EQ(st.makespan, run_on_simnet(*split, split_mach).time)
        << split->show();
    EXPECT_EQ(st.spans.size(), spans) << split->show();
    for (int r = 0; r < split_mach.p; ++r) {
      double t = 0;
      for (const auto& span : st.spans) {
        EXPECT_EQ(span.start[static_cast<std::size_t>(r)], t);
        EXPECT_GE(span.end[static_cast<std::size_t>(r)], t);
        t = span.end[static_cast<std::size_t>(r)];
      }
    }
  }
}

TEST(Timeline, RenderListsAllStagesAndRows) {
  ir::Program prog;
  prog.map(ir::fn_id()).bcast().scan(ir::op_add());
  const model::Machine mach{.p = 4, .m = 8, .ts = 50, .tw = 1};
  const auto text = render_timeline(trace_on_simnet(prog, mach), 40);
  for (const std::string needle : {"P0", "P3", "A = map(id)", "B = bcast",
                                   "C = scan(+)"})
    EXPECT_NE(text.find(needle), std::string::npos) << needle << "\n" << text;
}

TEST(Timeline, SharedAxisShowsTimeSaved) {
  ir::Program lhs;
  lhs.bcast().scan(ir::op_add());
  const ir::Program rhs = rules::rule_bs_comcast()->match(lhs, 0)->apply(lhs);
  const model::Machine mach{.p = 8, .m = 128, .ts = 200, .tw = 2};
  const auto tb = trace_on_simnet(lhs, mach);
  const auto ta = trace_on_simnet(rhs, mach);
  EXPECT_LT(ta.makespan, tb.makespan);
  // Rendered against the slower program's axis, the faster one has idle
  // tail columns.
  const auto text = render_timeline(ta, 60, tb.makespan);
  EXPECT_NE(text.find('.'), std::string::npos);
}

TEST(Timeline, EmptyTraceRendersGracefully) {
  const SimTrace empty;
  EXPECT_EQ(render_timeline(empty), "(empty trace)\n");
}

}  // namespace
}  // namespace colop::exec
