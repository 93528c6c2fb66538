#include "colop/exec/thread_executor.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "colop/ir/overlap.h"
#include "colop/ir/plane.h"
#include "colop/rt/flight_recorder.h"
#include "colop/support/error.h"

namespace colop::exec {
namespace {

using ir::Block;
using ir::PackedBlock;

static_assert(sizeof(PackedBlock) <= mpsim::Payload::kInlineBytes,
              "a packed block travels inside its message, not in a heap box");

// Execute an eligible overlap window [w.istart, w.wait] on this rank,
// pipelined over up-to-`segments` sub-blocks: run the collective segment by
// segment and apply the interior maps to each completed segment while later
// segments are still in flight.  mpsim's sends are eager, so while this
// rank computes maps on segment k its peers' sends for segment k+1 are
// already queued — the collective's latency hides behind the local work.
// The output is identical to the blocking twin followed by the maps, on
// either plane, with the same messages and bytes.
template <typename B>
void run_window(const ir::Program& prog, const ir::OverlapWindow& w,
                int segments, mpsim::Comm& comm, B& block) {
  const std::size_t want = segments > 0 ? static_cast<std::size_t>(segments) : 1;
  const std::size_t K = std::min(want, std::max<std::size_t>(block.size(), 1));
  std::vector<B> segs = ir::split(block, K);
  for (B& seg : segs)
    for (std::size_t j = w.istart; j < w.wait; ++j)
      exec_stage(prog.stage(j), comm, seg);
  block = ir::Plane<B>::join(std::move(segs));
}

// One rank's stage loop.  The istart stage of an overlap window runs the
// whole window; its interior and wait stages then do nothing.  A stage
// that throws is rethrown as colop::Error carrying rank + stage context;
// the SPMD launcher's group abort then releases peers blocked in
// recv/barrier, so the caller sees the annotated failure instead of a
// deadlock.
template <typename B>
B run_rank(const ir::Program& prog, const std::vector<ir::OverlapWindow>& windows,
           int segments, mpsim::Comm& comm, B block) {
  rt::Recorder* rec = comm.flight_recorder();
  rt::RankStats* st = comm.rank_stats();
  constexpr bool packed = std::is_same_v<B, PackedBlock>;
  if (rec != nullptr) rec->log(rt::Ev::plane, -1, 0, packed ? 1 : 0);
  for (std::size_t i = 0; i < prog.stages().size(); ++i) {
    const auto& stage = prog.stages()[i];
    if (rec != nullptr) {
      rec->set_stage(static_cast<std::uint16_t>(i));
      rec->log(rt::Ev::stage_begin);
      st->stage.store(static_cast<std::uint16_t>(i), std::memory_order_relaxed);
    }
    try {
      const auto w = std::find_if(windows.begin(), windows.end(), [i](const auto& x) {
        return i >= x.istart && i <= x.wait;
      });
      if (w == windows.end())
        exec_stage(*stage, comm, block);
      else if (i == w->istart)
        run_window(prog, *w, segments, comm, block);
    } catch (const std::exception& e) {
      throw Error("run_on_threads: rank " + std::to_string(comm.rank()) +
                  " failed in stage " + std::to_string(i) + " (" +
                  stage->show() + "): " + e.what());
    }
    if (rec != nullptr) {
      rec->log(rt::Ev::stage_end);
      rec->set_stage(rt::Record::kNoStage);
      st->stage.store(rt::Record::kNoStage, std::memory_order_relaxed);
      st->stages_done.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return block;
}

}  // namespace

template <typename B>
void exec_stage(const ir::Stage& stage, mpsim::Comm& comm, B& block) {
  using P = ir::Plane<B>;
  using Kind = ir::Stage::Kind;
  switch (stage.kind()) {
    case Kind::Map:
      P::map(static_cast<const ir::MapStage&>(stage).fn, block);
      return;
    case Kind::MapIndexed:
      P::map(static_cast<const ir::MapIndexedStage&>(stage).fn, comm.rank(), block);
      return;
    case Kind::Scan:
      block = mpsim::scan(comm, std::move(block), P::binop(*stage.binop()));
      return;
    // Split-phase: an istart runs its blocking collective and wait
    // completes nothing.  Eligible overlap windows run whole in
    // run_window, which calls this once per segment; outside one the
    // blocking fallback is always semantics-preserving.
    case Kind::Reduce:
    case Kind::IStartReduce:
      block = mpsim::reduce(comm, std::move(block), P::binop(*stage.binop()),
                            stage.root_rank());
      return;
    case Kind::AllReduce:
    case Kind::IStartAllReduce:
      block = mpsim::allreduce(comm, std::move(block), P::binop(*stage.binop()));
      return;
    case Kind::Bcast:
    case Kind::IStartBcast:
      block = mpsim::bcast(comm, std::move(block), stage.root_rank());
      return;
    case Kind::ScanBalanced: {
      const auto& op2 = static_cast<const ir::ScanBalancedStage&>(stage).op2;
      block = mpsim::scan_balanced(comm, std::move(block), P::combine2(op2),
                                   P::degrade(op2), P::strip(op2));
      return;
    }
    case Kind::ReduceBalanced: {
      const auto& s = static_cast<const ir::ReduceBalancedStage&>(stage);
      block = mpsim::reduce_balanced(comm, std::move(block), P::combine(s.op),
                                     P::unit(s.op), s.root);
      return;
    }
    case Kind::AllReduceBalanced: {
      const auto& op = static_cast<const ir::AllReduceBalancedStage&>(stage).op;
      block = mpsim::allreduce_balanced(comm, std::move(block), P::combine(op),
                                        P::unit(op));
      return;
    }
    case Kind::Iter:
      if (comm.rank() == 0)
        P::iter_local(static_cast<const ir::IterStage&>(stage), comm.size(), block);
      else
        P::make_undefined(block);
      return;
    case Kind::Wait:
      return;
  }
  COLOP_ASSERT(false, "unhandled stage kind");
}

template void exec_stage<Block>(const ir::Stage&, mpsim::Comm&, Block&);
template void exec_stage<PackedBlock>(const ir::Stage&, mpsim::Comm&,
                                      PackedBlock&);

namespace {

std::vector<std::string> stage_labels(const ir::Program& prog) {
  std::vector<std::string> labels;
  labels.reserve(prog.size());
  for (const auto& stage : prog.stages()) labels.push_back(stage->show());
  return labels;
}

// Both entry points: `capture_rt` copies the flight recorders into the
// result, which only the instrumented one returns.
ThreadRunResult run_threads(const ir::Program& prog, ir::Dist input,
                            ir::DataPlane plane, mpsim::Ranks ranks,
                            int segments, bool capture_rt) {
  COLOP_REQUIRE(!input.empty(), "run_on_threads: empty input");
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  const auto t_pack = Clock::now();
  std::optional<ir::PackedDist> packed;
  if (plane != ir::DataPlane::Boxed) packed = ir::pack_for_run(prog, input);
  COLOP_REQUIRE(packed || plane != ir::DataPlane::Packed,
                "run_on_threads: packed plane forced but the program or "
                "data is not packable: " + prog.show());
  const double pack_seconds = packed ? seconds(t_pack, Clock::now()) : 0;
  auto group = mpsim::Group::make(static_cast<int>(input.size()));
  group->fleet().set_stage_labels(stage_labels(prog));
  // Plan the overlap windows once (shared, read-only by every rank).
  const std::vector<ir::OverlapWindow> windows = ir::overlap_windows(prog);
  const auto launch = [&](auto& blocks) {
    using B = typename std::decay_t<decltype(blocks)>::value_type;
    return mpsim::run_spmd_in_place_on(
        group, blocks,
        [&](mpsim::Comm& comm, B block) {
          return run_rank(prog, windows, segments, comm, std::move(block));
        },
        ranks);
  };
  const auto t0 = Clock::now();
  const auto traffic = packed ? launch(*packed) : launch(input);
  const auto t1 = Clock::now();
  if (packed)
    for (std::size_t r = 0; r < input.size(); ++r) (*packed)[r].unpack_into(input[r]);
  return {std::move(input), traffic, seconds(t0, t1), packed.has_value(), pack_seconds,
          packed ? seconds(t1, Clock::now()) : 0,
          capture_rt ? group->fleet().snapshot() : rt::FleetSnapshot{}};
}

}  // namespace

ir::Dist run_on_threads(const ir::Program& prog, ir::Dist input,
                        ir::DataPlane plane, mpsim::Ranks ranks,
                        int overlap_segments) {
  return run_threads(prog, std::move(input), plane, ranks, overlap_segments,
                     false)
      .output;
}

ThreadRunResult run_on_threads_instrumented(const ir::Program& prog,
                                            ir::Dist input, ir::DataPlane plane,
                                            mpsim::Ranks ranks,
                                            int overlap_segments) {
  return run_threads(prog, std::move(input), plane, ranks, overlap_segments,
                     true);
}

}  // namespace colop::exec
