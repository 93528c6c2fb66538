#include "colop/exec/thread_executor.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "colop/ir/overlap.h"

#include "colop/rt/flight_recorder.h"
#include "colop/support/bits.h"
#include "colop/support/error.h"

namespace colop::exec {
namespace {

using ir::Block;
using ir::PackedBlock;
using ir::Value;

static_assert(sizeof(PackedBlock) <= mpsim::Payload::kInlineBytes,
              "a packed block travels inside its message, not in a heap box");

// Lift a Value binary operator to blocks (MPI count semantics: collectives
// combine blocks elementwise).  The lifted function refers to `f`, which
// the stage owns: a collective copies its operator, and a copied
// std::function may allocate.
template <typename F>
auto lift2(const F& f) {
  return [&f](const Block& a, const Block& b) {
    COLOP_ASSERT(a.size() == b.size(), "block size mismatch in collective");
    Block out(a.size());
    for (std::size_t j = 0; j < a.size(); ++j) out[j] = f(a[j], b[j]);
    return out;
  };
}

template <typename F>
auto lift1(const F& f) {
  return [&f](const Block& a) {
    Block out(a.size());
    for (std::size_t j = 0; j < a.size(); ++j) out[j] = f(a[j]);
    return out;
  };
}

// One rank's stage loop, shared by both data planes.  A stage that throws
// is rethrown as colop::Error carrying rank + stage context; the SPMD
// launcher's group abort then releases peers blocked in recv/barrier, so
// the caller sees the annotated failure instead of a deadlock.
template <typename B, typename ExecStage>
B run_rank(const ir::Program& prog, mpsim::Comm& comm, B block, bool packed,
           ExecStage exec) {
  rt::Recorder* rec = comm.flight_recorder();
  rt::RankStats* st = comm.rank_stats();
  if (rec != nullptr) rec->log(rt::Ev::plane, -1, 0, packed ? 1 : 0);
  for (std::size_t i = 0; i < prog.stages().size(); ++i) {
    const auto& stage = prog.stages()[i];
    if (rec != nullptr) {
      rec->set_stage(static_cast<std::uint16_t>(i));
      rec->log(rt::Ev::stage_begin);
      st->stage.store(static_cast<std::uint16_t>(i), std::memory_order_relaxed);
    }
    try {
      exec(*stage, comm, block);
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

// Execute an eligible overlap window [w.istart, w.wait] on this rank,
// pipelined over up-to-`segments` sub-blocks: run the collective segment by
// segment and apply the interior maps to each completed segment while later
// segments are still in flight.  mpsim's sends are eager, so while this
// rank computes maps on segment k its peers' sends for segment k+1 are
// already queued — the collective's latency hides behind the local work.
// The output is identical to the blocking twin followed by the maps.
void run_window_boxed(const ir::Program& prog, const ir::OverlapWindow& w,
                      int segments, mpsim::Comm& comm, Block& block) {
  const std::size_t m = block.size();
  const std::size_t want = segments > 0 ? static_cast<std::size_t>(segments) : 1;
  const std::size_t K = std::max<std::size_t>(1, std::min(want, std::max<std::size_t>(m, 1)));
  for (std::size_t k = 0; k < K; ++k) {
    const std::size_t lo = m * k / K;
    const std::size_t hi = m * (k + 1) / K;
    Block seg(block.begin() + static_cast<std::ptrdiff_t>(lo),
              block.begin() + static_cast<std::ptrdiff_t>(hi));
    for (std::size_t j = w.istart; j < w.wait; ++j)
      exec_stage(prog.stage(j), comm, seg);
    std::move(seg.begin(), seg.end(),
              block.begin() + static_cast<std::ptrdiff_t>(lo));
  }
}

std::vector<std::string> stage_labels(const ir::Program& prog) {
  std::vector<std::string> labels;
  labels.reserve(prog.size());
  for (const auto& stage : prog.stages()) labels.push_back(stage->show());
  return labels;
}

}  // namespace

void exec_stage(const ir::Stage& stage, mpsim::Comm& comm, Block& block) {
  using Kind = ir::Stage::Kind;
  switch (stage.kind()) {
    case Kind::Map: {
      const auto& s = static_cast<const ir::MapStage&>(stage);
      for (auto& v : block) v = s.fn(v);
      return;
    }
    case Kind::MapIndexed: {
      const auto& s = static_cast<const ir::MapIndexedStage&>(stage);
      for (auto& v : block) v = s.fn(comm.rank(), v);
      return;
    }
    case Kind::Scan: {
      const auto& s = static_cast<const ir::ScanStage&>(stage);
      block = mpsim::scan(comm, std::move(block), lift2(*s.op));
      return;
    }
    // Split-phase: an istart runs its blocking collective and wait
    // completes nothing.  Eligible overlap windows run whole in
    // run_window_boxed, which calls this once per segment; outside one the
    // blocking fallback is always semantics-preserving.
    case Kind::Reduce:
    case Kind::IStartReduce: {
      const auto& s = static_cast<const ir::ReduceStage&>(stage);
      block = mpsim::reduce(comm, std::move(block), lift2(*s.op), s.root);
      return;
    }
    case Kind::AllReduce:
    case Kind::IStartAllReduce: {
      const auto& s = static_cast<const ir::AllReduceStage&>(stage);
      block = mpsim::allreduce(comm, std::move(block), lift2(*s.op));
      return;
    }
    case Kind::Bcast:
    case Kind::IStartBcast: {
      const auto& s = static_cast<const ir::BcastStage&>(stage);
      block = mpsim::bcast(comm, std::move(block), s.root);
      return;
    }
    case Kind::ScanBalanced: {
      const auto& s = static_cast<const ir::ScanBalancedStage&>(stage);
      auto combine2 = [&s](const Block& a, const Block& b) {
        COLOP_ASSERT(a.size() == b.size(), "block size mismatch in scan_balanced");
        Block lo(a.size()), hi(a.size());
        for (std::size_t j = 0; j < a.size(); ++j) {
          auto [l, h] = s.op2.combine2(a[j], b[j]);
          lo[j] = std::move(l);
          hi[j] = std::move(h);
        }
        return std::make_pair(std::move(lo), std::move(hi));
      };
      block = mpsim::scan_balanced(comm, std::move(block), combine2,
                                   lift1(s.op2.degrade), lift1(s.op2.strip));
      return;
    }
    case Kind::ReduceBalanced: {
      const auto& s = static_cast<const ir::ReduceBalancedStage&>(stage);
      block = mpsim::reduce_balanced(comm, std::move(block),
                                     lift2(s.op.combine), lift1(s.op.unit_case),
                                     s.root);
      return;
    }
    case Kind::AllReduceBalanced: {
      const auto& s = static_cast<const ir::AllReduceBalancedStage&>(stage);
      block = mpsim::allreduce_balanced(comm, std::move(block),
                                        lift2(s.op.combine),
                                        lift1(s.op.unit_case));
      return;
    }
    case Kind::Iter: {
      const auto& s = static_cast<const ir::IterStage&>(stage);
      if (comm.rank() == 0) {
        for (auto& v : block) v = s.apply_local(comm.size(), v);
      } else {
        for (auto& v : block) v = Value::undefined();
      }
      return;
    }
    case Kind::Wait:
      return;
  }
  COLOP_ASSERT(false, "unhandled stage kind");
}

void exec_stage_packed(const ir::Stage& stage, mpsim::Comm& comm,
                       PackedBlock& block) {
  using Kind = ir::Stage::Kind;
  switch (stage.kind()) {
    case Kind::Map: {
      const auto& s = static_cast<const ir::MapStage&>(stage);
      block = s.fn.packed_fn(std::move(block));
      return;
    }
    case Kind::MapIndexed: {
      const auto& s = static_cast<const ir::MapIndexedStage&>(stage);
      block = s.fn.packed_fn(comm.rank(), std::move(block));
      return;
    }
    case Kind::Scan: {
      const auto& s = static_cast<const ir::ScanStage&>(stage);
      block = mpsim::scan(comm, std::move(block), std::cref(s.op->packed()));
      return;
    }
    case Kind::Reduce: {
      const auto& s = static_cast<const ir::ReduceStage&>(stage);
      block = mpsim::reduce(comm, std::move(block), std::cref(s.op->packed()),
                            s.root);
      return;
    }
    case Kind::AllReduce: {
      const auto& s = static_cast<const ir::AllReduceStage&>(stage);
      block = mpsim::allreduce(comm, std::move(block), std::cref(s.op->packed()));
      return;
    }
    case Kind::Bcast: {
      const auto& s = static_cast<const ir::BcastStage&>(stage);
      block = mpsim::bcast(comm, std::move(block), s.root);
      return;
    }
    case Kind::ScanBalanced: {
      const auto& s = static_cast<const ir::ScanBalancedStage&>(stage);
      block = mpsim::scan_balanced(comm, std::move(block),
                                   std::cref(s.op2.packed_combine2),
                                   std::cref(s.op2.packed_degrade),
                                   std::cref(s.op2.packed_strip));
      return;
    }
    case Kind::ReduceBalanced: {
      const auto& s = static_cast<const ir::ReduceBalancedStage&>(stage);
      block = mpsim::reduce_balanced(comm, std::move(block),
                                     std::cref(s.op.packed_combine),
                                     std::cref(s.op.packed_unit), s.root);
      return;
    }
    case Kind::AllReduceBalanced: {
      const auto& s = static_cast<const ir::AllReduceBalancedStage&>(stage);
      block = mpsim::allreduce_balanced(comm, std::move(block),
                                        std::cref(s.op.packed_combine),
                                        std::cref(s.op.packed_unit));
      return;
    }
    case Kind::Iter: {
      // packable() admits iter only for p = 2^k, where the doubling step
      // applies verbatim (IterStage::apply_local, power-of-two branch).
      const auto& s = static_cast<const ir::IterStage&>(stage);
      const auto p = static_cast<std::uint64_t>(comm.size());
      COLOP_REQUIRE(is_pow2(p), "iter: packed plane requires a power-of-two p");
      if (comm.rank() == 0) {
        for (unsigned i = 0; i < log2_floor(p); ++i)
          block = s.step.packed_fn(std::move(block));
      } else {
        block = PackedBlock::wild(block.size());
      }
      return;
    }
    case Kind::IStartReduce:
    case Kind::IStartBcast:
    case Kind::IStartAllReduce:
    case Kind::Wait:
      break;  // packable() keeps split-phase off the packed plane
  }
  COLOP_ASSERT(false, "unhandled stage kind");
}

namespace {

// Both entry points: `capture_rt` copies the flight recorders into the
// result, which only the instrumented one returns.
ThreadRunResult run_threads(const ir::Program& prog, ir::Dist input,
                            ir::DataPlane plane, mpsim::Ranks ranks,
                            int segments, bool capture_rt) {
  COLOP_REQUIRE(!input.empty(), "run_on_threads: empty input");
  const auto p = static_cast<int>(input.size());

  if (plane != ir::DataPlane::Boxed) {
    if (auto packed = ir::try_pack_for(prog, input)) {
      auto group = mpsim::Group::make(p);
      group->fleet().set_stage_labels(stage_labels(prog));
      const auto t0 = std::chrono::steady_clock::now();
      const auto traffic = mpsim::run_spmd_in_place_on(
          group, *packed,
          [&](mpsim::Comm& comm, PackedBlock block) {
            return run_rank(prog, comm, std::move(block), true,
                            exec_stage_packed);
          },
          ranks);
      const auto t1 = std::chrono::steady_clock::now();
      return {ir::unpack_dist(*packed), traffic,
              std::chrono::duration<double>(t1 - t0).count(), true,
              capture_rt ? group->fleet().snapshot() : rt::FleetSnapshot{}};
    }
    COLOP_REQUIRE(plane != ir::DataPlane::Packed,
                  "run_on_threads: packed plane forced but the program or "
                  "data is not packable: " + prog.show());
  }

  auto group = mpsim::Group::make(p);
  group->fleet().set_stage_labels(stage_labels(prog));
  // Split-phase overlap: plan the windows once (shared, read-only) and give
  // each rank a position-tracking executor.  The istart stage runs its
  // whole window pipelined; the interior and wait stages then no-op.
  const std::vector<ir::OverlapWindow> windows = ir::overlap_windows(prog);
  const auto t0 = std::chrono::steady_clock::now();
  const auto traffic = mpsim::run_spmd_in_place_on(
      group, input,
      [&](mpsim::Comm& comm, Block block) {
        return run_rank(
            prog, comm, std::move(block), false,
            [&prog, &windows, segments, idx = std::size_t{0}](
                const ir::Stage& st, mpsim::Comm& c, Block& b) mutable {
              const std::size_t i = idx++;
              for (const auto& w : windows) {
                if (i == w.istart) {
                  run_window_boxed(prog, w, segments, c, b);
                  return;
                }
                if (i > w.istart && i <= w.wait) return;  // done by the window
              }
              exec_stage(st, c, b);
            });
      },
      ranks);
  const auto t1 = std::chrono::steady_clock::now();
  return {std::move(input), traffic,
          std::chrono::duration<double>(t1 - t0).count(), false,
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
