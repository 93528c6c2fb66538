#pragma once
// Overlap windows: the shared split-phase window planner.
//
// A window is an  istart_X(h) ; L1 ; ... ; Lk ; wait(h)  span whose interior
// stages are all elementwise-local (map / map#).  Inside such a window the
// collective combines blocks elementwise and the maps are elementwise, so an
// executor may legally pipeline: split the m-element block into segments,
// run the collective segment by segment, and apply the interior maps to each
// completed segment while later segments are still in flight.  The cost
// model prices an eligible window as max(collective, sum of interior maps)
// instead of their sum.
//
// Every consumer (model::program_time, the thread executor, the simnet
// executor, obs::profile) goes through this single planner so they agree on
// which spans overlap.

#include <cstddef>
#include <vector>

#include "colop/ir/program.h"

namespace colop::ir {

struct OverlapWindow {
  std::size_t istart = 0;  ///< index of the istart stage
  std::size_t wait = 0;    ///< index of the matching wait stage
  /// Interior stages are prog.stages()[istart+1 .. wait-1], all local maps.
};

/// All eligible overlap windows of `prog`, in program order, disjoint.
///
/// An istart participates in a window iff scanning forward every stage up
/// to the first wait with the same handle is elementwise (map / map#).  Split-phase
/// stages that violate this shape (no matching wait, a collective in the
/// interior, ...) simply yield no window — the executors then fall back to
/// the blocking twin at the istart, which is always semantics-preserving.
/// The static verifier (V220-V223) is the component that rejects genuinely
/// ill-formed split-phase programs.
std::vector<OverlapWindow> overlap_windows(const Program& prog);

/// True if stage `i` of `prog` lies inside (inclusive) one of `windows`.
bool in_overlap_window(const std::vector<OverlapWindow>& windows,
                       std::size_t i);

}  // namespace colop::ir
