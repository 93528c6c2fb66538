#pragma once
// Capability check and reference evaluation for the flat data plane.
//
// A program runs packed when every stage has a compiled kernel AND the
// element shape stays flat (scalar or tuple-of-scalars) at every program
// point — checked statically by packed_ineligibility() via the stage shape
// transformers.  Data must also fit: try_pack_dist() packs every block
// (uniform block size, homogeneous lanes) or reports failure.  Whenever
// either check fails the callers (Program::eval_reference, the exec
// thread executor) silently fall back to the boxed path, so the flat
// plane is a pure optimization: same results, same traffic, same errors.
//
// Selection can be forced per call (DataPlane) for benchmarks and
// differential tests.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "colop/ir/packed.h"
#include "colop/ir/program.h"
#include "colop/ir/shape.h"

namespace colop::ir {

enum class DataPlane {
  Auto,    ///< packed when packable, else boxed (the default)
  Boxed,   ///< always boxed
  Packed,  ///< packed or error (differential tests / benchmarks)
};

/// One block per rank, every one packed.
using PackedDist = std::vector<PackedBlock>;

/// What keeps a program off the flat plane: the first stage that does
/// (none when the input shape is nested or a shape transformer rejects),
/// and why.
struct PackedIneligibility {
  std::optional<std::size_t> stage;
  std::string reason;
};

/// The one eligibility walk, read by packable() and by the verifier's V208
/// lint: every stage of `prog` must have a flat-plane kernel and keep the
/// element shape flat, starting from `input`.  `p` is the processor count
/// (iter is packable only for powers of two, where the doubling step
/// applies verbatim).  nullopt means eligible.
[[nodiscard]] std::optional<PackedIneligibility> packed_ineligibility(
    const Program& prog, const Shape& input, int p);

[[nodiscard]] inline bool packable(const Program& prog, const Shape& input,
                                   int p) {
  return !packed_ineligibility(prog, input, p);
}

/// Element shape of a distributed list, if uniform and flat: scalar,
/// or tuple of scalars (undefined elements/components are compatible with
/// anything).  nullopt for nested/mixed data — or when nothing is defined
/// anywhere, in which case packing trivially succeeds but no shape can be
/// named; callers treat that as scalar.
[[nodiscard]] std::optional<Shape> dist_shape(const Dist& input);

/// Pack every block (requiring the uniform block size the collectives
/// assume); nullopt when any block does not fit the flat representation.
[[nodiscard]] std::optional<PackedDist> try_pack_dist(const Dist& input);
[[nodiscard]] Dist unpack_dist(const PackedDist& packed);

/// The complete guard: shape + capability + data.  nullopt means "stay
/// boxed".
[[nodiscard]] std::optional<PackedDist> try_pack_for(const Program& prog,
                                                     const Dist& input);

/// Sequential reference semantics on the flat plane — stage for stage the
/// mirror of Stage::eval_reference.
void eval_reference_packed(const Program& prog, PackedDist& state);

/// The boxed reference semantics, bypassing data-plane selection (the
/// oracle side of differential tests).
[[nodiscard]] Dist eval_reference_boxed(const Program& prog, Dist input);

}  // namespace colop::ir
