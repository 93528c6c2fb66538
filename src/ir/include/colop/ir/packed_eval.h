#pragma once
// Data-plane selection: when a program and its data may run packed.
//
// A program runs packed when every stage has a compiled kernel AND the
// element shape stays flat (scalar or tuple-of-scalars) at every program
// point — checked statically by packed_ineligibility() via the stage shape
// transformers.  Split-phase windows qualify like any other stage: their
// segments are packed blocks too.  Data must also fit, and try_pack_for()
// checks that while it packs, in one pass over the values: the element
// arity comes from the first defined value, the program is checked against
// it, and then every block is packed (uniform block size, one arity, no
// nesting, homogeneous lanes) or the guard reports failure.  Whenever
// either check fails the callers (Program::eval_reference, the exec thread
// executor) silently fall back to the boxed path, so the flat plane is a
// pure optimization: same results, same traffic, same errors.  Both planes
// evaluate the one generic stage body (eval_stage, plane.h).
//
// A packed run's output goes back into the caller's own blocks
// (pack_for_run, then PackedBlock::unpack_into per rank): no second boxed
// Dist is built.
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

/// The complete guard: shape + capability + data, in one pass over the
/// values.  nullopt means "stay boxed".
[[nodiscard]] std::optional<PackedDist> try_pack_for(const Program& prog,
                                                     const Dist& input);

/// try_pack_for() for a run that owns `input` and unpacks into its blocks:
/// on success it frees at once the tuples the output cannot reuse (the
/// output element is not a tuple of the input's arity).
[[nodiscard]] std::optional<PackedDist> pack_for_run(const Program& prog,
                                                     Dist& input);

/// The boxed reference semantics, bypassing data-plane selection (the
/// oracle side of differential tests).
[[nodiscard]] Dist eval_reference_boxed(const Program& prog, Dist input);

}  // namespace colop::ir
