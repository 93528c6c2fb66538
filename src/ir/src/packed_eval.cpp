#include "colop/ir/packed_eval.h"

#include "colop/ir/plane.h"
#include "colop/support/bits.h"
#include "colop/support/error.h"

namespace colop::ir {
namespace {

bool flat(const Shape& s) {
  if (s.is_scalar()) return true;
  for (const auto& c : s.components())
    if (!c.is_scalar()) return false;
  return true;
}

}  // namespace

std::optional<PackedIneligibility> packed_ineligibility(const Program& prog,
                                                       const Shape& input,
                                                       int p) {
  // Reasons are built only on the way out: an eligible program allocates
  // nothing here beyond what its stages' shape transformers do.
  if (!flat(input))
    return PackedIneligibility{std::nullopt,
                               "input element shape " + input.to_string() +
                                   " is nested — the flat plane handles "
                                   "scalars and flat tuples only"};
  Shape s = input;
  try {
    for (std::size_t i = 0; i < prog.size(); ++i) {
      const Stage& stage = prog.stage(i);
      const KindRow& row = stage.row();
      // The doubling step applies verbatim only for p = 2^k; the
      // generalized fold is an arbitrary boxed function, so other p stay
      // on the boxed path entirely.
      const auto* iter = stage.kind() == Stage::Kind::Iter
                             ? static_cast<const IterStage*>(&stage)
                             : nullptr;
      if (iter != nullptr && !is_pow2(static_cast<std::uint64_t>(p)))
        return PackedIneligibility{
            i, "iter's generalized fold (p = " + std::to_string(p) +
                   " is not a power of two) is boxed-only"};
      if (!stage.has_packed_kernels())
        return PackedIneligibility{
            i, std::string(row.kernel_owner) + " `" + stage.label() + "` " +
                   std::string(row.kernel_gap)};
      if (iter != nullptr && !(iter->step.apply_shape(s) == s))  // log2(p) times
        return PackedIneligibility{
            i, "iter step changes the element shape, which the repeated "
               "packed application cannot express"};
      if (row.role != WindowRole::elementwise) continue;
      s = stage.apply_shape(s);
      if (!flat(s))
        return PackedIneligibility{
            i, "element shape becomes nested (" + s.to_string() + ")"};
    }
  } catch (const Error& e) {
    // A shape transformer rejected (pi_1 of a scalar, ...).
    return PackedIneligibility{
        std::nullopt, std::string("shape transformer rejected: ") + e.what()};
  }
  return std::nullopt;
}

std::optional<PackedDist> try_pack_for(const Program& prog,
                                       const Dist& input) {
  if (input.empty()) return std::nullopt;
  // The first defined value fixes the arity, and packing holds every
  // other value to it.
  const auto arity = PackedBlock::arity_of(input);
  if (!arity) return std::nullopt;
  const Shape shape = *arity >= 1 ? Shape::replicate(Shape::scalar(), *arity)
                                  : Shape::scalar();
  if (!packable(prog, shape, static_cast<int>(input.size()))) return std::nullopt;
  const std::size_t m = input[0].size();
  PackedDist out;
  out.reserve(input.size());
  for (const Block& block : input) {
    if (block.size() != m) return std::nullopt;  // collectives need uniform m
    auto packed = PackedBlock::pack(block, *arity);
    if (!packed) return std::nullopt;
    out.push_back(std::move(*packed));
  }
  return out;
}

std::optional<PackedDist> pack_for_run(const Program& prog, Dist& input) {
  auto packed = try_pack_for(prog, input);
  const int arity = packed ? *PackedBlock::arity_of(input) : 0;
  if (arity >= 1) {
    // Only the elementwise stages change the element shape, and
    // packable() has walked them already, so none of these throws.
    const Shape in = Shape::replicate(Shape::scalar(), arity);
    Shape out = in;
    for (const auto& stage : prog.stages())
      if (stage->row().role == WindowRole::elementwise) out = stage->apply_shape(out);
    if (!(out == in))
      for (Block& block : input) block.clear();  // keeps the block's buffer
  }
  return packed;
}

Dist eval_reference_boxed(const Program& prog, Dist input) {
  for (const auto& s : prog.stages()) eval_stage(*s, input);
  return input;
}

}  // namespace colop::ir
