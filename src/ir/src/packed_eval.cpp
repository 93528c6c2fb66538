#include "colop/ir/packed_eval.h"

#include "colop/mpsim/balanced_tree.h"
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

PackedBlock fold_balanced_packed(const mpsim::BalancedTree& tree, int node,
                                 const PackedDist& state,
                                 const BalancedOp& op) {
  const auto& n = tree.node(node);
  if (n.is_leaf()) return state[static_cast<std::size_t>(n.first)];
  if (n.is_unit())
    return op.packed_unit(fold_balanced_packed(tree, n.right, state, op));
  return op.packed_combine(fold_balanced_packed(tree, n.left, state, op),
                           fold_balanced_packed(tree, n.right, state, op));
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
      if (row.role == WindowRole::istart || row.role == WindowRole::wait)
        return PackedIneligibility{
            i, "split-phase stages are boxed-only (the overlap window "
               "engine pipelines boxed segments)"};
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

std::optional<Shape> dist_shape(const Dist& input) {
  std::optional<Shape> shape;
  for (const Block& block : input) {
    for (const Value& v : block) {
      if (v.is_undefined()) continue;
      Shape s;
      if (v.is_number()) {
        s = Shape::scalar();
      } else if (v.is_tuple()) {
        const Tuple& t = v.as_tuple();
        if (t.empty()) return std::nullopt;
        for (const Value& c : t)
          if (!c.is_number() && !c.is_undefined()) return std::nullopt;
        s = Shape::replicate(Shape::scalar(), static_cast<int>(t.size()));
      } else {
        return std::nullopt;
      }
      if (!shape)
        shape = s;
      else if (!(*shape == s))
        return std::nullopt;
    }
  }
  return shape ? *shape : Shape::scalar();
}

std::optional<PackedDist> try_pack_dist(const Dist& input) {
  if (input.empty()) return std::nullopt;
  const std::size_t m = input[0].size();
  PackedDist out;
  out.reserve(input.size());
  for (const Block& block : input) {
    if (block.size() != m) return std::nullopt;  // collectives need uniform m
    auto packed = PackedBlock::pack(block);
    if (!packed) return std::nullopt;
    out.push_back(std::move(*packed));
  }
  return out;
}

Dist unpack_dist(const PackedDist& packed) {
  Dist out;
  out.reserve(packed.size());
  for (const PackedBlock& b : packed) out.push_back(b.unpack());
  return out;
}

std::optional<PackedDist> try_pack_for(const Program& prog,
                                       const Dist& input) {
  if (input.empty()) return std::nullopt;
  const auto shape = dist_shape(input);
  if (!shape) return std::nullopt;
  if (!packable(prog, *shape, static_cast<int>(input.size()))) return std::nullopt;
  return try_pack_dist(input);
}

void eval_reference_packed(const Program& prog, PackedDist& state) {
  COLOP_REQUIRE(!state.empty(), "eval_reference_packed: empty distributed list");
  const auto p = static_cast<int>(state.size());
  for (const auto& stage : prog.stages()) {
    switch (stage->kind()) {
      case Stage::Kind::Map: {
        const auto& st = static_cast<const MapStage&>(*stage);
        for (auto& block : state) block = st.fn.packed_fn(std::move(block));
        break;
      }
      case Stage::Kind::MapIndexed: {
        const auto& st = static_cast<const MapIndexedStage&>(*stage);
        for (std::size_t r = 0; r < state.size(); ++r)
          state[r] = st.fn.packed_fn(static_cast<int>(r), std::move(state[r]));
        break;
      }
      case Stage::Kind::Scan: {
        const auto& st = static_cast<const ScanStage&>(*stage);
        for (std::size_t r = 1; r < state.size(); ++r)
          state[r] = st.op->packed()(state[r - 1], state[r]);
        break;
      }
      case Stage::Kind::Reduce: {
        const auto& st = static_cast<const ReduceStage&>(*stage);
        COLOP_REQUIRE(st.root >= 0 && st.root < p, "reduce: invalid root");
        PackedBlock acc = state[0];
        for (std::size_t r = 1; r < state.size(); ++r)
          acc = st.op->packed()(acc, state[r]);
        state[static_cast<std::size_t>(st.root)] = std::move(acc);
        break;
      }
      case Stage::Kind::AllReduce: {
        const auto& st = static_cast<const AllReduceStage&>(*stage);
        PackedBlock acc = state[0];
        for (std::size_t r = 1; r < state.size(); ++r)
          acc = st.op->packed()(acc, state[r]);
        for (std::size_t r = 1; r < state.size(); ++r) state[r] = acc;
        state[0] = std::move(acc);
        break;
      }
      case Stage::Kind::Bcast: {
        const auto& st = static_cast<const BcastStage&>(*stage);
        COLOP_REQUIRE(st.root >= 0 && st.root < p, "bcast: invalid root");
        const PackedBlock& src = state[static_cast<std::size_t>(st.root)];
        for (auto& block : state)
          if (&block != &src) block = src;
        break;
      }
      case Stage::Kind::ScanBalanced: {
        // Mirror of the boxed butterfly simulation, stripped values and
        // all (stage.cpp) — blockwise instead of elementwise.
        // Each phase reads `state` and writes `next`; a rank without a
        // partner is read by no one, so its block moves through degrade.
        const auto& op2 = static_cast<const ScanBalancedStage&>(*stage).op2;
        PackedDist next(state.size());
        for (int k = 0; (1 << k) < p; ++k) {
          for (int r = 0; r < p; ++r) {
            const int partner = r ^ (1 << k);
            auto& own = state[static_cast<std::size_t>(r)];
            auto& block = next[static_cast<std::size_t>(r)];
            if (partner >= p) {
              block = op2.packed_degrade(std::move(own));
              continue;
            }
            const PackedBlock received =
                op2.packed_strip(state[static_cast<std::size_t>(partner)]);
            block = r < partner ? op2.packed_combine2(own, received).first
                                : op2.packed_combine2(received, own).second;
          }
          state.swap(next);
        }
        break;
      }
      case Stage::Kind::ReduceBalanced: {
        const auto& st = static_cast<const ReduceBalancedStage&>(*stage);
        COLOP_REQUIRE(st.root >= 0 && st.root < p,
                      "reduce_balanced: invalid root");
        const auto tree = mpsim::BalancedTree::build(p);
        PackedBlock result =
            fold_balanced_packed(tree, tree.root(), state, st.op);
        state[static_cast<std::size_t>(st.root)] = std::move(result);
        break;
      }
      case Stage::Kind::AllReduceBalanced: {
        const auto& st = static_cast<const AllReduceBalancedStage&>(*stage);
        const auto tree = mpsim::BalancedTree::build(p);
        PackedBlock result =
            fold_balanced_packed(tree, tree.root(), state, st.op);
        for (std::size_t r = 1; r < state.size(); ++r) state[r] = result;
        state[0] = std::move(result);
        break;
      }
      case Stage::Kind::Iter: {
        const auto& st = static_cast<const IterStage&>(*stage);
        COLOP_REQUIRE(is_pow2(static_cast<std::uint64_t>(p)),
                      "iter: packed plane requires a power-of-two p");
        PackedBlock& head = state[0];
        for (unsigned i = 0; i < log2_floor(static_cast<std::uint64_t>(p)); ++i)
          head = st.step.packed_fn(std::move(head));
        for (std::size_t r = 1; r < state.size(); ++r)
          state[r] = PackedBlock::wild(state[r].size());
        break;
      }
      case Stage::Kind::IStartReduce:
      case Stage::Kind::IStartBcast:
      case Stage::Kind::IStartAllReduce:
      case Stage::Kind::Wait:
        // packed_ineligibility() rejects split-phase programs before this point.
        throw_error("eval_reference_packed: split-phase stages are boxed-only");
    }
  }
}

Dist eval_reference_boxed(const Program& prog, Dist input) {
  for (const auto& s : prog.stages()) s->eval_reference(input);
  return input;
}

}  // namespace colop::ir
