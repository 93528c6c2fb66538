#include "colop/ir/stage.h"

#include "colop/mpsim/balanced_tree.h"
#include "colop/support/bits.h"
#include "colop/support/error.h"

namespace colop::ir {
namespace {

// Sequentially fold element j of the distributed list over the paper's
// balanced tree: leaves are processors, unit nodes apply op((), x).
Value fold_balanced(const mpsim::BalancedTree& tree, int node,
                    const Dist& state, std::size_t j, const BalancedOp& op) {
  const auto& n = tree.node(node);
  if (n.is_leaf()) return state[static_cast<std::size_t>(n.first)][j];
  if (n.is_unit())
    return op.unit_case(fold_balanced(tree, n.right, state, j, op));
  return op.combine(fold_balanced(tree, n.left, state, j, op),
                    fold_balanced(tree, n.right, state, j, op));
}

// All collective stages require a uniform block size across processors
// (MPI's `count` is identical on every rank of a collective call).
std::size_t uniform_block_size(const Dist& state, const char* what) {
  COLOP_REQUIRE(!state.empty(), std::string(what) + ": empty distributed list");
  const std::size_t m = state[0].size();
  for (const auto& b : state)
    COLOP_REQUIRE(b.size() == m, std::string(what) + ": non-uniform block sizes");
  return m;
}

}  // namespace

void MapStage::eval_reference(Dist& state) const {
  for (auto& block : state)
    for (auto& v : block) v = fn(v);
}

void MapIndexedStage::eval_reference(Dist& state) const {
  for (std::size_t r = 0; r < state.size(); ++r)
    for (auto& v : state[r]) v = fn(static_cast<int>(r), v);
}

void ScanStage::eval_reference(Dist& state) const {
  const std::size_t m = uniform_block_size(state, "scan");
  for (std::size_t j = 0; j < m; ++j) {
    Value acc = state[0][j];
    for (std::size_t r = 1; r < state.size(); ++r) {
      acc = (*op)(acc, state[r][j]);
      state[r][j] = acc;
    }
  }
}

void ReduceStage::eval_reference(Dist& state) const {
  const std::size_t m = uniform_block_size(state, "reduce");
  const auto p = static_cast<int>(state.size());
  COLOP_REQUIRE(root >= 0 && root < p, "reduce: invalid root");
  Block result(m);
  for (std::size_t j = 0; j < m; ++j) {
    Value acc = state[0][j];
    for (std::size_t r = 1; r < state.size(); ++r) acc = (*op)(acc, state[r][j]);
    result[j] = acc;
  }
  state[static_cast<std::size_t>(root)] = std::move(result);
}

void AllReduceStage::eval_reference(Dist& state) const {
  const std::size_t m = uniform_block_size(state, "allreduce");
  Block result(m);
  for (std::size_t j = 0; j < m; ++j) {
    Value acc = state[0][j];
    for (std::size_t r = 1; r < state.size(); ++r) acc = (*op)(acc, state[r][j]);
    result[j] = acc;
  }
  for (auto& block : state) block = result;
}

void BcastStage::eval_reference(Dist& state) const {
  uniform_block_size(state, "bcast");
  const auto p = static_cast<int>(state.size());
  COLOP_REQUIRE(root >= 0 && root < p, "bcast: invalid root");
  const Block src = state[static_cast<std::size_t>(root)];
  for (auto& block : state) block = src;
}

void ScanBalancedStage::eval_reference(Dist& state) const {
  // scan_balanced is DEFINED by its butterfly schedule (Fig. 5); the
  // reference semantics simulate it sequentially, transmitting only the
  // stripped value exactly like the parallel executor does.
  uniform_block_size(state, "scan_balanced");
  const auto p = static_cast<int>(state.size());
  for (int k = 0; (1 << k) < p; ++k) {
    const Dist before = state;
    for (int r = 0; r < p; ++r) {
      const int partner = r ^ (1 << k);
      auto& block = state[static_cast<std::size_t>(r)];
      if (partner >= p) {
        for (auto& v : block) v = op2.degrade(v);
        continue;
      }
      const auto& other = before[static_cast<std::size_t>(partner)];
      const auto& own = before[static_cast<std::size_t>(r)];
      for (std::size_t j = 0; j < block.size(); ++j) {
        const Value received = op2.strip(other[j]);
        block[j] = r < partner ? op2.combine2(own[j], received).first
                               : op2.combine2(received, own[j]).second;
      }
    }
  }
}

void ReduceBalancedStage::eval_reference(Dist& state) const {
  const std::size_t m = uniform_block_size(state, "reduce_balanced");
  const auto p = static_cast<int>(state.size());
  COLOP_REQUIRE(root >= 0 && root < p, "reduce_balanced: invalid root");
  const auto tree = mpsim::BalancedTree::build(p);
  Block result(m);
  for (std::size_t j = 0; j < m; ++j)
    result[j] = fold_balanced(tree, tree.root(), state, j, op);
  state[static_cast<std::size_t>(root)] = std::move(result);
}

void AllReduceBalancedStage::eval_reference(Dist& state) const {
  const std::size_t m = uniform_block_size(state, "allreduce_balanced");
  const auto p = static_cast<int>(state.size());
  const auto tree = mpsim::BalancedTree::build(p);
  Block result(m);
  for (std::size_t j = 0; j < m; ++j)
    result[j] = fold_balanced(tree, tree.root(), state, j, op);
  for (auto& block : state) block = result;
}

Value IterStage::apply_local(int p, const Value& x) const {
  if (is_pow2(static_cast<std::uint64_t>(p))) {
    Value v = x;
    for (unsigned i = 0; i < log2_floor(static_cast<std::uint64_t>(p)); ++i)
      v = step(v);
    return v;
  }
  COLOP_REQUIRE(general_fold != nullptr,
                "iter(" + step.name +
                    "): processor count is not a power of two and no "
                    "generalized fold was provided");
  return general_fold(p, x);
}

void IterStage::eval_reference(Dist& state) const {
  uniform_block_size(state, "iter");
  const auto p = static_cast<int>(state.size());
  for (auto& v : state[0]) v = apply_local(p, v);
  // The paper: "The rest is undetermined, while the length of the result
  // is equal to the length of xs."
  for (std::size_t r = 1; r < state.size(); ++r)
    for (auto& v : state[r]) v = Value::undefined();
}

// wait(h) is a value-level no-op: the istart it completes already applied
// the collective (continuation-overlap semantics, stage.h).
void WaitStage::eval_reference(Dist& /*state*/) const {}

int splitphase_handle(const Stage& s) {
  switch (s.kind()) {
    case Stage::Kind::IStartReduce:
      return *static_cast<const ReduceStage&>(s).handle;
    case Stage::Kind::IStartBcast:
      return *static_cast<const BcastStage&>(s).handle;
    case Stage::Kind::IStartAllReduce:
      return *static_cast<const AllReduceStage&>(s).handle;
    case Stage::Kind::Wait:
      return static_cast<const WaitStage&>(s).handle;
    default:
      return -1;
  }
}

}  // namespace colop::ir
