#include "colop/ir/stage.h"

#include <iterator>

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

const std::string& Stage::label() const {
  static const std::string none;
  return none;
}

const BinOpPtr& Stage::binop() const {
  static const BinOpPtr none;
  return none;
}

std::string Stage::show() const {
  const KindRow& r = row();
  std::string args = label();
  const auto key = [&args](const char* name, int value) {
    args += (args.empty() ? "" : ",") + std::string(name) + std::to_string(value);
  };
  if (r.root_arg && root_rank() != 0) key("root=", root_rank());
  if (r.handle_arg && request_handle() != 0) key("h=", request_handle());
  std::string text(r.keyword);
  if (r.label == Label::none && args.empty()) return text;
  return text + "(" + args + ")";
}

namespace {

using Kind = Stage::Kind;

template <typename S, typename... Field>
StagePtr make(Field... field) {
  return std::make_shared<S>(std::move(field)...);
}

constexpr std::string_view kTree = "a tree schedule of this reduction";
constexpr std::string_view kButterfly = "a butterfly schedule of this collective";
constexpr std::string_view kNoKernel = "has no packed kernel";
constexpr std::string_view kMissingKernel = "is missing a packed kernel";

// The stage-kind table, in Kind order.
constexpr KindRow kRows[] = {
    {.kind = Kind::Map, .keyword = "map", .twin = Kind::Map, .label = Label::fn,
     .make = [](KindArgs&& a) { return make<MapStage>(std::move(a.fn)); },
     .role = WindowRole::elementwise, .persistent = true, .shape = ShapeStep::local,
     .kernel_owner = "map function", .kernel_gap = kNoKernel},
    {.kind = Kind::MapIndexed, .keyword = "map#", .twin = Kind::MapIndexed,
     .label = Label::fn, .role = WindowRole::elementwise, .persistent = true,
     .shape = ShapeStep::local, .post = PostState::rank_dependent,
     .kernel_owner = "map# function", .kernel_gap = kNoKernel},
    {.kind = Kind::Scan, .keyword = "scan", .twin = Kind::Scan, .label = Label::op,
     .make = [](KindArgs&& a) { return make<ScanStage>(std::move(a.op), a.words); },
     .post = PostState::varied, .reads = Reads::all,
     .regroups = "a tree/butterfly schedule of this collective",
     .balanced = "scan_balanced (built for non-associative combine schemes)",
     .kernel_owner = "operator", .kernel_gap = kNoKernel},
    {.kind = Kind::Reduce, .keyword = "reduce", .twin = Kind::IStartReduce,
     .label = Label::op, .root_arg = true,
     .make = [](KindArgs&& a) {
       return make<ReduceStage>(std::move(a.op), a.root, a.words);
     },
     .post = PostState::root_only, .reads = Reads::all, .names_root = true,
     .regroups = kTree, .balanced = "reduce_balanced", .kernel_owner = "operator",
     .kernel_gap = kNoKernel},
    {.kind = Kind::AllReduce, .keyword = "allreduce", .twin = Kind::IStartAllReduce,
     .label = Label::op,
     .make = [](KindArgs&& a) {
       return make<AllReduceStage>(std::move(a.op), a.words);
     },
     .post = PostState::uniform, .reads = Reads::all, .regroups = kButterfly,
     .balanced = "allreduce_balanced", .kernel_owner = "operator",
     .kernel_gap = kNoKernel},
    {.kind = Kind::Bcast, .keyword = "bcast", .twin = Kind::IStartBcast,
     .root_arg = true,
     .make = [](KindArgs&& a) { return make<BcastStage>(a.root, a.words); },
     .post = PostState::uniform, .reads = Reads::root, .names_root = true},
    {.kind = Kind::ScanBalanced, .keyword = "scan_balanced",
     .twin = Kind::ScanBalanced, .label = Label::op, .persistent = true,
     .shape = ShapeStep::tail_words, .post = PostState::varied, .reads = Reads::all,
     .kernel_owner = "balanced operator",
     .kernel_gap = "is missing one of its three packed kernels"},
    {.kind = Kind::ReduceBalanced, .keyword = "reduce_balanced",
     .twin = Kind::ReduceBalanced, .label = Label::op, .persistent = true,
     .post = PostState::root_only, .reads = Reads::all, .names_root = true,
     .kernel_owner = "balanced operator", .kernel_gap = kMissingKernel},
    {.kind = Kind::AllReduceBalanced, .keyword = "allreduce_balanced",
     .twin = Kind::AllReduceBalanced, .label = Label::op, .persistent = true,
     .post = PostState::uniform, .reads = Reads::all,
     .kernel_owner = "balanced operator", .kernel_gap = kMissingKernel},
    {.kind = Kind::Iter, .keyword = "iter", .twin = Kind::Iter, .label = Label::fn,
     .role = WindowRole::local, .persistent = true, .shape = ShapeStep::local,
     .post = PostState::root_only, .reads = Reads::rank0, .kernel_owner = "iter step",
     .kernel_gap = kNoKernel},
    {.kind = Kind::IStartReduce, .keyword = "istart_reduce", .twin = Kind::Reduce,
     .label = Label::op, .root_arg = true, .handle_arg = true,
     .make = [](KindArgs&& a) {
       return make<ReduceStage>(std::move(a.op), a.root, a.words,
                                std::optional(a.handle));
     },
     .role = WindowRole::istart, .post = PostState::root_only, .reads = Reads::all,
     .names_root = true, .regroups = kTree, .balanced = "reduce_balanced"},
    {.kind = Kind::IStartBcast, .keyword = "istart_bcast", .twin = Kind::Bcast,
     .root_arg = true, .handle_arg = true,
     .make = [](KindArgs&& a) {
       return make<BcastStage>(a.root, a.words, std::optional(a.handle));
     },
     .role = WindowRole::istart, .post = PostState::uniform, .reads = Reads::root,
     .names_root = true},
    {.kind = Kind::IStartAllReduce, .keyword = "istart_allreduce",
     .twin = Kind::AllReduce, .label = Label::op, .handle_arg = true,
     .make = [](KindArgs&& a) {
       return make<AllReduceStage>(std::move(a.op), a.words, std::optional(a.handle));
     },
     .role = WindowRole::istart, .post = PostState::uniform, .reads = Reads::all,
     .regroups = kButterfly, .balanced = "allreduce_balanced"},
    {.kind = Kind::Wait, .keyword = "wait", .twin = Kind::Wait, .handle_arg = true,
     .make = [](KindArgs&& a) { return make<WaitStage>(a.handle); },
     .role = WindowRole::wait, .shape = ShapeStep::local},
};

constexpr bool one_row_per_kind() {
  constexpr auto kinds = static_cast<std::size_t>(Kind::Wait) + 1;
  if (std::size(kRows) != kinds) return false;
  for (std::size_t i = 0; i < kinds; ++i)
    if (kRows[i].kind != static_cast<Kind>(i)) return false;
  return true;
}
static_assert(one_row_per_kind(),
              "the stage-kind table needs one row per Stage::Kind, in order");

}  // namespace

const KindRow& kind_row(Stage::Kind kind) {
  return kRows[static_cast<std::size_t>(kind)];
}

const KindRow* textual_row(std::string_view keyword) {
  for (const KindRow& r : kRows)
    if (r.make != nullptr && r.keyword == keyword) return &r;
  return nullptr;
}

}  // namespace colop::ir
