#include "colop/ir/stage.h"

#include <iterator>
#include <string>
#include <vector>

#include "colop/ir/plane.h"

#include "colop/mpsim/balanced_tree.h"
#include "colop/support/bits.h"
#include "colop/support/error.h"

namespace colop::ir {
namespace {

// Sequentially fold the distributed list over the paper's balanced tree,
// a block at a time: leaves are processors, unit nodes apply op((), x).
template <typename B>
B fold_balanced(const mpsim::BalancedTree& tree, int node,
                const std::vector<B>& state, const BalancedOp& op) {
  const auto& n = tree.node(node);
  if (n.is_leaf()) return state[static_cast<std::size_t>(n.first)];
  if (n.is_unit())
    return Plane<B>::unit(op)(fold_balanced(tree, n.right, state, op));
  return Plane<B>::combine(op)(fold_balanced(tree, n.left, state, op),
                               fold_balanced(tree, n.right, state, op));
}

// A combined result lands on the root, or on every rank: copies to ranks
// 1..p-1, the original moves into rank 0.
template <typename B>
void deliver(const Stage& stage, B result, std::vector<B>& state) {
  if (stage.row().names_root) {
    state[static_cast<std::size_t>(stage.root_rank())] = std::move(result);
    return;
  }
  for (std::size_t r = 1; r < state.size(); ++r) state[r] = result;
  state[0] = std::move(result);
}

}  // namespace

template <typename B>
void eval_stage(const Stage& stage, std::vector<B>& state) {
  using P = Plane<B>;
  using Kind = Stage::Kind;
  const auto p = static_cast<int>(state.size());
  // Collectives need one block per rank, all of one size (MPI's `count` is
  // the same on every rank of a call).  Errors name an istart by its
  // blocking twin.
  const KindRow& row = stage.row();
  const auto fail = [&row](const char* what) {
    throw_error(std::string(row.role == WindowRole::istart ? kind_row(row.twin).keyword
                                                           : row.keyword) +
                what);
  };
  if (row.role != WindowRole::elementwise && row.role != WindowRole::wait) {
    if (state.empty()) fail(": empty distributed list");
    for (const auto& b : state)
      if (b.size() != state[0].size()) fail(": non-uniform block sizes");
  }
  if (row.names_root && (stage.root_rank() < 0 || stage.root_rank() >= p))
    fail(": invalid root");
  switch (stage.kind()) {
    case Kind::Map:
      for (auto& block : state) P::map(static_cast<const MapStage&>(stage).fn, block);
      return;
    case Kind::MapIndexed:
      for (std::size_t r = 0; r < state.size(); ++r)
        P::map(static_cast<const MapIndexedStage&>(stage).fn, static_cast<int>(r),
               state[r]);
      return;
    case Kind::Scan:
      for (std::size_t r = 1; r < state.size(); ++r)
        state[r] = P::binop(*stage.binop())(state[r - 1], std::move(state[r]));
      return;
    // An istart evaluates exactly like its blocking twin, and wait(h) is a
    // value-level no-op (the continuation-overlap reading, stage.h).
    case Kind::Reduce:
    case Kind::IStartReduce:
    case Kind::AllReduce:
    case Kind::IStartAllReduce: {
      B acc = state[0];
      for (std::size_t r = 1; r < state.size(); ++r)
        acc = P::binop(*stage.binop())(std::move(acc), state[r]);
      deliver(stage, std::move(acc), state);
      return;
    }
    case Kind::Bcast:
    case Kind::IStartBcast: {
      const B& src = state[static_cast<std::size_t>(stage.root_rank())];
      for (auto& block : state)
        if (&block != &src) block = src;
      return;
    }
    case Kind::ScanBalanced: {
      // scan_balanced is DEFINED by its butterfly schedule (Fig. 5); the
      // reference simulates it sequentially, transmitting only the
      // stripped value exactly like the parallel executor does.  Each
      // phase reads `state` and writes `next`; a rank without a partner is
      // read by no one, so its block moves through degrade.
      const auto& op2 = static_cast<const ScanBalancedStage&>(stage).op2;
      std::vector<B> next(state.size());
      for (int k = 0; (1 << k) < p; ++k) {
        for (int r = 0; r < p; ++r) {
          const int partner = r ^ (1 << k);
          auto& own = state[static_cast<std::size_t>(r)];
          auto& block = next[static_cast<std::size_t>(r)];
          if (partner >= p) {
            block = P::degrade(op2)(std::move(own));
            continue;
          }
          B received = P::strip(op2)(state[static_cast<std::size_t>(partner)]);
          block = r < partner ? P::combine2(op2)(own, std::move(received)).first
                              : P::combine2(op2)(std::move(received), own).second;
        }
        state.swap(next);
      }
      return;
    }
    case Kind::ReduceBalanced:
    case Kind::AllReduceBalanced: {
      const auto& op = stage.kind() == Kind::ReduceBalanced
                           ? static_cast<const ReduceBalancedStage&>(stage).op
                           : static_cast<const AllReduceBalancedStage&>(stage).op;
      const auto tree = mpsim::BalancedTree::build(p);
      deliver(stage, fold_balanced(tree, tree.root(), state, op), state);
      return;
    }
    case Kind::Iter:
      // The paper: "The rest is undetermined, while the length of the
      // result is equal to the length of xs."
      P::iter_local(static_cast<const IterStage&>(stage), p, state[0]);
      for (std::size_t r = 1; r < state.size(); ++r) P::make_undefined(state[r]);
      return;
    case Kind::Wait:
      return;
  }
  COLOP_ASSERT(false, "unhandled stage kind");
}

template void eval_stage<Block>(const Stage&, std::vector<Block>&);
template void eval_stage<PackedBlock>(const Stage&, std::vector<PackedBlock>&);

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
     .names_root = true, .regroups = kTree, .balanced = "reduce_balanced",
     .kernel_owner = "operator", .kernel_gap = kNoKernel},
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
     .regroups = kButterfly, .balanced = "allreduce_balanced",
     .kernel_owner = "operator", .kernel_gap = kNoKernel},
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
