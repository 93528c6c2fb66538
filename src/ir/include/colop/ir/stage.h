#pragma once
// Stage: one step of a program in the formal framework (Section 2.2).
//
// A program is a forward composition of stages over a distributed list of
// blocks.  Local stages (map, map#, iter) involve no communication;
// collective stages (bcast, scan, reduce, ...) mirror the MPI collective
// calls.  The balanced stages carry the paper's special non-associative
// operators (reduce_balanced, scan_balanced).
//
// Every stage implements the sequential reference semantics
// (eval_reference); the executors in colop::exec run the same stages on
// the mpsim thread runtime and on the simnet cost simulator.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "colop/ir/binop.h"
#include "colop/ir/elemfn.h"
#include "colop/ir/value.h"

namespace colop::ir {

/// Combined operator for reduce_balanced (rule SR-Reduction): combine two
/// sibling values / apply the unit case op((), x) at unit nodes.
struct BalancedOp {
  std::string name;
  std::function<Value(const Value&, const Value&)> combine;
  std::function<Value(const Value&)> unit_case;
  double ops_cost = 1.0;  ///< elementary ops per combine
  int words = 1;          ///< transmitted words per element
  /// Optional flat-plane block kernels (combine/unit_case over a whole
  /// block); both present or the stage evaluates boxed.
  PackedBinFn packed_combine;
  PackedMapFn packed_unit;
};

/// Paired operator for scan_balanced (rule SS-Scan): one exchange yields
/// (lower_result, upper_result).  `degrade` handles a missing partner;
/// `strip` removes the components that are never transmitted (the scan
/// component s stays local — hence the paper's 3*tw, not 4*tw).
struct BalancedOp2 {
  std::string name;
  std::function<std::pair<Value, Value>(const Value&, const Value&)> combine2;
  std::function<Value(const Value&)> degrade;
  std::function<Value(const Value&)> strip;
  double ops_cost = 1.0;
  int words = 1;
  /// Optional flat-plane block kernels; all three present or boxed.
  PackedBinFn2 packed_combine2;
  PackedMapFn packed_degrade;
  PackedMapFn packed_strip;
};

class Stage;
using StagePtr = std::shared_ptr<const Stage>;

class Stage {
 public:
  enum class Kind {
    Map,            // map f
    MapIndexed,     // map# f
    Scan,           // scan (op)
    Reduce,         // reduce (op) to root
    AllReduce,      // allreduce (op)
    Bcast,          // bcast from root
    ScanBalanced,   // scan_balanced (op2)
    ReduceBalanced, // reduce_balanced (op)
    AllReduceBalanced,
    Iter,           // iter (f): f^(log2 p) on the root block, rest undefined
    // Split-phase (nonblocking) collectives — the MPI_I* family.  An
    // istart_X issues the collective and names a request handle; the
    // matching wait(h) completes it.  Denotationally the collective's
    // result is available immediately (the stages between istart and wait
    // operate on the continuation value), so istart_X ; L ; wait ≡ X ; L
    // exactly; the executors exploit the window to overlap the collective's
    // communication with the intervening elementwise map work.  The static
    // verifier (verify/splitphase.h, V220-V223) enforces the nonblocking
    // contracts: matching waits, no buffer reuse in flight, FIFO completion.
    IStartReduce,   // istart_reduce (op) to root, handle h
    IStartBcast,    // istart_bcast from root, handle h
    IStartAllReduce,// istart_allreduce (op), handle h
    Wait,           // wait (h): complete the outstanding collective h
  };

  virtual ~Stage() = default;
  [[nodiscard]] virtual Kind kind() const = 0;
  /// Pretty form, e.g. "scan(+)" — used by Program::show().
  [[nodiscard]] virtual std::string show() const = 0;
  /// Sequential reference semantics (Eqs 4-8, 13 and Section 3).
  virtual void eval_reference(Dist& state) const = 0;
  /// True for map/map#/iter (no communication).
  [[nodiscard]] bool is_local() const {
    const Kind k = kind();
    return k == Kind::Map || k == Kind::MapIndexed || k == Kind::Iter;
  }
};

// --- concrete stages -----------------------------------------------------

struct MapStage final : Stage {
  explicit MapStage(ElemFn f) : fn(std::move(f)) {}
  ElemFn fn;
  [[nodiscard]] Kind kind() const override { return Kind::Map; }
  [[nodiscard]] std::string show() const override { return "map(" + fn.name + ")"; }
  void eval_reference(Dist& state) const override;
};

struct MapIndexedStage final : Stage {
  explicit MapIndexedStage(ElemIdxFn f) : fn(std::move(f)) {}
  ElemIdxFn fn;
  [[nodiscard]] Kind kind() const override { return Kind::MapIndexed; }
  [[nodiscard]] std::string show() const override { return "map#(" + fn.name + ")"; }
  void eval_reference(Dist& state) const override;
};

struct ScanStage final : Stage {
  explicit ScanStage(BinOpPtr o, int elem_words = 1)
      : op(std::move(o)), words(elem_words) {}
  BinOpPtr op;
  int words;  ///< transmitted words per element (tuple arity after map pair)
  [[nodiscard]] Kind kind() const override { return Kind::Scan; }
  [[nodiscard]] std::string show() const override { return "scan(" + op->name() + ")"; }
  void eval_reference(Dist& state) const override;
};

// reduce, allreduce and bcast carry an optional request handle.  Set, the
// stage is istart_X(h): its kind is IStartX, it evaluates exactly like X
// (the continuation-overlap reading in Stage::Kind), and the matching
// wait(h) — a value-level no-op — completes it.

namespace detail {
inline std::string handle_suffix(const std::optional<int>& handle) {
  return handle.value_or(0) ? ",h=" + std::to_string(*handle) : "";
}
}  // namespace detail

struct ReduceStage final : Stage {
  explicit ReduceStage(BinOpPtr o, int root_rank = 0, int elem_words = 1,
                       std::optional<int> req_handle = std::nullopt)
      : op(std::move(o)), root(root_rank), words(elem_words), handle(req_handle) {}
  BinOpPtr op;
  int root;
  int words;  ///< transmitted words per element
  std::optional<int> handle;  ///< set for istart_reduce: its request handle
  [[nodiscard]] Kind kind() const override {
    return handle ? Kind::IStartReduce : Kind::Reduce;
  }
  [[nodiscard]] std::string show() const override {
    return (handle ? "istart_reduce(" : "reduce(") + op->name() +
           (root ? ",root=" + std::to_string(root) : "") +
           detail::handle_suffix(handle) + ")";
  }
  void eval_reference(Dist& state) const override;
};

struct AllReduceStage final : Stage {
  explicit AllReduceStage(BinOpPtr o, int elem_words = 1,
                          std::optional<int> req_handle = std::nullopt)
      : op(std::move(o)), words(elem_words), handle(req_handle) {}
  BinOpPtr op;
  int words;  ///< transmitted words per element
  std::optional<int> handle;  ///< set for istart_allreduce: its request handle
  [[nodiscard]] Kind kind() const override {
    return handle ? Kind::IStartAllReduce : Kind::AllReduce;
  }
  [[nodiscard]] std::string show() const override {
    return (handle ? "istart_allreduce(" : "allreduce(") + op->name() +
           detail::handle_suffix(handle) + ")";
  }
  void eval_reference(Dist& state) const override;
};

struct BcastStage final : Stage {
  explicit BcastStage(int root_rank = 0, int elem_words = 1,
                      std::optional<int> req_handle = std::nullopt)
      : root(root_rank), words(elem_words), handle(req_handle) {}
  int root;
  int words;  ///< transmitted words per element
  std::optional<int> handle;  ///< set for istart_bcast: its request handle
  [[nodiscard]] Kind kind() const override {
    return handle ? Kind::IStartBcast : Kind::Bcast;
  }
  [[nodiscard]] std::string show() const override {
    std::string args = root ? "root=" + std::to_string(root) : "";
    if (handle.value_or(0))
      args += (args.empty() ? "h=" : ",h=") + std::to_string(*handle);
    const std::string name = handle ? "istart_bcast" : "bcast";
    return args.empty() ? name : name + "(" + args + ")";
  }
  void eval_reference(Dist& state) const override;
};

struct ScanBalancedStage final : Stage {
  explicit ScanBalancedStage(BalancedOp2 o) : op2(std::move(o)) {}
  BalancedOp2 op2;
  [[nodiscard]] Kind kind() const override { return Kind::ScanBalanced; }
  [[nodiscard]] std::string show() const override {
    return "scan_balanced(" + op2.name + ")";
  }
  void eval_reference(Dist& state) const override;
};

struct ReduceBalancedStage final : Stage {
  explicit ReduceBalancedStage(BalancedOp o, int root_rank = 0)
      : op(std::move(o)), root(root_rank) {}
  BalancedOp op;
  int root;
  [[nodiscard]] Kind kind() const override { return Kind::ReduceBalanced; }
  [[nodiscard]] std::string show() const override {
    return "reduce_balanced(" + op.name + ")";
  }
  void eval_reference(Dist& state) const override;
};

struct AllReduceBalancedStage final : Stage {
  explicit AllReduceBalancedStage(BalancedOp o) : op(std::move(o)) {}
  BalancedOp op;
  [[nodiscard]] Kind kind() const override { return Kind::AllReduceBalanced; }
  [[nodiscard]] std::string show() const override {
    return "allreduce_balanced(" + op.name + ")";
  }
  void eval_reference(Dist& state) const override;
};

/// iter f [x, _, ..., _] = [f^(log2 p) x, _, ..., _]   (Section 3.5)
///
/// The paper's doubling step is exact only for p = 2^k.  For other p the
/// stage falls back to `general_fold` (square-and-multiply over the binary
/// digits of p, built by the rules) if provided, else throws colop::Error.
struct IterStage final : Stage {
  IterStage(ElemFn step_fn,
            std::function<Value(int, const Value&)> general = nullptr)
      : step(std::move(step_fn)), general_fold(std::move(general)) {}
  ElemFn step;
  /// general_fold(p, x): exact local result for arbitrary p (extension).
  std::function<Value(int, const Value&)> general_fold;
  [[nodiscard]] Kind kind() const override { return Kind::Iter; }
  [[nodiscard]] std::string show() const override { return "iter(" + step.name + ")"; }
  void eval_reference(Dist& state) const override;
  /// Shared by the reference evaluator and the executors.
  [[nodiscard]] Value apply_local(int p, const Value& x) const;
};

struct WaitStage final : Stage {
  explicit WaitStage(int req_handle = 0) : handle(req_handle) {}
  int handle;  ///< request handle of the istart this completes
  [[nodiscard]] Kind kind() const override { return Kind::Wait; }
  [[nodiscard]] std::string show() const override {
    return handle ? "wait(h=" + std::to_string(handle) + ")" : "wait";
  }
  void eval_reference(Dist& state) const override;
};

/// True for the three istart kinds.
inline bool is_istart(Stage::Kind k) {
  return k == Stage::Kind::IStartReduce || k == Stage::Kind::IStartBcast ||
         k == Stage::Kind::IStartAllReduce;
}

/// Request handle of an istart/wait stage; -1 for every other kind.
int splitphase_handle(const Stage& s);

}  // namespace colop::ir
