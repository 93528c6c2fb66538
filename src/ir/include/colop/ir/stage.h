#pragma once
// Stage: one step of a program in the formal framework (Section 2.2).
//
// A program is a forward composition of stages over a distributed list of
// blocks.  Local stages (map, map#, iter) involve no communication;
// collective stages (bcast, scan, reduce, ...) mirror the MPI collective
// calls.  The balanced stages carry the paper's special non-associative
// operators (reduce_balanced, scan_balanced).
//
// The sequential reference semantics of every kind is one generic body
// over the block type (eval_stage, plane.h); the executors in colop::exec
// run the same stages on the mpsim thread runtime and on the simnet cost
// simulator.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
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
struct KindRow;

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
  /// This kind's row of the stage-kind table (kind_row).
  [[nodiscard]] const KindRow& row() const;
  /// Pretty form built from the row's keyword and this stage's arguments,
  /// e.g. "scan(+)" — used by Program::show().
  [[nodiscard]] std::string show() const;
  /// True for map/map#/iter (no communication).
  [[nodiscard]] bool is_local() const;

  // Per-instance facts, the same accessors for every kind; the row says
  // which ones a kind has, and the defaults answer for the others.
  /// The operator or function name show() prints first; empty for
  /// bcast/wait.
  [[nodiscard]] virtual const std::string& label() const;
  /// The declared operator of scan/reduce/allreduce and their istart
  /// twins; null for every other kind.
  [[nodiscard]] virtual const BinOpPtr& binop() const;
  /// The rank a stage roots at (reduce, bcast, reduce_balanced and their
  /// twins) or leaves its result on (iter: 0); 0 for every other kind.
  [[nodiscard]] virtual int root_rank() const { return 0; }
  /// Request handle of an istart/wait stage; -1 for every other kind.
  [[nodiscard]] virtual int request_handle() const { return -1; }
  /// Declared transmitted words per element; 0 for stages that send nothing.
  [[nodiscard]] virtual int wire_words() const { return 0; }
  /// Element shape after the stage (map/map# apply their function's
  /// transformer; every other kind preserves the shape).
  [[nodiscard]] virtual Shape apply_shape(const Shape& in) const { return in; }
  /// Every flat-plane kernel the stage's evaluation calls is present.
  [[nodiscard]] virtual bool has_packed_kernels() const { return true; }
};

// --- concrete stages -----------------------------------------------------

struct MapStage final : Stage {
  explicit MapStage(ElemFn f) : fn(std::move(f)) {}
  ElemFn fn;
  [[nodiscard]] Kind kind() const override { return Kind::Map; }
  [[nodiscard]] const std::string& label() const override { return fn.name; }
  [[nodiscard]] Shape apply_shape(const Shape& in) const override {
    return fn.apply_shape(in);
  }
  [[nodiscard]] bool has_packed_kernels() const override {
    return fn.packed_fn != nullptr;
  }
};

struct MapIndexedStage final : Stage {
  explicit MapIndexedStage(ElemIdxFn f) : fn(std::move(f)) {}
  ElemIdxFn fn;
  [[nodiscard]] Kind kind() const override { return Kind::MapIndexed; }
  [[nodiscard]] const std::string& label() const override { return fn.name; }
  [[nodiscard]] Shape apply_shape(const Shape& in) const override {
    return fn.apply_shape(in);
  }
  [[nodiscard]] bool has_packed_kernels() const override {
    return fn.packed_fn != nullptr;
  }
};

struct ScanStage final : Stage {
  explicit ScanStage(BinOpPtr o, int elem_words = 1)
      : op(std::move(o)), words(elem_words) {}
  BinOpPtr op;
  int words;  ///< transmitted words per element (tuple arity after map pair)
  [[nodiscard]] Kind kind() const override { return Kind::Scan; }
  [[nodiscard]] const std::string& label() const override { return op->name(); }
  [[nodiscard]] const BinOpPtr& binop() const override { return op; }
  [[nodiscard]] int wire_words() const override { return words; }
  [[nodiscard]] bool has_packed_kernels() const override { return op->has_packed(); }
};

// reduce, allreduce and bcast carry an optional request handle.  Set, the
// stage is istart_X(h): its kind is IStartX, it evaluates exactly like X
// (the continuation-overlap reading in Stage::Kind), and the matching
// wait(h) — a value-level no-op — completes it.

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
  [[nodiscard]] const std::string& label() const override { return op->name(); }
  [[nodiscard]] const BinOpPtr& binop() const override { return op; }
  [[nodiscard]] int root_rank() const override { return root; }
  [[nodiscard]] int request_handle() const override { return handle.value_or(-1); }
  [[nodiscard]] int wire_words() const override { return words; }
  [[nodiscard]] bool has_packed_kernels() const override { return op->has_packed(); }
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
  [[nodiscard]] const std::string& label() const override { return op->name(); }
  [[nodiscard]] const BinOpPtr& binop() const override { return op; }
  [[nodiscard]] int request_handle() const override { return handle.value_or(-1); }
  [[nodiscard]] int wire_words() const override { return words; }
  [[nodiscard]] bool has_packed_kernels() const override { return op->has_packed(); }
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
  [[nodiscard]] int root_rank() const override { return root; }
  [[nodiscard]] int request_handle() const override { return handle.value_or(-1); }
  [[nodiscard]] int wire_words() const override { return words; }
};

struct ScanBalancedStage final : Stage {
  explicit ScanBalancedStage(BalancedOp2 o) : op2(std::move(o)) {}
  BalancedOp2 op2;
  [[nodiscard]] Kind kind() const override { return Kind::ScanBalanced; }
  [[nodiscard]] const std::string& label() const override { return op2.name; }
  [[nodiscard]] int wire_words() const override { return op2.words; }
  [[nodiscard]] bool has_packed_kernels() const override {
    return op2.packed_combine2 && op2.packed_degrade && op2.packed_strip;
  }
};

struct ReduceBalancedStage final : Stage {
  explicit ReduceBalancedStage(BalancedOp o, int root_rank = 0)
      : op(std::move(o)), root(root_rank) {}
  BalancedOp op;
  int root;
  [[nodiscard]] Kind kind() const override { return Kind::ReduceBalanced; }
  [[nodiscard]] const std::string& label() const override { return op.name; }
  [[nodiscard]] int root_rank() const override { return root; }
  [[nodiscard]] int wire_words() const override { return op.words; }
  [[nodiscard]] bool has_packed_kernels() const override {
    return op.packed_combine && op.packed_unit;
  }
};

struct AllReduceBalancedStage final : Stage {
  explicit AllReduceBalancedStage(BalancedOp o) : op(std::move(o)) {}
  BalancedOp op;
  [[nodiscard]] Kind kind() const override { return Kind::AllReduceBalanced; }
  [[nodiscard]] const std::string& label() const override { return op.name; }
  [[nodiscard]] int wire_words() const override { return op.words; }
  [[nodiscard]] bool has_packed_kernels() const override {
    return op.packed_combine && op.packed_unit;
  }
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
  [[nodiscard]] const std::string& label() const override { return step.name; }
  [[nodiscard]] bool has_packed_kernels() const override {
    return step.packed_fn != nullptr;
  }
  /// Shared by the reference evaluator and the executors.
  [[nodiscard]] Value apply_local(int p, const Value& x) const;
};

struct WaitStage final : Stage {
  explicit WaitStage(int req_handle = 0) : handle(req_handle) {}
  int handle;  ///< request handle of the istart this completes
  [[nodiscard]] Kind kind() const override { return Kind::Wait; }
  [[nodiscard]] int request_handle() const override { return handle; }
};

// --- the stage-kind table ------------------------------------------------
//
// One row per Stage::Kind holds every fact the analyses read about a kind:
// how it is spelled, where it may sit in a split-phase window, how search
// prices it, and how it steps the element shape and the distribution
// state.  The per-instance facts (operator, root, handle, words) come from
// the Stage accessors above.  A new kind is one row plus its evaluators
// (one case in eval_stage<B> and in exec::exec_stage<B>, the simnet
// executor, the cost model) and its tests.

/// The first text argument: none (bcast, wait), an element function
/// (map, map#, iter) or an operator (the combining collectives).
enum class Label : std::uint8_t { none, fn, op };

/// Where a stage may sit relative to a split-phase window.
enum class WindowRole : std::uint8_t {
  elementwise,  ///< map/map#: legal inside a window, the overlapped work
  local,        ///< iter: no communication, but reads the whole value
  collective,   ///< a blocking collective
  istart,       ///< issues a request
  wait,         ///< completes one
};

/// Element-shape step: local stages apply Stage::apply_shape; collectives
/// check their declared words against what the shape transmits — every
/// word, or all but the first tuple component (scan_balanced keeps the scan
/// value local: op_ss's 4 scalars send 3).
enum class ShapeStep : std::uint8_t { local, all_words, tail_words };

/// Distribution state after the stage (verify/schedule.h).
enum class PostState : std::uint8_t {
  unchanged,       ///< map, wait
  rank_dependent,  ///< map#: replicated data stops being so
  varied,          ///< scan: rank-distinct prefixes
  root_only,       ///< defined only at root_rank()
  uniform,         ///< every rank holds the same value
};

/// Which blocks a stage reads, and so what it needs defined.
enum class Reads : std::uint8_t {
  own,    ///< its own block only
  all,    ///< combines every rank's block: all must be defined (V201)
  root,   ///< bcast: the root's block (V202)
  rank0,  ///< iter: rank 0's block (V201, V204)
};

/// Arguments of a textual stage: what the parser read, consumed by the
/// row's factory.
struct KindArgs {
  BinOpPtr op;
  ElemFn fn;
  int root = 0;
  int handle = 0;
  int words = 1;
};

struct KindRow {
  Stage::Kind kind;
  std::string_view keyword;
  Stage::Kind twin;  ///< blocking <-> istart twin; itself when it has none
  Label label = Label::none;
  bool root_arg = false;    ///< text argument `root=`
  bool handle_arg = false;  ///< text argument `h=`
  /// Builds the stage from text arguments; null for kinds the text syntax
  /// does not spell.
  StagePtr (*make)(KindArgs&&) = nullptr;
  WindowRole role = WindowRole::collective;
  /// Search keeps it: no rule's left-hand side consumes it
  /// (rules::search_persistent_stage).
  bool persistent = false;
  ShapeStep shape = ShapeStep::all_words;
  PostState post = PostState::unchanged;
  Reads reads = Reads::own;
  bool names_root = false;  ///< root_rank() must lie in [0, p) (V203)
  /// Associativity contract (V207): the schedule that would regroup a
  /// non-associative operator, and the balanced stage to use instead;
  /// empty when the operator need not be associative.
  std::string_view regroups;
  std::string_view balanced;
  /// Flat-plane kernel gap (V208): "<owner> `label` <gap>".
  std::string_view kernel_owner;
  std::string_view kernel_gap;

  [[nodiscard]] bool needs_associative() const { return !regroups.empty(); }
};

[[nodiscard]] const KindRow& kind_row(Stage::Kind kind);
/// The row spelled `keyword` in the text syntax; nullptr if none is.
[[nodiscard]] const KindRow* textual_row(std::string_view keyword);

inline const KindRow& Stage::row() const { return kind_row(kind()); }
inline bool Stage::is_local() const {
  const WindowRole role = row().role;
  return role == WindowRole::elementwise || role == WindowRole::local;
}

}  // namespace colop::ir
