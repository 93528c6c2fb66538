#pragma once
// Program: a forward composition of stages — the paper's
//   example = map f ; scan (+) ; reduce (*) ; map g ; bcast        (Eq 2)
//
// Built with a chainable, MPI-flavoured builder API:
//   Program p;
//   p.map(f).scan(op_add()).reduce(op_mul()).map(g).bcast();

#include <string>
#include <vector>

#include "colop/ir/stage.h"

namespace colop::ir {

class Program {
 public:
  Program() = default;
  explicit Program(std::vector<StagePtr> stages) : stages_(std::move(stages)) {}

  // --- builder ----------------------------------------------------------
  Program& push(StagePtr s) {
    stages_.push_back(std::move(s));
    return *this;
  }
  Program& map(ElemFn f) { return push(std::make_shared<MapStage>(std::move(f))); }
  Program& map_indexed(ElemIdxFn f) {
    return push(std::make_shared<MapIndexedStage>(std::move(f)));
  }
  Program& scan(BinOpPtr op, int words = 1) {
    return push(std::make_shared<ScanStage>(std::move(op), words));
  }
  Program& reduce(BinOpPtr op, int root = 0, int words = 1) {
    return push(std::make_shared<ReduceStage>(std::move(op), root, words));
  }
  Program& allreduce(BinOpPtr op, int words = 1) {
    return push(std::make_shared<AllReduceStage>(std::move(op), words));
  }
  Program& bcast(int root = 0, int words = 1) {
    return push(std::make_shared<BcastStage>(root, words));
  }
  Program& scan_balanced(BalancedOp2 op2) {
    return push(std::make_shared<ScanBalancedStage>(std::move(op2)));
  }
  Program& reduce_balanced(BalancedOp op, int root = 0) {
    return push(std::make_shared<ReduceBalancedStage>(std::move(op), root));
  }
  Program& allreduce_balanced(BalancedOp op) {
    return push(std::make_shared<AllReduceBalancedStage>(std::move(op)));
  }
  Program& istart_reduce(BinOpPtr op, int root = 0, int words = 1,
                         int handle = 0) {
    return push(std::make_shared<ReduceStage>(std::move(op), root, words, handle));
  }
  Program& istart_bcast(int root = 0, int words = 1, int handle = 0) {
    return push(std::make_shared<BcastStage>(root, words, handle));
  }
  Program& istart_allreduce(BinOpPtr op, int words = 1, int handle = 0) {
    return push(std::make_shared<AllReduceStage>(std::move(op), words, handle));
  }
  Program& wait(int handle = 0) {
    return push(std::make_shared<WaitStage>(handle));
  }
  Program& iter(ElemFn step,
                std::function<Value(int, const Value&)> general_fold = nullptr) {
    return push(std::make_shared<IterStage>(std::move(step), std::move(general_fold)));
  }

  // --- inspection ---------------------------------------------------------
  [[nodiscard]] const std::vector<StagePtr>& stages() const { return stages_; }
  [[nodiscard]] std::size_t size() const { return stages_.size(); }
  [[nodiscard]] bool empty() const { return stages_.empty(); }
  [[nodiscard]] const Stage& stage(std::size_t i) const { return *stages_[i]; }

  /// "map(f) ; scan(+) ; reduce(*) ; map(g) ; bcast"
  [[nodiscard]] std::string show() const;

  /// Sequential composition of two programs — the paper's Example ;
  /// Next_Example source of rule applications (Section 2.1).
  [[nodiscard]] Program then(const Program& next) const;

  /// Replace stages [first, first+count) by the given replacement stages.
  [[nodiscard]] Program splice(std::size_t first, std::size_t count,
                               const std::vector<StagePtr>& replacement) const;

  /// Run the sequential reference semantics on a distributed list.
  [[nodiscard]] Dist eval_reference(Dist input) const;

  /// Total number of collective (non-local) stages.
  [[nodiscard]] std::size_t collective_count() const;

 private:
  std::vector<StagePtr> stages_;
};

}  // namespace colop::ir
