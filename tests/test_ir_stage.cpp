// Reference semantics of every stage kind (Eqs 4-8, 13, iter), the Program
// builder, and the paper's Figure 2 equivalence P1 = P2.

#include <gtest/gtest.h>

#include "colop/ir/ir.h"
#include "colop/ir/packed_eval.h"
#include "colop/rules/derived_ops.h"
#include "colop/support/error.h"

namespace colop::ir {
namespace {

Dist ints(const std::vector<std::int64_t>& xs) { return dist_of_ints(xs); }

std::vector<std::int64_t> firsts(const Dist& d) {
  std::vector<std::int64_t> out;
  for (const auto& b : d) out.push_back(b[0].as_int());
  return out;
}

TEST(StageRef, MapAppliesElementwise) {
  Program p;
  p.map({"sq", [](const Value& v) { return Value(v.as_int() * v.as_int()); }, 1});
  EXPECT_EQ(firsts(p.eval_reference(ints({1, 2, 3, 4}))),
            (std::vector<std::int64_t>{1, 4, 9, 16}));
}

TEST(StageRef, MapOverBlocksTouchesEveryElement) {
  Program p;
  p.map({"inc", [](const Value& v) { return Value(v.as_int() + 1); }, 1});
  Dist d{block_of_ints({1, 2}), block_of_ints({3, 4})};
  const Dist out = p.eval_reference(d);
  EXPECT_EQ(out[0], block_of_ints({2, 3}));
  EXPECT_EQ(out[1], block_of_ints({4, 5}));
}

TEST(StageRef, MapIndexedSeesRank) {
  Program p;
  p.map_indexed({"addrank",
                 [](int k, const Value& v) { return Value(v.as_int() + 10 * k); }});
  EXPECT_EQ(firsts(p.eval_reference(ints({1, 1, 1}))),
            (std::vector<std::int64_t>{1, 11, 21}));
}

TEST(StageRef, ScanIsInclusivePrefix) {
  Program p;
  p.scan(op_add());
  EXPECT_EQ(firsts(p.eval_reference(ints({2, 5, 9, 1, 2, 6}))),
            (std::vector<std::int64_t>{2, 7, 16, 17, 19, 25}));
}

TEST(StageRef, ScanElementwiseOverBlocks) {
  Program p;
  p.scan(op_add());
  Dist d{block_of_ints({1, 10}), block_of_ints({2, 20}), block_of_ints({3, 30})};
  const Dist out = p.eval_reference(d);
  EXPECT_EQ(out[2], block_of_ints({6, 60}));
  EXPECT_EQ(out[1], block_of_ints({3, 30}));
}

TEST(StageRef, ReduceLeavesNonRootUnchanged) {
  Program p;
  p.reduce(op_add());
  const Dist out = p.eval_reference(ints({1, 2, 3, 4}));
  EXPECT_EQ(firsts(out), (std::vector<std::int64_t>{10, 2, 3, 4}));  // Eq 5
}

TEST(StageRef, ReduceToNonzeroRoot) {
  Program p;
  p.reduce(op_mul(), 2);
  const Dist out = p.eval_reference(ints({1, 2, 3, 4}));
  EXPECT_EQ(firsts(out), (std::vector<std::int64_t>{1, 2, 24, 4}));
}

TEST(StageRef, AllReduceGivesEveryoneTheResult) {
  Program p;
  p.allreduce(op_max());
  EXPECT_EQ(firsts(p.eval_reference(ints({3, 9, 1, 7}))),
            (std::vector<std::int64_t>{9, 9, 9, 9}));  // Eq 6
}

TEST(StageRef, BcastCopiesRootEverywhere) {
  Program p;
  p.bcast();
  EXPECT_EQ(firsts(p.eval_reference(ints({5, 0, 0}))),
            (std::vector<std::int64_t>{5, 5, 5}));  // Eq 8
}

TEST(StageRef, BcastFromNonzeroRoot) {
  Program p;
  p.bcast(1);
  EXPECT_EQ(firsts(p.eval_reference(ints({0, 8, 0}))),
            (std::vector<std::int64_t>{8, 8, 8}));
}

TEST(StageRef, IterOnPowerOfTwoDoubles) {
  // iter(op_br) on [b,...]: b -> b^(2^log2 p) = b*p for +.
  Program p;
  p.iter(rules::make_op_br(op_add()));
  const Dist out = p.eval_reference(ints({3, 0, 0, 0}));
  EXPECT_EQ(out[0][0].as_int(), 12);  // 3 * 4
  EXPECT_TRUE(out[1][0].is_undefined());
  EXPECT_TRUE(out[3][0].is_undefined());
}

TEST(StageRef, IterOnNonPowerOfTwoNeedsGeneralFold) {
  Program p;
  p.iter(rules::make_op_br(op_add()));  // no general fold provided
  EXPECT_THROW(p.eval_reference(ints({3, 0, 0, 0, 0, 0})), Error);

  Program q;
  q.iter(rules::make_op_br(op_add()), rules::make_general_br(op_add()));
  const Dist out = q.eval_reference(ints({3, 0, 0, 0, 0, 0}));
  EXPECT_EQ(out[0][0].as_int(), 18);  // 3 * 6
}

TEST(StageRef, CollectivesRejectNonUniformBlocks) {
  Program p;
  p.scan(op_add());
  Dist d{block_of_ints({1, 2}), block_of_ints({3})};
  EXPECT_THROW(p.eval_reference(d), Error);
}

TEST(ProgramApi, ShowRendersForwardComposition) {
  Program p;
  p.map(fn_pair()).scan(op_add()).reduce(op_mul()).bcast();
  EXPECT_EQ(p.show(), "map(pair) ; scan(+) ; reduce(*) ; bcast");
}

TEST(ProgramApi, ThenComposesPrograms) {
  Program a, b;
  a.scan(op_add());
  b.bcast();
  const Program c = a.then(b);
  EXPECT_EQ(c.show(), "scan(+) ; bcast");
  EXPECT_EQ(c.size(), 2u);
}

TEST(ProgramApi, SpliceReplacesWindow) {
  Program p;
  p.scan(op_add()).reduce(op_add()).bcast();
  const Program q =
      p.splice(0, 2, {std::make_shared<MapStage>(fn_pair())});
  EXPECT_EQ(q.show(), "map(pair) ; bcast");
  EXPECT_THROW(p.splice(2, 2, {}), Error);
}

TEST(ProgramApi, CollectiveCount) {
  Program p;
  p.map(fn_pair()).scan(op_add()).map(fn_proj1()).bcast();
  EXPECT_EQ(p.collective_count(), 2u);
}

TEST(PaperFigure2, P1EqualsP2OnTheExampleInput) {
  // P1 = allreduce(+);  P2 = map pair ; allreduce(op_new) ; map pi1 where
  // op_new((a1,b1),(a2,b2)) = (a1+a2, b1*b2).  Figure 2 uses [1,2,3,4].
  Program p1;
  p1.allreduce(op_add());

  auto op_new = BinOp::make(
      {.name = "op_new",
       .fn =
           [](const Value& a, const Value& b) {
             return Value(Tuple{
                 Value(a.at(0).as_int() + b.at(0).as_int()),
                 Value(a.at(1).as_int() * b.at(1).as_int()),
             });
           },
       .associative = true,
       .commutative = true,
       .ops_cost = 2});
  Program p2;
  p2.map(fn_pair()).allreduce(op_new).map(fn_proj1());

  const Dist in = ints({1, 2, 3, 4});
  const Dist out1 = p1.eval_reference(in);
  const Dist out2 = p2.eval_reference(in);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(firsts(out1), (std::vector<std::int64_t>{10, 10, 10, 10}));
}

// The stage-kind table: a stage built from a textual row reports that
// row's kind and spells it with its keyword, and the blocking/istart twins
// point at each other.
TEST(KindTable, TextualRowsBuildTheirKindAndTwinsPairUp) {
  constexpr int kinds = static_cast<int>(Stage::Kind::Wait) + 1;
  int textual = 0;
  for (int k = 0; k < kinds; ++k) {
    const KindRow& row = kind_row(static_cast<Stage::Kind>(k));
    EXPECT_EQ(row.kind, static_cast<Stage::Kind>(k));
    EXPECT_EQ(kind_row(row.twin).twin, row.kind) << row.keyword;
    EXPECT_EQ(row.role == WindowRole::istart, row.twin != row.kind &&
                                                  row.handle_arg)
        << row.keyword;
    if (row.make == nullptr) continue;
    ++textual;
    EXPECT_EQ(textual_row(row.keyword), &row);
    const StagePtr stage =
        row.make({.op = op_add(), .fn = fn_id(), .root = 0, .handle = 2});
    EXPECT_EQ(stage->kind(), row.kind) << row.keyword;
    EXPECT_EQ(stage->show().rfind(std::string(row.keyword), 0), 0u)
        << stage->show();
  }
  EXPECT_EQ(textual, 9);  // map, scan, reduce, allreduce, bcast, 3 istart, wait
  EXPECT_EQ(textual_row("map#"), nullptr);  // no text spelling
  EXPECT_EQ(textual_row("reduce_balanced"), nullptr);
}

// --- reference errors ----------------------------------------------------
//
// The messages the sequential reference throws, on both routes:
// Program::eval_reference (the packed plane when the program and data are
// packable) and eval_reference_boxed.

void expect_reference_error(const Program& p, const Dist& in,
                            const std::string& want) {
  SCOPED_TRACE(p.show());
  for (const bool boxed : {false, true}) {
    try {
      (void)(boxed ? eval_reference_boxed(p, in) : p.eval_reference(in));
      ADD_FAILURE() << (boxed ? "boxed" : "auto") << ": no error, want "
                    << want;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), want) << (boxed ? "boxed" : "auto");
    }
  }
}

// One program per collective kind, named as its message names it (an
// istart twin reports its blocking twin's keyword).
std::vector<std::pair<Program, std::string>> one_collective_each(int root) {
  std::vector<std::pair<Program, std::string>> out;
  const auto add = [&out](Program p, const char* what) {
    out.emplace_back(std::move(p), what);
  };
  add(Program().scan(op_add()), "scan");
  add(Program().reduce(op_add(), root), "reduce");
  add(Program().allreduce(op_add()), "allreduce");
  add(Program().bcast(root), "bcast");
  add(Program().scan_balanced(rules::make_op_ss(op_add())), "scan_balanced");
  add(Program().reduce_balanced(rules::make_op_sr(op_add()), root),
      "reduce_balanced");
  add(Program().allreduce_balanced(rules::make_op_sr(op_add())),
      "allreduce_balanced");
  add(Program().iter(rules::make_op_br(op_add())), "iter");
  add(Program().istart_reduce(op_add(), root, 1, 1).wait(1), "reduce");
  add(Program().istart_bcast(root, 1, 1).wait(1), "bcast");
  add(Program().istart_allreduce(op_add(), 1, 1).wait(1), "allreduce");
  return out;
}

TEST(ReferenceErrors, NonUniformBlockSizesOnEveryCollective) {
  const Dist d{block_of_ints({1, 2}), block_of_ints({3}),
               block_of_ints({4, 5})};
  for (const auto& [p, what] : one_collective_each(0))
    expect_reference_error(p, d, what + ": non-uniform block sizes");
}

TEST(ReferenceErrors, EmptyDistOnEveryCollective) {
  for (const auto& [p, what] : one_collective_each(0))
    expect_reference_error(p, {}, what + ": empty distributed list");
}

TEST(ReferenceErrors, RootOutOfRange) {
  for (const int root : {3, 7}) {
    for (const auto& [p, what] : one_collective_each(root)) {
      if (!p.stage(0).row().names_root) continue;
      expect_reference_error(p, ints({1, 2, 3}), what + ": invalid root");
    }
  }
}

TEST(ReferenceErrors, IterAtSixWithoutGeneralizedFold) {
  const ElemFn step = rules::make_op_br(op_add());
  expect_reference_error(Program().iter(step), ints({3, 0, 0, 0, 0, 0}),
                         "iter(" + step.name +
                             "): processor count is not a power of two and "
                             "no generalized fold was provided");
}

}  // namespace
}  // namespace colop::ir
