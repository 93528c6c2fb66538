// Shape inference and validation: element shapes flow through stages, the
// cost-model `words` metadata is checked against the transmitted widths,
// and every rule rewrite yields a shape-consistent program.

#include <gtest/gtest.h>

#include "colop/ir/ir.h"
#include "colop/rules/rules.h"
#include "colop/support/error.h"

namespace colop::ir {
namespace {

TEST(Shape, ScalarAndTupleBasics) {
  const Shape s = Shape::scalar();
  EXPECT_TRUE(s.is_scalar());
  EXPECT_EQ(s.words(), 1);
  EXPECT_EQ(s.to_string(), "w");

  const Shape pair = Shape::replicate(s, 2);
  EXPECT_TRUE(pair.is_tuple());
  EXPECT_EQ(pair.words(), 2);
  EXPECT_EQ(pair.to_string(), "(w,w)");

  const Shape nested = Shape::tuple_of({pair, s});
  EXPECT_EQ(nested.words(), 3);
  EXPECT_EQ(nested.to_string(), "((w,w),w)");
  EXPECT_EQ(nested, Shape::tuple_of({Shape::replicate(s, 2), Shape::scalar()}));
  EXPECT_FALSE(nested == pair);
}

TEST(Shape, ElemFnShapeTransforms) {
  const Shape s = Shape::scalar();
  EXPECT_EQ(fn_pair().apply_shape(s).words(), 2);
  EXPECT_EQ(fn_triple().apply_shape(s).words(), 3);
  EXPECT_EQ(fn_quadruple().apply_shape(s).words(), 4);
  EXPECT_EQ(fn_proj1().apply_shape(Shape::replicate(s, 4)), s);
  EXPECT_EQ(fn_id().apply_shape(s), s);
  // pair then pi1 is the identity on shapes.
  EXPECT_EQ(fn_compose(fn_pair(), fn_proj1()).apply_shape(s), s);
  // pair of pair.
  EXPECT_EQ(fn_compose(fn_pair(), fn_pair()).apply_shape(s).words(), 4);
}

TEST(ShapeInference, TracksTuplingThroughProgram) {
  Program p;
  p.map(fn_pair()).scan(op_add(), 2).map(fn_proj1()).bcast();
  const auto shapes = infer_shapes(p);
  ASSERT_EQ(shapes.size(), 4u);
  EXPECT_EQ(shapes[0].words(), 2);
  EXPECT_EQ(shapes[1].words(), 2);
  EXPECT_EQ(shapes[2].words(), 1);
  EXPECT_EQ(shapes[3].words(), 1);
}

TEST(ShapeInference, RejectsWrongWordsMetadata) {
  Program p;
  p.map(fn_pair()).scan(op_add());  // scan declares words=1, shape is 2
  EXPECT_THROW(infer_shapes(p), Error);
  const auto err = check_shapes(p);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("words"), std::string::npos);
}

TEST(ShapeInference, RejectsProjectionOfScalar) {
  Program p;
  p.map(fn_proj1());
  EXPECT_THROW(infer_shapes(p), Error);
}

TEST(ShapeInference, ShapeBeforeReportsIntermediateState) {
  Program p;
  p.map(fn_pair()).map(fn_proj1()).map(fn_quadruple());
  EXPECT_EQ(shape_before(p, 0).words(), 1);
  EXPECT_EQ(shape_before(p, 1).words(), 2);
  EXPECT_EQ(shape_before(p, 2).words(), 1);
  EXPECT_EQ(shape_before(p, 3).words(), 4);
  EXPECT_THROW(shape_before(p, 4), Error);
}

TEST(ShapeInference, ScanBalancedTransmitsAllButTheScanComponent) {
  Program lhs;
  lhs.scan(op_add()).scan(op_add());
  const Program rhs = rules::rule_ss_scan()->match(lhs, 0)->apply(lhs);
  // quadruple -> scan_balanced(op_ss, 3 transmitted words) -> pi1
  EXPECT_FALSE(check_shapes(rhs).has_value()) << check_shapes(rhs).value_or("");
}

TEST(ShapeInference, EveryRuleRewriteIsShapeConsistent) {
  // Every LHS at element width w = 1, 2, 3: a leading map(pair|triple)
  // makes the w-word elements, and every collective declares w words.
  for (const int w : {1, 2, 3}) {
    const auto lhs_of = [w](auto&& build) {
      Program p;
      if (w == 2) p.map(fn_pair());
      if (w == 3) p.map(fn_triple());
      build(p);
      return p;
    };
    const std::vector<Program> lhss = {
        lhs_of([w](Program& p) { p.scan(op_mul(), w).reduce(op_add(), 0, w); }),
        lhs_of([w](Program& p) { p.scan(op_add(), w).allreduce(op_add(), w); }),
        lhs_of([w](Program& p) { p.scan(op_mul(), w).scan(op_add(), w); }),
        lhs_of([w](Program& p) {
          p.bcast(0, w).scan(op_add(), w).scan(op_add(), w);
        }),
        lhs_of([w](Program& p) {
          p.bcast(0, w).scan(op_mul(), w).reduce(op_add(), 0, w);
        }),
        lhs_of([w](Program& p) { p.bcast(0, w).allreduce(op_add(), w); }),
        lhs_of([w](Program& p) {
          p.bcast(0, w).scan(op_mul(), w).allreduce(op_add(), w);
        }),
        lhs_of([w](Program& p) {
          p.bcast(0, w).scan(op_add(), w).allreduce(op_add(), w);
        }),
        lhs_of([w](Program& p) { p.reduce(op_add(), 0, w).bcast(0, w); }),
        lhs_of([w](Program& p) { p.scan(op_add(), w).bcast(0, w); }),
        lhs_of([w](Program& p) { p.map(fn_id()).bcast(0, w); }),
    };
    for (const auto& lhs : lhss) {
      ASSERT_FALSE(check_shapes(lhs).has_value()) << lhs.show();
      for (const auto& rule : rules::all_rules()) {
        for (const auto& m : rule->matches(lhs)) {
          const Program rhs = m.apply(lhs);
          EXPECT_FALSE(check_shapes(rhs).has_value())
              << "w=" << w << " " << rule->name() << ": " << rhs.show()
              << " — " << check_shapes(rhs).value_or("");
        }
      }
    }
  }
}

}  // namespace
}  // namespace colop::ir
