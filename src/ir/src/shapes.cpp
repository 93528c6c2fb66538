#include "colop/ir/shapes.h"

namespace colop::ir {
namespace {

void require_words(const std::string& what, int declared, int actual) {
  COLOP_REQUIRE(declared == actual,
                what + ": declared words=" + std::to_string(declared) +
                    " but the element shape transmits " +
                    std::to_string(actual) + " words");
}

Shape step(const Stage& stage, const Shape& in) {
  using Kind = Stage::Kind;
  switch (stage.kind()) {
    case Kind::Map:
      return static_cast<const MapStage&>(stage).fn.apply_shape(in);
    case Kind::MapIndexed:
      return static_cast<const MapIndexedStage&>(stage).fn.apply_shape(in);
    case Kind::Scan:
      require_words(stage.show(), static_cast<const ScanStage&>(stage).words,
                    in.words());
      return in;
    case Kind::Reduce:
    case Kind::IStartReduce:
      require_words(stage.show(), static_cast<const ReduceStage&>(stage).words,
                    in.words());
      return in;
    case Kind::AllReduce:
    case Kind::IStartAllReduce:
      require_words(stage.show(),
                    static_cast<const AllReduceStage&>(stage).words, in.words());
      return in;
    case Kind::Bcast:
    case Kind::IStartBcast:
      require_words(stage.show(), static_cast<const BcastStage&>(stage).words,
                    in.words());
      return in;
    case Kind::ScanBalanced: {
      // The first tuple component (the scan value) stays local; the
      // remaining components travel (op_ss: 4 scalars -> 3 transmitted).
      const auto& s = static_cast<const ScanBalancedStage&>(stage);
      COLOP_REQUIRE(in.is_tuple() && in.components().size() >= 2,
                    s.show() + ": needs a tuple element shape");
      const int transmitted = in.words() - in.components()[0].words();
      require_words(s.show(), s.op2.words, transmitted);
      return in;
    }
    case Kind::ReduceBalanced: {
      const auto& s = static_cast<const ReduceBalancedStage&>(stage);
      require_words(s.show(), s.op.words, in.words());
      return in;
    }
    case Kind::AllReduceBalanced: {
      const auto& s = static_cast<const AllReduceBalancedStage&>(stage);
      require_words(s.show(), s.op.words, in.words());
      return in;
    }
    case Kind::Iter:
      return in;  // iter's step is shape-preserving by construction
    case Kind::Wait:
      return in;  // wait transmits nothing and preserves the shape
  }
  COLOP_ASSERT(false, "unhandled stage kind in shape inference");
}

}  // namespace

std::vector<Shape> infer_shapes(const Program& prog, const Shape& input) {
  std::vector<Shape> out;
  out.reserve(prog.size());
  Shape current = input;
  for (const auto& stage : prog.stages()) {
    current = step(*stage, current);
    out.push_back(current);
  }
  return out;
}

std::optional<std::string> check_shapes(const Program& prog, const Shape& input) {
  try {
    (void)infer_shapes(prog, input);
    return std::nullopt;
  } catch (const Error& e) {
    return std::string(e.what());
  }
}

Shape shape_before(const Program& prog, std::size_t at, const Shape& input) {
  COLOP_REQUIRE(at <= prog.size(), "shape_before: index out of range");
  Shape current = input;
  for (std::size_t i = 0; i < at; ++i) current = step(prog.stage(i), current);
  return current;
}

}  // namespace colop::ir
