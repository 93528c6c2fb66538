#include "colop/ir/shapes.h"

namespace colop::ir {
namespace {

// The stage's declared words must equal what the element shape transmits;
// the message (and its show()) is built only on failure.
void require_words(const Stage& stage, int transmitted) {
  COLOP_REQUIRE(stage.wire_words() == transmitted,
                stage.show() + ": declared words=" +
                    std::to_string(stage.wire_words()) +
                    " but the element shape transmits " +
                    std::to_string(transmitted) + " words");
}

Shape step(const Stage& stage, const Shape& in) {
  switch (stage.row().shape) {
    case ShapeStep::local:
      break;
    case ShapeStep::all_words:
      require_words(stage, in.words());
      break;
    case ShapeStep::tail_words:
      COLOP_REQUIRE(in.is_tuple() && in.components().size() >= 2,
                    stage.show() + ": needs a tuple element shape");
      require_words(stage, in.words() - in.components()[0].words());
      break;
  }
  return stage.apply_shape(in);
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
