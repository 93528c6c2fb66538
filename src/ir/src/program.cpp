#include "colop/ir/program.h"

#include "colop/ir/packed_eval.h"
#include "colop/ir/plane.h"
#include "colop/support/error.h"

namespace colop::ir {

std::string Program::show() const {
  std::string s;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (i) s += " ; ";
    s += stages_[i]->show();
  }
  return s;
}

Program Program::then(const Program& next) const {
  std::vector<StagePtr> all = stages_;
  all.insert(all.end(), next.stages_.begin(), next.stages_.end());
  return Program(std::move(all));
}

Program Program::splice(std::size_t first, std::size_t count,
                        const std::vector<StagePtr>& replacement) const {
  COLOP_REQUIRE(first + count <= stages_.size(), "splice: range out of bounds");
  std::vector<StagePtr> out;
  out.reserve(stages_.size() - count + replacement.size());
  out.insert(out.end(), stages_.begin(),
             stages_.begin() + static_cast<std::ptrdiff_t>(first));
  out.insert(out.end(), replacement.begin(), replacement.end());
  out.insert(out.end(), stages_.begin() + static_cast<std::ptrdiff_t>(first + count),
             stages_.end());
  return Program(std::move(out));
}

Dist Program::eval_reference(Dist input) const {
  // Flat data plane when the program and data allow it (packed_eval.h);
  // identical results either way, the boxed path is the semantics.
  if (auto packed = pack_for_run(*this, input)) {
    for (const auto& s : stages_) eval_stage(*s, *packed);
    for (std::size_t r = 0; r < input.size(); ++r) (*packed)[r].unpack_into(input[r]);
    return input;
  }
  return eval_reference_boxed(*this, std::move(input));
}

std::size_t Program::collective_count() const {
  std::size_t n = 0;
  for (const auto& s : stages_)
    if (!s->is_local()) ++n;
  return n;
}

}  // namespace colop::ir
