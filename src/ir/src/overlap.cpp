#include "colop/ir/overlap.h"

namespace colop::ir {

std::vector<OverlapWindow> overlap_windows(const Program& prog) {
  std::vector<OverlapWindow> out;
  const auto& stages = prog.stages();
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (stages[i]->row().role != WindowRole::istart) continue;
    const int handle = stages[i]->request_handle();
    for (std::size_t j = i + 1; j < stages.size(); ++j) {
      const WindowRole role = stages[j]->row().role;
      if (role == WindowRole::elementwise) continue;
      if (role == WindowRole::wait && stages[j]->request_handle() == handle) {
        out.push_back(OverlapWindow{i, j});
        i = j;  // windows are disjoint; resume after the wait
      }
      break;  // any other stage (or a foreign wait) ends the scan
    }
  }
  return out;
}

bool in_overlap_window(const std::vector<OverlapWindow>& windows,
                       std::size_t i) {
  for (const auto& w : windows)
    if (i >= w.istart && i <= w.wait) return true;
  return false;
}

}  // namespace colop::ir
