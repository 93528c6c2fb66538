#include "colop/verify/splitphase.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace colop::verify {
namespace {

using ir::Stage;

/// One outstanding nonblocking request: its handle and the index of the
/// istart that issued it (issue order = position in the vector).
struct Outstanding {
  int handle = 0;
  std::size_t istart = 0;
};

struct SplitWalker {
  const ir::Program& prog;
  const ScheduleOptions& opts;
  Report& report;
  std::vector<Outstanding> in_flight;

  void diag(std::string code, std::size_t i, std::string message,
            std::string hint) const {
    Diagnostic d;
    d.severity = Severity::error;
    d.code = std::move(code);
    d.analysis = "splitphase";
    d.message = std::move(message);
    d.hint = std::move(hint);
    d.stage = i;
    d.stage_show = prog.stage(i).show();
    if (i < opts.provenance.size()) d.provenance = opts.provenance[i];
    report.add(std::move(d));
  }

  [[nodiscard]] auto find(int handle) {
    return std::find_if(in_flight.begin(), in_flight.end(),
                        [&](const Outstanding& o) { return o.handle == handle; });
  }

  void on_istart(std::size_t i, int handle) {
    if (auto it = find(handle); it != in_flight.end()) {
      diag("V222", i,
           "istart re-issues request handle h=" + std::to_string(handle) +
               " while the collective started at stage " +
               std::to_string(it->istart) + " (" +
               prog.stage(it->istart).show() +
               ") is still in flight — the request buffer is reused before "
               "completion",
           "wait(h=" + std::to_string(handle) +
               ") before re-issuing, or pick a fresh handle");
      return;  // keep the original request; re-issue does not replace it
    }
    in_flight.push_back(Outstanding{handle, i});
  }

  void on_wait(std::size_t i, int handle) {
    const auto it = find(handle);
    if (it == in_flight.end()) {
      diag("V221", i,
           "wait(h=" + std::to_string(handle) +
               ") has no outstanding istart to complete — a double wait, or "
               "a wait issued before its istart",
           "issue istart_*(...,h=" + std::to_string(handle) +
               ") before this wait, or drop the duplicate wait");
      return;
    }
    if (it != in_flight.begin()) {
      // An older request is still outstanding: completion overtakes issue
      // order.  SPMD ranks allocate collective tags in issue order, so a
      // rank that progresses the younger collective first no longer agrees
      // with the abstract issue sequence — PARCOACH's ordering mismatch.
      const Outstanding& oldest = in_flight.front();
      diag("V223", i,
           "wait(h=" + std::to_string(handle) +
               ") completes out of issue order: the collective started at "
               "stage " +
               std::to_string(oldest.istart) + " (" +
               prog.stage(oldest.istart).show() + ", h=" +
               std::to_string(oldest.handle) +
               ") was issued earlier and is still outstanding — the "
               "collective issue order is no longer consistent across the " +
               std::to_string(opts.p) + " ranks",
           "complete requests in issue order: wait(h=" +
               std::to_string(oldest.handle) + ") first");
    }
    in_flight.erase(it);
  }

  void on_blocking(std::size_t i, std::string_view what) {
    if (in_flight.empty()) return;
    const Outstanding& o = in_flight.front();
    diag("V222", i,
         std::string(what) +
             " reads and writes the distributed value while the collective "
             "started at stage " +
             std::to_string(o.istart) + " (" + prog.stage(o.istart).show() +
             ", h=" + std::to_string(o.handle) +
             ") is still in flight — an in-flight buffer hazard",
         "wait(h=" + std::to_string(o.handle) +
             ") before this stage, or move the stage out of the window");
  }

  void walk() {
    for (std::size_t i = 0; i < prog.size(); ++i) {
      const Stage& stage = prog.stage(i);
      switch (stage.row().role) {
        case ir::WindowRole::elementwise:
          // Legal inside a window — this is the work the overlap engine
          // hides the collective behind.
          break;
        case ir::WindowRole::local:
        case ir::WindowRole::collective:
          on_blocking(i, stage.row().keyword);
          break;
        case ir::WindowRole::istart:
          on_istart(i, stage.request_handle());
          break;
        case ir::WindowRole::wait:
          on_wait(i, stage.request_handle());
          break;
      }
    }
    for (const Outstanding& o : in_flight)
      diag("V220", o.istart,
           "istart h=" + std::to_string(o.handle) +
               " never reaches a matching wait — the nonblocking collective "
               "is never completed, so its result is never safe to use",
           "append wait(h=" + std::to_string(o.handle) + ")");
  }
};

}  // namespace

Report analyze_splitphase(const ir::Program& prog,
                          const ScheduleOptions& opts) {
  Report report;
  SplitWalker w{prog, opts, report, {}};
  w.walk();
  return report;
}

}  // namespace colop::verify
