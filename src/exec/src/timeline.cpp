#include "colop/exec/timeline.h"

#include <sstream>

namespace colop::exec {

SimTrace trace_on_simnet(const ir::Program& prog, const model::Machine& mach,
                         SimSchedules sched) {
  simnet::SimMachine sim(mach.p, simnet::NetParams{mach.ts, mach.tw});
  SimTrace trace;
  trace.procs = mach.p;
  sim.set_trace(&trace.ops);
  run_on_simnet(prog, sim, mach.m, sched, &trace.spans);
  trace.makespan = sim.makespan();
  return trace;
}

std::vector<obs::Event> trace_events(const SimTrace& trace, int ops_pid,
                                     bool stage_args) {
  std::vector<obs::Event> events;
  std::vector<const std::string*> label;  // by stage index
  for (const auto& span : trace.spans) {
    const auto si = static_cast<std::size_t>(span.stage);
    if (label.size() <= si) label.resize(si + 1, nullptr);
    label[si] = &span.label;
    for (int r = 0; r < trace.procs; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      if (span.end[ri] <= span.start[ri]) continue;  // did not participate
      obs::Event ev;
      ev.phase = obs::Phase::complete;
      ev.name = span.label;
      ev.cat = "exec";
      ev.ts = span.start[ri];
      ev.dur = span.end[ri] - span.start[ri];
      ev.tid = r;
      if (stage_args) {
        ev.args.emplace_back("stage", std::to_string(span.stage));
        if (span.overlapped) ev.args.emplace_back("overlapped", "1");
      }
      events.push_back(std::move(ev));
    }
  }
  for (const simnet::SimOp& op : trace.ops) {
    const char* kind = simnet::kind_name(op.kind);
    const auto si = static_cast<std::size_t>(op.stage);
    obs::Event ev;
    ev.phase = obs::Phase::complete;
    ev.name = op.stage >= 0 && si < label.size() && label[si] != nullptr
                  ? *label[si] + "." + kind
                  : std::string(kind);
    ev.cat = "simnet";
    ev.ts = op.start;
    ev.dur = op.end - op.start;
    ev.pid = ops_pid;
    ev.tid = op.rank;
    ev.args.emplace_back("kind", kind);
    if (op.peer >= 0) ev.args.emplace_back("peer", std::to_string(op.peer));
    if (op.words > 0) ev.args.emplace_back("words", std::to_string(op.words));
    if (stage_args) ev.args.emplace_back("stage", std::to_string(op.stage));
    events.push_back(std::move(ev));
  }
  return events;
}

std::string render_timeline(const SimTrace& trace, int width, double scale_to) {
  const double horizon = scale_to > 0 ? scale_to : trace.makespan;
  std::ostringstream os;
  if (horizon <= 0 || trace.procs == 0) return "(empty trace)\n";

  for (int r = 0; r < trace.procs; ++r) {
    os << "P" << r << (r < 10 ? "  |" : " |");
    for (int c = 0; c < width; ++c) {
      const double t = (c + 0.5) * horizon / width;
      char ch = '.';
      for (std::size_t s = 0; s < trace.spans.size(); ++s) {
        const auto& span = trace.spans[s];
        // A processor "occupies" a stage from the previous stage's end to
        // this stage's end; start==end means it did not participate.
        if (t < span.end[static_cast<std::size_t>(r)] &&
            t >= span.start[static_cast<std::size_t>(r)] &&
            span.end[static_cast<std::size_t>(r)] >
                span.start[static_cast<std::size_t>(r)]) {
          ch = static_cast<char>('A' + static_cast<int>(s % 26));
        }
      }
      os << ch;
    }
    os << "|\n";
  }
  os << "     0";
  std::ostringstream tot;
  tot << "t=" << horizon;
  const std::string total = tot.str();
  for (int c = 0; c < width - 1 - static_cast<int>(total.size()); ++c) os << ' ';
  os << total << "\n";
  for (std::size_t s = 0; s < trace.spans.size(); ++s)
    os << "  " << static_cast<char>('A' + static_cast<int>(s % 26)) << " = "
       << trace.spans[s].label << "\n";
  return os.str();
}

}  // namespace colop::exec
