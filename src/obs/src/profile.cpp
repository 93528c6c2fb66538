#include "colop/obs/profile.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <sstream>

#include "colop/ir/overlap.h"
#include "colop/model/cost.h"
#include "colop/obs/chrome_trace.h"
#include "colop/obs/json.h"
#include "colop/obs/trace_context.h"
#include "colop/support/table.h"

namespace colop::obs {
namespace {

using Op = simnet::SimOp;
using Kind = simnet::SimOp::Kind;

/// Index of the last op on `rank` of positive length whose end is within
/// tol of `t` (ops are non-overlapping and time-sorted, so at most one
/// qualifies); -1 if the latest such op below t ends strictly earlier.
/// Zero-length ops (the combine steps of a zero-cost operator such as
/// `first`) are stepped over: they start where they end, so taking one as
/// the cause would leave the backward walk standing at t.
int op_ending_at(const std::vector<Op>& ops, double t, double tol) {
  int lo = 0, hi = static_cast<int>(ops.size()) - 1, found = -1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    if (ops[static_cast<std::size_t>(mid)].end <= t + tol) {
      found = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  const auto op = [&](int i) -> const Op& {
    return ops[static_cast<std::size_t>(i)];
  };
  while (found >= 0 && op(found).end - op(found).start <= tol) --found;
  if (found < 0) return -1;
  return std::abs(op(found).end - t) <= tol ? found : -1;
}

std::string pct(double part, double whole) {
  if (whole <= 0) return "0%";
  std::ostringstream os;
  os << std::round(100.0 * part / whole) << "%";
  return os.str();
}

}  // namespace

Profile profile_events(const std::vector<simnet::SimOp>& machine_ops,
                       int procs, double makespan) {
  Profile prof;
  prof.procs = procs;

  std::vector<std::vector<Op>> by_rank(static_cast<std::size_t>(procs));
  for (const Op& op : machine_ops)
    if (op.rank >= 0 && op.rank < procs)
      by_rank[static_cast<std::size_t>(op.rank)].push_back(op);
  // By start, then end: a zero-length op sorts before the op that starts
  // where it ends, so ends stay non-decreasing for op_ending_at.
  for (auto& ops : by_rank)
    std::sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
      return a.start < b.start || (a.start == b.start && a.end < b.end);
    });

  if (makespan < 0) {
    makespan = 0;
    for (const auto& ops : by_rank)
      if (!ops.empty()) makespan = std::max(makespan, ops.back().end);
  }
  prof.makespan = makespan;
  const double tol = 1e-9 * std::max(1.0, makespan);

  // Per-rank busy/comm/idle.  Idle is accounted directly (waits + gaps +
  // trailing slack), NOT as makespan - busy - comm, so the balance
  // invariant genuinely checks that the trace tiles each rank's timeline.
  for (int r = 0; r < procs; ++r) {
    RankProfile rp;
    rp.rank = r;
    double cursor = 0;
    for (const Op& op : by_rank[static_cast<std::size_t>(r)]) {
      rp.idle += std::max(0.0, op.start - cursor);
      if (op.kind == Kind::compute) {
        rp.busy += op.end - op.start;
      } else if (op.kind == Kind::recv_wait) {
        rp.idle += op.end - op.start;
      } else {
        rp.comm += op.end - op.start;
      }
      cursor = std::max(cursor, op.end);
    }
    rp.idle += std::max(0.0, makespan - cursor);
    prof.ranks.push_back(rp);
  }

  // Critical path: walk backwards from the rank that finishes last.
  int rank = -1;
  double latest = 0;
  for (int r = 0; r < procs; ++r) {
    const auto& ops = by_rank[static_cast<std::size_t>(r)];
    if (!ops.empty() && ops.back().end >= latest - tol &&
        (rank < 0 || ops.back().end > latest + tol)) {
      rank = r;
      latest = ops.back().end;
    }
  }
  std::vector<CriticalSegment> path;
  double t = makespan;
  std::size_t total_ops = 0;
  for (const auto& ops : by_rank) total_ops += ops.size();
  std::size_t guard = 2 * total_ops + static_cast<std::size_t>(procs) + 8;
  while (rank >= 0 && t > tol && guard-- > 0) {
    const auto& ops = by_rank[static_cast<std::size_t>(rank)];
    const int i = op_ending_at(ops, t, tol);
    if (i < 0) {
      // No cause on this rank: idle back to its previous op (or to zero).
      double prev_end = 0;
      for (const Op& op : ops)
        if (op.end < t - tol) prev_end = std::max(prev_end, op.end);
      path.push_back({rank, prev_end, t, prev_end > tol ? "idle" : "start",
                      -1});
      if (prev_end <= tol) break;
      t = prev_end;
      continue;
    }
    const Op& op = ops[static_cast<std::size_t>(i)];
    if (op.kind == Kind::recv_wait && op.peer >= 0 && op.peer < procs &&
        op_ending_at(by_rank[static_cast<std::size_t>(op.peer)], t, tol) >=
            0) {
      // The wait ended when the sender's transfer completed: hop there.
      rank = op.peer;
      continue;
    }
    int next_rank = rank;
    if (op.kind == Kind::exchange && op.peer >= 0 && op.peer < procs) {
      // Both partners leave together; the constraining one is whichever
      // was still working at the exchange's start.
      if (op_ending_at(ops, op.start, tol) < 0 &&
          op_ending_at(by_rank[static_cast<std::size_t>(op.peer)], op.start,
                       tol) >= 0)
        next_rank = op.peer;
    }
    path.push_back({rank, op.start, op.end, simnet::kind_name(op.kind),
                    op.stage});
    t = op.start;
    rank = next_rank;
  }
  std::reverse(path.begin(), path.end());
  prof.critical_path = std::move(path);

  // Per-stage busy/comm totals and critical attribution.
  std::map<int, StageProfile> stages;
  for (int r = 0; r < procs; ++r)
    for (const Op& op : by_rank[static_cast<std::size_t>(r)]) {
      StageProfile& sp = stages[op.stage];
      sp.index = op.stage;
      if (op.kind == Kind::compute)
        sp.busy += op.end - op.start;
      else if (op.kind != Kind::recv_wait)
        sp.comm += op.end - op.start;
    }
  for (const CriticalSegment& seg : prof.critical_path) {
    StageProfile& sp = stages[seg.stage];
    sp.index = seg.stage;
    sp.critical += seg.duration();
  }
  for (auto& [idx, sp] : stages) {
    if (idx < 0 && sp.critical == 0 && sp.busy == 0 && sp.comm == 0) continue;
    prof.stages.push_back(sp);
  }
  return prof;
}

Profile profile_program(const ir::Program& prog, const model::Machine& mach,
                        const ProfileOptions& opts) {
  exec::SimTrace trace = exec::trace_on_simnet(prog, mach, opts.sched);
  Profile prof = profile_events(trace.ops, mach.p, trace.makespan);
  prof.trace = std::move(trace);
  prof.program = prog.show();

  // Stage metadata: label, cost-calculus prediction, rule provenance.
  const auto& stages = prog.stages();
  const auto windows = ir::overlap_windows(prog);
  std::map<int, StageProfile> merged;
  for (const StageProfile& sp : prof.stages) merged[sp.index] = sp;
  prof.stages.clear();
  for (std::size_t i = 0; i < stages.size(); ++i) {
    StageProfile sp = merged.count(static_cast<int>(i))
                          ? merged[static_cast<int>(i)]
                          : StageProfile{};
    sp.index = static_cast<int>(i);
    sp.label = stages[i]->show();
    sp.model_time = model::stage_cost(*stages[i]).eval(mach);
    sp.overlapped = ir::in_overlap_window(windows, i);
    if (i < opts.provenance.size()) sp.rule = opts.provenance[i];
    prof.stages.push_back(std::move(sp));
  }

  // Synchronous baseline: replay stage by stage (an istart alone prices as
  // its blocking twin) so the report can say how much the windows hid.
  if (!windows.empty()) {
    simnet::SimMachine blocking(mach.p, simnet::NetParams{mach.ts, mach.tw});
    for (const auto& stage : stages) {
      ir::Program single;
      single.push(stage);
      exec::run_on_simnet(single, blocking, mach.m, opts.sched);
    }
    prof.blocking_makespan = blocking.makespan();
  }
  return prof;
}

bool Profile::balanced(double tol) const {
  const double scale = std::max(1.0, makespan);
  return std::all_of(ranks.begin(), ranks.end(), [&](const RankProfile& r) {
    return std::abs(r.total() - makespan) <= tol * scale;
  });
}

bool Profile::path_complete(double tol) const {
  const double scale = std::max(1.0, makespan);
  if (makespan <= tol * scale) return true;
  if (critical_path.empty()) return false;
  if (std::abs(critical_path.front().start) > tol * scale) return false;
  if (std::abs(critical_path.back().end - makespan) > tol * scale)
    return false;
  for (std::size_t i = 1; i < critical_path.size(); ++i)
    if (std::abs(critical_path[i].start - critical_path[i - 1].end) >
        tol * scale)
      return false;
  return true;
}

const StageProfile* Profile::bottleneck() const {
  const StageProfile* best = nullptr;
  for (const StageProfile& sp : stages)
    if (best == nullptr || sp.critical > best->critical) best = &sp;
  return best;
}

const StageProfile* Profile::model_bottleneck() const {
  const StageProfile* best = nullptr;
  for (const StageProfile& sp : stages)
    if (best == nullptr || sp.model_time > best->model_time) best = &sp;
  return best;
}

std::string Profile::render_text() const {
  std::ostringstream os;
  os << "profile: " << program << "\n"
     << "p = " << procs << ", makespan = " << makespan
     << " op units, critical path: " << critical_path.size()
     << " segments\n\n";

  Table rt("per-rank time breakdown",
           {"rank", "busy", "comm", "idle", "busy %", "comm %", "idle %"});
  const int shown = std::min(procs, 16);
  for (int r = 0; r < shown; ++r) {
    const RankProfile& rp = ranks[static_cast<std::size_t>(r)];
    rt.add(rp.rank, rp.busy, rp.comm, rp.idle, pct(rp.busy, makespan),
           pct(rp.comm, makespan), pct(rp.idle, makespan));
  }
  rt.print(os);
  if (procs > shown) os << "  ... (" << procs - shown << " more ranks)\n";
  os << "\n";

  Table st("critical-path attribution by stage",
           {"stage", "label", "rule", "critical", "share", "model time",
            "model share"});
  double model_total = 0;
  for (const StageProfile& sp : stages) model_total += sp.model_time;
  for (const StageProfile& sp : stages)
    st.add(sp.index, sp.overlapped ? sp.label + " [overlapped]" : sp.label,
           sp.rule.empty() ? "-" : sp.rule, sp.critical,
           pct(sp.critical, makespan), sp.model_time,
           pct(sp.model_time, model_total));
  st.print(os);
  if (blocking_makespan > 0) {
    os << "overlap: makespan " << makespan << " vs blocking "
       << blocking_makespan << " ("
       << pct(blocking_makespan - makespan, blocking_makespan)
       << " hidden by istart..wait windows)\n";
  }
  if (const StageProfile* b = bottleneck()) {
    os << "bottleneck: stage " << b->index << " " << b->label << " ("
       << pct(b->critical, makespan) << " of the critical path)";
    const StageProfile* mb = model_bottleneck();
    if (mb != nullptr)
      os << (mb->index == b->index
                 ? "; the cost model agrees"
                 : "; the cost model predicts stage " +
                       std::to_string(mb->index) + " " + mb->label);
    os << "\n";
  }

  // The path itself, merged into runs per (rank, stage, kind) so pipelined
  // schedules do not print thousands of lines.
  os << "\ncritical path (rank: interval, kind, stage):\n";
  std::size_t lines = 0;
  for (std::size_t i = 0; i < critical_path.size() && lines < 48;) {
    std::size_t j = i;
    double end = critical_path[i].end;
    while (j + 1 < critical_path.size() &&
           critical_path[j + 1].rank == critical_path[i].rank &&
           critical_path[j + 1].stage == critical_path[i].stage &&
           critical_path[j + 1].kind == critical_path[i].kind) {
      ++j;
      end = critical_path[j].end;
    }
    const CriticalSegment& seg = critical_path[i];
    os << "  rank " << seg.rank << ": [" << seg.start << " .. " << end
       << "] " << seg.kind;
    if (j > i) os << " x" << (j - i + 1);
    if (seg.stage >= 0 && seg.stage < static_cast<int>(stages.size()))
      os << "  (stage " << seg.stage << " "
         << stages[static_cast<std::size_t>(seg.stage)].label << ")";
    os << "\n";
    ++lines;
    i = j + 1;
  }
  if (lines >= 48) os << "  ...\n";
  return os.str();
}

void Profile::write_json(std::ostream& os) const {
  os << "{\"program\":" << json::quote(program) << trace_id_json_field()
     << ",\"p\":" << procs
     << ",\"makespan\":" << json::number(makespan)
     << ",\"blocking_makespan\":" << json::number(blocking_makespan)
     << ",\"balanced\":" << (balanced() ? "true" : "false")
     << ",\"path_complete\":" << (path_complete() ? "true" : "false")
     << ",\"ranks\":[";
  bool first = true;
  for (const RankProfile& r : ranks) {
    if (!first) os << ",";
    first = false;
    os << "{\"rank\":" << r.rank << ",\"busy\":" << json::number(r.busy)
       << ",\"comm\":" << json::number(r.comm)
       << ",\"idle\":" << json::number(r.idle) << "}";
  }
  os << "],\"stages\":[";
  first = true;
  for (const StageProfile& s : stages) {
    if (!first) os << ",";
    first = false;
    os << "{\"index\":" << s.index << ",\"label\":" << json::quote(s.label)
       << ",\"rule\":" << json::quote(s.rule)
       << ",\"critical\":" << json::number(s.critical)
       << ",\"busy\":" << json::number(s.busy)
       << ",\"comm\":" << json::number(s.comm)
       << ",\"model_time\":" << json::number(s.model_time)
       << ",\"overlapped\":" << (s.overlapped ? "true" : "false") << "}";
  }
  os << "],\"critical_path\":[";
  first = true;
  for (const CriticalSegment& seg : critical_path) {
    if (!first) os << ",";
    first = false;
    os << "{\"rank\":" << seg.rank << ",\"start\":" << json::number(seg.start)
       << ",\"end\":" << json::number(seg.end)
       << ",\"kind\":" << json::quote(seg.kind) << ",\"stage\":" << seg.stage
       << "}";
  }
  os << "]}\n";
}

void Profile::write_chrome_trace(std::ostream& os) const {
  std::vector<Event> all = exec::trace_events(trace, 1, true);
  // Flow arrows along the critical path: one chain, bound to the machine-op
  // slices (pid 1) the path runs through.
  for (std::size_t i = 0; i < critical_path.size(); ++i) {
    const CriticalSegment& seg = critical_path[i];
    Event f;
    f.phase = i == 0 ? Phase::flow_start
                     : (i + 1 == critical_path.size() ? Phase::flow_end
                                                      : Phase::flow_step);
    f.name = "critical-path";
    f.cat = "profile";
    f.ts = (seg.start + seg.end) / 2;
    f.pid = 1;
    f.tid = seg.rank;
    f.id = 1;
    all.push_back(std::move(f));
  }
  colop::obs::write_chrome_trace(
      all, os, "colop-profile", "rank ",
      {{0, "program stages"}, {1, "machine ops (critical path flows)"}});
}

}  // namespace colop::obs
