#include "colop/obs/critical_path.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <sstream>

#include "colop/obs/json.h"
#include "colop/obs/trace_context.h"
#include "colop/support/table.h"

namespace colop::obs {
namespace {

using Kind = Op::Kind;

/// Index of the last op on `rank` of positive length whose end is within
/// tol of `t` (ops are non-overlapping and time-sorted, so at most one
/// qualifies); -1 if the latest such op below t ends strictly earlier.
/// Zero-length ops (the combine steps of a zero-cost operator such as
/// `first`, a wall-clock send) are stepped over: they start where they
/// end, so taking one as the cause would leave the backward walk standing
/// at t.
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

const char* kind_name(Op::Kind kind) {
  switch (kind) {
    case Kind::compute: return "compute";
    case Kind::send: return "send";
    case Kind::recv_wait: return "recv_wait";
    case Kind::exchange: return "exchange";
    case Kind::recv: return "recv";
    case Kind::barrier: return "barrier";
  }
  return "?";
}

Profile profile_events(std::vector<Op> ops, int procs, double makespan) {
  Profile prof;
  prof.procs = procs;

  std::vector<std::vector<Op>> by_rank(static_cast<std::size_t>(procs));
  for (const Op& op : ops)
    if (op.rank >= 0 && op.rank < procs)
      by_rank[static_cast<std::size_t>(op.rank)].push_back(op);
  // By start, then end: a zero-length op sorts before the op that starts
  // where it ends, so ends stay non-decreasing for op_ending_at.
  for (auto& rank_ops : by_rank)
    std::sort(rank_ops.begin(), rank_ops.end(), [](const Op& a, const Op& b) {
      return a.start < b.start || (a.start == b.start && a.end < b.end);
    });

  if (makespan < 0) {
    makespan = 0;
    for (const auto& rank_ops : by_rank)
      if (!rank_ops.empty()) makespan = std::max(makespan, rank_ops.back().end);
  }
  prof.makespan = makespan;
  const double tol = 1e-9 * std::max(1.0, makespan);

  // Per-rank busy/comm/idle.  Idle is accounted directly (waits + gaps +
  // trailing slack), NOT as makespan - busy - comm, so the balance
  // invariant genuinely checks that the stream tiles each rank's timeline.
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
    const auto& rank_ops = by_rank[static_cast<std::size_t>(r)];
    if (!rank_ops.empty() && rank_ops.back().end >= latest - tol &&
        (rank < 0 || rank_ops.back().end > latest + tol)) {
      rank = r;
      latest = rank_ops.back().end;
    }
  }
  std::vector<CriticalSegment> path;
  double t = makespan;
  std::size_t guard = 2 * ops.size() + static_cast<std::size_t>(procs) + 8;
  while (rank >= 0 && t > tol && guard-- > 0) {
    const auto& rank_ops = by_rank[static_cast<std::size_t>(rank)];
    const int i = op_ending_at(rank_ops, t, tol);
    if (i < 0) {
      // No cause on this rank: idle back to its previous op (or to zero).
      double prev_end = 0;
      for (const Op& op : rank_ops)
        if (op.end < t - tol) prev_end = std::max(prev_end, op.end);
      path.push_back({rank, prev_end, t, prev_end > tol ? "idle" : "start",
                      -1});
      if (prev_end <= tol) break;
      t = prev_end;
      continue;
    }
    const Op& op = rank_ops[static_cast<std::size_t>(i)];
    if (op.kind == Kind::recv_wait && op.peer >= 0 && op.peer < procs &&
        op_ending_at(by_rank[static_cast<std::size_t>(op.peer)], t, tol) >=
            0) {
      // The wait ended when the peer acted (sent, or entered the barrier
      // last): hop there.
      rank = op.peer;
      continue;
    }
    int next_rank = rank;
    if (op.kind == Kind::exchange && op.peer >= 0 && op.peer < procs) {
      // Both partners leave together; the constraining one is whichever
      // was still working at the exchange's start.
      if (op_ending_at(rank_ops, op.start, tol) < 0 &&
          op_ending_at(by_rank[static_cast<std::size_t>(op.peer)], op.start,
                       tol) >= 0)
        next_rank = op.peer;
    }
    path.push_back({rank, op.start, op.end, kind_name(op.kind), op.stage});
    t = op.start;
    rank = next_rank;
  }
  std::reverse(path.begin(), path.end());
  prof.critical_path = std::move(path);

  // Per-stage busy/comm totals and critical attribution.
  std::map<int, StageProfile> stages;
  for (const auto& rank_ops : by_rank)
    for (const Op& op : rank_ops) {
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
  prof.ops = std::move(ops);
  return prof;
}

void Profile::set_stages(std::vector<StageProfile> meta) {
  for (std::size_t i = 0; i < meta.size(); ++i) {
    StageProfile& sp = meta[i];
    sp.index = static_cast<int>(i);
    for (const StageProfile& measured : stages)
      if (measured.index == sp.index) {
        sp.critical = measured.critical;
        sp.busy = measured.busy;
        sp.comm = measured.comm;
      }
  }
  stages = std::move(meta);
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

std::string Profile::bottleneck_line() const {
  const StageProfile* b = bottleneck();
  if (b == nullptr) return {};
  std::ostringstream os;
  os << "bottleneck: stage " << b->index << " " << b->label << " ("
     << pct(b->critical, makespan) << " of the critical path)";
  const StageProfile* mb = model_bottleneck();
  os << (mb->index == b->index ? "; the cost model agrees"
                               : "; the cost model predicts stage " +
                                     std::to_string(mb->index) + " " +
                                     mb->label);
  os << "\n";
  return os.str();
}

std::string Profile::render_text() const {
  std::ostringstream os;
  os << "profile: " << program << "\n"
     << "p = " << procs << ", makespan = " << makespan << " " << clock
     << ", critical path: " << critical_path.size() << " segments\n\n";

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
  os << bottleneck_line();

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
     << ",\"clock\":" << json::quote(clock) << ",\"p\":" << procs
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
  os << "],\"critical_path\":";
  write_path_json(os);
  os << "}\n";
}

void Profile::write_path_json(std::ostream& os) const {
  os << "[";
  bool first = true;
  for (const CriticalSegment& seg : critical_path) {
    if (!first) os << ",";
    first = false;
    os << "{\"rank\":" << seg.rank << ",\"start\":" << json::number(seg.start)
       << ",\"end\":" << json::number(seg.end)
       << ",\"kind\":" << json::quote(seg.kind) << ",\"stage\":" << seg.stage
       << "}";
  }
  os << "]";
}

void Profile::write_chrome_trace(std::ostream& os,
                                 const std::string& title) const {
  const double us = clock == "ns" ? 1e-3 : 1;  // op units pass through
  std::map<int, std::string> labels;
  for (const StageProfile& sp : stages) labels[sp.index] = sp.label;
  // The run's trace id rides both at the top level (for tools reading the
  // document) and as "otherData" (surfaced by the Perfetto UI).
  os << "{\"displayTimeUnit\":\"ms\"" << trace_id_json_field();
  if (const std::string id = trace_id(); !id.empty())
    os << ",\"otherData\":{\"trace_id\":" << json::quote(id) << "}";
  os << ",\"traceEvents\":[";
  const char* sep = "";
  // Opens one event object; the caller appends its fields and the "}".
  const auto event = [&](const std::string& name, const char* cat,
                         const char* ph, int pid, int rank, double ts) {
    os << sep << "{\"name\":" << json::quote(name) << ",\"cat\":\"" << cat
       << "\",\"ph\":\"" << ph << "\",\"ts\":" << json::number(ts * us)
       << ",\"pid\":" << pid << ",\"tid\":" << rank;
    sep = ",\n";
  };
  const auto meta = [&](const char* name, int pid, int tid,
                        const std::string& args) {
    os << sep << "{\"name\":\"" << name << "\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":" << tid << ",\"args\":{" << args << "}}";
    sep = ",\n";
  };
  // Name both process rows and every rank's thread rows; the sort index
  // orders rank 10 after rank 2 (Perfetto otherwise sorts lexically).
  const char* rows[] = {": stages", ": ops (flows: messages, critical path)"};
  for (int pid = 0; pid < 2; ++pid) {
    meta("process_name", pid, 0, "\"name\":" + json::quote(title + rows[pid]));
    for (int r = 0; r < procs; ++r) {
      meta("thread_name", pid, r, "\"name\":\"rank " + std::to_string(r) + "\"");
      meta("thread_sort_index", pid, r, "\"sort_index\":" + std::to_string(r));
    }
  }

  // Stage spans: each rank's extent of each stage's ops.
  std::map<std::pair<int, int>, std::pair<double, double>> spans;
  for (const Op& op : ops) {
    if (op.stage < 0) continue;
    auto& span =
        spans.try_emplace({op.rank, op.stage}, op.start, op.end).first->second;
    span.first = std::min(span.first, op.start);
    span.second = std::max(span.second, op.end);
  }
  for (const auto& [key, span] : spans) {
    event(labels[key.second], "stage", "X", 0, key.first, span.first);
    os << ",\"dur\":" << json::number((span.second - span.first) * us)
       << ",\"args\":{\"stage\":" << key.second << "}}";
  }
  for (const Op& op : ops) {
    const char* kind = kind_name(op.kind);
    const std::string& stage = labels[op.stage];
    event(stage.empty() ? std::string(kind) : stage + "." + kind, "op", "X", 1,
          op.rank, op.start);
    os << ",\"dur\":" << json::number((op.end - op.start) * us)
       << ",\"args\":{\"kind\":\"" << kind << "\",\"peer\":" << op.peer
       << ",\"words\":" << json::number(op.words) << ",\"stage\":" << op.stage
       << "}}";
  }

  // Flow arrows: one per matched message, then the critical path as one
  // chain (id 1) through the op slices it runs along.  An arrow's end
  // binds to the enclosing slice, so it lands on the op that waited.
  const auto flow = [&](const char* name, const char* ph, std::uint64_t id,
                        int rank, double t) {
    event(name, "flow", ph, 1, rank, t);
    os << ",\"id\":" << id << (ph[0] == 'f' ? ",\"bp\":\"e\"}" : "}");
  };
  std::uint64_t id = 2;
  for (const Message& m : messages) {
    flow("msg", "s", id, m.from, m.sent);
    flow("msg", "f", id++, m.to, m.received);
  }
  for (std::size_t i = 0; i < critical_path.size(); ++i) {
    const CriticalSegment& seg = critical_path[i];
    flow("critical-path",
         i == 0 ? "s" : (i + 1 == critical_path.size() ? "f" : "t"), 1,
         seg.rank, (seg.start + seg.end) / 2);
  }
  os << "\n]}\n";
}

}  // namespace colop::obs
