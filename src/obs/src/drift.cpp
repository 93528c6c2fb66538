#include "colop/obs/drift.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "colop/model/cost.h"
#include "colop/mpsim/balanced_tree.h"
#include "colop/obs/json.h"
#include "colop/obs/trace_context.h"
#include "colop/simnet/schedules.h"
#include "colop/support/bits.h"
#include "colop/support/table.h"

namespace colop::obs {
namespace {

// Traffic accumulator with simnet's accounting: a one-way send is one
// message, an exchange is two (both directions of the bidirectional link).
struct Count {
  std::uint64_t msgs = 0;
  double words = 0;
  void send(double w) {
    ++msgs;
    words += w;
  }
  void exchange(double w) {
    msgs += 2;
    words += 2 * w;
  }
};

// The counting twins of the simnet schedules: identical loop structure,
// but only traffic is tallied.  Keeping them in lock-step with
// simnet/src/schedules.cpp is what the drift tests pin down.

void bcast_binomial(Count& c, int p, double words) {
  for (int mask = 1; mask < p; mask <<= 1)
    for (int vr = 0; vr < mask; ++vr)
      if (vr + mask < p) c.send(words);
}

void butterfly_exchanges(Count& c, int p, double words) {
  for (int k = 0; (1 << k) < p; ++k)
    for (int vr = 0; vr < p; ++vr) {
      const int partner = vr ^ (1 << k);
      if (partner >= p || partner < vr) continue;
      c.exchange(words);
    }
}

void bcast_vdg(Count& c, int p, double m, double w) {
  if (p == 1) return;
  const double seg = m / p;
  for (int mask =
           static_cast<int>(next_pow2(static_cast<std::uint64_t>(p)) / 2);
       mask >= 1; mask >>= 1)
    for (int vr = 0; vr + mask < p; vr += 2 * mask) {
      const int span = std::min(2 * mask, p - vr);
      const int ship = span - mask;
      if (ship > 0) c.send(ship * seg * w);
    }
  for (int step = 1; step < p; step <<= 1) {
    const int chunk = std::min(step, p - step);
    for (int r = 0; r < p; ++r) c.send(chunk * seg * w);
  }
}

void bcast_pipelined(Count& c, int p, double m, double w, double ts,
                     double tw) {
  if (p == 1) return;
  const int segments = simnet::optimal_segments(p, m * w, ts, tw);
  const double seg = m / segments * w;
  for (int k = 0; k < segments; ++k)
    for (int r = 0; r + 1 < p; ++r) c.send(seg);
}

void reduce_binomial(Count& c, int p, double words) {
  for (int mask = 1; mask < p; mask <<= 1)
    for (int r = 0; r < p; ++r) {
      if ((r & ((mask << 1) - 1)) != 0) continue;
      if (r + mask >= p) continue;
      c.send(words);
    }
}

void allreduce_butterfly(Count& c, int p, double words) {
  if (p == 1) return;
  const int q = 1 << log2_floor(static_cast<std::uint64_t>(p));
  const int rem = p - q;
  for (int r = 0; r < 2 * rem; r += 2) c.send(words);  // pre-fold
  butterfly_exchanges(c, q, words);
  for (int r = 0; r < 2 * rem; r += 2) c.send(words);  // post-fold
}

void allreduce_vdg(Count& c, int p, double m, double w) {
  if (p == 1) return;
  const double seg = m / p;
  if (is_pow2(static_cast<std::uint64_t>(p))) {
    int len = p;
    while (len > 1) {
      const int half = len / 2;
      for (int r = 0; r < p; ++r)
        if ((r ^ half) > r) c.exchange(half * seg * w);
      len = half;
    }
  } else {
    for (int i = 1; i < p; ++i)
      for (int r = 0; r < p; ++r) c.send(seg * w);
  }
  for (int step = 1; step < p; step <<= 1) {
    const int chunk = std::min(step, p - step);
    for (int r = 0; r < p; ++r) c.send(chunk * seg * w);
  }
}

void reduce_balanced(Count& c, int p, double words) {
  const auto tree = mpsim::BalancedTree::build(p);
  for (const int ni : tree.internal_by_height())
    if (!tree.node(ni).is_unit()) c.send(words);
}

void allreduce_balanced(Count& c, int p, double words) {
  if (is_pow2(static_cast<std::uint64_t>(p))) {
    butterfly_exchanges(c, p, words);
    return;
  }
  reduce_balanced(c, p, words);
  butterfly_exchanges(c, p, words);
}

}  // namespace

PredictedTraffic predicted_traffic(const ir::Program& prog,
                                   const model::Machine& mach,
                                   exec::SimSchedules sched) {
  using Kind = ir::Stage::Kind;
  const int p = mach.p;
  const double m = mach.m;
  Count c;
  for (const auto& stage : prog.stages()) {
    switch (stage->kind()) {
      case Kind::Map:
      case Kind::MapIndexed:
      case Kind::Iter:
      case Kind::Wait:
        break;  // local: no traffic (wait only completes earlier traffic)
      case Kind::Scan: {
        const auto& s = static_cast<const ir::ScanStage&>(*stage);
        butterfly_exchanges(c, p, m * s.words);
        break;
      }
      case Kind::Reduce:
      case Kind::IStartReduce: {
        // An istart moves the same traffic as its blocking twin; only the
        // clock accounting differs (overlap), which traffic counts ignore.
        const int words = static_cast<const ir::ReduceStage&>(*stage).words;
        if (sched.reduce == exec::SimSchedules::Reduce::binomial)
          reduce_binomial(c, p, m * words);
        else if (sched.reduce == exec::SimSchedules::Reduce::vdg)
          allreduce_vdg(c, p, m, words);
        else
          allreduce_butterfly(c, p, m * words);
        break;
      }
      case Kind::AllReduce:
      case Kind::IStartAllReduce: {
        const int words = static_cast<const ir::AllReduceStage&>(*stage).words;
        if (sched.reduce == exec::SimSchedules::Reduce::vdg)
          allreduce_vdg(c, p, m, words);
        else
          allreduce_butterfly(c, p, m * words);
        break;
      }
      case Kind::Bcast:
      case Kind::IStartBcast: {
        const int words = static_cast<const ir::BcastStage&>(*stage).words;
        switch (sched.bcast) {
          case exec::SimSchedules::Bcast::butterfly:
            butterfly_exchanges(c, p, m * words);
            break;
          case exec::SimSchedules::Bcast::binomial:
            bcast_binomial(c, p, m * words);
            break;
          case exec::SimSchedules::Bcast::vdg:
            bcast_vdg(c, p, m, words);
            break;
          case exec::SimSchedules::Bcast::pipelined:
            bcast_pipelined(c, p, m, words, mach.ts, mach.tw);
            break;
        }
        break;
      }
      case Kind::ScanBalanced: {
        const auto& s = static_cast<const ir::ScanBalancedStage&>(*stage);
        butterfly_exchanges(c, p, m * s.op2.words);
        break;
      }
      case Kind::ReduceBalanced: {
        const auto& s = static_cast<const ir::ReduceBalancedStage&>(*stage);
        reduce_balanced(c, p, m * s.op.words);
        break;
      }
      case Kind::AllReduceBalanced: {
        const auto& s =
            static_cast<const ir::AllReduceBalancedStage&>(*stage);
        allreduce_balanced(c, p, m * s.op.words);
        break;
      }
    }
  }
  return {c.msgs, c.words};
}

namespace {

double rel_err(double measured, double predicted) {
  const double scale = std::max(std::abs(predicted), 1.0);
  return std::abs(measured - predicted) / scale;
}

}  // namespace

DriftReport drift_report(const ir::Program& prog, const model::Machine& mach,
                         const DriftOptions& opts) {
  DriftReport report;
  report.program = prog.show();
  report.tolerance = opts.tolerance;
  for (const int p : opts.procs) {
    model::Machine mp = mach;
    mp.p = p;
    DriftRow row;
    row.p = p;
    row.model_time = model::program_time(prog, mp);
    const auto sim = exec::run_on_simnet(prog, mp, opts.sched);
    row.sim_time = sim.time;
    row.time_rel_err = rel_err(sim.time, row.model_time);
    const auto pred = predicted_traffic(prog, mp, opts.sched);
    row.predicted_messages = pred.messages;
    row.sim_messages = sim.messages;
    row.predicted_words = pred.words;
    row.sim_words = sim.words;
    row.ok = row.time_rel_err <= opts.tolerance &&
             row.predicted_messages == row.sim_messages &&
             rel_err(row.sim_words, row.predicted_words) <= opts.tolerance;
    report.rows.push_back(row);
  }
  return report;
}

bool DriftReport::all_ok() const {
  return std::all_of(rows.begin(), rows.end(),
                     [](const DriftRow& r) { return r.ok; });
}

std::string DriftReport::render_text() const {
  Table t{"Model vs simnet drift: " + program,
          {"p", "T model", "T simnet", "rel err", "msgs model", "msgs simnet",
           "words model", "words simnet", "ok"}};
  for (const auto& r : rows)
    t.add(r.p, r.model_time, r.sim_time, r.time_rel_err, r.predicted_messages,
          r.sim_messages, r.predicted_words, r.sim_words, r.ok);
  std::ostringstream os;
  t.print(os);
  os << (all_ok() ? "drift: all rows within tolerance "
                  : "drift: DIVERGENCE beyond tolerance ")
     << json::number(tolerance) << "\n";
  return os.str();
}

MachineDriftAlert machine_drift(const model::Machine& configured,
                                const model::CalibrationResult& fit,
                                double tolerance) {
  MachineDriftAlert alert;
  alert.configured = configured;
  alert.fitted = fit.machine(configured.p, configured.m);
  alert.tolerance = tolerance;
  auto rel = [](double fitted, double conf) {
    return std::abs(fitted - conf) / std::max(std::abs(conf), 1e-12);
  };
  alert.ts_rel_err =
      fit.ts.identifiable ? rel(alert.fitted.ts, configured.ts) : 0;
  alert.tw_rel_err =
      fit.tw.identifiable ? rel(alert.fitted.tw, configured.tw) : 0;
  alert.ok =
      alert.ts_rel_err <= tolerance && alert.tw_rel_err <= tolerance;
  return alert;
}

std::string MachineDriftAlert::render_text() const {
  std::ostringstream os;
  os << "machine drift (configured vs fitted, tolerance " << tolerance
     << "):\n"
     << "  ts: configured " << configured.ts << ", fitted " << fitted.ts
     << " (rel err " << ts_rel_err << ")\n"
     << "  tw: configured " << configured.tw << ", fitted " << fitted.tw
     << " (rel err " << tw_rel_err << ")\n";
  if (ok) {
    os << "  OK: the configured machine matches the measurements\n";
  } else {
    os << "  ALERT: fitted parameters disagree with the configured machine;"
          " rule thresholds (ts_crossover) computed from the configured"
          " parameters are unreliable — re-run with --machine=calibrated\n";
  }
  return os.str();
}

void MachineDriftAlert::write_json(std::ostream& os) const {
  os << "{\"configured\":{\"ts\":" << json::number(configured.ts)
     << ",\"tw\":" << json::number(configured.tw)
     << "},\"fitted\":{\"ts\":" << json::number(fitted.ts)
     << ",\"tw\":" << json::number(fitted.tw)
     << "},\"ts_rel_err\":" << json::number(ts_rel_err)
     << ",\"tw_rel_err\":" << json::number(tw_rel_err)
     << ",\"tolerance\":" << json::number(tolerance)
     << ",\"ok\":" << (ok ? "true" : "false") << "}";
}

void DriftReport::write_json(std::ostream& os) const {
  os << "{\"program\":" << json::quote(program) << trace_id_json_field()
     << ",\"tolerance\":" << json::number(tolerance)
     << ",\"all_ok\":" << (all_ok() ? "true" : "false") << ",\"rows\":[";
  bool first = true;
  for (const auto& r : rows) {
    if (!first) os << ",";
    first = false;
    os << "{\"p\":" << r.p << ",\"model_time\":" << json::number(r.model_time)
       << ",\"sim_time\":" << json::number(r.sim_time)
       << ",\"time_rel_err\":" << json::number(r.time_rel_err)
       << ",\"predicted_messages\":" << r.predicted_messages
       << ",\"sim_messages\":" << r.sim_messages
       << ",\"predicted_words\":" << json::number(r.predicted_words)
       << ",\"sim_words\":" << json::number(r.sim_words)
       << ",\"ok\":" << (r.ok ? "true" : "false") << "}";
  }
  os << "]}\n";
}

}  // namespace colop::obs
