#include "colop/model/cost.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "colop/ir/overlap.h"
#include "colop/support/bits.h"
#include "colop/support/error.h"

namespace colop::model {
namespace {

// Format "a*ts + m*(b*tw + c)" with small-integer niceties.
std::string num(double v) {
  if (v == static_cast<long long>(v)) return std::to_string(static_cast<long long>(v));
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

double Cost::eval(const Machine& mach) const {
  const double lg = static_cast<double>(log2_ceil(static_cast<std::uint64_t>(mach.p)));
  return lg * (logp_ts * mach.ts + logp_mtw * mach.m * mach.tw + logp_m * mach.m) +
         flat_m * mach.m + flat;
}

std::string Cost::show() const {
  std::ostringstream os;
  bool any = false;
  if (logp_ts != 0) {
    os << (logp_ts == 1 ? "ts" : num(logp_ts) + "*ts");
    any = true;
  }
  if (logp_mtw != 0 || logp_m != 0) {
    if (any) os << " + ";
    os << "m*(";
    if (logp_mtw != 0) os << (logp_mtw == 1 ? "tw" : num(logp_mtw) + "*tw");
    if (logp_m != 0) {
      if (logp_mtw != 0) os << " + ";
      os << num(logp_m);
    }
    os << ")";
    any = true;
  }
  if (flat_m != 0) {
    if (any) os << " + ";
    os << num(flat_m) << "*m/logp";
    any = true;
  }
  if (flat != 0) {
    if (any) os << " + ";
    os << num(flat) << "/logp";
    any = true;
  }
  if (!any) os << "0";
  return os.str();
}

Cost stage_cost(const ir::Stage& stage) {
  using Kind = ir::Stage::Kind;
  Cost c;
  switch (stage.kind()) {
    case Kind::Map: {
      const auto& s = static_cast<const ir::MapStage&>(stage);
      c.flat_m = s.fn.ops_cost;
      break;
    }
    case Kind::MapIndexed: {
      const auto& s = static_cast<const ir::MapIndexedStage&>(stage);
      c.flat_m = s.fn.ops_cost;
      c.logp_m = s.fn.ops_per_logp;
      break;
    }
    case Kind::Scan: {
      // Eq 17 generalized: butterfly scan applies the operator twice per
      // element per phase (prefix and running total).
      const auto& s = static_cast<const ir::ScanStage&>(stage);
      c.logp_ts = 1;
      c.logp_mtw = s.words;
      c.logp_m = 2 * s.op->ops_cost();
      break;
    }
    // Split-phase: the istart carries its blocking twin's full cost and
    // the wait is free, so a window's SUM equals the blocking schedule —
    // program_time then discounts eligible windows to max(comm, local).
    case Kind::Reduce:
    case Kind::IStartReduce: {
      const auto& s = static_cast<const ir::ReduceStage&>(stage);
      c.logp_ts = 1;
      c.logp_mtw = s.words;
      c.logp_m = s.op->ops_cost();
      break;
    }
    case Kind::AllReduce:
    case Kind::IStartAllReduce: {
      const auto& s = static_cast<const ir::AllReduceStage&>(stage);
      c.logp_ts = 1;
      c.logp_mtw = s.words;
      c.logp_m = s.op->ops_cost();
      break;
    }
    case Kind::Bcast:
    case Kind::IStartBcast: {
      const auto& s = static_cast<const ir::BcastStage&>(stage);
      c.logp_ts = 1;
      c.logp_mtw = s.words;
      break;
    }
    case Kind::ScanBalanced: {
      // One op2 application per phase computes both partners' results;
      // the scan component is never transmitted (hence op2.words < arity).
      const auto& s = static_cast<const ir::ScanBalancedStage&>(stage);
      c.logp_ts = 1;
      c.logp_mtw = s.op2.words;
      c.logp_m = s.op2.ops_cost;
      break;
    }
    case Kind::ReduceBalanced: {
      const auto& s = static_cast<const ir::ReduceBalancedStage&>(stage);
      c.logp_ts = 1;
      c.logp_mtw = s.op.words;
      c.logp_m = s.op.ops_cost;
      break;
    }
    case Kind::AllReduceBalanced: {
      const auto& s = static_cast<const ir::AllReduceBalancedStage&>(stage);
      c.logp_ts = 1;
      c.logp_mtw = s.op.words;
      c.logp_m = s.op.ops_cost;
      break;
    }
    case Kind::Iter: {
      // log2(p) local applications of the doubling step on the root block.
      const auto& s = static_cast<const ir::IterStage&>(stage);
      c.logp_m = s.step.ops_cost;
      break;
    }
    case Kind::Wait:
      break;  // completion is free; the cost lives at the istart
  }
  return c;
}

Cost program_cost(const ir::Program& prog) {
  Cost total;
  for (const auto& s : prog.stages()) total = total + stage_cost(*s);
  return total;
}

double program_time(const ir::Program& prog, const Machine& mach) {
  // Overlap-aware pricing: inside an eligible istart ; maps ; wait window
  // the executor hides the collective behind the interior local work, so
  // the window contributes max(comm, local) instead of their sum.  Stages
  // outside any window — including malformed split-phase spans, which fall
  // back to blocking execution — keep the synchronous sum.
  const auto windows = ir::overlap_windows(prog);
  if (windows.empty()) return program_cost(prog).eval(mach);

  double total = 0;
  std::size_t i = 0;
  auto w = windows.begin();
  const auto n = prog.size();
  while (i < n) {
    if (w != windows.end() && i == w->istart) {
      const double comm = stage_cost(prog.stage(w->istart)).eval(mach);
      double local = 0;
      for (std::size_t j = w->istart + 1; j < w->wait; ++j)
        local += stage_cost(prog.stage(j)).eval(mach);
      total += std::max(comm, local);
      i = w->wait + 1;
      ++w;
    } else {
      total += stage_cost(prog.stage(i)).eval(mach);
      ++i;
    }
  }
  return total;
}

double t_bcast(const Machine& mach) {
  const double lg = static_cast<double>(log2_ceil(static_cast<std::uint64_t>(mach.p)));
  return lg * (mach.ts + mach.m * mach.tw);
}

double t_reduce(const Machine& mach) {
  const double lg = static_cast<double>(log2_ceil(static_cast<std::uint64_t>(mach.p)));
  return lg * (mach.ts + mach.m * (mach.tw + 1));
}

double t_scan(const Machine& mach) {
  const double lg = static_cast<double>(log2_ceil(static_cast<std::uint64_t>(mach.p)));
  return lg * (mach.ts + mach.m * (mach.tw + 2));
}

std::string improvement_condition(const Cost& before, const Cost& after) {
  const Cost d = before - after;  // rule improves iff d "eval"s > 0
  const double A = d.logp_ts, B = d.logp_mtw, C = d.logp_m,
               D = d.flat_m, E = d.flat;
  if (D != 0 || E != 0) {
    // Flat terms do not occur in the paper's rules; fall back to raw form.
    return "(" + d.show() + ") > 0";
  }
  const bool none_neg = A >= 0 && B >= 0 && C >= 0;
  const bool none_pos = A <= 0 && B <= 0 && C <= 0;
  if (none_neg && (A > 0 || B > 0 || C > 0)) return "always";
  if (none_pos) return "never";
  if (A > 0 && B == 0 && C < 0) {
    // A*ts > -C*m
    const double k = -C / A;
    return k == 1 ? "ts > m" : "ts > " + num(k) + "*m";
  }
  if (A > 0 && B < 0 && C < 0) {
    // A*ts > m*(-B*tw + -C)  =>  ts > m*((-B/A)*tw + (-C/A))
    const double b = -B / A, cc = -C / A;
    return "ts > m*(" + (b == 1 ? std::string("tw") : num(b) + "*tw") +
           (cc != 0 ? " + " + num(cc) : "") + ")";
  }
  if (A > 0 && B > 0 && C < 0 && A == B) {
    // A*(ts + m*tw) > -C*m  =>  tw + ts/m > (-C/A)
    return "tw + ts/m > " + num(-C / A);
  }
  return "(" + d.show() + ") > 0";
}

double ts_crossover(const Cost& before, const Cost& after, double m, double tw) {
  const Cost d = before - after;
  if (d.logp_ts == 0) {
    const double rest = d.logp_mtw * m * tw + d.logp_m * m;
    return rest > 0 ? -std::numeric_limits<double>::infinity()
                    : std::numeric_limits<double>::infinity();
  }
  return -(d.logp_mtw * m * tw + d.logp_m * m) / d.logp_ts;
}

}  // namespace colop::model
