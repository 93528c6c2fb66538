// Micro benchmark for the flat data plane (boxed Values vs PackedBlock).
//
// Phase A times the local kernels head to head on one block: map pair,
// elementwise scan/reduce combines, the op_sr2 derived combine, the cost
// of materializing a transmissible copy (boxed deep copy vs packed memcpy
// serialization), and the same kernels on certification-sized blocks of 2
// elements (small_block).  Phase B runs table1-style pipelines end to end
// on the mpsim thread executor, once per plane.
//
// The gating scalars are the dimensionless speedup ratios — stable across
// machines, which is what the committed Release baseline compares under
// `bench_history diff` (higher is better).  Raw elements/sec and bytes/sec go
// into the series for inspection and artifact upload.
//
// Usage: micro_dataplane [--quick]   (--quick shrinks sizes/reps for smoke
// runs; its numbers are not comparable to the committed baseline).

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "colop/exec/thread_executor.h"
#include "colop/ir/packed_eval.h"
#include "colop/ir/packed_kernels.h"
#include "colop/obs/metrics.h"
#include "colop/rt/flight_recorder.h"
#include "colop/rt/live.h"
#include "colop/rules/derived_ops.h"
#include "colop/support/rng.h"

namespace colop::bench {
namespace {

using ir::Block;
using ir::PackedBlock;
using ir::Value;

volatile std::size_t g_sink = 0;  // defeat dead-code elimination

template <typename F>
double best_seconds(int reps, F&& f) {
  f();  // warm-up
  double best = std::numeric_limits<double>::max();
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return std::max(best, 1e-12);
}

Block random_int_block(Rng& rng, std::size_t m) {
  Block b;
  b.reserve(m);
  for (std::size_t j = 0; j < m; ++j) b.push_back(Value(rng.uniform(-40, 40)));
  return b;
}

Block random_real_block(Rng& rng, std::size_t m) {
  Block b;
  b.reserve(m);
  for (std::size_t j = 0; j < m; ++j)
    b.push_back(Value(1.0 + (rng.uniform01() - 0.5) * 1e-3));
  return b;
}

struct Measurement {
  std::string name;
  double boxed_elems_per_sec = 0;
  double packed_elems_per_sec = 0;
  [[nodiscard]] double speedup() const {
    return packed_elems_per_sec / boxed_elems_per_sec;
  }
};

// --- Phase A: local kernels ---------------------------------------------

Measurement bench_map_pair(std::size_t m, int reps) {
  Rng rng(1);
  const Block b = random_int_block(rng, m);
  const auto pb = *PackedBlock::pack(b);
  const ir::ElemFn f = ir::fn_pair();

  const double tb = best_seconds(reps, [&] {
    Block blk = b;
    for (auto& v : blk) v = f(v);  // exec_stage's boxed map loop
    g_sink = g_sink + blk.size();
  });
  const double tp = best_seconds(reps, [&] {
    PackedBlock blk = pb;
    blk = f.packed_fn(std::move(blk));
    g_sink = g_sink + blk.size();
  });
  return {"map_pair", static_cast<double>(m) / tb,
          static_cast<double>(m) / tp};
}

Measurement bench_zip(const std::string& name, const ir::BinOp& op,
                      const Block& a, const Block& b, int reps) {
  const auto pa = *PackedBlock::pack(a);
  const auto pb = *PackedBlock::pack(b);
  const std::size_t m = a.size();

  const double tb = best_seconds(reps, [&] {
    Block out(m);  // lift2 in the thread executor
    for (std::size_t j = 0; j < m; ++j) out[j] = op(a[j], b[j]);
    g_sink = g_sink + out.size();
  });
  const double tp = best_seconds(reps, [&] {
    const PackedBlock out = op.packed()(pa, pb);
    g_sink = g_sink + out.size();
  });
  return {name, static_cast<double>(m) / tb, static_cast<double>(m) / tp};
}

// Fold 8 blocks into one (a local reduce over an 8-ary segment).
Measurement bench_reduce_local(std::size_t m, int reps) {
  Rng rng(3);
  std::vector<Block> blocks;
  std::vector<PackedBlock> packed;
  for (int i = 0; i < 8; ++i) {
    blocks.push_back(random_int_block(rng, m));
    packed.push_back(*PackedBlock::pack(blocks.back()));
  }
  const auto op = ir::op_add();

  const double tb = best_seconds(reps, [&] {
    Block acc = blocks[0];
    for (std::size_t i = 1; i < blocks.size(); ++i)
      for (std::size_t j = 0; j < m; ++j) acc[j] = (*op)(acc[j], blocks[i][j]);
    g_sink = g_sink + acc.size();
  });
  const double tp = best_seconds(reps, [&] {
    PackedBlock acc = packed[0];
    for (std::size_t i = 1; i < packed.size(); ++i)
      acc = op->packed()(acc, packed[i]);
    g_sink = g_sink + acc.size();
  });
  const double n = static_cast<double>(m) * 7;  // combines performed
  return {"reduce_local", n / tb, n / tp};
}

// Certification-sized blocks (m = 2, CertifyOptions::block): per step an
// op_add zip that the packed side reaches through a pack and leaves through
// an unpack, plus an op_sr2[fmul,fadd] zip on pairs.  At this size a block
// is a few words, so the step measures per-block overhead (allocation,
// dispatch, canonicalization), not arithmetic.
Measurement bench_small_block(int reps) {
  constexpr std::size_t m = 2;
  constexpr int kSteps = 4096;
  Rng rng(7);
  const Block a = random_int_block(rng, m);
  const Block b = random_int_block(rng, m);
  const Block s1 = random_real_block(rng, m);
  const Block s2 = random_real_block(rng, m);
  Block pa, pb;
  for (std::size_t j = 0; j < m; ++j) {
    pa.push_back(Value::tuple_of({s1[j], s2[j]}));
    pb.push_back(Value::tuple_of({s2[j], s1[j]}));
  }
  const auto add = ir::op_add();
  const auto sr2 = rules::make_op_sr2(ir::op_fmul(), ir::op_fadd());
  const PackedBlock ppa = *PackedBlock::pack(pa);
  const PackedBlock ppb = *PackedBlock::pack(pb);

  const double tb = best_seconds(reps, [&] {
    for (int step = 0; step < kSteps; ++step) {
      Block sum(m), pairs(m);
      for (std::size_t j = 0; j < m; ++j) sum[j] = (*add)(a[j], b[j]);
      for (std::size_t j = 0; j < m; ++j) pairs[j] = (*sr2)(pa[j], pb[j]);
      g_sink = g_sink + sum.size() + pairs.size();
    }
  });
  const double tp = best_seconds(reps, [&] {
    for (int step = 0; step < kSteps; ++step) {
      const Block sum =
          add->packed()(*PackedBlock::pack(a), *PackedBlock::pack(b)).unpack();
      const PackedBlock pairs = sr2->packed()(ppa, ppb);
      g_sink = g_sink + sum.size() + pairs.size();
    }
  });
  const double n = static_cast<double>(m) * kSteps;
  return {"small_block", n / tb, n / tp};
}

// Boxed planes copy a Block per hop; the packed plane memcpy-serializes.
// Compare the cost of producing (and consuming) one wire-ready copy.
Measurement bench_serialize(std::size_t m, int reps,
                            obs::MetricsRegistry& reg) {
  Rng rng(4);
  const Block b = random_real_block(rng, m);
  const auto pb = *PackedBlock::pack(b);

  const double tb = best_seconds(reps, [&] {
    const Block copy = b;  // what Mailbox transfer of a fresh Block costs
    g_sink = g_sink + copy.size();
  });
  std::vector<std::byte> bytes;
  const double tp = best_seconds(reps, [&] {
    bytes = pb.to_bytes();
    const PackedBlock back = PackedBlock::from_bytes(bytes.data(), bytes.size());
    g_sink = g_sink + back.size();
  });
  reg.add_row("micro_dataplane",
              {{"serialize_bytes", static_cast<double>(bytes.size())},
               {"serialize_bytes_per_sec",
                static_cast<double>(bytes.size()) / tp}});
  return {"serialize", static_cast<double>(m) / tb,
          static_cast<double>(m) / tp};
}

// --- Phase B: end-to-end pipelines on the thread executor ----------------

double e2e_seconds(const ir::Program& prog, const ir::Dist& input,
                   ir::DataPlane plane, int reps) {
  return best_seconds(reps, [&] {
    const auto r = exec::run_on_threads_instrumented(prog, input, plane);
    g_sink = g_sink + r.output.size();
  });
}

Measurement bench_e2e(const std::string& name, const ir::Program& prog,
                      const ir::Dist& input, int reps) {
  const std::size_t elems = input.size() * input[0].size();
  const double tb = e2e_seconds(prog, input, ir::DataPlane::Boxed, reps);
  const double tp = e2e_seconds(prog, input, ir::DataPlane::Packed, reps);
  return {name, static_cast<double>(elems) / tb,
          static_cast<double>(elems) / tp};
}

// --- Phases C/D: telemetry overhead --------------------------------------

struct Overhead {
  double ratio = 0;  ///< median on/off pair ratio - 1
  double on = 0;     ///< median seconds with the telemetry on
  double off = 0;    ///< median seconds with it off
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Time `pairs` on/off pairs back to back, alternating which side runs
// first, and take the median of the per-pair ratios.  A load spike or a
// frequency step hits both runs of a pair alike, and the median drops the
// pairs a preemption landed in on one side only — unlike one best-of-reps
// ratio, whose two minima may come from different machine states.
template <typename F>
Overhead paired_overhead(int pairs, F&& one_run) {
  one_run(false);  // warm-up
  one_run(true);
  std::vector<double> ratios, on, off;
  for (int i = 0; i < pairs; ++i) {
    const bool on_first = i % 2 == 1;
    const double first = one_run(on_first);
    const double second = one_run(!on_first);
    on.push_back(on_first ? first : second);
    off.push_back(on_first ? second : first);
    ratios.push_back(on.back() / off.back());
  }
  return {median(ratios) - 1.0, median(on), median(off)};
}

// The rt telemetry layer claims always-on, low-overhead.  Hold it to that:
// the same pipeline with the recorder on vs off must agree to within a few
// percent.
double bench_rt_overhead(const ir::Program& prog, const ir::Dist& input,
                         int pairs, obs::MetricsRegistry& reg) {
  auto& cfg = rt::mutable_config();
  const rt::Config saved = cfg;
  auto one_run = [&](bool enabled) {
    cfg.enabled = enabled;
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = exec::run_on_threads_instrumented(prog, input,
                                                     ir::DataPlane::Boxed);
    const auto t1 = std::chrono::steady_clock::now();
    g_sink = g_sink + r.output.size();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  const Overhead o = paired_overhead(pairs, one_run);
  cfg = saved;
  reg.set("rt_overhead_e2e", o.ratio);
  reg.add_row("micro_dataplane",
              {{"rt_e2e_recorder_on_sec", o.on},
               {"rt_e2e_recorder_off_sec", o.off}});
  return o.ratio;
}

// Live monitoring makes the same promise as the flight recorder: cheap
// enough to leave on for the whole run.  With a live run active every
// launch attaches its fleet and the detach folds it, while the sampler
// thread drains the attached fleets concurrently (as under colopt --serve
// --live).  Launches with and without an active run are timed in pairs.
double bench_live_overhead(const ir::Program& prog, const ir::Dist& input,
                           int pairs, obs::MetricsRegistry& reg) {
  obs::Registry scratch;
  rt::LiveSampler sampler(scratch);
  sampler.start();
  rt::LiveRunInfo info;
  info.trace_id = "bench-live-overhead";
  info.program = "scan(+) ; reduce(+)";
  info.ranks = static_cast<int>(input.size());
  info.repeats = pairs + 1;

  auto one_run = [&](bool live) {
    if (live) sampler.begin_run(info);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = exec::run_on_threads_instrumented(prog, input,
                                                     ir::DataPlane::Boxed);
    const auto t1 = std::chrono::steady_clock::now();
    if (live) sampler.end_run();
    g_sink = g_sink + r.output.size();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  const Overhead o = paired_overhead(pairs, one_run);
  sampler.stop();

  reg.set("live_overhead_e2e", o.ratio);
  reg.add_row("micro_dataplane",
              {{"live_e2e_bus_on_sec", o.on}, {"live_e2e_bus_off_sec", o.off}});
  return o.ratio;
}

}  // namespace
}  // namespace colop::bench

int main(int argc, char** argv) {
  using namespace colop;
  using namespace colop::bench;

  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--quick") quick = true;

  const std::size_t m_local = quick ? (1u << 12) : (1u << 16);
  const std::size_t m_e2e = quick ? (1u << 10) : (1u << 15);
  const int reps = quick ? 3 : 12;
  const int e2e_reps = quick ? 2 : 8;
  // Across 15 Release runs on a shared 4-vCPU VM the median of 151 pair
  // ratios stayed within -2.3%..+3.7%, inside the 5% budget; with 31
  // pairs the live estimate still reached +8.6%.
  const int overhead_pairs = quick ? 4 : 151;
  constexpr int kP = 4;

  obs::MetricsRegistry reg;
  record_machine(reg, parsytec(kP, static_cast<double>(m_e2e)));
  reg.set("quick", quick ? 1 : 0);

  std::vector<Measurement> ms;
  double rt_overhead = 0;
  double live_overhead = 0;

  // Phase A: local kernels.
  ms.push_back(bench_map_pair(m_local, reps));
  {
    Rng rng(2);
    const Block a = random_int_block(rng, m_local);
    const Block b = random_int_block(rng, m_local);
    ms.push_back(bench_zip("scan_local", *ir::op_add(), a, b, reps));
  }
  ms.push_back(bench_reduce_local(m_local, reps));
  {
    // op_sr2(fmul,fadd) on pairs: the hot combine of rules SR2/SS2.
    Rng rng(5);
    const Block s1 = random_real_block(rng, m_local);
    const Block s2 = random_real_block(rng, m_local);
    Block a, b;
    for (std::size_t j = 0; j < m_local; ++j) {
      a.push_back(Value::tuple_of({s1[j], s2[j]}));
      b.push_back(Value::tuple_of({s2[j], s1[j]}));
    }
    const auto sr2 = rules::make_op_sr2(ir::op_fmul(), ir::op_fadd());
    ms.push_back(bench_zip("sr2_zip", *sr2, a, b, reps));
  }
  ms.push_back(bench_serialize(m_local, reps, reg));
  ms.push_back(bench_small_block(reps));

  // Phase B: table1-style pipelines, p = 4 ranks on real threads.
  {
    Rng rng(6);
    ir::Dist ints, reals;
    for (int r = 0; r < kP; ++r) {
      auto rr = rng.split(static_cast<std::uint64_t>(r));
      ints.push_back(random_int_block(rr, m_e2e));
      reals.push_back(random_real_block(rr, m_e2e));
    }

    ir::Program scan_reduce;  // Table 1 LHS of SR-Reduction
    scan_reduce.scan(ir::op_add()).reduce(ir::op_add());
    ms.push_back(bench_e2e("e2e_scan_reduce", scan_reduce, ints, e2e_reps));

    ir::Program sr2_rhs;  // Table 1 RHS of SR2-Reduction
    sr2_rhs.map(ir::fn_pair())
        .allreduce(rules::make_op_sr2(ir::op_fmul(), ir::op_fadd()), 2)
        .map(ir::fn_proj1());
    ms.push_back(bench_e2e("e2e_sr2_allreduce", sr2_rhs, reals, e2e_reps));

    ir::Program bcast_scan;  // Table 1 LHS of BS-Comcast
    bcast_scan.bcast().scan(ir::op_add());
    ms.push_back(bench_e2e("e2e_bcast_scan", bcast_scan, ints, e2e_reps));

    rt_overhead = bench_rt_overhead(scan_reduce, ints, overhead_pairs, reg);
    live_overhead =
        bench_live_overhead(scan_reduce, ints, overhead_pairs, reg);
  }

  std::cout << "micro_dataplane (m_local=" << m_local << ", m_e2e=" << m_e2e
            << ", p=" << kP << (quick ? ", quick" : "") << ")\n";
  std::cout << "  kernel               boxed elems/s   packed elems/s   speedup\n";
  double e2e_speedup_min = std::numeric_limits<double>::max();
  for (const auto& m : ms) {
    std::printf("  %-20s %14.3e %16.3e %8.2fx\n", m.name.c_str(),
                m.boxed_elems_per_sec, m.packed_elems_per_sec, m.speedup());
    reg.set("speedup_" + m.name, m.speedup());
    reg.add_row("micro_dataplane",
                {{"boxed_" + m.name + "_elems_per_sec", m.boxed_elems_per_sec},
                 {"packed_" + m.name + "_elems_per_sec",
                  m.packed_elems_per_sec}});
    if (m.name.rfind("e2e_", 0) == 0)
      e2e_speedup_min = std::min(e2e_speedup_min, m.speedup());
  }
  reg.set("speedup_e2e_min", e2e_speedup_min);

  std::printf("  rt recorder overhead on e2e_scan_reduce: %+.2f%%\n",
              rt_overhead * 100);
  std::printf("  live sampler overhead on e2e_scan_reduce: %+.2f%%\n",
              live_overhead * 100);

  // Pass/fail as deterministic 0/1 scalars so the bench-history anomaly
  // gate tracks the budgets without chasing the noisy ratios themselves.
  // Quick runs are too short for a stable ratio, so they report only and
  // always count as ok.
  const bool rt_ok = quick || rt_overhead <= 0.05;
  const bool live_ok = quick || live_overhead <= 0.05;
  reg.set("rt_overhead_ok", rt_ok ? 1 : 0);
  reg.set("live_overhead_ok", live_ok ? 1 : 0);

  write_bench_json("micro_dataplane", reg);

  // Gate: both telemetry layers must stay cheap on the e2e path.
  if (!rt_ok) {
    std::cerr << "FAIL: rt recorder overhead " << rt_overhead * 100
              << "% exceeds the 5% budget\n";
    return 1;
  }
  if (!live_ok) {
    std::cerr << "FAIL: live sampler overhead " << live_overhead * 100
              << "% exceeds the 5% budget\n";
    return 1;
  }
  return 0;
}
