// Differential fuzzing of the flat data plane: random programs x operator
// families x processor counts x block sizes, asserting that the packed
// plane is bit-for-bit the boxed plane — same outputs (int vs real
// distinction, double bit patterns, undefined propagation), same wire
// traffic (message and byte counts) — on the reference evaluator and on
// the mpsim thread executor alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "colop/exec/thread_executor.h"
#include "colop/ir/packed_eval.h"
#include "colop/rules/derived_ops.h"
#include "colop/rules/rules.h"
#include "colop/support/rng.h"
#include "colop/verify/schedule.h"

namespace colop::ir {
namespace {

// Random distributed list: p blocks of m elements.  kind 0 = int, 1 = real.
Dist random_input(Rng& rng, int p, int m, int kind, double undef_prob) {
  Dist input;
  for (int r = 0; r < p; ++r) {
    Block blk;
    for (int j = 0; j < m; ++j) {
      if (rng.uniform01() < undef_prob) {
        blk.push_back(Value::undefined());
      } else if (kind == 0) {
        blk.push_back(Value(rng.uniform(-40, 40)));
      } else {
        blk.push_back(Value(static_cast<double>(rng.uniform(-400, 400)) / 16));
      }
    }
    input.push_back(std::move(blk));
  }
  return input;
}

// Both planes, reference and threads; asserts bitwise equality everywhere.
// With require_packable, a silent boxed fallback is itself a bug — the
// caller promises every stage has a kernel (rule-RHS programs with iter at
// non-power-of-two p legitimately stay boxed and only check the fallback).
void differential(const Program& prog, const Dist& input,
                  bool require_packable = true) {
  SCOPED_TRACE(prog.show());
  const Dist ref = eval_reference_boxed(prog, input);
  EXPECT_EQ(prog.eval_reference(input), ref);  // Auto routing

  if (!try_pack_for(prog, input).has_value()) {
    EXPECT_FALSE(require_packable) << "expected packable: " << prog.show();
    const auto fallback = exec::run_on_threads_instrumented(prog, input);
    EXPECT_FALSE(fallback.used_packed);
    EXPECT_EQ(fallback.output, ref);
    return;
  }
  const auto boxed =
      exec::run_on_threads_instrumented(prog, input, DataPlane::Boxed);
  const auto packed =
      exec::run_on_threads_instrumented(prog, input, DataPlane::Packed);
  EXPECT_TRUE(packed.used_packed);
  EXPECT_EQ(packed.output, boxed.output);
  EXPECT_EQ(packed.traffic.messages, boxed.traffic.messages);
  EXPECT_EQ(packed.traffic.bytes, boxed.traffic.bytes);
}

std::vector<BinOpPtr> int_ops() {
  return {op_add(),       op_mul(),       op_max(),  op_min(), op_band(),
          op_bor(),       op_gcd(),       op_modadd(97),
          op_modmul(97),  op_first()};
}

std::vector<BinOpPtr> real_ops() {
  return {op_add(), op_mul(), op_max(), op_min(),
          op_fadd(), op_fmul(), op_first()};
}

constexpr int kProcCounts[] = {1, 2, 3, 4, 5, 7, 8};
constexpr int kBlockSizes[] = {1, 3, 8};

// Random program of 1-4 stages over `ops`.  The first six stage kinds all
// have flat-plane kernels; `boxed_only_stages` adds four that can force the
// program off the flat plane (an opaque map, a split-phase window, iter,
// which is packable only at powers of two, and pair, which nests the
// element shape when applied twice).
Program random_program(Rng& rng, int p, const std::vector<BinOpPtr>& ops,
                       bool boxed_only_stages = false) {
  const auto pick = [&] {
    return ops[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(ops.size()) - 1))];
  };
  const ElemFn opaque{"opaque", [](const Value& v) { return v; }, 1.0,
                      nullptr, nullptr};
  Program prog;
  const int len = static_cast<int>(rng.uniform(1, 4));
  for (int i = 0; i < len; ++i) {
    switch (rng.uniform(0, boxed_only_stages ? 9 : 5)) {
      case 0: prog.scan(pick()); break;
      case 1: prog.reduce(pick(), static_cast<int>(rng.uniform(0, p - 1)));
        break;
      case 2: prog.allreduce(pick()); break;
      case 3: prog.bcast(static_cast<int>(rng.uniform(0, p - 1))); break;
      case 4: prog.map_indexed(rules::make_op_comp_bs(pick())); break;
      case 5: prog.map(fn_id()); break;
      case 6: prog.map(opaque); break;
      case 7: prog.istart_allreduce(pick(), 1, i + 1).wait(i + 1); break;
      case 8: prog.iter(fn_id()); break;
      default: prog.map(fn_pair()); break;
    }
  }
  return prog;
}

TEST(FuzzDataPlane, RandomScalarPrograms) {
  Rng rng(20260807);
  for (int trial = 0; trial < 120; ++trial) {
    const int p = kProcCounts[rng.uniform(0, 6)];
    const int m = kBlockSizes[rng.uniform(0, 2)];
    const int kind = static_cast<int>(rng.uniform(0, 1));
    const Program prog =
        random_program(rng, p, kind == 0 ? int_ops() : real_ops());
    differential(prog, random_input(rng, p, m, kind, 0.1));
  }
}

// The V208 lint and packable() read one eligibility walk: the lint fires
// exactly when the program is not packable, at the first stage whose
// prefix stops being packable.
TEST(FuzzDataPlane, V208FiresExactlyWhenNotPackable) {
  Rng rng(20261017);
  int unpackable = 0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    const int p = kProcCounts[rng.uniform(0, 6)];
    const Program prog = random_program(
        rng, p, rng.uniform(0, 1) == 0 ? int_ops() : real_ops(), true);
    SCOPED_TRACE(prog.show() + " at p=" + std::to_string(p));
    verify::ScheduleOptions opts;
    opts.p = p;
    const verify::Report report = verify::analyze_schedule(prog, opts);
    const auto v208 = std::find_if(
        report.diagnostics().begin(), report.diagnostics().end(),
        [](const verify::Diagnostic& d) { return d.code == "V208"; });
    const bool lint = v208 != report.diagnostics().end();
    ASSERT_EQ(lint, !packable(prog, Shape::scalar(), p));
    if (!lint) continue;
    ++unpackable;
    std::size_t first = 0;
    const auto& stages = prog.stages();
    while (packable(Program({stages.begin(),
                             stages.begin() + static_cast<std::ptrdiff_t>(first + 1)}),
                    Shape::scalar(), p))
      ++first;
    ASSERT_TRUE(v208->stage.has_value());
    EXPECT_EQ(*v208->stage, first);
  }
  // Both outcomes are exercised.
  EXPECT_GT(unpackable, kTrials / 10);
  EXPECT_LT(unpackable, kTrials * 9 / 10);
}

TEST(FuzzDataPlane, UndefinedHeavyInputs) {
  // Whole blocks of `_`, sparse defined islands, non-power-of-two p: the
  // undefined-propagation rules of the gated operators must coincide.
  Rng rng(715);
  for (int trial = 0; trial < 60; ++trial) {
    const int p = kProcCounts[rng.uniform(0, 6)];
    const int m = kBlockSizes[rng.uniform(0, 2)];
    const int kind = static_cast<int>(rng.uniform(0, 1));
    const auto ops = kind == 0 ? int_ops() : real_ops();
    const auto op = ops[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(ops.size()) - 1))];

    Program prog;
    prog.scan(op).allreduce(op);
    differential(prog, random_input(rng, p, m, kind, 0.7));
  }
}

// The paper's Table 1 programs (LHS) and every rule application (RHS),
// on both operator families, across processor counts: the workloads the
// flat plane exists to accelerate must be plane-independent.
TEST(FuzzDataPlane, Table1RulesLhsAndRhs) {
  Rng rng(42);
  const auto rules_list = rules::all_rules();
  for (const bool real_family : {false, true}) {
    const BinOpPtr add = real_family ? op_fadd() : op_add();
    const BinOpPtr mul = real_family ? op_fmul() : op_mul();
    std::vector<Program> lhss;
    {
      Program a; a.scan(mul).reduce(add); lhss.push_back(a);
      Program b; b.scan(add).reduce(add); lhss.push_back(b);
      Program c; c.scan(mul).scan(add); lhss.push_back(c);
      Program d; d.scan(add).scan(add); lhss.push_back(d);
      Program e; e.bcast().scan(add); lhss.push_back(e);
      Program f; f.bcast().scan(mul).scan(add); lhss.push_back(f);
      Program g; g.bcast().scan(add).scan(add); lhss.push_back(g);
      Program h; h.bcast().reduce(add); lhss.push_back(h);
      Program i; i.bcast().scan(mul).reduce(add); lhss.push_back(i);
      Program j; j.bcast().scan(add).reduce(add); lhss.push_back(j);
      Program k; k.bcast().allreduce(add); lhss.push_back(k);
      Program l; l.scan(add).allreduce(add); lhss.push_back(l);
      Program n; n.reduce(add).bcast(); lhss.push_back(n);
    }
    for (const Program& lhs : lhss) {
      std::vector<Program> variants{lhs};
      for (const auto& rule : rules_list)
        for (const auto& match : rule->matches(lhs))
          variants.push_back(match.apply(lhs));
      for (const Program& prog : variants) {
        for (const int p : {1, 2, 3, 4, 5, 7, 8}) {
          const int m = kBlockSizes[rng.uniform(0, 2)];
          // Local-rule RHS (iter) is packable only at powers of two.
          differential(prog, random_input(rng, p, m, real_family ? 1 : 0, 0.0),
                       /*require_packable=*/false);
        }
      }
    }
  }
}

TEST(FuzzDataPlane, SerializationFuzz) {
  // Random blocks through the wire format: to_bytes/from_bytes must be
  // the identity on the canonical form.
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const int m = static_cast<int>(rng.uniform(0, 70));
    const int arity = static_cast<int>(rng.uniform(0, 3));
    Block blk;
    for (int j = 0; j < m; ++j) {
      if (rng.uniform01() < 0.25) {
        blk.push_back(Value::undefined());
        continue;
      }
      if (arity == 0) {
        if (rng.uniform01() < 0.5)
          blk.push_back(Value(rng.uniform(-1000, 1000)));
        else
          blk.push_back(Value(rng.uniform01()));
      } else {
        Tuple t;
        for (int c = 0; c < arity; ++c)
          t.push_back(rng.uniform01() < 0.2 ? Value::undefined()
                                            : Value(rng.uniform(-50, 50)));
        blk.push_back(Value(std::move(t)));
      }
    }
    const auto packed = PackedBlock::pack(blk);
    if (!packed) continue;  // mixed lanes (int vs real in one lane)
    ASSERT_EQ(packed->unpack(), blk);
    const auto bytes = packed->to_bytes();
    EXPECT_EQ(PackedBlock::from_bytes(bytes.data(), bytes.size()), *packed);
  }
}

}  // namespace
}  // namespace colop::ir
