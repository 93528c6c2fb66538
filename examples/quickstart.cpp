// Quickstart: the paper's Example program (Section 2.1), optimized with
// the cost-directed rewriter and executed on the SPMD thread runtime.
//
//   Program Example(x, v):
//     y = f(x); MPI_Scan(y, z, *, ...); MPI_Reduce(z, u, +, ...);
//     v = g(u); MPI_Bcast(v, ...)
//
// Build & run:   ./build/examples/quickstart

#include <cstdint>
#include <iostream>

#include "colop/exec/thread_executor.h"
#include "colop/ir/ir.h"
#include "colop/rules/optimizer.h"
#include "colop/support/table.h"

int main() {
  using namespace colop;

  // 1. Write the program in the formal framework (Eq 2):
  //    example = map f ; scan (*) ; reduce (+) ; map g ; bcast
  ir::Program example;
  example
      .map({"f", [](const ir::Value& v) { return ir::Value(v.as_int() % 3); }, 1})
      .scan(ir::op_mul())
      .reduce(ir::op_add())
      .map({"g", [](const ir::Value& v) { return ir::Value(10 * v.as_int()); }, 1})
      .bcast();
  std::cout << "program   : " << example.show() << "\n\n";

  // 2. Describe the target machine (Section 4.1 cost model) and optimize.
  const model::Machine machine{.p = 16, .m = 64, .ts = 400, .tw = 2};
  const rules::Optimizer optimizer(machine);
  const auto result = optimizer.optimize(example);
  std::cout << "derivation:\n" << result.report() << "\n";
  std::cout << "predicted speedup: " << result.speedup() << "x\n\n";

  // 3. Execute original and optimized programs on the SPMD thread runtime
  //    (16 ranks, each on its own thread) and compare.
  ir::Dist input(16);
  for (int r = 0; r < 16; ++r)
    input[static_cast<std::size_t>(r)] = ir::block_of_ints({r + 1, 2 * r + 1});

  const auto before = exec::run_on_threads_instrumented(example, input);
  const auto after = exec::run_on_threads_instrumented(result.program, input);

  Table t("execution on the mpsim thread runtime (p=16)",
          {"version", "messages", "bytes", "output@root"});
  t.add("original", before.traffic.messages, before.traffic.bytes,
        ir::to_string(before.output[0]));
  t.add("optimized", after.traffic.messages, after.traffic.bytes,
        ir::to_string(after.output[0]));
  t.print(std::cout);

  const bool same = before.output == after.output;
  std::cout << "\noutputs identical on every rank: " << (same ? "yes" : "NO")
            << "\n";
  return same ? 0 : 1;
}
