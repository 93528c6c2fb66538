// Heap-allocation pins for the packed data plane.  Rule certification
// evaluates every rewrite on blocks of 2 elements; at that size packing,
// the kernels and a mailbox hop must not touch the allocator, and at
// 65536 elements they must take a small constant number of buffers, not
// one per lane or mask.  A packed thread run must hand its output back in
// the input's own blocks, not in a second boxed Dist.  This binary
// replaces the global operator new to count calls and bytes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "colop/exec/thread_executor.h"
#include "colop/ir/binop.h"
#include "colop/ir/packed.h"
#include "colop/mpsim/group.h"
#include "colop/rules/derived_ops.h"

namespace {
std::atomic<long> g_news{0};
std::atomic<std::size_t> g_bytes{0};
/// Allocations of exactly this many bytes are counted apart (g_sized_bytes).
std::atomic<std::size_t> g_sized{0};
std::atomic<std::size_t> g_sized_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n == g_sized.load(std::memory_order_relaxed))
    g_sized_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so GCC does not pair an inlined `new` with free().
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace colop::ir {
namespace {

template <typename F>
long news_during(F&& f) {
  const long before = g_news.load(std::memory_order_relaxed);
  f();
  return g_news.load(std::memory_order_relaxed) - before;
}

Block ints(std::size_t m) {
  Block b;
  for (std::size_t i = 0; i < m; ++i)
    b.push_back(i % 3 == 1 ? Value::undefined() : Value(static_cast<std::int64_t>(i)));
  return b;
}

Block real_pairs(std::size_t m) {
  Block b;
  for (std::size_t i = 0; i < m; ++i)
    b.push_back(Value::tuple_of({Value(0.5 * static_cast<double>(i)), Value(1.5)}));
  return b;
}

struct Case {
  std::size_t m;
  long max_news;  ///< per call of each step below
};

// m = 2: nothing.  m = 65536: one buffer per block made (the sr2 kernel
// makes 8: four lane views, three partial results and the tuple).
TEST(PackedAlloc, CertificationSizedBlocksAllocateNothing) {
  const auto add = op_add();
  const auto sr2 = rules::make_op_sr2(op_fmul(), op_fadd());
  for (const auto& [m, bound] : {Case{2, 0}, Case{65536, 1}}) {
    const Block boxed = ints(m);
    const Block pairs = real_pairs(m);
    const PackedBlock a = *PackedBlock::pack(boxed);
    const PackedBlock p = *PackedBlock::pack(pairs);
    const PackedBinFn& add_kernel = add->packed();
    const PackedBinFn& sr2_kernel = sr2->packed();
    EXPECT_LE(news_during([&] { (void)PackedBlock::scalars(m, DType::i64); }), bound)
        << "scalars, m " << m;
    EXPECT_LE(news_during([&] { (void)PackedBlock::pack(boxed); }), bound)
        << "pack, m " << m;
    EXPECT_LE(news_during([&] { (void)add_kernel(a, a); }), bound)
        << "op_add, m " << m;
    EXPECT_LE(news_during([&] { (void)sr2_kernel(p, p); }), 8 * bound)
        << "op_sr2[fmul,fadd], m " << m;
  }
}

TEST(PackedAlloc, MailboxHopOfASmallBlockAllocatesNothing) {
  const auto group = std::make_shared<mpsim::Group>(2);
  mpsim::Mailbox& mb = group->mailbox(1);
  const PackedBlock block = *PackedBlock::pack(ints(2));
  const auto hop = [&] {
    mb.put(mpsim::Message{mpsim::Payload(block), payload_bytes(block), 0, 5});
    const mpsim::Message msg = mb.take(0, 5);
    ASSERT_NE(msg.payload.get<PackedBlock>(), nullptr);
  };
  hop();  // the first hop makes the key's queue and a cell
  EXPECT_EQ(news_during(hop), 0);
}

// Two ranks of 65536 int scalars through scan, allreduce and a map: the
// stages make packed blocks (one buffer of m + m/64 + 1 words each), and
// everything else the run allocates, group and telemetry included, stays
// under one boxed block.  Unpacking into a fresh Dist took two.
TEST(PackedAlloc, PackedRunReturnsTheInputsBlocks) {
  constexpr std::size_t m = 65536;
  Program prog;
  prog.scan(op_add()).allreduce(op_max()).map(fn_id());
  const Dist input(2, ints(m));
  (void)exec::run_on_threads(prog, input, DataPlane::Packed);  // warm the pool
  Dist staged = input;
  g_sized.store(8 * (m + mask_words(m) + 1));
  const std::size_t bytes0 = g_bytes.load(), sized0 = g_sized_bytes.load();
  Dist out = exec::run_on_threads(prog, std::move(staged), DataPlane::Packed);
  const std::size_t bytes = g_bytes.load() - bytes0;
  const std::size_t packed = g_sized_bytes.load() - sized0;
  g_sized.store(0);
  EXPECT_GT(packed, 0u);
  EXPECT_LT(bytes - packed, m * sizeof(Value));
  EXPECT_EQ(out.size(), 2u);
}

}  // namespace
}  // namespace colop::ir
