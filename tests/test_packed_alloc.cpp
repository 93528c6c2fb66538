// Heap-allocation pins for the packed data plane.  Rule certification
// evaluates every rewrite on blocks of 2 elements; at that size packing,
// the kernels and a mailbox hop must not touch the allocator, and at
// 65536 elements they must take a small constant number of buffers, not
// one per lane or mask; a kernel handed an operand to compute in takes
// none, and so a packed collective allocates only the copies it sends.
// A packed thread run must hand its output back in the input's own
// blocks, not in a second boxed Dist.  This binary replaces the global
// operator new and operator new[] to count calls and bytes: PackedBlock
// allocates with new[], which libstdc++ routes through operator new but
// AddressSanitizer's runtime does not.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "colop/exec/thread_executor.h"
#include "colop/ir/binop.h"
#include "colop/ir/packed.h"
#include "colop/ir/plane.h"
#include "colop/mpsim/mpsim.h"
#include "colop/rules/derived_ops.h"

namespace {
std::atomic<long> g_news{0};
std::atomic<std::size_t> g_bytes{0};
/// Allocations of exactly this many bytes are counted apart (g_sized_bytes).
std::atomic<std::size_t> g_sized{0};
std::atomic<std::size_t> g_sized_bytes{0};
std::atomic<long> g_sized_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n == g_sized.load(std::memory_order_relaxed)) {
    g_sized_bytes.fetch_add(n, std::memory_order_relaxed);
    g_sized_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// Out of line, so GCC does not pair an inlined `new` with free().
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

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

Block int_pairs(std::size_t m) {
  Block b;
  for (std::size_t i = 0; i < m; ++i) {
    const auto x = static_cast<std::int64_t>(i % 7);
    b.push_back(Value::tuple_of({Value(x), Value(x + 1)}));
  }
  return b;
}

Block real_quads(std::size_t m) {
  Block b;
  for (std::size_t i = 0; i < m; ++i) {
    const double x = 0.25 * static_cast<double>(i % 5);
    b.push_back(Value::tuple_of({Value(x), Value(1.5), Value(-x), Value(0.5)}));
  }
  return b;
}

struct Case {
  std::size_t m;
  long max_news;  ///< per call of each step below
};

// m = 2: nothing.  m = 65536: one buffer per block made.  A derived kernel
// makes only its output block, and none when it is handed an operand to
// compute in; a comcast digit loop makes its auxiliary variables.
TEST(PackedAlloc, CertificationSizedBlocksAllocateNothing) {
  const auto add = op_add();
  const auto sr2 = rules::make_op_sr2(op_fmul(), op_fadd());
  const auto sr = rules::make_op_sr(op_add());
  const auto ss = rules::make_op_ss(op_fadd());
  const ElemFn pair = fn_pair(), proj1 = fn_proj1();
  const ElemFn bsr2 = rules::make_op_bsr2(op_mul(), op_add());
  const ElemFn bsr = rules::make_op_bsr(op_add());
  const ElemIdxFn bs = rules::make_op_comp_bs(op_add());
  const ElemIdxFn bss2 = rules::make_op_comp_bss2(op_mul(), op_add());
  const ElemIdxFn bss = rules::make_op_comp_bss(op_add());
  for (const auto& [m, bound] : {Case{2, 0}, Case{65536, 1}}) {
    const Block boxed = ints(m);
    const Block pairs = real_pairs(m);
    const PackedBlock a = *PackedBlock::pack(boxed);
    const PackedBlock p = *PackedBlock::pack(pairs);
    const PackedBlock ip = *PackedBlock::pack(int_pairs(m));
    const PackedBlock q = *PackedBlock::pack(real_quads(m));
    const PackedBinFn& add_kernel = add->packed();
    const PackedBinFn& sr2_kernel = sr2->packed();
    EXPECT_LE(news_during([&] { (void)PackedBlock::scalars(m, DType::i64); }), bound)
        << "scalars, m " << m;
    EXPECT_LE(news_during([&] { (void)PackedBlock::pack(boxed); }), bound)
        << "pack, m " << m;
    EXPECT_LE(news_during([&] { (void)add_kernel(a, a); }), bound)
        << "op_add, m " << m;
    EXPECT_LE(news_during([&] { (void)sr2_kernel(p, p); }), bound)
        << "op_sr2[fmul,fadd], m " << m;
    EXPECT_LE(news_during([&] { (void)sr.packed_combine(ip, ip); }), bound)
        << "op_sr combine, m " << m;
    // Kernels that take their operands by value (maps) or as rvalues (the
    // collectives' call form) compute in them: copies are made outside.
    const auto in_place = [&](const PackedBlock& operand, const auto& kernel) {
      PackedBlock x = operand, y = operand;
      return news_during([&] { (void)kernel(std::move(x), std::move(y)); });
    };
    const auto by_value = [&](const PackedBlock& operand, const auto& kernel) {
      PackedBlock x = operand;
      return news_during([&] { (void)kernel(std::move(x)); });
    };
    EXPECT_EQ(in_place(a, add_kernel), 0) << "op_add in place, m " << m;
    EXPECT_EQ(in_place(p, sr2_kernel), 0) << "op_sr2 in place, m " << m;
    EXPECT_EQ(in_place(ip, sr.packed_combine), 0) << "op_sr combine in place, m " << m;
    EXPECT_EQ(in_place(q, ss.packed_combine2), 0) << "op_ss combine2 in place, m " << m;
    EXPECT_EQ(by_value(ip, sr.packed_unit), 0) << "op_sr unit, m " << m;
    EXPECT_EQ(by_value(q, ss.packed_degrade), 0) << "op_ss degrade, m " << m;
    EXPECT_EQ(by_value(q, ss.packed_strip), 0) << "op_ss strip, m " << m;
    EXPECT_EQ(by_value(ip, bsr2.packed_fn), 0) << "op_bsr2, m " << m;
    EXPECT_EQ(by_value(ip, bsr.packed_fn), 0) << "op_bsr, m " << m;
    EXPECT_EQ(by_value(p, proj1.packed_fn), 0) << "pi1, m " << m;
    EXPECT_LE(by_value(a, pair.packed_fn), bound) << "pair, m " << m;
    const auto digits = [&](const ElemIdxFn& f) {
      return by_value(a, [&f](PackedBlock b) { return f.packed_fn(5, std::move(b)); });
    };
    EXPECT_LE(digits(bs), bound) << "op_comp_bs (t), m " << m;
    EXPECT_LE(digits(bss2), 3 * bound) << "op_comp_bss2 (s, t, t*u), m " << m;
    EXPECT_LE(digits(bss), 4 * bound) << "op_comp_bss (s, t, u, u+u), m " << m;
  }
}

// A packed scan or allreduce at p = 2 on the thread runtime makes no block
// but the one copy each rank sends while it keeps its own value: every
// combine computes in a buffer the collective already owns.
TEST(PackedAlloc, PackedCollectiveAllocatesOnlyItsSendCopies) {
  constexpr std::size_t m = 65536;
  const PackedBlock block = *PackedBlock::pack(ints(m));
  const BinOp& add = *op_add();
  const auto launch = [&](auto collective) {
    std::vector<PackedBlock> blocks(2, block);
    (void)mpsim::run_spmd_collect<int>(2, [&](mpsim::Comm& comm) {  // warm the pool
      return comm.rank();
    });
    g_sized_news.store(0);
    g_sized.store(8 * (m + mask_words(m) + 1));
    mpsim::run_spmd(2, [&](mpsim::Comm& comm) {
      PackedBlock& mine = blocks[static_cast<std::size_t>(comm.rank())];
      mine = collective(comm, std::move(mine), Plane<PackedBlock>::binop(add));
    });
    g_sized.store(0);
    EXPECT_FALSE(blocks[1].is_wild());
    return g_sized_news.load();
  };
  // Each rank keeps its value and sends a copy of it: two in all.
  const long scan_news =
      launch([](const mpsim::Comm& comm, PackedBlock b, auto op) {
        return mpsim::scan(comm, std::move(b), op);
      });
  EXPECT_GT(scan_news, 0) << "scan: the counter saw no block";
  EXPECT_LE(scan_news, 2) << "scan";
  const long allreduce_news =
      launch([](const mpsim::Comm& comm, PackedBlock b, auto op) {
        return mpsim::allreduce(comm, std::move(b), op);
      });
  EXPECT_GT(allreduce_news, 0) << "allreduce: the counter saw no block";
  EXPECT_LE(allreduce_news, 2) << "allreduce";
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
