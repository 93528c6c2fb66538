// Flat data plane: PackedBlock pack/unpack is lossless, serialization
// round-trips, wire accounting matches the boxed word counts, compiled
// kernels agree with the boxed operators (including undefined gating and
// int/real promotion), packable() admits exactly the flat programs, and
// the thread executor produces identical results and traffic on both
// planes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "colop/exec/thread_executor.h"
#include "colop/ir/packed.h"
#include "colop/ir/packed_eval.h"
#include "colop/ir/packed_kernels.h"
#include "colop/rules/derived_ops.h"
#include "colop/support/error.h"

namespace colop::ir {
namespace {

Value U() { return Value::undefined(); }

Block boxed_apply2(const BinOp& op, const Block& a, const Block& b) {
  Block out(a.size());
  for (std::size_t j = 0; j < a.size(); ++j) out[j] = op(a[j], b[j]);
  return out;
}

std::size_t boxed_bytes(const Block& b) {
  std::size_t n = 0;
  for (const Value& v : b) n += payload_bytes(v);
  return n;
}

// --- masks ---------------------------------------------------------------

TEST(PackedMask, BasicOps) {
  Mask m(mask_words(130), 0);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(mask_none(m));
  EXPECT_EQ(mask_popcount(m), 0u);
  mask_set(m, 0, true);
  mask_set(m, 64, true);
  mask_set(m, 129, true);
  EXPECT_EQ(mask_popcount(m), 3u);
  EXPECT_TRUE(mask_get(m, 129));
  EXPECT_FALSE(mask_get(m, 128));
  EXPECT_FALSE(mask_get(m, 4096));  // out of range reads as undefined

  Mask full(mask_words(130));
  mask_fill(full, 130);
  EXPECT_EQ(mask_popcount(full), 130u);
  EXPECT_EQ(full.back(), 0x3u);  // tail bits past element 129 stay clear
  EXPECT_TRUE(mask_subset(m, full));
  EXPECT_FALSE(mask_subset(full, m));
  Mask both = m;
  mask_and_into(both, full);
  EXPECT_EQ(both, m);
  EXPECT_FALSE(mask_disjoint(m, full));
  EXPECT_TRUE(mask_disjoint(m, Mask(3, 0)));
  mask_and_into(both, Mask(1, ~std::uint64_t{0}));  // missing words read as 0
  EXPECT_EQ(mask_popcount(both), 1u);
}

// --- pack / unpack -------------------------------------------------------

TEST(PackedBlockTest, ScalarIntRoundTrip) {
  const Block b{Value(1), Value(2), U(), Value(-7)};
  const auto p = PackedBlock::pack(b);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->is_scalar());
  EXPECT_EQ(p->dtype(0), DType::i64);
  EXPECT_EQ(p->unpack(), b);
}

TEST(PackedBlockTest, ScalarRealRoundTrip) {
  const Block b{Value(1.5), U(), Value(-0.0), Value(3.25)};
  const auto p = PackedBlock::pack(b);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->dtype(0), DType::f64);
  const Block back = p->unpack();
  ASSERT_EQ(back.size(), b.size());
  EXPECT_EQ(back, b);  // structural: -0.0 bit pattern preserved
}

TEST(PackedBlockTest, AllUndefinedCollapsesToWild) {
  const Block b{U(), U(), U()};
  const auto p = PackedBlock::pack(b);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->is_wild());
  EXPECT_EQ(p->unpack(), b);
  EXPECT_EQ(payload_bytes(*p), 0u);
}

TEST(PackedBlockTest, TupleWithUndefinedComponentsRoundTrip) {
  const Block b{Value::tuple_of({Value(1), Value(2.5)}),
                Value::tuple_of({U(), Value(3.5)}), U(),
                Value::tuple_of({Value(4), U()})};
  const auto p = PackedBlock::pack(b);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->arity(), 2);
  EXPECT_EQ(p->unpack(), b);
}

TEST(PackedBlockTest, RejectsUnpackableShapes) {
  // Mixed int/real in one lane.
  EXPECT_FALSE(PackedBlock::pack({Value(1), Value(2.0)}).has_value());
  // Mixed arity.
  EXPECT_FALSE(PackedBlock::pack({Value::tuple_of({Value(1), Value(2)}),
                                  Value::tuple_of({Value(1)})})
                   .has_value());
  // Scalar next to tuple.
  EXPECT_FALSE(
      PackedBlock::pack({Value(1), Value::tuple_of({Value(1), Value(2)})})
          .has_value());
  // Nested tuple.
  EXPECT_FALSE(PackedBlock::pack(
                   {Value::tuple_of({Value::tuple_of({Value(1)}), Value(2)})})
                   .has_value());
  // Empty tuple.
  EXPECT_FALSE(PackedBlock::pack({Value(Tuple{})}).has_value());
}

TEST(PackedBlockTest, WireBytesMatchBoxedWordCounts) {
  // The paper's accounting: undefined costs zero words.  The flat plane
  // must charge identical traffic, or rule cost comparisons would change
  // depending on the data plane.
  const Block blocks[] = {
      {Value(1), Value(2), U(), Value(3)},
      {U(), U()},
      {Value::tuple_of({Value(1), U()}), U(),
       Value::tuple_of({Value(2), Value(3)})},
      {Value(1.5), Value(2.5)},
  };
  for (const Block& b : blocks) {
    const auto p = PackedBlock::pack(b);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(payload_bytes(*p), boxed_bytes(b));
  }
}

TEST(PackedBlockTest, SerializationRoundTrips) {
  const Block blocks[] = {
      {Value(1), U(), Value(3)},
      {U(), U(), U()},
      {Value::tuple_of({Value(1), Value(2.5)}), U(),
       Value::tuple_of({U(), Value(-1.5)})},
  };
  for (const Block& b : blocks) {
    const auto p = PackedBlock::pack(b);
    ASSERT_TRUE(p.has_value());
    const auto bytes = p->to_bytes();
    const PackedBlock q = PackedBlock::from_bytes(bytes.data(), bytes.size());
    EXPECT_EQ(q, *p);
    EXPECT_EQ(q.unpack(), b);
  }
}

TEST(PackedBlockTest, FromBytesRejectsGarbage) {
  EXPECT_THROW((void)PackedBlock::from_bytes(nullptr, 0), Error);
  const std::vector<std::byte> junk(16, std::byte{0x5a});
  EXPECT_THROW((void)PackedBlock::from_bytes(junk.data(), junk.size()), Error);
}

// --- storage: inline (small) and heap (large) blocks ----------------------

// A canonical block of m elements with the given arity (kWildArity: every
// element `_`): whole-element and per-component `_`, int and real lanes.
PackedBlock sample_block(std::size_t m, int arity) {
  Block b(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (arity == PackedBlock::kWildArity || i % 5 == 3) continue;
    const auto scalar = [i](std::size_t l) {
      if ((i + l) % 7 == 2) return U();
      const auto v = static_cast<std::int64_t>(i * 31 + l) - 40;
      return l % 2 == 1 ? Value(static_cast<double>(v) + 0.5) : Value(v);
    };
    if (arity == 0) {
      b[i] = scalar(0);
    } else {
      Tuple t;
      for (int l = 0; l < arity; ++l) t.push_back(scalar(static_cast<std::size_t>(l)));
      b[i] = Value(std::move(t));
    }
  }
  auto p = PackedBlock::pack(b);
  EXPECT_TRUE(p.has_value()) << "m " << m << " arity " << arity;
  if (!p) return PackedBlock::wild(m);
  EXPECT_EQ(p->unpack(), b) << "m " << m << " arity " << arity;
  return *p;
}

// Sizes on both sides of the inline limit (8 elements) and of each mask
// word, times every lane count up to the inline limit (4 lanes).
std::vector<PackedBlock> boundary_blocks() {
  std::vector<PackedBlock> out;
  for (const std::size_t m : {0, 1, 2, 8, 9, 63, 64, 65, 4096})
    for (const int arity : {PackedBlock::kWildArity, 0, 1, 2, 4})
      out.push_back(sample_block(m, arity));
  return out;
}

std::string describe(const PackedBlock& b) {
  return "m " + std::to_string(b.size()) + " arity " + std::to_string(b.arity());
}

TEST(PackedStorage, CopyAndMoveAcrossTheInlineHeapBoundary) {
  const std::vector<PackedBlock> blocks = boundary_blocks();
  for (const PackedBlock& src : blocks) {
    for (const PackedBlock& prior : blocks) {
      const std::string what = describe(prior) + " <- " + describe(src);
      PackedBlock copy(src);
      EXPECT_TRUE(copy == src) << what;
      PackedBlock assigned = prior;
      assigned = src;
      EXPECT_TRUE(assigned == src) << what;
      PackedBlock moved(std::move(copy));
      EXPECT_TRUE(moved == src) << what;
      EXPECT_TRUE(copy.is_wild()) << what;  // moved-from: `_` of its size
      EXPECT_EQ(copy.size(), src.size()) << what;
      PackedBlock move_assigned = prior;
      move_assigned = std::move(moved);
      EXPECT_TRUE(move_assigned == src) << what;
      EXPECT_TRUE(moved.is_wild()) << what;
      // A moved-from block is still a block: it takes new contents.
      moved = prior;
      EXPECT_TRUE(moved == prior) << what;
    }
  }
  PackedBlock self = blocks.back();
  const PackedBlock& alias = self;
  self = alias;
  EXPECT_TRUE(self == blocks.back());
  PackedBlock& same = self;
  self = std::move(same);
  EXPECT_TRUE(self == blocks.back());
  // Blocks sit in Dists of up to p = 9 per certification launch.
  EXPECT_LE(sizeof(PackedBlock), 384u);
}

TEST(PackedStorage, WireRoundTripAtEverySize) {
  for (const PackedBlock& b : boundary_blocks()) {
    const auto bytes = b.to_bytes();
    const PackedBlock back = PackedBlock::from_bytes(bytes.data(), bytes.size());
    EXPECT_TRUE(back == b) << describe(b);
    EXPECT_EQ(back.to_bytes(), bytes) << describe(b);
    // A lane count that disagrees with the arity is garbage, not a block.
    if (!b.is_tuple()) continue;
    std::vector<std::byte> bad = bytes;
    const std::uint64_t lanes = b.lane_count() + 1;
    std::memcpy(bad.data() + 16, &lanes, 8);
    EXPECT_THROW((void)PackedBlock::from_bytes(bad.data(), bad.size()), Error);
  }
}

TEST(PackedStorage, CanonicalizeCollapsesToWildAtEverySize) {
  for (const PackedBlock& b : boundary_blocks()) {
    if (b.is_wild()) {
      EXPECT_TRUE(b == PackedBlock::wild(b.size())) << describe(b);
      continue;
    }
    // Undefining element 0 wholesale clears its lanes too.
    PackedBlock one = b;
    mask_set(one.elem_mask(), 0, false);
    one.canonicalize();
    Block expect = b.unpack();
    expect[0] = U();
    EXPECT_EQ(one.unpack(), expect) << describe(b);
    // No element left: the canonical form is the wild block.
    PackedBlock none = b;
    const MaskSpan elem = none.elem_mask();
    std::fill(elem.begin(), elem.end(), 0);
    none.canonicalize();
    EXPECT_TRUE(none.is_wild()) << describe(b);
    EXPECT_TRUE(none == PackedBlock::wild(b.size())) << describe(b);
  }
}

TEST(PackedStorage, EqualityComparesShapeAndEveryWord) {
  for (const PackedBlock& b : boundary_blocks()) {
    EXPECT_TRUE(b == PackedBlock(b)) << describe(b);
    EXPECT_FALSE(b == PackedBlock::wild(b.size() + 1)) << describe(b);
    if (b.is_wild()) continue;
    PackedBlock word = b;
    word.data(0)[0] ^= 1;
    EXPECT_FALSE(word == b) << describe(b);
    PackedBlock mask = b;
    mask.defined(0)[0] ^= 1;
    EXPECT_FALSE(mask == b) << describe(b);
    PackedBlock dtype = b;
    dtype.set_dtype(0, b.dtype(0) == DType::i64 ? DType::f64 : DType::i64);
    EXPECT_FALSE(dtype == b) << describe(b);
  }
}

// --- compiled kernels vs boxed operators ---------------------------------

TEST(PackedKernels, StandardOpsAgreeWithBoxed) {
  const Block a{Value(6), U(), Value(-3), Value(10), U()};
  const Block b{Value(4), Value(7), U(), Value(3), U()};
  for (const auto& op : {op_add(), op_mul(), op_max(), op_min(), op_band(),
                         op_bor(), op_gcd(), op_modadd(97), op_modmul(97),
                         op_first()}) {
    ASSERT_TRUE(op->has_packed()) << op->name();
    const auto pa = PackedBlock::pack(a), pb = PackedBlock::pack(b);
    ASSERT_TRUE(pa && pb);
    const PackedBlock out = op->packed()(*pa, *pb);
    EXPECT_EQ(out.unpack(), boxed_apply2(*op, a, b)) << op->name();
  }
}

TEST(PackedKernels, RealAndPromotedOpsAgreeWithBoxed) {
  const Block a{Value(1.5), U(), Value(-2.25)};
  const Block b{Value(0.5), Value(3.0), Value(4.0)};
  for (const auto& op : {op_add(), op_mul(), op_max(), op_min(), op_fadd(),
                         op_fmul(), op_first()}) {
    const auto pa = PackedBlock::pack(a), pb = PackedBlock::pack(b);
    ASSERT_TRUE(pa && pb);
    EXPECT_EQ(op->packed()(*pa, *pb).unpack(), boxed_apply2(*op, a, b))
        << op->name();
  }
}

TEST(PackedKernels, IntRealPromotionMatchesBoxed) {
  // add(int-lane, real-lane) widens to real, exactly like the boxed
  // numeric() visitor; fadd on int lanes produces reals.
  const Block ints{Value(1), Value(2)};
  const Block reals{Value(0.5), Value(1.5)};
  const auto pi = PackedBlock::pack(ints), pr = PackedBlock::pack(reals);
  ASSERT_TRUE(pi && pr);
  EXPECT_EQ(op_add()->packed()(*pi, *pr).unpack(),
            boxed_apply2(*op_add(), ints, reals));
  EXPECT_EQ(op_fadd()->packed()(*pi, *pi).unpack(),
            boxed_apply2(*op_fadd(), ints, ints));
}

TEST(PackedKernels, IntOnlyOpsThrowOnRealLanes) {
  const Block reals{Value(0.5), Value(1.5)};
  const auto pr = PackedBlock::pack(reals);
  ASSERT_TRUE(pr.has_value());
  EXPECT_THROW((void)op_gcd()->packed()(*pr, *pr), Error);
  EXPECT_THROW((void)op_band()->packed()(*pr, *pr), Error);
  // ... but not when every element pair is undefined on one side, exactly
  // like the boxed gate which never evaluates an undefined pair.
  const auto wild = PackedBlock::wild(2);
  EXPECT_TRUE(op_gcd()->packed()(*pr, wild).is_wild());
}

TEST(PackedKernels, Mat2AgreesWithBoxed) {
  const auto m = [](int a, int b, int c, int d) {
    return Value::tuple_of({Value(a), Value(b), Value(c), Value(d)});
  };
  const Block a{m(1, 2, 3, 4), m(0, 1, 1, 0)};
  const Block b{m(5, 6, 7, 8), m(2, 0, 0, 2)};
  const auto pa = PackedBlock::pack(a), pb = PackedBlock::pack(b);
  ASSERT_TRUE(pa && pb);
  EXPECT_EQ(op_mat2()->packed()(*pa, *pb).unpack(),
            boxed_apply2(*op_mat2(), a, b));
}

TEST(PackedKernels, ElemFnBuildersAgreeWithBoxed) {
  const Block b{Value(3), U(), Value(-1)};
  const auto p = PackedBlock::pack(b);
  ASSERT_TRUE(p.has_value());
  for (const auto& f : {fn_pair(), fn_triple(), fn_quadruple(), fn_id()}) {
    ASSERT_TRUE(static_cast<bool>(f.packed_fn)) << f.name;
    Block expect(b.size());
    for (std::size_t j = 0; j < b.size(); ++j) expect[j] = f(b[j]);
    EXPECT_EQ(f.packed_fn(*p).unpack(), expect) << f.name;
  }
  // pi_1 undoes pair; composition propagates the kernels.
  const ElemFn comp = fn_compose(fn_pair(), fn_proj1());
  ASSERT_TRUE(static_cast<bool>(comp.packed_fn));
  EXPECT_EQ(comp.packed_fn(*p).unpack(), b);
}

TEST(PackedKernels, DerivedOpSr2AgreesWithBoxed) {
  const auto sr2 = rules::make_op_sr2(op_mul(), op_add());
  ASSERT_TRUE(sr2->has_packed());
  const auto pr = [](int s, int r) {
    return Value::tuple_of({Value(s), Value(r)});
  };
  const Block a{pr(1, 2), pr(3, 4), U()};
  const Block b{pr(5, 6), pr(7, 8), U()};
  const auto pa = PackedBlock::pack(a), pb = PackedBlock::pack(b);
  ASSERT_TRUE(pa && pb);
  EXPECT_EQ(sr2->packed()(*pa, *pb).unpack(), boxed_apply2(*sr2, a, b));
}

// --- packable / routing --------------------------------------------------

TEST(Packable, AdmitsFlatProgramsRejectsOthers) {
  Program flat;
  flat.map(fn_pair()).scan(rules::make_op_sr2(op_mul(), op_add()), 2)
      .map(fn_proj1()).reduce(op_add());
  EXPECT_TRUE(packable(flat, Shape::scalar(), 4));

  // A map with no packed kernel is not packable.
  ElemFn opaque;
  opaque.name = "opaque";
  opaque.fn = [](const Value& v) { return v; };
  Program boxed_only;
  boxed_only.map(opaque);
  EXPECT_FALSE(packable(boxed_only, Shape::scalar(), 4));

  // iter is packable only for powers of two.
  Program it;
  it.bcast().iter(rules::make_op_br(op_add()),
                  rules::make_general_br(op_add()));
  EXPECT_TRUE(packable(it, Shape::scalar(), 8));
  EXPECT_FALSE(packable(it, Shape::scalar(), 6));

  // A shape error inside the window (pi_1 of a scalar) means boxed.
  Program bad;
  bad.map(fn_proj1());
  EXPECT_FALSE(packable(bad, Shape::scalar(), 4));
}

TEST(Packable, DistShapeDetection) {
  EXPECT_EQ(dist_shape({{Value(1), U()}}), Shape::scalar());
  EXPECT_EQ(dist_shape({{U(), U()}}), Shape::scalar());  // nothing defined
  EXPECT_EQ(dist_shape({{Value::tuple_of({Value(1), Value(2)})}}),
            Shape::replicate(Shape::scalar(), 2));
  EXPECT_FALSE(dist_shape({{Value(1), Value::tuple_of({Value(1), Value(2)})}})
                   .has_value());
  EXPECT_FALSE(
      dist_shape({{Value::tuple_of({Value::tuple_of({Value(1)}), Value(2)})}})
          .has_value());
}

TEST(Packable, NonUniformBlockSizesStayBoxed) {
  Program prog;
  prog.scan(op_add());
  const Dist input{{Value(1), Value(2)}, {Value(3)}};
  EXPECT_FALSE(try_pack_for(prog, input).has_value());
  // ... and the boxed path still reports the canonical error.
  EXPECT_THROW((void)prog.eval_reference(input), Error);
}

// --- executor ------------------------------------------------------------

TEST(PackedExec, ThreadRunMatchesBoxedIncludingTraffic) {
  Program prog;
  prog.map(fn_pair()).scan(rules::make_op_sr2(op_mul(), op_add()), 2)
      .map(fn_proj1()).allreduce(op_add());
  Dist input;
  for (int r = 0; r < 5; ++r) {
    Block blk;
    for (int j = 0; j < 4; ++j) blk.push_back(Value(r * 4 + j + 1));
    input.push_back(std::move(blk));
  }

  const auto boxed =
      exec::run_on_threads_instrumented(prog, input, DataPlane::Boxed);
  const auto packed =
      exec::run_on_threads_instrumented(prog, input, DataPlane::Packed);
  EXPECT_FALSE(boxed.used_packed);
  EXPECT_TRUE(packed.used_packed);
  EXPECT_EQ(packed.output, boxed.output);
  EXPECT_EQ(packed.traffic.messages, boxed.traffic.messages);
  EXPECT_EQ(packed.traffic.bytes, boxed.traffic.bytes);
  EXPECT_EQ(boxed.output, prog.eval_reference(input));
}

TEST(PackedExec, ForcedPackedOnUnpackableProgramThrows) {
  ElemFn opaque;
  opaque.name = "opaque";
  opaque.fn = [](const Value& v) { return v; };
  Program prog;
  prog.map(opaque);
  EXPECT_THROW((void)exec::run_on_threads(prog, {{Value(1)}, {Value(2)}},
                                          DataPlane::Packed),
               Error);
}

}  // namespace
}  // namespace colop::ir
