#pragma once
// PackedBlock: the flat typed data plane.
//
// The boxed representation (value.h) models one list element as a
// heap-allocated std::variant, and a block as a vector of those — perfect
// for the formal semantics, hopeless for throughput: every elementwise
// operation is a virtual-ish dispatch plus allocator traffic, and every
// mpsim hop deep-copies the boxes.  The paper's rules trade communication
// for "cheap local arithmetic on auxiliary variables"; for that arithmetic
// to actually be cheap the common case (scalars and fixed-arity tuples of
// ints/doubles, with the paper's `_` sprinkled in) must live in contiguous
// arrays.
//
// PackedBlock is a struct-of-arrays view of one block:
//   * `arity` classifies the element shape: kWildArity (every element is
//     the paper's `_`, e.g. non-root blocks after `iter`), 0 (scalars), or
//     n >= 1 (flat n-tuples);
//   * one lane per tuple component (one lane total for scalars): a dtype
//     tag (i64/f64), m 64-bit words of payload, and a defined-bitmask;
//   * tuples additionally carry an element-level defined mask: bit r says
//     "element r IS a tuple" — clear bits are whole-element `_`, which is
//     different from a tuple whose components are all `_` (both occur in
//     the derived operators and must round-trip losslessly).
//
// Storage: a block of m elements with k lanes (mw = ceil(m/64) mask words)
// is ONE buffer of 64-bit words, laid out as
//     [elem mask: mw, tuples only]
//     [lane 0: m data words | mw mask words] ... [lane k-1: ...]
//     [dtypes: one byte per lane, zero-padded to whole words]
// and data()/defined()/elem_mask() are views into it.  Blocks up to
// kInlineElems elements with up to kInlineLanes lanes keep that buffer
// inline in the object, so they make no heap allocation at all: rule
// certification evaluates every rewrite on blocks of 2 elements, scalars
// through mat2/quadruple 4-tuples, thousands of times per compile.  Larger
// blocks hold one heap buffer of exactly the words they use, copied and
// cleared with memcpy/memset.
//
// Canonical form (maintained by canonicalize(), assumed everywhere):
//   * undefined payload words are zero (ops may compute over them blindly);
//   * lane masks are subsets of the element mask; mask tail bits are zero;
//   * lanes with no defined word have dtype i64;
//   * a block with no defined element at all IS the wild block.
//
// pack() is partial: heterogeneous lanes (int and real in one component),
// nested tuples, or mixed scalar/tuple blocks return nullopt and the
// caller stays on the boxed path (see packed_eval.h).  unpack() is total
// and exact: unpack(pack(b)) == b structurally, bit for bit.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "colop/ir/value.h"

namespace colop::ir {

enum class DType : std::uint8_t { i64 = 0, f64 = 1 };

/// Bitmask over the m elements of a block, 64 elements per word.  A Mask
/// owns its words; MaskView/MaskSpan look at a block's (or a Mask's).
using Mask = std::vector<std::uint64_t>;
using MaskView = std::span<const std::uint64_t>;
using MaskSpan = std::span<std::uint64_t>;

[[nodiscard]] constexpr std::size_t mask_words(std::size_t m) {
  return (m + 63) / 64;
}
// Inline: packed kernels read and write masks per element.  mask_set
// checks its index in debug builds only.
[[nodiscard]] inline bool mask_get(MaskView mask, std::size_t i) {
  return i / 64 < mask.size() && ((mask[i / 64] >> (i % 64)) & 1u) != 0;
}
inline void mask_set(MaskSpan mask, std::size_t i, bool bit) {
#ifndef NDEBUG
  COLOP_ASSERT(i / 64 < mask.size(), "mask_set: index out of range");
#endif
  const std::uint64_t b = std::uint64_t{1} << (i % 64);
  mask[i / 64] = bit ? mask[i / 64] | b : mask[i / 64] & ~b;
}
/// Set `mask` to all-ones over m elements (tail bits zero).
void mask_fill(MaskSpan mask, std::size_t m);
/// dst &= src over dst's words (src words past its end read as zero).
void mask_and_into(MaskSpan dst, MaskView src);
[[nodiscard]] bool mask_none(MaskView mask);
/// True when no element is set in both masks (their AND is empty).
[[nodiscard]] bool mask_disjoint(MaskView a, MaskView b);
/// True when every set bit of `inner` is set in `outer`.
[[nodiscard]] bool mask_subset(MaskView inner, MaskView outer);
[[nodiscard]] std::size_t mask_popcount(MaskView mask);

class PackedBlock {
 public:
  /// arity() of the all-undefined block (no lanes at all).
  static constexpr int kWildArity = -1;
  /// Blocks of at most this many elements with at most kInlineLanes lanes
  /// keep their words inline (no heap allocation).
  static constexpr std::size_t kInlineElems = 8;
  static constexpr std::size_t kInlineLanes = 4;

  PackedBlock() noexcept = default;
  PackedBlock(const PackedBlock& other);
  PackedBlock(PackedBlock&& other) noexcept;
  PackedBlock& operator=(const PackedBlock& other);
  PackedBlock& operator=(PackedBlock&& other) noexcept;
  ~PackedBlock() { release(); }

  /// Every element is the paper's `_`.
  [[nodiscard]] static PackedBlock wild(std::size_t m);
  /// m scalar slots, all undefined (fill data/defined, then canonicalize).
  [[nodiscard]] static PackedBlock scalars(std::size_t m, DType dtype);
  /// m arity-tuples, all elements undefined.
  [[nodiscard]] static PackedBlock tuples(int arity, std::size_t m);

  [[nodiscard]] std::size_t size() const { return m_; }
  [[nodiscard]] int arity() const { return arity_; }
  [[nodiscard]] bool is_wild() const { return arity_ == kWildArity; }
  [[nodiscard]] bool is_scalar() const { return arity_ == 0; }
  [[nodiscard]] bool is_tuple() const { return arity_ >= 1; }
  [[nodiscard]] std::size_t lane_count() const { return lanes_of(arity_); }

  // --- lanes: views into the block's buffer ------------------------------

  [[nodiscard]] DType dtype(std::size_t l) const {
    return static_cast<DType>(dtype_bytes()[l]);
  }
  void set_dtype(std::size_t l, DType dtype) {
    dtype_bytes()[l] = static_cast<unsigned char>(dtype);
  }
  /// m payload words of lane l (bit patterns of i64/f64).
  [[nodiscard]] std::span<std::uint64_t> data(std::size_t l) {
    return {words_ + lane_offset(l), m_};
  }
  [[nodiscard]] std::span<const std::uint64_t> data(std::size_t l) const {
    return {words_ + lane_offset(l), m_};
  }
  /// Per-element defined bits of lane l.
  [[nodiscard]] MaskSpan defined(std::size_t l) {
    return {words_ + lane_offset(l) + m_, mask_words(m_)};
  }
  [[nodiscard]] MaskView defined(std::size_t l) const {
    return {words_ + lane_offset(l) + m_, mask_words(m_)};
  }
  /// Copy lane `from` of `src` (dtype, data, mask; same size) into lane l.
  void copy_lane(std::size_t l, const PackedBlock& src, std::size_t from);

  /// Element-level defined mask.  For scalars this aliases defined(0) (an
  /// undefined scalar and an undefined element are the same thing); for
  /// wild blocks it is empty (no element defined).
  [[nodiscard]] MaskView elem_mask() const {
    return is_scalar() ? defined(0) : MaskView(words_, is_tuple() ? mask_words(m_) : 0);
  }
  /// Writable element mask of a scalar or tuple block (callers then fill
  /// lanes and canonicalize).
  [[nodiscard]] MaskSpan elem_mask() {
    return is_scalar() ? defined(0) : MaskSpan(words_, is_tuple() ? mask_words(m_) : 0);
  }

  /// Restore the canonical form after kernels wrote raw data: clamp lane
  /// masks to the element mask, zero undefined payload words and mask tail
  /// bits, reset empty lanes to i64, and collapse to wild when no element
  /// is defined.
  void canonicalize();

  /// Defined scalar slots — the block's wire size in 8-byte words.  This
  /// matches the boxed accounting exactly (undefined costs nothing), so
  /// traffic counters agree between the two data planes.
  [[nodiscard]] std::size_t defined_words() const;

  // --- segments ----------------------------------------------------------

  /// Elements [lo, hi) as a block of their own, in canonical form: a lane
  /// with nothing defined in the range is i64, and a range with no defined
  /// element is the wild block.
  [[nodiscard]] PackedBlock slice(std::size_t lo, std::size_t hi) const;
  /// The concatenation of `segments` (each canonical), inverting slice():
  /// wild segments contribute undefined elements, the defined ones must
  /// share one arity, and a lane takes the dtype of the segments that
  /// define something in it.
  [[nodiscard]] static PackedBlock join(std::span<const PackedBlock> segments);

  // --- boxed conversion --------------------------------------------------

  /// The arity the first defined value of `blocks` packs as: 0 for a
  /// number (and when nothing is defined), n for an n-tuple; nullopt for
  /// the empty tuple, which stays boxed.
  [[nodiscard]] static std::optional<int> arity_of(std::span<const Block> blocks);
  /// nullopt when the block does not fit the flat representation (nested
  /// tuples, mixed arities, int/real mixed within one lane, non-numeric
  /// leaves).  Lossless: unpack(*pack(b)) == b.
  [[nodiscard]] static std::optional<PackedBlock> pack(const Block& boxed);
  /// pack() with the arity of the defined elements given (>= 0): one pass
  /// that writes every word once and builds each mask word in a register;
  /// nullopt also when a defined element has another arity.
  [[nodiscard]] static std::optional<PackedBlock> pack(const Block& boxed,
                                                       int arity);
  [[nodiscard]] Block unpack() const;
  /// unpack() into `out`'s own storage: it is resized to size() and every
  /// element assigned in place, so a tuple of this arity keeps its buffer.
  void unpack_into(Block& out) const;

  // --- flat wire format --------------------------------------------------

  /// Serialize to a contiguous buffer (fixed header + memcpy of lane data
  /// and masks).  from_bytes() is the exact inverse.
  [[nodiscard]] std::vector<std::byte> to_bytes() const;
  [[nodiscard]] static PackedBlock from_bytes(const std::byte* data,
                                              std::size_t size);

  friend bool operator==(const PackedBlock& a, const PackedBlock& b);

 private:
  /// Words the inline buffer holds: the layout of kInlineLanes lanes of
  /// kInlineElems elements.
  static constexpr std::size_t kInlineWords =
      1 + kInlineLanes * (kInlineElems + 1) + (kInlineLanes + 7) / 8;

  [[nodiscard]] static std::size_t lanes_of(int arity) {
    return arity == kWildArity ? 0 : arity == 0 ? 1 : static_cast<std::size_t>(arity);
  }
  /// Words of the layout for this arity and size.
  [[nodiscard]] static std::size_t words_for(int arity, std::size_t m);
  [[nodiscard]] std::size_t used_words() const { return words_for(arity_, m_); }
  [[nodiscard]] std::size_t lane_offset(std::size_t l) const {
    const std::size_t mw = mask_words(m_);
    return (is_tuple() ? mw : 0) + l * (m_ + mw);
  }
  [[nodiscard]] unsigned char* dtype_bytes() {
    return reinterpret_cast<unsigned char*>(words_ + lane_offset(lane_count()));
  }
  [[nodiscard]] const unsigned char* dtype_bytes() const {
    return reinterpret_cast<const unsigned char*>(words_ + lane_offset(lane_count()));
  }

  /// Take the shape (arity, m) with room for its words, contents
  /// unspecified: inline when they fit, else a heap buffer (the current
  /// one if it is large enough).
  void reshape(int arity, std::size_t m);
  void release() noexcept;
  /// Copy elements [from, from + n) of `src` (same arity) to [to, to + n):
  /// payload words, and mask bits ORed into clear ones.
  void copy_elems(std::size_t to, const PackedBlock& src, std::size_t from,
                  std::size_t n);
  [[nodiscard]] bool on_heap() const { return words_ != inline_; }

  std::uint64_t* words_ = inline_;
  std::size_t capacity_ = kInlineWords;  ///< words at words_
  std::size_t m_ = 0;
  int arity_ = kWildArity;
  // Only the first used_words() words are ever read, and every path that
  // grows the shape writes them first; zeroing all of it would cost a
  // 300-byte memset per temporary.
  std::uint64_t inline_[kInlineWords];
};

/// Wire-size accounting hook for the mpsim runtime (found by ADL), same
/// contract as payload_bytes(const Value&): 8 bytes per defined scalar.
[[nodiscard]] std::size_t payload_bytes(const PackedBlock& b);

/// Elementwise kernels over packed blocks.  A PackedBinFn is the packed
/// counterpart of BinOp::apply lifted to whole blocks (undefined gating
/// included); the map forms are the counterparts of ElemFn / ElemIdxFn.
using PackedBinFn =
    std::function<PackedBlock(const PackedBlock&, const PackedBlock&)>;
using PackedMapFn = std::function<PackedBlock(PackedBlock)>;
using PackedIdxMapFn = std::function<PackedBlock(int, PackedBlock)>;
using PackedBinFn2 = std::function<std::pair<PackedBlock, PackedBlock>(
    const PackedBlock&, const PackedBlock&)>;

}  // namespace colop::ir
