#include "colop/ir/packed.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "colop/support/error.h"

namespace colop::ir {
namespace {

constexpr std::uint32_t kMagic = 0x31425043;  // "CPB1" little-endian
/// pack()'s dtype byte for a lane no defined component has fixed yet.
constexpr unsigned char kDTypeUnset = 0xff;

}  // namespace

void mask_fill(MaskSpan mask, std::size_t m) {
  std::fill(mask.begin(), mask.end(), ~std::uint64_t{0});
  if (m % 64 != 0 && !mask.empty())
    mask.back() = (std::uint64_t{1} << (m % 64)) - 1;
}

void mask_and_into(MaskSpan dst, MaskView src) {
  for (std::size_t w = 0; w < dst.size(); ++w)
    dst[w] &= w < src.size() ? src[w] : 0;
}

bool mask_none(MaskView mask) {
  for (const std::uint64_t w : mask)
    if (w != 0) return false;
  return true;
}

bool mask_disjoint(MaskView a, MaskView b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t w = 0; w < n; ++w)
    if ((a[w] & b[w]) != 0) return false;
  return true;
}

bool mask_subset(MaskView inner, MaskView outer) {
  for (std::size_t w = 0; w < inner.size(); ++w) {
    const std::uint64_t o = w < outer.size() ? outer[w] : 0;
    if ((inner[w] & ~o) != 0) return false;
  }
  return true;
}

std::size_t mask_popcount(MaskView mask) {
  std::size_t n = 0;
  for (const std::uint64_t w : mask) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

// --- storage -------------------------------------------------------------

std::size_t PackedBlock::words_for(int arity, std::size_t m) {
  const std::size_t lanes = lanes_of(arity);
  if (lanes == 0) return 0;
  const std::size_t mw = mask_words(m);
  return (arity >= 1 ? mw : 0) + lanes * (m + mw) + (lanes + 7) / 8;
}

void PackedBlock::reshape(int arity, std::size_t m) {
  const std::size_t n = words_for(arity, m);
  if (n <= kInlineWords) {
    release();
  } else if (!on_heap() || capacity_ < n) {
    auto* fresh = new std::uint64_t[n];
    release();
    words_ = fresh;
    capacity_ = n;
  }
  arity_ = arity;
  m_ = m;
}

void PackedBlock::release() noexcept {
  if (!on_heap()) return;
  delete[] words_;
  words_ = inline_;
  capacity_ = kInlineWords;
}

PackedBlock::PackedBlock(const PackedBlock& other) {
  reshape(other.arity_, other.m_);
  std::memcpy(words_, other.words_, used_words() * 8);
}

PackedBlock::PackedBlock(PackedBlock&& other) noexcept
    : m_(other.m_), arity_(other.arity_) {
  if (other.on_heap()) {
    words_ = other.words_;
    capacity_ = other.capacity_;
    other.words_ = other.inline_;
    other.capacity_ = kInlineWords;
  } else {
    std::memcpy(inline_, other.inline_, used_words() * 8);
  }
  other.arity_ = kWildArity;  // moved-from: the wild block of its size
}

PackedBlock& PackedBlock::operator=(const PackedBlock& other) {
  if (this == &other) return *this;
  reshape(other.arity_, other.m_);
  std::memcpy(words_, other.words_, used_words() * 8);
  return *this;
}

PackedBlock& PackedBlock::operator=(PackedBlock&& other) noexcept {
  if (this == &other) return *this;
  if (other.on_heap()) {
    release();
    words_ = other.words_;
    capacity_ = other.capacity_;
    other.words_ = other.inline_;
    other.capacity_ = kInlineWords;
    arity_ = other.arity_;
    m_ = other.m_;
  } else {
    reshape(other.arity_, other.m_);  // fits inline: cannot allocate
    std::memcpy(words_, other.words_, used_words() * 8);
  }
  other.arity_ = kWildArity;
  return *this;
}

bool operator==(const PackedBlock& a, const PackedBlock& b) {
  return a.m_ == b.m_ && a.arity_ == b.arity_ &&
         std::memcmp(a.words_, b.words_, a.used_words() * 8) == 0;
}

PackedBlock PackedBlock::wild(std::size_t m) {
  PackedBlock b;
  b.m_ = m;
  return b;
}

PackedBlock PackedBlock::scalars(std::size_t m, DType dtype) {
  PackedBlock b;
  b.reshape(0, m);
  std::memset(b.words_, 0, b.used_words() * 8);
  b.set_dtype(0, dtype);
  return b;
}

PackedBlock PackedBlock::tuples(int arity, std::size_t m) {
  COLOP_REQUIRE(arity >= 1, "PackedBlock: tuple arity must be >= 1");
  PackedBlock b;
  b.reshape(arity, m);
  std::memset(b.words_, 0, b.used_words() * 8);
  return b;
}

void PackedBlock::copy_lane(std::size_t l, const PackedBlock& src,
                            std::size_t from) {
  COLOP_ASSERT(src.m_ == m_ && l < lane_count() && from < src.lane_count(),
               "PackedBlock: copy_lane shape mismatch");
  std::memcpy(words_ + lane_offset(l), src.words_ + src.lane_offset(from),
              (m_ + mask_words(m_)) * 8);
  set_dtype(l, src.dtype(from));
}

void PackedBlock::canonicalize() {
  if (is_wild()) return;
  const std::size_t mw = mask_words(m_);
  // Zero the tail bits of the element mask; with no element left the
  // canonical form is the wild block.
  std::uint64_t* elem = elem_mask().data();
  if (m_ % 64 != 0) elem[mw - 1] &= (std::uint64_t{1} << (m_ % 64)) - 1;
  std::uint64_t any_elem = 0;
  for (std::size_t w = 0; w < mw; ++w) any_elem |= elem[w];
  if (any_elem == 0) {
    arity_ = kWildArity;
    return;
  }
  // One pass per lane: clamp its mask to the element mask (a scalar's lane
  // IS the element mask), zero the payload under cleared bits (branch-free
  // within a word, skipped for a full word), note whether any is defined.
  for (std::size_t l = 0; l < lane_count(); ++l) {
    std::uint64_t* data = words_ + lane_offset(l);
    std::uint64_t* def = data + m_;
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < mw; ++w) {
      const std::uint64_t bits = def[w] & elem[w];
      def[w] = bits;
      any |= bits;
      if (bits == ~std::uint64_t{0}) continue;
      const std::size_t lo = w * 64;
      const std::size_t hi = std::min(m_, lo + 64);
      for (std::size_t i = lo; i < hi; ++i)
        data[i] &= std::uint64_t{0} - ((bits >> (i - lo)) & 1u);
    }
    if (any == 0) set_dtype(l, DType::i64);
  }
}

std::size_t PackedBlock::defined_words() const {
  std::size_t n = 0;
  for (std::size_t l = 0; l < lane_count(); ++l) n += mask_popcount(defined(l));
  return n;
}

// --- segments ------------------------------------------------------------

namespace {

// OR bits [from, from + n) of `src` into `dst` from bit `to`, a word at a time.
void mask_copy_bits(MaskSpan dst, std::size_t to, MaskView src, std::size_t from,
                    std::size_t n) {
  for (std::size_t i = 0; i < n;) {
    const std::size_t s = from + i, d = to + i;
    std::uint64_t w = src[s / 64] >> (s % 64);
    if (s % 64 != 0 && s / 64 + 1 < src.size()) w |= src[s / 64 + 1] << (64 - s % 64);
    const std::size_t take = std::min(n - i, 64 - d % 64);
    if (take < 64) w &= (std::uint64_t{1} << take) - 1;
    dst[d / 64] |= w << (d % 64);
    i += take;
  }
}

}  // namespace

void PackedBlock::copy_elems(std::size_t to, const PackedBlock& src, std::size_t from,
                             std::size_t n) {
  if (is_tuple()) mask_copy_bits(elem_mask(), to, src.elem_mask(), from, n);
  for (std::size_t l = 0; l < lane_count(); ++l) {
    std::memcpy(data(l).data() + to, src.data(l).data() + from, n * 8);
    mask_copy_bits(defined(l), to, src.defined(l), from, n);
  }
}

PackedBlock PackedBlock::slice(std::size_t lo, std::size_t hi) const {
  COLOP_ASSERT(lo <= hi && hi <= m_, "PackedBlock: slice out of range");
  const std::size_t n = hi - lo;
  if (is_wild()) return wild(n);
  PackedBlock out = is_scalar() ? scalars(n, DType::i64) : tuples(arity_, n);
  for (std::size_t l = 0; l < lane_count(); ++l) out.set_dtype(l, dtype(l));
  out.copy_elems(0, *this, lo, n);
  out.canonicalize();
  return out;
}

PackedBlock PackedBlock::join(std::span<const PackedBlock> segments) {
  std::size_t m = 0;
  int arity = kWildArity;
  for (const PackedBlock& s : segments) {
    m += s.m_;
    COLOP_REQUIRE(s.is_wild() || arity == kWildArity || arity == s.arity_,
                  "PackedBlock: joined segments differ in arity");
    if (!s.is_wild()) arity = s.arity_;
  }
  if (arity == kWildArity) return wild(m);
  PackedBlock out = arity == 0 ? scalars(m, DType::i64) : tuples(arity, m);
  std::size_t at = 0;
  for (const PackedBlock& s : segments) {
    // A canonical segment's empty lane is i64: the lane's dtype comes from
    // the segments that define something in it.
    for (std::size_t l = 0; l < s.lane_count(); ++l) {
      if (mask_none(s.defined(l))) continue;
      COLOP_REQUIRE(mask_none(out.defined(l)) || out.dtype(l) == s.dtype(l),
                    "PackedBlock: joined segments differ in a lane's dtype");
      out.set_dtype(l, s.dtype(l));
    }
    if (!s.is_wild()) out.copy_elems(at, s, 0, s.m_);
    at += s.m_;
  }
  return out;
}

// --- boxed conversion ----------------------------------------------------

std::optional<int> PackedBlock::arity_of(std::span<const Block> blocks) {
  for (const Block& block : blocks)
    for (const Value& v : block) {
      if (v.is_undefined()) continue;
      if (!v.is_tuple()) return 0;
      const std::size_t n = v.as_tuple().size();
      return n == 0 ? std::nullopt : std::optional(static_cast<int>(n));
    }
  return 0;
}

std::optional<PackedBlock> PackedBlock::pack(const Block& boxed) {
  const auto arity = arity_of({&boxed, 1});
  return arity ? pack(boxed, *arity) : std::nullopt;
}

namespace {

// The payload word of a defined leaf, checking it against its lane's dtype
// (fixed by the lane's first defined leaf).  False for a tuple (nesting, or
// a tuple in a scalar block) and for int and real mixed in one lane.
bool put_leaf(const Value& v, unsigned char& dtype, std::uint64_t& word) {
  unsigned char dt;
  if (v.is_int()) {
    dt = static_cast<unsigned char>(DType::i64);
    word = std::bit_cast<std::uint64_t>(v.as_int());
  } else if (v.is_real()) {
    dt = static_cast<unsigned char>(DType::f64);
    word = std::bit_cast<std::uint64_t>(v.as_real());
  } else {
    return false;
  }
  if (dt == dtype) return true;
  if (dtype != kDTypeUnset) return false;
  dtype = dt;
  return true;
}

}  // namespace

std::optional<PackedBlock> PackedBlock::pack(const Block& boxed, int arity) {
  COLOP_REQUIRE(arity >= 0, "PackedBlock: bad arity");
  const std::size_t m = boxed.size();
  // Every word of the layout is written once: payload (zero when
  // undefined), mask words (tail bits zero), dtype bytes and padding, so
  // the result is canonical without a canonicalize() pass.
  const std::size_t mw = mask_words(m);
  const std::size_t stride = m + mw;  // lane l's words start at l * stride
  PackedBlock out;
  out.reshape(arity, m);
  const std::size_t lanes = out.lane_count();
  std::uint64_t* lane0 = out.words_ + (arity == 0 ? 0 : mw);
  unsigned char* dtypes = out.dtype_bytes();
  std::memset(dtypes, 0, (lanes + 7) / 8 * 8);
  std::fill(dtypes, dtypes + lanes, kDTypeUnset);
  std::uint64_t any = 0;
  for (std::size_t w = 0; w < mw; ++w) {
    const std::size_t lo = w * 64, hi = std::min(m, lo + 64);
    std::uint64_t bits = 0;  // the element mask word, stored once
    if (arity == 0) {
      // The hot case: one lane, whose mask is the element mask and whose
      // dtype stays in a register.
      unsigned char dtype = dtypes[0];
      for (std::size_t i = lo; i < hi; ++i) {
        const Value& v = boxed[i];
        std::uint64_t word = 0;
        if (!v.is_undefined()) {
          if (!put_leaf(v, dtype, word)) return std::nullopt;
          bits |= std::uint64_t{1} << (i - lo);
        }
        lane0[i] = word;
      }
      dtypes[0] = dtype;
      lane0[m + w] = bits;
    } else {
      for (std::size_t l = 0; l < lanes; ++l) lane0[l * stride + m + w] = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const Value& v = boxed[i];
        const bool defined = !v.is_undefined();
        if (defined && (!v.is_tuple() || v.as_tuple().size() != lanes))
          return std::nullopt;  // a scalar among tuples, or mixed arities
        bits |= std::uint64_t{defined} << (i - lo);
        for (std::size_t l = 0; l < lanes; ++l) {
          std::uint64_t word = 0;
          if (defined && !v.as_tuple()[l].is_undefined()) {
            if (!put_leaf(v.as_tuple()[l], dtypes[l], word)) return std::nullopt;
            lane0[l * stride + m + w] |= std::uint64_t{1} << (i - lo);
          }
          lane0[l * stride + i] = word;
        }
      }
      out.words_[w] = bits;
    }
    any |= bits;
  }
  if (any == 0) return wild(m);
  for (std::size_t l = 0; l < lanes; ++l)
    if (dtypes[l] == kDTypeUnset) dtypes[l] = static_cast<unsigned char>(DType::i64);
  return out;
}

Block PackedBlock::unpack() const {
  Block out;
  unpack_into(out);
  return out;
}

void PackedBlock::unpack_into(Block& out) const {
  out.resize(m_);
  const MaskView elem = elem_mask();  // empty for the wild block
  const std::size_t lanes = lane_count();
  // The element mask a word at a time: a clear bit is `_`, a set one goes
  // to `leaf`, which writes a number, or a tuple of this arity into the
  // buffer of one already there.
  const auto fill = [&](auto leaf) {
    for (std::size_t w = 0; w * 64 < m_; ++w) {
      const std::uint64_t bits = w < elem.size() ? elem[w] : 0;
      for (std::size_t i = w * 64; i < std::min(m_, w * 64 + 64); ++i)
        if (((bits >> (i % 64)) & 1u) == 0)
          out[i] = Value::undefined();
        else
          leaf(out[i], i);
    }
  };
  const std::uint64_t* words0 = words_ + lane_offset(0);
  if (is_tuple()) {
    fill([&](Value& v, std::size_t i) {
      if (!v.is_tuple() || v.as_tuple().size() != lanes) v = Value(Tuple(lanes));
      Tuple& t = v.as_tuple();
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::uint64_t w = data(l)[i];
        t[l] = !mask_get(defined(l), i)  ? Value::undefined()
               : dtype(l) == DType::i64 ? Value(std::bit_cast<std::int64_t>(w))
                                        : Value(std::bit_cast<double>(w));
      }
    });
  } else if (lanes == 0 || dtype(0) == DType::i64) {
    fill([&](Value& v, std::size_t i) { v = std::bit_cast<std::int64_t>(words0[i]); });
  } else {
    fill([&](Value& v, std::size_t i) { v = std::bit_cast<double>(words0[i]); });
  }
}

// --- flat wire format ----------------------------------------------------
//
// Header: magic, arity, m, lane count, one dtype byte per lane (padded to
// 8 bytes); then per lane m data words + mw mask words; then the element
// mask for tuples.  Everything 8-byte aligned: the dtype bytes and the
// lanes are each one memcpy of the block's own buffer.

std::vector<std::byte> PackedBlock::to_bytes() const {
  const std::size_t lanes = lane_count();
  const std::size_t mw = mask_words(m_);
  const std::size_t dtype_words = (lanes + 7) / 8;
  const std::size_t lane_words = lanes * (m_ + mw);
  const std::size_t elem_words = is_tuple() ? mw : 0;
  std::vector<std::byte> buf((3 + dtype_words + lane_words + elem_words) * 8);
  std::byte* p = buf.data();
  const auto emit = [&p](const void* src, std::size_t n) {
    if (n == 0) return;  // a wild block's buffer holds nothing
    std::memcpy(p, src, n);
    p += n;
  };
  const std::uint32_t magic = kMagic;
  const std::int32_t arity = arity_;
  const std::uint64_t m = m_;
  const std::uint64_t nlanes = lanes;
  emit(&magic, 4);
  emit(&arity, 4);
  emit(&m, 8);
  emit(&nlanes, 8);
  if (lanes > 0) emit(dtype_bytes(), dtype_words * 8);
  emit(words_ + elem_words, lane_words * 8);
  emit(words_, elem_words * 8);
  COLOP_ASSERT(p == buf.data() + buf.size(), "PackedBlock: serialize size");
  return buf;
}

PackedBlock PackedBlock::from_bytes(const std::byte* data, std::size_t size) {
  const std::byte* p = data;
  const std::byte* end = data + size;
  const auto fetch = [&](void* dst, std::size_t n) {
    COLOP_REQUIRE(n <= static_cast<std::size_t>(end - p),
                  "PackedBlock: truncated buffer");
    if (n == 0) return;  // a wild block's buffer holds nothing
    std::memcpy(dst, p, n);
    p += n;
  };
  std::uint32_t magic = 0;
  std::int32_t arity = 0;
  std::uint64_t m = 0;
  std::uint64_t nlanes = 0;
  fetch(&magic, 4);
  COLOP_REQUIRE(magic == kMagic, "PackedBlock: bad magic");
  fetch(&arity, 4);
  fetch(&m, 8);
  fetch(&nlanes, 8);
  COLOP_REQUIRE(arity >= kWildArity, "PackedBlock: bad arity");
  COLOP_REQUIRE(nlanes == lanes_of(arity),
                "PackedBlock: lane count does not match the arity");
  // Bound the sizes by what the buffer holds before sizing anything.
  const auto rest_words = static_cast<std::size_t>(end - p) / 8;
  COLOP_REQUIRE(nlanes == 0 || (m <= rest_words &&
                                m + mask_words(m) <= rest_words / nlanes),
                "PackedBlock: truncated buffer");
  PackedBlock out;
  out.reshape(arity, static_cast<std::size_t>(m));
  const std::size_t lanes = out.lane_count();
  const std::size_t mw = mask_words(out.m_);
  const std::size_t elem_words = out.is_tuple() ? mw : 0;
  if (lanes > 0) {
    unsigned char* dtypes = out.dtype_bytes();
    fetch(dtypes, (lanes + 7) / 8 * 8);
    for (std::size_t b = 0; b < (lanes + 7) / 8 * 8; ++b)
      COLOP_REQUIRE(b < lanes ? dtypes[b] <= 1 : dtypes[b] == 0,
                    "PackedBlock: bad dtype byte");
  }
  fetch(out.words_ + elem_words, lanes * (out.m_ + mw) * 8);
  fetch(out.words_, elem_words * 8);
  COLOP_REQUIRE(p == end, "PackedBlock: trailing bytes");
  return out;
}

std::size_t payload_bytes(const PackedBlock& b) { return 8 * b.defined_words(); }

}  // namespace colop::ir
