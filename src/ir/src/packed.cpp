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

std::uint64_t encode_i64(std::int64_t v) { return std::bit_cast<std::uint64_t>(v); }
std::uint64_t encode_f64(double v) { return std::bit_cast<std::uint64_t>(v); }

Value decode(DType dtype, std::uint64_t w) {
  if (dtype == DType::i64) return Value(std::bit_cast<std::int64_t>(w));
  return Value(std::bit_cast<double>(w));
}

}  // namespace

bool mask_get(MaskView mask, std::size_t i) {
  const std::size_t w = i / 64;
  if (w >= mask.size()) return false;
  return (mask[w] >> (i % 64)) & 1u;
}

void mask_set(MaskSpan mask, std::size_t i, bool bit) {
  const std::size_t w = i / 64;
  COLOP_ASSERT(w < mask.size(), "mask_set: index out of range");
  if (bit)
    mask[w] |= std::uint64_t{1} << (i % 64);
  else
    mask[w] &= ~(std::uint64_t{1} << (i % 64));
}

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

// --- boxed conversion ----------------------------------------------------

std::optional<PackedBlock> PackedBlock::pack(const Block& boxed) {
  const std::size_t m = boxed.size();
  // Classify: scalar block, tuple block, or all-undefined (wild).
  int arity = kWildArity;
  for (const Value& v : boxed) {
    if (v.is_undefined()) continue;
    const int a = v.is_tuple() ? static_cast<int>(v.as_tuple().size()) : 0;
    if (v.is_tuple() && a == 0) return std::nullopt;  // empty tuple: keep boxed
    if (arity == kWildArity)
      arity = a;
    else if (arity != a)
      return std::nullopt;  // mixed scalar/tuple or mixed arities
  }
  if (arity == kWildArity) return wild(m);

  PackedBlock out = arity == 0 ? scalars(m, DType::i64) : tuples(arity, m);
  // Lane dtypes: fixed by the first defined component, then enforced.
  // canonicalize() resets lanes that stay unset (nothing defined) to i64.
  unsigned char* dtypes = out.dtype_bytes();
  std::fill(dtypes, dtypes + out.lane_count(), kDTypeUnset);
  const auto put = [&](std::size_t l, std::size_t i, const Value& v) -> bool {
    if (v.is_undefined()) return true;
    if (!v.is_number()) return false;  // nested tuple: keep boxed
    const auto dt = static_cast<unsigned char>(v.is_int() ? DType::i64 : DType::f64);
    if (dtypes[l] == kDTypeUnset)
      dtypes[l] = dt;
    else if (dtypes[l] != dt)
      return false;  // int and real mixed in one lane: keep boxed
    out.data(l)[i] = v.is_int() ? encode_i64(v.as_int()) : encode_f64(v.as_real());
    mask_set(out.defined(l), i, true);
    return true;
  };
  for (std::size_t i = 0; i < m; ++i) {
    const Value& v = boxed[i];
    if (v.is_undefined()) continue;
    if (arity == 0) {
      if (!put(0, i, v)) return std::nullopt;
    } else {
      mask_set(out.elem_mask(), i, true);
      const Tuple& t = v.as_tuple();
      for (std::size_t l = 0; l < t.size(); ++l)
        if (!put(l, i, t[l])) return std::nullopt;
    }
  }
  out.canonicalize();
  return out;
}

Block PackedBlock::unpack() const {
  Block out(m_);  // default-constructed Values are undefined
  if (is_wild()) return out;
  if (is_scalar()) {
    const DType dt = dtype(0);
    const auto words = data(0);
    const MaskView def = defined(0);
    for (std::size_t i = 0; i < m_; ++i)
      if (mask_get(def, i)) out[i] = decode(dt, words[i]);
    return out;
  }
  const MaskView elem = elem_mask();
  for (std::size_t i = 0; i < m_; ++i) {
    if (!mask_get(elem, i)) continue;
    Tuple t;
    t.reserve(lane_count());
    for (std::size_t l = 0; l < lane_count(); ++l)
      t.push_back(mask_get(defined(l), i) ? decode(dtype(l), data(l)[i])
                                          : Value::undefined());
    out[i] = Value(std::move(t));
  }
  return out;
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
