#include "colop/ir/packed.h"

#include <bit>
#include <cstring>

#include "colop/support/error.h"

namespace colop::ir {
namespace {

constexpr std::uint32_t kMagic = 0x31425043;  // "CPB1" little-endian

std::uint64_t encode_i64(std::int64_t v) { return std::bit_cast<std::uint64_t>(v); }
std::uint64_t encode_f64(double v) { return std::bit_cast<std::uint64_t>(v); }

Value decode(DType dtype, std::uint64_t w) {
  if (dtype == DType::i64) return Value(std::bit_cast<std::int64_t>(w));
  return Value(std::bit_cast<double>(w));
}

}  // namespace

std::size_t mask_words(std::size_t m) { return (m + 63) / 64; }

bool mask_get(const Mask& mask, std::size_t i) {
  const std::size_t w = i / 64;
  if (w >= mask.size()) return false;
  return (mask[w] >> (i % 64)) & 1u;
}

void mask_set(Mask& mask, std::size_t i, bool bit) {
  const std::size_t w = i / 64;
  COLOP_ASSERT(w < mask.size(), "mask_set: index out of range");
  if (bit)
    mask[w] |= std::uint64_t{1} << (i % 64);
  else
    mask[w] &= ~(std::uint64_t{1} << (i % 64));
}

Mask mask_full(std::size_t m) {
  Mask mask(mask_words(m), ~std::uint64_t{0});
  if (m % 64 != 0 && !mask.empty())
    mask.back() = (std::uint64_t{1} << (m % 64)) - 1;
  return mask;
}

Mask mask_and(const Mask& a, const Mask& b) {
  Mask out(std::min(a.size(), b.size()));
  for (std::size_t w = 0; w < out.size(); ++w) out[w] = a[w] & b[w];
  return out;
}

bool mask_none(const Mask& mask) {
  for (const std::uint64_t w : mask)
    if (w != 0) return false;
  return true;
}

bool mask_subset(const Mask& inner, const Mask& outer) {
  for (std::size_t w = 0; w < inner.size(); ++w) {
    const std::uint64_t o = w < outer.size() ? outer[w] : 0;
    if ((inner[w] & ~o) != 0) return false;
  }
  return true;
}

std::size_t mask_popcount(const Mask& mask) {
  std::size_t n = 0;
  for (const std::uint64_t w : mask) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

PackedBlock PackedBlock::wild(std::size_t m) {
  PackedBlock b;
  b.m_ = m;
  return b;
}

PackedBlock PackedBlock::scalars(std::size_t m, DType dtype) {
  PackedBlock b;
  b.m_ = m;
  b.arity_ = 0;
  b.lanes_.resize(1);
  b.lanes_[0].dtype = dtype;
  b.lanes_[0].data.assign(m, 0);
  b.lanes_[0].defined.assign(mask_words(m), 0);
  return b;
}

PackedBlock PackedBlock::tuples(int arity, std::size_t m) {
  COLOP_REQUIRE(arity >= 1, "PackedBlock: tuple arity must be >= 1");
  PackedBlock b;
  b.m_ = m;
  b.arity_ = arity;
  b.elem_.assign(mask_words(m), 0);
  b.lanes_.resize(static_cast<std::size_t>(arity));
  for (auto& lane : b.lanes_) {
    lane.data.assign(m, 0);
    lane.defined.assign(mask_words(m), 0);
  }
  return b;
}

void PackedBlock::canonicalize() {
  if (is_wild()) {
    elem_.clear();
    lanes_.clear();
    return;
  }
  const std::size_t mw = mask_words(m_);
  // Zero the tail bits of the element mask, clamp lanes to it, zero data
  // under cleared mask bits.
  Mask& elem = is_scalar() ? lanes_[0].defined : elem_;
  elem.resize(mw, 0);
  if (m_ % 64 != 0 && mw > 0)
    elem.back() &= (std::uint64_t{1} << (m_ % 64)) - 1;
  for (auto& lane : lanes_) {
    lane.defined.resize(mw, 0);
    lane.data.resize(m_, 0);
    for (std::size_t w = 0; w < mw; ++w) lane.defined[w] &= elem[w];
    for (std::size_t i = 0; i < m_; ++i)
      if (!mask_get(lane.defined, i)) lane.data[i] = 0;
    if (mask_none(lane.defined)) lane.dtype = DType::i64;
  }
  if (mask_none(elem)) {
    // No defined element at all: the canonical form is the wild block.
    arity_ = kWildArity;
    elem_.clear();
    lanes_.clear();
  } else if (is_scalar()) {
    elem_.clear();
  }
}

std::size_t PackedBlock::defined_words() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += mask_popcount(lane.defined);
  return n;
}

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
  std::vector<bool> dtype_known(out.lane_count(), false);
  const auto put = [&](std::size_t l, std::size_t i, const Value& v) -> bool {
    if (v.is_undefined()) return true;
    if (!v.is_number()) return false;  // nested tuple: keep boxed
    Lane& lane = out.lanes_[l];
    const DType dt = v.is_int() ? DType::i64 : DType::f64;
    if (!dtype_known[l]) {
      lane.dtype = dt;
      dtype_known[l] = true;
    } else if (lane.dtype != dt) {
      return false;  // int and real mixed in one lane: keep boxed
    }
    lane.data[i] = v.is_int() ? encode_i64(v.as_int()) : encode_f64(v.as_real());
    mask_set(lane.defined, i, true);
    return true;
  };
  for (std::size_t i = 0; i < m; ++i) {
    const Value& v = boxed[i];
    if (v.is_undefined()) continue;
    if (arity == 0) {
      if (!put(0, i, v)) return std::nullopt;
    } else {
      mask_set(out.elem_, i, true);
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
    const Lane& lane = lanes_[0];
    for (std::size_t i = 0; i < m_; ++i)
      if (mask_get(lane.defined, i)) out[i] = decode(lane.dtype, lane.data[i]);
    return out;
  }
  for (std::size_t i = 0; i < m_; ++i) {
    if (!mask_get(elem_, i)) continue;
    Tuple t;
    t.reserve(lanes_.size());
    for (const Lane& lane : lanes_)
      t.push_back(mask_get(lane.defined, i) ? decode(lane.dtype, lane.data[i])
                                            : Value::undefined());
    out[i] = Value(std::move(t));
  }
  return out;
}

std::vector<std::byte> PackedBlock::to_bytes() const {
  const std::size_t mw = mask_words(m_);
  // Header: magic, arity, m, lane count, one dtype byte per lane (padded
  // to 8 bytes); then per lane m data words + mw mask words; then the
  // element mask for tuples.  Everything 8-byte aligned, pure memcpy.
  const std::size_t header_words = 3 + (lanes_.size() + 7) / 8;
  const std::size_t lane_words = lanes_.size() * (m_ + mw);
  const std::size_t elem_words_n = is_tuple() ? mw : 0;
  std::vector<std::byte> buf((header_words + lane_words + elem_words_n) * 8);
  std::byte* p = buf.data();
  const auto emit = [&p](const void* src, std::size_t n) {
    if (n == 0) return;  // an empty lane's data() may be null
    std::memcpy(p, src, n);
    p += n;
  };
  const std::uint32_t magic = kMagic;
  const std::int32_t arity = arity_;
  const std::uint64_t m = m_;
  const std::uint64_t nlanes = lanes_.size();
  emit(&magic, 4);
  emit(&arity, 4);
  emit(&m, 8);
  emit(&nlanes, 8);
  std::vector<std::uint8_t> dtypes((lanes_.size() + 7) / 8 * 8, 0);
  for (std::size_t l = 0; l < lanes_.size(); ++l)
    dtypes[l] = static_cast<std::uint8_t>(lanes_[l].dtype);
  emit(dtypes.data(), dtypes.size());
  for (const Lane& lane : lanes_) {
    emit(lane.data.data(), m_ * 8);
    emit(lane.defined.data(), mw * 8);
  }
  if (is_tuple()) emit(elem_.data(), mw * 8);
  COLOP_ASSERT(p == buf.data() + buf.size(), "PackedBlock: serialize size");
  return buf;
}

PackedBlock PackedBlock::from_bytes(const std::byte* data, std::size_t size) {
  const std::byte* p = data;
  const std::byte* end = data + size;
  const auto fetch = [&](void* dst, std::size_t n) {
    COLOP_REQUIRE(p + n <= end, "PackedBlock: truncated buffer");
    if (n == 0) return;  // an empty lane's data() may be null
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
  PackedBlock out;
  out.m_ = static_cast<std::size_t>(m);
  out.arity_ = arity;
  const std::size_t mw = mask_words(out.m_);
  std::vector<std::uint8_t> dtypes((nlanes + 7) / 8 * 8, 0);
  fetch(dtypes.data(), dtypes.size());
  out.lanes_.resize(static_cast<std::size_t>(nlanes));
  for (std::size_t l = 0; l < out.lanes_.size(); ++l) {
    Lane& lane = out.lanes_[l];
    lane.dtype = static_cast<DType>(dtypes[l]);
    lane.data.resize(out.m_);
    lane.defined.resize(mw);
    fetch(lane.data.data(), out.m_ * 8);
    fetch(lane.defined.data(), mw * 8);
  }
  if (out.is_tuple()) {
    out.elem_.resize(mw);
    fetch(out.elem_.data(), mw * 8);
  }
  COLOP_REQUIRE(p == end, "PackedBlock: trailing bytes");
  return out;
}

std::size_t payload_bytes(const PackedBlock& b) { return 8 * b.defined_words(); }

}  // namespace colop::ir
