#pragma once
// Message representation and payload size accounting.
//
// mpsim is an intra-process message-passing runtime: payloads are moved
// (never serialized) between threads inside a type-erased Payload.  For
// traffic statistics we still account a wire size for every payload,
// computed by payload_bytes().  User types can participate by providing an
// ADL-visible overload `std::size_t payload_bytes(const T&)`.

#include <array>
#include <cstddef>
#include <new>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

namespace colop::mpsim {

/// The owner of one message's value, any movable type.  A value of at most
/// kInlineBytes that moves without throwing lives inside the Payload, so a
/// message carrying it allocates nothing; larger values are boxed on the
/// heap, as std::any boxes everything beyond one pointer.  The capacity
/// fits the packed data plane's blocks (ir::PackedBlock), the hottest
/// payload: rule certification sends tens of thousands of them per compile.
class Payload {
 public:
  static constexpr std::size_t kInlineBytes = 336;

  Payload() noexcept = default;
  template <typename T, typename V = std::decay_t<T>>
    requires(!std::is_same_v<V, Payload>)
  explicit Payload(T&& value) : ops_(&kOps<V>) {
    if constexpr (kInline<V>)
      ::new (static_cast<void*>(buf_)) V(std::forward<T>(value));
    else
      ::new (static_cast<void*>(buf_)) V*(new V(std::forward<T>(value)));
  }
  Payload(Payload&& other) noexcept { steal(other); }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;
  ~Payload() { reset(); }

  /// The value if it is a T, else nullptr.
  template <typename T>
  [[nodiscard]] T* get() noexcept {
    if (ops_ == nullptr) return nullptr;
    if (ops_ != &kOps<T> && *ops_->type != typeid(T)) return nullptr;
    return static_cast<T*>(ops_->value(buf_));
  }
  template <typename T>
  [[nodiscard]] const T* get() const noexcept {
    return const_cast<Payload*>(this)->get<T>();
  }

 private:
  struct Ops {
    const std::type_info* type;
    void* (*value)(unsigned char* buf) noexcept;
    /// Move-construct into `dst` from `src` and end the value in `src`.
    void (*relocate)(unsigned char* dst, unsigned char* src) noexcept;
    void (*destroy)(unsigned char* buf) noexcept;
  };

  template <typename V>
  static constexpr bool kInline = sizeof(V) <= kInlineBytes &&
                                  alignof(V) <= alignof(std::max_align_t) &&
                                  std::is_nothrow_move_constructible_v<V>;

  template <typename V>
  static V* inline_value(unsigned char* buf) noexcept {
    return std::launder(reinterpret_cast<V*>(buf));
  }
  template <typename V>
  static V*& boxed_value(unsigned char* buf) noexcept {
    return *std::launder(reinterpret_cast<V**>(buf));
  }

  template <typename V>
  static constexpr Ops make_ops() {
    if constexpr (kInline<V>) {
      return {&typeid(V), [](unsigned char* b) noexcept -> void* { return inline_value<V>(b); },
              [](unsigned char* dst, unsigned char* src) noexcept {
                V* from = inline_value<V>(src);
                ::new (static_cast<void*>(dst)) V(std::move(*from));
                from->~V();
              },
              [](unsigned char* b) noexcept { inline_value<V>(b)->~V(); }};
    } else {
      return {&typeid(V), [](unsigned char* b) noexcept -> void* { return boxed_value<V>(b); },
              [](unsigned char* dst, unsigned char* src) noexcept {
                ::new (static_cast<void*>(dst)) V*(boxed_value<V>(src));
              },
              [](unsigned char* b) noexcept { delete boxed_value<V>(b); }};
    }
  }
  template <typename V>
  static constexpr Ops kOps = make_ops<V>();

  void steal(Payload& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = std::exchange(other.ops_, nullptr);
  }
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

/// One in-flight message.  `payload` owns the (moved-in) value.
struct Message {
  Payload payload;
  std::size_t bytes = 0;  ///< accounted wire size of the payload
  int source = -1;
  int tag = 0;
};

// --- payload_bytes: wire-size accounting -------------------------------
// Forward declarations first: the containers recurse into each other
// (vector<pair<...>>, pair<vector<...>, ...>) and std types get no ADL help
// from this namespace, so every overload must be visible to every other.

template <typename T>
  requires std::is_arithmetic_v<T> || std::is_enum_v<T>
[[nodiscard]] constexpr std::size_t payload_bytes(const T&) noexcept;
[[nodiscard]] inline std::size_t payload_bytes(const std::string& s) noexcept;
template <typename T>
[[nodiscard]] std::size_t payload_bytes(const std::vector<T>& v);
template <typename T, std::size_t N>
[[nodiscard]] std::size_t payload_bytes(const std::array<T, N>& v);
template <typename A, typename B>
[[nodiscard]] std::size_t payload_bytes(const std::pair<A, B>& p);
template <typename... Ts>
[[nodiscard]] std::size_t payload_bytes(const std::tuple<Ts...>& t);
template <typename T>
[[nodiscard]] std::size_t payload_bytes(const std::optional<T>& o);

template <typename T>
  requires std::is_arithmetic_v<T> || std::is_enum_v<T>
[[nodiscard]] constexpr std::size_t payload_bytes(const T&) noexcept {
  return sizeof(T);
}

[[nodiscard]] inline std::size_t payload_bytes(const std::string& s) noexcept {
  return s.size();
}

template <typename T>
[[nodiscard]] std::size_t payload_bytes(const std::vector<T>& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    return v.size() * sizeof(T);
  } else {
    std::size_t total = 0;
    for (const auto& e : v) total += payload_bytes(e);
    return total;
  }
}

template <typename T, std::size_t N>
[[nodiscard]] std::size_t payload_bytes(const std::array<T, N>& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    return N * sizeof(T);
  } else {
    std::size_t total = 0;
    for (const auto& e : v) total += payload_bytes(e);
    return total;
  }
}

template <typename A, typename B>
[[nodiscard]] std::size_t payload_bytes(const std::pair<A, B>& p) {
  return payload_bytes(p.first) + payload_bytes(p.second);
}

template <typename... Ts>
[[nodiscard]] std::size_t payload_bytes(const std::tuple<Ts...>& t) {
  return std::apply(
      [](const Ts&... es) { return (std::size_t{0} + ... + payload_bytes(es)); }, t);
}

template <typename T>
[[nodiscard]] std::size_t payload_bytes(const std::optional<T>& o) {
  return o ? payload_bytes(*o) : 0;
}

/// Dispatch helper that finds overloads via ADL as well as the ones above.
template <typename T>
[[nodiscard]] std::size_t wire_size(const T& v) {
  return payload_bytes(v);
}

}  // namespace colop::mpsim
