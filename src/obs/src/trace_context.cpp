#include "colop/obs/trace_context.h"

#include <chrono>
#include <mutex>
#include <random>
#include <utility>

#include "colop/obs/json.h"

namespace colop::obs {
namespace {

std::mutex g_mutex;
std::string g_trace_id;                     // guarded by g_mutex

}  // namespace

std::string mint_trace_id() {
  // random_device entropy XOR a wall-clock nonce: distinct across processes
  // even when the random source is deterministic (some sandboxes).
  std::random_device rd;
  const auto now = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  std::uint64_t bits =
      (static_cast<std::uint64_t>(rd()) << 32 | rd()) ^ (now * 0x9e3779b97f4a7c15ULL);
  if (bits == 0) bits = 1;
  static const char* hex = "0123456789abcdef";
  std::string id(16, '0');
  for (int i = 15; i >= 0; --i) {
    id[static_cast<std::size_t>(i)] = hex[bits & 0xf];
    bits >>= 4;
  }
  return id;
}

void set_trace_id(std::string id) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_trace_id = std::move(id);
}

std::string trace_id() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_trace_id;
}

ScopedTrace::ScopedTrace(std::string id) : id_(std::move(id)), prev_(trace_id()) {
  set_trace_id(id_);
}

ScopedTrace::~ScopedTrace() { set_trace_id(prev_); }

std::string trace_id_json_field() {
  const std::string id = trace_id();
  if (id.empty()) return {};
  return ",\"trace_id\":" + json::quote(id);
}

}  // namespace colop::obs
