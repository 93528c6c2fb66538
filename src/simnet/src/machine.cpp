#include "colop/simnet/machine.h"

#include <algorithm>
#include <cmath>

#include "colop/support/bits.h"

namespace colop::simnet {
namespace {

// Integral word counts below 2^53 add exactly in any order, so one
// multiply-add equals the per-pair sum; anything else (fractional words,
// or a running total that already is) replays the per-pair additions.
void add_words(double& total, double words, std::uint64_t n) {
  constexpr double kExact = 9007199254740992.0;  // 2^53
  const double bulk = 2 * words * static_cast<double>(n);
  if (std::floor(words) == words && std::floor(total) == total &&
      words >= 0 && total + bulk < kExact) {
    total += bulk;
    return;
  }
  for (std::uint64_t i = 0; i < n; ++i) total += 2 * words;
}

}  // namespace

SimMachine::SimMachine(int p, NetParams net)
    : p_(p), net_(net), clock_(static_cast<std::size_t>(p), 0.0) {
  COLOP_REQUIRE(p >= 1, "simnet: need at least one processor");
}

const char* kind_name(SimOp::Kind kind) {
  switch (kind) {
    case SimOp::Kind::compute: return "compute";
    case SimOp::Kind::send: return "send";
    case SimOp::Kind::recv_wait: return "recv_wait";
    case SimOp::Kind::exchange: return "exchange";
  }
  return "compute";
}

void SimMachine::compute(int proc, double ops) {
  check(proc);
  auto& c = clock_[static_cast<std::size_t>(proc)];
  const double t0 = c;
  c += ops;
  trace(SimOp::Kind::compute, proc, t0, c, 0);
}

int topology_hops(Topology topo, int p, int a, int b) {
  if (a == b) return 0;
  switch (topo) {
    case Topology::fully_connected:
      return 1;
    case Topology::hypercube: {
      unsigned x = static_cast<unsigned>(a) ^ static_cast<unsigned>(b);
      int hops = 0;
      while (x != 0) {
        hops += static_cast<int>(x & 1u);
        x >>= 1u;
      }
      return hops;
    }
    case Topology::mesh2d: {
      int cols = 1;
      while (cols * cols < p) ++cols;  // near-square grid, row-major ranks
      const int ra = a / cols, ca = a % cols, rb = b / cols, cb = b % cols;
      return std::abs(ra - rb) + std::abs(ca - cb);
    }
  }
  return 1;
}

double SimMachine::transfer_time(int from, int to, double words) const {
  const int hops = topology_hops(net_.topology, p_, from, to);
  return net_.ts + words * net_.tw + net_.th * std::max(0, hops - 1);
}

void SimMachine::send(int from, int to, double words) {
  check(from);
  check(to);
  auto& c = clock_[static_cast<std::size_t>(from)];
  const double t0 = c;
  c += transfer_time(from, to, words);
  if (inbox_.empty()) inbox_.resize(static_cast<std::size_t>(p_));
  inbox_[static_cast<std::size_t>(to)].push_back({from, c});
  ++messages_;
  words_ += words;
  trace(SimOp::Kind::send, from, t0, c, words, to);
}

void SimMachine::recv(int at, int from) {
  check(at);
  check(from);
  constexpr const char* kNoMessage =
      "simnet: recv with no matching message (schedule bug)";
  COLOP_REQUIRE(!inbox_.empty(), kNoMessage);
  auto& q = inbox_[static_cast<std::size_t>(at)];
  const auto it = std::find_if(q.begin(), q.end(), [from](const Pending& msg) {
    return msg.from == from;
  });
  COLOP_REQUIRE(it != q.end(), kNoMessage);
  const double arrival = it->arrival;
  q.erase(it);
  auto& c = clock_[static_cast<std::size_t>(at)];
  const double t0 = c;
  c = std::max(c, arrival);
  if (c > t0) trace(SimOp::Kind::recv_wait, at, t0, c, 0, from);
}

void SimMachine::exchange(int a, int b, double words) {
  check(a);
  check(b);
  const double t0 = std::max(clock_[static_cast<std::size_t>(a)],
                             clock_[static_cast<std::size_t>(b)]);
  const double t1 = t0 + transfer_time(a, b, words);
  clock_[static_cast<std::size_t>(a)] = t1;
  clock_[static_cast<std::size_t>(b)] = t1;
  messages_ += 2;
  words_ += 2 * words;
  trace(SimOp::Kind::exchange, a, t0, t1, words, b);
  trace(SimOp::Kind::exchange, b, t0, t1, words, a);
}

void SimMachine::check_mask(int mask) const {
  COLOP_REQUIRE(mask >= 1 && mask < p_ &&
                    is_pow2(static_cast<std::uint64_t>(mask)),
                "simnet: butterfly mask must be a power of two below p");
}

void SimMachine::exchange_xor(int mask, double words) {
  check_mask(mask);
  if (trace_ != nullptr || net_.topology != Topology::fully_connected) {
    for (int r = 0; r < p_; ++r) {
      const int partner = r ^ mask;
      if (partner > r && partner < p_) exchange(r, partner, words);
    }
    return;
  }
  const double t = transfer_time(0, mask, words);
  double* c = clock_.data();
  std::uint64_t pairs = 0;
  for (int b = 0; b + mask < p_; b += 2 * mask) {
    const int n = std::min(mask, p_ - mask - b);
    double* lo = c + b;
    double* hi = lo + mask;
    for (int i = 0; i < n; ++i) {
      const double t1 = std::max(lo[i], hi[i]) + t;
      lo[i] = t1;
      hi[i] = t1;
    }
    pairs += static_cast<std::uint64_t>(n);
  }
  messages_ += 2 * pairs;
  add_words(words_, words, pairs);
}

void SimMachine::compute_range(int first, int last, double ops) {
  COLOP_REQUIRE(0 <= first && first <= last && last <= p_,
                "simnet: processor range [first, last) out of bounds");
  if (trace_ != nullptr) {
    for (int r = first; r < last; ++r) compute(r, ops);
    return;
  }
  for (int r = first; r < last; ++r) clock_[static_cast<std::size_t>(r)] += ops;
}

void SimMachine::compute_xor(int mask, double lo, double hi) {
  check_mask(mask);
  if (trace_ != nullptr) {
    for (int r = 0; r < p_; ++r) {
      const int partner = r ^ mask;
      if (partner < p_) compute(r, partner < r ? hi : lo);
    }
    return;
  }
  double* c = clock_.data();
  for (int b = 0; b + mask < p_; b += 2 * mask) {
    const int n = std::min(mask, p_ - mask - b);
    for (int i = 0; i < n; ++i) c[b + i] += lo;
    for (int i = 0; i < n; ++i) c[b + mask + i] += hi;
  }
}

double SimMachine::makespan() const {
  return *std::max_element(clock_.begin(), clock_.end());
}

double SimMachine::clock(int proc) const {
  check(proc);
  return clock_[static_cast<std::size_t>(proc)];
}

void SimMachine::advance_to(int proc, double t) {
  check(proc);
  auto& c = clock_[static_cast<std::size_t>(proc)];
  if (t <= c) return;
  trace(SimOp::Kind::compute, proc, c, t, 0);
  c = t;
}

void SimMachine::barrier() {
  const double t = makespan();
  std::fill(clock_.begin(), clock_.end(), t);
}

void SimMachine::reset() {
  std::fill(clock_.begin(), clock_.end(), 0.0);
  for (auto& q : inbox_) q.clear();
  messages_ = 0;
  words_ = 0;
}

}  // namespace colop::simnet
