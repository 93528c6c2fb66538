#include "colop/rt/flight_recorder.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "colop/rt/op_stream.h"

namespace colop::rt {
namespace {

Config load_from_env() {
  Config cfg;
  if (const char* v = std::getenv("COLOP_RT"))
    cfg.enabled = !(v[0] == '0' && v[1] == '\0');
  if (const char* v = std::getenv("COLOP_RT_RING")) {
    const long n = std::strtol(v, nullptr, 10);
    if (n > 0) cfg.ring_capacity = static_cast<std::size_t>(n);
  }
  if (const char* v = std::getenv("COLOP_RT_WATCHDOG_MS")) {
    const double x = std::strtod(v, nullptr);
    if (x > 0) cfg.watchdog_ms = x;
  }
  if (const char* v = std::getenv("COLOP_RT_DUMP")) cfg.dump_path = v;
  return cfg;
}

}  // namespace

Config& mutable_config() {
  static Config cfg = load_from_env();
  return cfg;
}

const char* ev_name(Ev kind) {
  switch (kind) {
    case Ev::none: return "none";
    case Ev::stage_begin: return "stage_begin";
    case Ev::stage_end: return "stage_end";
    case Ev::send: return "send";
    case Ev::recv_begin: return "recv_begin";
    case Ev::recv_end: return "recv_end";
    case Ev::barrier_begin: return "barrier_begin";
    case Ev::barrier_end: return "barrier_end";
    case Ev::plane: return "plane";
    case Ev::mark: return "mark";
  }
  return "?";
}

std::vector<Record> Recorder::snapshot() const {
  std::uint64_t cursor = 0;
  std::vector<Record> out;
  drain(cursor, out);
  return out;
}

std::uint64_t Recorder::drain(std::uint64_t& cursor,
                              std::vector<Record>& out) const {
  const std::uint64_t end = head_.load(std::memory_order_acquire);
  const std::uint64_t begin =
      std::min(end, std::max(cursor, end > cap_ ? end - cap_ : 0));
  const std::size_t first = out.size();
  for (std::uint64_t seq = begin; seq < end; ++seq) {
    const std::atomic<std::uint64_t>* w = &words_[(seq & (cap_ - 1)) * kWords];
    Record r;
    r.seq = seq;
    r.t_ns = w[0].load(std::memory_order_relaxed);
    const std::uint64_t meta = w[1].load(std::memory_order_relaxed);
    r.kind = static_cast<Ev>(meta & 0xff);
    r.stage = static_cast<std::uint16_t>((meta >> 8) & 0xffff);
    r.peer = static_cast<std::int32_t>(static_cast<std::uint32_t>(meta >> 32));
    r.bytes = w[2].load(std::memory_order_relaxed);
    r.aux = w[3].load(std::memory_order_relaxed);
    out.push_back(r);
  }
  // The producer may have lapped us mid-copy; anything whose slot it had
  // started to overwrite is untrustworthy and is dropped from the front.
  std::atomic_thread_fence(std::memory_order_acquire);
  const std::uint64_t claimed = claimed_.load(std::memory_order_relaxed);
  const std::uint64_t kept_from =
      std::clamp(claimed > cap_ ? claimed - cap_ : 0, begin, end);
  out.erase(out.begin() + static_cast<std::ptrdiff_t>(first),
            out.begin() + static_cast<std::ptrdiff_t>(first + (kept_from - begin)));
  const std::uint64_t lost = kept_from - std::min(cursor, kept_from);
  cursor = end;
  return lost;
}

Fleet::Fleet(int ranks, const Config& cfg)
    : ranks_(ranks < 1 ? 1 : ranks),
      built_enabled_(cfg.enabled),
      built_capacity_(cfg.ring_capacity),
      epoch_(std::chrono::steady_clock::now()),
      stats_(static_cast<std::size_t>(ranks_)) {
  if (!cfg.enabled) return;
  recorders_.reserve(static_cast<std::size_t>(ranks_));
  for (int r = 0; r < ranks_; ++r)
    recorders_.push_back(std::make_unique<Recorder>(cfg.ring_capacity, epoch_));
}

bool Fleet::built_from(const Config& cfg) const noexcept {
  return cfg.enabled == built_enabled_ && cfg.ring_capacity == built_capacity_;
}

void Fleet::reset() {
  epoch_ = std::chrono::steady_clock::now();
  for (auto& rec : recorders_) rec->reset(epoch_);
  // Rebuilt in place: mailboxes and communicators hold pointers to them.
  for (RankStats& s : stats_) {
    std::destroy_at(&s);
    std::construct_at(&s);
  }
  stage_labels_.clear();
}

FleetSnapshot Fleet::snapshot() const {
  FleetSnapshot snap;
  snap.enabled = enabled();
  snap.ranks = ranks_;
  snap.stage_labels = stage_labels_;
  if (!enabled()) return snap;
  snap.per_rank.reserve(static_cast<std::size_t>(ranks_));
  for (int r = 0; r < ranks_; ++r) {
    RankSnapshot rs;
    rs.rank = r;
    const Recorder& rec = *recorders_[static_cast<std::size_t>(r)];
    rs.records = rec.snapshot();
    rs.logged = rec.head();
    rs.dropped = rs.logged - rs.records.size();
    const RankStats& s = stats_[static_cast<std::size_t>(r)];
    auto ld = [](const auto& a) { return a.load(std::memory_order_relaxed); };
    rs.stats.sends = ld(s.sends);
    rs.stats.send_bytes = ld(s.send_bytes);
    rs.stats.recvs = ld(s.recvs);
    rs.stats.barriers = ld(s.barriers);
    rs.stats.queue_depth = ld(s.queue_depth);
    rs.stats.queue_depth_max = ld(s.queue_depth_max);
    rs.stats.queue_depth_sum = ld(s.queue_depth_sum);
    rs.stats.queued_total = ld(s.queued_total);
    rs.stats.queue_bytes = ld(s.queue_bytes);
    rs.stats.queue_bytes_max = ld(s.queue_bytes_max);
    rs.stats.done = ld(s.done) != 0;
    WaitFold fold;
    for (const Record& record : rs.records) fold.add(record);
    rs.stats.recv_wait_ns = fold.recv_wait_ns;
    rs.stats.barrier_wait_ns = fold.barrier_wait_ns;
    rs.stats.last_event_ns = fold.last_ns;
    rs.stats.blocked = fold.open();
    snap.per_rank.push_back(std::move(rs));
  }
  return snap;
}

}  // namespace colop::rt
