#include "colop/rt/live.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "colop/obs/metrics.h"

namespace colop::rt {
namespace {

std::uint64_t steady_ns(std::chrono::steady_clock::time_point t) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count());
}

std::uint64_t steady_now_ns() noexcept {
  return steady_ns(std::chrono::steady_clock::now());
}

// The sampler every launch attaches to.  g_mutex orders attach/detach
// against run edges and sampler destruction; g_active is the per-launch
// check.  Lock order: g_mutex, then a sampler's mutex_.
std::mutex g_mutex;
LiveSampler* g_current = nullptr;
std::atomic<bool> g_active{false};

constexpr std::size_t kEvKinds = static_cast<std::size_t>(Ev::mark) + 1;

}  // namespace

// What fold() has already taken from one rank of an attached fleet.
struct LiveSampler::Seen {
  std::uint64_t cursor = 0;  ///< recorder records folded
  std::uint64_t stages_done = 0;
  std::uint64_t sends = 0;
  std::uint64_t send_bytes = 0;
  std::uint64_t recv_wait_ns = 0;
  std::uint64_t barrier_wait_ns = 0;
  std::uint16_t open_stage = Record::kNoStage;  ///< last stage_begin seen
  std::uint64_t open_stage_ns = 0;
};

struct LiveSampler::Attached {
  Fleet* fleet = nullptr;
  std::uint64_t epoch_ns = 0;  ///< the fleet's epoch on the steady clock
  std::vector<Seen> seen;      ///< by rank
};

// One rank's totals over every launch of the run.
struct LiveSampler::RankAgg {
  int stage = -1;
  std::uint64_t stages_done = 0;
  std::uint64_t comm_ns = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t sends = 0;
  std::uint64_t send_bytes = 0;
  std::uint64_t last_event_ns = 0;  ///< steady clock; 0 = none yet
  bool stalled = false;
};

LiveSampler::LiveSampler(obs::Registry& registry) : registry_(registry) {}

LiveSampler::~LiveSampler() {
  stop();
  end_run();
}

// --- run lifecycle ---------------------------------------------------------

void LiveSampler::begin_run(LiveRunInfo info) {
  const std::lock_guard<std::mutex> global(g_mutex);
  if (g_current != nullptr && g_current != this) {
    const std::lock_guard<std::mutex> other(g_current->mutex_);
    g_current->end_run_locked();
  }
  g_current = this;
  g_active.store(true, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  end_run_locked();
  ++run_.seq;
  run_.active = true;
  run_.repeat = 0;
  run_.started_ns = steady_now_ns();
  run_.ended_ns = 0;
  run_.info = std::move(info);
  agg_.clear();
  events_ = 0;
  dropped_ = 0;
  last_event_ns_ = 0;
}

void LiveSampler::note_repeat(int repeat) {
  const std::lock_guard<std::mutex> lock(mutex_);
  run_.repeat = repeat;
}

void LiveSampler::end_run() {
  const std::lock_guard<std::mutex> global(g_mutex);
  if (g_current == this) {
    g_current = nullptr;
    g_active.store(false, std::memory_order_relaxed);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  end_run_locked();
}

void LiveSampler::end_run_locked() {
  if (!run_.active) return;
  for (Attached& launch : attached_) fold(launch);
  attached_.clear();
  ++run_.seq;
  run_.active = false;
  run_.ended_ns = steady_now_ns();
}

LiveSampler::RunState LiveSampler::run_state() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return run_;
}

// --- launches --------------------------------------------------------------

bool LiveSampler::attach(Fleet& fleet) {
  if (!g_active.load(std::memory_order_relaxed) || !fleet.enabled())
    return false;
  const std::lock_guard<std::mutex> global(g_mutex);
  if (g_current == nullptr) return false;
  const std::lock_guard<std::mutex> lock(g_current->mutex_);
  Attached launch;
  launch.fleet = &fleet;
  launch.epoch_ns = steady_ns(fleet.epoch());
  launch.seen.resize(static_cast<std::size_t>(fleet.ranks()));
  g_current->attached_.push_back(std::move(launch));
  return true;
}

void LiveSampler::detach(Fleet& fleet) {
  const std::lock_guard<std::mutex> global(g_mutex);
  // A run that ended (or was replaced) meanwhile already folded and
  // dropped the fleet.
  if (g_current == nullptr) return;
  LiveSampler& s = *g_current;
  const std::lock_guard<std::mutex> lock(s.mutex_);
  const auto it =
      std::find_if(s.attached_.begin(), s.attached_.end(),
                   [&](const Attached& a) { return a.fleet == &fleet; });
  if (it == s.attached_.end()) return;
  s.fold(*it);
  s.attached_.erase(it);
}

// --- folding ---------------------------------------------------------------

LiveSampler::RankAgg& LiveSampler::rank_agg(int rank) {
  const auto r = static_cast<std::size_t>(rank);
  if (r >= agg_.size()) agg_.resize(r + 1);
  return agg_[r];
}

obs::Histogram& LiveSampler::stage_seconds(std::uint16_t stage) {
  if (stage >= stage_seconds_.size()) stage_seconds_.resize(stage + 1u, nullptr);
  obs::Histogram*& h = stage_seconds_[stage];
  if (h == nullptr)
    h = &registry_.histogram("colop_live_stage_seconds",
                             "Live per-rank stage latency",
                             obs::default_seconds_buckets(),
                             {{"stage", std::to_string(stage)}});
  return *h;
}

void LiveSampler::fold(Attached& launch) {
  Fleet& fleet = *launch.fleet;
  const auto take = [](const std::atomic<std::uint64_t>& now,
                       std::uint64_t& seen) {
    const std::uint64_t v = now.load(std::memory_order_relaxed);
    const std::uint64_t delta = v - seen;
    seen = v;
    return delta;
  };
  std::array<std::uint64_t, kEvKinds> kinds{};
  std::uint64_t stages = 0, sends = 0, send_bytes = 0, dropped = 0;
  for (int r = 0; r < fleet.ranks(); ++r) {
    const RankStats& st = *fleet.stats(r);
    Seen& seen = launch.seen[static_cast<std::size_t>(r)];
    RankAgg& a = rank_agg(r);
    const std::uint64_t rank_stages = take(st.stages_done, seen.stages_done);
    const std::uint64_t rank_sends = take(st.sends, seen.sends);
    const std::uint64_t rank_bytes = take(st.send_bytes, seen.send_bytes);
    const std::uint64_t comm = take(st.recv_wait_ns, seen.recv_wait_ns);
    const std::uint64_t idle = take(st.barrier_wait_ns, seen.barrier_wait_ns);
    a.stages_done += rank_stages;
    a.sends += rank_sends;
    a.send_bytes += rank_bytes;
    a.comm_ns += comm;
    a.idle_ns += idle;
    stages += rank_stages;
    sends += rank_sends;
    send_bytes += rank_bytes;
    const obs::LabelSet rank_label{{"rank", std::to_string(r)}};
    if (comm > 0)
      registry_
          .counter("colop_live_recv_wait_seconds_total",
                   "Live blocked-receive wait", rank_label)
          .inc(static_cast<double>(comm) / 1e9);
    if (idle > 0)
      registry_
          .counter("colop_live_barrier_wait_seconds_total",
                   "Live barrier wait", rank_label)
          .inc(static_cast<double>(idle) / 1e9);

    const std::uint16_t stage = st.stage.load(std::memory_order_relaxed);
    a.stage = stage == Record::kNoStage ? -1 : stage;
    a.queue_depth = st.queue_depth.load(std::memory_order_relaxed);
    a.stalled = st.stalled.load(std::memory_order_relaxed) != 0;
    if (const std::uint64_t last =
            st.last_event_ns.load(std::memory_order_relaxed);
        last > 0) {
      a.last_event_ns = std::max(a.last_event_ns, launch.epoch_ns + last);
      last_event_ns_ = std::max(last_event_ns_, a.last_event_ns);
    }

    records_.clear();
    dropped += fleet.recorder(r)->drain(seen.cursor, records_);
    events_ += records_.size();
    for (const Record& rec : records_) {
      const auto kind = static_cast<std::size_t>(rec.kind);
      if (kind < kEvKinds) ++kinds[kind];
      if (rec.kind == Ev::stage_begin) {
        seen.open_stage = rec.stage;
        seen.open_stage_ns = rec.t_ns;
      } else if (rec.kind == Ev::stage_end && rec.stage == seen.open_stage) {
        stage_seconds(rec.stage)
            .observe(static_cast<double>(rec.t_ns - seen.open_stage_ns) / 1e9);
        seen.open_stage = Record::kNoStage;
      }
    }
  }
  dropped_ += dropped;
  for (std::size_t k = 0; k < kEvKinds; ++k)
    if (kinds[k] > 0)
      registry_
          .counter("colop_live_events_total", "Flight-recorder records by kind",
                   {{"kind", ev_name(static_cast<Ev>(k))}})
          .inc(static_cast<double>(kinds[k]));
  if (stages > 0)
    registry_
        .counter("colop_live_stage_completions_total",
                 "Per-rank stage executions completed (live)")
        .inc(static_cast<double>(stages));
  if (sends > 0) {
    registry_.counter("colop_live_sends_total", "Live messages sent")
        .inc(static_cast<double>(sends));
    registry_.counter("colop_live_send_bytes_total", "Live payload bytes sent")
        .inc(static_cast<double>(send_bytes));
  }
  if (dropped > 0)
    registry_
        .counter("colop_live_dropped_events_total",
                 "Flight-recorder records overwritten before they were read")
        .inc(static_cast<double>(dropped));
}

// --- sampling --------------------------------------------------------------

void LiveSampler::start(double interval_ms) {
  if (interval_ms <= 0) {
    interval_ms = 100;
    if (const char* s = std::getenv("COLOP_LIVE_INTERVAL_MS")) {
      const double v = std::strtod(s, nullptr);
      if (v > 0) interval_ms = v;
    }
  }
  interval_ms_ = interval_ms;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void LiveSampler::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void LiveSampler::run() {
  const auto tick = std::chrono::duration<double, std::milli>(interval_ms_);
  while (!stop_.load(std::memory_order_acquire)) {
    sample_once();
    // Sleep in small slices so stop() is prompt even at long intervals.
    auto remaining = tick;
    const auto slice = std::chrono::milliseconds(20);
    while (remaining.count() > 0 && !stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(
          std::min<std::chrono::duration<double, std::milli>>(remaining, slice));
      remaining -= slice;
    }
  }
  sample_once();  // final fold so end-of-run state is never missed
}

void LiveSampler::sample_once() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Attached& launch : attached_) fold(launch);
  registry_.counter("colop_live_samples_total", "Sampler ticks").inc();
  refresh_snapshot();
}

void LiveSampler::refresh_snapshot() {
  obs::LiveSnapshot s;
  s.trace_id = run_.info.trace_id;
  s.program = run_.info.program;
  s.repeat = run_.repeat;
  s.repeats = run_.info.repeats;
  s.events_total = events_;
  s.dropped_total = dropped_;

  const std::uint64_t now = steady_now_ns();
  const auto age_ms = [now](std::uint64_t t) {
    return static_cast<double>(now > t ? now - t : 0) / 1e6;
  };
  const std::uint64_t end = run_.active ? now : run_.ended_ns;
  s.elapsed_ms = run_.started_ns > 0 && end > run_.started_ns
                     ? static_cast<double>(end - run_.started_ns) / 1e6
                     : 0;
  bool any_stalled = false;
  std::uint64_t done = 0;
  for (std::size_t r = 0; r < agg_.size(); ++r) {
    const RankAgg& a = agg_[r];
    obs::LiveRankRow row;
    row.rank = static_cast<int>(r);
    row.stage = a.stage;
    if (a.stage >= 0 &&
        static_cast<std::size_t>(a.stage) < run_.info.stage_labels.size())
      row.stage_label = run_.info.stage_labels[static_cast<std::size_t>(a.stage)];
    row.stages_done = a.stages_done;
    row.comm_ms = static_cast<double>(a.comm_ns) / 1e6;
    row.idle_ms = static_cast<double>(a.idle_ns) / 1e6;
    row.busy_ms = std::max(0.0, s.elapsed_ms - row.comm_ms - row.idle_ms);
    row.queue_depth = a.queue_depth;
    row.sends = a.sends;
    row.send_bytes = a.send_bytes;
    if (a.last_event_ns > 0) row.last_event_ms = age_ms(a.last_event_ns);
    row.stalled = a.stalled;
    any_stalled |= a.stalled;
    done += a.stages_done;
    s.ranks.push_back(std::move(row));
  }
  s.stages_done = done;
  const auto stages =
      static_cast<std::uint64_t>(run_.info.stage_labels.size());
  s.stages_total =
      stages * static_cast<std::uint64_t>(std::max(run_.info.repeats, 1)) *
      static_cast<std::uint64_t>(std::max(run_.info.ranks, 1));
  if (last_event_ns_ > 0) s.heartbeat_ms = age_ms(last_event_ns_);
  if (run_.active && done > 0 && s.stages_total > done)
    s.eta_ms = s.elapsed_ms * static_cast<double>(s.stages_total - done) /
               static_cast<double>(done);

  if (run_.active)
    s.state = any_stalled ? "stalled" : "running";
  else
    s.state = run_.seq > 0 ? "done" : "idle";

  // Gauges that describe "now" rather than accumulate.
  registry_.gauge("colop_live_running", "1 while a run executes")
      .set(run_.active ? 1 : 0);
  registry_.gauge("colop_live_stalled", "1 while the watchdog flags a stall")
      .set(any_stalled ? 1 : 0);
  registry_
      .gauge("colop_live_progress_stages_done",
             "Per-rank stage executions completed this run")
      .set(static_cast<double>(done));
  registry_
      .gauge("colop_live_progress_stages", "Planned stage executions this run")
      .set(static_cast<double>(s.stages_total));
  registry_.gauge("colop_live_progress_repeat", "Current repeat (0-based)")
      .set(run_.repeat);
  for (const obs::LiveRankRow& row : s.ranks) {
    const obs::LabelSet rank_label{{"rank", std::to_string(row.rank)}};
    registry_
        .gauge("colop_live_queue_depth", "Messages queued in the rank's mailbox",
               rank_label)
        .set(static_cast<double>(row.queue_depth));
    if (row.last_event_ms >= 0)
      registry_
          .gauge("colop_live_rank_last_event_age_seconds",
                 "Age of the rank's newest flight-recorder record", rank_label)
          .set(row.last_event_ms / 1e3);
    registry_
        .gauge("colop_live_rank_stalled", "1 while the rank is flagged stalled",
               rank_label)
        .set(row.stalled ? 1 : 0);
  }
  publish(std::move(s), run_.active);
}

}  // namespace colop::rt
