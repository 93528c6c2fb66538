#pragma once
// colop::rt — always-on wall-clock telemetry for the thread executor.
//
// The simnet side of the system is richly observed (obs::profile, drift,
// calibration), but those all run in SIMULATED time.  This subsystem
// watches the real thing: one lock-free SPSC flight recorder per rank, a
// fixed-capacity ring of fixed-size binary records (stage boundaries,
// mailbox send/recv, barrier enter/exit, data plane, bytes moved), each
// stamped with steady_clock nanoseconds.  The producer is the rank's own
// thread; consumers (the stall watchdog, post-mortem dumps, rt reports,
// the live sampler) only ever read — so the hot path is five relaxed
// stores, a release fence and one release store of the head index: no
// lock, no allocation, no syscall.
//
// Concurrency contract (ThreadSanitizer-clean by construction):
//   * every ring word is a std::atomic<uint64_t> written relaxed by the
//     producer and read relaxed by consumers — torn reads are impossible
//     and there is no data race to report;
//   * the producer claims a sequence (claimed_, then a release fence)
//     before overwriting its slot and publishes it with a release store
//     of head_; a consumer acquires head_, copies the window, and after
//     an acquire fence reads claimed_ to discard any record the producer
//     may have started to overwrite meanwhile (drain(), snapshot()).
//
// Disable at runtime with COLOP_RT=0: no ring is ever allocated, and every
// call site folds to nothing behind `if (recorder == nullptr)`.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace colop::rt {

/// Runtime configuration, loaded once from the environment:
///   COLOP_RT=0            disable recording (default: enabled)
///   COLOP_RT_RING=N       ring capacity in records per rank (default 2048)
///   COLOP_RT_WATCHDOG_MS=X  stall deadline in milliseconds (default 0 = off)
///   COLOP_RT_DUMP=PATH    post-mortem file prefix (default: text to stderr)
struct Config {
  bool enabled = true;
  std::size_t ring_capacity = 2048;
  double watchdog_ms = 0;
  double watchdog_poll_ms = 0;  ///< 0 = deadline/4 clamped to [1, 50]
  std::string dump_path;
};

/// The process-wide config (env-initialized).  Mutable on purpose: tests
/// and tools adjust it before creating process groups; changes do not
/// affect fleets already constructed.
[[nodiscard]] Config& mutable_config();
[[nodiscard]] inline const Config& config() { return mutable_config(); }

/// What happened.  Values are stable on the wire (post-mortems print them
/// and the report exporter maps them to Chrome phases).
enum class Ev : std::uint8_t {
  none = 0,
  stage_begin,    ///< executor entered stage `stage`
  stage_end,      ///< executor left stage `stage`
  send,           ///< mailbox send: peer = dest, bytes, aux = tag
  recv_begin,     ///< blocking receive posted: peer = source, aux = tag
  recv_end,       ///< receive matched: peer = source, bytes, aux = tag
  barrier_begin,  ///< entered group barrier
  barrier_end,    ///< left group barrier
  plane,          ///< data plane chosen: aux = 1 packed, 0 boxed
  mark,           ///< free-form marker (post-mortem context), aux = code
};

[[nodiscard]] const char* ev_name(Ev kind);

/// One decoded flight-recorder record (32 bytes packed in the ring).
struct Record {
  std::uint64_t seq = 0;    ///< global per-rank sequence number
  std::uint64_t t_ns = 0;   ///< steady_clock ns since the fleet epoch
  Ev kind = Ev::none;
  std::uint16_t stage = kNoStage;  ///< executor stage index, kNoStage if n/a
  std::int32_t peer = -1;   ///< partner rank, -1 if n/a
  std::uint64_t bytes = 0;
  std::uint64_t aux = 0;

  static constexpr std::uint16_t kNoStage = 0xffff;
};

/// Per-rank counters updated with relaxed atomics on the hot path and read
/// by the watchdog/report side.  sends/send_bytes are counted on every
/// send, telemetry on or off (they are mpsim's traffic counters); the rest
/// only while the fleet is enabled.  Cache-line aligned per rank.
struct alignas(64) RankStats {
  std::atomic<std::uint64_t> sends{0};
  std::atomic<std::uint64_t> send_bytes{0};
  std::atomic<std::uint64_t> recvs{0};
  std::atomic<std::uint64_t> recv_wait_ns{0};     ///< time blocked in recv
  std::atomic<std::uint64_t> barriers{0};
  std::atomic<std::uint64_t> barrier_wait_ns{0};  ///< time inside barrier
  // Inbound queue accounting (this rank's mailbox).
  std::atomic<std::uint64_t> queue_depth{0};      ///< current queued messages
  std::atomic<std::uint64_t> queue_depth_max{0};
  std::atomic<std::uint64_t> queue_depth_sum{0};  ///< Σ depth after each put
  std::atomic<std::uint64_t> queued_total{0};     ///< messages ever enqueued
  std::atomic<std::uint64_t> queue_bytes{0};      ///< bytes in flight now
  std::atomic<std::uint64_t> queue_bytes_max{0};
  // Liveness, read by the watchdog.
  std::atomic<std::uint64_t> last_event_ns{0};
  std::atomic<std::uint8_t> blocked{0};  ///< 1 while waiting in recv/barrier
  std::atomic<std::uint8_t> done{0};     ///< rank body returned
  std::atomic<std::uint8_t> stalled{0};  ///< the watchdog's stall verdict
  // Executor progress, read by the watchdog and the live sampler.
  std::atomic<std::uint16_t> stage{Record::kNoStage};  ///< stage running now
  std::atomic<std::uint64_t> stages_done{0};
};

/// Plain-value snapshot of RankStats.
struct RankStatsSnapshot {
  std::uint64_t sends = 0, send_bytes = 0;
  std::uint64_t recvs = 0, recv_wait_ns = 0;
  std::uint64_t barriers = 0, barrier_wait_ns = 0;
  std::uint64_t queue_depth = 0, queue_depth_max = 0;
  std::uint64_t queue_depth_sum = 0, queued_total = 0;
  std::uint64_t queue_bytes = 0, queue_bytes_max = 0;
  std::uint64_t last_event_ns = 0;
  bool blocked = false, done = false;

  [[nodiscard]] double queue_depth_mean() const {
    return queued_total == 0
               ? 0
               : static_cast<double>(queue_depth_sum) /
                     static_cast<double>(queued_total);
  }
};

/// Lock-free SPSC ring of Records.  The owning rank thread calls log();
/// any other thread may call head()/snapshot() concurrently.
class Recorder {
 public:
  /// `capacity` is rounded up to a power of two; >= 16.
  Recorder(std::size_t capacity, const std::chrono::steady_clock::time_point epoch)
      : epoch_(epoch) {
    std::size_t cap = 16;
    while (cap < capacity) cap <<= 1;
    cap_ = cap;
    // Uninitialized on purpose: consumers only ever read slots below head_,
    // all of which the producer stored first.  Zeroing the ring up front
    // (value-init) costs more than a whole small SPMD run.
    words_ =
        std::make_unique_for_overwrite<std::atomic<std::uint64_t>[]>(cap *
                                                                     kWords);
  }

  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Producer only.  Zero allocation; relaxed stores + release head.
  void log(Ev kind, std::int32_t peer = -1, std::uint64_t bytes = 0,
           std::uint64_t aux = 0) noexcept {
    const std::uint64_t t = now_ns();
    const std::uint64_t seq = head_.load(std::memory_order_relaxed);
    // A consumer that sees any word of this record also sees the claim,
    // so it knows the record this slot held (seq - cap) is torn.
    claimed_.store(seq + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    std::atomic<std::uint64_t>* w = &words_[(seq & (cap_ - 1)) * kWords];
    w[0].store(t, std::memory_order_relaxed);
    w[1].store(pack(kind, stage_, peer), std::memory_order_relaxed);
    w[2].store(bytes, std::memory_order_relaxed);
    w[3].store(aux, std::memory_order_relaxed);
    head_.store(seq + 1, std::memory_order_release);
    if (stats_ != nullptr)
      stats_->last_event_ns.store(t, std::memory_order_relaxed);
  }

  /// Producer only: stage index stamped into subsequent records.
  void set_stage(std::uint16_t stage) noexcept { stage_ = stage; }

  /// Total records ever logged (including overwritten ones).  Any thread.
  [[nodiscard]] std::uint64_t head() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  /// Consistent copy of the retained window, oldest first.  Records the
  /// producer overwrote while we copied are discarded, so every returned
  /// record is intact.  Any thread.
  [[nodiscard]] std::vector<Record> snapshot() const;

  /// As snapshot(), but only the records logged since `cursor`, appended
  /// to `out`; advances `cursor` to the head.  Returns how many of those
  /// records the producer had overwritten before they could be copied.
  std::uint64_t drain(std::uint64_t& cursor, std::vector<Record>& out) const;

  void set_stats(RankStats* stats) noexcept { stats_ = stats; }

  /// Forget every record and restart the clock at `epoch`, keeping the
  /// ring.  Only while no producer or consumer is attached.
  void reset(std::chrono::steady_clock::time_point epoch) noexcept {
    epoch_ = epoch;
    head_.store(0, std::memory_order_relaxed);
    claimed_.store(0, std::memory_order_relaxed);
    stage_ = Record::kNoStage;
  }

 private:
  static constexpr std::size_t kWords = 4;

  static std::uint64_t pack(Ev kind, std::uint16_t stage,
                            std::int32_t peer) noexcept {
    return static_cast<std::uint64_t>(static_cast<std::uint8_t>(kind)) |
           (static_cast<std::uint64_t>(stage) << 8) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer)) << 32);
  }

  std::chrono::steady_clock::time_point epoch_;
  std::size_t cap_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
  std::atomic<std::uint64_t> head_{0};     ///< one past the newest record
  std::atomic<std::uint64_t> claimed_{0};  ///< head_, or head_ + 1 mid-log()
  std::uint16_t stage_ = Record::kNoStage;  // producer-thread private
  RankStats* stats_ = nullptr;
};

/// One rank's decoded state as captured by Fleet::snapshot().
struct RankSnapshot {
  int rank = 0;
  std::vector<Record> records;   ///< retained window, oldest first
  std::uint64_t logged = 0;      ///< total records ever logged
  std::uint64_t dropped = 0;     ///< logged - retained
  RankStatsSnapshot stats;
};

/// Everything a consumer needs, detached from the live group.
struct FleetSnapshot {
  bool enabled = false;
  int ranks = 0;
  std::vector<RankSnapshot> per_rank;
  std::vector<std::string> stage_labels;  ///< executor program, if known

  [[nodiscard]] std::string stage_label(std::uint16_t stage) const {
    if (stage == Record::kNoStage || stage >= stage_labels.size())
      return stage == Record::kNoStage ? std::string()
                                       : "stage#" + std::to_string(stage);
    return stage_labels[stage];
  }
};

/// The per-group bundle of recorders + stats, one slot per rank.  Created
/// by mpsim::Group; when disabled (runtime or compile time) no ring is
/// allocated and recorder() returns nullptr everywhere, which is the
/// single branch every instrumentation site keys on.  The stats slots are
/// allocated either way: sends/send_bytes count every message.
class Fleet {
 public:
  Fleet(int ranks, const Config& cfg);

  [[nodiscard]] bool enabled() const noexcept { return !recorders_.empty(); }
  [[nodiscard]] int ranks() const noexcept { return ranks_; }

  /// True when a fleet built now from `cfg` would look like this one
  /// (same enablement, same ring capacity), so reset() can stand in for
  /// constructing it afresh.
  [[nodiscard]] bool built_from(const Config& cfg) const noexcept;

  /// Return to the state of a freshly constructed fleet — new epoch, empty
  /// recorders, zeroed stats, no stage labels — without reallocating the
  /// rings.  Only between runs: no rank, watchdog or dump may be attached.
  void reset();

  /// nullptr when telemetry is disabled.
  [[nodiscard]] Recorder* recorder(int rank) noexcept {
    if (recorders_.empty()) return nullptr;
    return recorders_[shard(rank)].get();
  }
  /// Never null: the slots exist even when telemetry is disabled, because
  /// every send is counted in them (mpsim's traffic counters).  Ranks
  /// outside [0, ranks()) share slot 0.
  [[nodiscard]] RankStats* stats(int rank) noexcept {
    return &stats_[shard(rank)];
  }

  /// Stage labels for post-mortems/reports.  Call before the rank threads
  /// start (the executor does); not synchronized against live dumps.
  void set_stage_labels(std::vector<std::string> labels) {
    stage_labels_ = std::move(labels);
  }
  [[nodiscard]] const std::vector<std::string>& stage_labels() const noexcept {
    return stage_labels_;
  }

  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const noexcept {
    return epoch_;
  }
  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  [[nodiscard]] FleetSnapshot snapshot() const;

 private:
  [[nodiscard]] std::size_t shard(int rank) const noexcept {
    return rank > 0 && rank < ranks_ ? static_cast<std::size_t>(rank) : 0;
  }

  int ranks_ = 0;
  bool built_enabled_ = false;      ///< Config::enabled at construction
  std::size_t built_capacity_ = 0;  ///< Config::ring_capacity at construction
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<Recorder>> recorders_;  ///< empty when disabled
  std::vector<RankStats> stats_;                      ///< one per rank, always
  std::vector<std::string> stage_labels_;
};

}  // namespace colop::rt
