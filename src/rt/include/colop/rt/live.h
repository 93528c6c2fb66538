#pragma once
// Live in-flight telemetry for the thread runtime: LiveSampler reads the
// flight recorders of the SPMD launches in flight and folds them into
// colop_live_* instruments of an obs::Registry and into the LiveSnapshot
// the stats server streams (/live, /live.json), so both move mid-run.
//
// There is no second event stream.  While a live run is active
// (begin_run .. end_run), every SPMD launch attaches its group's rt::Fleet
// for the length of the launch (LiveLaunch; one relaxed load per launch
// when no run is active).  Each tick the sampler reads the attached
// fleets: message and stage counts from RankStats, as deltas of monotone
// counters, so they are exact; record counts, stage latencies and each
// rank's busy and waits from the records logged since the previous tick,
// folded per rank by rt::WaitFold, as --rt-report's are.  Detaching
// folds the launch's final state under the sampler's lock, before
// Group::make can reset the group for reuse, so a launch shorter than one
// sampling interval is still counted exactly once.
//
// One live run per process: beginning a run ends the one in progress.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "colop/obs/live.h"
#include "colop/rt/flight_recorder.h"

namespace colop::obs {
class Histogram;
class Registry;
}  // namespace colop::obs

namespace colop::rt {

/// Descriptor handed to the sampler when a run starts; drives progress and
/// ETA.
struct LiveRunInfo {
  std::string trace_id;
  std::string program;                    ///< optimized schedule, one line
  std::vector<std::string> stage_labels;  ///< per-stage display names
  int ranks = 0;
  int repeats = 1;  ///< planned executions (colopt --repeat)
};

class LiveSampler : public obs::LiveView {
 public:
  explicit LiveSampler(obs::Registry& registry);
  ~LiveSampler();
  LiveSampler(const LiveSampler&) = delete;
  LiveSampler& operator=(const LiveSampler&) = delete;

  // --- run lifecycle (driver thread) -------------------------------------
  /// Start a run: reset the per-run aggregates and make this the sampler
  /// every SPMD launch attaches to until end_run().
  void begin_run(LiveRunInfo info);
  void note_repeat(int repeat);  ///< 0-based iteration about to execute
  /// Fold and let go of the launches still attached; idempotent.
  void end_run();

  /// The run descriptor and lifecycle generation: `seq` bumps on every
  /// begin/end edge.  Times are steady-clock ns.
  struct RunState {
    std::uint64_t seq = 0;
    bool active = false;
    int repeat = 0;
    std::uint64_t started_ns = 0;
    std::uint64_t ended_ns = 0;
    LiveRunInfo info;
  };
  [[nodiscard]] RunState run_state() const;

  // --- sampling ------------------------------------------------------------
  /// Start the sampling thread.  interval_ms <= 0 reads
  /// COLOP_LIVE_INTERVAL_MS, defaulting to 100.
  void start(double interval_ms = 0);
  void stop();  ///< idempotent; joins the thread

  /// Fold the attached fleets and refresh the snapshot now.  Also what the
  /// thread calls each tick; safe without start().
  void sample_once();

  [[nodiscard]] double interval_ms() const noexcept { return interval_ms_; }

 private:
  friend class LiveLaunch;
  struct Seen;
  struct Attached;
  struct RankAgg;

  static bool attach(Fleet& fleet);
  static void detach(Fleet& fleet);
  void end_run_locked();
  void fold(Attached& launch);
  void refresh_snapshot();
  RankAgg& rank_agg(int rank);
  obs::Histogram& stage_seconds(std::uint16_t stage);
  void run();

  obs::Registry& registry_;
  double interval_ms_ = 100;

  // Guarded by mutex_.
  mutable std::mutex mutex_;
  RunState run_;
  std::vector<Attached> attached_;
  std::vector<RankAgg> agg_;
  std::uint64_t events_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<obs::Histogram*> stage_seconds_;  ///< by stage index
  std::vector<Record> records_;                 ///< fold() scratch

  std::atomic<bool> stop_{false};
  std::thread thread_;  ///< last: it uses every member above
};

/// Attaches one SPMD launch's fleet to the live run in progress, if any,
/// for the guard's lifetime.  A disabled fleet is never attached.
class LiveLaunch {
 public:
  explicit LiveLaunch(Fleet& fleet)
      : fleet_(LiveSampler::attach(fleet) ? &fleet : nullptr) {}
  ~LiveLaunch() {
    if (fleet_ != nullptr) LiveSampler::detach(*fleet_);
  }
  LiveLaunch(const LiveLaunch&) = delete;
  LiveLaunch& operator=(const LiveLaunch&) = delete;

 private:
  Fleet* fleet_;
};

}  // namespace colop::rt
