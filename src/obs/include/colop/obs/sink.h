#pragma once
// Event sinks: where a producer that is handed a Sink puts its events.
// simnet's per-machine trace (SimMachine::set_trace_sink) and the
// critical-path profiler record into a MemorySink.  The thread runtime is
// not traced through sinks: its record stream is the rt flight recorder
// (colopt --rt-trace).

#include <cstddef>
#include <mutex>
#include <vector>

#include "colop/obs/event.h"

namespace colop::obs {

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void record(const Event& event) = 0;
};

/// Unbounded in-memory sink; events() snapshots under the lock.
class MemorySink : public Sink {
 public:
  void record(const Event& event) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(event);
  }
  [[nodiscard]] std::vector<Event> events() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
  }
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

}  // namespace colop::obs
