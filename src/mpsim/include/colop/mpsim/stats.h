#pragma once
// Traffic counters of one SPMD launch.  Used by tests and benchmarks to
// demonstrate the communication savings of the optimization rules (the
// rules trade messages for local arithmetic, so message/byte counts are the
// direct observable).
//
// Every send is counted once, in the sending rank's rt::RankStats slot of
// the group's fleet (Comm::send_raw), whether or not telemetry records it;
// Group::traffic() sums those slots into this value type.

#include <cstdint>

namespace colop::mpsim {

/// A snapshot of traffic counters.
struct TrafficCounters {
  std::uint64_t messages = 0;  ///< point-to-point messages sent
  std::uint64_t bytes = 0;     ///< accounted payload bytes sent

  friend TrafficCounters operator-(TrafficCounters a, TrafficCounters b) {
    return {a.messages - b.messages, a.bytes - b.bytes};
  }
  friend TrafficCounters operator+(TrafficCounters a, TrafficCounters b) {
    return {a.messages + b.messages, a.bytes + b.bytes};
  }
  friend bool operator==(const TrafficCounters&, const TrafficCounters&) = default;
};

}  // namespace colop::mpsim
