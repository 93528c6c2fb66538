#pragma once
// Chrome trace-event export: turn any obs event list into a JSON file
// loadable in chrome://tracing or https://ui.perfetto.dev.
//
// The exporter emits the stable subset of the trace-event format:
//   B/E  span begin/end        (obs::Phase::begin / end)
//   X    complete span + dur   (obs::Phase::complete)
//   i    instant               (obs::Phase::instant)
//   C    counter               (obs::Phase::counter)
// plus process/thread-name metadata ("M") so ranks show up as named rows.
// Timestamps pass through unscaled: wall-clock sources already record
// microseconds (Chrome's native unit); simulated sources record op units,
// which Perfetto renders proportionally — only relative lengths matter.

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "colop/obs/event.h"

namespace colop::obs {

/// Write `events` as one complete Chrome trace-event JSON document.
/// `process_name` labels every process row (override individual pids via
/// `pid_names`); `tid_prefix` names each thread row ("P0", "P1", ... by
/// default), and every thread gets a `thread_sort_index` so ranks order
/// numerically in Perfetto.
void write_chrome_trace(const std::vector<Event>& events, std::ostream& os,
                        const std::string& process_name = "colop",
                        const std::string& tid_prefix = "P",
                        const std::map<int, std::string>& pid_names = {});

}  // namespace colop::obs
