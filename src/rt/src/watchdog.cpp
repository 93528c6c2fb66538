#include "colop/rt/watchdog.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <tuple>

#include "colop/obs/chrome_trace.h"

namespace colop::rt {

WatchdogOptions watchdog_options_from_config(const Config& cfg) {
  WatchdogOptions opts;
  opts.deadline_ms = cfg.watchdog_ms;
  opts.poll_ms = cfg.watchdog_poll_ms;
  opts.dump_path = cfg.dump_path;
  return opts;
}

Watchdog::Watchdog(const Fleet& fleet, WatchdogOptions options,
                   std::function<void()> abort_fn)
    : fleet_(fleet), options_(std::move(options)), abort_fn_(std::move(abort_fn)) {
  if (options_.poll_ms <= 0)
    options_.poll_ms = std::clamp(options_.deadline_ms / 4, 1.0, 50.0);
  if (fleet_.enabled() && options_.deadline_ms > 0)
    thread_ = std::thread([this] { run(); });
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

std::string Watchdog::describe() const {
  if (!stalled()) return {};
  std::ostringstream os;
  os << "rt watchdog: stall detected — ";
  for (std::size_t i = 0; i < stalls_.size(); ++i) {
    const StallInfo& s = stalls_[i];
    if (i > 0) os << ", ";
    os << "rank " << s.rank << " idle "
       << static_cast<double>(s.idle_ns) / 1e6 << " ms"
       << (s.blocked ? " (blocked)" : "");
    if (!s.stage.empty()) os << " in " << s.stage;
  }
  return os.str();
}

void Watchdog::run() {
  const int n = fleet_.ranks();
  std::vector<std::uint64_t> last_head(static_cast<std::size_t>(n), 0);
  // A Fleet used by const reference: heads/stats are atomics, reading them
  // from this thread is the designed consumer side of the SPSC contract.
  Fleet& fleet = const_cast<Fleet&>(fleet_);
  const auto deadline_ns =
      static_cast<std::uint64_t>(options_.deadline_ms * 1e6);
  const auto poll = std::chrono::duration<double, std::milli>(options_.poll_ms);

  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(poll);
    if (stop_.load(std::memory_order_acquire)) return;

    const std::uint64_t now = fleet.now_ns();
    std::vector<StallInfo> stalls;
    for (int r = 0; r < n; ++r) {
      Recorder* rec = fleet.recorder(r);
      if (rec == nullptr) return;
      RankStats* st = fleet.stats(r);
      if (st->done.load(std::memory_order_relaxed) != 0) continue;
      const std::uint64_t head = rec->head();
      const bool progressed = head != last_head[static_cast<std::size_t>(r)];
      last_head[static_cast<std::size_t>(r)] = head;
      if (progressed) continue;
      const std::uint64_t last = st->last_event_ns.load(std::memory_order_relaxed);
      const std::uint64_t idle = now > last ? now - last : 0;
      if (idle < deadline_ns) continue;
      StallInfo info;
      info.rank = r;
      info.idle_ns = idle;
      info.last_event_ns = last;
      info.blocked = st->blocked.load(std::memory_order_relaxed) != 0;
      const std::uint16_t stage = st->stage.load(std::memory_order_relaxed);
      const auto& labels = fleet.stage_labels();
      if (stage != Record::kNoStage && stage < labels.size())
        info.stage = labels[stage];
      stalls.push_back(std::move(info));
    }
    if (stalls.empty()) continue;

    stalls_ = std::move(stalls);
    stalled_.store(true, std::memory_order_release);
    for (const StallInfo& s : stalls_)
      fleet.stats(s.rank)->stalled.store(1, std::memory_order_relaxed);
    std::ostringstream reason;
    reason << describe() << " (deadline " << options_.deadline_ms << " ms)";
    dump_post_mortem(fleet_, reason.str(), options_.dump_path);
    if (options_.on_stall) options_.on_stall(stalls_);
    if (options_.abort_on_stall && abort_fn_) abort_fn_();
    return;  // one post-mortem per run is enough
  }
}

// --- post-mortem ----------------------------------------------------------

std::vector<obs::Event> snapshot_events(const FleetSnapshot& snap) {
  std::vector<obs::Event> events;
  // Flow ids: the k-th send on (src, dst, tag) pairs with the k-th recv_end
  // on the same key.  FIFO per key is the mailbox's delivery guarantee.
  std::map<std::tuple<int, int, std::uint64_t>, std::uint64_t> send_seq, recv_seq;
  std::uint64_t next_id = 1;
  std::map<std::tuple<int, int, std::uint64_t, std::uint64_t>, std::uint64_t> flow_ids;
  auto flow_id = [&](int src, int dst, std::uint64_t tag, std::uint64_t k) {
    auto [it, fresh] = flow_ids.try_emplace({src, dst, tag, k}, next_id);
    if (fresh) ++next_id;
    return it->second;
  };

  for (const RankSnapshot& rs : snap.per_rank) {
    for (const Record& r : rs.records) {
      obs::Event ev;
      ev.cat = "rt";
      ev.ts = static_cast<double>(r.t_ns) / 1e3;  // ns -> us
      ev.tid = rs.rank;
      switch (r.kind) {
        case Ev::stage_begin:
        case Ev::stage_end:
          ev.phase = r.kind == Ev::stage_begin ? obs::Phase::begin
                                               : obs::Phase::end;
          ev.name = snap.stage_label(r.stage);
          if (ev.name.empty()) ev.name = "stage";
          break;
        case Ev::send: {
          ev.phase = obs::Phase::instant;
          ev.name = "send";
          ev.value = static_cast<double>(r.bytes);
          ev.args.emplace_back("dest", std::to_string(r.peer));
          ev.args.emplace_back("bytes", std::to_string(r.bytes));
          const std::uint64_t k = send_seq[{rs.rank, r.peer, r.aux}]++;
          obs::Event flow = ev;
          flow.phase = obs::Phase::flow_start;
          flow.name = "msg";
          flow.args.clear();
          flow.id = flow_id(rs.rank, r.peer, r.aux, k);
          events.push_back(flow);
          break;
        }
        case Ev::recv_begin:
          ev.phase = obs::Phase::begin;
          ev.name = "recv";
          ev.args.emplace_back("source", std::to_string(r.peer));
          break;
        case Ev::recv_end: {
          ev.phase = obs::Phase::end;
          ev.name = "recv";
          const std::uint64_t k = recv_seq[{r.peer, rs.rank, r.aux}]++;
          obs::Event flow;
          flow.cat = "rt";
          flow.ts = ev.ts;
          flow.tid = rs.rank;
          flow.phase = obs::Phase::flow_end;
          flow.name = "msg";
          flow.id = flow_id(r.peer, rs.rank, r.aux, k);
          events.push_back(flow);
          break;
        }
        case Ev::barrier_begin:
          ev.phase = obs::Phase::begin;
          ev.name = "barrier";
          break;
        case Ev::barrier_end:
          ev.phase = obs::Phase::end;
          ev.name = "barrier";
          break;
        case Ev::plane:
          ev.phase = obs::Phase::instant;
          ev.name = r.aux != 0 ? "plane:packed" : "plane:boxed";
          break;
        case Ev::mark:
          ev.phase = obs::Phase::instant;
          ev.name = "mark";
          ev.value = static_cast<double>(r.aux);
          break;
        case Ev::none:
          continue;
      }
      events.push_back(std::move(ev));
    }
  }
  return events;
}

void write_post_mortem_text(const FleetSnapshot& snap, std::ostream& os,
                            const std::string& reason, std::size_t tail) {
  os << "=== colop rt post-mortem ===\n";
  if (!reason.empty()) os << "reason  : " << reason << "\n";
  os << "ranks   : " << snap.ranks << "\n";
  for (const RankSnapshot& rs : snap.per_rank) {
    const RankStatsSnapshot& st = rs.stats;
    os << "-- rank " << rs.rank << (st.done ? " [done]" : "")
       << (st.blocked ? " [blocked]" : "") << " events=" << rs.logged
       << " dropped=" << rs.dropped << " sends=" << st.sends
       << " recvs=" << st.recvs
       << " recv_wait_ms=" << static_cast<double>(st.recv_wait_ns) / 1e6
       << " barrier_wait_ms=" << static_cast<double>(st.barrier_wait_ns) / 1e6
       << " qdepth_max=" << st.queue_depth_max << "\n";
    const std::size_t n = rs.records.size();
    const std::size_t from = n > tail ? n - tail : 0;
    for (std::size_t i = from; i < n; ++i) {
      const Record& r = rs.records[i];
      char line[160];
      std::snprintf(line, sizeof line, "   %12.3f ms  %-13s",
                    static_cast<double>(r.t_ns) / 1e6, ev_name(r.kind));
      os << line;
      const std::string stage = snap.stage_label(r.stage);
      if (!stage.empty()) os << " stage=" << stage;
      if (r.peer >= 0) os << " peer=" << r.peer;
      if (r.bytes > 0) os << " bytes=" << r.bytes;
      if (r.kind == Ev::send || r.kind == Ev::recv_begin ||
          r.kind == Ev::recv_end)
        os << " tag=" << r.aux;
      if (r.kind == Ev::plane) os << (r.aux != 0 ? " packed" : " boxed");
      os << "\n";
    }
  }
  os << "=== end post-mortem ===\n";
}

std::string dump_post_mortem(const Fleet& fleet, const std::string& reason,
                             const std::string& path) {
  const FleetSnapshot snap = fleet.snapshot();
  std::ostringstream text;
  write_post_mortem_text(snap, text, reason);
  std::cerr << text.str();
  if (!path.empty()) {
    std::ofstream txt(path + ".txt");
    if (txt) txt << text.str();
    std::ofstream trace(path + ".trace.json");
    if (trace)
      obs::write_chrome_trace(snapshot_events(snap), trace, "colop rt post-mortem");
  }
  return text.str();
}

}  // namespace colop::rt
