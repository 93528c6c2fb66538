#include "colop/rt/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <ostream>
#include <sstream>

#include "colop/obs/html.h"
#include "colop/obs/json.h"
#include "colop/obs/metrics.h"
#include "colop/obs/trace_context.h"
#include "colop/rt/op_stream.h"

namespace colop::rt {
namespace {

constexpr double kNsPerMs = 1e6;

using obs::html::fixed;

}  // namespace

RepeatStats RepeatStats::of(std::vector<double> samples_ms, int warmups) {
  RepeatStats st;
  st.warmups = warmups;
  if (samples_ms.empty()) return st;
  st.repeats = static_cast<int>(samples_ms.size());
  std::sort(samples_ms.begin(), samples_ms.end());
  st.min_ms = samples_ms.front();
  const std::size_t n = samples_ms.size();
  st.median_ms = n % 2 == 1 ? samples_ms[n / 2]
                            : (samples_ms[n / 2 - 1] + samples_ms[n / 2]) / 2;
  st.mean_ms = std::accumulate(samples_ms.begin(), samples_ms.end(), 0.0) /
               static_cast<double>(n);
  double var = 0;
  for (double s : samples_ms) var += (s - st.mean_ms) * (s - st.mean_ms);
  st.stddev_ms = n > 1 ? std::sqrt(var / static_cast<double>(n - 1)) : 0;
  return st;
}

RtReport build_report(const FleetSnapshot& snap, const RtReportOptions& opts) {
  RtReport rep;
  rep.procs = snap.ranks;
  rep.used_packed = opts.used_packed;
  rep.wall_ms = opts.wall_seconds * 1e3;
  rep.pack_ms = opts.pack_seconds * 1e3;
  rep.unpack_ms = opts.unpack_seconds * 1e3;
  rep.timing = opts.timing;
  rep.profile = profile_snapshot(snap);
  obs::Profile& prof = rep.profile;
  for (obs::StageProfile& sp : prof.stages) {
    const auto i = static_cast<std::size_t>(sp.index);
    if (i < opts.model_stage_times.size())
      sp.model_time = opts.model_stage_times[i];
    if (i < opts.provenance.size()) sp.rule = opts.provenance[i];
  }

  // --- per rank: counts, waits from the records, busy from the profile ---
  for (const RankSnapshot& rs : snap.per_rank) {
    RankReport rr;
    rr.rank = rs.rank;
    rr.events = rs.logged;
    rr.dropped = rs.dropped;
    rep.dropped_total += rs.dropped;
    rr.sends = rs.stats.sends;
    rr.send_bytes = rs.stats.send_bytes;
    rr.recvs = rs.stats.recvs;
    rr.recv_wait_ms = static_cast<double>(rs.stats.recv_wait_ns) / kNsPerMs;
    rr.barrier_wait_ms =
        static_cast<double>(rs.stats.barrier_wait_ns) / kNsPerMs;
    rr.queue_depth_max = rs.stats.queue_depth_max;
    rr.queue_depth_mean = rs.stats.queue_depth_mean();
    rr.queue_bytes_max = rs.stats.queue_bytes_max;
    if (rs.rank >= 0 && rs.rank < prof.procs)
      rr.busy_ms = prof.ranks[static_cast<std::size_t>(rs.rank)].busy / kNsPerMs;
    rep.ranks.push_back(rr);
  }

  // --- per stage: each rank's time in the stage, summed from its ops -------
  const std::size_t nstages = prof.stages.size();
  const auto procs = static_cast<std::size_t>(std::max(0, prof.procs));
  std::vector<std::vector<double>> in_stage(nstages,
                                            std::vector<double>(procs, -1));
  for (const obs::Op& op : prof.ops) {
    const auto i = static_cast<std::size_t>(op.stage);
    const auto r = static_cast<std::size_t>(op.rank);
    if (op.stage < 0 || i >= nstages || r >= procs) continue;
    in_stage[i][r] = std::max(in_stage[i][r], 0.0) + (op.end - op.start);
  }
  double wall_total = 0, model_total = 0;
  for (std::size_t i = 0; i < nstages; ++i) {
    StageReport sr;
    sr.index = static_cast<int>(i);
    sr.label = prof.stages[i].label;
    sr.model_time = prof.stages[i].model_time;
    for (const double ns : in_stage[i]) {
      if (ns < 0) continue;
      sr.wall_ms = std::max(sr.wall_ms, ns / kNsPerMs);
      sr.wall_mean_ms += ns / kNsPerMs;
      ++sr.ranks_observed;
    }
    if (sr.ranks_observed > 0) sr.wall_mean_ms /= sr.ranks_observed;
    wall_total += sr.wall_ms;
    model_total += sr.model_time;
    rep.stages.push_back(std::move(sr));
  }
  const double scale =  // wall-ms per op unit, fitted over the whole run
      model_total > 0 && wall_total > 0 ? wall_total / model_total : 0;
  rep.scale_ns_per_op = scale * kNsPerMs;
  for (StageReport& sr : rep.stages) {
    if (wall_total > 0) sr.measured_share = sr.wall_ms / wall_total;
    if (model_total > 0) sr.predicted_share = sr.model_time / model_total;
    if (scale > 0 && sr.model_time > 0 && sr.ranks_observed > 0)
      sr.drift = sr.wall_ms / (sr.model_time * scale) - 1;
  }
  return rep;
}

std::string RtReport::render_text() const {
  std::ostringstream os;
  os << "runtime telemetry (p=" << procs << ", plane="
     << (used_packed ? "packed" : "boxed") << ")\n";
  if (!profile.program.empty()) os << "program : " << profile.program << "\n";
  os << "wall    : " << fixed(wall_ms) << " ms";
  if (timing.repeats > 1)
    os << "  (over " << timing.repeats << " repeats, " << timing.warmups
       << " warmups: min " << fixed(timing.min_ms) << " / median "
       << fixed(timing.median_ms) << " / stddev " << fixed(timing.stddev_ms)
       << " ms)";
  os << "\nboundary: pack " << fixed(pack_ms) << " ms, unpack " << fixed(unpack_ms)
     << " ms\n";
  if (dropped_total > 0)
    os << "note    : ring dropped " << dropped_total
       << " records; oldest events are missing, and the waits of ranks "
          "marked * are lower bounds\n";

  os << "\nper-rank accounting (measured):\n"
     << "  rank   busy_ms  recv_wait  barr_wait  sends      bytes  "
        "qdepth max/mean  qbytes max\n";
  for (const RankReport& r : ranks) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "  %4d %9.3f %10.3f %10.3f %6llu %10llu %9llu/%-7.2f %11llu%s\n",
                  r.rank, r.busy_ms, r.recv_wait_ms, r.barrier_wait_ms,
                  static_cast<unsigned long long>(r.sends),
                  static_cast<unsigned long long>(r.send_bytes),
                  static_cast<unsigned long long>(r.queue_depth_max),
                  r.queue_depth_mean,
                  static_cast<unsigned long long>(r.queue_bytes_max),
                  r.waits_exact() ? "" : " *");
    os << line;
  }

  if (!stages.empty()) {
    os << "\nper-stage wall vs model (scale " << fixed(scale_ns_per_op, 1)
       << " ns/op):\n"
       << "  stage                          wall_ms  share%  model%   drift"
          "   crit%\n";
    for (const StageReport& s : stages) {
      const double crit =
          profile.makespan > 0
              ? profile.stages[static_cast<std::size_t>(s.index)].critical /
                    profile.makespan
              : 0;
      char line[200];
      std::snprintf(line, sizeof line,
                    "  %-28s %9.3f %7.1f %7.1f %+7.1f%% %7.1f\n",
                    s.label.substr(0, 28).c_str(), s.wall_ms,
                    s.measured_share * 100, s.predicted_share * 100,
                    s.drift * 100, crit * 100);
      os << line;
    }
  }
  os << "\ncritical path: " << profile.critical_path.size()
     << " segments over " << fixed(profile.makespan / kNsPerMs) << " ms"
     << (profile.balanced() ? "" : " (busy + comm + idle != makespan)")
     << (profile.path_complete() ? "" : " (the path has gaps)") << "\n"
     << profile.bottleneck_line();
  return os.str();
}

void RtReport::write_json(std::ostream& os) const {
  namespace js = obs::json;
  os << "{\"program\":" << js::quote(profile.program)
     << obs::trace_id_json_field() << ",\"procs\":" << procs
     << ",\"plane\":" << js::quote(used_packed ? "packed" : "boxed")
     << ",\"wall_ms\":" << js::number(wall_ms)
     << ",\"pack_ms\":" << js::number(pack_ms)
     << ",\"unpack_ms\":" << js::number(unpack_ms)
     << ",\"scale_ns_per_op\":" << js::number(scale_ns_per_op)
     << ",\"dropped\":" << dropped_total << ",\"timing\":{"
     << "\"repeats\":" << timing.repeats << ",\"warmups\":" << timing.warmups
     << ",\"min_ms\":" << js::number(timing.min_ms)
     << ",\"median_ms\":" << js::number(timing.median_ms)
     << ",\"mean_ms\":" << js::number(timing.mean_ms)
     << ",\"stddev_ms\":" << js::number(timing.stddev_ms) << "}"
     << ",\"clock\":" << js::quote(profile.clock)
     << ",\"makespan\":" << js::number(profile.makespan)
     << ",\"balanced\":" << (profile.balanced() ? "true" : "false")
     << ",\"path_complete\":" << (profile.path_complete() ? "true" : "false");
  os << ",\"ranks\":[";
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const RankReport& r = ranks[i];
    os << (i ? "," : "") << "{\"rank\":" << r.rank << ",\"events\":" << r.events
       << ",\"dropped\":" << r.dropped << ",\"sends\":" << r.sends
       << ",\"send_bytes\":" << r.send_bytes << ",\"recvs\":" << r.recvs
       << ",\"busy_ms\":" << js::number(r.busy_ms)
       << ",\"recv_wait_ms\":" << js::number(r.recv_wait_ms)
       << ",\"barrier_wait_ms\":" << js::number(r.barrier_wait_ms)
       << ",\"waits_exact\":" << (r.waits_exact() ? "true" : "false")
       << ",\"queue_depth_max\":" << r.queue_depth_max
       << ",\"queue_depth_mean\":" << js::number(r.queue_depth_mean)
       << ",\"queue_bytes_max\":" << r.queue_bytes_max << "}";
  }
  os << "],\"stages\":[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageReport& s = stages[i];
    const obs::StageProfile& sp = profile.stages[i];
    os << (i ? "," : "") << "{\"index\":" << s.index
       << ",\"label\":" << js::quote(s.label)
       << ",\"rule\":" << js::quote(sp.rule)
       << ",\"wall_ms\":" << js::number(s.wall_ms)
       << ",\"wall_mean_ms\":" << js::number(s.wall_mean_ms)
       << ",\"model_time\":" << js::number(s.model_time)
       << ",\"measured_share\":" << js::number(s.measured_share)
       << ",\"predicted_share\":" << js::number(s.predicted_share)
       << ",\"drift\":" << js::number(s.drift)
       << ",\"ranks_observed\":" << s.ranks_observed
       << ",\"critical\":" << js::number(sp.critical)
       << ",\"busy\":" << js::number(sp.busy)
       << ",\"comm\":" << js::number(sp.comm) << "}";
  }
  os << "],\"critical_path\":";
  profile.write_path_json(os);
  os << "}\n";
}

void RtReport::write_html(std::ostream& os) const {
  namespace html = obs::html;
  html::begin_page(os, "colop runtime report");
  os << "<h1>colop runtime telemetry</h1>\n<p>program: <code>"
     << html::escape(profile.program) << "</code><br>p=" << procs
     << ", plane=" << (used_packed ? "packed" : "boxed") << ", wall "
     << fixed(wall_ms) << " ms";
  if (timing.repeats > 1)
    os << " (" << timing.repeats << " repeats: min " << fixed(timing.min_ms)
       << " / median " << fixed(timing.median_ms) << " / stddev "
       << fixed(timing.stddev_ms) << " ms)";
  if (dropped_total > 0)
    os << "<br><b>note:</b> flight recorder dropped " << dropped_total
       << " records; the waits of ranks marked * are lower bounds";
  os << "</p>\n";

  // --- timeline: each rank's ops, coloured by stage, waits as strips -----
  std::vector<html::Bar> bars;
  for (const obs::Op& op : profile.ops) {
    if (op.end <= op.start || op.stage < 0 ||
        op.stage >= static_cast<int>(stages.size()))
      continue;
    const bool wait = op.kind == obs::Op::Kind::recv_wait;
    bars.push_back({op.rank, op.start / 1e3, op.end / 1e3,
                    wait ? html::kWaitColor : html::color(op.stage),
                    stages[static_cast<std::size_t>(op.stage)].label + " " +
                        obs::kind_name(op.kind) + " P" +
                        std::to_string(op.rank),
                    wait});
  }
  if (!bars.empty() && profile.makespan > 0) {
    std::vector<std::string> lanes, labels;
    lanes.reserve(static_cast<std::size_t>(procs));
    for (int r = 0; r < procs; ++r) lanes.push_back("P" + std::to_string(r));
    labels.reserve(stages.size());
    for (const StageReport& s : stages) labels.push_back(s.label);
    os << "<h2>timeline (us)</h2>\n";
    html::lanes(os, lanes, bars, profile.makespan / 1e3, labels,
                "recv/barrier wait");
  }
  os << "<p>" << html::escape(profile.bottleneck_line()) << "</p>\n";

  // --- per-rank table ----------------------------------------------------
  os << "<h2>per-rank accounting</h2>\n<table><tr><th>rank</th>"
     << "<th>busy ms</th><th>recv wait ms</th><th>barrier wait ms</th>"
     << "<th>sends</th><th>bytes</th><th>queue depth max</th>"
     << "<th>queue depth mean</th><th>queue bytes max</th></tr>\n";
  for (const RankReport& r : ranks)
    os << "<tr><td>P" << r.rank << (r.waits_exact() ? "" : " *") << "</td><td>"
       << fixed(r.busy_ms) << "</td><td>"
       << fixed(r.recv_wait_ms) << "</td><td>" << fixed(r.barrier_wait_ms)
       << "</td><td>" << r.sends << "</td><td>" << r.send_bytes << "</td><td>"
       << r.queue_depth_max << "</td><td>" << fixed(r.queue_depth_mean, 2)
       << "</td><td>" << r.queue_bytes_max << "</td></tr>\n";
  os << "</table>\n";

  // --- per-stage table ---------------------------------------------------
  if (!stages.empty()) {
    os << "<h2>wall-clock vs model</h2>\n<p>scale " << fixed(scale_ns_per_op, 1)
       << " ns per op unit</p>\n<table><tr><th>stage</th><th>rule</th>"
       << "<th>wall ms (max)</th><th>wall ms (mean)</th>"
       << "<th>measured share</th><th>predicted share</th><th>drift</th>"
       << "<th>critical ms</th></tr>\n";
    for (const StageReport& s : stages) {
      const obs::StageProfile& sp =
          profile.stages[static_cast<std::size_t>(s.index)];
      os << "<tr><td><code>" << html::escape(s.label) << "</code></td><td>"
         << html::escape(sp.rule.empty() ? "-" : sp.rule) << "</td><td>"
         << fixed(s.wall_ms) << "</td><td>" << fixed(s.wall_mean_ms) << "</td><td>"
         << fixed(s.measured_share * 100, 1) << "%</td><td>"
         << fixed(s.predicted_share * 100, 1) << "%</td><td>"
         << (s.drift >= 0 ? "+" : "") << fixed(s.drift * 100, 1) << "%</td><td>"
         << fixed(sp.critical / kNsPerMs) << "</td></tr>\n";
    }
    os << "</table>\n";
  }
  html::end_page(os);
}

void publish_registry(const RtReport& report, obs::Registry& registry) {
  for (const RankReport& r : report.ranks) {
    const obs::LabelSet rank_label{{"rank", std::to_string(r.rank)}};
    registry
        .counter("colop_mpsim_messages_total",
                 "Point-to-point messages sent, per sending rank", rank_label)
        .inc(static_cast<double>(r.sends));
    registry
        .counter("colop_mpsim_bytes_total",
                 "Payload bytes sent, per sending rank", rank_label)
        .inc(static_cast<double>(r.send_bytes));
    registry
        .counter("colop_mpsim_recv_wait_seconds_total",
                 "Time blocked in recv, per rank", rank_label)
        .inc(r.recv_wait_ms / 1e3);
    registry
        .counter("colop_mpsim_barrier_wait_seconds_total",
                 "Time blocked in barriers, per rank", rank_label)
        .inc(r.barrier_wait_ms / 1e3);
    registry
        .gauge("colop_rt_queue_depth_max",
               "Deepest inbound mailbox queue observed, per rank", rank_label)
        .set(static_cast<double>(r.queue_depth_max));
  }
  registry
      .counter("colop_rt_dropped_records_total",
               "Flight-recorder records evicted by the ring")
      .inc(static_cast<double>(report.dropped_total));
  for (const StageReport& s : report.stages)
    registry
        .histogram("colop_exec_stage_seconds",
                   "Per-stage wall time (max over ranks)",
                   obs::default_seconds_buckets(),
                   {{"stage", s.label}, {"index", std::to_string(s.index)}})
        .observe(s.wall_ms / 1e3);
  registry
      .counter("colop_exec_runs_total", "Threaded executions, by data plane",
               {{"plane", report.used_packed ? "packed" : "boxed"}})
      .inc();
  registry
      .histogram("colop_exec_run_seconds",
                 "End-to-end threaded execution wall time",
                 obs::default_seconds_buckets())
      .observe(report.wall_ms / 1e3);
}

}  // namespace colop::rt
