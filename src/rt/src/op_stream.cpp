#include "colop/rt/op_stream.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

namespace colop::rt {
namespace {

using Kind = obs::Op::Kind;
using Key = std::tuple<int, int, std::uint64_t>;  // source, dest, tag

int stage_of(const Record& r) {
  return r.stage == Record::kNoStage ? -1 : static_cast<int>(r.stage);
}

double ns(const Record& r) { return static_cast<double>(r.t_ns); }

struct Converter {
  const FleetSnapshot& snap;
  bool dropped = false;   // some ring lost records
  bool complete = true;   // every rank done, every mailbox empty
  std::map<Key, std::vector<double>> sends;  // retained send times
  std::map<Key, std::size_t> recvs;          // retained recv_ends
  std::vector<std::vector<double>> entries;  // barrier_begin times per rank
  std::vector<obs::Op> ops;
  std::vector<obs::Message> messages;

  explicit Converter(const FleetSnapshot& s)
      : snap(s), entries(s.per_rank.size()) {
    for (const RankSnapshot& rs : snap.per_rank) {
      dropped = dropped || rs.dropped > 0;
      complete = complete && rs.stats.done && rs.stats.queue_depth == 0;
      for (const Record& r : rs.records) {
        if (r.kind == Ev::send)
          sends[{rs.rank, r.peer, r.aux}].push_back(ns(r));
        else if (r.kind == Ev::recv_end)
          ++recvs[{r.peer, rs.rank, r.aux}];
        else if (r.kind == Ev::barrier_begin && in_range(rs.rank))
          entries[static_cast<std::size_t>(rs.rank)].push_back(ns(r));
      }
    }
  }

  bool in_range(int rank) const {
    return rank >= 0 && static_cast<std::size_t>(rank) < snap.per_rank.size();
  }
  bool lost(int rank) const {
    return !in_range(rank) ||
           snap.per_rank[static_cast<std::size_t>(rank)].dropped > 0;
  }

  /// Send time of the message a key's k-th retained receive took, or -1.
  double sent(const Key& key, std::size_t k, double received) const {
    const auto it = sends.find(key);
    if (it == sends.end()) return -1;
    const std::vector<double>& s = it->second;
    std::size_t j = k;
    if (lost(std::get<0>(key)) || lost(std::get<1>(key))) {
      if (!complete) return -1;
      j = k + s.size();  // align the ends: j = k + (sends - receives)
      const std::size_t r = recvs.at(key);
      if (j < r) return -1;
      j -= r;
    }
    return j < s.size() && s[j] <= received ? s[j] : -1;
  }

  /// Who entered rank `rank`'s j-th retained barrier last, and when;
  /// {-1, 0} when that barrier is not matched on every rank.
  std::pair<int, double> last_entry(int rank, std::size_t j) const {
    if (dropped && !complete) return {-1, 0};
    const std::size_t from_end = entries[static_cast<std::size_t>(rank)].size() - j;
    std::pair<int, double> last{-1, 0};
    for (std::size_t q = 0; q < entries.size(); ++q) {
      const std::vector<double>& e = entries[q];
      if (dropped ? from_end > e.size() : j >= e.size()) return {-1, 0};
      const double t = e[dropped ? e.size() - from_end : j];
      if (last.first < 0 || t > last.second) last = {static_cast<int>(q), t};
    }
    return last;
  }

  void rank_ops(const RankSnapshot& rs, double close_at) {
    if (rs.records.empty()) return;
    const int me = rs.rank;
    const auto emit = [&](Kind kind, double start, double end, int peer,
                          int stage, double bytes = 0) {
      ops.push_back({me, kind, peer, stage, start, end, bytes});
    };
    std::map<Key, std::size_t> taken;
    std::size_t entered = 0;
    const Record* prev = &rs.records.front();
    double t = ns(*prev);
    for (const Record& r : rs.records) {
      const double at = std::max(t, ns(r));
      const int stage = stage_of(r);
      // An end right after its begin: the call covers [t, at].  An end
      // without its begin (never logged, or dropped) waited zero time.
      const bool paired = closes_wait(prev->kind, r.kind);
      const double begin = paired ? t : at;
      if (!paired)
        emit(Kind::compute, t, at, -1, prev->stage == r.stage ? stage : -1);
      if (r.kind == Ev::send) {
        emit(Kind::send, at, at, r.peer, stage, static_cast<double>(r.bytes));
      } else if (r.kind == Ev::barrier_begin) {
        ++entered;
      } else if (r.kind == Ev::recv_end) {
        const Key key{r.peer, me, r.aux};
        const double s = sent(key, taken[key]++, at);
        const double bytes = static_cast<double>(r.bytes);
        if (s > begin) {
          emit(Kind::recv_wait, begin, s, r.peer, stage);
          emit(Kind::recv, s, at, r.peer, stage, bytes);
        } else {
          emit(Kind::recv, begin, at, r.peer, stage, bytes);
        }
        if (s >= 0) messages.push_back({r.peer, s, me, at});
      } else if (r.kind == Ev::barrier_end) {
        const auto [last, entry] =
            paired ? last_entry(me, entered - 1) : std::pair<int, double>{-1, 0};
        if (last >= 0 && entry > begin) {
          emit(Kind::recv_wait, begin, std::min(entry, at), last, stage);
          emit(Kind::barrier, std::min(entry, at), at, last, stage);
        } else {
          emit(Kind::barrier, begin, at, last, stage);
        }
      }
      prev = &r;
      t = at;
    }
    if (close_at > t && opens_wait(prev->kind))
      emit(Kind::recv_wait, t, close_at, -1, stage_of(*prev));
  }
};

}  // namespace

obs::Profile profile_snapshot(const FleetSnapshot& snap,
                              std::uint64_t close_at_ns) {
  Converter conv(snap);
  const double close_at = static_cast<double>(close_at_ns);
  for (const RankSnapshot& rs : snap.per_rank) conv.rank_ops(rs, close_at);
  obs::Profile prof = obs::profile_events(std::move(conv.ops), snap.ranks,
                                          close_at_ns > 0 ? close_at : -1);
  prof.clock = "ns";
  prof.messages = std::move(conv.messages);
  std::vector<obs::StageProfile> meta(snap.stage_labels.size());
  for (std::size_t i = 0; i < meta.size(); ++i) {
    meta[i].label = snap.stage_labels[i];
    prof.program += (i > 0 ? " ; " : "") + meta[i].label;
  }
  prof.set_stages(std::move(meta));
  return prof;
}

}  // namespace colop::rt
