#pragma once
// A fixed reference job, independent of every colop layer, timed between
// ops to rescale the end-to-end wall-clock metrics.
//
// The benchmark runs on shared virtual machines, where the same op's wall
// time drifts by 20-50% over minutes: the machine gets slower, not the
// program.  Reporting wall x (kNominalMs / median time of the yardstick
// runs around the sample, main.cpp's rescaled()) cancels most of that
// drift, within a run and between runs, while a change to colop moves the
// reported figures exactly as it moves wall time, because the yardstick
// never calls colop.  Its parts are the kind of work whose speed tracked
// the ops' drift in probes (correlation 0.9 with a repeated simnet op,
// 0.76 for thread fleets with a repeated compile op): small-object
// allocation with tree lookups, number formatting into a stream, a sort,
// and starting and joining 9-thread fleets, as rewrite certification does
// for every candidate.  Dependent loads over a large working set did not
// track the drift, and are left out.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class Yardstick {
 public:
  /// Yardstick time, in ms, of a calm reference machine; the rescaled
  /// metrics read as wall time on that machine.
  static constexpr double kNominalMs = 10.0;

  /// Run the job once; returns its wall time in ms.
  double run_ms() {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t h = sink_;
    {
      std::vector<std::shared_ptr<std::string>> owned;
      std::map<std::string, std::uint64_t> tree;
      for (std::uint64_t k = 0; k < 4000; ++k) {
        owned.push_back(std::make_shared<std::string>(
            std::to_string(k * 7919) + "-yardstick-key"));
        tree[*owned.back()] += k;
      }
      for (const auto& [key, v] : tree) h += key.size() ^ v;
    }
    {
      std::ostringstream os;
      for (std::uint64_t k = 0; k < 4000; ++k)
        os << static_cast<double>(k + h % 7) * 0.37 << ' ' << k << ';';
      h += os.str().size();
    }
    {
      std::vector<std::uint64_t> v(50000);
      std::uint64_t x = h | 1;
      for (auto& e : v) e = x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::sort(v.begin(), v.end());
      h += v[v.size() / 2];
    }
    for (int round = 0; round < 12; ++round) {
      std::vector<std::thread> fleet;
      for (int r = 0; r < 9; ++r) fleet.emplace_back([] {});
      for (auto& t : fleet) t.join();
    }
    sink_ = h;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }

  /// Keeps the work observable so the optimizer cannot drop it.
  [[nodiscard]] std::uint64_t sink() const { return sink_; }

 private:
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
