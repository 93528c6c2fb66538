#pragma once
// Benchmark regression comparison: diff two BENCH_*.json documents.
//
// The bench harnesses export MetricsRegistry documents
// ({"scalars": {...}, "series": {...}}); every table/figure benchmark is
// simnet-deterministic, so a committed baseline stays byte-for-byte
// meaningful in CI.  This module compares the scalars of a current run
// against a baseline and classifies each delta:
//
//   * cost-like metrics (time, words, messages, ...) regress only when
//     they INCREASE beyond the threshold — getting faster is fine;
//   * throughput-like metrics (speedups, elements/sec, bytes/sec) regress
//     only when they DECREASE beyond the threshold;
//   * everything else (counts that encode correctness) must match within
//     the threshold in either direction;
//   * metrics present on one side only are reported as notes, not
//     failures (benches grow new metrics across PRs);
//   * documents that are not MetricsRegistry exports (e.g. the
//     google-benchmark schema of micro_collectives) are skipped with a
//     note.
//
// `bench_history diff` (tools/bench_history.cpp) drives this over two
// directories and turns `regressed()` into its exit status.

#include <iosfwd>
#include <string>
#include <vector>

namespace colop::obs {

/// One scalar compared across baseline and current.
struct BenchDelta {
  std::string metric;
  double baseline = 0;
  double current = 0;
  double rel_change = 0;  ///< (current - baseline) / max(|baseline|, eps)
  bool higher_is_worse = false;
  bool higher_is_better = false;
  bool regressed = false;
};

struct BenchDiffReport {
  std::string name;  ///< file or benchmark name
  double threshold = 0;
  bool skipped = false;  ///< not a MetricsRegistry document
  std::vector<BenchDelta> deltas;
  std::vector<std::string> notes;  ///< one-sided metrics, schema skips

  [[nodiscard]] bool regressed() const;
  [[nodiscard]] std::string render_text() const;
  void write_json(std::ostream& os) const;
};

/// True for metric names where only an increase is a regression (times,
/// traffic); false where any drift beyond the threshold fails (exact
/// counts).
[[nodiscard]] bool higher_is_worse(const std::string& metric);

/// True for metric names where only a decrease is a regression (speedups,
/// throughput).  Checked after higher_is_worse; a metric matching neither
/// is two-sided.
[[nodiscard]] bool higher_is_better(const std::string& metric);

/// True when a relative change moves `metric` beyond `threshold` in its bad
/// direction: up for higher_is_worse metrics, down for higher_is_better
/// ones, either way for the rest.  The one regression rule shared by
/// compare_bench_json (`bench_history diff`) and `bench_history check`.
[[nodiscard]] bool regressed_beyond(const std::string& metric,
                                    double rel_change, double threshold);

/// Compare the "scalars" of two MetricsRegistry JSON documents (full
/// document text in, as read from disk).  Throws colop::Error on JSON
/// syntax errors; returns a skipped report when either document does not
/// have the MetricsRegistry shape.
[[nodiscard]] BenchDiffReport compare_bench_json(const std::string& name,
                                                 const std::string& baseline_doc,
                                                 const std::string& current_doc,
                                                 double threshold = 0.15);

}  // namespace colop::obs
