#pragma once
// Metrics: the telemetry-hub registry (counters / gauges / histograms with
// labels, Prometheus + JSON exposition) plus the scalar/series document
// format the bench harnesses export.
//
// Two types serve two jobs, and each run-time metric goes into one of them:
//
//   * Registry — the live telemetry surface.  Named, labeled instruments
//     registered by every subsystem (mpsim traffic, exec stage latencies,
//     optimizer rule counters, rt stalls/queues, verify obligations) and
//     exported as Prometheus text exposition (GET /metrics on the embedded
//     stats server, serve.h) or JSON.  Instruments are lock-free on the
//     hot path (relaxed atomics); registration takes a mutex, so call
//     sites should obtain an instrument once and keep the reference —
//     references stay valid for the registry's lifetime.
//
//   * MetricsRegistry — a self-describing measurement DOCUMENT: scalars,
//     string info fields and row-oriented series, written once at the end
//     of a benchmark (the BENCH_*.json artifacts that `bench_history diff`
//     gates and `bench_history` tracks).  Nothing at run time publishes
//     into it.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace colop::obs {

/// Label key/value pairs; canonicalized (sorted by key) on registration.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

namespace detail {
/// Relaxed CAS add for pre-C++20-atomic-float portability.
inline void atomic_add(std::atomic<double>& a, double delta) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed,
                                  std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonically increasing value (Prometheus counter).  inc() is a relaxed
/// atomic add: exact under arbitrary thread interleavings.
class Counter {
 public:
  void inc(double delta = 1.0) noexcept { detail::atomic_add(value_, delta); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0};
};

/// Last-write-wins scalar (Prometheus gauge); add() for up/down deltas.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept { detail::atomic_add(value_, delta); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket histogram: upper bounds are set at registration and never
/// change; the implicit +Inf bucket catches the rest.  observe() touches
/// one bucket counter plus sum/count — all relaxed atomics, exact totals.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v) noexcept;

  [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket (non-cumulative) counts; bounds().size() + 1 entries, the
  /// last being the +Inf bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;  ///< strictly increasing, finite
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<double> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Default latency buckets for stage/run timings, in seconds.
[[nodiscard]] std::vector<double> default_seconds_buckets();

/// Thread-safe registry of named, labeled instruments.
///
/// One NAME owns one kind (and, for histograms, one bucket layout) and one
/// help string; distinct label sets under the same name are separate time
/// series of the same family, exactly as Prometheus models it.  Kind or
/// bucket mismatches on re-registration throw colop::Error — a mis-typed
/// metric is a bug, not a new series.
class Registry {
 public:
  Counter& counter(const std::string& name, const std::string& help,
                   const LabelSet& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const LabelSet& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       const std::vector<double>& upper_bounds,
                       const LabelSet& labels = {});

  /// Prometheus text exposition format (content type
  /// `text/plain; version=0.0.4`): # HELP / # TYPE headers, one line per
  /// series, histograms expanded to cumulative _bucket/_sum/_count.
  void write_prometheus(std::ostream& os) const;
  /// {"trace_id":...,"metrics":[{"name","kind","help","series":[...]}]}.
  void write_json(std::ostream& os) const;

  /// Current value of a counter/gauge series (0 when absent) — test hook.
  [[nodiscard]] double value(const std::string& name,
                             const LabelSet& labels = {}) const;
  /// True iff a family with this name exists.
  [[nodiscard]] bool has(const std::string& name) const;
  /// Family names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// The process-wide registry the embedded stats server exposes.
  static Registry& global();

 private:
  enum class Kind { counter, gauge, histogram };
  struct Family {
    Kind kind = Kind::counter;
    std::string help;
    std::vector<double> buckets;  ///< histograms only
    // Keyed by canonical label encoding; pointers are stable (unique_ptr).
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
  };

  Family& family(const std::string& name, Kind kind, const std::string& help,
                 const std::vector<double>& buckets);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

/// Lint a Prometheus text exposition against the text-format rules the
/// scrapers care about.  Returns one human-readable finding per violation
/// (empty = conformant):
///   * metric and label names match [a-zA-Z_:][a-zA-Z0-9_:]* (labels
///     without the colon);
///   * counter families end in `_total`;
///   * at most one HELP and one TYPE per family, HELP before TYPE, TYPE
///     before the family's first sample;
///   * all samples of a family are contiguous (no interleaving);
///   * sample values parse as Prometheus numbers (decimal, +Inf/-Inf/NaN).
/// This is the conformance gate the golden metrics test pins our own
/// exporter with.
[[nodiscard]] std::vector<std::string> prom_lint(const std::string& exposition);

// --- measurement documents (bench harness exports) ------------------------

/// Thread-safe registry of scalar metrics and row-oriented series.
class MetricsRegistry {
 public:
  /// Set (overwrite) a scalar metric.
  void set(const std::string& name, double value);
  /// Add to a scalar metric (creates it at 0).
  void add(const std::string& name, double delta);
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;

  /// Set a string info field (git_sha, trace_id, hostnames — identity, not
  /// measurement; exported under "info", never compared by the gate).
  void set_info(const std::string& name, std::string value);
  [[nodiscard]] std::string info(const std::string& name) const;

  /// Append one row to a named series; every row is a key->value record
  /// (missing keys export as absent fields, not zeros).
  void add_row(const std::string& series,
               std::vector<std::pair<std::string, double>> row);

  /// {"schema_version":N, "info": {...}, "scalars": {...},
  ///  "series": {"name": [{...}, ...]}}
  void write_json(std::ostream& os) const;

  [[nodiscard]] std::map<std::string, double> scalars() const;

  /// Version of the exported document schema (bumped when fields change
  /// shape; additions are backwards compatible and do not bump it).
  static constexpr int kSchemaVersion = 1;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> scalars_;
  std::map<std::string, std::string> info_;
  std::map<std::string, std::vector<std::vector<std::pair<std::string, double>>>>
      series_;
};

}  // namespace colop::obs
