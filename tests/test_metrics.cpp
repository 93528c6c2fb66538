// Telemetry-hub registry: instruments must stay exact under concurrent
// hammering (the TSAN job runs this file), families must reject kind and
// bucket mismatches, and the Prometheus / JSON exporters must produce the
// documented text for a known registry.  Also covers the trace-context
// plumbing the exporters stamp into every document.

#include <atomic>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "colop/obs/json.h"
#include "colop/obs/metrics.h"
#include "colop/obs/trace_context.h"
#include "colop/support/error.h"

namespace obs = colop::obs;

namespace {

constexpr int kThreads = 8;
constexpr int kIters = 100000;

TEST(Metrics, CounterExactUnderContention) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("colop_test_total", "hammered counter");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kIters; ++i) c.inc();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<double>(kThreads) * kIters);
  EXPECT_EQ(reg.value("colop_test_total"), static_cast<double>(kThreads) * kIters);
}

TEST(Metrics, CounterFractionalDeltasExact) {
  // 0.5 is exactly representable: the CAS-loop add must lose nothing.
  obs::Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kIters / 10; ++i) c.inc(0.5);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * (kIters / 10) * 0.5);
}

TEST(Metrics, GaugeAddExactUnderContention) {
  obs::Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&g] {
      for (int i = 0; i < kIters / 10; ++i) g.add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.value(), static_cast<double>(kThreads) * (kIters / 10));
}

TEST(Metrics, HistogramExactUnderContention) {
  obs::Histogram h({1.0, 2.0, 4.0});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      // Thread t observes a constant integral value — totals stay exact.
      for (int i = 0; i < kIters / 10; ++i)
        h.observe(static_cast<double>(t % 5));
    });
  for (auto& t : threads) t.join();
  const auto n = static_cast<std::uint64_t>(kThreads) * (kIters / 10);
  EXPECT_EQ(h.count(), n);
  const auto counts = h.bucket_counts();
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  EXPECT_EQ(total, n);
  // Values 0..4 across 8 threads: 0,1 -> le=1 (x2 threads each for 0,1,
  // plus the wrap 5,6 -> 0,1), 2 -> le=2, 3,4 -> le=4 and +Inf spillover.
  double expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) expected_sum += (t % 5) * (kIters / 10.0);
  EXPECT_EQ(h.sum(), expected_sum);
}

TEST(Metrics, ConcurrentRegistrationIsSafe) {
  // All threads race name+label registration AND increments; the per-series
  // total must still be exact and no family duplicated.
  obs::Registry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&reg, t] {
      const obs::LabelSet label{{"rank", std::to_string(t % 2)}};
      for (int i = 0; i < kIters / 50; ++i)
        reg.counter("colop_raced_total", "raced registration", label).inc();
    });
  for (auto& t : threads) t.join();
  const double per_label = kThreads / 2.0 * (kIters / 50);
  EXPECT_EQ(reg.value("colop_raced_total", {{"rank", "0"}}), per_label);
  EXPECT_EQ(reg.value("colop_raced_total", {{"rank", "1"}}), per_label);
  EXPECT_EQ(reg.names(), std::vector<std::string>{"colop_raced_total"});
}

TEST(Metrics, HistogramBoundsAreInclusive) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(1.0);  // le="1", Prometheus buckets are inclusive upper bounds
  h.observe(2.0);
  h.observe(4.5);  // +Inf
  const auto counts = h.bucket_counts();
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(Metrics, RejectsKindAndBucketMismatch) {
  obs::Registry reg;
  reg.counter("colop_thing_total", "a counter");
  EXPECT_THROW(reg.gauge("colop_thing_total", "now a gauge?"), colop::Error);
  reg.histogram("colop_lat_seconds", "latency", {1, 2});
  EXPECT_THROW(reg.histogram("colop_lat_seconds", "latency", {1, 2, 3}),
               colop::Error);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), colop::Error);  // not increasing
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), colop::Error);  // not strict
}

TEST(Metrics, PrometheusGolden) {
  obs::Registry reg;
  reg.counter("colop_requests_total", "Requests served").inc(3);
  reg.gauge("colop_queue_depth", "Deepest inbound queue", {{"rank", "0"}})
      .set(2);
  obs::Histogram& h =
      reg.histogram("colop_latency_seconds", "Stage latency", {1, 2, 4});
  h.observe(1);
  h.observe(3);
  h.observe(100);
  std::ostringstream os;
  reg.write_prometheus(os);
  EXPECT_EQ(os.str(),
            "# HELP colop_latency_seconds Stage latency\n"
            "# TYPE colop_latency_seconds histogram\n"
            "colop_latency_seconds_bucket{le=\"1\"} 1\n"
            "colop_latency_seconds_bucket{le=\"2\"} 1\n"
            "colop_latency_seconds_bucket{le=\"4\"} 2\n"
            "colop_latency_seconds_bucket{le=\"+Inf\"} 3\n"
            "colop_latency_seconds_sum 104\n"
            "colop_latency_seconds_count 3\n"
            "# HELP colop_queue_depth Deepest inbound queue\n"
            "# TYPE colop_queue_depth gauge\n"
            "colop_queue_depth{rank=\"0\"} 2\n"
            "# HELP colop_requests_total Requests served\n"
            "# TYPE colop_requests_total counter\n"
            "colop_requests_total 3\n");
}

TEST(Metrics, PrometheusLabelEscapingGolden) {
  // The text-format rules: label values escape exactly backslash, double
  // quote and line-feed; HELP text escapes backslash and line-feed (quotes
  // stay raw).  JSON-style \uXXXX sequences would be read literally by a
  // scraper, so control characters must NOT fall back to them.
  obs::Registry reg;
  reg.counter("colop_ops_total", "Ops with \"quotes\" and a\nnewline and \\",
              {{"path", "a\\b"}, {"msg", "say \"hi\"\nbye"}})
      .inc(1);
  std::ostringstream os;
  reg.write_prometheus(os);
  EXPECT_EQ(os.str(),
            "# HELP colop_ops_total Ops with \"quotes\" and a\\nnewline "
            "and \\\\\n"
            "# TYPE colop_ops_total counter\n"
            "colop_ops_total{msg=\"say \\\"hi\\\"\\nbye\",path=\"a\\\\b\"} "
            "1\n");
  // And the exposition itself must pass the conformance lint.
  EXPECT_EQ(obs::prom_lint(os.str()), std::vector<std::string>{});
}

TEST(Metrics, JsonDecodesPromEscapedLabels) {
  // The encoded label key carries Prometheus escaping; the JSON exporter
  // must unescape it and re-quote as JSON, not pass the prom bytes through.
  obs::Registry reg;
  reg.counter("colop_ops_total", "ops",
              {{"msg", "say \"hi\"\nbye"}, {"path", "a\\b"}})
      .inc(2);
  std::ostringstream os;
  reg.write_json(os);
  const auto doc = obs::json::parse(os.str());
  const auto& series = *doc.get("metrics")->items[0]->get("series")->items[0];
  EXPECT_EQ(series.get("labels")->get("msg")->str, "say \"hi\"\nbye");
  EXPECT_EQ(series.get("labels")->get("path")->str, "a\\b");
}

TEST(Metrics, PromLintAcceptsOwnExposition) {
  // A registry exercising every instrument kind and nasty labels must
  // produce a conformant exposition — this is the exporter's golden gate.
  obs::Registry reg;
  reg.counter("colop_requests_total", "Requests").inc(3);
  reg.counter("colop_errors_total", "Errors", {{"kind", "io \"disk\"\n"}})
      .inc(1);
  reg.gauge("colop_queue_depth", "Queue", {{"rank", "0"}}).set(2.5);
  obs::Histogram& h =
      reg.histogram("colop_latency_seconds", "Latency", {0.5, 1});
  h.observe(0.25);
  h.observe(99);
  std::ostringstream os;
  reg.write_prometheus(os);
  EXPECT_EQ(obs::prom_lint(os.str()), std::vector<std::string>{})
      << os.str();
}

TEST(Metrics, PromLintFlagsViolations) {
  const auto has_finding = [](const std::vector<std::string>& findings,
                              const std::string& needle) {
    for (const auto& f : findings)
      if (f.find(needle) != std::string::npos) return true;
    return false;
  };

  // Counter family without the _total suffix.
  auto findings = obs::prom_lint(
      "# TYPE colop_requests counter\ncolop_requests 1\n");
  EXPECT_TRUE(has_finding(findings, "does not end in _total")) << findings.size();

  // HELP after TYPE, and duplicated TYPE.
  findings = obs::prom_lint(
      "# TYPE colop_x_total counter\n"
      "# HELP colop_x_total late help\n"
      "# TYPE colop_x_total counter\n"
      "colop_x_total 1\n");
  EXPECT_TRUE(has_finding(findings, "after its TYPE"));
  EXPECT_TRUE(has_finding(findings, "duplicate TYPE"));

  // Interleaved families: a's samples resume after b's.
  findings = obs::prom_lint(
      "colop_a_total 1\n"
      "colop_b_total 1\n"
      "colop_a_total 2\n");
  EXPECT_TRUE(has_finding(findings, "not contiguous"));

  // Bad metric name, bad label name, unparseable value.
  findings = obs::prom_lint("2bad_name 1\n");
  EXPECT_TRUE(has_finding(findings, "invalid metric name"));
  findings = obs::prom_lint("colop_x{bad-label=\"v\"} 1\n");
  EXPECT_TRUE(has_finding(findings, "invalid label name"));
  findings = obs::prom_lint("colop_x notanumber\n");
  EXPECT_TRUE(has_finding(findings, "unparseable value"));

  // Histogram machinery samples fold into their declared family — the
  // _bucket/_sum/_count lines are NOT a family interleave, and +Inf is a
  // valid value.
  findings = obs::prom_lint(
      "# TYPE colop_lat_seconds histogram\n"
      "colop_lat_seconds_bucket{le=\"1\"} 1\n"
      "colop_lat_seconds_bucket{le=\"+Inf\"} 2\n"
      "colop_lat_seconds_sum 3.5\n"
      "colop_lat_seconds_count 2\n");
  EXPECT_EQ(findings, std::vector<std::string>{});
}

TEST(Metrics, LabelsAreCanonicalized) {
  // Registration order of label keys must not create distinct series.
  obs::Registry reg;
  reg.counter("colop_io_total", "io", {{"op", "read"}, {"rank", "1"}}).inc();
  reg.counter("colop_io_total", "io", {{"rank", "1"}, {"op", "read"}}).inc();
  EXPECT_EQ(reg.value("colop_io_total", {{"op", "read"}, {"rank", "1"}}), 2);
  std::ostringstream os;
  reg.write_prometheus(os);
  EXPECT_NE(os.str().find("colop_io_total{op=\"read\",rank=\"1\"} 2"),
            std::string::npos);
}

TEST(Metrics, JsonRoundTripsAndStampsTrace) {
  obs::Registry reg;
  reg.counter("colop_requests_total", "Requests", {{"code", "200"}}).inc(7);
  reg.histogram("colop_latency_seconds", "Latency", {1, 2}).observe(1.5);

  const obs::ScopedTrace trace("deadbeefcafe0123");
  std::ostringstream os;
  reg.write_json(os);
  const auto doc = obs::json::parse(os.str());
  ASSERT_TRUE(doc.get("trace_id"));
  EXPECT_EQ(doc.get("trace_id")->str, "deadbeefcafe0123");
  EXPECT_EQ(doc.get("kind")->str, "colop_metrics");
  const auto* metrics = doc.get("metrics");
  ASSERT_TRUE(metrics && metrics->is(obs::json::Value::Type::array));
  ASSERT_EQ(metrics->items.size(), 2u);
  const auto& latency = *metrics->items[0];
  EXPECT_EQ(latency.get("name")->str, "colop_latency_seconds");
  EXPECT_EQ(latency.get("kind")->str, "histogram");
  const auto& series = *latency.get("series")->items[0];
  EXPECT_EQ(series.get("count")->num, 1);
  EXPECT_EQ(series.get("sum")->num, 1.5);
  const auto& requests = *metrics->items[1];
  EXPECT_EQ(requests.get("kind")->str, "counter");
  const auto& rseries = *requests.get("series")->items[0];
  EXPECT_EQ(rseries.get("value")->num, 7);
  EXPECT_EQ(rseries.get("labels")->get("code")->str, "200");
}

TEST(Metrics, JsonOmitsTraceWhenNoneActive) {
  obs::Registry reg;
  reg.counter("colop_x_total", "x").inc();
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_FALSE(obs::json::parse(os.str()).get("trace_id"));
}

TEST(MetricsDocument, SchemaVersionAndInfo) {
  obs::MetricsRegistry reg;
  reg.set("speedup", 2.0);
  reg.set_info("git_sha", "abc123");
  std::ostringstream os;
  reg.write_json(os);
  const auto doc = obs::json::parse(os.str());
  EXPECT_EQ(doc.get("schema_version")->num, obs::MetricsRegistry::kSchemaVersion);
  EXPECT_EQ(doc.get("info")->get("git_sha")->str, "abc123");
  EXPECT_EQ(doc.get("scalars")->get("speedup")->num, 2.0);
  EXPECT_EQ(reg.info("git_sha"), "abc123");
  EXPECT_EQ(reg.info("absent"), "");
}

TEST(TraceContext, MintSetAndRestore) {
  EXPECT_EQ(obs::trace_id(), "");  // no driver installed one in tests
  const std::string a = obs::mint_trace_id();
  const std::string b = obs::mint_trace_id();
  EXPECT_EQ(a.size(), 16u);
  EXPECT_NE(a, b);
  {
    const obs::ScopedTrace outer(a);
    EXPECT_EQ(obs::trace_id(), a);
    EXPECT_EQ(obs::trace_id_json_field(), ",\"trace_id\":\"" + a + "\"");
    {
      const obs::ScopedTrace inner(b);
      EXPECT_EQ(obs::trace_id(), b);
    }
    EXPECT_EQ(obs::trace_id(), a);
  }
  EXPECT_EQ(obs::trace_id(), "");
  EXPECT_EQ(obs::trace_id_json_field(), "");
}

}  // namespace
