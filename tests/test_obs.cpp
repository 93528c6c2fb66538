// The observability core: the strict JSON parser, the op stream's Chrome
// trace writer validated by round-tripping through it, and the measurement
// document registry.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "colop/obs/critical_path.h"
#include "colop/obs/json.h"
#include "colop/obs/metrics.h"
#include "colop/support/error.h"

namespace colop::obs {
namespace {

TEST(ObsJson, ParsesScalarsStringsArraysObjects) {
  const auto v = json::parse(
      R"({"a":[1,2.5,-3e2],"s":"x\n\"y\"","t":true,"n":null})");
  ASSERT_TRUE(v.is(json::Value::Type::object));
  const auto* a = v.get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is(json::Value::Type::array));
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_DOUBLE_EQ(a->items[0]->num, 1.0);
  EXPECT_DOUBLE_EQ(a->items[1]->num, 2.5);
  EXPECT_DOUBLE_EQ(a->items[2]->num, -300.0);
  ASSERT_NE(v.get("s"), nullptr);
  EXPECT_EQ(v.get("s")->str, "x\n\"y\"");
  ASSERT_NE(v.get("t"), nullptr);
  EXPECT_TRUE(v.get("t")->b);
  ASSERT_NE(v.get("n"), nullptr);
  EXPECT_TRUE(v.get("n")->is(json::Value::Type::null));
}

TEST(ObsJson, QuoteEscapeRoundTripsThroughTheParser) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const auto v = json::parse(json::quote(nasty));
  ASSERT_TRUE(v.is(json::Value::Type::string));
  EXPECT_EQ(v.str, nasty);
}

TEST(ObsJson, RejectsMalformedDocuments) {
  EXPECT_THROW((void)json::parse("{\"a\":1"), Error);
  EXPECT_THROW((void)json::parse("nope"), Error);
  EXPECT_THROW((void)json::parse("{} trailing"), Error);
  EXPECT_THROW((void)json::parse(""), Error);
}

/// Rank 2 of three computes [12, 20] in stage 0; ranks 0 and 1 idle.
Profile sample_profile() {
  Profile prof = profile_events({{2, Op::Kind::compute, -1, 0, 12, 20, 0}}, 3);
  prof.set_stages({StageProfile{.label = "stage"}});
  return prof;
}

TEST(ObsChromeTrace, ExportRoundTripsThroughTheStrictParser) {
  std::ostringstream os;
  sample_profile().write_chrome_trace(os, "proc");
  const auto doc = json::parse(os.str());
  ASSERT_TRUE(doc.is(json::Value::Type::object));
  const auto* evs = doc.get("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_TRUE(evs->is(json::Value::Type::array));

  std::map<std::string, int> phases;
  for (const auto& item : evs->items) {
    ASSERT_TRUE(item->is(json::Value::Type::object));
    const auto* name = item->get("name");
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(name->is(json::Value::Type::string));
    const auto* ph = item->get("ph");
    ASSERT_NE(ph, nullptr);
    const std::string code = ph->str;
    EXPECT_TRUE(code == "X" || code == "s" || code == "t" || code == "f" ||
                code == "M")
        << code;
    ASSERT_NE(item->get("pid"), nullptr);
    ASSERT_NE(item->get("tid"), nullptr);
    if (code != "M") {
      const auto* ts = item->get("ts");
      ASSERT_NE(ts, nullptr);
      EXPECT_TRUE(ts->is(json::Value::Type::number));
      ASSERT_NE(item->get("cat"), nullptr);
    }
    if (code == "X") {
      const auto* dur = item->get("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_DOUBLE_EQ(dur->num, 8.0);
    }
    ++phases[code];
  }
  // Two process_names plus a thread_name and a thread_sort_index per rank
  // and process; the stage span and the op; the critical path ([0, 12]
  // idle at the start, then the op) as one flow from start to end.
  EXPECT_EQ(phases["M"], 2 + 2 * 2 * 3);
  EXPECT_EQ(phases["X"], 2);
  EXPECT_EQ(phases["s"], 1);
  EXPECT_EQ(phases["f"], 1);
}

TEST(ObsChromeTrace, MetadataNamesProcessAndThreads) {
  std::ostringstream os;
  sample_profile().write_chrome_trace(os, "proc");
  const auto doc = json::parse(os.str());
  const auto* evs = doc.get("traceEvents");
  ASSERT_NE(evs, nullptr);
  bool proc_named = false, thread2_named = false, thread2_sorted = false;
  for (const auto& item : evs->items) {
    if (item->get("ph")->str != "M") continue;
    const auto* args = item->get("args");
    ASSERT_NE(args, nullptr);
    if (item->get("name")->str == "thread_sort_index") {
      const auto* idx = args->get("sort_index");
      ASSERT_NE(idx, nullptr);
      if (item->get("tid")->num == 2.0) thread2_sorted = idx->num == 2.0;
      continue;
    }
    const auto* nm = args->get("name");
    ASSERT_NE(nm, nullptr);
    if (item->get("name")->str == "process_name")
      proc_named = nm->str.rfind("proc: ", 0) == 0;
    if (item->get("name")->str == "thread_name" &&
        item->get("tid")->num == 2.0)
      thread2_named = nm->str == "rank 2";
  }
  EXPECT_TRUE(proc_named);
  EXPECT_TRUE(thread2_named);
  EXPECT_TRUE(thread2_sorted);
}

TEST(ObsMetrics, ScalarsAndSeriesExportAsJson) {
  MetricsRegistry reg;
  reg.set("a", 1.5);
  reg.add("a", 0.5);
  reg.add("b", 2);
  EXPECT_TRUE(reg.has("a"));
  EXPECT_FALSE(reg.has("missing"));
  EXPECT_DOUBLE_EQ(reg.get("a"), 2.0);
  EXPECT_DOUBLE_EQ(reg.get("b"), 2.0);
  reg.add_row("runs", {{"p", 4}, {"t", 9}});
  reg.add_row("runs", {{"p", 8}, {"t", 5}});

  std::ostringstream js;
  reg.write_json(js);
  const auto doc = json::parse(js.str());
  const auto* scalars = doc.get("scalars");
  ASSERT_NE(scalars, nullptr);
  ASSERT_NE(scalars->get("a"), nullptr);
  EXPECT_DOUBLE_EQ(scalars->get("a")->num, 2.0);
  const auto* series = doc.get("series");
  ASSERT_NE(series, nullptr);
  const auto* runs = series->get("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->items.size(), 2u);
  ASSERT_NE(runs->items[1]->get("p"), nullptr);
  EXPECT_DOUBLE_EQ(runs->items[1]->get("p")->num, 8.0);
  EXPECT_DOUBLE_EQ(runs->items[1]->get("t")->num, 5.0);
}

}  // namespace
}  // namespace colop::obs
