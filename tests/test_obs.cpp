// The observability core: the strict JSON parser, the Chrome trace-event
// exporter validated by round-tripping through it, and the measurement
// document registry.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "colop/obs/chrome_trace.h"
#include "colop/obs/json.h"
#include "colop/obs/metrics.h"
#include "colop/obs/event.h"
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

std::vector<Event> sample_events() {
  std::vector<Event> evs;
  Event b;
  b.phase = Phase::begin;
  b.name = "stage";
  b.cat = "exec";
  b.ts = 10;
  b.tid = 0;
  evs.push_back(b);
  Event e = b;
  e.phase = Phase::end;
  e.ts = 25;
  evs.push_back(e);
  Event x;
  x.phase = Phase::complete;
  x.name = "compute";
  x.cat = "simnet";
  x.ts = 12;
  x.dur = 8;
  x.tid = 2;
  evs.push_back(x);
  Event i;
  i.phase = Phase::instant;
  i.name = "send";
  i.cat = "mpsim";
  i.ts = 13;
  i.tid = 2;
  i.args.emplace_back("dest", "3");
  evs.push_back(i);
  Event c;
  c.phase = Phase::counter;
  c.name = "messages";
  c.cat = "mpsim";
  c.ts = 14;
  c.value = 42;
  evs.push_back(c);
  return evs;
}

TEST(ObsChromeTrace, ExportRoundTripsThroughTheStrictParser) {
  std::ostringstream os;
  write_chrome_trace(sample_events(), os, "proc", "rank");
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
    EXPECT_TRUE(code == "B" || code == "E" || code == "X" || code == "i" ||
                code == "C" || code == "M")
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
    if (code == "C") {
      const auto* args = item->get("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->get("messages"), nullptr);
      EXPECT_DOUBLE_EQ(args->get("messages")->num, 42.0);
    }
    ++phases[code];
  }
  // One process_name plus one thread_name and one thread_sort_index per
  // distinct tid {0, 2}.
  EXPECT_EQ(phases["M"], 5);
  EXPECT_EQ(phases["B"], 1);
  EXPECT_EQ(phases["E"], 1);
  EXPECT_EQ(phases["X"], 1);
  EXPECT_EQ(phases["i"], 1);
  EXPECT_EQ(phases["C"], 1);
}

TEST(ObsChromeTrace, MetadataNamesProcessAndThreads) {
  std::ostringstream os;
  write_chrome_trace(sample_events(), os, "proc", "rank");
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
      proc_named = nm->str == "proc";
    if (item->get("name")->str == "thread_name" &&
        item->get("tid")->num == 2.0)
      thread2_named = nm->str == "rank2";
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
