// Trace-context: TraceId shape and uniqueness under concurrent minting,
// SpanId monotonicity and reset, ScopedTrace restore semantics, and the
// full id round trip — recorded bundle -> store -> diff JSON.

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "colop/obs/json.h"
#include "colop/obs/run_diff.h"
#include "colop/obs/run_store.h"
#include "colop/obs/trace_context.h"

namespace obs = colop::obs;

namespace {

bool is_hex16(const std::string& id) {
  return id.size() == 16 &&
         std::all_of(id.begin(), id.end(), [](char c) {
           return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
         });
}

TEST(TraceContext, MintedIdsAreHex16) {
  for (int i = 0; i < 32; ++i) EXPECT_TRUE(is_hex16(obs::mint_trace_id()));
}

TEST(TraceContext, ConcurrentMintingIsUnique) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 64;
  std::vector<std::vector<std::string>> minted(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&minted, t] {
      minted[static_cast<std::size_t>(t)].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i)
        minted[static_cast<std::size_t>(t)].push_back(obs::mint_trace_id());
    });
  for (auto& w : workers) w.join();

  std::set<std::string> unique;
  for (const auto& per_thread : minted)
    for (const auto& id : per_thread) {
      EXPECT_TRUE(is_hex16(id));
      unique.insert(id);
    }
  EXPECT_EQ(unique.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(TraceContext, ScopedTraceRestoresPrevious) {
  obs::set_trace_id("00000000000000aa");
  {
    const obs::ScopedTrace inner("00000000000000bb");
    EXPECT_EQ(obs::trace_id(), "00000000000000bb");
    EXPECT_EQ(inner.id(), "00000000000000bb");
  }
  EXPECT_EQ(obs::trace_id(), "00000000000000aa");
  obs::set_trace_id("");
  EXPECT_TRUE(obs::trace_id().empty());
  EXPECT_TRUE(obs::trace_id_json_field().empty());
}

// The satellite round trip: a minted id stamped into a recorded bundle
// must come back out of the archive AND out of the diff JSON unchanged.
TEST(TraceContext, IdRoundTripsThroughBundleAndDiffJson) {
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / "trace_roundtrip";
  std::filesystem::remove_all(root);
  const obs::RunStore store(root.string());

  auto record = [&](int p) {
    const obs::ScopedTrace trace;  // mints a fresh id
    obs::RunBundle bundle;
    bundle.trace_id = obs::trace_id();
    bundle.timestamp = "2026-08-08 10:00:00";
    bundle.timestamp_ns = static_cast<std::uint64_t>(p);
    bundle.machine = {p, 64, 400, 2};
    bundle.program_before = bundle.program_after = "scan(+)";
    bundle.stages_after = {{0, "scan(+)", "scan", false, "", 10.0 * p}};
    bundle.model_cost_after = 10.0 * p;
    store.save(bundle);
    return bundle.trace_id;
  };
  const std::string id_a = record(4);
  const std::string id_b = record(8);
  ASSERT_NE(id_a, id_b);

  const obs::RunBundle a = store.resolve(id_a);
  const obs::RunBundle b = store.resolve(id_b);
  EXPECT_EQ(a.trace_id, id_a);  // archive round trip
  EXPECT_EQ(b.trace_id, id_b);

  std::ostringstream os;
  obs::diff_runs(a, b).write_json(os);
  const auto doc = obs::json::parse(os.str());
  EXPECT_EQ(doc.get("runs")->get("a")->get("trace_id")->str, id_a);
  EXPECT_EQ(doc.get("runs")->get("b")->get("trace_id")->str, id_b);
}

}  // namespace
