#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <vector>

#include "json_check.hpp"
#include "runtime/thread_pool.hpp"

namespace adsec::telemetry {
namespace {

// The registry is process-global and shared with the instrumented library
// code, so each test uses its own instrument names and starts from zeroed
// values with metrics enabled.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_metrics_values();
    set_metrics_enabled(true);
  }
  void TearDown() override { set_metrics_enabled(false); }

  static std::uint64_t counter_value(const MetricsSnapshot& snap,
                                     const std::string& name) {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "counter " << name << " not in snapshot";
    return 0;
  }

  static const HistogramSnapshot* find_hist(const MetricsSnapshot& snap,
                                            const std::string& name) {
    for (const auto& h : snap.histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  }
};

TEST_F(MetricsTest, CounterAccumulates) {
  Counter c = counter("test.metrics.basic");
  c.inc();
  c.inc(41);
  EXPECT_EQ(counter_value(metrics_snapshot(), "test.metrics.basic"), 42u);
}

TEST_F(MetricsTest, SameNameSharesInstrument) {
  Counter a = counter("test.metrics.shared");
  Counter b = counter("test.metrics.shared");
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(counter_value(metrics_snapshot(), "test.metrics.shared"), 7u);
}

TEST_F(MetricsTest, DisabledIncIsDropped) {
  Counter c = counter("test.metrics.disabled");
  set_metrics_enabled(false);
  c.inc(100);
  set_metrics_enabled(true);
  c.inc(1);
  EXPECT_EQ(counter_value(metrics_snapshot(), "test.metrics.disabled"), 1u);
}

TEST_F(MetricsTest, DefaultConstructedHandleIsNoOp) {
  Counter c;
  c.inc(5);  // must not crash or count anywhere
  Gauge g;
  g.set(1.0);
  Histogram h;
  h.observe(1.0);
}

TEST_F(MetricsTest, GaugeIsLastWriteWins) {
  Gauge g = gauge("test.metrics.gauge");
  g.set(1.5);
  g.set(-3.25);
  const MetricsSnapshot snap = metrics_snapshot();
  bool found = false;
  for (const auto& [n, v] : snap.gauges) {
    if (n == "test.metrics.gauge") {
      EXPECT_DOUBLE_EQ(v, -3.25);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MetricsTest, HistogramBucketsSamplesCorrectly) {
  Histogram h = histogram("test.metrics.hist", {1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0: <= 1
  h.observe(1.0);   // bucket 0 (upper bound inclusive)
  h.observe(1.5);   // bucket 1: (1, 2]
  h.observe(3.0);   // bucket 2: (2, 4]
  h.observe(100.0);  // overflow bucket
  const MetricsSnapshot full = metrics_snapshot();
  const HistogramSnapshot* snap = find_hist(full, "test.metrics.hist");
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap->counts[0], 2u);
  EXPECT_EQ(snap->counts[1], 1u);
  EXPECT_EQ(snap->counts[2], 1u);
  EXPECT_EQ(snap->counts[3], 1u);
  EXPECT_EQ(snap->count, 5u);
  EXPECT_DOUBLE_EQ(snap->sum, 0.5 + 1.0 + 1.5 + 3.0 + 100.0);
}

TEST_F(MetricsTest, QuantilesInterpolateWithinBuckets) {
  Histogram h = histogram("test.metrics.quant", {10.0, 20.0, 30.0});
  // 10 samples in (10, 20]: the p50 of the distribution sits mid-bucket.
  for (int i = 0; i < 10; ++i) h.observe(15.0);
  const MetricsSnapshot full = metrics_snapshot();
  const HistogramSnapshot* snap = find_hist(full, "test.metrics.quant");
  ASSERT_NE(snap, nullptr);
  // All mass in bucket (10, 20]: quantiles interpolate across that bucket.
  EXPECT_DOUBLE_EQ(snap->quantile(0.0), 10.0);
  EXPECT_NEAR(snap->quantile(0.5), 15.0, 1.0);
  EXPECT_DOUBLE_EQ(snap->quantile(1.0), 20.0);
  // Empty histogram: quantile is defined as 0. Registering is the side
  // effect we need; the handle itself is not.
  (void)histogram("test.metrics.quant_empty", {1.0});
  const MetricsSnapshot full2 = metrics_snapshot();
  const HistogramSnapshot* esnap = find_hist(full2, "test.metrics.quant_empty");
  ASSERT_NE(esnap, nullptr);
  EXPECT_DOUBLE_EQ(esnap->quantile(0.5), 0.0);
}

TEST_F(MetricsTest, OverflowQuantileClampsToLastBound) {
  Histogram h = histogram("test.metrics.overflow", {1.0, 2.0});
  for (int i = 0; i < 4; ++i) h.observe(50.0);  // all overflow
  const MetricsSnapshot full = metrics_snapshot();
  const HistogramSnapshot* snap = find_hist(full, "test.metrics.overflow");
  ASSERT_NE(snap, nullptr);
  EXPECT_DOUBLE_EQ(snap->quantile(0.99), 2.0);
}

TEST_F(MetricsTest, CountsMergeAcrossPoolThreads) {
  Counter c = counter("test.metrics.pool");
  Histogram h = histogram("test.metrics.pool_hist", {8.0, 64.0, 512.0});
  constexpr int kTasks = 64;
  constexpr int kIncsPerTask = 1000;
  {
    ThreadPool pool(4);
    std::vector<std::future<void>> fs;
    fs.reserve(kTasks);
    for (int t = 0; t < kTasks; ++t) {
      fs.push_back(pool.submit([&c, &h] {
        for (int i = 0; i < kIncsPerTask; ++i) {
          c.inc();
          h.observe(static_cast<double>(i));
        }
      }));
    }
    for (auto& f : fs) f.get();
  }
  const MetricsSnapshot snap = metrics_snapshot();
  EXPECT_EQ(counter_value(snap, "test.metrics.pool"),
            static_cast<std::uint64_t>(kTasks) * kIncsPerTask);
  const HistogramSnapshot* hs = find_hist(snap, "test.metrics.pool_hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, static_cast<std::uint64_t>(kTasks) * kIncsPerTask);
}

TEST_F(MetricsTest, HistogramRejectsNonStrictlyIncreasingBounds) {
  // Equal adjacent bounds would create a zero-width bucket; the registry
  // must hand back a no-op instrument instead of a skewed histogram.
  Histogram dup = histogram("test.metrics.dup_bounds", {1.0, 1.0, 2.0});
  dup.observe(1.5);  // must be a safe no-op
  Histogram desc = histogram("test.metrics.desc_bounds", {2.0, 1.0});
  desc.observe(0.5);
  const MetricsSnapshot snap = metrics_snapshot();
  EXPECT_EQ(find_hist(snap, "test.metrics.dup_bounds"), nullptr);
  EXPECT_EQ(find_hist(snap, "test.metrics.desc_bounds"), nullptr);
}

TEST_F(MetricsTest, ResetZeroesValuesButKeepsHandles) {
  Counter c = counter("test.metrics.reset");
  c.inc(9);
  reset_metrics_values();
  EXPECT_EQ(counter_value(metrics_snapshot(), "test.metrics.reset"), 0u);
  c.inc(2);  // handle still live after reset
  EXPECT_EQ(counter_value(metrics_snapshot(), "test.metrics.reset"), 2u);
}

TEST_F(MetricsTest, SnapshotJsonIsValid) {
  counter("test.metrics.json").inc(7);
  gauge("test.metrics.json_gauge").set(0.25);
  Histogram h = histogram("test.metrics.json_hist", {1.0, 10.0});
  h.observe(0.5);
  h.observe(99.0);
  const std::string json = metrics_snapshot().to_json();
  EXPECT_TRUE(testjson::valid_json(json)) << json;
  EXPECT_NE(json.find("\"test.metrics.json\""), std::string::npos);
  EXPECT_NE(json.find("\"test.metrics.json_hist\""), std::string::npos);
}

}  // namespace
}  // namespace adsec::telemetry
