// Copyright 2026 The vfps Authors.
// Concurrency tests for the telemetry instruments: counters and histograms
// are hammered from many threads while another thread exports, and the
// final totals must be exact. Runs under the `concurrency` ctest label so
// the ThreadSanitizer CI job exercises it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/telemetry/metrics.h"

namespace vfps {
namespace {

constexpr int kThreads = 8;
constexpr int kItersPerThread = 20000;

TEST(TelemetryConcurrencyTest, CounterIncrementsAreNotLost) {
  Counter counter;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kItersPerThread; ++i) counter.Inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<uint64_t>(kThreads) * kItersPerThread);
}

TEST(TelemetryConcurrencyTest, HistogramRecordsAreNotLost) {
  Histogram hist;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        hist.Record(static_cast<int64_t>(t) * 1000 + i % 100);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads) * kItersPerThread);
  EXPECT_EQ(hist.max(),
            static_cast<uint64_t>(kThreads - 1) * 1000 + 99);
}

TEST(TelemetryConcurrencyTest, RegistryLookupsAndExportsRace) {
  // Writers resolve instruments through the registry and record; a reader
  // exports concurrently. The registry hands out stable pointers, so the
  // totals at the end are exact and the exports must never crash or tear.
  MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> live{0};
  reg.RegisterGauge("vfps_test_live", [&live] { return live.load(); });

  std::thread exporter([&reg, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string json = reg.ExportJson();
      ASSERT_FALSE(json.empty());
      const std::string prom = reg.ExportPrometheus();
      ASSERT_FALSE(prom.empty());
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, &live, t] {
      // Half the threads share one series, half use per-thread series, so
      // both same-instrument contention and map growth get exercised.
      const std::string name = (t % 2 == 0)
                                   ? std::string("vfps_test_shared_total")
                                   : "vfps_test_t" + std::to_string(t) +
                                         "_total";
      for (int i = 0; i < kItersPerThread; ++i) {
        reg.GetCounter(name)->Inc();
        reg.GetHistogram("vfps_test_ns")->Record(i);
        live.fetch_add(i % 2 == 0 ? 1 : -1);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  exporter.join();

  uint64_t total = reg.GetCounter("vfps_test_shared_total")->value();
  for (int t = 1; t < kThreads; t += 2) {
    total += reg.GetCounter("vfps_test_t" + std::to_string(t) + "_total")
                 ->value();
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kItersPerThread);
  EXPECT_EQ(reg.GetHistogram("vfps_test_ns")->count(),
            static_cast<uint64_t>(kThreads) * kItersPerThread);
}

}  // namespace
}  // namespace vfps
