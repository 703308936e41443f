// Copyright 2026 The vfps Authors.

#include "bench/common/harness.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>

#include "src/matcher/clustered_base.h"
#include "src/matcher/static_matcher.h"
#include "src/util/simd.h"
#include "src/util/timer.h"

namespace vfps::bench {

Scale GetScale() {
  const char* env = std::getenv("VFPS_BENCH_SCALE");
  if (env == nullptr) return Scale::kCi;
  if (std::strcmp(env, "smoke") == 0) return Scale::kSmoke;
  if (std::strcmp(env, "full") == 0) return Scale::kFull;
  return Scale::kCi;
}

uint64_t Pick(uint64_t smoke, uint64_t ci, uint64_t full) {
  switch (GetScale()) {
    case Scale::kSmoke:
      return smoke;
    case Scale::kCi:
      return ci;
    case Scale::kFull:
      return full;
  }
  return ci;
}

BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    uint64_t* target = nullptr;
    std::string_view value;
    if (arg.rfind("--subs=", 0) == 0) {
      target = &args.subs;
      value = arg.substr(7);
    } else if (arg.rfind("--events=", 0) == 0) {
      target = &args.events;
      value = arg.substr(9);
    }
    char* end = nullptr;
    const unsigned long long parsed =
        target != nullptr ? std::strtoull(value.data(), &end, 10) : 0;
    if (target == nullptr || value.empty() ||
        end != value.data() + value.size() || parsed == 0) {
      std::fprintf(stderr,
                   "usage: %s [--subs=N] [--events=N]\n"
                   "  (N > 0; unset values use the VFPS_BENCH_SCALE "
                   "defaults)\n",
                   argv[0]);
      std::exit(2);
    }
    *target = parsed;
  }
  return args;
}

void PrintBanner(const std::string& title, const std::string& paper_ref,
                 const WorkloadSpec& spec) {
  const char* scale = "ci";
  if (GetScale() == Scale::kSmoke) scale = "smoke";
  if (GetScale() == Scale::kFull) scale = "full";
  std::printf("# %s\n", title.c_str());
  std::printf("# reproduces: %s\n", paper_ref.c_str());
  std::printf("# workload: %s\n", spec.ToString().c_str());
  std::printf("# scale: %s (set VFPS_BENCH_SCALE=smoke|ci|full)\n", scale);
  std::printf("# kernel_isa: %s (detected %s; override with VFPS_SIMD)\n",
              SimdIsaName(ActiveSimdIsa()), SimdIsaName(DetectedSimdIsa()));
}

const char* AlgoName(Algorithm a) {
  switch (a) {
    case Algorithm::kNaive:
      return "naive";
    case Algorithm::kCounting:
      return "counting";
    case Algorithm::kPropagation:
      return "propagation";
    case Algorithm::kPropagationPrefetch:
      return "propagation-wp";
    case Algorithm::kStatic:
      return "static";
    case Algorithm::kDynamic:
      return "dynamic";
    case Algorithm::kTree:
      return "tree";
  }
  return "?";
}

LoadResult BuildAndLoad(Algorithm algorithm,
                        const std::vector<Subscription>& subs,
                        const WorkloadGenerator& gen) {
  LoadResult result;
  result.matcher = MakeMatcher(algorithm);
  // The clustered matchers make ν-based placement decisions; give them the
  // event model of the workload up front (the paper's static algorithm has
  // "statistics on incoming data items" and the dynamic one learns online;
  // seeding approximates a short warm-up).
  if (auto* clustered =
          dynamic_cast<ClusteredMatcherBase*>(result.matcher.get())) {
    gen.SeedStatistics(clustered->mutable_statistics(), 10000.0);
  }
  Timer timer;
  if (auto* stat = dynamic_cast<StaticMatcher*>(result.matcher.get())) {
    Status status = stat->Build(subs);
    VFPS_CHECK(status.ok());
  } else {
    for (const Subscription& s : subs) {
      Status status = result.matcher->AddSubscription(s);
      VFPS_CHECK(status.ok());
    }
  }
  result.load_seconds = timer.ElapsedSeconds();
  return result;
}

namespace {

/// Small event lists finish in well under a millisecond on the fast
/// matchers, which makes single-pass rates too noisy for the CI regression
/// gate; repeat the whole list until the measurement window is at least
/// this long (and at least kMinMeasurePasses times), and report the rate
/// of the fastest pass — the peak is far less sensitive to interference
/// from co-tenants on shared CI runners than the mean.
constexpr double kMinMeasureSeconds = 0.3;
constexpr uint64_t kMinMeasurePasses = 3;

}  // namespace

Throughput MeasureThroughput(Matcher* matcher,
                             const std::vector<Event>& events) {
  matcher->ResetStats();
  std::vector<SubscriptionId> out;
  // Recorded directly (not via the matcher's AttachTelemetry) so the
  // distribution is available even under VFPS_TELEMETRY=OFF builds; the
  // extra clock read per event is charged to ms_per_event like the
  // matchers' own phase timers.
  Histogram latency_ns;
  uint64_t passes = 0;
  double best_pass_s = 0;
  Timer timer;
  do {
    Timer pass;
    for (const Event& e : events) {
      Timer per_event;
      matcher->Match(e, &out);
      latency_ns.Record(per_event.ElapsedNanos());
    }
    const double pass_s = pass.ElapsedSeconds();
    if (passes == 0 || pass_s < best_pass_s) best_pass_s = pass_s;
    ++passes;
  } while (timer.ElapsedSeconds() < kMinMeasureSeconds ||
           passes < kMinMeasurePasses);
  const double n = static_cast<double>(events.size() * passes);

  Throughput t;
  t.ms_per_event = best_pass_s * 1e3 / static_cast<double>(events.size());
  t.events_per_second = static_cast<double>(events.size()) / best_pass_s;
  const MatcherStats& stats = matcher->stats();
  t.phase1_ms = stats.phase1_seconds * 1e3 / n;
  t.phase2_ms = stats.phase2_seconds * 1e3 / n;
  t.checks_per_event = static_cast<double>(stats.subscription_checks) / n;
  t.matches_per_event = static_cast<double>(stats.matches) / n;
  t.p50_ms = static_cast<double>(latency_ns.ValueAtPercentile(50)) / 1e6;
  t.p99_ms = static_cast<double>(latency_ns.ValueAtPercentile(99)) / 1e6;
  t.max_ms = static_cast<double>(latency_ns.max()) / 1e6;
  return t;
}

BatchThroughput MeasureBatchThroughput(Matcher* matcher,
                                       const std::vector<Event>& events,
                                       size_t batch_size) {
  VFPS_CHECK(batch_size > 0);
  matcher->ResetStats();
  BatchResult out;
  Histogram batch_ns;
  uint64_t passes = 0;
  double best_pass_s = 0;
  Timer timer;
  do {
    Timer pass;
    for (size_t base = 0; base < events.size(); base += batch_size) {
      const size_t count = std::min(batch_size, events.size() - base);
      Timer per_batch;
      matcher->MatchBatch({events.data() + base, count}, &out);
      batch_ns.Record(per_batch.ElapsedNanos());
    }
    const double pass_s = pass.ElapsedSeconds();
    if (passes == 0 || pass_s < best_pass_s) best_pass_s = pass_s;
    ++passes;
  } while (timer.ElapsedSeconds() < kMinMeasureSeconds ||
           passes < kMinMeasurePasses);
  const double n = static_cast<double>(events.size() * passes);

  BatchThroughput t;
  t.batch_size = batch_size;
  t.ms_per_event = best_pass_s * 1e3 / static_cast<double>(events.size());
  t.events_per_second = static_cast<double>(events.size()) / best_pass_s;
  const MatcherStats& stats = matcher->stats();
  t.phase1_ms = stats.phase1_seconds * 1e3 / n;
  t.phase2_ms = stats.phase2_seconds * 1e3 / n;
  t.checks_per_event = static_cast<double>(stats.subscription_checks) / n;
  t.matches_per_event = static_cast<double>(stats.matches) / n;
  t.p50_batch_ms = static_cast<double>(batch_ns.ValueAtPercentile(50)) / 1e6;
  t.p99_batch_ms = static_cast<double>(batch_ns.ValueAtPercentile(99)) / 1e6;
  t.max_batch_ms = static_cast<double>(batch_ns.max()) / 1e6;
  return t;
}

BenchReport::BenchReport(std::string bench) : bench_(std::move(bench)) {}

void BenchReport::BeginRow() { rows_.emplace_back(); }

void BenchReport::Set(const std::string& key, double value) {
  VFPS_CHECK(!rows_.empty());
  rows_.back().num.emplace_back(key, value);
}

void BenchReport::SetText(const std::string& key, const std::string& value) {
  VFPS_CHECK(!rows_.empty());
  rows_.back().text.emplace_back(key, value);
}

void BenchReport::AddThroughputRow(const std::string& algorithm,
                                   uint64_t n_subs, const Throughput& t) {
  BeginRow();
  SetText("algorithm", algorithm);
  Set("n_subscriptions", static_cast<double>(n_subs));
  Set("ms_per_event", t.ms_per_event);
  Set("events_per_second", t.events_per_second);
  Set("phase1_ms", t.phase1_ms);
  Set("phase2_ms", t.phase2_ms);
  Set("checks_per_event", t.checks_per_event);
  Set("matches_per_event", t.matches_per_event);
  Set("p50_ms", t.p50_ms);
  Set("p99_ms", t.p99_ms);
  Set("max_ms", t.max_ms);
}

std::string BenchReport::WriteJson() const {
  const char* env = std::getenv("VFPS_RESULTS_DIR");
  const std::string dir = env != nullptr ? env : "results";
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "BenchReport: cannot create %s: %s\n", dir.c_str(),
                 std::strerror(errno));
    return "";
  }
  const char* scale = "ci";
  if (GetScale() == Scale::kSmoke) scale = "smoke";
  if (GetScale() == Scale::kFull) scale = "full";

  // kernel_isa is report-level: one process runs one ISA (ablation rows
  // that switch ISAs mid-run also carry a per-row kernel_isa column, and
  // the regression gate refuses cross-ISA comparisons either way).
  // runner_cores records the runner class (1-core runners fall back to
  // interleaved/1core modes in the threaded benches); threaded-mode rows
  // carry "mode" per row so the gate can skip rather than miscompare.
  std::string json = "{\"bench\":\"" + bench_ + "\",\"scale\":\"" + scale +
                     "\",\"kernel_isa\":\"" +
                     SimdIsaName(ActiveSimdIsa()) + "\",\"runner_cores\":" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\"rows\":[";
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (r > 0) json += ',';
    json += '{';
    bool first = true;
    for (const auto& [key, value] : rows_[r].text) {
      if (!first) json += ',';
      first = false;
      json += "\"" + key + "\":\"" + value + "\"";
    }
    for (const auto& [key, value] : rows_[r].num) {
      if (!first) json += ',';
      first = false;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", key.c_str(), value);
      json += buf;
    }
    json += '}';
  }
  json += "]}";

  const std::string path = dir + "/BENCH_" + bench_ + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchReport: cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return "";
  }
  std::fputs(json.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return path;
}

std::vector<EquilibriumWindow> RunDriftExperiment(
    Matcher* matcher, WorkloadGenerator* before, WorkloadGenerator* after,
    uint64_t windows_before, uint64_t windows_after,
    SubscriptionId first_live_id, const EquilibriumOptions& options) {
  const uint64_t turnover_ticks =
      options.population / options.churn_per_tick;
  const uint64_t drift_windows =
      (turnover_ticks + options.ticks_per_window - 1) /
      options.ticks_per_window;
  const uint64_t total_windows =
      windows_before + drift_windows + windows_after;
  const uint64_t switch_tick = windows_before * options.ticks_per_window;

  SubscriptionId oldest = first_live_id;
  SubscriptionId next_id = first_live_id + options.population;

  std::vector<EquilibriumWindow> rows;
  std::vector<SubscriptionId> out;
  uint64_t tick = 0;
  // Wall time spent in on_window_end is repaid out of subsequent ticks'
  // budgets, so periodic reorganization is charged like any other
  // maintenance instead of happening "between" simulated seconds for free.
  double carry_ms = 0;
  for (uint64_t w = 0; w < total_windows; ++w) {
    uint64_t window_events = 0;
    double window_churn_ms = 0;
    for (uint64_t i = 0; i < options.ticks_per_window; ++i, ++tick) {
      WorkloadGenerator* insert_gen = tick >= switch_tick ? after : before;
      WorkloadGenerator* event_gen = insert_gen;
      double budget = options.tick_budget_ms;
      if (carry_ms > 0) {
        const double repaid = std::min(carry_ms, budget);
        carry_ms -= repaid;
        budget -= repaid;
      }
      Timer timer;
      for (uint32_t c = 0; c < options.churn_per_tick; ++c) {
        Status st = matcher->RemoveSubscription(oldest++);
        VFPS_CHECK(st.ok());
        st = matcher->AddSubscription(insert_gen->NextSubscription(next_id++));
        VFPS_CHECK(st.ok());
      }
      window_churn_ms += timer.ElapsedMillis();
      // Spend the rest of the simulated second matching events.
      while (timer.ElapsedMillis() < budget) {
        matcher->Match(event_gen->NextEvent(), &out);
        ++window_events;
      }
    }
    EquilibriumWindow row;
    row.window = w;
    row.events_per_tick = static_cast<double>(window_events) /
                          static_cast<double>(options.ticks_per_window);
    row.churn_ms_per_tick =
        window_churn_ms / static_cast<double>(options.ticks_per_window);
    rows.push_back(row);
    if (options.on_window_end) {
      Timer reorg;
      options.on_window_end();
      carry_ms += reorg.ElapsedMillis();
    }
  }
  return rows;
}

}  // namespace vfps::bench
