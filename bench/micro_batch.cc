// Copyright 2026 The vfps Authors.
// Batched-matching ablation: per-event Match vs MatchBatch at batch sizes
// {1, 8, 64, 256} under workload W0, plus the served configuration
// (dynamic without seeded statistics) at batch sizes 1 and 256, before and
// after its cold-start census. The batched pipeline amortizes phase 1
// across duplicate (attribute, value) pairs and turns phase 2 into one
// columnar sweep per cluster for the whole batch, so clustered matchers
// should pull well ahead of the per-event path once batches reach
// cache-friendly sizes. Two "lang" rows time the served path's ingest,
// ParseEvent and ParseCondition, on the text of the same events and
// subscriptions, and two "framing" rows time the server's line framing
// (LineBuffer::TakeLines + PopLine) of 10k pipelined SUB lines, drained in
// one read round and 4 KiB per round: linear framing reads the same in
// both. CI's bench-smoke job runs this with --subs=50000 --events=2000 and
// gates on the recorded events/s (parses/s for the lang rows, lines/s for
// the framing rows).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common/harness.h"
#include "src/core/schema_registry.h"
#include "src/lang/parser.h"
#include "src/matcher/clustered_base.h"
#include "src/matcher/dynamic_matcher.h"
#include "src/net/line_buffer.h"
#include "src/util/macros.h"
#include "src/util/timer.h"

namespace vfps::bench {
namespace {

// W0 rendered as the served-path benchmark sends it: attribute i is named
// "a<i>", events are "a3 = 17, a9 = 2, ..." and subscriptions are
// "a0 = 3 AND a4 <= 17 ...".
std::string EventText(const Event& e) {
  std::string text;
  for (const EventPair& p : e.pairs()) {
    if (!text.empty()) text += ", ";
    text.append("a").append(std::to_string(p.attribute)).append(" = ");
    text.append(std::to_string(p.value));
  }
  return text;
}

std::string ConditionText(const Subscription& s) {
  std::string text;
  for (const Predicate& p : s.predicates()) {
    if (!text.empty()) text += " AND ";
    text.append("a").append(std::to_string(p.attribute)).append(" ");
    text.append(RelOpToString(p.op)).append(" ");
    text.append(std::to_string(p.value));
  }
  return text;
}

// Parses every text, in passes, into a registry that already holds
// a0..a31 (as the server's does once the first events are in), and
// reports the fastest pass, on the harness's policy: at least 3 passes
// and 0.3 s.
template <typename ParseFn>
void MeasureParse(const char* mode, const std::vector<std::string>& texts,
                  uint64_t n_subs, ParseFn parse, BenchReport* report) {
  SchemaRegistry schema;
  for (int a = 0; a < 32; ++a) {
    schema.InternAttribute(std::string("a").append(std::to_string(a)));
  }
  size_t bytes = 0;
  for (const std::string& text : texts) bytes += text.size();
  uint64_t passes = 0;
  double best_pass_s = 0;
  Timer timer;
  do {
    Timer pass;
    for (const std::string& text : texts) VFPS_CHECK(parse(text, &schema));
    const double pass_s = pass.ElapsedSeconds();
    if (passes == 0 || pass_s < best_pass_s) best_pass_s = pass_s;
    ++passes;
  } while (timer.ElapsedSeconds() < 0.3 || passes < 3);
  const double ns_per_parse =
      best_pass_s * 1e9 / static_cast<double>(texts.size());
  std::printf("%-16s %-16s %12.1f %12.1f %10.1f\n", "lang", mode,
              ns_per_parse, 1e9 / ns_per_parse,
              static_cast<double>(bytes) / static_cast<double>(texts.size()));
  report->BeginRow();
  report->SetText("algorithm", "lang");
  report->SetText("mode", mode);
  report->Set("n_subscriptions", static_cast<double>(n_subs));
  report->Set("ns_per_parse", ns_per_parse);
  report->Set("events_per_second", 1e9 / ns_per_parse);
}

// Frames `stream` the way the server's loop and worker do: `round_bytes`
// arrive per read round, each round's complete lines leave as one block,
// and the block is split into lines. Fastest pass, on MeasureParse's
// policy.
void MeasureFraming(const char* mode, const std::string& stream,
                    size_t round_bytes, BenchReport* report) {
  uint64_t passes = 0;
  double best_pass_s = 0;
  size_t lines = 0;
  Timer timer;
  do {
    Timer pass;
    LineBuffer buffer;
    std::string block;
    lines = 0;
    for (size_t at = 0; at < stream.size(); at += round_bytes) {
      buffer.Feed(std::string_view(stream).substr(at, round_bytes));
      if (!buffer.TakeLines(&block)) continue;
      std::string_view rest = block;
      std::string_view line;
      while (PopLine(&rest, &line)) ++lines;
    }
    const double pass_s = pass.ElapsedSeconds();
    if (passes == 0 || pass_s < best_pass_s) best_pass_s = pass_s;
    ++passes;
  } while (timer.ElapsedSeconds() < 0.3 || passes < 3);
  const double ns_per_line = best_pass_s * 1e9 / static_cast<double>(lines);
  std::printf("%-16s %-16s %12.1f %12.1f %10zu\n", "framing", mode,
              ns_per_line, 1e9 / ns_per_line, stream.size());
  report->BeginRow();
  report->SetText("algorithm", "framing");
  report->SetText("mode", mode);
  report->Set("n_subscriptions", static_cast<double>(lines));
  report->Set("ns_per_line", ns_per_line);
  report->Set("events_per_second", 1e9 / ns_per_line);
}

int Run(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  const uint64_t n_subs =
      args.subs != 0 ? args.subs : Pick(20000, 100000, 1000000);
  const uint64_t num_events =
      args.events != 0 ? args.events : Pick(500, 2000, 10000);
  const std::vector<size_t> batch_sizes{1, 8, 64, 256};

  WorkloadSpec spec = workloads::W0(n_subs);
  PrintBanner("micro_batch",
              "MatchBatch ablation (this repo's batched pipeline; not a "
              "paper figure): events/s vs batch size",
              spec);

  // counting has no native batch kernel (it uses the default loop) and
  // anchors the comparison; the clustered algorithms exercise the
  // stripe-parallel phase 1 + columnar phase 2 kernels.
  const std::vector<Algorithm> algorithms{
      Algorithm::kCounting, Algorithm::kPropagationPrefetch,
      Algorithm::kStatic, Algorithm::kDynamic};

  WorkloadGenerator gen(spec);
  std::vector<Subscription> subs = gen.MakeSubscriptions(n_subs, 1);
  std::vector<Event> events = gen.MakeEvents(num_events);

  std::printf("\n%-16s %-10s %12s %12s %10s %10s %10s\n", "algorithm",
              "batch", "ms/event", "events/s", "speedup", "ph1 ms",
              "ph2 ms");
  BenchReport report("micro_batch");
  for (Algorithm algo : algorithms) {
    LoadResult loaded = BuildAndLoad(algo, subs, gen);
    Throughput base = MeasureThroughput(loaded.matcher.get(), events);
    std::printf("%-16s %-10s %12.4f %12.1f %10s %10.4f %10.4f\n",
                AlgoName(algo), "match", base.ms_per_event,
                base.events_per_second, "1.00x", base.phase1_ms,
                base.phase2_ms);
    report.BeginRow();
    report.SetText("algorithm", AlgoName(algo));
    report.SetText("mode", "match");
    report.Set("n_subscriptions", static_cast<double>(n_subs));
    report.Set("batch_size", 1);
    report.Set("ms_per_event", base.ms_per_event);
    report.Set("events_per_second", base.events_per_second);
    report.Set("speedup_vs_match", 1.0);
    for (size_t batch : batch_sizes) {
      BatchThroughput t =
          MeasureBatchThroughput(loaded.matcher.get(), events, batch);
      const double speedup =
          t.events_per_second / base.events_per_second;
      std::printf("%-16s %-10zu %12.4f %12.1f %9.2fx %10.4f %10.4f\n",
                  AlgoName(algo), batch, t.ms_per_event, t.events_per_second,
                  speedup, t.phase1_ms, t.phase2_ms);
      report.BeginRow();
      report.SetText("algorithm", AlgoName(algo));
      report.SetText("mode", "batch");
      report.Set("n_subscriptions", static_cast<double>(n_subs));
      report.Set("batch_size", static_cast<double>(batch));
      report.Set("ms_per_event", t.ms_per_event);
      report.Set("events_per_second", t.events_per_second);
      report.Set("speedup_vs_match", speedup);
      report.Set("checks_per_event", t.checks_per_event);
      report.Set("matches_per_event", t.matches_per_event);
      report.Set("p99_batch_ms", t.p99_batch_ms);
    }
  }
  // The served configuration: vfps_server runs dynamic without seeded
  // statistics. Loaded before any event, it holds every subscription on
  // singleton placement (no benefit can be priced at zero event weight)
  // until kColdCensusSamples sampled events make its census due. The
  // dynamic-unseeded rows measure that singleton placement: the matcher
  // samples nothing, so the census never comes inside the timed loops.
  // The dynamic-warmed rows take the served matcher itself from a cold
  // load through its census (census_ms: wall time the census added to the
  // matcher calls that ran it) and then measure where it converged.
  auto served_rows = [&](const char* name, Matcher* matcher,
                         double census_ms) {
    const size_t n_tables =
        dynamic_cast<const ClusteredMatcherBase&>(*matcher)
            .TableSchemas()
            .size();
    std::printf("# %s: %zu multi-attribute tables\n", name, n_tables);
    for (size_t batch : {size_t{1}, size_t{256}}) {
      BatchThroughput t = MeasureBatchThroughput(matcher, events, batch);
      std::printf("%-16s %-10zu %12.4f %12.1f %10s %10.4f %10.4f\n", name,
                  batch, t.ms_per_event, t.events_per_second, "-",
                  t.phase1_ms, t.phase2_ms);
      report.BeginRow();
      report.SetText("algorithm", name);
      report.SetText("mode", "batch");
      report.Set("n_subscriptions", static_cast<double>(n_subs));
      report.Set("batch_size", static_cast<double>(batch));
      report.Set("n_tables", static_cast<double>(n_tables));
      if (census_ms >= 0) report.Set("census_ms", census_ms);
      report.Set("ms_per_event", t.ms_per_event);
      report.Set("events_per_second", t.events_per_second);
      report.Set("checks_per_event", t.checks_per_event);
      report.Set("matches_per_event", t.matches_per_event);
      report.Set("p99_batch_ms", t.p99_batch_ms);
    }
  };
  {
    DynamicMatcher matcher(DynamicOptions{}, /*use_prefetch=*/true,
                           /*observe_sample_rate=*/0);
    for (const Subscription& s : subs) {
      VFPS_CHECK(matcher.AddSubscription(s).ok());
    }
    served_rows("dynamic-unseeded", &matcher, -1);
  }
  {
    std::unique_ptr<Matcher> matcher = MakeMatcher(Algorithm::kDynamic);
    for (const Subscription& s : subs) {
      VFPS_CHECK(matcher->AddSubscription(s).ok());
    }
    const auto& dynamic = dynamic_cast<const DynamicMatcher&>(*matcher);
    // Batches of 100, as servbench's match_w0 publishes, until the census
    // has started and finished. Matching time inside the census calls is
    // taken out with the phase timers.
    constexpr size_t kWarmBatch = 100;
    BatchResult out;
    double census_ms = 0;
    size_t next = 0;
    for (uint64_t calls = 0;
         dynamic.maintenance_stats().sweeps == 0 ||
         dynamic.sweep_in_progress();
         ++calls) {
      VFPS_CHECK(calls < 100000);  // the census never came
      if (next + kWarmBatch > events.size()) next = 0;
      const bool census_before = dynamic.sweep_in_progress();
      const MatcherStats before = matcher->stats();
      Timer call;
      matcher->MatchBatch({events.data() + next, kWarmBatch}, &out);
      const double call_ms = call.ElapsedSeconds() * 1e3;
      next += kWarmBatch;
      if (census_before || dynamic.maintenance_stats().sweeps != 0) {
        const MatcherStats& after = matcher->stats();
        const double match_ms = (after.phase1_seconds + after.phase2_seconds -
                                 before.phase1_seconds -
                                 before.phase2_seconds) *
                                1e3;
        census_ms += std::max(0.0, call_ms - match_ms);
      }
    }
    served_rows("dynamic-warmed", matcher.get(), census_ms);
  }
  {
    std::vector<std::string> event_texts;
    event_texts.reserve(events.size());
    for (const Event& e : events) event_texts.push_back(EventText(e));
    std::vector<std::string> condition_texts;
    condition_texts.reserve(subs.size());
    for (const Subscription& s : subs) {
      condition_texts.push_back(ConditionText(s));
    }
    std::printf("\n%-16s %-16s %12s %12s %10s\n", "algorithm", "mode",
                "ns/parse", "parses/s", "bytes");
    MeasureParse(
        "parse_event", event_texts, n_subs,
        [](const std::string& text, SchemaRegistry* schema) {
          return ParseEvent(text, schema).ok();
        },
        &report);
    MeasureParse(
        "parse_condition", condition_texts, n_subs,
        [](const std::string& text, SchemaRegistry* schema) {
          return ParseCondition(text, schema).ok();
        },
        &report);

    // 10k SUB lines pipelined back to back, as servbench loads them.
    constexpr size_t kFramedLines = 10000;
    std::string stream;
    for (size_t i = 0; i < kFramedLines; ++i) {
      stream.append("SUB ")
          .append(condition_texts[i % condition_texts.size()])
          .append("\n");
    }
    std::printf("\n%-16s %-16s %12s %12s %10s\n", "algorithm", "mode",
                "ns/line", "lines/s", "bytes");
    MeasureFraming("one_round", stream, stream.size(), &report);
    MeasureFraming("4k_rounds", stream, 4096, &report);
  }
  const std::string report_path = report.WriteJson();
  if (!report_path.empty()) {
    std::printf("\n# wrote %s\n", report_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace vfps::bench

int main(int argc, char** argv) { return vfps::bench::Run(argc, argv); }
