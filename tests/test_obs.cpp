// Observability subsystem: JSONL event tracing, perf counters, sweep
// progress and the Chrome-trace exporter.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "mobility/contact_trace.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/progress.hpp"
#include "routing/engine.hpp"
#include "routing/factory.hpp"

namespace epi {
namespace {

/// Splits a stream into its non-empty lines.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Cheap structural well-formedness check for one flat JSON object: starts
/// '{', ends '}', quotes pair up, no nested braces (our schema is flat).
bool looks_like_flat_json(const std::string& line) {
  if (line.size() < 2 || line.front() != '{' || line.back() != '}') {
    return false;
  }
  std::size_t quotes = 0;
  for (std::size_t i = 1; i + 1 < line.size(); ++i) {
    if (line[i] == '"') ++quotes;
    if (line[i] == '{' || line[i] == '}') return false;
  }
  return quotes % 2 == 0;
}

std::size_t count_kind(const std::vector<std::string>& lines,
                       std::string_view kind) {
  const std::string needle = "\"ev\":\"" + std::string(kind) + "\"";
  std::size_t n = 0;
  for (const auto& line : lines) {
    if (line.find(needle) != std::string::npos) ++n;
  }
  return n;
}

double field_of(const std::string& line, std::string_view key) {
  // Appended piecewise: GCC 12 misreads the inlined `"\"" + std::string(key)`
  // temporaries as overlapping memcpy ranges (-Wrestrict).
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::atof(line.c_str() + pos + needle.size());
}

/// A deterministic two-node scenario: three contacts, each affording slots.
mobility::ContactTrace two_node_trace() {
  return mobility::ContactTrace({
      {0, 1, 100.0, 450.0},
      {0, 1, 1'000.0, 1'350.0},
      {0, 1, 2'000.0, 2'250.0},
  });
}

metrics::RunSummary run_two_node(obs::TraceSink* sink) {
  SimulationConfig config;
  config.node_count = 2;
  config.load = 3;
  config.source = 0;
  config.destination = 1;
  config.horizon = 5'000.0;
  config.protocol.kind = ProtocolKind::kPureEpidemic;
  const mobility::ContactTrace trace = two_node_trace();  // must outlive run()
  routing::Engine engine(config, trace,
                         routing::make_protocol(config.protocol), /*seed=*/7);
  engine.set_trace_sink(sink, /*replication=*/4);
  return engine.run();
}

TEST(JsonlSink, EmitsWellFormedRecordsInEventOrder) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  const metrics::RunSummary summary = run_two_node(&sink);

  const auto lines = lines_of(out.str());
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.size(), sink.records());

  double last_t = 0.0;
  for (const auto& line : lines) {
    EXPECT_TRUE(looks_like_flat_json(line)) << line;
    EXPECT_NE(line.find("\"protocol\":\"pure_epidemic\""), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"load\":3"), std::string::npos) << line;
    EXPECT_NE(line.find("\"rep\":4"), std::string::npos) << line;
    // Records arrive in simulation order.
    const double t = field_of(line, "t");
    EXPECT_GE(t, last_t) << line;
    last_t = t;
  }

  // Every contact is narrated up (the run may stop mid-contact once all
  // bundles are delivered, so contact_down can lag), every creation/store/
  // transfer/delivery appears.
  EXPECT_EQ(count_kind(lines, "contact_up"), summary.contacts);
  EXPECT_LE(count_kind(lines, "contact_down"), summary.contacts);
  EXPECT_EQ(count_kind(lines, "created"), 3u);
  EXPECT_EQ(count_kind(lines, "transferred"), summary.bundle_transmissions);
  EXPECT_EQ(count_kind(lines, "delivered"),
            static_cast<std::size_t>(
                std::lround(summary.delivery_ratio * 3.0)));
}

TEST(JsonlSink, NullSinkAddsNothingAndDoesNotPerturbTheRun) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  const metrics::RunSummary traced = run_two_node(&sink);
  const metrics::RunSummary untraced = run_two_node(nullptr);

  EXPECT_GT(sink.records(), 0u);
  // Tracing is pure observation: every outcome is identical without it.
  EXPECT_EQ(traced.delivery_ratio, untraced.delivery_ratio);
  EXPECT_EQ(traced.completion_time, untraced.completion_time);
  EXPECT_EQ(traced.bundle_transmissions, untraced.bundle_transmissions);
  EXPECT_EQ(traced.contacts, untraced.contacts);
  EXPECT_EQ(traced.perf.events_processed, untraced.perf.events_processed);
  EXPECT_EQ(traced.perf.peak_queue_depth, untraced.perf.peak_queue_depth);
}

TEST(JsonlSink, GrowsPastTheStackBufferInsteadOfDropping) {
  std::ostringstream out;
  obs::JsonlSink sink(out);

  // A record past the 256-byte stack fast path is written whole via an
  // exact-size heap retry, not dropped: losing records silently poisoned
  // every downstream reconciliation.
  const std::string huge(400, 'x');
  obs::TraceEvent big;
  big.kind = obs::EventKind::kCreated;
  big.t = 1.0;
  big.protocol = huge;
  sink.emit(big);
  EXPECT_EQ(sink.records(), 1u);
  EXPECT_EQ(sink.truncated(), 0u);

  // The edge case that used to overflow in an appended optional field (the
  // prefix fits, the ,"a":1 append does not) now also writes whole.
  const std::string nearly(195, 'y');
  obs::TraceEvent edge;
  edge.kind = obs::EventKind::kTransferred;
  edge.t = 2.0;
  edge.protocol = nearly;
  edge.a = 1;
  edge.b = 2;
  edge.bundle = 3;
  sink.emit(edge);
  EXPECT_EQ(sink.records(), 2u);
  EXPECT_EQ(sink.truncated(), 0u);

  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) {
    EXPECT_TRUE(looks_like_flat_json(line)) << line;
  }
  EXPECT_NE(lines[0].find(huge), std::string::npos);
  EXPECT_NE(lines[1].find("\"a\":1,\"b\":2,\"bundle\":3"), std::string::npos)
      << lines[1];
}

TEST(JsonlSink, DropsAndCountsRecordsBeyondTheHardCap) {
  std::ostringstream out;
  obs::JsonlSink sink(out);

  // Past kMaxRecordBytes the input is corrupt, not merely verbose; the sink
  // drops the record whole (a truncated JSON line would poison parsers),
  // counts it, and keeps working.
  const std::string absurd(obs::JsonlSink::kMaxRecordBytes, 'x');
  obs::TraceEvent corrupt;
  corrupt.kind = obs::EventKind::kCreated;
  corrupt.t = 1.0;
  corrupt.protocol = absurd;
  sink.emit(corrupt);
  EXPECT_EQ(sink.records(), 0u);
  EXPECT_EQ(sink.truncated(), 1u);
  EXPECT_TRUE(lines_of(out.str()).empty());

  obs::TraceEvent ok;
  ok.kind = obs::EventKind::kDelivered;
  ok.t = 3.0;
  ok.protocol = "pure_epidemic";
  ok.a = 0;
  ok.b = 1;
  ok.bundle = 7;
  sink.emit(ok);
  EXPECT_EQ(sink.records(), 1u);
  EXPECT_EQ(sink.truncated(), 1u);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(looks_like_flat_json(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\"ev\":\"delivered\""), std::string::npos);
}

TEST(PerfCounters, PopulatedAndInternallyConsistent) {
  const metrics::RunSummary summary = run_two_node(nullptr);
  EXPECT_GT(summary.perf.events_processed, 0u);
  EXPECT_GT(summary.perf.peak_queue_depth, 0u);
  EXPECT_GE(summary.perf.wall_seconds, 0.0);
  EXPECT_EQ(summary.perf.transfers, summary.bundle_transmissions);
  EXPECT_EQ(summary.perf.contacts, summary.contacts);
  if (summary.perf.wall_seconds > 0.0) {
    EXPECT_GT(summary.perf.events_per_second(), 0.0);
  }
}

exp::SweepSpec small_sweep_spec(unsigned threads) {
  exp::SweepSpec spec;
  spec.scenario = exp::trace_scenario();
  spec.protocol.kind = ProtocolKind::kFixedTtl;
  spec.loads = {5, 10};
  spec.replications = 3;
  spec.threads = threads;
  return spec;
}

TEST(PerfCounters, DeterministicFieldsIdenticalAcrossThreadCounts) {
  const mobility::ContactTrace trace =
      exp::build_contact_trace(exp::trace_scenario(), 42);
  const exp::SweepResult serial = run_sweep_on(small_sweep_spec(1), trace);
  const exp::SweepResult parallel = run_sweep_on(small_sweep_spec(3), trace);

  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (std::size_t li = 0; li < serial.runs.size(); ++li) {
    ASSERT_EQ(serial.runs[li].size(), parallel.runs[li].size());
    for (std::size_t r = 0; r < serial.runs[li].size(); ++r) {
      const auto& a = serial.runs[li][r].perf;
      const auto& b = parallel.runs[li][r].perf;
      EXPECT_EQ(a.events_processed, b.events_processed);
      EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
      EXPECT_EQ(a.transfers, b.transfers);
      EXPECT_EQ(a.contacts, b.contacts);
    }
  }
}

TEST(JsonlSink, SweepTraceReconcilesWithAggregates) {
  // The acceptance check behind `bench_figure --fig 07 --trace-out=...`: per-event
  // record counts must reconcile with the run summaries' printed aggregates.
  const mobility::ContactTrace trace =
      exp::build_contact_trace(exp::trace_scenario(), 42);
  std::ostringstream out;
  obs::JsonlSink sink(out);
  exp::SweepSpec spec = small_sweep_spec(2);
  spec.trace_sink = &sink;
  const exp::SweepResult result = run_sweep_on(spec, trace);

  std::uint64_t transfers = 0;
  std::uint64_t contacts = 0;
  std::uint64_t delivered = 0;
  for (std::size_t li = 0; li < result.runs.size(); ++li) {
    for (const auto& run : result.runs[li]) {
      transfers += run.bundle_transmissions;
      contacts += run.contacts;
      delivered += static_cast<std::uint64_t>(
          std::lround(run.delivery_ratio * result.loads[li]));
    }
  }

  const auto lines = lines_of(out.str());
  EXPECT_EQ(lines.size(), sink.records());
  EXPECT_EQ(count_kind(lines, "transferred"), transfers);
  EXPECT_EQ(count_kind(lines, "contact_up"), contacts);
  EXPECT_EQ(count_kind(lines, "delivered"), delivered);
  for (const auto& line : lines) {
    EXPECT_TRUE(looks_like_flat_json(line)) << line;
  }
}

TEST(ChromeTrace, OneSpanPerReplicationAcrossPoolThreads) {
  const mobility::ContactTrace trace =
      exp::build_contact_trace(exp::trace_scenario(), 42);
  obs::ChromeTraceWriter chrome;
  exp::SweepSpec spec = small_sweep_spec(2);
  spec.chrome = &chrome;
  const exp::SweepResult result = run_sweep_on(spec, trace);

  EXPECT_EQ(chrome.span_count(),
            result.loads.size() * spec.replications);

  std::ostringstream out;
  chrome.write(out);
  const std::string json = out.str();
  EXPECT_EQ(json.find("{\"displayTimeUnit\""), 0u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // One complete ("ph":"X") event per replication, named by its task.
  std::size_t spans = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos; ++pos) {
    ++spans;
  }
  EXPECT_EQ(spans, result.loads.size() * spec.replications);
  EXPECT_NE(json.find("fixed_ttl/load=5/rep=0"), std::string::npos);
  EXPECT_NE(json.find("fixed_ttl/load=10/rep=2"), std::string::npos);
}

TEST(ChromeTrace, EscapesSpanNamesForJson) {
  obs::ChromeTraceWriter chrome;
  chrome.record_span("quote\"backslash\\newline\n", 0, 0.0, 1.0);
  chrome.record_span("control\x01" "char", 1, 1.0, 2.0);
  std::ostringstream out;
  chrome.write(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("quote\\\"backslash\\\\newline\\n"), std::string::npos)
      << json;
  EXPECT_NE(json.find("control\\u0001char"), std::string::npos) << json;
  // No raw quote/control byte survives inside any name.
  EXPECT_EQ(json.find("quote\"backslash"), std::string::npos);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST(ChromeTrace, PreservesRecordingOrderAndNesting) {
  obs::ChromeTraceWriter chrome;
  // An outer span enclosing an inner one on the same tid: recorded inner
  // first (it closes first), as a real nested instrumentation would.
  chrome.record_span("inner", 0, 10.0, 20.0);
  chrome.record_span("outer", 0, 0.0, 30.0);
  chrome.record_span("later", 1, 40.0, 45.0);
  std::ostringstream out;
  chrome.write(out);
  const std::string json = out.str();
  const auto inner = json.find("\"name\":\"inner\"");
  const auto outer = json.find("\"name\":\"outer\"");
  const auto later = json.find("\"name\":\"later\"");
  ASSERT_NE(inner, std::string::npos);
  ASSERT_NE(outer, std::string::npos);
  ASSERT_NE(later, std::string::npos);
  // Events appear in recording order (Chrome nests by ts/dur, not order).
  EXPECT_LT(inner, outer);
  EXPECT_LT(outer, later);
  // The outer span's interval contains the inner's (ts and ts+dur).
  EXPECT_NE(json.find("\"ts\":10,\"dur\":10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":0,\"dur\":30"), std::string::npos) << json;
  // A span whose end precedes its begin clamps to zero duration.
  obs::ChromeTraceWriter clamped;
  clamped.record_span("backwards", 0, 5.0, 1.0);
  std::ostringstream out2;
  clamped.write(out2);
  EXPECT_NE(out2.str().find("\"ts\":5,\"dur\":0"), std::string::npos)
      << out2.str();
}

TEST(ChromeTrace, TimebaseIsMonotonicNonDecreasing) {
  obs::ChromeTraceWriter chrome;
  double last = chrome.now_us();
  EXPECT_GE(last, 0.0);
  for (int i = 0; i < 1'000; ++i) {
    const double now = chrome.now_us();
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST(ProgressReporter, TicksCountAndRender) {
  std::ostringstream out;
  {
    obs::ProgressReporter progress("figXX", 4, out);
    for (int i = 0; i < 4; ++i) progress.tick(1'000);
    EXPECT_EQ(progress.completed(), 4u);
    EXPECT_EQ(progress.total_events(), 4'000u);
    progress.finish();
  }
  const std::string text = out.str();
  EXPECT_NE(text.find("[figXX]"), std::string::npos);
  EXPECT_NE(text.find("4/4 runs"), std::string::npos);
  EXPECT_NE(text.find("ev/s"), std::string::npos);
}

TEST(ProgressReporter, FinalLineSplitsCachedFromSimulated) {
  std::ostringstream out;
  {
    obs::ProgressReporter progress("figYY", 5, out);
    progress.tick_cached();
    progress.tick_cached();
    progress.tick_cached();
    progress.tick(1'000);
    progress.tick(1'000);
    progress.finish();
  }
  const std::string text = out.str();
  EXPECT_NE(text.find("5/5 runs (3 cached, 2 simulated)"), std::string::npos)
      << text;
}

TEST(ProgressReporter, EtaOnMostlyCachedResumeIsPacedBySimulatedRunsOnly) {
  std::ostringstream out;
  obs::ProgressReporter progress("resume", 20, out);
  // A resumed sweep replays a large cached prefix near-instantly...
  for (int i = 0; i < 9; ++i) progress.tick_cached();
  // Cached replays alone predict nothing.
  EXPECT_EQ(progress.eta_seconds(), 0.0);

  // ...then the first simulated run lands after measurable wall time.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  progress.tick(1'000);
  ASSERT_EQ(progress.completed(), 10u);
  ASSERT_EQ(progress.cached(), 9u);

  // 10 runs remain and 1 simulated run took ~all the elapsed time, so the
  // ETA must be ~10x elapsed. Were cached ticks counted as work, the
  // estimate would collapse to ~elapsed (10 "done" in the same time).
  const double eta = progress.eta_seconds();
  EXPECT_GT(eta, 0.0);
  const double elapsed_floor = 0.020;  // the sleep alone
  EXPECT_GE(eta, 10.0 * elapsed_floor * 0.5);  // generous timer slack
  progress.finish();
}

TEST(ProgressReporter, HumanizesRates) {
  EXPECT_EQ(obs::humanize_rate(312.0), "312");
  EXPECT_EQ(obs::humanize_rate(3'217.0), "3.2k");
  EXPECT_EQ(obs::humanize_rate(4'512'345.0), "4.5M");
}

}  // namespace
}  // namespace epi
