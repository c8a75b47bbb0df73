// Golden determinism pins: see tests/golden_cases.hpp for the table and
// the pinning policy. This suite replays each case fresh and checks every
// RunSummary field bit-identically.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "golden_cases.hpp"
#include "metrics/summary.hpp"

namespace epi {
namespace {

class GoldenRun : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenRun, SummaryIsBitIdentical) {
  const GoldenCase& c = GetParam();
  const bool is_rwp = std::string_view(c.scenario) == "rwp";
  const auto spec_template = is_rwp ? exp::rwp_scenario() : exp::trace_scenario();
  const auto trace = exp::build_contact_trace(spec_template, 42);

  exp::RunSpec spec;
  spec.protocol.kind = protocol_from_string(c.protocol);
  spec.load = c.load;
  spec.replication = c.replication;
  spec.horizon = spec_template.horizon();
  spec.session_gap = spec_template.session_gap;
  const auto s = exp::run_single(spec, trace);

  EXPECT_DOUBLE_EQ(s.delivery_ratio, c.delivery_ratio);
  EXPECT_EQ(s.complete, c.complete);
  EXPECT_DOUBLE_EQ(s.completion_time, c.completion_time);
  EXPECT_DOUBLE_EQ(s.mean_bundle_delay, c.mean_bundle_delay);
  EXPECT_DOUBLE_EQ(s.buffer_occupancy, c.buffer_occupancy);
  EXPECT_DOUBLE_EQ(s.duplication_rate, c.duplication_rate);
  EXPECT_EQ(s.bundle_transmissions, c.bundle_transmissions);
  EXPECT_EQ(s.control_records, c.control_records);
  EXPECT_EQ(s.contacts, c.contacts);
  EXPECT_EQ(s.drops_expired, c.drops_expired);
  EXPECT_EQ(s.drops_evicted, c.drops_evicted);
  EXPECT_EQ(s.drops_immunized, c.drops_immunized);
  EXPECT_DOUBLE_EQ(s.end_time, c.end_time);
  EXPECT_EQ(s.perf.transfers, c.transfers);
}

// Codec-seam differential: an explicitly-requested ExactCodec must be
// bit-identical to the default path on every golden case — the codec
// extraction may not perturb a single run, and exact-mode filter knobs
// (inert by definition) may not leak into results or store keys.
TEST_P(GoldenRun, ExplicitExactCodecIsBitIdenticalToDefault) {
  const GoldenCase& c = GetParam();
  const bool is_rwp = std::string_view(c.scenario) == "rwp";
  const auto scenario = is_rwp ? exp::rwp_scenario() : exp::trace_scenario();
  const auto trace = exp::build_contact_trace(scenario, 42);

  exp::RunSpec spec;
  spec.protocol.kind = protocol_from_string(c.protocol);
  spec.load = c.load;
  spec.replication = c.replication;
  spec.horizon = scenario.horizon();
  spec.session_gap = scenario.session_gap;

  exp::RunSpec exact = spec;
  exact.options.summary.mode = SummaryMode::kExact;
  exact.options.summary.filter_bits = 16;  // inert under the exact codec
  exact.options.summary.hashes = 4;

  const auto a = exp::run_single(spec, trace);
  const auto b = exp::run_single(exact, trace);
  EXPECT_TRUE(metrics::deterministic_equal(a, b));
  // Exact advertisements cost 4 bytes per summary-vector entry and happen
  // once per contact — the byte counter must reconcile with both.
  EXPECT_EQ(a.perf.summary_exchanges, a.contacts);
  EXPECT_EQ(a.perf.summary_ad_bytes % 4, 0u);
  EXPECT_EQ(a.perf.transfers_suppressed_fp, 0u);
  // The store-key summary fragment joins only for compact modes, so both
  // specs (and the implicit default) share one cache identity.
  EXPECT_EQ(exp::store_key(scenario, spec), exp::store_key(scenario, exact));
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, GoldenRun, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenCase>& case_info) {
      const GoldenCase& c = case_info.param;
      return std::string(c.scenario) + "_" + c.protocol + "_" +
             std::to_string(c.load) + "_r" + std::to_string(c.replication);
    });

}  // namespace
}  // namespace epi
