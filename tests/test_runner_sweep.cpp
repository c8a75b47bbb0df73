#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"

namespace epi::exp {
namespace {

TEST(PickEndpoints, DeterministicAndDistinct) {
  for (std::uint32_t rep = 0; rep < 50; ++rep) {
    const FlowEndpoints a = pick_endpoints(42, 10, rep, 12);
    const FlowEndpoints b = pick_endpoints(42, 10, rep, 12);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.destination, b.destination);
    EXPECT_NE(a.source, a.destination);
    EXPECT_LT(a.source, 12u);
    EXPECT_LT(a.destination, 12u);
  }
}

TEST(PickEndpoints, ChangesAcrossReplications) {
  // "We also change the source and destination node after each run."
  int distinct = 0;
  const FlowEndpoints first = pick_endpoints(42, 10, 0, 12);
  for (std::uint32_t rep = 1; rep < 10; ++rep) {
    const FlowEndpoints e = pick_endpoints(42, 10, rep, 12);
    if (e.source != first.source || e.destination != first.destination) {
      ++distinct;
    }
  }
  EXPECT_GE(distinct, 5);
}

TEST(PickEndpoints, IndependentOfProtocol) {
  // The derivation takes no protocol input at all — paired comparison is
  // structural. (Compile-time check by signature; verify load/seed matter.)
  EXPECT_NE(pick_endpoints(42, 10, 0, 12).source * 100u +
                pick_endpoints(42, 10, 0, 12).destination,
            pick_endpoints(43, 10, 0, 12).source * 100u +
                pick_endpoints(43, 10, 0, 12).destination);
}

TEST(PickEndpoints, TwoNodeNetworkWorks) {
  for (std::uint32_t rep = 0; rep < 20; ++rep) {
    const FlowEndpoints e = pick_endpoints(1, 5, rep, 2);
    EXPECT_NE(e.source, e.destination);
    EXPECT_LT(e.source, 2u);
    EXPECT_LT(e.destination, 2u);
  }
}

TEST(PaperLoads, FiveToFiftyByFive) {
  const auto loads = paper_loads();
  ASSERT_EQ(loads.size(), 10u);
  EXPECT_EQ(loads.front(), 5u);
  EXPECT_EQ(loads.back(), 50u);
  for (std::size_t i = 1; i < loads.size(); ++i) {
    EXPECT_EQ(loads[i] - loads[i - 1], 5u);
  }
}

TEST(Scenario, CannedSpecsMatchPaper) {
  const ScenarioSpec trace = trace_scenario();
  EXPECT_EQ(trace.node_count(), 12u);
  EXPECT_DOUBLE_EQ(trace.horizon(), defaults::kTraceHorizon);

  const ScenarioSpec rwp = rwp_scenario();
  EXPECT_EQ(rwp.node_count(), 12u);
  EXPECT_DOUBLE_EQ(rwp.horizon(), defaults::kRwpHorizon);

  const ScenarioSpec iv = interval_scenario(2000.0);
  EXPECT_EQ(iv.node_count(), 20u);
  EXPECT_EQ(iv.name, "interval2000");
}

TEST(Scenario, BuildIsDeterministic) {
  const ScenarioSpec spec = rwp_scenario();
  const auto a = build_contact_trace(spec, 7);
  const auto b = build_contact_trace(spec, 7);
  EXPECT_EQ(a.size(), b.size());
}

class SweepThreadCounts : public ::testing::TestWithParam<unsigned> {};

TEST_P(SweepThreadCounts, ResultsBitIdenticalAcrossThreadCounts) {
  SweepSpec spec;
  spec.scenario = trace_scenario();
  spec.scenario.haggle.horizon = 80'000.0;  // keep the test quick
  spec.protocol.kind = ProtocolKind::kCumulativeImmunity;
  spec.loads = {5, 15};
  spec.replications = 4;
  spec.threads = GetParam();
  const SweepResult result = run_sweep(spec);

  SweepSpec reference = spec;
  reference.threads = 1;
  const SweepResult expected = run_sweep(reference);

  ASSERT_EQ(result.points.size(), expected.points.size());
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.points[i].delivery_ratio.mean,
                     expected.points[i].delivery_ratio.mean);
    EXPECT_DOUBLE_EQ(result.points[i].delay.mean, expected.points[i].delay.mean);
    EXPECT_DOUBLE_EQ(result.points[i].buffer_occupancy.mean,
                     expected.points[i].buffer_occupancy.mean);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SweepThreadCounts,
                         ::testing::Values(2u, 4u, 8u));

TEST(Sweep, DefaultsToPaperLoads) {
  SweepSpec spec;
  spec.scenario = trace_scenario();
  spec.scenario.haggle.horizon = 30'000.0;
  spec.protocol.kind = ProtocolKind::kPureEpidemic;
  spec.replications = 1;
  const SweepResult result = run_sweep(spec);
  EXPECT_EQ(result.loads, paper_loads());
  EXPECT_EQ(result.points.size(), 10u);
  EXPECT_EQ(result.runs.size(), 10u);
  EXPECT_EQ(result.runs.front().size(), 1u);
}

TEST(Sweep, MultiProtocolSharesTrace) {
  const ScenarioSpec scenario = [&] {
    ScenarioSpec s = trace_scenario();
    s.haggle.horizon = 50'000.0;
    return s;
  }();
  const std::vector<ProtocolParams> protocols = [&] {
    ProtocolParams imm;
    imm.kind = ProtocolKind::kImmunity;
    ProtocolParams cum;
    cum.kind = ProtocolKind::kCumulativeImmunity;
    return std::vector<ProtocolParams>{imm, cum};
  }();
  SweepBase base;
  base.replications = 2;
  const auto results = run_sweeps(scenario, protocols, base);
  ASSERT_EQ(results.size(), 2u);
  // Same flows, same contacts: both protocols see identical contact counts
  // at every (load, replication).
  for (std::size_t li = 0; li < results[0].runs.size(); ++li) {
    for (std::size_t rep = 0; rep < results[0].runs[li].size(); ++rep) {
      EXPECT_EQ(results[0].runs[li][rep].load, results[1].runs[li][rep].load);
    }
  }
}

}  // namespace
}  // namespace epi::exp
