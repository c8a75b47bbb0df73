// Validating-builder and figure-registry tests.
//
// The builders (exp/builders.hpp, fault/plan.hpp) are the supported path
// for assembling specs from user input; every rejection must fire at
// build() time with a message naming the offending field and value. The
// figure registry (exp/figures.hpp) is the single source of truth behind
// bench_figure, so its ids must be unique and lookup must accept every
// documented spelling.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <string_view>

#include "core/error.hpp"
#include "exp/builders.hpp"
#include "exp/figures.hpp"
#include "exp/scenario.hpp"
#include "fault/plan.hpp"

namespace epi {
namespace {

/// Expects `expr` to throw ConfigError whose message contains `fragment`.
#define EXPECT_CONFIG_ERROR(expr, fragment)                            \
  do {                                                                 \
    try {                                                              \
      (void)(expr);                                                    \
      FAIL() << "expected ConfigError from " #expr;                    \
    } catch (const ConfigError& e) {                                   \
      EXPECT_NE(std::string_view(e.what()).find(fragment),             \
                std::string_view::npos)                                \
          << "message was: " << e.what();                              \
    }                                                                  \
  } while (false)

// --- RunSpecBuilder -----------------------------------------------------------

TEST(RunSpecBuilder, DefaultsBuildAndMatchAggregateDefaults) {
  const exp::RunSpec built = exp::RunSpecBuilder().build();
  const exp::RunSpec plain;
  EXPECT_EQ(built.load, plain.load);
  EXPECT_EQ(built.master_seed, plain.master_seed);
  EXPECT_DOUBLE_EQ(built.horizon, plain.horizon);
  EXPECT_DOUBLE_EQ(built.session_gap, plain.session_gap);
  EXPECT_FALSE(built.options.fault.any());
}

TEST(RunSpecBuilder, AdoptsScenarioHorizonAndGap) {
  const auto scenario = exp::trace_scenario();
  const exp::RunSpec spec =
      exp::RunSpecBuilder().scenario(scenario).load(25).build();
  EXPECT_DOUBLE_EQ(spec.horizon, scenario.horizon());
  EXPECT_DOUBLE_EQ(spec.session_gap, scenario.session_gap);
}

TEST(RunSpecBuilder, RejectsNonPositiveHorizon) {
  EXPECT_CONFIG_ERROR(exp::RunSpecBuilder().horizon(0.0).build(),
                      "horizon");
  EXPECT_CONFIG_ERROR(exp::RunSpecBuilder().horizon(-1.0).build(),
                      "horizon");
}

TEST(RunSpecBuilder, RejectsNonPositiveSlotSeconds) {
  EXPECT_CONFIG_ERROR(exp::RunSpecBuilder().slot_seconds(0.0).build(),
                      "slot_seconds");
}

TEST(RunSpecBuilder, RejectsZeroBufferCapacity) {
  EXPECT_CONFIG_ERROR(exp::RunSpecBuilder().buffer_capacity(0).build(),
                      "buffer_capacity");
}

TEST(RunSpecBuilder, RejectsExplicitSubSlotSessionGap) {
  EXPECT_CONFIG_ERROR(exp::RunSpecBuilder().session_gap(50.0).build(),
                      "session_gap");
  EXPECT_CONFIG_ERROR(exp::RunSpecBuilder().session_gap(0.0).build(),
                      "session_gap");
}

TEST(RunSpecBuilder, ScenarioSanctionsSubSlotGap) {
  // The controlled-interval scenarios use gap=25 < slot=100 on purpose.
  const auto interval = exp::interval_scenario(400.0);
  ASSERT_LT(interval.session_gap, 100.0);
  const exp::RunSpec spec =
      exp::RunSpecBuilder().scenario(interval).build();
  EXPECT_DOUBLE_EQ(spec.session_gap, interval.session_gap);
  // An explicit override after scenario() clears the sanction.
  EXPECT_CONFIG_ERROR(exp::RunSpecBuilder()
                          .scenario(interval)
                          .session_gap(interval.session_gap)
                          .build(),
                      "session_gap");
}

TEST(RunSpecBuilder, RejectsInvalidFaultPlan) {
  fault::FaultPlan plan;
  plan.slot_loss = 1.5;
  EXPECT_CONFIG_ERROR(exp::RunSpecBuilder().fault(plan).build(),
                      "slot_loss");
}

TEST(RunSpecBuilder, NodeCapacitiesFromEitherSourceNeverOverwriteTheOther) {
  const exp::ScenarioSpec plain = exp::trace_scenario();
  const std::vector<std::uint32_t> caps(plain.node_count(), 7);
  exp::ScenarioSpec capped = plain;
  capped.node_capacities = caps;
  exp::ProtocolOptions block;
  block.node_capacities = caps;

  // Set on the scenario only: an empty option block given afterwards must
  // not wipe them.
  const exp::RunSpec from_scenario =
      exp::RunSpecBuilder().scenario(capped).options({}).build();
  EXPECT_EQ(from_scenario.options.node_capacities, caps);
  // Set on the block only: a capacity-free scenario given afterwards must
  // not wipe them either.
  const exp::RunSpec from_block =
      exp::RunSpecBuilder().options(block).scenario(plain).build();
  EXPECT_EQ(from_block.options.node_capacities, caps);
  for (const exp::RunSpec& spec : {from_scenario, from_block}) {
    EXPECT_NE(exp::store_key(plain, spec).find("|caps=[7;"),
              std::string::npos);
  }
  // Both set and equal: one vector, no conflict.
  EXPECT_EQ(exp::RunSpecBuilder()
                .scenario(capped)
                .options(block)
                .build()
                .options.node_capacities,
            caps);

  // Both set and different: refused, whatever the call order.
  exp::ProtocolOptions other = block;
  other.node_capacities.back() = 9;
  EXPECT_CONFIG_ERROR(
      exp::RunSpecBuilder().scenario(capped).options(other).build(),
      "node_capacities");
  EXPECT_CONFIG_ERROR(
      exp::RunSpecBuilder().options(other).scenario(capped).build(),
      "node_capacities");
}

// --- ScenarioSpecBuilder ------------------------------------------------------

TEST(ScenarioSpecBuilder, PassesThroughCannedScenario) {
  const auto base = exp::rwp_scenario();
  const auto built = exp::ScenarioSpecBuilder(base).build();
  EXPECT_EQ(built.name, base.name);
  EXPECT_EQ(built.node_count(), base.node_count());
  EXPECT_DOUBLE_EQ(built.horizon(), base.horizon());
}

TEST(ScenarioSpecBuilder, RejectsNonPositiveSessionGap) {
  EXPECT_CONFIG_ERROR(
      exp::ScenarioSpecBuilder(exp::trace_scenario()).session_gap(0.0).build(),
      "session_gap");
}

TEST(ScenarioSpecBuilder, RejectsDegenerateNodeCount) {
  auto params = exp::rwp_scenario().rwp;
  params.node_count = 1;
  EXPECT_CONFIG_ERROR(
      exp::ScenarioSpecBuilder(exp::rwp_scenario()).rwp(params).build(),
      "node_count");
}

// --- FaultPlanBuilder ---------------------------------------------------------

TEST(FaultPlanBuilder, RejectsOutOfRangeProbabilities) {
  EXPECT_CONFIG_ERROR(fault::FaultPlanBuilder().slot_loss(-0.1).build(),
                      "slot_loss");
  EXPECT_CONFIG_ERROR(fault::FaultPlanBuilder().truncation(1.01).build(),
                      "truncation_prob");
  EXPECT_CONFIG_ERROR(fault::FaultPlanBuilder().control_loss(2.0).build(),
                      "control_loss");
}

TEST(FaultPlanBuilder, RejectsDegenerateDutyCycle) {
  // off fraction 1.0 means a permanently-down network: rejected.
  EXPECT_CONFIG_ERROR(fault::FaultPlanBuilder().duty_cycle(1.0, 100.0).build(),
                      "duty_off_fraction");
  EXPECT_CONFIG_ERROR(fault::FaultPlanBuilder().duty_cycle(0.5, 0.0).build(),
                      "duty_period");
}

TEST(FaultPlanBuilder, ValidPlanRoundTrips) {
  const fault::FaultPlan plan = fault::FaultPlanBuilder()
                                    .slot_loss(0.25)
                                    .truncation(0.1)
                                    .duty_cycle(0.2, 3'600.0)
                                    .control_loss(0.05)
                                    .build();
  EXPECT_TRUE(plan.any());
  EXPECT_DOUBLE_EQ(plan.slot_loss, 0.25);
  EXPECT_DOUBLE_EQ(plan.truncation_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan.duty_off_fraction, 0.2);
  EXPECT_DOUBLE_EQ(plan.duty_period, 3'600.0);
  EXPECT_DOUBLE_EQ(plan.control_loss, 0.05);
}

TEST(FaultPlanKey, EveryFieldJoinsTheKey) {
  const fault::FaultPlan base;
  std::string base_key;
  fault::append_key(base_key, base);
  EXPECT_NE(base_key.find("fault{"), std::string::npos);

  fault::FaultPlan tweaked = base;
  tweaked.duty_period = 7'201.0;  // inactive field: must still change the key
  std::string tweaked_key;
  fault::append_key(tweaked_key, tweaked);
  EXPECT_NE(base_key, tweaked_key);
}

// --- figure registry ----------------------------------------------------------

TEST(FigureRegistry, IdsAreUniqueAndSpecsComplete) {
  std::set<std::string_view> ids;
  std::size_t paper_figures = 0;
  for (const exp::FigureSpec& spec : exp::figure_registry()) {
    ASSERT_NE(spec.id, nullptr);
    ASSERT_NE(spec.paper_claim, nullptr);
    ASSERT_NE(spec.run, nullptr);
    EXPECT_TRUE(ids.insert(spec.id).second) << "duplicate id " << spec.id;
    if (spec.paper_figure) ++paper_figures;
  }
  // The paper's 14 figures (07-20) plus the robustness extras.
  EXPECT_EQ(paper_figures, 14u);
  EXPECT_GE(ids.size(), 20u);
  for (int n = 7; n <= 20; ++n) {
    char id[8];
    std::snprintf(id, sizeof(id), "fig%02d", n);
    EXPECT_TRUE(ids.contains(id)) << "missing " << id;
  }
  EXPECT_TRUE(ids.contains("robust_trace_delivery"));
  EXPECT_TRUE(ids.contains("robust_rwp_delay"));
}

TEST(FigureRegistry, FindFigureAcceptsEverySpelling) {
  const exp::FigureSpec* canonical = exp::find_figure("fig07");
  ASSERT_NE(canonical, nullptr);
  EXPECT_EQ(exp::find_figure("07"), canonical);
  EXPECT_EQ(exp::find_figure("7"), canonical);
  ASSERT_NE(exp::find_figure("robust_trace_delivery"), nullptr);
  EXPECT_EQ(exp::find_figure("fig99"), nullptr);
  EXPECT_EQ(exp::find_figure("99"), nullptr);
  EXPECT_EQ(exp::find_figure(""), nullptr);
  EXPECT_EQ(exp::find_figure("bogus"), nullptr);
}

}  // namespace
}  // namespace epi
