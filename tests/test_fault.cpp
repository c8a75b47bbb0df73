// Fault-injection subsystem tests.
//
// The contract under test (see src/fault/plan.hpp):
//   1. an all-zero FaultPlan is bit-identical to the pre-fault engine —
//      every golden pin in tests/golden_cases.hpp must still hold, and no
//      fault counter may move;
//   2. a non-zero plan is deterministic: identical across repeated runs,
//      across thread counts, and across a store round-trip;
//   3. each impairment model books its own counter and emits its own
//      kFault trace record;
//   4. the plan joins the run-store key, so faulted and fault-free results
//      can never alias in the cache.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>

#include "exp/builders.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "golden_cases.hpp"
#include "metrics/summary.hpp"
#include "obs/jsonl_sink.hpp"
#include "store/run_store.hpp"

namespace epi {
namespace {

namespace fs = std::filesystem;

const mobility::ContactTrace& shared_trace(bool rwp) {
  static const auto trace_t =
      exp::build_contact_trace(exp::trace_scenario(), 42);
  static const auto trace_r = exp::build_contact_trace(exp::rwp_scenario(), 42);
  return rwp ? trace_r : trace_t;
}

exp::RunSpec golden_spec(const GoldenCase& c) {
  const bool is_rwp = std::string_view(c.scenario) == "rwp";
  const auto scenario =
      is_rwp ? exp::rwp_scenario() : exp::trace_scenario();
  exp::RunSpec spec;
  spec.protocol.kind = protocol_from_string(c.protocol);
  spec.load = c.load;
  spec.replication = c.replication;
  spec.horizon = scenario.horizon();
  spec.session_gap = scenario.session_gap;
  return spec;
}

/// A mid-probability composite plan exercising all four models at once.
fault::FaultPlan composite_plan() {
  return fault::FaultPlanBuilder()
      .slot_loss(0.3)
      .truncation(0.3)
      .duty_cycle(0.4, 7'200.0)
      .control_loss(0.3)
      .build();
}

// --- contract 1: the all-zero plan changes nothing ----------------------------

class ZeroPlanGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ZeroPlanGolden, ReproducesEveryPin) {
  const GoldenCase& c = GetParam();
  exp::RunSpec spec = golden_spec(c);
  spec.options.fault = fault::FaultPlanBuilder().build();  // explicit all-zero plan
  ASSERT_FALSE(spec.options.fault.any());
  const auto s = exp::run_single(
      spec, shared_trace(std::string_view(c.scenario) == "rwp"));

  EXPECT_DOUBLE_EQ(s.delivery_ratio, c.delivery_ratio);
  EXPECT_EQ(s.complete, c.complete);
  EXPECT_DOUBLE_EQ(s.completion_time, c.completion_time);
  EXPECT_DOUBLE_EQ(s.mean_bundle_delay, c.mean_bundle_delay);
  EXPECT_DOUBLE_EQ(s.buffer_occupancy, c.buffer_occupancy);
  EXPECT_DOUBLE_EQ(s.duplication_rate, c.duplication_rate);
  EXPECT_EQ(s.bundle_transmissions, c.bundle_transmissions);
  EXPECT_EQ(s.control_records, c.control_records);
  EXPECT_EQ(s.contacts, c.contacts);
  EXPECT_DOUBLE_EQ(s.end_time, c.end_time);
  EXPECT_EQ(s.perf.transfers, c.transfers);
  // No injector, no faults: all four counters stay zero.
  EXPECT_EQ(s.perf.slots_lost, 0u);
  EXPECT_EQ(s.perf.down_slots, 0u);
  EXPECT_EQ(s.perf.control_dropped, 0u);
  EXPECT_EQ(s.perf.contacts_truncated, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, ZeroPlanGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenCase>& case_info) {
      const GoldenCase& c = case_info.param;
      return std::string(c.scenario) + "_" + c.protocol + "_" +
             std::to_string(c.load) + "_r" + std::to_string(c.replication);
    });

// --- contract 2: faulted runs are deterministic -------------------------------

TEST(FaultDeterminism, RepeatedRunsAreBitIdentical) {
  exp::RunSpec spec = golden_spec(kGolden[1]);  // trace / pq_epidemic
  spec.options.fault = composite_plan();
  const auto a = exp::run_single(spec, shared_trace(false));
  const auto b = exp::run_single(spec, shared_trace(false));
  EXPECT_TRUE(metrics::deterministic_equal(a, b));
  // The plan actually bit: at these probabilities every model must fire.
  EXPECT_GT(a.perf.slots_lost, 0u);
  EXPECT_GT(a.perf.down_slots, 0u);
  EXPECT_GT(a.perf.control_dropped, 0u);
  EXPECT_GT(a.perf.contacts_truncated, 0u);
}

TEST(FaultDeterminism, SweepIdenticalAcrossThreadCounts) {
  exp::SweepSpec spec;
  spec.scenario = exp::trace_scenario();
  spec.protocol.kind = ProtocolKind::kImmunity;
  spec.loads = {15, 25};
  spec.replications = 3;
  spec.options.fault = composite_plan();

  spec.threads = 1;
  const auto serial = exp::run_sweep_on(spec, shared_trace(false));
  spec.threads = 4;
  const auto parallel = exp::run_sweep_on(spec, shared_trace(false));

  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    ASSERT_EQ(serial.runs[i].size(), parallel.runs[i].size());
    for (std::size_t r = 0; r < serial.runs[i].size(); ++r) {
      EXPECT_TRUE(metrics::deterministic_equal(serial.runs[i][r],
                                               parallel.runs[i][r]))
          << "load index " << i << ", replication " << r;
    }
  }
}

// --- contract 3: each model books its own counter and trace record ------------

TEST(FaultModels, SlotLossOnlyMovesSlotCounter) {
  exp::RunSpec spec = golden_spec(kGolden[0]);  // trace / pure_epidemic
  spec.options.fault = fault::FaultPlanBuilder().slot_loss(0.3).build();
  const auto s = exp::run_single(spec, shared_trace(false));
  EXPECT_GT(s.perf.slots_lost, 0u);
  EXPECT_EQ(s.perf.down_slots, 0u);
  EXPECT_EQ(s.perf.control_dropped, 0u);
  EXPECT_EQ(s.perf.contacts_truncated, 0u);
}

TEST(FaultModels, TruncationOnlyMovesTruncationCounter) {
  exp::RunSpec spec = golden_spec(kGolden[0]);
  spec.options.fault = fault::FaultPlanBuilder().truncation(0.5).build();
  const auto s = exp::run_single(spec, shared_trace(false));
  EXPECT_GT(s.perf.contacts_truncated, 0u);
  EXPECT_EQ(s.perf.slots_lost, 0u);
  EXPECT_EQ(s.perf.down_slots, 0u);
  EXPECT_EQ(s.perf.control_dropped, 0u);
}

TEST(FaultModels, DutyCycleOnlyMovesDownSlotCounter) {
  exp::RunSpec spec = golden_spec(kGolden[0]);
  spec.options.fault = fault::FaultPlanBuilder().duty_cycle(0.5, 7'200.0).build();
  const auto s = exp::run_single(spec, shared_trace(false));
  EXPECT_GT(s.perf.down_slots, 0u);
  EXPECT_EQ(s.perf.slots_lost, 0u);
  EXPECT_EQ(s.perf.control_dropped, 0u);
  EXPECT_EQ(s.perf.contacts_truncated, 0u);
}

TEST(FaultModels, ControlLossOnlyMovesControlCounter) {
  exp::RunSpec spec = golden_spec(kGolden[6]);  // trace / immunity
  spec.options.fault = fault::FaultPlanBuilder().control_loss(0.5).build();
  const auto s = exp::run_single(spec, shared_trace(false));
  EXPECT_GT(s.perf.control_dropped, 0u);
  EXPECT_EQ(s.perf.slots_lost, 0u);
  EXPECT_EQ(s.perf.down_slots, 0u);
  EXPECT_EQ(s.perf.contacts_truncated, 0u);
}

TEST(FaultModels, EveryModelEmitsItsTraceRecord) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  exp::RunSpec spec = golden_spec(kGolden[1]);  // trace / pq_epidemic
  spec.options.fault = composite_plan();
  spec.trace_sink = &sink;
  (void)exp::run_single(spec, shared_trace(false));
  const std::string trace = out.str();
  EXPECT_NE(trace.find(R"("ev":"fault")"), std::string::npos);
  EXPECT_NE(trace.find(R"("fault":"slot_loss")"), std::string::npos);
  EXPECT_NE(trace.find(R"("fault":"down_slot")"), std::string::npos);
  EXPECT_NE(trace.find(R"("fault":"control_drop")"), std::string::npos);
  EXPECT_NE(trace.find(R"("fault":"truncation")"), std::string::npos);
}

// --- contract 4: the plan joins the store key and round-trips -----------------

TEST(FaultStore, PlanChangesKeyAndRoundTrips) {
  const auto scenario = exp::trace_scenario();
  exp::RunSpec spec = golden_spec(kGolden[1]);
  spec.load = 25;

  const std::string clean_key = exp::store_key(scenario, spec);
  spec.options.fault = composite_plan();
  const std::string faulted_key = exp::store_key(scenario, spec);
  EXPECT_NE(clean_key, faulted_key);
  EXPECT_NE(faulted_key.find("fault{"), std::string::npos);
  // Every field joins the key, active or not.
  EXPECT_NE(clean_key.find("fault{"), std::string::npos);

  const auto fresh = exp::run_single(spec, shared_trace(false));
  const fs::path dir =
      fs::path(::testing::TempDir()) / "epi_fault_store_roundtrip";
  fs::remove_all(dir);
  {
    store::RunStore writer(dir);
    writer.put(faulted_key, fresh);
  }
  store::RunStore reader(dir);
  const auto cached = reader.find(faulted_key);
  ASSERT_TRUE(cached.has_value());
  EXPECT_TRUE(metrics::deterministic_equal(fresh, *cached));
  EXPECT_EQ(cached->perf.slots_lost, fresh.perf.slots_lost);
  EXPECT_EQ(cached->perf.down_slots, fresh.perf.down_slots);
  EXPECT_EQ(cached->perf.control_dropped, fresh.perf.control_dropped);
  EXPECT_EQ(cached->perf.contacts_truncated, fresh.perf.contacts_truncated);
  EXPECT_FALSE(reader.find(clean_key).has_value());
  fs::remove_all(dir);
}

// --- injector unit behavior ---------------------------------------------------

TEST(FaultInjector, InactiveModelsDrawNothingAndAllowEverything) {
  const fault::Injector injector({}, 42, 25, 0);
  fault::Injector mutable_injector({}, 42, 25, 0);
  EXPECT_TRUE(injector.node_up(0, 0.0));
  EXPECT_TRUE(injector.node_up(7, 123'456.0));
  EXPECT_FALSE(mutable_injector.drop_control());
  EXPECT_FALSE(mutable_injector.lose_slot());
  mobility::Contact contact{0, 1, 1'000.0, 2'000.0};
  EXPECT_FALSE(mutable_injector.truncate(contact));
  EXPECT_DOUBLE_EQ(contact.end, 2'000.0);
}

TEST(FaultInjector, DutyPhaseIsClosedFormAndPeriodic) {
  fault::FaultPlan plan;
  plan.duty_off_fraction = 0.5;
  plan.duty_period = 1'000.0;
  const fault::Injector injector(plan, 42, 25, 0);
  for (const NodeId node : {NodeId{0}, NodeId{5}, NodeId{11}}) {
    for (const SimTime t : {0.0, 250.0, 777.0}) {
      EXPECT_EQ(injector.node_up(node, t),
                injector.node_up(node, t + plan.duty_period))
          << "node " << node << " t " << t;
    }
  }
}

}  // namespace
}  // namespace epi
