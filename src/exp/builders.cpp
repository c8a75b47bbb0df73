#include "exp/builders.hpp"

#include <cstdio>
#include <utility>

#include "core/error.hpp"

namespace epi::exp {
namespace {

[[noreturn]] void reject(const char* field, const char* requirement,
                         double got) {
  char msg[192];
  std::snprintf(msg, sizeof(msg), "%s must be %s, got %g", field, requirement,
                got);
  throw ConfigError(msg);
}

}  // namespace

RunSpecBuilder& RunSpecBuilder::protocol(const ProtocolParams& params) {
  spec_.protocol = params;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::scenario(const ScenarioSpec& spec) {
  spec_.horizon = spec.horizon();
  spec_.session_gap = spec.session_gap;
  scenario_caps_ = spec.node_capacities;
  scenario_gap_ = true;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::load(std::uint32_t bundles) {
  spec_.load = bundles;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::replication(std::uint32_t index) {
  spec_.replication = index;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::master_seed(std::uint64_t seed) {
  spec_.master_seed = seed;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::buffer_capacity(std::uint32_t capacity) {
  spec_.buffer_capacity = capacity;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::slot_seconds(SimTime seconds) {
  spec_.slot_seconds = seconds;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::horizon(SimTime end) {
  spec_.horizon = end;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::session_gap(SimTime gap) {
  spec_.session_gap = gap;
  scenario_gap_ = false;  // explicit overrides lose the scenario sanction
  return *this;
}

RunSpecBuilder& RunSpecBuilder::eviction(EvictionPolicy policy) {
  spec_.options.eviction = policy;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::node_capacities(
    std::vector<std::uint32_t> capacities) {
  spec_.options.node_capacities = std::move(capacities);
  return *this;
}

RunSpecBuilder& RunSpecBuilder::flows(std::vector<FlowSpec> pinned) {
  spec_.flows = std::move(pinned);
  return *this;
}

RunSpecBuilder& RunSpecBuilder::fault(const fault::FaultPlan& plan) {
  spec_.options.fault = plan;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::summary(const SummaryCodecParams& params) {
  spec_.options.summary = params;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::options(ProtocolOptions block) {
  spec_.options = std::move(block);
  return *this;
}

RunSpecBuilder& RunSpecBuilder::trace_sink(obs::TraceSink* sink) {
  spec_.trace_sink = sink;
  return *this;
}

RunSpecBuilder& RunSpecBuilder::collect_stats(bool enabled) {
  spec_.collect_stats = enabled;
  return *this;
}

RunSpec RunSpecBuilder::build() const {
  if (!(spec_.horizon > 0.0)) {
    reject("RunSpec.horizon", "positive (a zero horizon runs nothing)",
           spec_.horizon);
  }
  if (!(spec_.slot_seconds > 0.0)) {
    reject("RunSpec.slot_seconds", "positive", spec_.slot_seconds);
  }
  if (!(spec_.session_gap > 0.0)) {
    reject("RunSpec.session_gap", "positive", spec_.session_gap);
  }
  if (spec_.buffer_capacity == 0) {
    reject("RunSpec.buffer_capacity", "at least 1", 0.0);
  }
  if (!scenario_gap_ && spec_.session_gap < spec_.slot_seconds) {
    char msg[256];
    std::snprintf(
        msg, sizeof(msg),
        "RunSpec.session_gap (%g) is below slot_seconds (%g): a sub-slot gap "
        "splits one contact's slots into separate encounter sessions; derive "
        "it from a ScenarioSpec (RunSpecBuilder::scenario) if the scenario "
        "really uses isolated contacts",
        spec_.session_gap, spec_.slot_seconds);
    throw ConfigError(msg);
  }
  RunSpec spec = spec_;
  // Capacities may come from the scenario or from the option block; either
  // one alone applies, and two different vectors are a conflict rather than
  // a silent last-writer-wins.
  if (!scenario_caps_.empty()) {
    std::vector<std::uint32_t>& caps = spec.options.node_capacities;
    if (caps.empty()) {
      caps = scenario_caps_;
    } else if (caps != scenario_caps_) {
      throw ConfigError(
          "node_capacities set by both the scenario and the option block, "
          "with different values; set them in one place");
    }
  }
  spec.options.validate();
  return spec;
}

ScenarioSpecBuilder::ScenarioSpecBuilder(ScenarioSpec base)
    : spec_(std::move(base)) {}

ScenarioSpecBuilder& ScenarioSpecBuilder::name(std::string label) {
  spec_.name = std::move(label);
  return *this;
}

ScenarioSpecBuilder& ScenarioSpecBuilder::haggle(
    const mobility::SyntheticHaggleParams& params) {
  spec_.kind = MobilityKind::kHaggleTrace;
  spec_.haggle = params;
  return *this;
}

ScenarioSpecBuilder& ScenarioSpecBuilder::rwp(
    const mobility::RwpParams& params) {
  spec_.kind = MobilityKind::kRwp;
  spec_.rwp = params;
  return *this;
}

ScenarioSpecBuilder& ScenarioSpecBuilder::interval(
    const mobility::IntervalScenarioParams& params) {
  spec_.kind = MobilityKind::kInterval;
  spec_.interval = params;
  return *this;
}

ScenarioSpecBuilder& ScenarioSpecBuilder::session_gap(SimTime gap) {
  spec_.session_gap = gap;
  return *this;
}

ScenarioSpecBuilder& ScenarioSpecBuilder::node_capacities(
    std::vector<std::uint32_t> capacities) {
  spec_.node_capacities = std::move(capacities);
  return *this;
}

ScenarioSpec ScenarioSpecBuilder::build() const {
  if (!(spec_.session_gap > 0.0)) {
    reject("ScenarioSpec.session_gap", "positive", spec_.session_gap);
  }
  if (spec_.node_count() < 2) {
    reject("ScenarioSpec node_count", "at least 2 (nothing can ever meet)",
           static_cast<double>(spec_.node_count()));
  }
  if (!(spec_.horizon() > 0.0)) {
    reject("ScenarioSpec horizon", "positive", spec_.horizon());
  }
  if (!spec_.node_capacities.empty()) {
    if (spec_.node_capacities.size() != spec_.node_count()) {
      reject("ScenarioSpec.node_capacities size",
             "equal to the generator's node count",
             static_cast<double>(spec_.node_capacities.size()));
    }
    for (const std::uint32_t c : spec_.node_capacities) {
      if (c == 0) {
        reject("ScenarioSpec.node_capacities entry", "at least 1", 0.0);
      }
    }
  }
  return spec_;
}

}  // namespace epi::exp
