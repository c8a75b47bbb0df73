// Validating builders for experiment specs.
//
// RunSpec and ScenarioSpec are plain aggregates: cheap to copy, trivial to
// construct — and trivial to construct *wrong*. A zero horizon hangs a sweep
// at zero progress; a sub-slot session gap silently splits one contact's
// slots into separate dynamic-TTL encounter sessions; an out-of-range fault
// probability only explodes deep inside the engine. The builders here move
// those failures to construction time with actionable messages naming the
// offending field and value.
//
// The aggregates stay public (tests and internal plumbing still brace-init
// them freely); the builders are the supported path for code that assembles
// specs from user input — bench flags, the figure registry, sweep drivers.
#pragma once

#include "exp/runner.hpp"
#include "exp/scenario.hpp"

namespace epi::exp {

/// Builds a validated RunSpec. Throws ConfigError on: horizon <= 0,
/// slot_seconds <= 0, session_gap <= 0, buffer_capacity == 0, a
/// session_gap below slot_seconds (unless the gap came from a ScenarioSpec
/// via scenario(), which sanctions the paper's isolated-contact setups),
/// conflicting per-node capacities, or an invalid option block.
class RunSpecBuilder {
 public:
  RunSpecBuilder& protocol(const ProtocolParams& params);

  /// Adopts the scenario's horizon, session gap and per-node capacities. A
  /// scenario-derived gap may be below slot_seconds: the controlled-interval
  /// scenarios (Fig. 14) deliberately use a sub-slot gap so each isolated
  /// contact counts as its own encounter session. The capacities are merged
  /// at build(): they apply unless the option block sets its own, and
  /// build() throws ConfigError when both are set and differ.
  RunSpecBuilder& scenario(const ScenarioSpec& spec);

  RunSpecBuilder& load(std::uint32_t bundles);
  RunSpecBuilder& replication(std::uint32_t index);
  RunSpecBuilder& master_seed(std::uint64_t seed);
  RunSpecBuilder& buffer_capacity(std::uint32_t capacity);
  RunSpecBuilder& slot_seconds(SimTime seconds);
  RunSpecBuilder& horizon(SimTime end);

  /// Explicit gap override; unlike scenario(), a value below slot_seconds
  /// is rejected at build() time.
  RunSpecBuilder& session_gap(SimTime gap);

  /// Receiver-side admission policy (see ProtocolOptions::eviction).
  RunSpecBuilder& eviction(EvictionPolicy policy);

  /// Heterogeneous per-node capacities; validated against nothing here (the
  /// trace decides node_count), but SimulationConfig::validate rejects a
  /// size mismatch at run time.
  RunSpecBuilder& node_capacities(std::vector<std::uint32_t> capacities);

  RunSpecBuilder& flows(std::vector<FlowSpec> pinned);
  RunSpecBuilder& fault(const fault::FaultPlan& plan);

  /// Summary-exchange codec parameters (see ProtocolOptions::summary);
  /// build() hard-errors on out-of-range filter_bits / hashes.
  RunSpecBuilder& summary(const SummaryCodecParams& params);

  /// Replaces the whole consolidated option block at once (eviction,
  /// capacities, fault plan, summary codec); the per-member setters above
  /// remain the fine-grained path and compose with it in call order. The
  /// scenario's capacities are kept apart and merged at build().
  RunSpecBuilder& options(ProtocolOptions block);

  RunSpecBuilder& trace_sink(obs::TraceSink* sink);
  RunSpecBuilder& collect_stats(bool enabled);

  /// Validates and returns the spec. Throws ConfigError naming the
  /// offending field and value on any violation.
  [[nodiscard]] RunSpec build() const;

 private:
  RunSpec spec_;
  std::vector<std::uint32_t> scenario_caps_;  ///< from scenario()
  bool scenario_gap_ = false;  ///< gap came from scenario(): sub-slot OK
};

/// Builds a validated ScenarioSpec. Throws ConfigError on session_gap <= 0
/// or a generator parameter block with fewer than two nodes (nothing can
/// ever meet) or a non-positive horizon.
class ScenarioSpecBuilder {
 public:
  /// Starts from a canned scenario (trace_scenario() et al.); setters below
  /// then override individual fields.
  explicit ScenarioSpecBuilder(ScenarioSpec base = {});

  ScenarioSpecBuilder& name(std::string label);
  ScenarioSpecBuilder& haggle(const mobility::SyntheticHaggleParams& params);
  ScenarioSpecBuilder& rwp(const mobility::RwpParams& params);
  ScenarioSpecBuilder& interval(const mobility::IntervalScenarioParams& params);
  ScenarioSpecBuilder& session_gap(SimTime gap);

  /// Heterogeneous per-node capacities; build() rejects a size that does
  /// not match the generator's node count, or any zero entry.
  ScenarioSpecBuilder& node_capacities(std::vector<std::uint32_t> capacities);

  [[nodiscard]] ScenarioSpec build() const;

 private:
  ScenarioSpec spec_;
};

}  // namespace epi::exp
