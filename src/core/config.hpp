// Simulation and protocol configuration.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/eviction.hpp"
#include "core/summary_mode.hpp"
#include "core/types.hpp"

namespace epi {

/// The eight protocols studied by the paper (SII existing + SIII enhanced),
/// plus the Vahdat-Becker base protocol.
enum class ProtocolKind {
  kPureEpidemic,        // Vahdat & Becker 2002 (base, no buffer management)
  kPqEpidemic,          // Matsuda & Takine 2008: probabilistic + anti-packets
  kFixedTtl,            // Harras et al. 2005: constant TTL, renewed on tx
  kEncounterCount,      // Davis et al. 2001: drop-largest-EC when full
  kImmunity,            // Mundur et al. 2008: per-bundle immunity tables
  kDynamicTtl,          // Enhancement 1 (Algo 1): TTL = 2 x last interval
  kEcTtl,               // Enhancement 2 (Algo 2): EC threshold then TTL
  kCumulativeImmunity,  // Enhancement 3: cumulative ACK table

  // Non-epidemic baselines (the paper's SI taxonomy context): useful to
  // situate the epidemic family's delay/resource trade-off.
  kDirectDelivery,      // source holds until it meets the destination
  kSprayAndWait,        // binary spray with a fixed copy quota, then wait
};

/// Canonical lower_snake name used by the factory, CLIs and reports.
[[nodiscard]] std::string_view to_string(ProtocolKind kind) noexcept;

/// Parses a canonical name; throws ConfigError on unknown names.
[[nodiscard]] ProtocolKind protocol_from_string(std::string_view name);

/// Tunables for all protocols; each protocol reads only its own fields.
struct ProtocolParams {
  ProtocolKind kind = ProtocolKind::kPureEpidemic;

  // --- P-Q epidemic ---
  double p = 1.0;  ///< source transmission probability (paper SII-B)
  double q = 1.0;  ///< relay transmission probability

  // --- fixed TTL ---
  SimTime fixed_ttl = defaults::kFixedTtl;

  // --- dynamic TTL (Algo 1) ---
  double ttl_multiplier = 2.0;  ///< TTL = multiplier x last inter-contact gap
  /// TTL used before a node has witnessed two contacts (no interval yet).
  /// Defaults to "no expiry": guessing a constant here would reintroduce the
  /// premature-discard failure mode the enhancement exists to fix.
  SimTime dynamic_ttl_fallback = kNoExpiry;

  // --- EC+TTL (Algo 2) ---
  std::uint32_t ec_threshold = defaults::kEcThreshold;
  SimTime ec_ttl_base = defaults::kEcTtlBase;
  SimTime ec_ttl_step = defaults::kEcTtlStep;
  /// "We define a minimum EC value before nodes are allowed to delete a
  /// bundle" (SIII): EC+TTL only evicts copies transmitted at least this
  /// many times. The default (1) protects exactly the never-transmitted
  /// copies; raise it to protect under-duplicated bundles more aggressively
  /// (see the ablation_ecthr study in bench_ablation for the trade-off:
  /// large values choke injection at the source).
  std::uint32_t ec_min_evict = 1;

  // --- immunity (per-bundle i-lists / anti-packets) ---
  /// Immunity tables are unit-sized messages ("nodes need to receive N
  /// immunity tables in order to delete N bundles"); per contact a node
  /// transfers at most this many records per direction. Their slow,
  /// load-proportional dissemination is the overhead the cumulative table
  /// eliminates.
  std::uint32_t immunity_records_per_contact = 5;

  // --- spray-and-wait baseline ---
  /// Copy quota per bundle (binary spray halves it at each hand-over).
  std::uint32_t spray_copies = 8;

  /// Throws ConfigError when a field is out of its valid domain.
  void validate() const;
};

/// One unicast flow: `load` bundles from `source` to `destination`.
struct FlowSpec {
  NodeId source = 0;
  NodeId destination = 1;
  std::uint32_t load = 10;
};

/// Full description of one simulation run (one protocol, one or more flows,
/// one mobility input). The contact schedule itself is supplied separately.
struct SimulationConfig {
  std::uint32_t node_count = 12;  // paper SIV: 12 iMote devices
  std::uint32_t buffer_capacity = defaults::kBufferCapacity;
  SimTime slot_seconds = defaults::kSlotSeconds;
  SimTime horizon = defaults::kTraceHorizon;

  /// Per-node buffer capacities; empty (the default) means every node gets
  /// the uniform `buffer_capacity`. When non-empty the size must equal
  /// node_count and every entry be >= 1. Heterogeneous capacities model
  /// mixed device classes (the paper's iMotes are uniform; real deployments
  /// rarely are).
  std::vector<std::uint32_t> node_capacities;

  /// The buffer capacity node `node` actually gets.
  [[nodiscard]] std::uint32_t capacity_of(NodeId node) const noexcept {
    return node_capacities.empty() ? buffer_capacity : node_capacities[node];
  }

  /// The largest per-node capacity (bounds the engine's scratch buffers).
  [[nodiscard]] std::uint32_t max_capacity() const noexcept;

  /// What a full receiver buffer does with an incoming bundle. Protocols
  /// with their own admission rule (the EC family's drop-largest-EC, the
  /// anti-packet family's vaccinated-copy overwrite) apply that rule first
  /// and fall back to this policy only when it finds no victim. The default
  /// (drop-tail) reproduces the paper's implicit refuse-when-full behavior
  /// bit-identically.
  EvictionPolicy eviction_policy = EvictionPolicy::kDropTail;

  /// How contacts advertise buffer contents to each other. The default
  /// (exact) reproduces the paper's free summary-vector exchange
  /// bit-identically; bloom mode pays advertisement bytes for a compact
  /// filter whose false positives suppress transfers.
  SummaryCodecParams summary;

  /// Number of bundles the source sends to the destination ("load" k).
  /// The paper's experiments are single-flow; these three fields describe
  /// that flow. For multi-flow workloads (e.g. one-to-all dissemination)
  /// fill `flows` instead — it takes precedence when non-empty.
  std::uint32_t load = 10;
  NodeId source = 0;
  NodeId destination = 1;

  /// Optional explicit flow set; empty means "the single flow above".
  std::vector<FlowSpec> flows;

  /// The canonical flow list (either `flows` or the legacy single flow).
  [[nodiscard]] std::vector<FlowSpec> resolved_flows() const;

  /// Sum of all flows' loads.
  [[nodiscard]] std::uint32_t total_load() const;

  /// When set, the engine snapshots network state (instantaneous buffer
  /// fill, delivered fraction, live copies) every `sample_interval` seconds
  /// into Recorder::timeline() — for time-series analysis of a run.
  bool record_timeline = false;
  SimTime sample_interval = 1'000.0;

  /// Contacts beginning within this gap of a node's previous contact count
  /// as the same encounter session (dynamic TTL works on session intervals).
  SimTime encounter_session_gap = 1'800.0;

  ProtocolParams protocol;

  /// Throws ConfigError when the configuration is inconsistent.
  void validate() const;
};

}  // namespace epi
