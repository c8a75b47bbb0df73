// Figures: canned experiment definitions for every figure and table of the
// paper's evaluation section (SV). Each run_figXX() executes the exact
// series the paper plots and returns a printable Figure.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/config.hpp"
#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"

namespace epi::exp {

/// Knobs shared by all figure reproductions: the SweepBase every sweep of
/// the figure starts from (seed, replications, threads, the protocol option
/// block and the hooks), plus the figure-level progress reporting. A figure
/// that sweeps one of the block's options itself (see the axis figures
/// below) throws ConfigError before simulating when that option is not at
/// its default; every other option reaches every run.
struct FigureOptions : SweepBase {
  bool progress = false;  ///< live `[figXX] n/m runs ...` line on stderr

  /// When non-empty, every reporter additionally appends machine-readable
  /// ProgressSnapshot lines to this file (see obs::progress). The fleet
  /// driver points each worker process here and tails the files into one
  /// aggregate line; combine with `progress = false` to keep worker
  /// stderr quiet.
  std::string progress_path;
};

// --- protocol parameter shorthands (the paper's configurations) -------------

[[nodiscard]] ProtocolParams pq_params(double p, double q);
[[nodiscard]] ProtocolParams fixed_ttl_params(SimTime ttl = defaults::kFixedTtl);
[[nodiscard]] ProtocolParams dynamic_ttl_params();
[[nodiscard]] ProtocolParams ec_params();
[[nodiscard]] ProtocolParams ec_ttl_params();
[[nodiscard]] ProtocolParams immunity_params();
[[nodiscard]] ProtocolParams cumulative_immunity_params();

// --- generic driver -----------------------------------------------------------

/// One series of a figure: a label, a mobility scenario and a protocol.
struct SeriesDef {
  std::string label;
  ScenarioSpec scenario;
  ProtocolParams protocol;
  /// Eviction policy this series alone applies (the capacity sweeps pin one
  /// per series); unset keeps the figure's option block.
  std::optional<EvictionPolicy> eviction = std::nullopt;
};

/// Runs all series (mobility traces are built once per distinct scenario,
/// on first need) and assembles the Figure: one sweep per series over the
/// load axis. `loads` overrides that axis; empty (the default) means the
/// paper's {5, 10, ..., 50}.
[[nodiscard]] Figure run_figure(std::string id, std::string title,
                                Metric metric, std::vector<SeriesDef> series,
                                const FigureOptions& options,
                                std::vector<std::uint32_t> loads = {});

// --- the paper's figures -------------------------------------------------------

// SV-A: existing protocols.
[[nodiscard]] Figure run_fig07(const FigureOptions& o);  // delay, trace
[[nodiscard]] Figure run_fig08(const FigureOptions& o);  // delay, RWP
[[nodiscard]] Figure run_fig09(const FigureOptions& o);  // duplication, trace
[[nodiscard]] Figure run_fig10(const FigureOptions& o);  // duplication, RWP
[[nodiscard]] Figure run_fig11(const FigureOptions& o);  // buffer, trace
[[nodiscard]] Figure run_fig12(const FigureOptions& o);  // buffer, RWP
[[nodiscard]] Figure run_fig13(const FigureOptions& o);  // delivery, trace

// SV-B: enhancements.
[[nodiscard]] Figure run_fig14(const FigureOptions& o);  // TTL vs interval
[[nodiscard]] Figure run_fig15(const FigureOptions& o);  // delivery, RWP
[[nodiscard]] Figure run_fig16(const FigureOptions& o);  // delivery, trace
[[nodiscard]] Figure run_fig17(const FigureOptions& o);  // buffer, RWP
[[nodiscard]] Figure run_fig18(const FigureOptions& o);  // buffer, trace
[[nodiscard]] Figure run_fig19(const FigureOptions& o);  // duplication, RWP
[[nodiscard]] Figure run_fig20(const FigureOptions& o);  // duplication, trace

// Abstract claim: cumulative immunity needs an order of magnitude fewer
// signaling messages than per-bundle immunity.
[[nodiscard]] Figure run_overhead(const FigureOptions& o, bool rwp);

/// Streaming-statistics observatory panels: every protocol family on one
/// scenario at loads {10, 25, 40}, run with stats collection forced on so
/// each RunSummary carries its encounter/occupancy/signaling StatsProfile.
/// The printed table shows mean buffer occupancy; the panels themselves are
/// the profile JSON captured with `--stats-out=FILE`.
[[nodiscard]] Figure run_stats(const FigureOptions& o, bool rwp);

// --- robustness sweeps ----------------------------------------------------------

/// Bundle load every robustness run uses (mid-range of the paper's sweep, so
/// loss effects are visible without saturating any protocol).
inline constexpr std::uint32_t kRobustnessLoad = 25;

/// One metric vs loss rate {0, 5, ..., 40} percent for every protocol
/// family on one scenario. Each loss point applies the rate as both
/// per-slot transfer loss and control-plane loss (see fault::FaultPlan), so
/// the anti-packet/immunity schemes lose control state at the same rate the
/// data plane loses slots. The returned Figure's x axis is the loss percent
/// ("loss %"), not bundle load; load is pinned at kRobustnessLoad. The
/// figure owns the fault plan: a non-default `o.options.fault` throws
/// ConfigError before any run.
[[nodiscard]] Figure run_robustness(const FigureOptions& o, Metric metric,
                                    bool rwp);

// --- buffer-capacity sweeps -----------------------------------------------------

/// Bundle load every capacity-sweep run uses: mid-range, so small buffers
/// are clearly stressed (25 bundles cannot fit a 4-slot buffer) while large
/// ones are not.
inline constexpr std::uint32_t kCapacityLoad = 25;

/// One metric vs uniform buffer capacity {4, 6, 8, 10, 14, 20} on the trace
/// scenario, for each eviction policy on two protocol families: P-Q epidemic
/// (no admission rule of its own, so the configured policy decides
/// everything) and EC (its drop-largest-EC rule applies first, the policy
/// only as fallback). The returned Figure's x axis is the capacity
/// ("capacity"), not bundle load; load is pinned at kCapacityLoad. The
/// figure owns eviction and capacity: a non-default `o.options.eviction`
/// or any `o.options.node_capacities` throws ConfigError before any run.
[[nodiscard]] Figure run_capacity(const FigureOptions& o, Metric metric);

// --- compact-advertisement sweeps -----------------------------------------------

/// Bundle load every Bloom-codec sweep uses (mid-range, matching the
/// robustness sweeps, so false-positive suppression effects are visible
/// without saturating any protocol).
inline constexpr std::uint32_t kBloomLoad = 25;

/// Per-slot loss rate the faulted Bloom sweep applies as both transfer and
/// control loss, so compaction is measured on an impaired channel too.
inline constexpr double kBloomFaultLoss = 0.10;

/// One metric vs Bloom-filter bits-per-bundle {2, 4, 6, 8, 12, 16} under
/// the compact summary codec (hash count auto-derived, see
/// SummaryCodecParams::resolved_hashes) for five protocol families on the
/// trace scenario. The returned Figure's x axis is the filter density
/// ("bits/bundle"), not bundle load; load is pinned at kBloomLoad. With
/// `faulted`, every run additionally suffers kBloomFaultLoss slot and
/// control loss (see fault::FaultPlan), so the figure shows whether
/// compact advertisements amplify or absorb channel impairment. The figure
/// owns the summary mode and filter density (a non-default mode or
/// filter_bits in `o.options.summary` throws ConfigError before any run;
/// an explicit hash count is honoured), and with `faulted` also the fault
/// plan.
[[nodiscard]] Figure run_bloom(const FigureOptions& o, Metric metric,
                               bool faulted);

// --- city-scale sweeps ----------------------------------------------------------

/// One metric vs bundle load on the city_scale(1024) scenario (heterogeneous
/// point densities + commuter itineraries; see exp::city_scale) for the
/// large-suite protocol families. Not a paper figure: the paper stops at 12
/// nodes, this extrapolates its protocols to a city-sized contact process.
[[nodiscard]] Figure run_city(const FigureOptions& o, Metric metric);

// --- figure registry ------------------------------------------------------------

/// One registered figure: canonical id, the paper's qualitative shape claim
/// (printed under the table for eyeball comparison), and the captureless
/// runner that reproduces it. The registry is the single source of truth
/// for `bench_figure --fig/--list/--all`.
struct FigureSpec {
  const char* id;           ///< "fig07", "robust_trace_delivery", ...
  const char* paper_claim;  ///< expected shape, one line
  Figure (*run)(const FigureOptions& options);
  bool paper_figure;  ///< true for the paper's fig07..fig20 set
};

/// Every registered figure: the 14 paper figures first (paper order), then
/// the robustness sweeps.
[[nodiscard]] std::span<const FigureSpec> figure_registry();

/// Registry lookup by canonical id ("fig07", "robust_rwp_delay") or bare
/// figure number ("07", "7"). Returns nullptr when unknown.
[[nodiscard]] const FigureSpec* find_figure(std::string_view query);

// --- Table II -------------------------------------------------------------------

/// One protocol row of Table II: per-metric averages over the whole load
/// sweep, in percent, for one mobility input.
struct Table2Row {
  std::string protocol;
  double delivery_rwp = 0.0;
  double delivery_trace = 0.0;
  double buffer_rwp = 0.0;
  double buffer_trace = 0.0;
  double duplication_rwp = 0.0;
  double duplication_trace = 0.0;
};

/// Runs Table II's two sweeps (trace, then RWP: every protocol of the table
/// over the load axis) and reads its rows from them. When `sweeps` is set,
/// the two sweep figures are appended to it for callers that report on the
/// runs themselves.
[[nodiscard]] std::vector<Table2Row> run_table2(
    const FigureOptions& o, std::vector<Figure>* sweeps = nullptr);
void print_table2(std::ostream& out, const std::vector<Table2Row>& rows);

}  // namespace epi::exp
