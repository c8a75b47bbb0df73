#include "exp/figures.hpp"

#include <charconv>
#include <cstdio>
#include <iomanip>
#include <map>
#include <memory>
#include <ostream>
#include <utility>

#include "core/error.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "obs/progress.hpp"

namespace epi::exp {

// --- protocol shorthands ------------------------------------------------------

ProtocolParams pq_params(double p, double q) {
  ProtocolParams params;
  params.kind = ProtocolKind::kPqEpidemic;
  params.p = p;
  params.q = q;
  return params;
}

ProtocolParams fixed_ttl_params(SimTime ttl) {
  ProtocolParams params;
  params.kind = ProtocolKind::kFixedTtl;
  params.fixed_ttl = ttl;
  return params;
}

ProtocolParams dynamic_ttl_params() {
  ProtocolParams params;
  params.kind = ProtocolKind::kDynamicTtl;
  return params;  // Algo 1 defaults: TTL = 2 x last interval
}

ProtocolParams ec_params() {
  ProtocolParams params;
  params.kind = ProtocolKind::kEncounterCount;
  return params;
}

ProtocolParams ec_ttl_params() {
  ProtocolParams params;
  params.kind = ProtocolKind::kEcTtl;
  return params;  // Algo 2 defaults: threshold 8, TTL 300 - n*100
}

ProtocolParams immunity_params() {
  ProtocolParams params;
  params.kind = ProtocolKind::kImmunity;
  return params;
}

ProtocolParams cumulative_immunity_params() {
  ProtocolParams params;
  params.kind = ProtocolKind::kCumulativeImmunity;
  return params;
}

// --- generic driver -----------------------------------------------------------

namespace {

/// Builds the reporter a figure asked for: the live stderr line, the JSONL
/// mirror for the fleet driver, both, or neither. A mirror-only reporter
/// writes its terminal output into the bit bucket so N worker processes
/// never interleave carriage-return lines on one console.
std::unique_ptr<obs::ProgressReporter> make_progress(
    const FigureOptions& options, const std::string& id,
    std::size_t total_runs) {
  if (!options.progress && options.progress_path.empty()) return nullptr;
  auto reporter =
      options.progress
          ? std::make_unique<obs::ProgressReporter>(id, total_runs)
          : std::make_unique<obs::ProgressReporter>(id, total_runs,
                                                    obs::null_stream());
  if (!options.progress_path.empty()) {
    reporter->mirror_to(options.progress_path);
  }
  return reporter;
}

/// The x axis of a figure. On the paper's load axis (`apply` unset) each
/// series is one sweep over every load. Any other axis pins the load and
/// runs one sweep per (series, point), `apply` setting the swept knob; the
/// points concatenate into one series whose `loads` carry the axis values.
struct Axis {
  std::string name = "load";
  std::vector<std::uint32_t> points;  ///< empty on the load axis: paper's
  std::uint32_t load = 0;             ///< the pinned load off the load axis
  void (*apply)(SweepSpec& spec, std::uint32_t point) = nullptr;
};

/// The one figure driver: every figure, whatever its axis, runs here.
Figure run_axis_figure(std::string id, std::string title, Metric metric,
                       const std::vector<SeriesDef>& series,
                       const FigureOptions& options, Axis axis) {
  Figure figure;
  figure.id = std::move(id);
  figure.title = std::move(title);
  figure.metric = metric;
  figure.axis = axis.name;
  if (axis.points.empty()) axis.points = paper_loads();

  // Each distinct mobility input is built at most once, on first need, and
  // shared by every series over the same scenario (paper SIV: one trace,
  // many runs). Lazily, because a fully-warm store serves every run
  // without simulating — regeneration then skips mobility entirely, which
  // is most of the wall time of a cached figure.
  std::map<std::string, mobility::ContactTrace> traces;

  std::unique_ptr<obs::ProgressReporter> progress =
      make_progress(options, figure.id,
                    series.size() * axis.points.size() * options.replications);

  for (const SeriesDef& def : series) {
    SweepSpec spec(options);
    spec.scenario = def.scenario;
    spec.protocol = def.protocol;
    spec.progress = progress.get();
    if (def.eviction.has_value()) spec.options.eviction = *def.eviction;
    const TraceProvider provider =
        [&traces, &def,
         seed = options.master_seed]() -> const mobility::ContactTrace& {
      auto it = traces.find(def.scenario.name);
      if (it == traces.end()) {
        it = traces
                 .emplace(def.scenario.name,
                          build_contact_trace(def.scenario, seed))
                 .first;
      }
      return it->second;
    };

    figure.labels.push_back(def.label);
    if (axis.apply == nullptr) {
      spec.loads = axis.points;
      figure.results.push_back(run_sweep_on(spec, provider));
      continue;
    }
    SweepResult row;
    row.scenario_name = def.scenario.name;
    row.protocol = def.protocol;
    spec.loads = {axis.load};
    for (const std::uint32_t point : axis.points) {
      axis.apply(spec, point);
      SweepResult one = run_sweep_on(spec, provider);
      row.loads.push_back(point);
      row.points.push_back(std::move(one.points.front()));
      row.runs.push_back(std::move(one.runs.front()));
    }
    figure.results.push_back(std::move(row));
  }
  return figure;
}

}  // namespace

Figure run_figure(std::string id, std::string title, Metric metric,
                  std::vector<SeriesDef> series,
                  const FigureOptions& options,
                  std::vector<std::uint32_t> loads) {
  return run_axis_figure(std::move(id), std::move(title), metric, series,
                         options, {.points = std::move(loads)});
}

// --- figure definitions ---------------------------------------------------------

namespace {

/// SV-A comparison set: the four existing protocols at their best-delay
/// parameters (P = Q = 1, TTL = 300 s).
std::vector<SeriesDef> existing_protocols(const ScenarioSpec& scenario,
                                          bool with_immunity) {
  std::vector<SeriesDef> series{
      {"P-Q epidemic", scenario, pq_params(1.0, 1.0)},
      {"TTL=300", scenario, fixed_ttl_params()},
  };
  if (with_immunity) {
    series.push_back({"Immunity", scenario, immunity_params()});
  }
  series.push_back({"EC", scenario, ec_params()});
  return series;
}

/// Every protocol family: the SV-A originals plus every SV-B enhancement.
std::vector<SeriesDef> all_families(const ScenarioSpec& scenario) {
  return {
      {"P-Q epidemic", scenario, pq_params(1.0, 1.0)},
      {"TTL=300", scenario, fixed_ttl_params()},
      {"dynamic TTL", scenario, dynamic_ttl_params()},
      {"EC", scenario, ec_params()},
      {"EC+TTL", scenario, ec_ttl_params()},
      {"Immunity", scenario, immunity_params()},
      {"CumImmunity", scenario, cumulative_immunity_params()},
  };
}

/// SV-B trace comparison set: enhancements vs originals (Figs. 16, 18, 20).
std::vector<SeriesDef> enhanced_trace() {
  const ScenarioSpec trace = trace_scenario();
  return {
      {"dynamic TTL", trace, dynamic_ttl_params()},
      {"TTL=300", trace, fixed_ttl_params()},
      {"EC", trace, ec_params()},
      {"EC+TTL", trace, ec_ttl_params()},
      {"Immunity", trace, immunity_params()},
      {"CumImmunity", trace, cumulative_immunity_params()},
  };
}

/// SV-B RWP comparison set (Figs. 15, 17, 19): the TTL variants run on the
/// controlled-interval scenarios (the figures' legends pair each TTL series
/// with an interval time), the rest on the RWP model.
std::vector<SeriesDef> enhanced_rwp() {
  const ScenarioSpec rwp = rwp_scenario();
  const ScenarioSpec i400 = interval_scenario(400.0);
  const ScenarioSpec i2000 = interval_scenario(2000.0);
  return {
      {"dynTTL@2000", i2000, dynamic_ttl_params()},
      {"dynTTL@400", i400, dynamic_ttl_params()},
      {"TTL300@2000", i2000, fixed_ttl_params()},
      {"TTL300@400", i400, fixed_ttl_params()},
      {"EC", rwp, ec_params()},
      {"EC+TTL", rwp, ec_ttl_params()},
      {"Immunity", rwp, immunity_params()},
      {"CumImmunity", rwp, cumulative_immunity_params()},
  };
}

}  // namespace

Figure run_fig07(const FigureOptions& o) {
  return run_figure(
      "fig07", "Delay comparison of epidemic-based protocols (trace file)",
      Metric::kDelay, existing_protocols(trace_scenario(), false), o);
}

Figure run_fig08(const FigureOptions& o) {
  return run_figure("fig08",
                    "Delay comparison of epidemic-based protocols (RWP)",
                    Metric::kDelay, existing_protocols(rwp_scenario(), true),
                    o);
}

Figure run_fig09(const FigureOptions& o) {
  return run_figure("fig09",
                    "Average bundle duplication rate (trace file)",
                    Metric::kDuplicationRate,
                    existing_protocols(trace_scenario(), true), o);
}

Figure run_fig10(const FigureOptions& o) {
  return run_figure("fig10", "Average bundle duplication rate (RWP)",
                    Metric::kDuplicationRate,
                    existing_protocols(rwp_scenario(), true), o);
}

Figure run_fig11(const FigureOptions& o) {
  return run_figure("fig11", "Buffer occupancy level comparison (trace file)",
                    Metric::kBufferOccupancy,
                    existing_protocols(trace_scenario(), true), o);
}

Figure run_fig12(const FigureOptions& o) {
  return run_figure("fig12", "Average buffer occupancy level (RWP)",
                    Metric::kBufferOccupancy,
                    existing_protocols(rwp_scenario(), true), o);
}

Figure run_fig13(const FigureOptions& o) {
  const ScenarioSpec trace = trace_scenario();
  return run_figure("fig13",
                    "Delivery ratio comparison of epidemic with TTL and EC "
                    "(trace file)",
                    Metric::kDeliveryRatio,
                    {{"EC", trace, ec_params()},
                     {"TTL=300", trace, fixed_ttl_params()}},
                    o);
}

Figure run_fig14(const FigureOptions& o) {
  return run_figure(
      "fig14",
      "Delivery ratio of epidemic with TTL=300 under two encounter intervals",
      Metric::kDeliveryRatio,
      {{"interval=400", interval_scenario(400.0), fixed_ttl_params()},
       {"interval=2000", interval_scenario(2000.0), fixed_ttl_params()}},
      o);
}

Figure run_fig15(const FigureOptions& o) {
  return run_figure("fig15",
                    "Delivery ratio of modified and un-modified protocols "
                    "(RWP + interval scenarios)",
                    Metric::kDeliveryRatio, enhanced_rwp(), o);
}

Figure run_fig16(const FigureOptions& o) {
  return run_figure("fig16",
                    "Delivery ratio of modified and un-modified protocols "
                    "(trace file)",
                    Metric::kDeliveryRatio, enhanced_trace(), o);
}

Figure run_fig17(const FigureOptions& o) {
  return run_figure("fig17",
                    "Buffer occupancy level of modified and un-modified "
                    "protocols (RWP + interval scenarios)",
                    Metric::kBufferOccupancy, enhanced_rwp(), o);
}

Figure run_fig18(const FigureOptions& o) {
  return run_figure("fig18",
                    "Buffer occupancy level of modified and un-modified "
                    "protocols (trace file)",
                    Metric::kBufferOccupancy, enhanced_trace(), o);
}

Figure run_fig19(const FigureOptions& o) {
  return run_figure("fig19",
                    "Bundle duplication rate of modified and un-modified "
                    "protocols (RWP + interval scenarios)",
                    Metric::kDuplicationRate, enhanced_rwp(), o);
}

Figure run_fig20(const FigureOptions& o) {
  return run_figure("fig20",
                    "Bundle duplication rate of modified and un-modified "
                    "protocols (trace file)",
                    Metric::kDuplicationRate, enhanced_trace(), o);
}

Figure run_overhead(const FigureOptions& o, bool rwp) {
  const ScenarioSpec scenario = rwp ? rwp_scenario() : trace_scenario();
  return run_figure(
      std::string("overhead_") + scenario.name,
      "Signaling overhead: per-bundle vs cumulative immunity tables (" +
          scenario.name + ")",
      Metric::kControlRecords,
      {{"Immunity", scenario, immunity_params()},
       {"CumImmunity", scenario, cumulative_immunity_params()}},
      o);
}

Figure run_stats(const FigureOptions& o, bool rwp) {
  const ScenarioSpec scenario = rwp ? rwp_scenario() : trace_scenario();
  // Force profile collection: the figure exists to produce StatsProfiles,
  // and a forced flag keeps cached summaries (which carry none) out.
  FigureOptions opts = o;
  opts.collect_stats = true;
  return run_figure(
      std::string("stats_") + scenario.name,
      "Encounter/occupancy/signaling statistics panels (" + scenario.name +
          ")",
      Metric::kBufferOccupancy, all_families(scenario), opts, {10, 25, 40});
}

// --- axis sweeps ---------------------------------------------------------------

namespace {

const char* metric_slug(Metric metric) noexcept {
  switch (metric) {
    case Metric::kDeliveryRatio: return "delivery";
    case Metric::kDelay: return "delay";
    case Metric::kDuplicationRate: return "dup";
    case Metric::kSignalingBytes: return "signaling";
    default: return "metric";
  }
}

/// An axis figure sets `option` itself on every run, so a user value there
/// would be overwritten without a trace; it is refused before anything runs.
void require_default(bool is_default, const std::string& figure,
                     const char* option) {
  if (!is_default) {
    throw ConfigError(figure + " sets " + option +
                      " itself; leave it at its default for this figure");
  }
}

}  // namespace

Figure run_robustness(const FigureOptions& o, Metric metric, bool rwp) {
  const ScenarioSpec scenario = rwp ? rwp_scenario() : trace_scenario();
  std::string id =
      std::string("robust_") + scenario.name + "_" + metric_slug(metric);
  require_default(o.options.fault == fault::FaultPlan{}, id, "the fault plan");
  // Loss axis {0, 5, ..., 40} percent, applied to slots and control alike.
  Axis loss{"loss %", {}, kRobustnessLoad,
            [](SweepSpec& spec, std::uint32_t percent) {
              spec.options.fault = fault::FaultPlanBuilder()
                                       .slot_loss(percent / 100.0)
                                       .control_loss(percent / 100.0)
                                       .build();
            }};
  for (std::uint32_t p = 0; p <= 40; p += 5) loss.points.push_back(p);
  return run_axis_figure(
      std::move(id),
      std::string(metric_name(metric)) + " vs transfer/control loss rate (" +
          scenario.name + ", load " + std::to_string(kRobustnessLoad) + ")",
      metric, all_families(scenario), o, std::move(loss));
}

Figure run_capacity(const FigureOptions& o, Metric metric) {
  const ScenarioSpec scenario = trace_scenario();
  std::string id =
      std::string("capacity_") + scenario.name + "_" + metric_slug(metric);
  require_default(o.options.eviction == EvictionPolicy::kDropTail, id,
                  "the eviction policy (--evict)");
  require_default(o.options.node_capacities.empty(), id,
                  "the buffer capacities");

  // Two families spanning the admission spectrum: P-Q has no rule of its
  // own (the configured policy decides everything), EC applies its
  // drop-largest-EC rule first and uses the policy only as fallback. Each
  // series pins one eviction policy.
  std::vector<SeriesDef> series;
  for (const auto& [family, params] :
       {std::pair{"P-Q/", pq_params(1.0, 1.0)}, std::pair{"EC/", ec_params()}}) {
    for (const EvictionPolicy policy :
         {EvictionPolicy::kDropTail, EvictionPolicy::kDropOldest,
          EvictionPolicy::kDropMostReplicated,
          EvictionPolicy::kDropLargestEc}) {
      series.push_back({family + std::string(to_string(policy)), scenario,
                        params, policy});
    }
  }
  // Capacity axis: below, at and above the paper's 10.
  return run_axis_figure(
      std::move(id),
      std::string(metric_name(metric)) +
          " vs uniform buffer capacity per eviction policy (" +
          scenario.name + ", load " + std::to_string(kCapacityLoad) + ")",
      metric, series, o,
      {"capacity", {4, 6, 8, 10, 14, 20}, kCapacityLoad,
       [](SweepSpec& spec, std::uint32_t capacity) {
         spec.buffer_capacity = capacity;
       }});
}

Figure run_bloom(const FigureOptions& o, Metric metric, bool faulted) {
  const ScenarioSpec scenario = trace_scenario();
  std::string id = std::string(faulted ? "bloom_fault_" : "bloom_trace_") +
                   metric_slug(metric);
  require_default(o.options.summary.mode == SummaryMode::kExact, id,
                  "the summary mode (--summary-mode)");
  require_default(
      o.options.summary.filter_bits == SummaryCodecParams{}.filter_bits, id,
      "the filter density (--filter-bits)");
  FigureOptions opts = o;
  opts.options.summary.mode = SummaryMode::kBloom;
  if (faulted) {
    require_default(o.options.fault == fault::FaultPlan{}, id,
                    "the fault plan");
    opts.options.fault = fault::FaultPlanBuilder()
                             .slot_loss(kBloomFaultLoss)
                             .control_loss(kBloomFaultLoss)
                             .build();
  }

  // Families spanning the exchange spectrum: P-Q (pure summary-vector
  // gossip), fixed TTL (expiry-limited), EC (count-limited), and both
  // immunity schemes (whose control plane rides the same contacts the
  // filters compress).
  std::vector<SeriesDef> series{
      {"P-Q epidemic", scenario, pq_params(1.0, 1.0)},
      {"TTL=300", scenario, fixed_ttl_params()},
      {"EC", scenario, ec_params()},
      {"Immunity", scenario, immunity_params()},
      {"CumImmunity", scenario, cumulative_immunity_params()},
  };
  // Filter-density axis in bits per buffered bundle: brutal (2), around the
  // 1%-FP sweet spot (8..12), and diminishing (16).
  return run_axis_figure(
      std::move(id),
      std::string(metric_name(metric)) +
          " vs Bloom advertisement bits/bundle (" + scenario.name +
          ", load " + std::to_string(kBloomLoad) +
          (faulted ? ", 10% slot+control loss)" : ")"),
      metric, series, opts,
      {"bits/bundle", {2, 4, 6, 8, 12, 16}, kBloomLoad,
       [](SweepSpec& spec, std::uint32_t bits) {
         spec.options.summary.filter_bits = bits;
       }});
}

// --- city-scale sweeps ----------------------------------------------------------

Figure run_city(const FigureOptions& o, Metric metric) {
  // One shared city trace (run_figure materialises it once per scenario
  // name); 1024 nodes keeps a full replication sweep tractable while the
  // hotspot core and commuter bias still shape the contact process. The
  // protocol set mirrors the large-N bench suite: the families whose
  // exchange sets grow with node count, plus the pure baseline.
  const ScenarioSpec city = city_scale(1024);
  ProtocolParams pure;
  pure.kind = ProtocolKind::kPureEpidemic;
  std::vector<SeriesDef> series{
      {"pure epidemic", city, pure},
      {"P-Q epidemic", city, pq_params(1.0, 1.0)},
      {"Immunity", city, immunity_params()},
  };
  return run_figure(std::string("city_") + metric_slug(metric),
                    std::string(metric_name(metric)) +
                        " vs load at city scale (1024 nodes, hotspot core, "
                        "commuter flows)",
                    metric, std::move(series), o);
}

// --- figure registry ------------------------------------------------------------

namespace {

constexpr FigureSpec kRegistry[] = {
    {"fig07",
     "delay grows fastest for EC and slowest for P-Q as load rises (trace "
     "file)",
     run_fig07, true},
    {"fig08",
     "EC has the worst delay; fixed TTL sits above immunity; P-Q is best "
     "(RWP)",
     run_fig08, true},
    {"fig09",
     "EC has the lowest duplication rate; immunity exceeds 60%; P-Q is high "
     "(trace file)",
     run_fig09, true},
    {"fig10", "EC lowest, immunity/P-Q highest duplication rate (RWP)",
     run_fig10, true},
    {"fig11",
     "P-Q consumes the most buffer (>80% past load 10); immunity ~10% below "
     "it; TTL lowest (trace file)",
     run_fig11, true},
    {"fig12",
     "same ordering as the trace: P-Q highest, then EC, immunity, TTL lowest "
     "(RWP)",
     run_fig12, true},
    {"fig13",
     "both EC and TTL delivery ratios fall as load rises; TTL falls further "
     "(trace file)",
     run_fig13, true},
    {"fig14",
     "TTL=300 delivers markedly less when encounter intervals stretch from "
     "400 to 2000 s",
     run_fig14, true},
    {"fig15",
     "dynamic TTL beats fixed TTL at both interval settings; EC+TTL >= EC; "
     "immunity ~ cumulative (RWP + interval)",
     run_fig15, true},
    {"fig16",
     "dynamic TTL beats TTL=300 by >20%; EC+TTL clearly above EC at high "
     "load; immunity variants ~100% (trace file)",
     run_fig16, true},
    {"fig17",
     "dynamic TTL buffers more than fixed but stays moderate; EC+TTL below "
     "EC; cumulative below immunity (RWP + interval)",
     run_fig17, true},
    {"fig18",
     "EC highest buffer occupancy; EC+TTL ~20% below; cumulative below "
     "immunity; TTL lowest (trace file)",
     run_fig18, true},
    {"fig19",
     "dynamic TTL duplicates slightly more than fixed; EC+TTL >= EC past "
     "load 30; cumulative below immunity (RWP + interval)",
     run_fig19, true},
    {"fig20",
     "same orderings as RWP: enhancements duplicate slightly more, "
     "cumulative immunity less (trace file)",
     run_fig20, true},
    {"robust_trace_delivery",
     "TTL-limited variants lose delivery as loss rises; unlimited epidemic "
     "variants absorb loss through replication redundancy (trace file)",
     [](const FigureOptions& o) {
       return run_robustness(o, Metric::kDeliveryRatio, false);
     },
     false},
    {"robust_trace_delay",
     "delay rises with loss for every protocol family (trace file)",
     [](const FigureOptions& o) {
       return run_robustness(o, Metric::kDelay, false);
     },
     false},
    {"robust_trace_dup",
     "duplication shrinks with loss (fewer slots succeed), but immunity "
     "purging weakens faster as anti-packets are dropped (trace file)",
     [](const FigureOptions& o) {
       return run_robustness(o, Metric::kDuplicationRate, false);
     },
     false},
    {"robust_rwp_delivery",
     "TTL-limited variants lose delivery as loss rises; unlimited epidemic "
     "variants absorb loss through replication redundancy (RWP)",
     [](const FigureOptions& o) {
       return run_robustness(o, Metric::kDeliveryRatio, true);
     },
     false},
    {"robust_rwp_delay",
     "delay rises with loss for every protocol family (RWP)",
     [](const FigureOptions& o) {
       return run_robustness(o, Metric::kDelay, true);
     },
     false},
    {"robust_rwp_dup",
     "duplication shrinks with loss (fewer slots succeed), but immunity "
     "purging weakens faster as anti-packets are dropped (RWP)",
     [](const FigureOptions& o) {
       return run_robustness(o, Metric::kDuplicationRate, true);
     },
     false},
    {"stats_trace",
     "encounter/occupancy/signaling profiles for every protocol family at "
     "loads 10/25/40 (trace file); capture with --stats-out",
     [](const FigureOptions& o) { return run_stats(o, false); }, false},
    {"stats_rwp",
     "encounter/occupancy/signaling profiles for every protocol family at "
     "loads 10/25/40 (RWP); capture with --stats-out",
     [](const FigureOptions& o) { return run_stats(o, true); }, false},
    {"capacity_trace_delivery",
     "drop-tail holds 100% delivery at every capacity (refusal stalls the "
     "epidemic but never destroys a copy); drop-oldest/most-replicated cap "
     "delivery near capacity/load by churning away last copies; "
     "drop-largest-EC protects fresh copies and tracks drop-tail (trace "
     "file)",
     [](const FigureOptions& o) {
       return run_capacity(o, Metric::kDeliveryRatio);
     },
     false},
    {"capacity_trace_delay",
     "drop-tail completion delay falls as capacity grows; the "
     "copy-destroying policies never complete (horizon-charged); "
     "drop-largest-EC matches drop-tail from capacity 8 up (trace file)",
     [](const FigureOptions& o) { return run_capacity(o, Metric::kDelay); },
     false},
    {"bloom_trace_delivery",
     "replication redundancy absorbs false-positive suppression at the "
     "paper's 12-node scale: delivery holds at the exact codec's level even "
     "at 2 bits/bundle; the cost surfaces as delay and suppressed transfers "
     "instead (trace file, load 25)",
     [](const FigureOptions& o) {
       return run_bloom(o, Metric::kDeliveryRatio, false);
     },
     false},
    {"bloom_trace_delay",
     "delay falls toward the exact codec's as bits/bundle grow; sparse "
     "filters stall transfers behind false-positive suppressions (trace "
     "file, load 25)",
     [](const FigureOptions& o) { return run_bloom(o, Metric::kDelay, false); },
     false},
    {"bloom_trace_signaling",
     "advertisement bytes grow linearly in bits/bundle and stay well below "
     "the exact codec's 4 bytes/entry until ~16 bits; immunity families add "
     "control bytes on top (trace file, load 25)",
     [](const FigureOptions& o) {
       return run_bloom(o, Metric::kSignalingBytes, false);
     },
     false},
    {"bloom_fault_delivery",
     "even under 10% slot+control loss the unlimited epidemic families hold "
     "delivery at every filter density; TTL-limited delivery is loss-bound, "
     "not filter-bound (trace file, load 25)",
     [](const FigureOptions& o) {
       return run_bloom(o, Metric::kDeliveryRatio, true);
     },
     false},
    {"city_delivery",
     "pure epidemic is buffer-capped at city scale (delivery ~ capacity/"
     "load once load exceeds the 10-slot buffer); the anti-packet families "
     "purge delivered copies and hold full delivery throughout",
     [](const FigureOptions& o) {
       return run_city(o, Metric::kDeliveryRatio);
     },
     false},
    {"city_delay",
     "past load 10 pure epidemic saturates (incomplete runs are horizon-"
     "charged); the anti-packet families complete at every load with delay "
     "growing roughly linearly in load (city scale)",
     [](const FigureOptions& o) { return run_city(o, Metric::kDelay); },
     false},
};

}  // namespace

std::span<const FigureSpec> figure_registry() { return kRegistry; }

const FigureSpec* find_figure(std::string_view query) {
  // Bare figure numbers ("7", "07") normalize to the canonical "fig07".
  std::string canonical(query);
  if (!query.empty() &&
      query.find_first_not_of("0123456789") == std::string_view::npos) {
    unsigned number = 0;
    const auto [ptr, ec] =
        std::from_chars(query.data(), query.data() + query.size(), number);
    if (ec == std::errc{} && ptr == query.data() + query.size()) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "fig%02u", number);
      canonical = buf;
    }
  }
  for (const FigureSpec& spec : figure_registry()) {
    if (canonical == spec.id) return &spec;
  }
  return nullptr;
}

std::vector<Table2Row> run_table2(const FigureOptions& o,
                                  std::vector<Figure>* sweeps) {
  struct Def {
    std::string name;
    ProtocolParams params;
  };
  const std::vector<Def> defs{
      {"Epidemic with TTL", fixed_ttl_params()},
      {"Epidemic with Dynamic TTL", dynamic_ttl_params()},
      {"Epidemic with EC", ec_params()},
      {"Epidemic with EC+TTL", ec_ttl_params()},
      {"Epidemic with Immunity table", immunity_params()},
      {"Epidemic with Cumulative Immunity table",
       cumulative_immunity_params()},
  };

  std::vector<Table2Row> rows;
  rows.reserve(defs.size());
  for (const auto& scenario_is_rwp : {false, true}) {
    std::vector<SeriesDef> series;
    const ScenarioSpec scenario =
        scenario_is_rwp ? rwp_scenario() : trace_scenario();
    series.reserve(defs.size());
    for (const auto& def : defs) {
      series.push_back({def.name, scenario, def.params});
    }
    const Figure delivery = run_figure("table2", "tmp",
                                       Metric::kDeliveryRatio, series, o);
    for (std::size_t i = 0; i < defs.size(); ++i) {
      if (!scenario_is_rwp && rows.size() <= i) {
        rows.push_back(Table2Row{defs[i].name});
      }
      Table2Row& row = rows[i];
      // Recompute the three metrics from the same sweep results.
      const SweepResult& result = delivery.results[i];
      double d = 0.0;
      double b = 0.0;
      double dup = 0.0;
      for (const auto& point : result.points) {
        d += point.delivery_ratio.mean;
        b += point.buffer_occupancy.mean;
        dup += point.duplication_rate.mean;
      }
      const auto n = static_cast<double>(result.points.size());
      if (scenario_is_rwp) {
        row.delivery_rwp = 100.0 * d / n;
        row.buffer_rwp = 100.0 * b / n;
        row.duplication_rwp = 100.0 * dup / n;
      } else {
        row.delivery_trace = 100.0 * d / n;
        row.buffer_trace = 100.0 * b / n;
        row.duplication_trace = 100.0 * dup / n;
      }
    }
    if (sweeps != nullptr) sweeps->push_back(delivery);
  }
  return rows;
}

void print_table2(std::ostream& out, const std::vector<Table2Row>& rows) {
  out << "== Table II: comparison of original and enhanced protocols ==\n";
  out << "(sweep-average values in percent)\n";
  out << std::left << std::setw(42) << "protocol" << std::right
      << std::setw(10) << "dlv RWP" << std::setw(10) << "dlv trc"
      << std::setw(10) << "buf RWP" << std::setw(10) << "buf trc"
      << std::setw(10) << "dup RWP" << std::setw(10) << "dup trc" << "\n";
  for (const auto& row : rows) {
    out << std::left << std::setw(42) << row.protocol << std::right
        << std::fixed << std::setprecision(1) << std::setw(10)
        << row.delivery_rwp << std::setw(10) << row.delivery_trace
        << std::setw(10) << row.buffer_rwp << std::setw(10)
        << row.buffer_trace << std::setw(10) << row.duplication_rwp
        << std::setw(10) << row.duplication_trace << "\n";
  }
  out.unsetf(std::ios::floatfield);
}

}  // namespace epi::exp
