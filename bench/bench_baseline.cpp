// Perf-regression baseline: end-to-end engine runs for every protocol
// family on both canonical scenarios, written as machine-readable JSON.
//
//   bench_baseline [--out FILE] [--reps N] [--quick]
//
// Per case it reports ns/run (best of N reps, steady_clock around the whole
// run including engine construction) and engine events/s from PerfCounters,
// plus the deterministic counters (events_processed, peak_queue_depth,
// transfers) that scripts/compare_bench.py checks bit-exactly: a perf number
// may drift with the machine, a counter may not.
//
// The committed repo baseline is BENCH_engine.json at the repo root;
// regenerate it with `bench_baseline --out BENCH_engine.json` after an
// intentional engine change and let the compare script arbitrate the rest.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "exp/builders.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "fault/plan.hpp"

namespace {

struct CaseResult {
  std::string name;
  double ns_per_run = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t events_processed = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t transfers = 0;
  // Deterministic fault counters (all zero for the fault-free suites).
  std::uint64_t slots_lost = 0;
  std::uint64_t down_slots = 0;
  std::uint64_t control_dropped = 0;
  std::uint64_t contacts_truncated = 0;
  std::uint64_t transfers_refused_full = 0;
  // Deterministic signaling counters (ad bytes are codec-dependent; the
  // suppression counter is nonzero only under a compact codec's FPs).
  std::uint64_t summary_exchanges = 0;
  std::uint64_t summary_ad_bytes = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t transfers_suppressed_fp = 0;
};

constexpr const char* kTraceProtocols[] = {
    "immunity",     "encounter_count", "cumulative_immunity", "pure_epidemic",
    "pq_epidemic",  "fixed_ttl",       "dynamic_ttl",         "ec_ttl",
};
constexpr const char* kRwpProtocols[] = {
    "pure_epidemic", "encounter_count", "immunity",
    "spray_and_wait", "direct_delivery",
};
// Large-N suite: the protocols whose contact path leans on the exchange
// sets (i-lists, anti-packets) plus the pure baseline. The cumulative-table
// protocol is absent by necessity: it is defined for a single flow only.
constexpr const char* kLargeProtocols[] = {
    "pure_epidemic", "immunity", "pq_epidemic",
};

template <std::size_t N>
void run_suite_impl(
    std::vector<CaseResult>& results, std::string_view scenario_name,
    const epi::exp::ScenarioSpec& scenario,
    const char* const (&protocols)[N], std::uint32_t reps,
    const std::vector<epi::FlowSpec>& flows,
    const epi::exp::ProtocolOptions& options,
    const std::function<epi::metrics::RunSummary(const epi::exp::RunSpec&)>&
        run_once) {
  using clock = std::chrono::steady_clock;
  std::uint32_t total_load = 0;
  for (const auto& f : flows) total_load += f.load;
  for (const char* protocol : protocols) {
    CaseResult r;
    r.name = std::string(scenario_name) + "/" + protocol;
    epi::ProtocolParams params;
    params.kind = epi::protocol_from_string(protocol);
    const epi::exp::RunSpec spec =
        epi::exp::RunSpecBuilder()
            .protocol(params)
            .scenario(scenario)
            .load(flows.empty() ? 25 : total_load)
            .flows(flows)
            .replication(1)  // fixed: every rep times the identical run
            .options(options)
            .build();
    double best_seconds = std::numeric_limits<double>::infinity();
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      const auto t0 = clock::now();
      const auto summary = run_once(spec);
      const double seconds =
          std::chrono::duration<double>(clock::now() - t0).count();
      if (seconds < best_seconds) best_seconds = seconds;
      if (rep == 0) {
        r.events_processed = summary.perf.events_processed;
        r.peak_queue_depth = summary.perf.peak_queue_depth;
        r.transfers = summary.perf.transfers;
        r.slots_lost = summary.perf.slots_lost;
        r.down_slots = summary.perf.down_slots;
        r.control_dropped = summary.perf.control_dropped;
        r.contacts_truncated = summary.perf.contacts_truncated;
        r.transfers_refused_full = summary.perf.transfers_refused_full;
        r.summary_exchanges = summary.perf.summary_exchanges;
        r.summary_ad_bytes = summary.perf.summary_ad_bytes;
        r.control_bytes = summary.perf.control_bytes;
        r.transfers_suppressed_fp = summary.perf.transfers_suppressed_fp;
      } else if (summary.perf.events_processed != r.events_processed ||
                 summary.perf.transfers != r.transfers ||
                 summary.perf.slots_lost != r.slots_lost ||
                 summary.perf.contacts_truncated != r.contacts_truncated ||
                 summary.perf.transfers_refused_full !=
                     r.transfers_refused_full ||
                 summary.perf.summary_ad_bytes != r.summary_ad_bytes ||
                 summary.perf.transfers_suppressed_fp !=
                     r.transfers_suppressed_fp) {
        std::fprintf(stderr, "non-deterministic repetition in %s\n",
                     r.name.c_str());
        std::exit(1);
      }
    }
    r.ns_per_run = best_seconds * 1e9;
    r.events_per_sec =
        static_cast<double>(r.events_processed) / best_seconds;
    std::fprintf(stderr, "%-28s %12.0f ns/run %12.3g ev/s\n", r.name.c_str(),
                 r.ns_per_run, r.events_per_sec);
    results.push_back(std::move(r));
  }
}

template <std::size_t N>
void run_suite(std::vector<CaseResult>& results, std::string_view scenario_name,
               const epi::exp::ScenarioSpec& scenario,
               const epi::mobility::ContactTrace& trace,
               const char* const (&protocols)[N], std::uint32_t reps,
               const std::vector<epi::FlowSpec>& flows = {},
               const epi::exp::ProtocolOptions& options = {}) {
  run_suite_impl(results, scenario_name, scenario, protocols, reps, flows,
                 options,
                 [&](const epi::exp::RunSpec& spec) {
                   return epi::exp::run_single(spec, trace);
                 });
}

// Streamed variant: contacts are pulled from the scenario's ContactSource
// instead of a pre-materialised trace, so the timing includes generation —
// the honest cost of the city-scale path, whose point is never holding the
// full contact vector. A fresh source is built per rep (sources are
// single-pass).
template <std::size_t N>
void run_suite_streamed(std::vector<CaseResult>& results,
                        std::string_view scenario_name,
                        const epi::exp::ScenarioSpec& scenario,
                        const char* const (&protocols)[N], std::uint32_t reps,
                        const std::vector<epi::FlowSpec>& flows = {}) {
  run_suite_impl(results, scenario_name, scenario, protocols, reps, flows, {},
                 [&](const epi::exp::RunSpec& spec) {
                   const auto source = epi::exp::build_contact_source(
                       scenario, 42);
                   return epi::exp::run_single(spec, *source);
                 });
}

void write_json(const std::string& path, const std::vector<CaseResult>& results,
                std::uint32_t reps) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": 1,\n  \"suite\": \"engine_baseline\",\n");
  std::fprintf(f, "  \"reps\": %u,\n  \"load\": 25,\n  \"benchmarks\": [\n",
               reps);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ns_per_run\": %.0f, "
                 "\"events_per_sec\": %.0f, \"events_processed\": %llu, "
                 "\"peak_queue_depth\": %llu, \"transfers\": %llu, "
                 "\"slots_lost\": %llu, \"down_slots\": %llu, "
                 "\"control_dropped\": %llu, \"contacts_truncated\": %llu, "
                 "\"transfers_refused_full\": %llu, "
                 "\"summary_exchanges\": %llu, \"summary_ad_bytes\": %llu, "
                 "\"control_bytes\": %llu, "
                 "\"transfers_suppressed_fp\": %llu}%s\n",
                 r.name.c_str(), r.ns_per_run, r.events_per_sec,
                 static_cast<unsigned long long>(r.events_processed),
                 static_cast<unsigned long long>(r.peak_queue_depth),
                 static_cast<unsigned long long>(r.transfers),
                 static_cast<unsigned long long>(r.slots_lost),
                 static_cast<unsigned long long>(r.down_slots),
                 static_cast<unsigned long long>(r.control_dropped),
                 static_cast<unsigned long long>(r.contacts_truncated),
                 static_cast<unsigned long long>(r.transfers_refused_full),
                 static_cast<unsigned long long>(r.summary_exchanges),
                 static_cast<unsigned long long>(r.summary_ad_bytes),
                 static_cast<unsigned long long>(r.control_bytes),
                 static_cast<unsigned long long>(r.transfers_suppressed_fp),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_engine.json";
  std::uint32_t reps = 5;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string_view inline_value;
    bool has_inline = false;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline = true;
    }
    const auto next = [&]() -> std::string {
      if (has_inline) return std::string(inline_value);
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %.*s\n",
                     static_cast<int>(arg.size()), arg.data());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out = next();
    } else if (arg == "--reps") {
      reps = epi::bench::parse_unsigned<std::uint32_t>(arg, next());
    } else if (arg == "--quick") {
      reps = 1;  // CI smoke: one timing rep per case
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [--out FILE] [--reps N] [--quick]\n", argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %.*s\n",
                   static_cast<int>(arg.size()), arg.data());
      return 2;
    }
  }
  if (reps == 0) {
    std::fprintf(stderr, "--reps must be >= 1\n");
    return 2;
  }

  std::vector<CaseResult> results;
  const auto trace_spec = epi::exp::trace_scenario();
  const auto rwp_spec = epi::exp::rwp_scenario();
  const auto trace = epi::exp::build_contact_trace(trace_spec, 42);
  const auto rwp = epi::exp::build_contact_trace(rwp_spec, 42);
  run_suite(results, "trace", trace_spec, trace, kTraceProtocols, reps);
  run_suite(results, "rwp", rwp_spec, rwp, kRwpProtocols, reps);
  // Robustness suite: the same protocol families under a composite fault
  // plan (transfer loss + truncation + duty cycling + control loss). The
  // repetition check above doubles as a fault-determinism gate, and the
  // fault counters land in the JSON for compare_bench.py to pin.
  const epi::fault::FaultPlan fault_plan = epi::fault::FaultPlanBuilder()
                                               .slot_loss(0.2)
                                               .truncation(0.1)
                                               .duty_cycle(0.25, 7'200.0)
                                               .control_loss(0.2)
                                               .build();
  epi::exp::ProtocolOptions faulted;
  faulted.fault = fault_plan;
  run_suite(results, "trace+fault", trace_spec, trace, kTraceProtocols, reps,
            {}, faulted);
  run_suite(results, "rwp+fault", rwp_spec, rwp, kRwpProtocols, reps, {},
            faulted);
  // Eviction-policy suite (guarded as "new" by compare_bench.py until the
  // committed baseline carries it): drop-oldest on the trace scenario, where
  // buffer pressure is highest and the non-default admission path actually
  // runs. One protocol family without its own admission rule keeps the row
  // cheap while exercising the generic Protocol::make_room eviction.
  constexpr const char* kEvictionProtocols[] = {"pure_epidemic"};
  epi::exp::ProtocolOptions drop_oldest;
  drop_oldest.eviction = epi::EvictionPolicy::kDropOldest;
  run_suite(results, "trace+dropoldest", trace_spec, trace, kEvictionProtocols,
            reps, {}, drop_oldest);
  // Compact-advertisement suite (guarded as "new" by compare_bench.py until
  // the committed baseline carries it): the Bloom codec at its 8 bits/bundle
  // default on the trace scenario, exercising the per-slot re-advertisement
  // path and the FP-suppression counter for every protocol family.
  epi::exp::ProtocolOptions bloom8;
  bloom8.summary.mode = epi::SummaryMode::kBloom;
  bloom8.summary.filter_bits = 8;
  run_suite(results, "trace+bloom8", trace_spec, trace, kTraceProtocols, reps,
            {}, bloom8);
  // Large-N stress entries (multi-flow; see exp::large_scenario): the cases
  // where per-contact exchange-set costs dominate instead of hiding.
  for (const std::uint32_t n : {128u, 512u}) {
    const auto spec = epi::exp::large_scenario(n);
    const auto large_trace = epi::exp::build_contact_trace(spec, 42);
    run_suite(results, spec.name, spec, large_trace, kLargeProtocols, reps,
              epi::exp::large_flows(n, 8, 16));
  }
  // City-sized stress entry (guarded as "new" by compare_bench.py until the
  // committed baseline carries it), streamed through the windowed RWP
  // generator: the full contact vector is never materialised, which is the
  // only way an 8192-node trace fits a bench budget.
  {
    const auto spec = epi::exp::large_scenario(8192);
    run_suite_streamed(results, spec.name, spec, kLargeProtocols, reps,
                       epi::exp::large_flows(8192, 8, 16));
  }
  write_json(out, results, reps);
  std::printf("wrote %zu benchmarks to %s\n", results.size(), out.c_str());
  return 0;
}
