// Oracle bench: how close does each protocol get to the minimum possible
// delay (paper SI, citing Zhang et al.: "epidemic routing protocols are
// able to achieve minimum delivery delay, but at the expense of higher
// resource usage")?
//
// For each replication's flow, the time-respecting earliest-arrival oracle
// gives the optimum time to deliver one bundle; the measured mean bundle
// delay at load 5 (little buffer contention) is compared against it.
//
// Reads only --seed and --reps; any other shared bench flag exits 2.
#include <iomanip>
#include <iostream>
#include <vector>

#include "analysis/reachability.hpp"
#include "bench_common.hpp"
#include "exp/runner.hpp"

int main(int argc, char** argv) {
  using namespace epi;
  const bench::Args args = bench::parse_args(argc, argv);
  bench::accept_only(args, {"--seed", "--reps"});
  try {
    for (const bool rwp : {false, true}) {
      const exp::ScenarioSpec scenario =
          rwp ? exp::rwp_scenario() : exp::trace_scenario();
      const mobility::ContactTrace trace =
          exp::build_contact_trace(scenario, args.options.master_seed);

      std::cout << "== oracle_" << scenario.name
                << ": delay inflation over the earliest-arrival bound ==\n";
      std::cout << "time-respecting connectivity: "
                << analysis::reachable_pair_fraction(trace) * 100.0
                << "% of ordered pairs\n";

      const std::vector<std::pair<const char*, ProtocolKind>> protocols{
          {"pure_epidemic", ProtocolKind::kPureEpidemic},
          {"pq_epidemic", ProtocolKind::kPqEpidemic},
          {"fixed_ttl", ProtocolKind::kFixedTtl},
          {"dynamic_ttl", ProtocolKind::kDynamicTtl},
          {"encounter_count", ProtocolKind::kEncounterCount},
          {"ec_ttl", ProtocolKind::kEcTtl},
          {"immunity", ProtocolKind::kImmunity},
          {"cumulative_immunity", ProtocolKind::kCumulativeImmunity},
      };

      std::cout << std::left << std::setw(22) << "protocol" << std::right
                << std::setw(14) << "oracle(s)" << std::setw(14)
                << "measured(s)" << std::setw(12) << "inflation"
                << std::setw(11) << "delivered" << "\n";

      for (const auto& [name, kind] : protocols) {
        double oracle_sum = 0.0;
        double measured_sum = 0.0;
        double delivered = 0.0;
        std::size_t counted = 0;
        for (std::uint32_t rep = 0; rep < args.options.replications; ++rep) {
          exp::RunSpec spec;
          spec.protocol.kind = kind;
          spec.load = 5;
          spec.replication = rep;
          spec.master_seed = args.options.master_seed;
          spec.horizon = trace.end_time();
          spec.session_gap = scenario.session_gap;

          const exp::FlowEndpoints flow = exp::pick_endpoints(
              spec.master_seed, spec.load, rep, trace.node_count());
          const SimTime bound = analysis::earliest_arrival(
              trace, flow.source, flow.destination, 0.0);
          if (bound == kNoExpiry) continue;  // oracle-unreachable flow

          const metrics::RunSummary run = exp::run_single(spec, trace);
          oracle_sum += bound;
          if (run.mean_bundle_delay > 0.0) {
            measured_sum += run.mean_bundle_delay;
            ++counted;
          }
          delivered += run.delivery_ratio;
        }
        const double reps = static_cast<double>(args.options.replications);
        const double oracle_mean = counted ? oracle_sum / reps : 0.0;
        const double measured_mean =
            counted ? measured_sum / static_cast<double>(counted) : 0.0;
        std::cout << std::left << std::setw(22) << name << std::right
                  << std::fixed << std::setprecision(0) << std::setw(14)
                  << oracle_mean << std::setw(14) << measured_mean
                  << std::setprecision(2) << std::setw(11)
                  << (oracle_mean > 0.0 ? measured_mean / oracle_mean : 0.0)
                  << "x" << std::setprecision(2) << std::setw(11)
                  << delivered / reps << "\n";
      }
      std::cout << "\n";
    }
    std::cout << "paper shape: flooding-style protocols track the oracle "
                 "bound; buffer management\ntrades delay (and sometimes "
                 "delivery) for space.\n\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
