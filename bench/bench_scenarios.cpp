// Scenario characterisation: the mobility-side context for every figure
// (the role the paper's Table I plays for prior work). For each mobility
// input: contact counts, duration and inter-contact distributions, slot
// budget, time-respecting connectivity and the oracle delay scale.
// Reads only --seed; any other shared bench flag exits 2.
#include <iomanip>
#include <iostream>

#include "analysis/reachability.hpp"
#include "bench_common.hpp"
#include "exp/scenario.hpp"

int main(int argc, char** argv) {
  using namespace epi;
  const bench::Args args = bench::parse_args(argc, argv);
  bench::accept_only(args, {"--seed"});
  try {
    std::cout << "== scenario characterisation (seed "
              << args.options.master_seed << ") ==\n\n";
    for (const exp::ScenarioSpec& spec :
         {exp::trace_scenario(), exp::rwp_scenario(),
          exp::interval_scenario(400.0), exp::interval_scenario(2000.0)}) {
      const mobility::ContactTrace trace =
          exp::build_contact_trace(spec, args.options.master_seed);
      const mobility::TraceStats s = trace.stats();
      std::cout << std::left << std::setw(14) << spec.name << std::right
                << std::fixed << std::setprecision(0) << "  contacts "
                << std::setw(6) << s.contact_count << "  nodes "
                << std::setw(3) << s.node_count << "  span " << std::setw(7)
                << s.last_end << " s  slots " << std::setw(6)
                << s.total_slots << "\n"
                << "              duration s (mean/med/p90): "
                << s.mean_duration << " / " << s.median_duration << " / "
                << s.p90_duration << "\n"
                << "              inter-contact s (mean/med/p90/max): "
                << s.mean_inter_contact << " / " << s.median_inter_contact
                << " / " << s.p90_inter_contact << " / "
                << s.max_inter_contact << "\n"
                << std::setprecision(1)
                << "              temporal connectivity: "
                << analysis::reachable_pair_fraction(trace) * 100.0
                << "%   mean oracle delay from node 0: " << std::setprecision(0)
                << analysis::mean_oracle_delay(trace, 0, 0.0) << " s\n\n";
    }
    std::cout << "context: the trace twin is bursty (median inter-contact "
                 "minutes, p90 hours);\nthe RWP model is denser and more "
                 "homogeneous; the interval scenarios bound the\ngap between "
                 "a node's encounters at 400 vs 2000 s (Fig. 14's control "
                 "variable).\n\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
