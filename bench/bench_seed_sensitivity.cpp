// Seed sensitivity: the mobility inputs are synthetic, so every conclusion
// must survive regenerating them. Reruns the Table-II-style sweep averages
// under several master seeds and checks the paper's headline orderings on
// each. Sweeps its own seeds, so it rejects --seed (and --csv, --perf and
// --stats-out, which it has no figure for); every other shared flag applies.
#include <iomanip>
#include <iostream>

#include "bench_common.hpp"
#include "exp/sweep.hpp"

int main(int argc, char** argv) {
  using namespace epi;
  bench::Args args = bench::parse_args(argc, argv);
  bench::reject_flags(args, {"--seed", "--csv", "--perf", "--stats-out"});
  return bench::bench_main(args, [](const exp::FigureOptions& options) {
    std::cout << "== seed sensitivity of the headline orderings (trace, "
              << options.replications << " reps each) ==\n\n"
              << std::left << std::setw(8) << "seed" << std::right
              << std::setw(12) << "dyn>TTL" << std::setw(14) << "ECTTL<=EC buf"
              << std::setw(13) << "cum<=imm buf" << std::setw(13)
              << "imm 100% dlv" << "\n";

    int all_hold = 0;
    const std::uint64_t seeds[] = {42, 7, 1234, 31337, 2026};
    for (const std::uint64_t seed : seeds) {
      const auto sweep_mean = [&](ProtocolParams params,
                                  bool buffer) -> double {
        exp::SweepSpec spec(options);
        spec.scenario = exp::trace_scenario();
        spec.protocol = params;
        spec.master_seed = seed;
        const exp::SweepResult result = exp::run_sweep(spec);
        double sum = 0.0;
        for (const auto& point : result.points) {
          sum += buffer ? point.buffer_occupancy.mean
                        : point.delivery_ratio.mean;
        }
        return sum / static_cast<double>(result.points.size());
      };

      const double ttl = sweep_mean(exp::fixed_ttl_params(), false);
      const double dyn = sweep_mean(exp::dynamic_ttl_params(), false);
      const double ec_buf = sweep_mean(exp::ec_params(), true);
      const double ecttl_buf = sweep_mean(exp::ec_ttl_params(), true);
      const double imm_buf = sweep_mean(exp::immunity_params(), true);
      const double cum_buf =
          sweep_mean(exp::cumulative_immunity_params(), true);
      const double imm_dlv = sweep_mean(exp::immunity_params(), false);

      const bool o1 = dyn > ttl + 0.2;          // abstract: +20% delivery
      const bool o2 = ecttl_buf <= ec_buf;      // enhancement 2
      const bool o3 = cum_buf <= imm_buf + 0.02;  // enhancement 3
      const bool o4 = imm_dlv > 0.99;
      all_hold += (o1 && o2 && o3 && o4) ? 1 : 0;

      const auto mark = [](bool ok) { return ok ? "yes" : "NO"; };
      std::cout << std::left << std::setw(8) << seed << std::right
                << std::setw(12) << mark(o1) << std::setw(14) << mark(o2)
                << std::setw(13) << mark(o3) << std::setw(13) << mark(o4)
                << "\n";
    }
    std::cout << "\n" << all_hold << "/" << std::size(seeds)
              << " seeds reproduce all four headline orderings.\n\n";
    return std::vector<exp::Figure>{};
  });
}
