// Reproduces Table II: sweep-average delivery ratio, buffer occupancy level
// and duplication rate (percent) for the six protocols, under both the RWP
// model and the trace file. Takes the shared bench flags except --csv.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  epi::bench::Args args = epi::bench::parse_args(argc, argv);
  epi::bench::reject_flags(args, {"--csv"});
  return epi::bench::bench_main(
      args,
      [](const epi::exp::FigureOptions& options) {
        std::vector<epi::exp::Figure> sweeps;
        epi::exp::print_table2(std::cout,
                               epi::exp::run_table2(options, &sweeps));
        return sweeps;
      },
      "\npaper shape: dynamic TTL lifts delivery over fixed TTL in both "
      "mobility models;\n"
      "EC+TTL cuts EC's buffer occupancy while matching or beating its "
      "delivery;\ncumulative immunity matches immunity's delivery with a "
      "lower buffer level\nand duplication rate.\n\n");
}
