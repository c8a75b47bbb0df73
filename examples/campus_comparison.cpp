// Campus deployment study: which epidemic variant should route messages
// between students' devices on a university campus (the paper's Fig. 1
// scenario)?
//
// Runs every protocol on the campus-like contact trace across the full load
// sweep and prints a ranked decision table: delivery ratio, delay, buffer
// cost and signaling overhead.
//
//   ./campus_comparison [replications]
#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"

int main(int argc, char** argv) {
  using namespace epi;

  exp::SweepBase base;
  if (argc > 1) {
    base.replications = static_cast<std::uint32_t>(std::atoi(argv[1]));
  }

  struct Candidate {
    const char* name;
    ProtocolKind kind;
  };
  const std::vector<Candidate> candidates{
      {"P-Q epidemic (P=Q=1)", ProtocolKind::kPqEpidemic},
      {"fixed TTL (300 s)", ProtocolKind::kFixedTtl},
      {"encounter count", ProtocolKind::kEncounterCount},
      {"immunity tables", ProtocolKind::kImmunity},
      {"dynamic TTL", ProtocolKind::kDynamicTtl},
      {"EC + TTL", ProtocolKind::kEcTtl},
      {"cumulative immunity", ProtocolKind::kCumulativeImmunity},
  };

  try {
    std::vector<ProtocolParams> protocols;
    for (const auto& c : candidates) {
      ProtocolParams params;
      params.kind = c.kind;
      protocols.push_back(params);
    }

    std::cout << "running " << candidates.size() << " protocols x "
              << exp::paper_loads().size() << " loads x " << base.replications
              << " replications on the campus trace...\n\n";
    const auto results =
        exp::run_sweeps(exp::trace_scenario(), protocols, base);

    struct Row {
      const char* name;
      double delivery = 0.0;
      double delay = 0.0;
      double buffer = 0.0;
      double overhead = 0.0;
    };
    std::vector<Row> rows;
    for (std::size_t i = 0; i < results.size(); ++i) {
      Row row{candidates[i].name};
      for (const auto& point : results[i].points) {
        row.delivery += point.delivery_ratio.mean;
        row.delay += point.delay.mean;
        row.buffer += point.buffer_occupancy.mean;
        row.overhead += point.control_records.mean;
      }
      const auto n = static_cast<double>(results[i].points.size());
      row.delivery /= n;
      row.delay /= n;
      row.buffer /= n;
      row.overhead /= n;
      rows.push_back(row);
    }

    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return a.delivery > b.delivery;
    });

    std::cout << std::left << std::setw(24) << "protocol" << std::right
              << std::setw(10) << "delivery" << std::setw(12) << "delay(s)"
              << std::setw(10) << "buffer" << std::setw(12) << "signaling"
              << "\n";
    for (const auto& row : rows) {
      std::cout << std::left << std::setw(24) << row.name << std::right
                << std::fixed << std::setprecision(3) << std::setw(10)
                << row.delivery << std::setprecision(0) << std::setw(12)
                << row.delay << std::setprecision(3) << std::setw(10)
                << row.buffer << std::setprecision(0) << std::setw(12)
                << row.overhead << "\n";
    }
    std::cout << "\n(averages over the full load sweep; lower delay/buffer/"
                 "signaling is better)\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
