// Ablations and baselines: five parameter studies on the trace scenario,
// run in a fixed order, each printed once per metric it reports.
//
//   pq         P and Q transmission probabilities (paper SIV experiments
//              with 0.1, 0.5 and 1). SII-C: probabilities below one
//              squander scarce encounters, so delay rises, delivery falls.
//   ttl        the fixed TTL value (paper SIV: 50, 100, 150, 200 s, plus
//              the 300 s of the comparison figures). SII-C: small TTLs
//              discard bundles prematurely, large ones hoard delivered ones.
//   ecthr      the EC threshold of Algo 2 ("when bundles are transmitted
//              over eight times, bundles will be given a TTL"). Small
//              thresholds age copies aggressively; huge ones degenerate to
//              plain EC.
//   immrate    how many unit-sized immunity records a contact can carry.
//              The paper's complaint ("the number of immunity tables
//              transmitted is proportional to the load") shows as slow
//              vaccination under a small budget; the cumulative table is
//              immune to it.
//   baselines  the epidemic family against direct delivery and binary
//              spray-and-wait (SI: epidemic buys minimum delay with maximum
//              resource usage; bounded replication sits in between).
//
// Each study is simulated once; its metrics are read from that one Figure.
// Takes the shared bench flags (see bench_common.hpp).
#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace epi::exp;

struct Study {
  const char* id;
  const char* title;
  std::vector<SeriesDef> (*series)();
  std::vector<Metric> metrics;
  const char* note;
};

const Study kStudies[] = {
    {"ablation_pq", "P-Q epidemic: transmission probability sweep (trace)",
     [] {
       std::vector<SeriesDef> series;
       for (const double pq : {0.1, 0.5, 1.0}) {
         series.push_back({"P=Q=" + std::to_string(pq).substr(0, 3),
                           trace_scenario(), pq_params(pq, pq)});
       }
       return series;
     },
     {Metric::kDeliveryRatio, Metric::kDelay},
     "paper shape: P=Q<1 wastes encounters: delivery drops and delay rises "
     "as the\nprobabilities shrink (SII-C).\n\n"},
    {"ablation_ttl", "Fixed TTL value sweep (trace)",
     [] {
       std::vector<SeriesDef> series;
       for (const double ttl : {50.0, 100.0, 150.0, 200.0, 300.0}) {
         series.push_back({"TTL=" + std::to_string(static_cast<int>(ttl)),
                           trace_scenario(), fixed_ttl_params(ttl)});
       }
       series.push_back({"dynamic", trace_scenario(), dynamic_ttl_params()});
       return series;
     },
     {Metric::kDeliveryRatio, Metric::kBufferOccupancy},
     "paper shape: delivery improves with larger TTL values but every "
     "constant loses\nto the dynamic TTL, which adapts to the encounter "
     "interval (SIII).\n\n"},
    {"ablation_ecthr", "EC+TTL threshold sweep (trace)",
     [] {
       std::vector<SeriesDef> series{
           {"plain EC", trace_scenario(), ec_params()}};
       for (const std::uint32_t threshold : {2u, 4u, 8u, 16u}) {
         epi::ProtocolParams params = ec_ttl_params();
         params.ec_threshold = threshold;
         series.push_back({"EC+TTL thr=" + std::to_string(threshold),
                           trace_scenario(), params});
       }
       return series;
     },
     {Metric::kDeliveryRatio, Metric::kBufferOccupancy},
     "design note: the threshold trades buffer relief against premature "
     "aging; the\npaper's value (8) keeps delivery at EC level while "
     "draining buffers.\n\n"},
    {"ablation_immrate", "Immunity-record budget per contact (trace)",
     [] {
       std::vector<SeriesDef> series;
       for (const std::uint32_t rate : {1u, 5u, 20u, 100u}) {
         epi::ProtocolParams params = immunity_params();
         params.immunity_records_per_contact = rate;
         series.push_back({"imm rate=" + std::to_string(rate),
                           trace_scenario(), params});
       }
       series.push_back(
           {"cumulative", trace_scenario(), cumulative_immunity_params()});
       return series;
     },
     {Metric::kBufferOccupancy, Metric::kControlRecords},
     "design note: starving the record budget slows vaccination and raises "
     "buffer\noccupancy; the cumulative table gets full coverage from a "
     "single record.\n\n"},
    {"baselines", "Epidemic family vs DTN baselines (trace)",
     [] {
       epi::ProtocolParams direct;
       direct.kind = epi::ProtocolKind::kDirectDelivery;
       std::vector<SeriesDef> series{{"direct", trace_scenario(), direct}};
       for (const std::uint32_t quota : {4u, 8u}) {
         epi::ProtocolParams spray;
         spray.kind = epi::ProtocolKind::kSprayAndWait;
         spray.spray_copies = quota;
         series.push_back({"spray L=" + std::to_string(quota),
                           trace_scenario(), spray});
       }
       series.push_back(
           {"epidemic (imm)", trace_scenario(), immunity_params()});
       series.push_back({"epidemic (cum)", trace_scenario(),
                         cumulative_immunity_params()});
       return series;
     },
     {Metric::kDeliveryRatio, Metric::kDelay, Metric::kTransmissions,
      Metric::kBufferOccupancy},
     "expected shape: direct delivery spends one transmission per bundle "
     "but pays the\nlongest delays and misses never-meeting pairs; "
     "spray-and-wait interpolates;\nepidemic flooding minimises delay at "
     "the highest transmission/buffer cost.\n\n"},
};

}  // namespace

int main(int argc, char** argv) {
  epi::bench::Args args = epi::bench::parse_args(argc, argv);
  return epi::bench::bench_main(args, [&](const FigureOptions& options) {
    std::vector<Figure> figures;
    for (const Study& study : kStudies) {
      Figure figure = run_figure(study.id, study.title, study.metrics.front(),
                                 study.series(), options);
      for (const Metric metric : study.metrics) {
        figure.metric = metric;
        print_figure(std::cout, figure);
        if (args.csv) print_figure_csv(std::cout, figure);
        std::cout << "\n";
      }
      std::cout << study.note;
      figures.push_back(std::move(figure));
    }
    return figures;
  });
}
