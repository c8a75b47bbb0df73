// Signaling-overhead comparison (abstract claim): per-bundle immunity tables
// vs the cumulative immunity table, on both mobility inputs.
//
// `--stats-overhead` instead times the streaming-stats collector itself on
// the paper's canonical sweep (trace scenario, immunity, load 25): the same
// serial sweep with stats collection off and on, trials interleaved and the
// per-variant minimum taken (thermal drift otherwise biases whichever
// variant runs later), verifying that the collector perturbs no metric and
// gating two costs:
//
//   - per observed event (--max-event-ns, default 150 ns): the
//     scale-invariant number. Measured ~35-50 ns against ~190 ns of engine
//     work per emitted event, which is why full-stream observation costs
//     ~20-25% of wall time on this engine at *any* scenario size — both
//     sides of the ratio are per-event.
//   - end-to-end slowdown (--max-slowdown, default 40%): a coarse tripwire
//     well above the measured ~20-25% so scheduler noise cannot flake CI,
//     but low enough to catch a regression that doubles the hot path.
//
// The stats-DISABLED path is a single branch-on-nullptr per hook (PR-1
// discipline) plus one untaken branch in the sweep runner; its zero cost is
// pinned structurally by the unchanged engine goldens and the cross-PR
// BENCH_engine.json counters, not re-measured here — there is no
// feature-absent binary to diff against at run time.
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/stats.hpp"

namespace {

double timed_sweep_seconds(const epi::exp::SweepSpec& spec,
                           const epi::mobility::ContactTrace& trace,
                           epi::exp::SweepResult& out) {
  const auto begin = std::chrono::steady_clock::now();
  out = epi::exp::run_sweep_on(spec, trace);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - begin;
  return elapsed.count();
}

int stats_overhead_main(const epi::bench::Args& args, double max_slowdown,
                        double max_event_ns) {
  // Timing needs every run simulated here and now: no store, no sinks.
  epi::bench::accept_only(args, {"--reps", "--seed"});
  epi::exp::SweepSpec spec(args.options);
  spec.scenario = epi::exp::trace_scenario();
  spec.protocol = epi::exp::immunity_params();  // control + data plane busy
  spec.loads = {25};
  spec.threads = 1;  // serial: wall time is the hot path, not the pool
  const epi::mobility::ContactTrace trace =
      epi::exp::build_contact_trace(spec.scenario, spec.master_seed);

  constexpr int kTrials = 5;
  double off_best = 0.0;
  double on_best = 0.0;
  epi::exp::SweepResult off_result;
  epi::exp::SweepResult on_result;
  for (int trial = 0; trial < kTrials; ++trial) {
    spec.collect_stats = false;
    const double off = timed_sweep_seconds(spec, trace, off_result);
    spec.collect_stats = true;
    const double on = timed_sweep_seconds(spec, trace, on_result);
    if (trial == 0 || off < off_best) off_best = off;
    if (trial == 0 || on < on_best) on_best = on;
  }

  // Correctness before speed: collection must be pure observation, and
  // every enabled run must actually carry its profile.
  std::uint64_t total_events = 0;
  std::uint64_t total_runs = 0;
  for (std::size_t li = 0; li < off_result.runs.size(); ++li) {
    for (std::size_t r = 0; r < off_result.runs[li].size(); ++r) {
      const auto& off_run = off_result.runs[li][r];
      const auto& on_run = on_result.runs[li][r];
      if (!epi::metrics::deterministic_equal(off_run, on_run)) {
        std::cerr << "FAIL: stats collection perturbed run metrics (load "
                  << off_result.loads[li] << ", rep " << r << ")\n";
        return 1;
      }
      if (on_run.stats == nullptr) {
        std::cerr << "FAIL: stats-enabled run carries no profile (load "
                  << off_result.loads[li] << ", rep " << r << ")\n";
        return 1;
      }
      total_events += on_run.stats->events;
      ++total_runs;
    }
  }
  if (total_events == 0) {
    std::cerr << "FAIL: stats-enabled runs observed no events\n";
    return 1;
  }

  const double slowdown =
      off_best > 0.0 ? (on_best / off_best - 1.0) * 100.0 : 0.0;
  const double event_ns =
      (on_best - off_best) * 1e9 / static_cast<double>(total_events);
  std::cout << "[stats-overhead] off " << off_best << " s, on " << on_best
            << " s over " << total_runs << " runs / " << total_events
            << " events (interleaved best of " << kTrials << ")\n"
            << "[stats-overhead] " << event_ns << " ns per observed event"
            << " (gate " << max_event_ns << " ns), slowdown " << slowdown
            << "% (gate " << max_slowdown << "%)\n";
  if (event_ns > max_event_ns) {
    std::cerr << "FAIL: stats observation costs " << event_ns
              << " ns/event, exceeding the " << max_event_ns
              << " ns budget\n";
    return 1;
  }
  if (slowdown > max_slowdown) {
    std::cerr << "FAIL: stats-enabled overhead " << slowdown
              << "% exceeds the " << max_slowdown << "% budget\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel the mode flags; everything else flows to the common parser.
  bool stats_overhead = false;
  double max_slowdown = 40.0;
  double max_event_ns = 150.0;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--stats-overhead") {
      stats_overhead = true;
    } else if (arg.starts_with("--max-slowdown=")) {
      max_slowdown = std::atof(argv[i] + std::strlen("--max-slowdown="));
    } else if (arg.starts_with("--max-event-ns=")) {
      max_event_ns = std::atof(argv[i] + std::strlen("--max-event-ns="));
    } else {
      rest.push_back(argv[i]);
    }
  }
  epi::bench::Args args =
      epi::bench::parse_args(static_cast<int>(rest.size()), rest.data());
  if (stats_overhead) {
    try {
      return stats_overhead_main(args, max_slowdown, max_event_ns);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  return epi::bench::bench_main(
      args,
      [&](const epi::exp::FigureOptions& options) {
        std::vector<epi::exp::Figure> figures;
        for (const bool rwp : {false, true}) {
          const epi::exp::Figure& figure =
              figures.emplace_back(epi::exp::run_overhead(options, rwp));
          epi::bench::print_figure_table(args, figure);
          const double imm = figure.series_mean(figure.series("Immunity"));
          const double cum = figure.series_mean(figure.series("CumImmunity"));
          std::cout << "overhead ratio (immunity / cumulative): "
                    << (cum > 0.0 ? imm / cum : 0.0) << "x\n\n";
        }
        return figures;
      },
      "paper shape: cumulative immunity incurs an order of magnitude less "
      "signaling\noverhead than per-bundle immunity tables, growing with "
      "load.\n\n");
}
