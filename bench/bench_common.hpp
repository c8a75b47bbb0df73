// Shared CLI scaffolding for the figure-reproduction benches.
//
// Every binary parses these flags; one that cannot act on a flag rejects it
// (exit 2) instead of ignoring it:
//   --reps N            replications per load point (default 10, the paper's)
//   --seed S            master seed (default 42)
//   --threads T         worker threads (default: hardware concurrency)
//   --csv               additionally dump machine-readable CSV (fleet
//                       mode: write <id>.csv next to each <id>.json)
//   --trace-out=FILE    stream one JSONL record per engine event to FILE
//   --perf              live progress line on stderr + perf totals at the end
//   --chrome-trace=FILE write per-replication spans (chrome://tracing format)
//   --stats-out=FILE    collect per-run streaming statistics (encounter,
//                       occupancy, signaling profiles) and write the merged
//                       JSON document to FILE; bypasses cache lookups
//   --store DIR         persistent run store (default results/runstore):
//                       cached runs are served without simulating, fresh
//                       ones appended; Ctrl-C drains + saves, rerun resumes
//   --no-store          disable the run store for this invocation
//   --store-stats       print hit/miss/append counts at the end
//   --store-shards N    fingerprint shards for newly written segments
//                       (default 8; readers union all segments, so any
//                       value yields identical results)
//   --claim             partition missing runs with store work-unit claims,
//                       so N concurrent invocations sharing one store split
//                       the sweep instead of duplicating it
//   --evict POLICY      receiver-side admission policy when a buffer is
//                       full: drop_tail (default, the paper's behavior),
//                       drop_oldest, drop_most_replicated, drop_largest_ec
//   --summary-mode MODE summary-exchange codec: exact (default, the paper's
//                       free advertisement) or bloom (compact Bloom-filter
//                       advertisements with visible false positives)
//   --filter-bits N     Bloom filter density in bits per buffered bundle,
//                       1..64 (default 8; only meaningful with
//                       --summary-mode=bloom)
//   --filter-hashes K   Bloom hash count, 1..16; 0 (default) derives the
//                       FP-optimal k = round(bits * ln 2)
//
// Flags taking a value accept both `--flag VALUE` and `--flag=VALUE`.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "exp/figures.hpp"
#include "exp/report.hpp"
#include "exp/stats_report.hpp"
#include "exp/sweep.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/progress.hpp"
#include "store/interrupt.hpp"
#include "store/run_store.hpp"

namespace epi::bench {

struct Args {
  exp::FigureOptions options;
  bool csv = false;
  bool perf = false;
  std::string trace_out;   ///< empty = event tracing off
  std::string chrome_out;  ///< empty = chrome trace off
  std::string stats_out;   ///< empty = stats collection off
  std::string store_dir = "results/runstore";  ///< empty = store off
  bool store_stats = false;
  std::size_t store_shards = 8;  ///< shard count for new segments
  std::vector<std::string> flags;  ///< every flag given, in order
};

/// Parses a full unsigned decimal value; exits 2 on anything else (empty,
/// sign, trailing garbage, overflow) — `--reps abc` must not silently run
/// with 0 replications.
template <typename T>
inline T parse_unsigned(std::string_view flag, std::string_view value) {
  T out{};
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    std::cerr << "invalid value for " << flag << ": '" << value
              << "' (expected an unsigned integer)\n";
    std::exit(2);
  }
  return out;
}

inline Args parse_args(int argc, char** argv) {
  Args args;
  exp::ProtocolOptions& block = args.options.options;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    // Split `--flag=VALUE` into flag and inline value.
    std::string_view inline_value;
    bool has_inline = false;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline = true;
    }
    // A repeated flag is a hard error, not a silent last-one-wins: the two
    // occurrences usually carry different values, and guessing which one the
    // user meant mis-runs a potentially hours-long sweep.
    if (std::find(args.flags.begin(), args.flags.end(), arg) !=
        args.flags.end()) {
      std::cerr << "duplicate flag " << arg
                << ": each flag may be given at most once\n";
      std::exit(2);
    }
    args.flags.emplace_back(arg);
    const auto next = [&]() -> std::string {
      if (has_inline) return std::string(inline_value);
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // An output file flag with an empty name would silently write nothing.
    const auto file = [&]() {
      std::string name = next();
      if (name.empty()) {
        std::cerr << arg << " needs a file name\n";
        std::exit(2);
      }
      return name;
    };
    // Boolean flags take no value; `--csv=nonsense` is a user error, not an
    // enable.
    const auto boolean = [&]() {
      if (has_inline) {
        std::cerr << arg << " takes no value (got '" << inline_value
                  << "')\n";
        std::exit(2);
      }
      return true;
    };
    if (arg == "--reps") {
      args.options.replications = parse_unsigned<std::uint32_t>(arg, next());
    } else if (arg == "--seed") {
      args.options.master_seed = parse_unsigned<std::uint64_t>(arg, next());
    } else if (arg == "--threads") {
      args.options.threads = parse_unsigned<unsigned>(arg, next());
    } else if (arg == "--csv") {
      args.csv = boolean();
    } else if (arg == "--perf") {
      args.perf = boolean();
    } else if (arg == "--trace-out") {
      args.trace_out = file();
    } else if (arg == "--chrome-trace") {
      args.chrome_out = file();
    } else if (arg == "--stats-out") {
      args.stats_out = file();
    } else if (arg == "--store") {
      args.store_dir = next();
      if (args.store_dir.empty()) {
        std::cerr << "--store needs a directory (use --no-store to disable)\n";
        std::exit(2);
      }
    } else if (arg == "--no-store") {
      boolean();
      args.store_dir.clear();
    } else if (arg == "--store-stats") {
      args.store_stats = boolean();
    } else if (arg == "--store-shards") {
      args.store_shards = parse_unsigned<std::size_t>(arg, next());
      if (args.store_shards == 0) {
        std::cerr << "--store-shards must be at least 1\n";
        std::exit(2);
      }
    } else if (arg == "--claim") {
      args.options.claim_units = boolean();
    } else if (arg == "--evict") {
      try {
        block.eviction = eviction_policy_from_string(next());
      } catch (const std::exception& e) {
        std::cerr << "invalid value for --evict: " << e.what() << "\n";
        std::exit(2);
      }
    } else if (arg == "--summary-mode") {
      try {
        block.summary.mode = summary_mode_from_string(next());
      } catch (const std::exception& e) {
        std::cerr << "invalid value for --summary-mode: " << e.what() << "\n";
        std::exit(2);
      }
    } else if (arg == "--filter-bits") {
      block.summary.filter_bits = parse_unsigned<std::uint32_t>(arg, next());
      if (block.summary.filter_bits == 0 || block.summary.filter_bits > 64) {
        std::cerr << "--filter-bits must be in 1..64 (bits per buffered "
                     "bundle)\n";
        std::exit(2);
      }
    } else if (arg == "--filter-hashes") {
      block.summary.hashes = parse_unsigned<std::uint32_t>(arg, next());
      if (block.summary.hashes > 16) {
        std::cerr << "--filter-hashes must be in 0..16 (0 derives the "
                     "FP-optimal count)\n";
        std::exit(2);
      }
    } else if (arg == "--help" || arg == "-h") {
      boolean();
      std::cout << "usage: " << argv[0]
                << " [--reps N] [--seed S] [--threads T] [--csv] [--perf]"
                   " [--trace-out=FILE] [--chrome-trace=FILE]"
                   " [--stats-out=FILE] [--store=DIR] [--no-store]"
                   " [--store-stats] [--store-shards=N] [--claim]"
                   " [--evict=POLICY] [--summary-mode=exact|bloom]"
                   " [--filter-bits=N] [--filter-hashes=K]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      std::exit(2);
    }
  }
  return args;
}

/// Exits 2 when a flag this binary cannot honour was given: a dropped flag
/// must never look like a run that honoured it.
inline void reject_flags(const Args& args,
                         std::initializer_list<std::string_view> unsupported) {
  for (const std::string& flag : args.flags) {
    if (std::find(unsupported.begin(), unsupported.end(), flag) !=
        unsupported.end()) {
      std::cerr << flag << " is not supported by this binary\n";
      std::exit(2);
    }
  }
}

/// Exits 2 on any flag outside `honoured` (binaries that read only a few).
inline void accept_only(const Args& args,
                        std::initializer_list<std::string_view> honoured) {
  for (const std::string& flag : args.flags) {
    if (std::find(honoured.begin(), honoured.end(), flag) == honoured.end()) {
      std::cerr << flag << " is not supported by this binary\n";
      std::exit(2);
    }
  }
}

/// Owns the sinks a bench wires into FigureOptions, so `run(options)` can
/// trace without every bench managing sink lifetime itself.
struct Observability {
  std::unique_ptr<obs::JsonlSink> sink;
  std::unique_ptr<obs::ChromeTraceWriter> chrome;
  std::string chrome_out;
  std::unique_ptr<store::RunStore> store;
  std::unique_ptr<store::SigintDrain> sigint;
  bool store_stats = false;
  std::string stats_out;  ///< where bench_main writes the stats document

  /// Instantiates the sinks the flags ask for and points `args.options` at
  /// them. Throws std::runtime_error when an output file cannot be opened.
  /// A store directory that cannot be opened only disables caching (with a
  /// warning): a read-only checkout must not break the benches.
  void attach(Args& args) {
    if (!args.trace_out.empty()) {
      sink = std::make_unique<obs::JsonlSink>(args.trace_out);
      args.options.trace_sink = sink.get();
    }
    if (!args.chrome_out.empty()) {
      chrome = std::make_unique<obs::ChromeTraceWriter>();
      args.options.chrome = chrome.get();
      chrome_out = args.chrome_out;
    }
    args.options.progress = args.perf;
    store_stats = args.store_stats;
    if (!args.stats_out.empty()) {
      args.options.collect_stats = true;
      stats_out = args.stats_out;
    }
    if (!args.store_dir.empty()) {
      try {
        store = std::make_unique<store::RunStore>(
            args.store_dir, store::StoreOptions{args.store_shards});
        args.options.store = store.get();
        // Ctrl-C now drains and saves instead of discarding finished runs.
        sigint = std::make_unique<store::SigintDrain>();
      } catch (const std::exception& e) {
        std::cerr << "warning: run store disabled: " << e.what() << "\n";
      }
    }
  }

  /// Flushes file-backed outputs and reports where they went.
  void finish(std::ostream& out) {
    if (chrome != nullptr) {
      chrome->write_file(chrome_out);
      out << "chrome trace: " << chrome_out << " (" << chrome->span_count()
          << " spans; open in chrome://tracing or ui.perfetto.dev)\n";
    }
    if (sink != nullptr) {
      out << "event trace: " << sink->records() << " JSONL records";
      if (sink->truncated() > 0) {
        out << " (" << sink->truncated() << " oversized record(s) dropped)";
        // A dropped record means the trace is incomplete — shout where
        // scripts piping stdout will still see it.
        std::cerr << "warning: event trace dropped " << sink->truncated()
                  << " oversized record(s) (over JsonlSink::kMaxRecordBytes); "
                     "the JSONL output is incomplete\n";
      }
      out << "\n";
    }
    if (store != nullptr && store_stats) {
      const store::RunStore::Stats s = store->stats();
      // Every simulated run is appended on completion (and vice versa), so
      // `appended` is the honest "simulated this invocation" count even when
      // event tracing bypassed the cache lookups.
      out << "[store] " << store->dir().string() << ": " << s.hits
          << " cached, " << s.appended << " simulated, " << s.appended
          << " appended; " << s.records << " records in " << s.segments
          << " segment(s)";
      if (s.corrupt_lines > 0) {
        out << ", " << s.corrupt_lines << " corrupt line(s) skipped";
      }
      out << "\n";
    }
  }
};

/// Aggregated PerfCounters of every replication in a figure.
inline void print_perf(std::ostream& out, const exp::Figure& figure) {
  std::size_t runs = 0;
  double wall = 0.0;
  std::uint64_t events = 0;
  std::uint64_t transfers = 0;
  std::uint64_t contacts = 0;
  std::size_t peak_queue = 0;
  for (const auto& result : figure.results) {
    for (const auto& batch : result.runs) {
      for (const auto& run : batch) {
        ++runs;
        wall += run.perf.wall_seconds;
        events += run.perf.events_processed;
        transfers += run.perf.transfers;
        contacts += run.perf.contacts;
        peak_queue = std::max(peak_queue, run.perf.peak_queue_depth);
      }
    }
  }
  const double rate = wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
  out << "[perf] " << runs << " runs, " << events << " events, "
      << obs::humanize_rate(rate) << " ev/s (cpu), peak queue " << peak_queue
      << ", "
      << (contacts > 0
              ? static_cast<double>(transfers) / static_cast<double>(contacts)
              : 0.0)
      << " transfers/contact\n";
}

/// Runs a bench under the shared flags: attaches the sinks and the store
/// the flags ask for, runs `body` (which prints its own tables and returns
/// the figures it ran), then prints the --perf totals, writes the
/// --stats-out document (a JSON array when there are several figures),
/// flushes the sinks and prints `epilogue`. Returns the exit code: 0, 1 on
/// any error, 130 after a Ctrl-C drain.
inline int bench_main(
    Args& args,
    const std::function<std::vector<exp::Figure>(const exp::FigureOptions&)>&
        body,
    std::string_view epilogue = {}) {
  Observability observability;
  try {
    observability.attach(args);
    const std::vector<exp::Figure> figures = body(args.options);
    if (args.perf) {
      for (const exp::Figure& figure : figures) print_perf(std::cout, figure);
    }
    if (!observability.stats_out.empty()) {
      std::ofstream stats_file(observability.stats_out);
      if (!stats_file) {
        throw std::runtime_error("cannot open --stats-out file: " +
                                 observability.stats_out);
      }
      const bool array = figures.size() != 1;
      if (array) stats_file << "[";
      for (std::size_t i = 0; i < figures.size(); ++i) {
        if (i > 0) stats_file << ",";
        exp::write_stats_json(stats_file, figures[i]);
      }
      if (array) stats_file << "]\n";
      std::cout << "stats profile: " << observability.stats_out << "\n";
    }
    observability.finish(std::cout);
    std::cout << epilogue;
  } catch (const exp::SweepInterrupted&) {
    // The drain already persisted every completed run; rerunning the same
    // command serves those from the store and computes only the rest.
    if (observability.store != nullptr) observability.store->flush();
    std::cerr << "\ninterrupted: completed runs saved to "
              << (observability.store != nullptr
                      ? observability.store->dir().string()
                      : std::string("(no store)"))
              << "; rerun the same command to resume\n";
    return 130;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

/// Prints a figure's table, plus its CSV under --csv.
inline void print_figure_table(const Args& args, const exp::Figure& figure) {
  exp::print_figure(std::cout, figure);
  if (args.csv) {
    std::cout << "\n";
    exp::print_figure_csv(std::cout, figure);
  }
}

/// Registry-driven figure bench: runs one figure, prints it, then a note
/// stating the paper's shape claim for eyeball comparison.
inline int figure_main(int argc, char** argv, const exp::FigureSpec& spec) {
  Args args = parse_args(argc, argv);
  return bench_main(
      args,
      [&](const exp::FigureOptions& options) {
        std::vector<exp::Figure> figures{spec.run(options)};
        print_figure_table(args, figures.front());
        return figures;
      },
      "\npaper shape: " + std::string(spec.paper_claim) + "\n\n");
}

}  // namespace epi::bench
