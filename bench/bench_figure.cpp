// bench_figure: one driver for every registered figure.
//
//   bench_figure --list                 enumerate figure ids and claims
//   bench_figure --fig 07 [flags...]    reproduce one figure; remaining
//                                       flags are the shared bench flags
//                                       (see bench_common.hpp)
//   bench_figure --all [--jobs N] [--only IDS] [--out DIR] [flags...]
//                                       fleet mode: treat figures as a work
//                                       queue, fork N worker processes that
//                                       partition it through the shared run
//                                       store, and write one
//                                       <DIR>/<id>.json per figure (and,
//                                       with --csv, <DIR>/<id>.csv)
//
// `--fig fig07`, `--fig 07` and `--fig 7` are equivalent; robustness sweeps
// use their full ids (e.g. --fig robust_trace_delivery).
//
// Fleet mode details:
//   * The queue defaults to the paper's 14 figures; `--only fig07,fig08`
//     restricts it (any registry id is accepted, including the robustness
//     and capacity sweeps).
//   * Figures are partitioned with store claims (`figure/<id>`), and each
//     worker additionally runs its sweeps with per-run claims, so even
//     independently launched invocations sharing the store split the work
//     instead of duplicating it. `--jobs N` with N > 1 therefore requires
//     the store.
//   * A figure is done when `<DIR>/<id>.json` exists (written via tmp +
//     rename, so a half-written file is never mistaken for done). Rerunning
//     after a crash or Ctrl-C resumes: finished figures are skipped, killed
//     workers' claims are reclaimed, and their completed runs are served
//     from the store.
//   * When `--threads` is unset, each worker gets hardware_concurrency / N
//     threads (at least 1) so N workers saturate the machine instead of
//     oversubscribing it N-fold.
//   * Workers keep stderr quiet and mirror machine-readable progress to
//     <DIR>/.fleet-<pid>/progress-*.jsonl; the driver tails those into one
//     aggregate `[fleet]` line.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "store/claim.hpp"

namespace {

namespace fs = std::filesystem;
using epi::exp::FigureSpec;

/// Fleet-mode flags peeled off ahead of the shared bench flags.
struct FleetArgs {
  bool all = false;
  std::size_t jobs = 1;
  std::string only;             // comma-separated registry ids
  std::string out = "results";  // per-figure JSON output directory
};

/// Splits `--only fig07,fig08` into resolved registry entries; exits 2 on
/// an unknown id so a typo cannot silently shrink the queue.
std::vector<const FigureSpec*> resolve_queue(const std::string& only) {
  std::vector<const FigureSpec*> queue;
  if (only.empty()) {
    for (const FigureSpec& spec : epi::exp::figure_registry()) {
      if (spec.paper_figure) queue.push_back(&spec);
    }
    return queue;
  }
  std::size_t begin = 0;
  while (begin <= only.size()) {
    const std::size_t comma = only.find(',', begin);
    const std::string id =
        only.substr(begin, comma == std::string::npos ? comma : comma - begin);
    if (!id.empty()) {
      const FigureSpec* spec = epi::exp::find_figure(id);
      if (spec == nullptr) {
        std::cerr << "unknown figure '" << id
                  << "' in --only (run --list for the ids)\n";
        std::exit(2);
      }
      queue.push_back(spec);
    }
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  if (queue.empty()) {
    std::cerr << "--only named no figures\n";
    std::exit(2);
  }
  return queue;
}

/// Writes `path` through a pid-suffixed temp file and a rename, so a
/// half-written file is never mistaken for a finished one.
void write_atomically(const fs::path& path,
                      const std::function<void(std::ostream&)>& print) {
  const fs::path tmp = path.string() + ".tmp-" + std::to_string(getpid());
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + tmp.string());
    print(out);
    if (!out.flush()) {
      throw std::runtime_error("short write to " + tmp.string());
    }
  }
  fs::rename(tmp, path);
  std::cout << "wrote " + path.string() + "\n" << std::flush;
}

/// One worker process: claim figures off the queue, run each, write its
/// CSV (under --csv) and then its JSON atomically; the JSON marks the
/// figure done. Returns a process exit code.
int fleet_worker(epi::bench::Args args,
                 const std::vector<const FigureSpec*>& queue,
                 const fs::path& out_dir, const fs::path& marker_dir,
                 std::size_t index, bool quiet) {
  using namespace epi;
  args.options.progress_path =
      (marker_dir / ("progress-" + std::to_string(getpid()) + "-" +
                     std::to_string(index) + ".jsonl"))
          .string();
  bench::Observability observability;
  try {
    observability.attach(args);
    if (quiet) args.options.progress = false;
    // Partition runs across any concurrent invocation sharing this store,
    // not just our sibling workers.
    if (observability.store != nullptr) args.options.claim_units = true;
    bool all_done = false;
    while (!all_done) {
      all_done = true;
      bool progressed = false;
      for (const FigureSpec* spec : queue) {
        const fs::path json_path = out_dir / (std::string(spec->id) + ".json");
        if (fs::exists(json_path)) continue;
        std::optional<store::Claim> claim;
        if (observability.store != nullptr) {
          claim = observability.store->try_claim(std::string("figure/") +
                                                 spec->id);
          if (!claim.has_value()) {
            // A live peer owns it; a dead peer's lock auto-releases, so a
            // later pass will win the reclaim.
            all_done = false;
            continue;
          }
          if (fs::exists(json_path)) continue;  // finished while we raced
        }
        const exp::Figure figure = spec->run(args.options);
        if (args.csv) {
          write_atomically(out_dir / (std::string(spec->id) + ".csv"),
                           [&](std::ostream& out) {
                             out << "# " << figure.title << "\n# metric: "
                                 << exp::metric_name(figure.metric) << "\n";
                             exp::print_figure_csv(out, figure);
                           });
        }
        write_atomically(json_path, [&](std::ostream& out) {
          exp::print_figure_json(out, figure);
        });
        progressed = true;
      }
      if (!all_done && !progressed) {
        // Everything left is claimed elsewhere. Wait for the owners to
        // finish (their JSON appears) or die (their claim frees up).
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
    }
    if (!quiet) observability.finish(std::cout);
  } catch (const exp::SweepInterrupted&) {
    if (observability.store != nullptr) observability.store->flush();
    std::cerr << "\ninterrupted: completed runs saved to "
              << (observability.store != nullptr
                      ? observability.store->dir().string()
                      : std::string("(no store)"))
              << "; rerun the same command to resume\n";
    return 130;
  } catch (const std::exception& e) {
    std::cerr << "worker error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

/// Sums the latest snapshot of every (progress file, figure label) pair
/// into one `[fleet]` stderr line. Totals cover *started* figures only —
/// the driver cannot know an unstarted figure's run count, and inventing
/// one would make the line lie.
void print_fleet_progress(const fs::path& marker_dir, std::size_t figs_done,
                          std::size_t figs_total, double elapsed,
                          bool final) {
  std::size_t completed = 0, cached = 0, total = 0;
  std::uint64_t events = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(marker_dir, ec)) {
    if (entry.path().extension() != ".jsonl") continue;
    std::ifstream in(entry.path());
    std::map<std::string, epi::obs::ProgressSnapshot> latest;
    std::string line;
    while (std::getline(in, line)) {
      epi::obs::ProgressSnapshot snap;
      if (epi::obs::parse_progress_line(line, snap)) {
        latest.insert_or_assign(snap.label, snap);
      }
    }
    for (const auto& [label, snap] : latest) {
      completed += snap.completed;
      cached += snap.cached;
      total += snap.total;
      events += snap.events;
    }
  }
  const double rate =
      elapsed > 0.0 ? static_cast<double>(events) / elapsed : 0.0;
  const std::size_t simulated = completed - cached;
  char line[224];
  if (final) {
    std::snprintf(line, sizeof(line),
                  "\r[fleet] %zu/%zu figures, %zu runs (%zu cached, %zu "
                  "simulated), %s ev/s, %.1fs total          \n",
                  figs_done, figs_total, completed, cached, simulated,
                  epi::obs::humanize_rate(rate).c_str(), elapsed);
  } else {
    const double eta =
        simulated > 0 ? elapsed / static_cast<double>(simulated) *
                            static_cast<double>(total - completed)
                      : 0.0;
    std::snprintf(line, sizeof(line),
                  "\r[fleet] %zu/%zu figures, %zu/%zu runs (%zu cached), "
                  "%s ev/s, ETA %.0fs   ",
                  figs_done, figs_total, completed, total, cached,
                  epi::obs::humanize_rate(rate).c_str(), eta);
  }
  std::fputs(line, stderr);
  std::fflush(stderr);
}

std::size_t count_done(const std::vector<const FigureSpec*>& queue,
                       const fs::path& out_dir) {
  std::size_t done = 0;
  for (const FigureSpec* spec : queue) {
    if (fs::exists(out_dir / (std::string(spec->id) + ".json"))) ++done;
  }
  return done;
}

/// `--all` entry point: forks the workers, tails their progress, and
/// succeeds iff every queued figure's JSON exists at the end.
int fleet_main(const FleetArgs& fleet, epi::bench::Args args) {
  const std::vector<const FigureSpec*> queue = resolve_queue(fleet.only);
  const fs::path out_dir = fleet.out;
  if (!args.stats_out.empty()) {
    std::cerr << "--stats-out captures one figure; use it with --fig\n";
    return 2;
  }
  if (fleet.jobs > 1) {
    if (args.store_dir.empty()) {
      std::cerr << "--jobs " << fleet.jobs
                << " needs the run store to partition work "
                   "(drop --no-store)\n";
      return 2;
    }
    if (!args.trace_out.empty() || !args.chrome_out.empty()) {
      std::cerr << "--trace-out/--chrome-trace are per-process outputs and "
                   "are not supported with --jobs > 1\n";
      return 2;
    }
  }
  // Divide the machine across workers instead of oversubscribing it: N
  // workers x (cores / N) threads. Explicit --threads overrides per worker.
  if (args.options.threads == 0 && fleet.jobs > 1) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned jobs =
        static_cast<unsigned>(std::min<std::size_t>(fleet.jobs, hw));
    args.options.threads = std::max(1u, hw / jobs);
  }
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << out_dir.string() << ": " << ec.message()
              << "\n";
    return 1;
  }
  const fs::path marker_dir =
      out_dir / (".fleet-" + std::to_string(getpid()));
  fs::create_directories(marker_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << marker_dir.string() << ": "
              << ec.message() << "\n";
    return 1;
  }

  if (fleet.jobs <= 1) {
    // Single-job mode runs inline: same queue/claim/resume semantics, no
    // fork, terminal progress allowed.
    const int rc =
        fleet_worker(std::move(args), queue, out_dir, marker_dir,
                     /*index=*/0, /*quiet=*/false);
    fs::remove_all(marker_dir, ec);
    return rc;
  }

  // Fork every worker before this process creates any thread or opens the
  // store; children must start from a clean single-threaded image.
  std::vector<pid_t> pids;
  for (std::size_t j = 0; j < fleet.jobs; ++j) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      // Already-forked workers still finish the whole queue on their own;
      // wait for them rather than leaving orphans.
      break;
    }
    if (pid == 0) {
      _exit(fleet_worker(std::move(args), queue, out_dir, marker_dir, j,
                         /*quiet=*/true));
    }
    pids.push_back(pid);
  }
  if (pids.empty()) return 1;

  // Ctrl-C goes to the whole foreground process group; the workers drain
  // and save, the driver just keeps reaping and reports the resume hint.
  std::signal(SIGINT, SIG_IGN);

  const auto start = std::chrono::steady_clock::now();
  std::vector<int> status(pids.size(), -1);
  std::size_t alive = pids.size();
  const auto elapsed_seconds = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  while (alive > 0) {
    for (std::size_t j = 0; j < pids.size(); ++j) {
      if (status[j] != -1) continue;
      int st = 0;
      const pid_t got = waitpid(pids[j], &st, WNOHANG);
      if (got == pids[j]) {
        status[j] = WIFEXITED(st) ? WEXITSTATUS(st)
                                  : 128 + (WIFSIGNALED(st) ? WTERMSIG(st) : 0);
        --alive;
      }
    }
    if (alive == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    print_fleet_progress(marker_dir, count_done(queue, out_dir), queue.size(),
                         elapsed_seconds(), /*final=*/false);
  }
  const std::size_t done = count_done(queue, out_dir);
  print_fleet_progress(marker_dir, done, queue.size(), elapsed_seconds(),
                       /*final=*/true);

  int rc = 0;
  bool interrupted = false;
  for (std::size_t j = 0; j < pids.size(); ++j) {
    if (status[j] == 130) interrupted = true;
    if (status[j] != 0 && status[j] != -1) {
      std::cerr << "worker " << j << " (pid " << pids[j]
                << ") exited with status " << status[j] << "\n";
      if (rc == 0) rc = status[j];
    }
  }
  if (done == queue.size()) {
    // Every figure landed; a worker that died mid-queue was covered by its
    // siblings, which is the whole point of the claim protocol.
    if (rc != 0) {
      std::cerr << "note: all " << done
                << " figures completed despite worker failures\n";
    }
    rc = 0;
  } else if (rc == 0) {
    rc = interrupted ? 130 : 1;
  }
  if (rc != 0) {
    std::cerr << "\n" << (queue.size() - done) << " figure(s) incomplete; "
              << "rerun the same command to resume\n";
  }
  fs::remove_all(marker_dir, ec);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off the driver's own flags; everything else goes to parse_args
  // (which hard-errors on anything it does not know).
  std::string fig;
  bool list = false;
  FleetArgs fleet;
  bool jobs_seen = false, only_seen = false, out_seen = false;
  std::vector<char*> rest{argv[0]};
  const auto value_of = [&](std::string_view arg, int& i) -> std::string {
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) return std::string(arg.substr(eq + 1));
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << arg << "\n";
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    const std::string_view flag = arg.substr(0, arg.find('='));
    if (flag == "--list") {
      list = true;
    } else if (flag == "--fig") {
      fig = value_of(arg, i);
    } else if (flag == "--all") {
      fleet.all = true;
    } else if (flag == "--jobs") {
      fleet.jobs = epi::bench::parse_unsigned<std::size_t>(
          flag, value_of(arg, i));
      jobs_seen = true;
      if (fleet.jobs == 0) {
        std::cerr << "--jobs must be at least 1\n";
        return 2;
      }
    } else if (flag == "--only") {
      fleet.only = value_of(arg, i);
      only_seen = true;
    } else if (flag == "--out") {
      fleet.out = value_of(arg, i);
      out_seen = true;
      if (fleet.out.empty()) {
        std::cerr << "--out needs a directory\n";
        return 2;
      }
    } else {
      rest.push_back(argv[i]);
    }
  }

  if (list) {
    for (const FigureSpec& spec : epi::exp::figure_registry()) {
      std::printf("%-22s %s%s\n", spec.id,
                  spec.paper_figure ? "" : "[extra] ", spec.paper_claim);
    }
    return 0;
  }
  if (fleet.all && !fig.empty()) {
    std::cerr << "--all and --fig are mutually exclusive\n";
    return 2;
  }
  if (!fleet.all && (jobs_seen || only_seen || out_seen)) {
    std::cerr << "--jobs/--only/--out require --all\n";
    return 2;
  }
  if (fleet.all) {
    return fleet_main(fleet, epi::bench::parse_args(
                                 static_cast<int>(rest.size()), rest.data()));
  }
  if (fig.empty()) {
    std::cerr << "usage: " << argv[0]
              << " --fig ID [bench flags...] | --all [--jobs N] [--only IDS]"
                 " [--out DIR] [bench flags...] | --list\n";
    return 2;
  }
  const FigureSpec* spec = epi::exp::find_figure(fig);
  if (spec == nullptr) {
    std::cerr << "unknown figure '" << fig << "' (run --list for the ids)\n";
    return 2;
  }
  return epi::bench::figure_main(static_cast<int>(rest.size()), rest.data(),
                                 *spec);
}
