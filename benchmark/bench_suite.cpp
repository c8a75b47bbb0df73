// bench_suite: the benchmark of record. One workload per process; it prints
// every metric by name and unit, then one JSON result line.
//
//   bench_suite --workload NAME [--seed S] [--seconds T] [--trace] [--smoke]
//               [--out-dir DIR] [--work-dir DIR]
//
// A run sets the workload up several times (setup_s is the median), runs one
// discarded warm-up sample, then takes samples until --seconds have passed;
// the timings report each step of a sample at its fastest (quiet_wall).
// Every op -- one registry figure, or one run_single -- is checked against
// an oracle; a mismatch or an exception counts as a failed op. With --trace the run alternates untraced and traced
// samples, reports per-layer metrics instead of end-to-end ones, and writes
// <workload>.trace.json (Chrome trace format) beside the report. README.md
// describes the workloads and metrics.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "dtn/buffer.hpp"
#include "dtn/summary_codec.hpp"
#include "exp/builders.hpp"
#include "exp/figures.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "mobility/contact_source.hpp"
#include "obs/chrome_trace.hpp"
#include "store/fingerprint.hpp"
#include "store/run_store.hpp"

namespace {

namespace fs = std::filesystem;
namespace exp = epi::exp;
using Clock = std::chrono::steady_clock;

// The figure workloads always regenerate the paper's seed-42 figure set:
// across master seeds the suite's work varies by ~17% (interquartile range
// over ten seeds), far beyond any useful regression bound. --seed instead
// shuffles the order the figures are requested in, which decides which
// figure pays for the runs that several figures share.
constexpr std::uint64_t kFigureSeed = 42;
constexpr std::uint64_t kPinnedSeed = 42;
// Set-up executions per run (the median is reported), and repetitions of
// each timed probe (the fastest is reported). A cheap set-up runs more
// often, until kSetupSeconds have gone into it or kMaxSetups executions, so
// its median holds steady.
constexpr std::size_t kRepeats = 3;
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kMaxSetups = 15;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- statistics -------------------------------------------------------------

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

/// Median and quartiles by the method of Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method), so the
/// numbers here match what compare.py computes from the same samples.
Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  q.n = values.size();
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  q.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n < 2) {
    q.q1 = q.q3 = q.median;
    return q;
  }
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;  ///< 1 sample, reps=1, large_scenario(128)
  fs::path out_dir = "benchmark/.build/results";
  fs::path work_dir = "benchmark/.build/work";
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "bench_suite: %s\nusage: bench_suite --workload NAME "
               "[--seed S] [--seconds T] [--trace] [--smoke] [--out-dir DIR] "
               "[--work-dir DIR]\n",
               message.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + std::string(arg));
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage_error("bad --seed " + v);
    } else if (arg == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0.0)) {
        usage_error("bad --seconds " + v);
      }
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else {
      usage_error("unknown argument " + std::string(arg));
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  return o;
}

// --- tracing ----------------------------------------------------------------

/// Benchmark-side spans, kept in memory and written once at exit. Spans are
/// opened and closed on the main thread only, so a stack gives each span
/// its parent; every span carries the id of the sample it belongs to.
class Tracer {
 public:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  void set_sample(long id) { sample_ = id; }

  std::size_t open(std::string name, const char* cat) {
    spans_.push_back({std::move(name), cat, now_us(), 0.0, 0, sample_,
                      stack_.empty() ? -1L : static_cast<long>(stack_.back())});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].dur_us = now_us() - spans_[index].ts_us;
    stack_.pop_back();
  }

  /// Records a finished span from a pool worker lane (lane 0 is the main
  /// thread) under the span at index `parent`.
  void add(std::string name, unsigned lane, double ts_us, double dur_us,
           std::size_t parent) {
    spans_.push_back({std::move(name), "run", ts_us, dur_us, lane, sample_,
                      static_cast<long>(parent)});
  }

  void write(const fs::path& path, const std::string& provenance) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << provenance
        << ",\"traceEvents\":[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& s = spans_[i];
      out << (i > 0 ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"cat\":\"" << s.cat << "\",\"ph\":\"X\",\"pid\":1";
      std::snprintf(buf, sizeof(buf),
                    ",\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"sample\":"
                    "%ld,\"span\":%zu,\"parent\":%ld}}",
                    s.lane, s.ts_us, s.dur_us, s.sample, i, s.parent);
      out << buf;
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write " + path.string());
  }

 private:
  struct Record {
    std::string name;
    const char* cat;
    double ts_us;
    double dur_us;
    unsigned lane;
    long sample;
    long parent;
  };
  Clock::time_point origin_ = Clock::now();
  long sample_ = -1;
  std::vector<Record> spans_;
  std::vector<std::size_t> stack_;
};

/// Scoped span; a no-op when tracing is off for the current sample.
class Span {
 public:
  Span(Tracer* tracer, std::string name, const char* cat) : tracer_(tracer) {
    if (tracer_ != nullptr) index_ = tracer_->open(std::move(name), cat);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::size_t index() const noexcept { return index_; }

 private:
  Tracer* tracer_;
  std::size_t index_ = 0;
};

/// Sums the per-replication spans a sweep recorded and re-records them in
/// `tracer` under span `parent`, shifted by `offset_us` onto the tracer's
/// timebase. write() is the writer's only read access; it emits one event
/// per line.
double splice_chrome(const epi::obs::ChromeTraceWriter& chrome,
                     double offset_us, Tracer& tracer, std::size_t parent) {
  std::ostringstream text;
  chrome.write(text);
  std::istringstream in(text.str());
  const auto number_after = [](const std::string& line, const char* key) {
    const std::size_t at = line.find(key);
    return at == std::string::npos
               ? 0.0
               : std::strtod(line.c_str() + at + std::strlen(key), nullptr);
  };
  double busy_us = 0.0;
  std::string line;
  while (std::getline(in, line)) {
    constexpr std::string_view kHead = "{\"name\":\"";
    if (line.rfind(kHead, 0) != 0) continue;
    const std::size_t name_end = line.find("\",\"cat\"");
    const double dur = number_after(line, "\"dur\":");
    busy_us += dur;
    tracer.add(line.substr(kHead.size(), name_end - kHead.size()),
               static_cast<unsigned>(number_after(line, "\"tid\":")) + 1,
               offset_us + number_after(line, "\"ts\":"), dur, parent);
  }
  return busy_us / 1e6;
}

// --- op accounting ----------------------------------------------------------

struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "[bench] FAILED %s\n", what.c_str());
    }
  }
};

// --- samples ----------------------------------------------------------------

/// Simulation-side layer numbers of one pass: what the engine did and how
/// long it took.
struct SimLayers {
  double pass_wall_s = 0.0;
  double run_single_s = 0.0;  ///< benchmark-timed run_single (or the sweep's
                              ///< per-replication spans, which wrap it)
  double engine_run_s = 0.0;  ///< sum of perf.wall_seconds
  double sim_busy_s = 0.0;    ///< time the pool's lanes spent simulating
  std::uint64_t events = 0;
  std::uint64_t peak_queue = 0;
  std::uint64_t transfers = 0;
  std::uint64_t refused_full = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t ad_bytes = 0;
  std::uint64_t fp_suppressed = 0;

  void add(const epi::metrics::RunSummary& s) {
    engine_run_s += s.perf.wall_seconds;
    events += s.perf.events_processed;
    peak_queue = std::max<std::uint64_t>(peak_queue, s.perf.peak_queue_depth);
    transfers += s.perf.transfers;
    refused_full += s.perf.transfers_refused_full;
    exchanges += s.perf.summary_exchanges;
    ad_bytes += s.perf.summary_ad_bytes;
    fp_suppressed += s.perf.transfers_suppressed_fp;
  }
};

struct Sample {
  double wall_s = 0.0;
  /// The sample's wall time split into steps that do the same work in every
  /// sample of a run: the store open and each figure, or each slice of a
  /// run's contacts and the JSON rendering.
  std::vector<double> steps_s;
  std::uint64_t runs = 0;    ///< runs resolved: simulated or served
  std::uint64_t events = 0;  ///< events behind the resolved runs
  epi::store::RunStore::Stats store;  ///< zero where no store is used;
                                      ///< store.hits counts runs served
  double figure_json_s = 0.0;
  SimLayers sim;
};

/// Appends to `steps` the time between each pair of consecutive stamps.
void append_steps(const std::vector<Clock::time_point>& stamps,
                  std::vector<double>& steps) {
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    steps.push_back(
        std::chrono::duration<double>(stamps[i] - stamps[i - 1]).count());
  }
}

/// Hands a run its contacts in slices of at most kSliceContacts and stamps
/// the clock at every pull. The slices, and so the work the engine does
/// between two pulls, are the same in every sample of a run, so a run's time
/// splits into steps that can be compared across samples. The engine's
/// result is bit-identical for any slicing.
class SlicedSource final : public epi::mobility::ContactSource {
 public:
  static constexpr std::size_t kSliceContacts = 4096;

  SlicedSource(epi::mobility::ContactSource& inner,
               std::vector<Clock::time_point>& stamps)
      : inner_(inner), stamps_(stamps) {}

  [[nodiscard]] std::span<const epi::mobility::Contact> next_chunk() override {
    stamps_.push_back(Clock::now());
    if (rest_.empty()) rest_ = inner_.next_chunk();
    const auto slice = rest_.first(std::min(kSliceContacts, rest_.size()));
    rest_ = rest_.subspan(slice.size());
    return slice;
  }

  [[nodiscard]] std::uint32_t node_count() const override {
    return inner_.node_count();
  }

 private:
  epi::mobility::ContactSource& inner_;
  std::vector<Clock::time_point>& stamps_;
  std::span<const epi::mobility::Contact> rest_;
};

/// What the layer probes of a traced run feed on: the workload's own
/// mobility inputs, buffer size, codec and results.
struct ProbeInputs {
  std::vector<exp::ScenarioSpec> scenarios;
  std::uint64_t seed = 0;
  std::uint32_t capacity = epi::defaults::kBufferCapacity;
  epi::SummaryCodecParams codec;
  std::vector<std::pair<std::string, epi::metrics::RunSummary>> records;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up execution; `tracer` is non-null in a traced run.
  virtual void setup(Tracer* tracer) = 0;
  virtual Sample sample(Tracer* tracer, long id) = 0;
  /// Where the simulation layers are measured when the samples simulate
  /// nothing (figures_warm: its store-filling set-up pass); else null.
  [[nodiscard]] virtual const SimLayers* setup_layers() const {
    return nullptr;
  }
  [[nodiscard]] virtual ProbeInputs probe_inputs() = 0;
  [[nodiscard]] virtual unsigned threads() const = 0;
};

std::string describe(const std::string& what, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return what + " digest " + buf;
}

// --- figure workloads -------------------------------------------------------

/// FNV-1a digests of print_figure_json for every figure of the suite at
/// master seed 42, 10 replications.
const std::map<std::string_view, std::uint64_t>& pinned_figure_digests() {
  static const std::map<std::string_view, std::uint64_t> pins = {
      {"fig07", 0xcfb47f5b7de75727ULL},
      {"fig08", 0x03df2bc731575be7ULL},
      {"fig09", 0xb31c296e3292b01eULL},
      {"fig10", 0x69229707a4959012ULL},
      {"fig11", 0xa850d2214f36f087ULL},
      {"fig12", 0x94e0321321e6934eULL},
      {"fig13", 0x04f0435d3c04fcacULL},
      {"fig14", 0x12336d7489c73132ULL},
      {"fig15", 0x877ff1bb8bcec3eaULL},
      {"fig16", 0xeee37581176b8e34ULL},
      {"fig17", 0x9a7175f628c4b409ULL},
      {"fig18", 0xe27d243a6b787548ULL},
      {"fig19", 0xf1ff6eddfdd1f656ULL},
      {"fig20", 0xb54c9ba94444dc5fULL},
      {"robust_trace_delivery", 0x63febab19b24984cULL},
      {"robust_trace_delay", 0xf6959e0116fa5e19ULL},
      {"robust_trace_dup", 0xa1fc5b8189652672ULL},
      {"robust_rwp_delivery", 0xeea98d49398e02bcULL},
      {"robust_rwp_delay", 0x08d8efbf8fe88c3aULL},
      {"robust_rwp_dup", 0x07bd1dde5c8bc826ULL},
      {"capacity_trace_delivery", 0xd7d07e5e4957fadfULL},
      {"capacity_trace_delay", 0x2bfb968d6a94fa18ULL},
      {"bloom_trace_delivery", 0xb47101732f26ae9dULL},
      {"bloom_trace_delay", 0x6842b59ea0ce8b8bULL},
      {"bloom_trace_signaling", 0xce52b0a525e07733ULL},
      {"bloom_fault_delivery", 0x9ac86f9b8e9acf07ULL},
  };
  return pins;
}

bool in_figure_suite(std::string_view id) {
  // stats_* bypass the store; city_* take ~11 s per figure.
  return id.rfind("stats_", 0) != 0 && id.rfind("city_", 0) != 0;
}

class FigureWorkload final : public Workload {
 public:
  FigureWorkload(const Options& options, Ops& ops, fs::path dir, bool warm)
      : options_(options),
        ops_(ops),
        store_dir_(std::move(dir) / "store"),
        warm_(warm),
        reps_(options.smoke ? 1u : 10u),
        // A warm pass simulates nothing, so a second sweep thread only adds
        // hand-offs: on a shared 4-vCPU VM a warm sample took 0.17 s on 2
        // threads against 0.14 s on 1, and its run medians spread about
        // twice as wide.
        threads_(warm ? 1u
                      : std::clamp(std::thread::hardware_concurrency(), 1u,
                                   2u)) {
    for (const exp::FigureSpec& spec : exp::figure_registry()) {
      if (in_figure_suite(spec.id)) order_.push_back(&spec);
    }
    // Fisher-Yates with splitmix64, so the order is the same everywhere.
    std::uint64_t state = options.seed;
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      z ^= z >> 31;
      std::swap(order_[i - 1], order_[z % i]);
    }
  }

  void setup(Tracer* tracer) override {
    // Both workloads set up by filling a fresh store with one cold pass;
    // figures_cold then discards it, figures_warm serves every sample
    // from it.
    fs::remove_all(store_dir_);
    const Sample fill = pass(tracer, -1);
    if (tracer != nullptr) fill_layers_ = fill.sim;
  }

  Sample sample(Tracer* tracer, long id) override {
    if (!warm_) fs::remove_all(store_dir_);
    Sample s = pass(tracer, id);
    if (warm_ && s.store.misses != 0) {
      ops_.record(false, "figures_warm sample simulated " +
                             std::to_string(s.store.misses) + " runs");
    }
    return s;
  }

  [[nodiscard]] const SimLayers* setup_layers() const override {
    return warm_ ? &fill_layers_ : nullptr;
  }

  ProbeInputs probe_inputs() override {
    ProbeInputs in;
    in.scenarios = {exp::trace_scenario(), exp::rwp_scenario()};
    in.seed = kFigureSeed;
    epi::store::RunStore store(store_dir_);
    store.for_each([&](const std::string& key,
                       const epi::metrics::RunSummary& summary) {
      in.records.emplace_back(key, summary);
    });
    return in;
  }

  [[nodiscard]] unsigned threads() const override { return threads_; }

 private:
  /// Requests every figure of the suite against the store, renders each as
  /// JSON and checks its digest.
  Sample pass(Tracer* tracer, long id) {
    Sample s;
    std::vector<std::string> json(order_.size());
    std::optional<epi::obs::ChromeTraceWriter> chrome;
    double chrome_offset_us = 0.0;
    std::size_t sample_span_index = 0;
    const auto start = Clock::now();
    {
      Span sample_span(tracer, id < 0 ? "setup" : "sample", "bench");
      sample_span_index = sample_span.index();
      if (tracer != nullptr) {
        chrome.emplace();
        chrome_offset_us = tracer->now_us();
      }
      std::optional<epi::store::RunStore> store;
      std::vector<Clock::time_point> stamps{Clock::now()};
      {
        Span span(tracer, "store.open", "store");
        store.emplace(store_dir_);
      }
      stamps.push_back(Clock::now());
      exp::FigureOptions o;
      o.master_seed = kFigureSeed;
      o.replications = reps_;
      o.threads = threads_;
      o.store = &*store;
      o.chrome = chrome ? &*chrome : nullptr;
      for (std::size_t i = 0; i < order_.size(); ++i) {
        try {
          Span span(tracer, order_[i]->id, "exp");
          const exp::Figure figure = order_[i]->run(o);
          for (const auto& result : figure.results) {
            for (const auto& batch : result.runs) {
              for (const auto& run : batch) {
                ++s.runs;
                s.events += run.perf.events_processed;
              }
            }
          }
          const auto json_start = Clock::now();
          Span json_span(tracer, "figure_json", "exp");
          std::ostringstream out;
          exp::print_figure_json(out, figure);
          json[i] = out.str();
          s.figure_json_s += seconds_since(json_start);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "[bench] %s threw: %s\n", order_[i]->id,
                       e.what());
        }
        stamps.push_back(Clock::now());
      }
      append_steps(stamps, s.steps_s);
      s.store = store->stats();
    }
    s.wall_s = seconds_since(start);

    // Oracle: pinned digests for the full suite; in smoke mode (reps=1,
    // unpinned) every pass must match the first.
    const bool pinned = !options_.smoke;
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const std::string_view fig_id = order_[i]->id;
      const std::uint64_t digest = epi::store::fnv1a64(json[i]);
      std::uint64_t expected = digest;
      if (pinned) {
        const auto& pins = pinned_figure_digests();
        const auto it = pins.find(fig_id);
        expected = it == pins.end() ? 0 : it->second;
      } else {
        expected = first_digests_.emplace(fig_id, digest).first->second;
      }
      ops_.record(!json[i].empty() && digest == expected,
                  describe(std::string(fig_id), digest));
    }

    if (tracer != nullptr) {
      s.sim.pass_wall_s = s.wall_s;
      s.sim.sim_busy_s = splice_chrome(*chrome, chrome_offset_us, *tracer,
                                       sample_span_index);
      s.sim.run_single_s = s.sim.sim_busy_s;
      // Every record a pass appended was simulated by it; on a warm pass
      // nothing was, and the simulation layers stay zero.
      if (s.store.appended > 0) {
        epi::store::RunStore store(store_dir_);
        store.for_each([&](const std::string&,
                           const epi::metrics::RunSummary& summary) {
          s.sim.add(summary);
        });
      }
    }
    return s;
  }

  const Options& options_;
  Ops& ops_;
  fs::path store_dir_;
  bool warm_;
  std::uint32_t reps_;
  unsigned threads_;
  std::vector<const exp::FigureSpec*> order_;
  std::map<std::string_view, std::uint64_t> first_digests_;
  SimLayers fill_layers_;
};

// --- single-run workloads ---------------------------------------------------

/// The deterministic counters pinned per run.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t transfers = 0;
  std::uint64_t refused_full = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t ad_bytes = 0;

  friend bool operator==(const Counters&, const Counters&) = default;

  static Counters of(const epi::metrics::RunSummary& s) {
    return {s.perf.events_processed, s.perf.transfers,
            s.perf.transfers_refused_full, s.perf.summary_exchanges,
            s.perf.summary_ad_bytes};
  }

  [[nodiscard]] std::string str() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "{%llu, %llu, %llu, %llu, %llu}",
                  static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(transfers),
                  static_cast<unsigned long long>(refused_full),
                  static_cast<unsigned long long>(exchanges),
                  static_cast<unsigned long long>(ad_bytes));
    return buf;
  }
};

/// Pinned counters at seed 42, keyed "<scenario>[+bloom8]/<protocol>". The
/// exact-codec rows are the large128/*, large512/* and large8192/immunity
/// rows of BENCH_engine.json; the bloom8 rows record this benchmark's
/// first measurement.
const std::map<std::string, Counters>& pinned_counters() {
  static const std::map<std::string, Counters> pins = {
      {"large128/pure_epidemic", {64887, 1280, 66468, 18194, 1405484}},
      {"large128/immunity", {19278, 6508, 7355, 5507, 341808}},
      {"large128/pq_epidemic", {19278, 6508, 7355, 5507, 390352}},
      {"large512/pure_epidemic", {939710, 5120, 1119397, 295181, 23251888}},
      {"large512/immunity", {103583, 28109, 58746, 32986, 1906124}},
      {"large512/pq_epidemic", {103583, 28109, 58746, 32986, 2276232}},
      {"large8192/immunity", {2173615, 460775, 1223419, 709019, 36251584}},
      {"large128+bloom8/pure_epidemic", {64887, 1279, 66457, 53149, 1029327}},
      {"large512+bloom8/pure_epidemic",
       {939710, 5119, 1119202, 865835, 17083670}},
  };
  return pins;
}

class RunWorkload final : public Workload {
 public:
  RunWorkload(const Options& options, Ops& ops, std::uint32_t nodes,
              const epi::SummaryCodecParams& codec, bool streamed,
              std::vector<const char*> protocols)
      : options_(options),
        ops_(ops),
        scenario_(exp::large_scenario(nodes)),
        streamed_(streamed) {
    const auto flows = exp::large_flows(nodes, 8, 16);
    std::uint32_t total_load = 0;
    for (const auto& flow : flows) total_load += flow.load;
    for (const char* name : protocols) {
      epi::ProtocolParams params;
      params.kind = epi::protocol_from_string(name);
      specs_.push_back(exp::RunSpecBuilder()
                           .protocol(params)
                           .scenario(scenario_)
                           .load(total_load)
                           .flows(flows)
                           .replication(1)
                           .master_seed(options.seed)
                           .summary(codec)
                           .build());
      const std::string key = scenario_.name +
                              (codec.compact() ? "+bloom8/" : "/") + name;
      const auto& pins = pinned_counters();
      const auto it = pins.find(key);
      labels_.push_back(key);
      reference_.push_back(options.seed == kPinnedSeed && it != pins.end()
                               ? std::optional<Counters>(it->second)
                               : std::nullopt);
    }
  }

  void setup(Tracer* tracer) override {
    Span span(tracer, "mobility.setup", "mobility");
    if (streamed_) {
      const auto source = exp::build_contact_source(scenario_, options_.seed);
      input_contacts_ = 0;
      for (auto chunk = source->next_chunk(); !chunk.empty();
           chunk = source->next_chunk()) {
        input_contacts_ += chunk.size();
      }
    } else {
      trace_.reset();
      trace_.emplace(exp::build_contact_trace(scenario_, options_.seed));
      input_contacts_ = trace_->contacts().size();
    }
  }

  Sample sample(Tracer* tracer, long /*id*/) override {
    Sample s;
    std::vector<std::optional<epi::metrics::RunSummary>> results(
        specs_.size());
    std::string json;
    const auto start = Clock::now();
    {
      Span sample_span(tracer, "sample", "bench");
      std::vector<Clock::time_point> stamps{start};
      for (std::size_t i = 0; i < specs_.size(); ++i) {
        try {
          std::unique_ptr<epi::mobility::ContactSource> source;
          if (streamed_) {
            Span span(tracer, "mobility.source", "mobility");
            source = exp::build_contact_source(scenario_, options_.seed);
          } else {
            source =
                std::make_unique<epi::mobility::TraceContactSource>(*trace_);
          }
          SlicedSource sliced(*source, stamps);
          const auto run_start = Clock::now();
          Span span(tracer, "run_single/" + labels_[i], "routing");
          results[i] = exp::run_single(specs_[i], sliced);
          s.sim.run_single_s += seconds_since(run_start);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "[bench] %s threw: %s\n", labels_[i].c_str(),
                       e.what());
        }
        stamps.push_back(Clock::now());
      }
      {
        Span span(tracer, "figure_json", "exp");
        json = render(results);
      }
      stamps.push_back(Clock::now());
      s.figure_json_s = std::chrono::duration<double>(
                            stamps.back() - stamps[stamps.size() - 2])
                            .count();
      append_steps(stamps, s.steps_s);
    }
    s.wall_s = seconds_since(start);
    s.sim.pass_wall_s = s.wall_s;
    s.sim.sim_busy_s = s.sim.run_single_s;

    const std::uint64_t json_digest = epi::store::fnv1a64(json);
    if (!first_json_digest_) first_json_digest_ = json_digest;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      if (!results[i]) {
        ops_.record(false, labels_[i]);
        continue;
      }
      const epi::metrics::RunSummary& r = *results[i];
      ++s.runs;
      s.events += r.perf.events_processed;
      s.sim.add(r);
      ops_.record(check(i, r) && json_digest == *first_json_digest_,
                  labels_[i] + " counters " + Counters::of(r).str() + ", " +
                      describe("output", json_digest));
    }
    last_ = std::move(results);
    return s;
  }

  ProbeInputs probe_inputs() override {
    ProbeInputs in;
    in.scenarios = {scenario_};
    in.seed = options_.seed;
    in.capacity = specs_.front().buffer_capacity;
    in.codec = specs_.front().options.summary;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      if (last_[i]) {
        in.records.emplace_back(exp::store_key(scenario_, specs_[i]),
                                *last_[i]);
      }
    }
    return in;
  }

  [[nodiscard]] unsigned threads() const override { return 1; }

 private:
  /// Pinned counters at seed 42, else the warm-up sample's; plus checks
  /// that hold for every seed.
  bool check(std::size_t i, const epi::metrics::RunSummary& r) {
    const Counters got = Counters::of(r);
    if (!reference_[i]) reference_[i] = got;
    // A run reads every contact of its input unless it completes early.
    const bool contacts_ok =
        r.perf.contacts <= input_contacts_ &&
        (r.complete || r.perf.contacts == input_contacts_);
    const bool exact_ok = specs_[i].options.summary.compact() ||
                          r.perf.transfers_suppressed_fp == 0;
    const bool ratio_ok = r.delivery_ratio >= 0.0 && r.delivery_ratio <= 1.0;
    return got == *reference_[i] && contacts_ok && exact_ok && ratio_ok;
  }

  /// The sample's runs as one figure JSON: the output a user reads.
  [[nodiscard]] std::string render(
      const std::vector<std::optional<epi::metrics::RunSummary>>& results)
      const {
    exp::Figure figure;
    figure.id = options_.workload;
    figure.title = scenario_.name;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      if (!results[i]) continue;
      exp::SweepResult r;
      r.scenario_name = scenario_.name;
      r.protocol = specs_[i].protocol;
      r.loads = {specs_[i].load};
      r.runs = {{*results[i]}};
      r.points = {epi::metrics::aggregate_runs(r.runs.front())};
      figure.labels.push_back(labels_[i]);
      figure.results.push_back(std::move(r));
    }
    std::ostringstream out;
    exp::print_figure_json(out, figure);
    return out.str();
  }

  const Options& options_;
  Ops& ops_;
  exp::ScenarioSpec scenario_;
  bool streamed_;
  std::vector<exp::RunSpec> specs_;
  std::vector<std::string> labels_;
  std::vector<std::optional<Counters>> reference_;
  std::optional<epi::mobility::ContactTrace> trace_;
  std::size_t input_contacts_ = 0;
  std::optional<std::uint64_t> first_json_digest_;
  std::vector<std::optional<epi::metrics::RunSummary>> last_;
};

// --- layer probes (traced runs only) ----------------------------------------

struct MobilityProbe {
  double gen_s = 0.0;
  std::uint64_t contacts = 0;
};

/// Builds and drains a second source per mobility input, with the same seed.
MobilityProbe probe_mobility(const ProbeInputs& in, Tracer& tracer) {
  std::vector<double> times;
  MobilityProbe p;
  for (std::size_t rep = 0; rep < kRepeats; ++rep) {
    Span span(&tracer, "probe.mobility", "mobility");
    std::uint64_t contacts = 0;
    const auto start = Clock::now();
    for (const auto& scenario : in.scenarios) {
      const auto source = exp::build_contact_source(scenario, in.seed);
      for (auto chunk = source->next_chunk(); !chunk.empty();
           chunk = source->next_chunk()) {
        contacts += chunk.size();
      }
    }
    times.push_back(seconds_since(start));
    p.contacts = contacts;
  }
  p.gen_s = *std::min_element(times.begin(), times.end());
  return p;
}

struct CodecProbe {
  double advertise_ns = 0.0;
  double claims_ns = 0.0;
  bool ok = true;
};

/// Calls the workload's codec directly on a buffer filled to capacity.
CodecProbe probe_codec(const ProbeInputs& in, Tracer& tracer) {
  Span span(&tracer, "probe.codec", "dtn");
  epi::dtn::BundleBuffer buffer(in.capacity);
  for (epi::BundleId id = 1; id <= in.capacity; ++id) {
    epi::dtn::StoredBundle copy;
    copy.id = id;
    buffer.insert(copy);
  }
  const auto codec = epi::dtn::make_summary_codec(in.codec);
  const std::uint64_t expected_bytes =
      in.codec.compact()
          ? (static_cast<std::uint64_t>(in.codec.filter_bits) * in.capacity +
             7) / 8
          : static_cast<std::uint64_t>(in.capacity) * epi::kSummaryEntryBytes;

  CodecProbe p;
  constexpr std::uint32_t kAdvertisements = 200'000;
  std::uint64_t bytes = 0;
  auto start = Clock::now();
  for (std::uint32_t i = 0; i < kAdvertisements; ++i) {
    bytes += codec->advertise(static_cast<int>(i & 1U), buffer);
  }
  p.advertise_ns = seconds_since(start) * 1e9 / kAdvertisements;
  p.ok = bytes == expected_bytes * kAdvertisements;

  // Half the probed ids are stored; none of those may be denied.
  constexpr std::uint32_t kRounds = 50'000;
  const std::uint32_t span_ids = 2 * in.capacity;
  std::uint64_t claimed_present = 0;
  start = Clock::now();
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    for (epi::BundleId id = 1; id <= span_ids; ++id) {
      const bool claimed = codec->claims(static_cast<int>(round & 1U), buffer,
                                         id);
      claimed_present += (claimed && id <= in.capacity) ? 1U : 0U;
    }
  }
  p.claims_ns =
      seconds_since(start) * 1e9 / (static_cast<double>(kRounds) * span_ids);
  p.ok = p.ok && claimed_present ==
                     static_cast<std::uint64_t>(kRounds) * in.capacity;
  return p;
}

struct StoreProbe {
  double open_s = 0.0;
  double find_ns = 0.0;
  double put_ns = 0.0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  bool ok = true;
};

/// Replays the workload's records into a scratch store (put), reopens it
/// (open) and looks every key up (find).
StoreProbe probe_store(const ProbeInputs& in, const fs::path& dir,
                       Tracer& tracer) {
  StoreProbe p;
  fs::remove_all(dir);
  const double n =
      static_cast<double>(std::max<std::size_t>(1, in.records.size()));
  {
    Span span(&tracer, "probe.store.put", "store");
    epi::store::RunStore store(dir);
    const auto start = Clock::now();
    for (const auto& [key, summary] : in.records) store.put(key, summary);
    p.put_ns = seconds_since(start) * 1e9 / n;
  }
  std::vector<double> opens;
  for (std::size_t rep = 0; rep < kRepeats; ++rep) {
    Span span(&tracer, "probe.store.open", "store");
    const auto start = Clock::now();
    epi::store::RunStore store(dir);
    opens.push_back(seconds_since(start));
  }
  p.open_s = *std::min_element(opens.begin(), opens.end());
  epi::store::RunStore store(dir);
  Span span(&tracer, "probe.store.find", "store");
  std::size_t found = 0;
  const auto start = Clock::now();
  for (const auto& [key, summary] : in.records) {
    const auto hit = store.find(key);
    if (hit && epi::metrics::deterministic_equal(*hit, summary)) ++found;
  }
  p.find_ns = seconds_since(start) * 1e9 / n;
  p.ok = found == in.records.size();
  p.records = store.stats().records;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind("seg-", 0) == 0) {
      p.bytes += entry.file_size();
    }
  }
  return p;
}

// --- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;  ///< what the result line reports
  Quartiles q;
};

/// A metric reported as the median of its values.
Metric of(std::string name, std::string unit, const std::vector<double>& v) {
  const Quartiles q = quartiles(v);
  return {std::move(name), std::move(unit), q.median, q};
}
Metric of(std::string name, std::string unit, double value) {
  return of(std::move(name), std::move(unit), std::vector<double>{value});
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string provenance_json(const Options& o, unsigned threads) {
  std::ostringstream out;
  out << "{\"compiler\":\"" << EPI_BENCH_COMPILER << "\",\"build_type\":\""
      << EPI_BENCH_BUILD_TYPE << "\",\"git_rev\":\"" << EPI_BENCH_GIT_REV
      << "\",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"threads\":" << threads << ",\"seed\":" << o.seed
      << ",\"workload\":\"" << o.workload << "\",\"seconds\":"
      << json_number(o.seconds) << ",\"trace\":" << (o.trace ? "true" : "false")
      << ",\"smoke\":" << (o.smoke ? "true" : "false") << "}";
  return out.str();
}

std::unique_ptr<Workload> make_workload(const Options& o, Ops& ops,
                                        const fs::path& dir) {
  const std::uint32_t large = o.smoke ? 128 : 512;
  const std::uint32_t city = o.smoke ? 128 : 8192;
  epi::SummaryCodecParams exact;
  epi::SummaryCodecParams bloom8;
  bloom8.mode = epi::SummaryMode::kBloom;
  bloom8.filter_bits = 8;
  if (o.workload == "figures_cold") {
    return std::make_unique<FigureWorkload>(o, ops, dir, false);
  }
  if (o.workload == "figures_warm") {
    return std::make_unique<FigureWorkload>(o, ops, dir, true);
  }
  if (o.workload == "large512_exact") {
    return std::make_unique<RunWorkload>(
        o, ops, large, exact, false,
        std::vector<const char*>{"pure_epidemic", "immunity", "pq_epidemic"});
  }
  if (o.workload == "large512_bloom8") {
    // Pure epidemic only: under false-positive suppression, whether the
    // immunity and P-Q runs complete early depends on the seed (3 of 10
    // seeds ran them to the horizon, 1.8x the work of the others).
    return std::make_unique<RunWorkload>(
        o, ops, large, bloom8, false,
        std::vector<const char*>{"pure_epidemic"});
  }
  if (o.workload == "city8192_stream") {
    return std::make_unique<RunWorkload>(
        o, ops, city, exact, true, std::vector<const char*>{"immunity"});
  }
  usage_error("unknown workload " + o.workload);
}

/// Removes the per-process work directory on every exit path.
struct WorkDir {
  fs::path path;
  explicit WorkDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
};

/// The sample with the least wall time.
const Sample& fastest(const std::vector<Sample>& samples) {
  return *std::min_element(
      samples.begin(), samples.end(),
      [](const Sample& a, const Sample& b) { return a.wall_s < b.wall_s; });
}

/// The time one sample of the run takes when nothing else slows it: the sum
/// over its steps of each step's fastest time across the samples. Other
/// tenants of a shared host only ever add time, and their load comes and
/// goes, so a step's fastest time is its steadiest estimate; steps of a few
/// milliseconds find quiet moments that whole samples of a second or more
/// miss. Null when the samples did not split into the same steps, which
/// only a failed op causes.
std::optional<double> quiet_wall(const std::vector<Sample>& samples) {
  std::vector<double> best = samples.front().steps_s;
  for (const Sample& s : samples) {
    if (s.steps_s.size() != best.size()) return std::nullopt;
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], s.steps_s[i]);
    }
  }
  return std::accumulate(best.begin(), best.end(), 0.0);
}

std::vector<Metric> end_to_end_metrics(const std::vector<Sample>& samples,
                                       double wall,
                                       const std::vector<double>& setups) {
  std::vector<double> walls;
  for (const Sample& s : samples) walls.push_back(s.wall_s);
  Metric wall_s = of("wall_s", "s", walls);
  wall_s.value = wall;
  const Sample& any = samples.front();  // every sample does the same work
  return {wall_s,
          of("runs_per_s", "1/s", ratio(static_cast<double>(any.runs), wall)),
          of("events_per_s", "1/s",
             ratio(static_cast<double>(any.events), wall)),
          of("peak_rss_mib", "MiB", peak_rss_mib()),
          of("setup_s", "s", setups)};
}

/// Layer metrics of the fastest traced sample, so that its timings add up;
/// the tracing overhead compares quiet_wall of the traced and the untraced
/// samples.
std::vector<Metric> per_layer_metrics(const Workload& workload,
                                      const Sample& traced, double traced_wall,
                                      double untraced_wall,
                                      const MobilityProbe& mobility,
                                      const CodecProbe& codec,
                                      const StoreProbe& store) {
  const double threads = workload.threads();
  const SimLayers& sim =
      workload.setup_layers() ? *workload.setup_layers() : traced.sim;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      of("mobility.gen_s", "s", mobility.gen_s),
      of("mobility.contacts", "count", d(mobility.contacts)),
      of("mobility.contacts_per_s", "1/s",
         ratio(d(mobility.contacts), mobility.gen_s)),
      of("core.events", "count", d(sim.events)),
      of("core.peak_queue_depth", "count", d(sim.peak_queue)),
      of("routing.run_single_s", "s", sim.run_single_s),
      // The sample's run_single time over its wall time: above 1 on
      // figures_cold, whose lanes run in parallel, and 0 on figures_warm,
      // whose samples simulate nothing.
      of("routing.run_single_share", "ratio",
         ratio(traced.sim.run_single_s, traced.wall_s)),
      of("routing.engine_run_s", "s", sim.engine_run_s),
      of("routing.construct_s", "s", sim.run_single_s - sim.engine_run_s),
      of("routing.ns_per_event", "ns",
         ratio(sim.engine_run_s * 1e9, d(sim.events))),
      of("routing.transfers", "count", d(sim.transfers)),
      of("routing.refused_full", "count", d(sim.refused_full)),
      of("routing.offer_yield", "ratio",
         ratio(d(sim.transfers), d(sim.transfers) + d(sim.refused_full))),
      of("dtn.summary_exchanges", "count", d(sim.exchanges)),
      of("dtn.ad_bytes", "B", d(sim.ad_bytes)),
      of("dtn.fp_suppressed", "count", d(sim.fp_suppressed)),
      of("dtn.advertise_ns", "ns", codec.advertise_ns),
      of("dtn.claims_ns", "ns", codec.claims_ns),
      of("store.open_s", "s", store.open_s),
      of("store.records", "count", d(store.records)),
      of("store.bytes", "B", d(store.bytes)),
      of("store.find_ns", "ns", store.find_ns),
      of("store.put_ns", "ns", store.put_ns),
      of("store.hits", "count", d(traced.store.hits)),
      of("store.misses", "count", d(traced.store.misses)),
      of("store.appended", "count", d(traced.store.appended)),
      of("exp.sim_busy_s", "s", sim.sim_busy_s),
      of("exp.pool_util", "ratio",
         ratio(sim.sim_busy_s, threads * sim.pass_wall_s)),
      of("exp.overhead_s", "s",
         traced.wall_s - traced.sim.sim_busy_s / threads),
      of("exp.runs_simulated", "count", d(traced.runs - traced.store.hits)),
      of("exp.runs_cached", "count", d(traced.store.hits)),
      of("exp.figure_json_s", "s", traced.figure_json_s),
      of("bench.trace_overhead_pct", "%",
         (ratio(traced_wall, untraced_wall) - 1.0) * 100.0),
  };
}

int run(const Options& o) {
  Ops ops;
  Tracer tracer;
  const WorkDir work(o.work_dir /
                     (o.workload + "-" + std::to_string(::getpid())));
  const auto workload = make_workload(o, ops, work.path);
  Tracer* const trace_all = o.trace ? &tracer : nullptr;
  std::vector<double> setups;
  std::vector<Sample> plain, traced;
  std::vector<Metric> metrics;
  {
    Span workload_span(trace_all, o.workload, "bench");
    double setup_total = 0.0;
    do {
      const auto start = Clock::now();
      workload->setup(trace_all);
      setups.push_back(seconds_since(start));
      setup_total += setups.back();
    } while (!o.smoke && (setups.size() < kRepeats ||
                          (setup_total < kSetupSeconds &&
                           setups.size() < kMaxSetups)));
    if (!o.smoke) (void)workload->sample(nullptr, -1);  // warm-up, discarded

    // Samples until --seconds have passed; a traced run alternates
    // untraced and traced samples so both see the same machine state.
    const std::size_t min_each = o.smoke ? 1 : 2;
    const auto start = Clock::now();
    for (long id = 0;; ++id) {
      const bool trace_this = o.trace && id % 2 == 1;
      tracer.set_sample(id);
      Sample s = workload->sample(trace_this ? &tracer : nullptr, id);
      const double last = s.wall_s;
      (trace_this ? traced : plain).push_back(std::move(s));
      const bool enough = plain.size() >= min_each &&
                          (!o.trace || traced.size() >= min_each) &&
                          (o.smoke || plain.size() + traced.size() >= 3);
      if (enough && (o.smoke || seconds_since(start) + last > o.seconds)) {
        break;
      }
    }
    tracer.set_sample(-1);

    // Every sample of a run does the same work, so it splits into the same
    // steps unless an op failed; the fastest whole sample stands in then.
    const auto wall_of = [&ops](const std::vector<Sample>& of_samples) {
      const std::optional<double> quiet = quiet_wall(of_samples);
      ops.record(quiet.has_value(), "samples split into the same steps");
      return quiet.value_or(fastest(of_samples).wall_s);
    };
    const double plain_wall = wall_of(plain);
    if (o.trace) {
      const ProbeInputs inputs = workload->probe_inputs();
      const MobilityProbe mobility = probe_mobility(inputs, tracer);
      const CodecProbe codec = probe_codec(inputs, tracer);
      const StoreProbe store =
          probe_store(inputs, work.path / "probe", tracer);
      ops.record(codec.ok, "codec probe");
      ops.record(store.ok, "store probe");
      metrics = per_layer_metrics(*workload, fastest(traced), wall_of(traced),
                                  plain_wall, mobility, codec, store);
    } else {
      metrics = end_to_end_metrics(plain, plain_wall, setups);
    }
  }

  const std::size_t samples = plain.size() + traced.size();
  const bool correct = ops.failed == 0 && ops.attempted > 0;
  const std::string provenance = provenance_json(o, workload->threads());
  std::printf("[bench] %s seed=%llu samples=%zu steps=%zu setups=%zu "
              "threads=%u ops=%llu failed=%llu\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              samples, plain.front().steps_s.size(), setups.size(),
              workload->threads(),
              static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.failed));
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6g %-6s (median %.6g, q1 %.6g, q3 %.6g, "
                "n=%zu)\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.q.median, m.q.q1,
                m.q.q3, m.q.n);
  }

  fs::create_directories(o.out_dir);
  const std::string stem = o.workload + (o.trace ? ".layers" : "");
  {
    std::ofstream report(o.out_dir / (stem + ".json"));
    report << "{\"provenance\":" << provenance << ",\"samples\":" << samples
           << ",\"wall_samples\":[";
    for (std::size_t i = 0; i < plain.size(); ++i) {
      report << (i > 0 ? "," : "") << json_number(plain[i].wall_s);
    }
    report << "]"
           << ",\"correct\":" << (correct ? "true" : "false")
           << ",\"attempted\":" << ops.attempted
           << ",\"failed\":" << ops.failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      report << (i > 0 ? "," : "") << "\n\"" << m.name
             << "\":{\"value\":" << json_number(m.value) << ",\"unit\":\""
             << m.unit << "\",\"median\":" << json_number(m.q.median)
             << ",\"q1\":" << json_number(m.q.q1)
             << ",\"q3\":" << json_number(m.q.q3) << ",\"n\":" << m.q.n
             << "}";
    }
    report << "\n}}\n";
  }
  if (o.trace) {
    tracer.write(o.out_dir / (o.workload + ".trace.json"), provenance);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(),
                json_number(metrics[i].value).c_str(),
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 1;
  }
}
