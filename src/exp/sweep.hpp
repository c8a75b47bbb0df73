// Sweep: the paper's experiment loop — load k from 5 to 50 in steps of 5,
// ten replications per point, averaged — parallelised over a thread pool.
// Determinism: every replication's RNG stream derives from (master_seed,
// load, replication), so results are identical for any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/error.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "metrics/summary.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/progress.hpp"
#include "obs/trace_sink.hpp"

namespace epi::store {
class RunStore;
}

namespace epi::exp {

/// Raised by run_sweep_on after a SIGINT drain (see store::SigintDrain):
/// every in-flight run has finished and been persisted to the run store;
/// runs that had not started were skipped and no aggregates were computed.
/// Rerunning the same command resumes from the store.
class SweepInterrupted : public Error {
 public:
  using Error::Error;
};

/// Load axis used by every figure: k in {5, 10, ..., 50}.
[[nodiscard]] std::vector<std::uint32_t> paper_loads();

/// What a sweep and a figure share, declared once: the replication plan,
/// the protocol option block every run applies, and the non-owning
/// observability and persistence hooks. FigureOptions and SweepSpec both
/// derive from it, so a figure hands all of it to each sweep at once
/// (`SweepSpec spec(options)`) and no option can reach one layer but not
/// the next.
struct SweepBase {
  std::uint64_t master_seed = 42;
  std::uint32_t replications = 10;  // paper SIV
  unsigned threads = 0;             ///< 0 = hardware concurrency

  /// Eviction policy, per-node capacities, fault plan and summary codec,
  /// applied to every run (see ProtocolOptions). The defaults are the
  /// paper's behavior and keep every store key bit-identical to older builds.
  ProtocolOptions options;

  // --- observability (all non-owning, all optional) -------------------------
  obs::TraceSink* trace_sink = nullptr;      ///< per-event records
  obs::ChromeTraceWriter* chrome = nullptr;  ///< one span per replication

  /// Attach a per-run StatsProfile to every RunSummary (see
  /// RunSpec::collect_stats). Like `trace_sink`, enabling this bypasses
  /// cache lookups: a cached summary carries no profile.
  bool collect_stats = false;

  /// Persistent result cache (non-owning, optional). When set, cached runs
  /// are served without simulation and fresh runs are appended as they
  /// complete. Cached and fresh summaries are bit-identical, so mixing them
  /// is invisible in every figure. Exception: while `trace_sink` is set or
  /// `collect_stats` is on the cache is not consulted (event traces and
  /// stats profiles require the events to happen), though fresh results are
  /// still appended.
  store::RunStore* store = nullptr;

  /// Partition pending runs with store-level work-unit claims, so N
  /// concurrent invocations of run_sweep_on against one store directory
  /// each execute a disjoint subset of the missing runs and serve the rest
  /// from the peers' appends as they land (see store/claim.hpp). Requires
  /// `store`; ignored when the cache is bypassed (`trace_sink` /
  /// `collect_stats`), because a peer's record cannot stand in for a run
  /// whose events or profile this invocation needs locally. Results are
  /// bit-identical with or without claims, for any worker count.
  bool claim_units = false;
};

struct SweepSpec : SweepBase {
  /// Starts from a figure's (or any caller's) shared block.
  explicit SweepSpec(const SweepBase& base = {}) : SweepBase(base) {}

  ScenarioSpec scenario;
  ProtocolParams protocol;
  std::vector<std::uint32_t> loads;  // empty -> paper_loads()
  std::uint32_t buffer_capacity = defaults::kBufferCapacity;
  obs::ProgressReporter* progress = nullptr;  ///< ticked per replication
};

struct SweepResult {
  std::string scenario_name;
  ProtocolParams protocol;
  std::vector<std::uint32_t> loads;
  /// points[i] aggregates the replications of loads[i].
  std::vector<metrics::LoadPoint> points;
  /// runs[i] holds the raw replications of loads[i].
  std::vector<std::vector<metrics::RunSummary>> runs;
};

/// Runs the full sweep (trace generated once, replications in parallel).
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec);

/// Same, over an already-built contact trace (callers that share one trace
/// across protocols — every figure — use this to avoid regenerating it).
[[nodiscard]] SweepResult run_sweep_on(const SweepSpec& spec,
                                       const mobility::ContactTrace& trace);

/// Produces the sweep's contact trace on first use. The returned reference
/// must stay valid until the sweep finishes; the provider is invoked at
/// most once, and — the point — not at all when every run is served from
/// the store, which makes fully-warm figure regeneration skip mobility
/// generation entirely.
using TraceProvider = std::function<const mobility::ContactTrace&()>;

/// Same sweep, but the trace is built lazily via `provider` only if at
/// least one run actually needs simulating (store keys derive from the
/// scenario spec, never from trace contents).
[[nodiscard]] SweepResult run_sweep_on(const SweepSpec& spec,
                                       const TraceProvider& provider);

/// Convenience: run the same scenario/loads for several protocols (the shape
/// of every multi-series figure in the paper). The mobility trace is built
/// once and shared.
[[nodiscard]] std::vector<SweepResult> run_sweeps(
    const ScenarioSpec& scenario, const std::vector<ProtocolParams>& protocols,
    const SweepBase& base = {});

}  // namespace epi::exp
