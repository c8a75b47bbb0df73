#include "exp/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "exp/builders.hpp"
#include "exp/runner.hpp"
#include "exp/thread_pool.hpp"
#include "store/interrupt.hpp"
#include "store/run_store.hpp"

namespace epi::exp {
namespace {

/// Below this many jobs, phase-1 cache resolution stays serial: spinning up
/// the pool costs more than the lookups it would parallelise.
constexpr std::size_t kParallelResolveThreshold = 64;

/// Poll period while awaiting work units claimed by concurrent workers.
constexpr auto kAwaitPollInterval = std::chrono::milliseconds(50);

/// After this long without progress on peer-claimed units, say so once
/// (a hung-but-alive peer holds its claims until it dies or finishes).
constexpr auto kAwaitWarnAfter = std::chrono::seconds(60);

}  // namespace

std::vector<std::uint32_t> paper_loads() {
  std::vector<std::uint32_t> loads;
  for (std::uint32_t k = 5; k <= 50; k += 5) loads.push_back(k);
  return loads;
}

SweepResult run_sweep_on(const SweepSpec& spec,
                         const TraceProvider& provider) {
  SweepResult result;
  result.scenario_name = spec.scenario.name;
  result.protocol = spec.protocol;
  result.loads = spec.loads.empty() ? paper_loads() : spec.loads;
  result.runs.assign(result.loads.size(), {});
  for (auto& batch : result.runs) {
    batch.resize(spec.replications);
  }

  const std::size_t total = result.loads.size() * spec.replications;

  // Event tracing and stats collection bypass lookups — a served summary
  // would silently drop its events and carries no StatsProfile — but
  // completed runs are still appended for later cache-only reruns.
  const bool consult_cache = spec.store != nullptr &&
                             spec.trace_sink == nullptr &&
                             !spec.collect_stats;
  // One validated template for the whole sweep; per-job copies only vary the
  // (load, replication) coordinates, so validation cost is paid once. The
  // scenario() adoption charges the scenario's horizon — the paper declares
  // a run failed once it passes it (524,162 s Haggle / 600,000 s RWP) — and
  // sanctions the controlled-interval scenarios' sub-slot session gap.
  const RunSpec base = RunSpecBuilder()
                           .protocol(spec.protocol)
                           .scenario(spec.scenario)
                           .master_seed(spec.master_seed)
                           .buffer_capacity(spec.buffer_capacity)
                           .options(spec.options)
                           .trace_sink(spec.trace_sink)
                           .collect_stats(spec.collect_stats)
                           .build();
  std::vector<RunSpec> runs(total);
  std::vector<std::string> keys(spec.store != nullptr ? total : 0);
  std::vector<unsigned char> served(total, 0);

  // Phase 1: build every RunSpec and resolve the cache, so phase 2 only
  // ever sees genuinely missing runs. Key construction and index lookup
  // are pure per-job work, so large sweeps resolve across the pool; the
  // serial tail below only assembles the pending list in index order.
  const auto resolve = [&](std::size_t job) {
    const std::size_t load_idx = job / spec.replications;
    const auto replication =
        static_cast<std::uint32_t>(job % spec.replications);
    RunSpec& run = runs[job];
    run = base;
    run.load = result.loads[load_idx];
    run.replication = replication;
    if (spec.store != nullptr) {
      keys[job] = store_key(spec.scenario, run);
      if (consult_cache) {
        if (auto cached = spec.store->find(keys[job])) {
          result.runs[load_idx][replication] = *std::move(cached);
          served[job] = 1;
        }
      }
    }
  };
  if (consult_cache && total >= kParallelResolveThreshold) {
    parallel_for(total, spec.threads, resolve);
  } else {
    for (std::size_t job = 0; job < total; ++job) resolve(job);
  }
  std::vector<std::size_t> pending;
  pending.reserve(total);
  for (std::size_t job = 0; job < total; ++job) {
    if (served[job]) {
      if (spec.progress != nullptr) spec.progress->tick_cached();
    } else {
      pending.push_back(job);
    }
  }

  // Phase 2 (parallel): simulate the misses; append each to the store the
  // moment it completes, so a crash or interrupt never loses finished
  // work. A fully-warm sweep never reaches this point — and never pays
  // for the mobility trace.
  if (!pending.empty()) {
    const mobility::ContactTrace& trace = provider();

    const auto fill_cached = [&](std::size_t job,
                                 metrics::RunSummary&& summary) {
      const std::size_t load_idx = job / spec.replications;
      const auto replication =
          static_cast<std::uint32_t>(job % spec.replications);
      result.runs[load_idx][replication] = std::move(summary);
      if (spec.progress != nullptr) spec.progress->tick_cached();
    };
    const auto execute = [&](std::size_t job, unsigned worker) {
      const std::size_t load_idx = job / spec.replications;
      const auto replication =
          static_cast<std::uint32_t>(job % spec.replications);
      const RunSpec& run = runs[job];
      const double begin_us =
          spec.chrome != nullptr ? spec.chrome->now_us() : 0.0;
      result.runs[load_idx][replication] = run_single(run, trace);
      if (spec.store != nullptr) {
        spec.store->put(keys[job], result.runs[load_idx][replication]);
      }
      if (spec.chrome != nullptr) {
        spec.chrome->record_span(
            std::string(to_string(spec.protocol.kind)) + "/load=" +
                std::to_string(run.load) + "/rep=" +
                std::to_string(replication),
            worker, begin_us, spec.chrome->now_us());
      }
      if (spec.progress != nullptr) {
        spec.progress->tick(
            result.runs[load_idx][replication].perf.events_processed);
      }
    };

    if (!(spec.claim_units && consult_cache)) {
      parallel_for(pending.size(), spec.threads,
                   [&](std::size_t index, unsigned worker) {
        // SIGINT drain: in-flight runs complete, unstarted ones skipped.
        if (store::SigintDrain::interrupted()) return;
        execute(pending[index], worker);
      });
    } else {
      // Claimed dispatch: N concurrent invocations on one store partition
      // these units instead of duplicating them. Units a peer owns are
      // deferred and served from its appends below.
      std::mutex deferred_mutex;
      std::vector<std::size_t> deferred;
      parallel_for(pending.size(), spec.threads,
                   [&](std::size_t index, unsigned worker) {
        if (store::SigintDrain::interrupted()) return;
        const std::size_t job = pending[index];
        auto claim = spec.store->try_claim(keys[job]);
        if (!claim.has_value()) {
          const std::lock_guard lock(deferred_mutex);
          deferred.push_back(job);
          return;
        }
        // Exactly-once hinges on this re-check: the previous owner may
        // have completed the unit between our phase-1 miss and our claim.
        spec.store->refresh();
        if (auto done = spec.store->find(keys[job])) {
          fill_cached(job, *std::move(done));
          return;
        }
        execute(job, worker);
      });

      // Await peers: poll for their appends; adopt any unit whose owner
      // died (a dead worker's claim lock evaporates with it).
      std::sort(deferred.begin(), deferred.end());
      const auto wait_start = std::chrono::steady_clock::now();
      bool warned = false;
      while (!deferred.empty() && !store::SigintDrain::interrupted()) {
        spec.store->refresh();
        std::vector<std::size_t> still_foreign;
        for (const std::size_t job : deferred) {
          if (auto done = spec.store->find(keys[job])) {
            fill_cached(job, *std::move(done));
            continue;
          }
          auto claim = spec.store->try_claim(keys[job]);
          if (!claim.has_value()) {
            still_foreign.push_back(job);
            continue;
          }
          spec.store->refresh();  // owner may have finished just now
          if (auto done = spec.store->find(keys[job])) {
            fill_cached(job, *std::move(done));
          } else {
            execute(job, 0);
          }
        }
        deferred.swap(still_foreign);
        if (deferred.empty()) break;
        std::this_thread::sleep_for(kAwaitPollInterval);
        if (!warned &&
            std::chrono::steady_clock::now() - wait_start > kAwaitWarnAfter) {
          warned = true;
          std::cerr << "[sweep] still waiting on " << deferred.size()
                    << " work unit(s) claimed by other workers; a killed "
                       "worker's units are reclaimed automatically, a hung "
                       "one holds its claims until it exits\n";
        }
      }
    }
  }

  if (spec.store != nullptr) spec.store->flush();
  if (store::SigintDrain::interrupted()) {
    throw SweepInterrupted(
        "sweep interrupted: completed runs were persisted; rerun the same "
        "command to resume");
  }

  result.points.reserve(result.loads.size());
  for (const auto& batch : result.runs) {
    result.points.push_back(metrics::aggregate_runs(batch));
  }
  return result;
}

SweepResult run_sweep_on(const SweepSpec& spec,
                         const mobility::ContactTrace& trace) {
  return run_sweep_on(
      spec, TraceProvider([&trace]() -> const mobility::ContactTrace& {
        return trace;
      }));
}

SweepResult run_sweep(const SweepSpec& spec) {
  std::optional<mobility::ContactTrace> trace;
  return run_sweep_on(
      spec, TraceProvider([&]() -> const mobility::ContactTrace& {
        if (!trace.has_value()) {
          trace = build_contact_trace(spec.scenario, spec.master_seed);
        }
        return *trace;
      }));
}

std::vector<SweepResult> run_sweeps(
    const ScenarioSpec& scenario, const std::vector<ProtocolParams>& protocols,
    const SweepBase& base) {
  const mobility::ContactTrace trace =
      build_contact_trace(scenario, base.master_seed);
  std::vector<SweepResult> results;
  results.reserve(protocols.size());
  for (const auto& protocol : protocols) {
    SweepSpec spec(base);
    spec.scenario = scenario;
    spec.protocol = protocol;
    results.push_back(run_sweep_on(spec, trace));
  }
  return results;
}

}  // namespace epi::exp
