// The five workloads. Each builds its system from the seed, measures for
// the given seconds, checks every delivery against the oracle and returns
// the end-to-end metrics (untraced) or the per-layer metrics (traced).
#pragma once

#include <atomic>

#include "bench.hpp"

namespace perfbench {

/// Operations attempted so far; the watchdog reports them all as failed
/// when a run misses its deadline.
extern std::atomic<std::uint64_t> g_attempted;

Result run_paper_sim(const Options& options);
Result run_reliable_sim(const Options& options);
Result run_churn_sim(const Options& options);
Result run_stock_threaded(const Options& options);
Result run_bus_pipeline(const Options& options);

/// Everything one run measured, before it is turned into metrics.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> batch_rates;   ///< events/s of each event batch
  std::vector<double> churn_rates;   ///< replaces/s of each churn burst
  /// Delivery latency percentiles of each batch (each open-loop window).
  std::vector<double> batch_p50_us, batch_p99_us, batch_p999_us;
  std::uint64_t latency_samples = 0;
  std::uint64_t events = 0;          ///< events published while measured
  std::uint64_t replaces = 0;
  std::uint64_t subscribes = 0;      ///< subscribe calls while measured
  double event_s = 0;                ///< wall time of the event batches
  double churn_s = 0;                ///< wall time of the churn bursts
  Check check;                       ///< summed over every batch
  std::uint64_t ops_failed = 0;      ///< replaces that did not complete
};

/// Adds the end-to-end metrics every workload reports.
void put_end_to_end(const Measured& m, Result& result);
/// Folds the oracle's verdict into `result` (attempted/failed/correct).
void put_verdict(const Measured& m, Result& result);
/// Records the percentiles of one batch's delivery latencies (sorts them).
/// Keeping only per-batch figures holds the benchmark's own memory flat
/// however many batches a run measures.
void add_batch_latency(std::vector<double>& sample_us, Measured& m);
/// Notes the latency sample size and the per-batch tail.
void note_latency(const Measured& m, Result& result);

/// The traced run's measured phase: runs `step(into)` alternately untraced
/// (into `plain`) and traced (into `traced`: spans on, allocations
/// counted) until `seconds` pass, so drift in the host's speed falls on
/// both sides alike. Returns the allocations of the traced steps.
template <class Step>
std::uint64_t alternate(double seconds, Measured& plain, Measured& traced,
                        Step&& step) {
  std::uint64_t allocs = 0;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    step(plain);
    SpanLog::instance().enable(true);
    set_alloc_counting(true);
    const std::uint64_t before = alloc_count();
    step(traced);
    allocs += alloc_count() - before;
    set_alloc_counting(false);
    SpanLog::instance().enable(false);
  } while (now_ns() < end);
  return allocs;
}

/// Layer-attribution bookkeeping of a traced run: the time each layer is
/// charged (unit cost × public count of calls), against the lane time the
/// traced phase had.
struct Attribution {
  double attributed_ns = 0;
  double available_ns = 0;
  void charge(double calls, double unit_ns) { attributed_ns += calls * unit_ns; }
};

/// Adds the layer metrics every workload shares: the unit costs, the
/// unattributed share and the tracing overhead. Metrics a workload does
/// not exercise are reported by it as 0.
void put_unit_costs(const UnitCosts& costs, Result& result);
/// `overhead` is the traced steps' slowdown against the untraced ones.
void put_attribution(const Attribution& a, double overhead, Result& result);

}  // namespace perfbench
