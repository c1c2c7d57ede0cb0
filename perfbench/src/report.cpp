// Turns what a workload measured into the metrics a run prints.
#include <algorithm>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

std::atomic<std::uint64_t> g_attempted{0};

namespace {

template <class... Args>
std::string fmt(const char* format, Args... args) {
  char line[256];
  std::snprintf(line, sizeof line, format, args...);
  return line;
}

}  // namespace

void put_verdict(const Measured& m, Result& result) {
  const std::uint64_t errors = m.check.missing + m.check.unexpected;
  result.attempted += m.check.expected + m.replaces;
  result.failed += errors + m.ops_failed;
  result.deliveries_owed += m.check.expected;
  result.delivery_errors += errors;
  if (errors + m.ops_failed != 0) result.correct = false;
  result.note(fmt("oracle: %.0f deliveries owed, %.0f missing, %.0f unexpected, "
                  "%.0f of the replaces unfinished",
                  double(m.check.expected), double(m.check.missing),
                  double(m.check.unexpected), double(m.ops_failed)));
}

void add_batch_latency(std::vector<double>& sample_us, Measured& m) {
  std::sort(sample_us.begin(), sample_us.end());
  m.batch_p50_us.push_back(percentile(sample_us, 0.50));
  m.batch_p99_us.push_back(percentile(sample_us, 0.99));
  m.batch_p999_us.push_back(percentile(sample_us, 0.999));
  m.latency_samples += sample_us.size();
}

void note_latency(const Measured& m, Result& result) {
  result.note(fmt("deliver latency: %.0f samples in %.0f batches; medians of "
                  "the batch p50 %.3f us, p99 %.3f us, p99.9 %.3f us",
                  double(m.latency_samples), double(m.batch_p50_us.size()),
                  median(m.batch_p50_us), median(m.batch_p99_us),
                  median(m.batch_p999_us)));
}

void put_end_to_end(const Measured& m, Result& result) {
  const double owed = double(std::max<std::uint64_t>(1, result.deliveries_owed));
  result.note(fmt("delivery_error_rate %.6g (%.0f of %.0f)",
                  double(result.delivery_errors) / owed,
                  double(result.delivery_errors), owed));
  result.note(fmt("batches %.0f, churn samples %.0f, events %.0f, replaces %.0f",
                  double(m.batch_rates.size()), double(m.churn_rates.size()),
                  double(m.events), double(m.replaces)));
  if (!m.batch_rates.empty()) {
    result.note(fmt("batch events/s: min %.0f, median %.0f, max %.0f",
                    *std::min_element(m.batch_rates.begin(), m.batch_rates.end()),
                    median(m.batch_rates),
                    *std::max_element(m.batch_rates.begin(), m.batch_rates.end())));
  }
  result.put("setup_s", median(m.setup_s), "s");
  result.put("events_per_s", median(m.batch_rates), "1/s");
  result.put("churn_ops_per_s", median(m.churn_rates), "1/s");
  result.put("deliver_p50_us", median(m.batch_p50_us), "us");
  result.put("deliver_p99_us", median(m.batch_p99_us), "us");
  result.put("peak_rss_mb", peak_rss_mb(), "MB");
}

void put_unit_costs(const UnitCosts& u, Result& r) {
  r.put("event.image_ns", u.image_ns, "ns");
  r.put("event.image_allocs", u.image_allocs, "count");
  r.put("wire.encode_ns", u.encode_ns, "ns");
  r.put("wire.decode_ns", u.decode_ns, "ns");
  r.put("wire.encode_allocs", u.encode_allocs, "count");
  r.put("wire.decode_allocs", u.decode_allocs, "count");
  r.put("index.match_ns", u.match_ns, "ns");
  r.put("index.add_ns", u.add_ns, "ns");
  r.put("index.remove_ns", u.remove_ns, "ns");
  r.put("filter.exact_ns", u.exact_ns, "ns");
  r.put("filter.covers_ns", u.covers_ns, "ns");
  r.put("weaken.filter_ns", u.weaken_ns, "ns");
}

void put_attribution(const Attribution& a, double overhead, Result& r) {
  r.put("unattributed_share",
        a.available_ns > 0 ? 1.0 - a.attributed_ns / a.available_ns : 0.0,
        "share");
  r.put("trace.overhead_share", overhead, "share");
  const double owed = double(std::max<std::uint64_t>(1, r.deliveries_owed));
  r.put("delivery_error_rate", double(r.delivery_errors) / owed, "ratio");
}

}  // namespace perfbench
