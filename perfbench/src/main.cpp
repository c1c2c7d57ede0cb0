// cake_perfbench: runs one named workload with a seed and prints its
// metrics; the last line of stdout is one JSON object with the keys
// correct, attempted, failed and metrics.
//
//   cake_perfbench --workload paper-sim --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics, writing its span log under
// --out (default .bench_build). A run that has not finished by its
// deadline prints every attempted operation as failed and exits 3.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>

#include "cake/workload/types.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Every per-layer metric, in print order; a workload that does not
/// exercise a layer leaves its metric at 0.
const char* const kLayerMetrics[][2] = {
    {"event.image_ns", "ns"},
    {"event.image_allocs", "count"},
    {"wire.encode_ns", "ns"},
    {"wire.decode_ns", "ns"},
    {"wire.encode_allocs", "count"},
    {"wire.decode_allocs", "count"},
    {"wire.bytes_per_event", "B"},
    {"sim.messages_per_event", "count"},
    {"index.match_ns", "ns"},
    {"index.filters_max", "count"},
    {"index.add_ns", "ns"},
    {"index.remove_ns", "ns"},
    {"filter.exact_ns", "ns"},
    {"filter.covers_ns", "ns"},
    {"weaken.filter_ns", "ns"},
    {"routing.matching_rate", "ratio"},
    {"routing.broker_visits_per_event", "count"},
    {"routing.forwards_per_event", "count"},
    {"routing.join_hops_per_op", "count"},
    {"routing.control_per_op", "count"},
    {"link.acks_per_frame", "ratio"},
    {"link.retransmits", "count"},
    {"link.credit_stalls", "count"},
    {"sim.help_drained", "count"},
    {"sim.undeliverable", "count"},
    {"runtime.tasks_per_batch", "count"},
    {"runtime.max_batch", "count"},
    {"runtime.post_wait_p99_us", "us"},
    {"runtime.pipeline_blocks", "count"},
    {"index.shard_imbalance", "ratio"},
    {"alloc.per_event", "count"},
    {"gen.lag_p99_us", "us"},
    {"unattributed_share", "share"},
    {"trace.overhead_share", "share"},
    {"delivery_error_rate", "ratio"},
};

const char* const kEndToEnd[] = {"setup_s",        "events_per_s",
                                 "churn_ops_per_s", "deliver_p50_us",
                                 "deliver_p99_us", "peak_rss_mb"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "cake_perfbench: " << why
            << "\nusage: cake_perfbench --workload "
               "<paper-sim|reliable-sim|churn-sim|stock-threaded|"
               "bus-pipeline> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--out") {
        o.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0 && o.seconds <= 120)) usage("--seconds must be in (0, 120]");
  return o;
}

void print_result(const Result& r) {
  for (const std::string& line : r.notes) std::cout << line << '\n';
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(1, r.attempted)
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const Metric& m : r.metrics) {
    std::snprintf(number, sizeof number, "%.17g", m.value);
    std::cout << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
              << number << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

/// Ends the process if the run outlives its deadline (a hang must not
/// stall the caller): every attempted operation counts as failed.
class Watchdog {
public:
  explicit Watchdog(double seconds)
      : thread_([this, seconds] {
          std::unique_lock lock{mutex_};
          if (cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                           [this] { return done_; }))
            return;
          const std::uint64_t attempted =
              std::max<std::uint64_t>(1, g_attempted.load());
          std::cout << "deadline of " << seconds
                    << " s passed before the run reached quiescence\n"
                    << "{\"correct\": false, \"attempted\": " << attempted
                    << ", \"failed\": " << attempted << ", \"metrics\": {}}"
                    << std::endl;
          std::_Exit(3);
        }) {}
  ~Watchdog() {
    {
      const std::lock_guard lock{mutex_};
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Result (*run)(const Options&) = nullptr;
  if (options.workload == "paper-sim") run = run_paper_sim;
  if (options.workload == "reliable-sim") run = run_reliable_sim;
  if (options.workload == "churn-sim") run = run_churn_sim;
  if (options.workload == "stock-threaded") run = run_stock_threaded;
  if (options.workload == "bus-pipeline") run = run_bus_pipeline;
  if (run == nullptr) usage("unknown workload '" + options.workload + "'");
  cake::workload::ensure_types_registered();

  Result result;
  {
    // Set-up plus measurement take a few times --seconds; anything past
    // this is a hang. run.py waits 20 s longer before it stops the process.
    const Watchdog watchdog{std::min(150.0, 60.0 + 4.0 * options.seconds)};
    const std::int64_t t0 = now_ns();
    result = run(options);
    result.note("run wall time " + std::to_string(double(now_ns() - t0) / 1e9) +
                " s");
  }
  if (const std::string failure = self_check(); !failure.empty()) {
    result.correct = false;
    result.note("self-check failed: " + failure);
  }

  if (options.trace) {
    const auto totals = SpanLog::instance().totals();
    for (std::size_t k = 0; k < totals.size(); ++k) {
      if (totals[k].count == 0) continue;
      result.note("span " + std::string{span_name(SpanKind(k))} + ": " +
                  std::to_string(totals[k].count) + " spans, " +
                  std::to_string(double(totals[k].ns) / 1e6) + " ms");
    }
    const std::string path = options.out_dir + "/perfbench-spans-" +
                             options.workload + "-" +
                             std::to_string(options.seed) + ".txt";
    const std::size_t written = SpanLog::instance().write(path);
    result.note("wrote " + std::to_string(written) + " spans to " + path);
    // Every per-layer metric, in the fixed order; 0 where not exercised.
    std::vector<Metric> ordered;
    for (const auto& [name, unit] : kLayerMetrics) {
      Metric m{name, 0.0, unit};
      for (const Metric& got : result.metrics)
        if (got.name == name) m = got;
      ordered.push_back(m);
    }
    result.metrics = std::move(ordered);
  } else {
    for (const char* name : kEndToEnd) {
      const bool present =
          std::any_of(result.metrics.begin(), result.metrics.end(),
                      [&](const Metric& m) { return m.name == name; });
      if (!present) {
        std::cerr << "cake_perfbench: workload did not report " << name << '\n';
        return 1;
      }
    }
  }
  print_result(result);
  return 0;
}
