// Shared pieces of the CAKE benchmark: run options, the result record the
// run prints, allocation counting, percentiles, the delivery oracle,
// the span log of the traced run and the layer replay.
//
// The benchmark drives CAKE only from outside: Overlay / PublisherNode /
// SubscriberNode, LocalBus / EventPipeline, and the public functions and
// counters of each module. Nothing here reaches into a node's internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cake/filter/filter.hpp"
#include "cake/index/index.hpp"
#include "cake/weaken/schema.hpp"

namespace perfbench {

using namespace cake;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span log into.
  std::string out_dir = ".bench_build";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `attempted` counts expected deliveries checked
/// against the oracle plus subscription operations; `failed` counts
/// missing and unexpected deliveries plus operations that did not finish.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Oracle totals behind delivery_error_rate.
  std::uint64_t deliveries_owed = 0;
  std::uint64_t delivery_errors = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result line.
  std::vector<std::string> notes;

  void put(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

// ---- allocation counting (counting operator new in this binary) --------

/// Counting is off by default so untraced runs pay one relaxed load per
/// allocation and share no written cache line between threads.
void set_alloc_counting(bool on) noexcept;
[[nodiscard]] std::uint64_t alloc_count() noexcept;

// ---- statistics ----------------------------------------------------------

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least q of the sample at or below it. 0 for an empty one.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Moves the calling thread to the next CPU of its allowed set on each
/// advance(), restoring the original set on release() and on destruction.
/// Threads started while it holds a CPU inherit that CPU. A single-threaded
/// workload left on one CPU of a shared host reads that CPU's co-tenant
/// load for the whole run; rotating it per batch averages over every CPU
/// the process may use.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void advance();
  void release();

private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// ---- delivery oracle -----------------------------------------------------

/// Expected recipients of an event, computed from the exact filters of the
/// subscriptions active at publish time. Subscriptions are bucketed by the
/// set of attributes they constrain with equality and by those operands,
/// so one event costs one hash lookup per distinct bucket signature; every
/// candidate is then confirmed with ConjunctiveFilter::matches. Filters
/// with no equality constraint land in the empty signature and are always
/// candidates, so the pre-filter never drops a match.
class Oracle {
public:
  void add(std::uint32_t sub, filter::ConjunctiveFilter exact);
  void remove(std::uint32_t sub);
  /// Subscriptions whose exact filter matches `image`, ascending.
  void expected(const event::EventImage& image,
                std::vector<std::uint32_t>& out) const;
  /// expected() memoized on the image minus its `id_attribute`: events
  /// that differ only in that attribute (which no subscription constrains)
  /// owe the same recipients. The memo is dropped on add()/remove().
  const std::vector<std::uint32_t>& expected_memo(
      const event::EventImage& image, std::string_view id_attribute);
  [[nodiscard]] std::size_t active() const noexcept { return active_; }
  [[nodiscard]] const filter::ConjunctiveFilter* find(std::uint32_t sub) const;

private:
  using Key = std::vector<value::Value>;
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };
  struct Group {
    std::vector<std::string> attributes;  // sorted signature
    std::unordered_map<Key, std::vector<std::uint32_t>, KeyHash> buckets;
  };
  struct Entry {
    filter::ConjunctiveFilter exact;
    std::size_t group = 0;
    Key key;
    bool live = false;
  };

  std::vector<Group> groups_;
  std::vector<Entry> entries_;  // by subscription id
  std::unordered_map<Key, std::vector<std::uint32_t>, KeyHash> memo_;
  std::size_t active_ = 0;
};

/// One handler invocation: event id (the workload's own sequence number),
/// subscription id, and the wall-clock instant the handler was entered.
struct Delivery {
  std::uint64_t event = 0;
  std::uint32_t sub = 0;
  std::int64_t at_ns = 0;
};

struct Check {
  std::uint64_t expected = 0;
  std::uint64_t missing = 0;
  std::uint64_t unexpected = 0;  ///< duplicates and deliveries not owed
};

/// Multiset comparison of (event, subscription) pairs. Sorts both inputs.
[[nodiscard]] Check compare_deliveries(
    std::vector<std::pair<std::uint64_t, std::uint32_t>>& expected,
    std::vector<Delivery>& observed);

/// Self-check of the oracle comparison and the percentile helper: an
/// injected missing delivery and an injected duplicate must both be
/// caught, and percentiles must equal a hand-computed sample. Returns an
/// empty string on success, else what failed.
[[nodiscard]] std::string self_check();

// ---- traced run: spans ---------------------------------------------------

enum class SpanKind : std::uint8_t {
  Publish,
  Run,
  Drain,
  Post,
  Subscribe,
  Unsubscribe,
  Handler,
  LaneStart,
};
[[nodiscard]] const char* span_name(SpanKind kind) noexcept;

/// In-memory span log. Each recording thread appends to its own buffer;
/// write() merges them at exit. Off (and free) outside the traced run.
class SpanLog {
public:
  static SpanLog& instance();

  void enable(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void record(SpanKind kind, std::uint64_t id, std::int64_t start,
              std::int64_t end);
  /// Total recorded spans and nanoseconds per kind.
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t ns = 0;
  };
  [[nodiscard]] std::vector<Totals> totals() const;
  /// Writes every span as "kind id start_ns end_ns" lines; returns the
  /// number written.
  std::size_t write(const std::string& path) const;

private:
  struct Span {
    SpanKind kind;
    std::uint64_t id;
    std::int64_t start;
    std::int64_t end;
  };
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer& local();

  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span around one public call (no-op when the log is off).
class ScopedSpan {
public:
  ScopedSpan(SpanKind kind, std::uint64_t id) noexcept
      : kind_(kind), id_(id),
        start_(SpanLog::instance().enabled() ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (start_ != 0) SpanLog::instance().record(kind_, id_, start_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  SpanKind kind_;
  std::uint64_t id_;
  std::int64_t start_;
};

// ---- traced run: layer replay ---------------------------------------------

/// The workload's own inputs, pushed through each layer entry point to get
/// unit costs. Empty vectors skip the layer (its cost reads 0).
struct LayerInputs {
  std::vector<event::EventImage> images;          ///< published images
  std::vector<std::shared_ptr<const event::Event>> typed;  ///< image_of input
  std::vector<std::vector<filter::ConjunctiveFilter>> tables;  ///< per broker
  std::vector<double> table_weights;  ///< match calls per table
  index::Engine engine = index::Engine::Naive;
  std::vector<filter::ConjunctiveFilter> exact;   ///< subscriptions
  const weaken::StageSchema* schema = nullptr;
  std::size_t stages = 0;
};

/// Unit cost per call, in ns (and allocations per call).
struct UnitCosts {
  double image_ns = 0, image_allocs = 0;
  double encode_ns = 0, encode_allocs = 0;
  double decode_ns = 0, decode_allocs = 0;
  double match_ns = 0;  ///< weighted by table_weights
  double add_ns = 0, remove_ns = 0;
  double exact_ns = 0;
  double covers_ns = 0;
  double weaken_ns = 0;
};

[[nodiscard]] UnitCosts replay_layers(const LayerInputs& inputs);

}  // namespace perfbench
