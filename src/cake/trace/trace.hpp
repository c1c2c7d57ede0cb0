// Per-event trace pipeline: stage-by-stage filtering observability.
//
// The paper's central claim is that multi-stage filtering is *approximate
// at inner brokers but perfect end-to-end* (Propositions 1/2 in
// weaken/weaken.hpp): a weakened filter may fire spuriously, never miss.
// The aggregate LC/RLC/MR counters of metrics/ observe that claim only in
// bulk; this module observes it per event. Every sampled published event
// carries a non-zero trace id on the wire, and each node it crosses
// appends one `TraceSpan` into a per-node ring buffer:
//
//   publish            — the publisher stamps the id and the virtual clock
//   broker (stage k)   — weakened-match verdict, table size at match time,
//                        and the attributes the stage schema weakened away
//                        (the constraints this broker *could not* check)
//   subscriber (stage 0) — the exact end-to-end verdict; on a spurious
//                        arrival, the blame list: which weakened-away
//                        attribute's exact constraint actually failed
//
// A `Collector` (collector.hpp) reassembles spans into per-event journeys;
// the journeys double as a *test oracle*: "no false negatives" and
// "perfect end-to-end" are asserted per event from its trace rather than
// from delivery counts (oracle.hpp).
//
// Cost model: tracing is zero-cost when disabled (nodes hold a null
// `Tracer*`; untraced events carry trace id 0 and take one branch per
// hop), bounded when enabled (per-node rings evict the oldest span;
// evictions are counted, never silently lost).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cake/health/bounded_pen.hpp"
#include "cake/sim/sim.hpp"

namespace cake::trace {

/// Identifies one published event across every hop. 0 = untraced: the
/// publisher stamps a non-zero id only for sampled events, so every node
/// downstream decides "emit a span?" with one integer compare.
using TraceId = std::uint64_t;

/// Which pipeline stage emitted a span.
enum class SpanKind : std::uint8_t {
  Publish = 0,     ///< publisher edge: the event enters the pipeline
  Broker = 1,      ///< inner broker: weakened (approximate) match
  Subscriber = 2,  ///< stage 0: exact end-to-end verdict
  /// Link-layer annotation: a reliable link retransmitted this event's
  /// frame (node = the retransmitting sender, from = the destination).
  /// Not a filtering hop — journey path walks and stage rollups skip it;
  /// it exists so `cake_trace replay` shows where a journey's latency went.
  Retransmit = 3,
};

[[nodiscard]] std::string_view to_string(SpanKind kind) noexcept;

/// One hop of one traced event's journey.
struct TraceSpan {
  TraceId trace_id = 0;
  SpanKind kind = SpanKind::Publish;
  sim::NodeId node = sim::kNoNode;  ///< emitting node
  sim::NodeId from = sim::kNoNode;  ///< upstream sender (kNoNode at publish)
  std::size_t stage = 0;            ///< broker stage; 0 for publish/subscriber
  std::uint64_t filters_evaluated = 0;  ///< table size consulted at this hop
  bool matched = false;  ///< broker: forwarded; subscriber: exact delivery
  /// Broker spans: attributes the stage schema weakened away here (present
  /// in the event but uncheckable at this stage). Subscriber spans on a
  /// spurious arrival: blame list, most-general first — front() is the
  /// attribute charged with the false positive (see Collector::attribution).
  std::vector<std::string> weakened_attrs_hit;
  sim::Time ticks = 0;     ///< virtual clock at emission
  std::uint64_t seq = 0;   ///< global emission order (assigned by Tracer)

  [[nodiscard]] bool operator==(const TraceSpan&) const = default;
};

/// Knobs carried by `routing::OverlayConfig`.
struct TraceConfig {
  bool enabled = false;
  /// Trace 1 in `sample_period` published events (1 = every event). The
  /// decision is a pure function of the event id, made once at the
  /// publisher; brokers never re-decide.
  std::uint64_t sample_period = 1;
  /// Spans retained per node before the oldest are evicted; must be > 0.
  std::size_t ring_capacity = 4096;
};

/// A node's span ring: oldest spans are evicted once full (bounded memory)
/// and every eviction is counted, so the collector can tell "journey
/// truncated by the ring" from "journey truncated by the network".
using SpanRing = health::BoundedPen<TraceSpan>;

/// Tracer-wide counters.
struct TracerStats {
  std::uint64_t spans_emitted = 0;     ///< accepted into some ring
  std::uint64_t spans_overwritten = 0; ///< evicted by a full ring
  std::uint64_t events_sampled = 0;    ///< publish-edge sampling decisions: yes
  std::uint64_t events_skipped = 0;    ///< publish-edge sampling decisions: no
};

/// Owner of the per-node rings. One Tracer per overlay; nodes hold a raw
/// pointer (null when tracing is off, so the disabled path is a single
/// pointer test). The sequence counter is atomic so concurrent emitters
/// (e.g. a future multithreaded pipeline) order spans without a lock; ring
/// access itself follows the simulator's single-threaded discipline.
class Tracer {
public:
  explicit Tracer(TraceConfig config = {});

  [[nodiscard]] const TraceConfig& config() const noexcept { return config_; }

  /// Publish-edge sampling decision: pure in `event_id`, so replays with
  /// the same ids trace the same events.
  [[nodiscard]] bool sampled(std::uint64_t event_id) const noexcept;

  /// Counts the decision of `sampled` (publisher calls this exactly once
  /// per publish) and returns the trace id to stamp: non-zero when traced.
  [[nodiscard]] TraceId stamp(std::uint64_t event_id);

  /// Appends `span` to its node's ring; assigns `span.seq`.
  void emit(TraceSpan span);

  /// Every retained span, in emission (`seq`) order.
  [[nodiscard]] std::vector<TraceSpan> spans() const;

  [[nodiscard]] TracerStats stats() const noexcept;

private:
  TraceConfig config_;
  std::map<sim::NodeId, SpanRing> rings_;  // ordered: deterministic iteration
  std::atomic<std::uint64_t> next_seq_{0};
  std::uint64_t events_sampled_ = 0;
  std::uint64_t events_skipped_ = 0;
};

}  // namespace cake::trace
