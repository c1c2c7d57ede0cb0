#include "cake/trace/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace cake::trace {

std::string_view to_string(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::Publish: return "publish";
    case SpanKind::Broker: return "broker";
    case SpanKind::Subscriber: return "subscriber";
    case SpanKind::Retransmit: return "retransmit";
  }
  return "?";
}

Tracer::Tracer(TraceConfig config) : config_(config) {
  if (config_.sample_period == 0) config_.sample_period = 1;
  if (config_.ring_capacity == 0)
    throw std::invalid_argument{"Tracer: ring_capacity must be positive"};
}

bool Tracer::sampled(std::uint64_t event_id) const noexcept {
  if (config_.sample_period <= 1) return true;
  // SplitMix64 finalizer: a cheap, well-mixed hash so "every Nth" is not
  // correlated with publisher id or sequence-number parity.
  std::uint64_t x = event_id + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x % config_.sample_period == 0;
}

TraceId Tracer::stamp(std::uint64_t event_id) {
  if (!sampled(event_id)) {
    ++events_skipped_;
    return 0;
  }
  ++events_sampled_;
  // 0 is the "untraced" sentinel; an event id of 0 still gets a valid id.
  return event_id != 0 ? event_id : 1;
}

void Tracer::emit(TraceSpan span) {
  span.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  rings_.try_emplace(span.node, config_.ring_capacity)
      .first->second.push(std::move(span));
}

std::vector<TraceSpan> Tracer::spans() const {
  std::vector<TraceSpan> all;
  for (const auto& [node, ring] : rings_)
    all.insert(all.end(), ring.begin(), ring.end());
  std::sort(all.begin(), all.end(),
            [](const TraceSpan& a, const TraceSpan& b) { return a.seq < b.seq; });
  return all;
}

TracerStats Tracer::stats() const noexcept {
  TracerStats s;
  for (const auto& [node, ring] : rings_) {
    s.spans_emitted += ring.size() + ring.evicted();
    s.spans_overwritten += ring.evicted();
  }
  s.events_sampled = events_sampled_;
  s.events_skipped = events_skipped_;
  return s;
}

}  // namespace cake::trace
