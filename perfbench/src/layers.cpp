// Layer replay of the traced run: pushes the workload's own inputs through
// each layer's public entry point and returns the unit cost per call. The
// workloads multiply these by the public count of calls to charge each
// layer its share of the traced run.
#include <algorithm>

#include "bench.hpp"
#include "cake/routing/protocol.hpp"
#include "cake/weaken/weaken.hpp"

namespace perfbench {
namespace {

/// Defeats dead-code elimination of replayed calls.
volatile std::size_t g_sink = 0;
void sink(std::size_t v) { g_sink = g_sink + v; }

constexpr std::int64_t kMinTimedNs = 20'000'000;  // per repetition
constexpr int kRepetitions = 3;

/// Nanoseconds per call of `pass` (which makes `calls` calls), the least of
/// kRepetitions timed repetitions of at least kMinTimedNs each.
template <class Pass>
double ns_per_call(std::size_t calls, Pass&& pass) {
  if (calls == 0) return 0.0;
  double best = 0.0;
  for (int r = 0; r < kRepetitions; ++r) {
    std::size_t passes = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t elapsed = 0;
    do {
      pass();
      ++passes;
      elapsed = now_ns() - t0;
    } while (elapsed < kMinTimedNs);
    const double per = double(elapsed) / double(passes * calls);
    best = r == 0 ? per : std::min(best, per);
  }
  return best;
}

/// Allocations per call of one pass.
template <class Pass>
double allocs_per_call(std::size_t calls, Pass&& pass) {
  if (calls == 0) return 0.0;
  set_alloc_counting(true);
  const std::uint64_t before = alloc_count();
  pass();
  const std::uint64_t allocs = alloc_count() - before;
  set_alloc_counting(false);
  return double(allocs) / double(calls);
}

}  // namespace

UnitCosts replay_layers(const LayerInputs& in) {
  UnitCosts u;

  // event: image extraction through reflection.
  const auto image_pass = [&] {
    for (const auto& e : in.typed)
      sink(event::image_of(*e).attributes().size());
  };
  u.image_ns = ns_per_call(in.typed.size(), image_pass);
  u.image_allocs = allocs_per_call(in.typed.size(), image_pass);

  // wire: event frame encode and decode.
  std::vector<sim::Network::Payload> frames;
  for (std::size_t i = 0; i < in.images.size(); ++i)
    frames.push_back(routing::encode_event_frame(in.images[i], 0, i + 1, 0));
  const auto encode_pass = [&] {
    for (std::size_t i = 0; i < in.images.size(); ++i)
      sink(routing::encode_event_frame(in.images[i], 0, i + 1, 0)
               .bytes()
               .size());
  };
  const auto decode_pass = [&] {
    for (const auto& frame : frames)
      sink(routing::decode(frame.bytes()).index());
  };
  u.encode_ns = ns_per_call(in.images.size(), encode_pass);
  u.encode_allocs = allocs_per_call(in.images.size(), encode_pass);
  u.decode_ns = ns_per_call(frames.size(), decode_pass);
  u.decode_allocs = allocs_per_call(frames.size(), decode_pass);

  // index: match over each rebuilt table, weighted by its match calls.
  double weighted = 0.0, weights = 0.0;
  std::vector<index::FilterId> out;
  index::MatchScratch scratch;
  for (std::size_t t = 0; t < in.tables.size(); ++t) {
    const double w = t < in.table_weights.size() ? in.table_weights[t] : 0.0;
    if (w <= 0.0 || in.tables[t].empty()) continue;
    const auto idx = index::make_index(in.engine);
    for (const auto& f : in.tables[t]) idx->add(f);
    const double ns = ns_per_call(in.images.size(), [&] {
      for (const auto& image : in.images) {
        idx->match(image, out, scratch);
        sink(out.size());
      }
    });
    weighted += ns * w;
    weights += w;
  }
  u.match_ns = weights > 0 ? weighted / weights : 0.0;

  // index: add and remove, over the largest table.
  const std::vector<filter::ConjunctiveFilter>* largest = nullptr;
  for (const auto& t : in.tables)
    if (largest == nullptr || t.size() > largest->size()) largest = &t;
  if (largest != nullptr && !largest->empty()) {
    double add_total = 0, remove_total = 0;
    for (int r = 0; r < kRepetitions; ++r) {
      const auto idx = index::make_index(in.engine);
      std::vector<index::FilterId> ids;
      const std::int64_t t0 = now_ns();
      for (const auto& f : *largest) ids.push_back(idx->add(f));
      const std::int64_t t1 = now_ns();
      for (const index::FilterId id : ids) idx->remove(id);
      const std::int64_t t2 = now_ns();
      const double add = double(t1 - t0) / double(largest->size());
      const double remove = double(t2 - t1) / double(largest->size());
      add_total = r == 0 ? add : std::min(add_total, add);
      remove_total = r == 0 ? remove : std::min(remove_total, remove);
    }
    u.add_ns = add_total;
    u.remove_ns = remove_total;
  }

  // filter: exact matching at subscribers, and covering between filters.
  const std::size_t exact_n = std::min<std::size_t>(in.exact.size(), 512);
  const std::size_t image_n = std::min<std::size_t>(in.images.size(), 256);
  u.exact_ns = ns_per_call(exact_n * image_n, [&] {
    for (std::size_t f = 0; f < exact_n; ++f)
      for (std::size_t i = 0; i < image_n; ++i)
        sink(in.exact[f].matches(in.images[i]));
  });
  const std::size_t cover_n = std::min<std::size_t>(in.exact.size(), 128);
  u.covers_ns = ns_per_call(cover_n * cover_n, [&] {
    for (std::size_t a = 0; a < cover_n; ++a)
      for (std::size_t b = 0; b < cover_n; ++b)
        sink(filter::covers(in.exact[a], in.exact[b]));
  });

  // weaken: the stage forms of every subscription.
  if (in.schema != nullptr && in.stages > 0) {
    u.weaken_ns = ns_per_call(exact_n * in.stages, [&] {
      for (std::size_t f = 0; f < exact_n; ++f)
        for (std::size_t s = 1; s <= in.stages; ++s)
          sink(weaken::weaken_filter(in.exact[f], *in.schema, s)
                   .constraints()
                   .size());
    });
  }
  return u;
}

}  // namespace perfbench
