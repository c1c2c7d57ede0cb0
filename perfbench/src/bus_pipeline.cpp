// bus-pipeline: A16's multi-type in-process stream through the batched
// event pipeline.
//
// Shape: one LocalBus (Counting engine, 16 shards) holding 4 event classes
// × 200 price (or year) window filters; 2 producer threads stage events
// through EventPipeline::Producer onto a ThreadedTransport with nproc - 2
// lanes; closed batches drained to quiescence. It is the only workload
// that reaches runtime/pipeline, runtime/local_bus and index/sharded.
#include <algorithm>
#include <deque>
#include <thread>

#include "cake/metrics/metrics.hpp"
#include "cake/runtime/local_bus.hpp"
#include "cake/runtime/pipeline.hpp"
#include "cake/workload/types.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kShards = 16;
constexpr std::size_t kFiltersPerType = 200;
constexpr std::size_t kTypes = 4;
constexpr int kProducers = 2;
constexpr std::size_t kEventsPerProducer = 10'000;
/// setup_s is the median of samples taken before every kSetupEvery-th
/// batch, so they spread over the whole run; each sample is the mean of
/// kSetupsPerSample consecutive set-ups, since one set-up takes about a
/// millisecond, too short to time steadily alone.
constexpr std::size_t kSetupEvery = 10;
constexpr std::size_t kSetupsPerSample = 40;
constexpr std::size_t kReplaces = 1000;   // on the measured bus, up front
constexpr std::size_t kChurnBurst = 200;  // replaces per timed probe
constexpr std::int64_t kWindow = 10;  // filter window width, of 200 values
constexpr std::uint64_t kSpanSample = 16;
const char* const kTypeNames[] = {"Stock", "Auction", "CarAuction",
                                  "Publication"};

std::size_t lanes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 2 ? hw - 2 : 1;
}

/// A window filter on class `type`: price (year for Publication) in
/// [lo, lo + kWindow).
filter::ConjunctiveFilter window_filter(std::size_t type, std::int64_t lo) {
  if (type == 3) {
    return filter::FilterBuilder{"Publication"}
        .where("year", filter::Op::Ge, value::Value{1900 + lo})
        .where("year", filter::Op::Lt, value::Value{1900 + lo + kWindow})
        .build();
  }
  return filter::FilterBuilder{kTypeNames[type]}
      .where("price", filter::Op::Ge, value::Value{double(lo)})
      .where("price", filter::Op::Lt, value::Value{double(lo + kWindow)})
      .build();
}

runtime::EventPtr make_event(std::size_t type, std::int64_t v,
                             std::uint64_t seq) {
  switch (type) {
    case 0:
      return std::make_shared<const workload::Stock>(
          "SYM", double(v), static_cast<std::int64_t>(seq));
    case 1:
      return std::make_shared<const workload::Auction>("lot", double(v));
    case 2:
      return std::make_shared<const workload::CarAuction>(double(v), 5, 4);
    default:
      return std::make_shared<const workload::Publication>(1900 + v, "ICDCS",
                                                           "author", "title");
  }
}

class BusWorld {
public:
  explicit BusWorld(std::uint64_t seed)
      : rng_{seed ^ 0xB05ull},
        bus_{runtime::BusOptions{.engine = index::Engine::Counting,
                                 .shards = kShards}},
        transport_{runtime::ThreadedOptions{.workers = lanes()}},
        pipeline_{transport_, bus_} {
    for (std::size_t t = 0; t < kTypes; ++t) {
      for (std::size_t i = 0; i < kFiltersPerType; ++i) {
        const auto lo = static_cast<std::int64_t>(rng_.below(200 - kWindow));
        oracle_.add(subscribe(t, lo), window_filter(t, lo));
      }
    }
  }

  [[nodiscard]] std::size_t subscriptions() const noexcept {
    return subs_.size();
  }

  runtime::LocalBus& bus() noexcept { return bus_; }
  runtime::ThreadedTransport& transport() noexcept { return transport_; }
  runtime::EventPipeline& pipeline() noexcept { return pipeline_; }
  Oracle& oracle() noexcept { return oracle_; }

  /// Replaces `n` random filters of the measured bus with fresh windows of
  /// the same class; the event batches that follow check the result.
  void replace(std::size_t n, Measured& m) {
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t victim = 0;
      do {
        victim = rng_.below(subs_.size());
      } while (!subs_[victim].live);
      subs_[victim].live = false;
      const std::size_t type = subs_[victim].type;
      const auto lo = static_cast<std::int64_t>(rng_.below(200 - kWindow));
      {
        const ScopedSpan span{SpanKind::Unsubscribe, victim};
        bus_.unsubscribe(subs_[victim].token);
      }
      oracle_.remove(static_cast<std::uint32_t>(victim));
      const std::uint32_t fresh = subscribe(type, lo);
      oracle_.add(fresh, window_filter(type, lo));
    }
    g_attempted += n;
    m.replaces += n;
    m.subscribes += n;
  }

  /// Times `n` replaces on a fresh bus holding the measured bus's live
  /// filters. CountingIndex::remove leaves its entry in the scan lists, so
  /// timing replaces on the measured bus would add match work to every
  /// later batch and replace; a fresh bus per probe keeps both the same in
  /// every run, and probes between batches spread over the whole run.
  void churn_probe(std::size_t n, Measured& m) {
    runtime::LocalBus probe{runtime::BusOptions{
        .engine = index::Engine::Counting, .shards = kShards}};
    std::vector<runtime::LocalBus::Token> tokens;
    std::vector<std::size_t> types;
    for (const Sub& sub : subs_) {
      if (!sub.live) continue;
      tokens.push_back(probe.subscribe(window_filter(sub.type, sub.lo),
                                       [](const event::Event&) {}));
      types.push_back(sub.type);
    }
    std::vector<std::size_t> victims;
    std::vector<std::int64_t> lows;
    for (std::size_t i = 0; i < n; ++i) {
      victims.push_back(rng_.below(tokens.size()));
      lows.push_back(static_cast<std::int64_t>(rng_.below(200 - kWindow)));
    }
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t v = victims[i];
      probe.unsubscribe(tokens[v]);
      tokens[v] = probe.subscribe(window_filter(types[v], lows[i]),
                                  [](const event::Event&) {});
    }
    const double seconds = double(now_ns() - t0) / 1e9;
    g_attempted += n;
    m.churn_rates.push_back(double(n) / seconds);
    m.replaces += n;
    m.subscribes += n;
    m.churn_s += seconds;
  }

  /// Two producers publish one closed batch each; drained and checked.
  void event_batch(Measured& m) {
    const std::size_t n = kEventsPerProducer * kProducers;
    std::vector<runtime::EventPtr> events;
    std::unordered_map<std::uint64_t, std::uint64_t> seq_of;  // address → seq
    std::vector<std::pair<std::uint64_t, std::uint32_t>> owed;
    std::vector<std::size_t> per_sub(subs_.size(), 0);
    const std::uint64_t first = next_seq_;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t type = rng_.below(kTypes);
      const auto v = static_cast<std::int64_t>(rng_.below(200));
      const std::uint64_t seq = next_seq_++;
      events.push_back(make_event(type, v, seq));
      seq_of.emplace(reinterpret_cast<std::uintptr_t>(events.back().get()),
                     seq);
      for (std::uint32_t sub :
           oracle_.expected_memo(event::image_of(*events.back()), "volume")) {
        owed.emplace_back(seq, sub);
        ++per_sub[sub];
      }
    }
    g_attempted += owed.size();
    for (std::size_t s = 0; s < subs_.size(); ++s) {
      logs_[s].clear();
      logs_[s].reserve(per_sub[s] + 64);
    }
    std::vector<std::int64_t> published_at(n, 0);

    const bool spans = SpanLog::instance().enabled();
    const std::int64_t t0 = now_ns();
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        runtime::EventPipeline::Producer producer{pipeline_};
        for (std::size_t i = p; i < n; i += kProducers) {
          const std::int64_t at = now_ns();
          published_at[i] = at;
          producer.publish(events[i]);
          const auto address =
              reinterpret_cast<std::uintptr_t>(events[i].get());
          if (spans && sampled(address))
            SpanLog::instance().record(SpanKind::Publish, address, at,
                                       now_ns());
        }
      });
    }
    for (auto& t : producers) t.join();
    {
      const ScopedSpan span{SpanKind::Drain, first};
      pipeline_.drain();
    }
    const double seconds = double(now_ns() - t0) / 1e9;

    std::vector<Delivery> all;
    std::vector<double> latency_us;
    for (std::size_t s = 0; s < subs_.size(); ++s) {
      for (Delivery d : logs_[s]) {
        const auto it = seq_of.find(d.event);
        d.event = it == seq_of.end() ? ~0ull : it->second;
        if (d.event != ~0ull)
          latency_us.push_back(
              double(d.at_ns - published_at[d.event - first]) / 1e3);
        all.push_back(d);
      }
    }
    add_batch_latency(latency_us, m);
    const Check c = compare_deliveries(owed, all);
    m.check.expected += c.expected;
    m.check.missing += c.missing;
    m.check.unexpected += c.unexpected;
    m.batch_rates.push_back(double(n) / seconds);
    m.events += n;
    m.event_s += seconds;
  }

private:
  struct Sub {
    std::size_t type = 0;
    std::int64_t lo = 0;  // window start
    runtime::LocalBus::Token token = 0;
    bool live = false;
  };

  /// Spans of this workload carry the event's address as its id (the
  /// handler sees only the event object); one event in kSpanSample keeps
  /// its spans.
  static bool sampled(std::uintptr_t address) {
    return (address >> 6) % kSpanSample == 0;
  }

  /// Registers a window filter with the bus; the caller tells the oracle.
  std::uint32_t subscribe(std::size_t type, std::int64_t lo) {
    const auto id = static_cast<std::uint32_t>(subs_.size());
    logs_.emplace_back();
    // Each class's events run on one lane (its shard's), so a
    // subscription's log has a single writer. The deque keeps older logs
    // in place as new subscriptions append.
    std::vector<Delivery>* log = &logs_.back();
    const ScopedSpan span{SpanKind::Subscribe, id};
    const runtime::LocalBus::Token token = bus_.subscribe(
        window_filter(type, lo), [log, id](const event::Event& e) {
          const std::int64_t at = now_ns();
          const auto address = reinterpret_cast<std::uintptr_t>(&e);
          log->push_back(Delivery{address, id, at});
          if (SpanLog::instance().enabled() && sampled(address))
            SpanLog::instance().record(SpanKind::Handler, address, at,
                                       now_ns());
        });
    subs_.push_back(Sub{type, lo, token, true});
    return id;
  }

  util::Rng rng_;
  // Written by the lanes' handlers; declared first so they outlive the
  // transport that runs them.
  std::deque<std::vector<Delivery>> logs_;
  std::vector<Sub> subs_;
  Oracle oracle_;
  runtime::LocalBus bus_;
  runtime::ThreadedTransport transport_;
  runtime::EventPipeline pipeline_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace

Result run_bus_pipeline(const Options& options) {
  Result result;
  Measured m;
  workload::ensure_types_registered();
  // The measured bus, built on every CPU.
  const auto world = std::make_unique<BusWorld>(options.seed);

  // A fixed number of replaces on the measured bus before the batches,
  // which then check the replaced filters; replace timing comes from the
  // probes between batches.
  SpanLog::instance().enable(options.trace);
  world->replace(kReplaces, m);
  SpanLog::instance().enable(false);
  // Each timed set-up and probe runs on the next allowed CPU, so one run
  // averages over every CPU's speed; the CPU is released before the next
  // batch starts its producer threads, which would inherit it. A set-up's
  // lanes inherit its CPU while idle.
  CpuRotation probe_cpus;
  const auto time_setups = [&] {
    std::int64_t ns = 0;
    for (std::size_t k = 0; k < kSetupsPerSample; ++k) {
      probe_cpus.advance();
      const std::int64_t t0 = now_ns();
      const BusWorld timed{options.seed};
      ns += now_ns() - t0;
    }
    probe_cpus.release();
    m.setup_s.push_back(double(ns) / double(kSetupsPerSample) / 1e9);
  };
  const auto step = [&](Measured& into) {
    world->event_batch(into);
    probe_cpus.advance();
    world->churn_probe(kChurnBurst, into);
    probe_cpus.release();
  };

  if (!options.trace) {
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
    std::size_t steps = 0;
    do {
      if (steps++ % kSetupEvery == 0) time_setups();
      step(m);
    } while (now_ns() < end);
    put_verdict(m, result);
    note_latency(m, result);
    put_end_to_end(m, result);
    return result;
  }

  Measured plain, traced;
  const runtime::ThreadedStats stats0 = world->transport().stats();
  const runtime::PipelineStats pipe0 = world->pipeline().stats();
  const std::uint64_t allocs =
      alternate(options.seconds * 0.8, plain, traced, step);
  const runtime::ThreadedStats stats1 = world->transport().stats();
  const runtime::PipelineStats pipe1 = world->pipeline().stats();
  put_verdict(m, result);
  put_verdict(plain, result);
  put_verdict(traced, result);

  LayerInputs in;
  util::Rng draw{options.seed ^ 0x1A7E5ull};
  for (std::size_t i = 0; i < 2000; ++i) {
    runtime::EventPtr e = make_event(draw.below(kTypes),
                                     static_cast<std::int64_t>(draw.below(200)),
                                     i);
    in.images.push_back(event::image_of(*e));
    in.typed.push_back(std::move(e));
  }
  // One table per class, weighted by that class's share of the events.
  std::vector<std::vector<filter::ConjunctiveFilter>> tables(kTypes);
  for (std::uint32_t id = 0; id < world->subscriptions(); ++id) {
    const filter::ConjunctiveFilter* f = world->oracle().find(id);
    if (f == nullptr) continue;
    for (std::size_t t = 0; t < kTypes; ++t)
      if (f->type().name == kTypeNames[t]) tables[t].push_back(*f);
    in.exact.push_back(*f);
  }
  in.tables = std::move(tables);
  const double events = double(plain.events + traced.events);
  in.table_weights.assign(kTypes, events / double(kTypes));
  in.engine = index::Engine::Counting;
  const UnitCosts u = replay_layers(in);
  put_unit_costs(u, result);

  // Lane time of both sides of the alternation, against which each
  // publish is charged one image extraction and one match.
  Attribution a;
  a.available_ns = (plain.event_s + traced.event_s) * 1e9 * double(lanes());
  a.charge(events, u.image_ns + u.match_ns);
  std::size_t filters_max = 0;
  for (const auto& t : in.tables) filters_max = std::max(filters_max, t.size());
  result.put("index.filters_max", double(filters_max), "count");
  const double batches = double(stats1.batches - stats0.batches);
  result.put("runtime.tasks_per_batch",
             batches > 0 ? double(stats1.tasks - stats0.tasks) / batches : 0.0,
             "count");
  result.put("runtime.max_batch", double(stats1.max_batch), "count");
  result.put("runtime.pipeline_blocks", double(pipe1.blocks - pipe0.blocks),
             "count");
  result.put("index.shard_imbalance",
             metrics::shard_imbalance(world->bus().shard_stats()), "ratio");
  result.put("alloc.per_event",
             double(allocs) / std::max<double>(1.0, double(traced.events)),
             "count");
  put_attribution(a, median(plain.batch_rates) / median(traced.batch_rates) - 1,
                  result);
  return result;
}

}  // namespace perfbench
