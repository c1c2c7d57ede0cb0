// stock-threaded: A19's overlay shape on ThreadedTransport, driven by an
// open-loop generator.
//
// Shape: brokers {1, 2, 4}; 4 publishers; 8 Stock subscribers, two per
// symbol, one taking prices below 50 and one taking every price; nproc - 1
// lanes. One generator thread posts each publish to its publisher's lane
// on a fixed schedule of 100 000 events/s whatever the system does, and
// each delivery is timed from the event's due time, so a stall charges
// every event queued behind it. The tables are tiny: the time goes to the
// runtime handoff, wake-ups, fabric queueing and the encode/decode path.
//
// Known defect (ROADMAP item 1): when a fabric ring fills, the sending
// lane help-drains its inbox and can lose deliveries. The rate is not
// chosen to avoid it; every lost delivery counts as a failure and
// sim.help_drained is reported.
#include <algorithm>
#include <thread>

#include "cake/routing/overlay.hpp"
#include "cake/workload/generators.hpp"
#include "cake/workload/types.hpp"
#include "overlay.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr double kRate = 100'000.0;  // offered events per second
constexpr std::size_t kPublishers = 4;
constexpr std::size_t kSubscribers = 8;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kBrokerStages = 3;
constexpr std::size_t kChurnRounds = 8;  // each replaces all 8 filters
constexpr std::uint64_t kSpanSample = 16;
constexpr double kTracedWindow = 0.5;  // seconds per alternated window
const char* const kSymbols[] = {"AAA", "BBB", "CCC", "DDD"};

std::size_t lanes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

/// The filter of subscriber `s`: its symbol, and a price bound that is
/// tight for the first four subscribers and takes every price for the rest.
filter::ConjunctiveFilter stock_filter(std::size_t s, double bound) {
  return filter::FilterBuilder{"Stock"}
      .where("symbol", filter::Op::Eq, value::Value{kSymbols[s % 4]})
      .where("price", filter::Op::Lt, value::Value{bound})
      .build();
}

class StockWorld {
public:
  explicit StockWorld(std::uint64_t seed) : rng_{seed ^ 0x570C4ull} {
    routing::OverlayConfig config;
    config.stage_counts = {1, 2, 4};
    config.backend = routing::OverlayBackend::Threaded;
    config.threaded.workers = lanes();
    config.seed = seed;
    // Real-clock run: push every periodic deadline past the run so the
    // wall clock sees only the data plane (as A19 does).
    config.broker.ttl = 3'600'000'000;
    config.broker.renew_interval = 1'800'000'000;
    config.broker.reap_interval = 1'800'000'000;
    config.subscriber.renew_interval = 1'800'000'000;
    config.subscriber.auto_renew = false;
    config.link.heartbeat_interval = 1'800'000'000;
    overlay_ = std::make_unique<routing::Overlay>(config);

    for (std::size_t p = 0; p < kPublishers; ++p) {
      routing::PublisherNode& pub = overlay_->add_publisher();
      overlay_->run_on(pub.id(), [&pub] {
        pub.advertise(workload::StockGenerator::schema(kBrokerStages + 1));
      });
      publishers_.push_back(&pub);
    }
    overlay_->run();
    logs_.resize(kSubscribers);
    for (std::size_t s = 0; s < kSubscribers; ++s) {
      nodes_.push_back(&overlay_->add_subscriber());
      tokens_.push_back(0);
      subscribe(s, stock_filter(s, s < 4 ? 50.0 : 101.0));
    }
    overlay_->run();
  }

  routing::Overlay& overlay() noexcept { return *overlay_; }
  Oracle& oracle() noexcept { return oracle_; }

  /// Replaces every subscriber's filter `rounds` times (new price bound,
  /// same symbol), each replace on the subscriber's lane, each round
  /// drained to quiescence.
  void churn(std::size_t rounds, Measured& m) {
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::int64_t t0 = now_ns();
      for (std::size_t s = 0; s < kSubscribers; ++s) {
        const double bound = double(1 + rng_.below(100));
        overlay_->run_on(nodes_[s]->id(), [this, s] {
          const ScopedSpan span{SpanKind::Unsubscribe, s};
          nodes_[s]->unsubscribe(tokens_[s]);
        });
        oracle_.remove(static_cast<std::uint32_t>(s));
        subscribe(s, stock_filter(s, bound));
      }
      {
        const ScopedSpan span{SpanKind::Drain, 0};
        overlay_->run();
      }
      const double seconds = double(now_ns() - t0) / 1e9;
      g_attempted += kSubscribers;
      for (std::size_t s = 0; s < kSubscribers; ++s)
        if (!nodes_[s]->accepted_at(tokens_[s])) ++m.ops_failed;
      m.churn_rates.push_back(double(kSubscribers) / seconds);
      m.replaces += kSubscribers;
      m.subscribes += kSubscribers;
      m.churn_s += seconds;
    }
  }

  /// Open loop for `seconds`: event i is due at start + i / kRate.
  void open_loop(double seconds, Measured& m, std::vector<double>& lag_us,
                 std::vector<double>& post_wait_us) {
    const bool spans = SpanLog::instance().enabled();
    const std::size_t n = static_cast<std::size_t>(seconds * kRate);
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    std::vector<std::uint8_t> symbol(n);
    std::vector<double> price(n);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> owed;
    std::vector<std::size_t> per_sub(kSubscribers, 0);
    for (std::size_t i = 0; i < n; ++i) {
      symbol[i] = static_cast<std::uint8_t>(rng_.below(4));
      price[i] = double(rng_.below(101));
      const event::EventImage image = event::image_of(
          workload::Stock{kSymbols[symbol[i]], price[i],
                          static_cast<std::int64_t>(first + i)});
      for (std::uint32_t sub : oracle_.expected_memo(image, "volume")) {
        owed.emplace_back(first + i, sub);
        ++per_sub[sub];
      }
    }
    g_attempted += owed.size();
    for (std::size_t s = 0; s < kSubscribers; ++s) {
      logs_[s].clear();
      logs_[s].reserve(per_sub[s] + 1024);
    }
    // Lane-side first instant of each sampled post (read after the drain).
    std::vector<std::int64_t> lane_start(spans ? n : 0, 0);

    const std::int64_t period = static_cast<std::int64_t>(1e9 / kRate);
    const std::int64_t start = now_ns() + 1'000'000;
    std::vector<std::int64_t> sent(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t due = start + static_cast<std::int64_t>(i) * period;
      std::int64_t t = now_ns();
      while (t < due) t = now_ns();
      sent[i] = t;
      routing::PublisherNode* pub = publishers_[i % kPublishers];
      const std::uint64_t seq = first + i;
      const char* sym = kSymbols[symbol[i]];
      const double p = price[i];
      std::int64_t* started = spans && seq % kSpanSample == 0
                                  ? &lane_start[i]
                                  : nullptr;
      overlay_->post_on(pub->id(), [pub, sym, p, seq, started] {
        if (started != nullptr) *started = now_ns();
        pub->publish(
            workload::Stock{sym, p, static_cast<std::int64_t>(seq)});
      });
      if (started != nullptr)
        SpanLog::instance().record(SpanKind::Post, seq, t, now_ns());
    }
    {
      const ScopedSpan span{SpanKind::Drain, first};
      overlay_->run();
    }

    std::vector<Delivery> all;
    std::vector<double> latency_us;
    std::int64_t last = start;
    for (auto& log : logs_) {
      for (const Delivery& d : log) {
        last = std::max(last, d.at_ns);
        if (d.event >= first && d.event < first + n)
          latency_us.push_back(
              double(d.at_ns - (start + std::int64_t(d.event - first) * period)) /
              1e3);
      }
      all.insert(all.end(), log.begin(), log.end());
    }
    add_batch_latency(latency_us, m);
    const Check c = compare_deliveries(owed, all);
    m.check.expected += c.expected;
    m.check.missing += c.missing;
    m.check.unexpected += c.unexpected;
    const double wall = double(last - start) / 1e9;
    m.batch_rates.push_back(double(n) / wall);
    m.events += n;
    m.event_s += wall;
    for (std::size_t i = 0; i < n; ++i) {
      lag_us.push_back(
          double(sent[i] - (start + std::int64_t(i) * period)) / 1e3);
      if (spans && lane_start.size() > i && lane_start[i] != 0)
        post_wait_us.push_back(double(lane_start[i] - sent[i]) / 1e3);
    }
  }

private:
  void subscribe(std::size_t s, filter::ConjunctiveFilter f) {
    oracle_.add(static_cast<std::uint32_t>(s), f);
    std::vector<Delivery>* log = &logs_[s];
    const auto id = static_cast<std::uint32_t>(s);
    overlay_->run_on(nodes_[s]->id(), [this, s, log, id, f = std::move(f)] {
      const ScopedSpan span{SpanKind::Subscribe, s};
      tokens_[s] = nodes_[s]->subscribe(f, [log, id](const event::EventImage& e) {
        const std::int64_t at = now_ns();
        const auto seq = static_cast<std::uint64_t>(e.find("volume")->as_int());
        log->push_back(Delivery{seq, id, at});
        if (SpanLog::instance().enabled() && seq % kSpanSample == 0)
          SpanLog::instance().record(SpanKind::Handler, seq, at, now_ns());
      });
    });
  }

  util::Rng rng_;
  // One log per subscriber: a subscriber's handler always runs on its own
  // lane, so each log has a single writer; read only after a drain.
  // Declared before the overlay, whose lanes write them, so they outlive it.
  std::vector<std::vector<Delivery>> logs_;
  Oracle oracle_;
  std::vector<std::uint64_t> tokens_;
  std::unique_ptr<routing::Overlay> overlay_;
  std::vector<routing::PublisherNode*> publishers_;
  std::vector<routing::SubscriberNode*> nodes_;
  std::uint64_t next_seq_ = 0;
};

std::unique_ptr<StockWorld> set_up(std::uint64_t seed, Measured& m) {
  std::unique_ptr<StockWorld> world;
  for (std::size_t i = 0; i < kSetups; ++i) {
    world.reset();
    const std::int64_t t0 = now_ns();
    world = std::make_unique<StockWorld>(seed);
    m.setup_s.push_back(double(now_ns() - t0) / 1e9);
  }
  return world;
}

}  // namespace

Result run_stock_threaded(const Options& options) {
  Result result;
  Measured m;
  std::unique_ptr<StockWorld> world = set_up(options.seed, m);
  std::vector<double> lag_us, post_wait_us;
  if (!options.trace) {
    world->churn(kChurnRounds, m);
    world->open_loop(options.seconds * 0.85, m, lag_us, post_wait_us);
    put_verdict(m, result);
    std::sort(lag_us.begin(), lag_us.end());
    const Counters c = Counters::read(world->overlay());
    result.note("gen.lag_p99_us " + std::to_string(percentile(lag_us, 0.99)) +
                ", sim.help_drained " + std::to_string(c.help_drained) +
                ", sim.undeliverable " + std::to_string(c.undeliverable));
    note_latency(m, result);
    put_end_to_end(m, result);
    return result;
  }

  Measured plain, traced;
  OverlayTrace trace;
  trace.start(world->overlay());
  const runtime::ThreadedStats stats0 =
      dynamic_cast<runtime::ThreadedTransport&>(world->overlay().transport())
          .stats();
  SpanLog::instance().enable(true);
  world->churn(kChurnRounds, traced);
  SpanLog::instance().enable(false);
  const std::uint64_t allocs =
      alternate(options.seconds * 0.8, plain, traced, [&](Measured& into) {
        world->open_loop(kTracedWindow, into, lag_us, post_wait_us);
      });
  const runtime::ThreadedStats stats1 =
      dynamic_cast<runtime::ThreadedTransport&>(world->overlay().transport())
          .stats();
  put_verdict(plain, result);
  put_verdict(traced, result);

  LayerInputs in;
  util::Rng draw{options.seed ^ 0x1A7E5ull};
  for (std::size_t i = 0; i < 2000; ++i) {
    auto stock = std::make_shared<const workload::Stock>(
        kSymbols[draw.below(4)], double(draw.below(101)),
        static_cast<std::int64_t>(i));
    in.images.push_back(event::image_of(*stock));
    in.typed.push_back(std::move(stock));
  }
  trace.tables(world->overlay(), in);
  in.engine = index::Engine::Naive;
  for (std::uint32_t s = 0; s < kSubscribers; ++s)
    if (const auto* f = world->oracle().find(s)) in.exact.push_back(*f);
  const weaken::StageSchema schema =
      workload::StockGenerator::schema(kBrokerStages + 1);
  in.schema = &schema;
  in.stages = kBrokerStages;
  const UnitCosts u = replay_layers(in);
  put_unit_costs(u, result);

  // Lane time of both sides of the alternation and of the replaces.
  Attribution a;
  const std::uint64_t events = plain.events + traced.events;
  a.available_ns = (plain.event_s + traced.event_s + traced.churn_s) * 1e9 *
                   double(lanes());
  a.charge(double(events), u.image_ns);
  put_overlay_layers(world->overlay(), trace, u, in, events, traced.replaces,
                     traced.subscribes, nullptr, a, result);
  const double batches = double(stats1.batches - stats0.batches);
  result.put("runtime.tasks_per_batch",
             batches > 0 ? double(stats1.tasks - stats0.tasks) / batches : 0.0,
             "count");
  result.put("runtime.max_batch", double(stats1.max_batch), "count");
  std::sort(post_wait_us.begin(), post_wait_us.end());
  result.put("runtime.post_wait_p99_us", percentile(post_wait_us, 0.99), "us");
  std::sort(lag_us.begin(), lag_us.end());
  result.put("gen.lag_p99_us", percentile(lag_us, 0.99), "us");
  result.put("alloc.per_event",
             double(allocs) / std::max<double>(1.0, double(traced.events)),
             "count");
  // Open loop: the offered rate is fixed, so the overhead shows in latency.
  put_attribution(a, median(traced.batch_p50_us) / median(plain.batch_p50_us) - 1,
                  result);
  return result;
}

}  // namespace perfbench
