// paper-sim, reliable-sim and churn-sim: the paper's §5.2 bibliographic
// workload on the deterministic Sim backend.
//
// Shape: brokers {1, 10, 100}; 1 500 subscribers with 8 Zipf-drawn
// subscriptions each; every 10th subscriber wildcards the title (A3,
// A6(c)); default BrokerConfig (Naive engine).
//
// paper-sim runs best-effort links and measures closed event batches: the
// batch is published, then the overlay runs to quiescence. It has no
// replace bursts, so its churn_ops_per_s is the subscribe rate of the
// set-up (each subscriber's joins run to quiescence).
//
// reliable-sim is paper-sim on reliable links: closed batches of 500
// events, each stepped until its deliveries are in, and no replaces. Its
// churn_ops_per_s is the set-up's subscribe rate too.
//
// churn-sim runs reliable links and alternates event bursts with replace
// bursts (one unsubscribe plus one subscribe of a fresh draw), one replace
// per 10 published events, each burst settled before the next, so the
// oracle knows the active set and each kind of operation is timed on its
// own.
//
// A run measures whole cycles: each builds the overlay afresh for the next
// of kPopulations populations drawn from the seed (a set-up sample), then
// serves kCycleSteps steps on it.
//
// paper-sim and churn-sim can fail their delivery check through defects
// in the program; the failures are reported, not avoided (see
// perfbench/README.md).
#include <algorithm>

#include "cake/routing/overlay.hpp"
#include "cake/weaken/weaken.hpp"
#include "cake/workload/generators.hpp"
#include "overlay.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSubscribers = 1500;
constexpr std::size_t kSubsPerSubscriber = 8;
constexpr std::size_t kWildcardEvery = 10;
/// A set-up moves its thread to the next allowed CPU after this many
/// subscribers, so each set-up averages over every CPU's speed.
constexpr std::size_t kRotateEvery = 100;
constexpr std::size_t kBrokerStages = 3;
/// Steps served by one overlay before it is built afresh. The overlay's
/// state grows with the events it served (with reliable links every
/// subscriber keeps a seen-set of event ids), so a run that served more
/// events would measure a larger state; whole cycles make every run
/// measure the same states, whatever the host's speed.
constexpr std::size_t kCycleSteps = 10;
/// Populations a run cycles through, each drawn from its own seed derived
/// from --seed. Some populations cost more to serve than others; cycling
/// through several makes a run's figures depend less on the one seed.
constexpr std::uint64_t kPopulations = 4;
/// Virtual time a reliable-link overlay may take to settle joins.
constexpr sim::Time kSettleVirtual = 2'000'000;
/// Virtual time a reliable-link overlay may take to deliver one event
/// batch. A batch of 500 delivers fully in about 32 ms of virtual time;
/// what is still missing after this window was lost (a subscription
/// without a lease gets nothing until a renewal re-joins it), and waiting
/// the full kSettleVirtual for it would make the batch's wall time depend
/// on whether a loss occurred.
constexpr sim::Time kBatchVirtual = 64'000;
/// Virtual time run after a burst settled, for late duplicates.
constexpr sim::Time kGraceVirtual = 10'000;
/// Events carry the workload's sequence number in this attribute; no
/// subscription constrains it, so it changes no routing decision.
constexpr std::string_view kSeqAttribute = "seq";
/// Per-event spans are kept for one event in this many (bounded memory).
constexpr std::uint64_t kSpanSample = 16;

/// One built overlay with its subscriptions, oracle and delivery log.
class SimWorld {
public:
  struct Sub {
    std::size_t node = 0;
    std::uint64_t token = 0;
    bool live = false;
  };

  SimWorld(std::uint64_t seed, bool reliable, CpuRotation& rotation)
      : reliable_{reliable},
        subscription_gen_{workload::BiblioConfig{}, seed},
        churn_gen_{workload::BiblioConfig{}, seed ^ 0xC0FFEEull},
        pick_{seed ^ 0x5E1EC7ull} {
    routing::OverlayConfig config;
    config.stage_counts = {1, 10, 100};
    config.seed = seed;
    if (reliable) config.link.reliability = link::Reliability::Reliable;
    overlay_ = std::make_unique<routing::Overlay>(config);
    publisher_ = &overlay_->add_publisher();
    const weaken::StageSchema schema =
        workload::BiblioGenerator::schema(kBrokerStages + 1);
    publisher_->advertise(schema);
    overlay_->run();
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kSubscribers; ++i) {
      if (i % kRotateEvery == 0) rotation.advance();
      routing::SubscriberNode& node = overlay_->add_subscriber();
      nodes_.push_back(&node);
      const std::size_t first = subs_.size();
      for (std::size_t s = 0; s < kSubsPerSubscriber; ++s) {
        filter::ConjunctiveFilter exact = draw(i, subscription_gen_);
        oracle_.add(subscribe(i, exact), exact);
      }
      // Let each subscriber's joins settle so the covering search clusters
      // later ones under it (the paper's placement).
      settle([&] { return accepted(first, subs_.size()); });
    }
    subscribe_rate_ = double(kSubscribers * kSubsPerSubscriber) /
                      (double(now_ns() - t0) / 1e9);
  }

  /// Subscribe calls per second while the set-up joined its subscribers.
  [[nodiscard]] double subscribe_rate() const noexcept { return subscribe_rate_; }

  routing::Overlay& overlay() noexcept { return *overlay_; }
  Oracle& oracle() noexcept { return oracle_; }
  const std::vector<Sub>& subs() const noexcept { return subs_; }

  /// Builds `n` events with fresh sequence numbers.
  std::vector<event::EventImage> make_events(workload::BiblioGenerator& gen,
                                             std::size_t n) {
    std::vector<event::EventImage> events;
    events.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const event::EventImage drawn = gen.next_event();
      std::vector<event::ImageAttribute> attributes = drawn.attributes();
      attributes.emplace_back(kSeqAttribute,
                              value::Value{static_cast<std::int64_t>(next_seq_++)});
      events.emplace_back(drawn.type_name(), std::move(attributes));
    }
    return events;
  }

  /// Publishes the batch, runs to quiescence and checks every delivery.
  void event_batch(std::vector<event::EventImage> events, Measured& m) {
    const bool spans = SpanLog::instance().enabled();
    const std::uint64_t first = seq_of(events.front());
    std::vector<std::pair<std::uint64_t, std::uint32_t>> owed;
    for (const event::EventImage& e : events)
      for (std::uint32_t sub : oracle_.expected_memo(e, kSeqAttribute))
        owed.emplace_back(seq_of(e), sub);
    g_attempted += owed.size();

    published_at_.assign(events.size(), 0);
    log_.clear();
    log_.reserve(owed.size() + owed.size() / 8 + 16);
    const std::int64_t t0 = now_ns();
    for (event::EventImage& e : events) {
      const std::uint64_t seq = seq_of(e);
      const std::int64_t at = now_ns();
      published_at_[seq - first] = at;
      publisher_->publish(std::move(e));
      if (spans && seq % kSpanSample == 0)
        SpanLog::instance().record(SpanKind::Publish, seq, at, now_ns());
    }
    {
      const ScopedSpan span{SpanKind::Run, first};
      settle([&] { return log_.size() >= owed.size(); }, kBatchVirtual);
    }
    const double seconds = double(now_ns() - t0) / 1e9;
    grace();

    std::vector<double> latency_us;
    latency_us.reserve(log_.size());
    for (const Delivery& d : log_) {
      if (d.event < first || d.event - first >= published_at_.size()) continue;
      latency_us.push_back(double(d.at_ns - published_at_[d.event - first]) /
                           1e3);
    }
    add_batch_latency(latency_us, m);
    const Check c = compare_deliveries(owed, log_);
    m.check.expected += c.expected;
    m.check.missing += c.missing;
    m.check.unexpected += c.unexpected;
    m.batch_rates.push_back(double(events.size()) / seconds);
    m.events += events.size();
    m.event_s += seconds;
  }

  /// Replaces `n` random active subscriptions and runs to quiescence.
  void churn_burst(std::size_t n, Measured& m) {
    // Draw victims and replacements first, so the timed stretch holds only
    // calls into the overlay.
    std::vector<std::uint32_t> victims;
    std::vector<filter::ConjunctiveFilter> draws;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t victim = 0;
      do {
        victim = static_cast<std::uint32_t>(pick_.below(subs_.size()));
      } while (!subs_[victim].live);
      subs_[victim].live = false;
      victims.push_back(victim);
      draws.push_back(draw(subs_[victim].node, churn_gen_));
    }
    std::vector<std::uint32_t> fresh;
    const std::size_t first = subs_.size();
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      const Sub& old = subs_[victims[i]];
      {
        const ScopedSpan span{SpanKind::Unsubscribe, victims[i]};
        nodes_[old.node]->unsubscribe(old.token);
      }
      fresh.push_back(subscribe(old.node, draws[i]));
    }
    {
      const ScopedSpan span{SpanKind::Run, 0};
      settle([&] { return accepted(first, subs_.size()); });
    }
    const double seconds = double(now_ns() - t0) / 1e9;
    grace();
    for (std::size_t i = 0; i < n; ++i) {
      oracle_.remove(victims[i]);
      oracle_.add(fresh[i], std::move(draws[i]));
    }
    g_attempted += n;
    for (std::uint32_t id : fresh)
      if (!nodes_[subs_[id].node]->accepted_at(subs_[id].token)) ++m.ops_failed;
    m.churn_rates.push_back(double(n) / seconds);
    m.replaces += n;
    m.subscribes += n;
    m.churn_s += seconds;
  }

private:
  /// Runs the overlay until `done()` holds. A best-effort overlay runs to
  /// quiescence. With reliable links Overlay::run() does not return at
  /// this scale: heartbeat, ack and renewal traffic keep foreground work
  /// pending at every virtual instant. So the scheduler is stepped until
  /// `done()` holds or `limit` of virtual time has passed.
  template <class Done>
  void settle(Done done, sim::Time limit = kSettleVirtual) {
    if (!reliable_) {
      overlay_->run();
      return;
    }
    sim::Scheduler& scheduler = overlay_->scheduler();
    const sim::Time deadline = scheduler.now() + limit;
    while (!done() && scheduler.now() < deadline)
      for (int k = 0; k < 64; ++k)
        if (!scheduler.step()) return;
  }

  void grace() {
    if (reliable_) {
      sim::Scheduler& scheduler = overlay_->scheduler();
      scheduler.run_until(scheduler.now() + kGraceVirtual);
    }
  }

  /// True when subscriptions [first, last) have all been accepted.
  bool accepted(std::size_t first, std::size_t last) const {
    for (std::size_t id = first; id < last; ++id)
      if (!nodes_[subs_[id].node]->accepted_at(subs_[id].token)) return false;
    return true;
  }

  static std::uint64_t seq_of(const event::EventImage& e) {
    return static_cast<std::uint64_t>(e.find(kSeqAttribute)->as_int());
  }

  /// A fresh subscription for subscriber `node` (title wildcarded for
  /// every kWildcardEvery-th subscriber).
  static filter::ConjunctiveFilter draw(std::size_t node,
                                        workload::BiblioGenerator& gen) {
    return gen.next_subscription(node % kWildcardEvery == 0 ? 1 : 0);
  }

  /// Subscribes `exact` at subscriber `node`; the caller tells the oracle.
  std::uint32_t subscribe(std::size_t node,
                          const filter::ConjunctiveFilter& exact) {
    const std::uint32_t id = static_cast<std::uint32_t>(subs_.size());
    std::vector<Delivery>* log = &log_;
    const ScopedSpan span{SpanKind::Subscribe, id};
    const std::uint64_t token = nodes_[node]->subscribe(
        exact, [log, id](const event::EventImage& e) {
          const std::int64_t at = now_ns();
          const std::uint64_t seq = seq_of(e);
          log->push_back(Delivery{seq, id, at});
          if (SpanLog::instance().enabled() && seq % kSpanSample == 0)
            SpanLog::instance().record(SpanKind::Handler, seq, at, now_ns());
        });
    subs_.push_back(Sub{node, token, true});
    return id;
  }

  bool reliable_;
  double subscribe_rate_ = 0;
  workload::BiblioGenerator subscription_gen_;
  workload::BiblioGenerator churn_gen_;
  util::Rng pick_;
  std::unique_ptr<routing::Overlay> overlay_;
  routing::PublisherNode* publisher_ = nullptr;
  std::vector<routing::SubscriberNode*> nodes_;
  std::vector<Sub> subs_;
  Oracle oracle_;
  std::vector<Delivery> log_;
  std::vector<std::int64_t> published_at_;
  std::uint64_t next_seq_ = 0;
};

/// Builds a fresh overlay, timing the set-up. `without_replaces`: the
/// workload has no replace bursts, so the set-up's subscribe rate stands in
/// for churn_ops_per_s.
std::unique_ptr<SimWorld> set_up(std::uint64_t seed, bool reliable,
                                 bool without_replaces, CpuRotation& rotation,
                                 Measured& m) {
  const std::int64_t t0 = now_ns();
  auto world = std::make_unique<SimWorld>(seed, reliable, rotation);
  m.setup_s.push_back(double(now_ns() - t0) / 1e9);
  if (without_replaces) m.churn_rates.push_back(world->subscribe_rate());
  return world;
}

struct SimShape {
  bool reliable = false;
  std::size_t event_batch = 0;  ///< events per batch
  std::size_t churn_burst = 0;  ///< replaces after each batch (0 = none)
};

/// One measured step: an event batch, then the replace burst if any.
void step(SimWorld& world, workload::BiblioGenerator& events,
          const SimShape& shape, Measured& m) {
  world.event_batch(world.make_events(events, shape.event_batch), m);
  if (shape.churn_burst > 0) world.churn_burst(shape.churn_burst, m);
}

Result run_sim(const Options& options, const SimShape& shape) {
  Result result;
  Measured m;
  const bool without_replaces = shape.churn_burst == 0;
  CpuRotation setup_rotation;
  workload::BiblioGenerator events{workload::BiblioConfig{},
                                   options.seed ^ 0xE7E27ull};
  if (!options.trace) {
    // Measures whole cycles, each a set-up of the next population and
    // kCycleSteps steps on the fresh overlay, until the time is up.
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
    CpuRotation rotation;
    std::unique_ptr<SimWorld> world;
    std::uint64_t cycle = 0;
    do {
      const std::uint64_t population =
          options.seed ^ (0x9E3779B97F4A7C15ull * (cycle++ % kPopulations));
      world.reset();
      world = set_up(population, shape.reliable, without_replaces,
                     setup_rotation, m);
      for (std::size_t i = 0; i < kCycleSteps; ++i) {
        rotation.advance();
        step(*world, events, shape, m);
      }
    } while (now_ns() < end);
    put_verdict(m, result);
    note_latency(m, result);
    put_end_to_end(m, result);
    return result;
  }

  std::unique_ptr<SimWorld> world = set_up(
      options.seed, shape.reliable, without_replaces, setup_rotation, m);
  Measured plain, traced;
  // Without replaces the measured phase runs no join protocol, so the
  // per-subscribe routing figures come from the set-up's subscribes.
  const Counters setup = Counters::read(world->overlay());
  OverlayTrace trace;
  trace.start(world->overlay());
  CpuRotation rotation;
  const std::uint64_t allocs =
      alternate(options.seconds * 0.8, plain, traced, [&](Measured& into) {
        rotation.advance();
        step(*world, events, shape, into);
      });
  put_verdict(plain, result);
  put_verdict(traced, result);

  LayerInputs in;
  std::vector<event::EventImage> sample =
      world->make_events(events, 2000);  // the workload's own draws
  in.images = std::move(sample);
  trace.tables(world->overlay(), in);
  in.engine = index::Engine::Naive;
  for (std::uint32_t id = 0; id < world->subs().size(); ++id)
    if (const auto* f = world->oracle().find(id)) in.exact.push_back(*f);
  const weaken::StageSchema schema =
      workload::BiblioGenerator::schema(kBrokerStages + 1);
  in.schema = &schema;
  in.stages = kBrokerStages;
  const UnitCosts u = replay_layers(in);
  put_unit_costs(u, result);

  // Counters cover both sides of the alternation; so does the time.
  Attribution a;
  a.available_ns = (plain.event_s + plain.churn_s + traced.event_s +
                    traced.churn_s) * 1e9;  // one lane
  put_overlay_layers(world->overlay(), trace, u, in,
                     plain.events + traced.events,
                     plain.replaces + traced.replaces,
                     plain.subscribes + traced.subscribes,
                     without_replaces ? &setup : nullptr, a, result);
  result.put("alloc.per_event",
             double(allocs) / std::max<double>(1.0, double(traced.events)),
             "count");
  put_attribution(a, median(plain.batch_rates) / median(traced.batch_rates) - 1,
                  result);
  return result;
}

}  // namespace

Result run_paper_sim(const Options& options) {
  return run_sim(options, SimShape{.reliable = false,
                                   .event_batch = 2000,
                                   .churn_burst = 0});
}

Result run_reliable_sim(const Options& options) {
  return run_sim(options, SimShape{.reliable = true,
                                   .event_batch = 500,
                                   .churn_burst = 0});
}

Result run_churn_sim(const Options& options) {
  return run_sim(options, SimShape{.reliable = true,
                                   .event_batch = 500,
                                   .churn_burst = 50});
}

}  // namespace perfbench
