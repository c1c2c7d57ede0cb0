// Bounded drop-oldest pens (DESIGN.md §15): the `health::BoundedPen` and
// `health::SeenSet` contracts, and the eviction behaviour of the overlay
// sites built on them that no other suite drives to overflow — the broker's
// zero-match grace pen, the subscriber's event-id dedup window, and the
// composite-group dedup set.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "cake/health/bounded_pen.hpp"
#include "cake/metrics/metrics.hpp"
#include "cake/routing/overlay.hpp"
#include "cake/workload/generators.hpp"

namespace cake {
namespace {

using event::EventImage;
using filter::FilterBuilder;
using filter::Op;
using health::BoundedPen;
using health::SeenSet;
using health::ShedCounts;
using health::ShedReason;
using routing::Overlay;
using routing::OverlayConfig;
using value::Value;

// ---- BoundedPen / SeenSet ----------------------------------------------------

TEST(BoundedPen, EvictsOldestFirstAndHandsTheEvicteeBack) {
  BoundedPen<int> pen{3};
  for (int i = 1; i <= 3; ++i) EXPECT_FALSE(pen.push(i).has_value());
  EXPECT_EQ(pen.size(), 3u);
  EXPECT_EQ(pen.evicted(), 0u);

  EXPECT_EQ(pen.push(4), std::optional<int>{1});
  EXPECT_EQ(pen.push(5), std::optional<int>{2});
  EXPECT_EQ(pen.size(), 3u);
  EXPECT_EQ(pen.evicted(), 2u);
  EXPECT_EQ((std::vector<int>{pen.begin(), pen.end()}),
            (std::vector<int>{3, 4, 5}));

  // Draining is not eviction: pop() and take() leave the count alone.
  EXPECT_EQ(pen.pop(), 3);
  const std::deque<int> rest = pen.take();
  EXPECT_EQ((std::vector<int>{rest.begin(), rest.end()}),
            (std::vector<int>{4, 5}));
  EXPECT_TRUE(pen.empty());
  EXPECT_EQ(pen.evicted(), 2u);
  EXPECT_EQ(pen.capacity(), 3u);  // a taken pen keeps its bound
}

TEST(BoundedPen, CapacityOneKeepsOnlyTheNewest) {
  BoundedPen<int> pen{1};
  EXPECT_FALSE(pen.push(7).has_value());
  EXPECT_EQ(pen.push(8), std::optional<int>{7});
  EXPECT_EQ(pen.push(9), std::optional<int>{8});
  EXPECT_EQ(pen.size(), 1u);
  EXPECT_EQ(pen.pop(), 9);
  EXPECT_EQ(pen.evicted(), 2u);
}

TEST(BoundedPen, CapacityZeroEvictsEveryPush) {
  BoundedPen<int> pen{0};
  EXPECT_EQ(pen.push(1), std::optional<int>{1});
  EXPECT_TRUE(pen.empty());
  EXPECT_EQ(pen.evicted(), 1u);
}

TEST(BoundedPen, FramePenChargesItsReasonAndTheChargeOutlivesThePen) {
  ShedCounts shed;
  {
    BoundedPen<int> pen{2, shed, ShedReason::StallInbox};
    for (int i = 0; i < 5; ++i) pen.push(i);
    EXPECT_EQ(pen.evicted(), 3u);
    pen.clear();  // discarding the contents is not a shed
    pen.push(9);
  }
  EXPECT_EQ(shed[ShedReason::StallInbox], 3u);
  EXPECT_EQ(shed.total(), 3u);  // no other reason was charged

  ShedCounts sum;
  sum += shed;
  sum += shed;
  EXPECT_EQ(sum[ShedReason::StallInbox], 6u);
}

TEST(SeenSet, RemembersTheLastCapacityKeys) {
  SeenSet<int> seen{3};
  for (int i = 1; i <= 3; ++i) EXPECT_TRUE(seen.insert(i));
  EXPECT_FALSE(seen.insert(2));  // a repeat inside the window
  EXPECT_TRUE(seen.insert(4));   // forgets 1
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_TRUE(seen.insert(1));   // outside the window: new again
  EXPECT_FALSE(seen.insert(4));
  EXPECT_EQ(seen.size(), 3u);
}

// ---- overlay sites -------------------------------------------------------------

EventImage pub_event(int year, const std::string& title) {
  return EventImage{"Publication",
                    {{"year", Value{year}},
                     {"conference", Value{"ICDCS"}},
                     {"author", Value{"Eugster"}},
                     {"title", Value{title}}}};
}

struct Fx {
  explicit Fx(const OverlayConfig& config) : overlay(config) {
    workload::ensure_types_registered();
    publisher = &overlay.add_publisher();
    publisher->advertise(workload::BiblioGenerator::schema());
    overlay.run();
  }
  Overlay overlay;
  routing::PublisherNode* publisher = nullptr;
};

OverlayConfig single_broker() {
  OverlayConfig config;
  config.stage_counts = {1};
  return config;
}

TEST(GracePen, OverflowEvictsOldestAndTheNewestLimitAreRescued) {
  constexpr std::size_t kLimit = 4;
  constexpr int kFrames = 10;
  OverlayConfig config = single_broker();
  config.broker.match_grace = 10'000'000;
  config.broker.match_grace_limit = kLimit;
  Fx fx{config};

  // Nobody subscribes yet: every frame matches nothing and parks.
  for (int i = 0; i < kFrames; ++i)
    fx.publisher->publish(pub_event(2002, "t-" + std::to_string(i)));
  fx.overlay.run();
  const routing::Broker& root = fx.overlay.root();
  EXPECT_EQ(root.stats().events_parked, std::uint64_t{kFrames});
  EXPECT_EQ(root.stats().events_pen_dropped, kFrames - kLimit);
  EXPECT_EQ(root.shed_counts()[ShedReason::GracePen], kFrames - kLimit);

  // The table heals inside the grace: the next pen tick rescues what the
  // pen still holds — the newest kLimit frames, oldest first.
  auto& sub = fx.overlay.add_subscriber();
  std::vector<std::string> titles;
  sub.subscribe(FilterBuilder{"Publication"}.build(),
                [&](const EventImage& e) {
                  titles.emplace_back(e.find("title")->as_string());
                });
  fx.overlay.run();
  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() +
                                   config.broker.match_grace);
  EXPECT_EQ(titles, (std::vector<std::string>{"t-6", "t-7", "t-8", "t-9"}));
  EXPECT_EQ(root.stats().events_rescued, kLimit);

  const metrics::ShedLedger ledger = metrics::shed_ledger(fx.overlay);
  EXPECT_EQ(ledger.shed[ShedReason::GracePen], kFrames - kLimit);
  EXPECT_EQ(ledger.total_shed(), kFrames - kLimit);
}

TEST(ShedCounts, DurableBufferDropsOutliveTheBufferAndACrash) {
  OverlayConfig config = single_broker();
  config.broker.durable_buffer_limit = 2;
  Fx fx{config};
  auto& sub = fx.overlay.add_subscriber();
  std::vector<std::string> titles;
  sub.subscribe(FilterBuilder{"Publication"}.build(),
                [&](const EventImage& e) {
                  titles.emplace_back(e.find("title")->as_string());
                },
                {}, /*durable=*/true);
  fx.overlay.run();
  sub.detach();
  fx.overlay.run();
  for (int i = 0; i < 5; ++i)
    fx.publisher->publish(pub_event(2002, "t-" + std::to_string(i)));
  fx.overlay.run();
  sub.resume();  // replays the buffer and erases it
  fx.overlay.run();
  EXPECT_EQ(titles, (std::vector<std::string>{"t-3", "t-4"}));

  // The pen is gone, then the broker's RAM: the count stays.
  fx.overlay.crash(0);
  fx.overlay.restart(0);
  EXPECT_EQ(fx.overlay.root().stats().buffer_overflows, 3u);
  const metrics::ShedLedger ledger = metrics::shed_ledger(fx.overlay);
  EXPECT_EQ(ledger.shed[ShedReason::DurableBuffer], 3u);
  EXPECT_EQ(ledger.total_shed(), 3u);
}

TEST(ShedCounts, QuarantineDropsOutliveTheChildPensACrashWipes) {
  OverlayConfig config = single_broker();
  config.link.reliability = link::Reliability::Reliable;
  config.link.credit = true;
  config.link.credit_window = 4;
  config.broker.quarantine = true;
  config.broker.child_queue = {.low = 2, .high = 4, .capacity = 8};
  config.broker.quarantine_pen_limit = 8;
  Fx fx{config};
  auto& sub = fx.overlay.add_subscriber();
  sub.subscribe(FilterBuilder{"Publication"}.build(), [](const EventImage&) {});
  fx.overlay.run();

  sub.stall();
  for (int i = 0; i < 40; ++i)
    fx.publisher->publish(pub_event(2002, "t-" + std::to_string(i)));
  fx.overlay.run();
  const routing::Broker& root = fx.overlay.root();
  const std::uint64_t dropped = root.stats().events_quarantine_dropped;
  ASSERT_GT(dropped, 0u);
  EXPECT_EQ(root.quarantine_dropped(sub.id()), dropped);
  EXPECT_EQ(root.shed_counts()[ShedReason::QuarantinePen], dropped);

  // crash() wipes the child pens and with them the per-child split; the
  // broker's per-reason count, and so the ledger, keep every drop.
  fx.overlay.crash(0);
  EXPECT_EQ(root.quarantine_dropped(sub.id()), 0u);
  EXPECT_EQ(root.quarantine_pen_size(), 0u);
  fx.overlay.restart(0);
  EXPECT_EQ(root.stats().events_quarantine_dropped, dropped);
  EXPECT_EQ(metrics::shed_ledger(fx.overlay).shed[ShedReason::QuarantinePen],
            dropped);
}

TEST(Dedup, DuplicateInsideTheWindowIsSuppressedAndAnOlderOneRedelivered) {
  OverlayConfig config = single_broker();
  config.subscriber.dedup_events = true;
  config.subscriber.dedup_capacity = 4;
  Fx fx{config};
  auto& sub = fx.overlay.add_subscriber();
  std::vector<std::string> titles;
  sub.subscribe(FilterBuilder{"Publication"}.build(), [&](const EventImage& e) {
    titles.emplace_back(e.find("title")->as_string());
  });
  fx.overlay.run();

  // Frames injected straight at the subscriber, so the event ids (and so
  // the duplicates) are chosen here rather than by a publisher.
  const auto deliver = [&](std::uint64_t event_id) {
    routing::EventMsg msg;
    msg.image = pub_event(2002, "id-" + std::to_string(event_id));
    msg.event_id = event_id;
    fx.overlay.network().send(999, sub.id(),
                              sim::Network::Payload{routing::encode(msg)});
    fx.overlay.run();
  };
  for (std::uint64_t id = 1; id <= 5; ++id) deliver(id);  // window: 2..5
  deliver(5);  // newest, inside the window: suppressed
  deliver(2);  // oldest still inside the window: suppressed
  deliver(1);  // fell out of the window: delivered again
  EXPECT_EQ(titles, (std::vector<std::string>{"id-1", "id-2", "id-3", "id-4",
                                              "id-5", "id-1"}));
  EXPECT_EQ(sub.stats().events_received, 8u);
}

TEST(Composite, GroupDedupStaysBoundedAndStillFiresOncePerEvent) {
  constexpr std::size_t kCapacity = 8;
  OverlayConfig config = single_broker();
  config.subscriber.dedup_capacity = kCapacity;
  Fx fx{config};
  auto& sub = fx.overlay.add_subscriber();
  std::vector<std::string> titles;
  // Overlapping disjuncts: every event below matches both, in one packet.
  sub.subscribe_any(
      {FilterBuilder{"Publication"}.where("year", Op::Eq, Value{2002}).build(),
       FilterBuilder{"Publication"}
           .where("conference", Op::Eq, Value{"ICDCS"})
           .build()},
      [&](const EventImage& e) {
        titles.emplace_back(e.find("title")->as_string());
      });
  fx.overlay.run();

  constexpr int kEvents = 5 * kCapacity;
  for (int i = 0; i < kEvents; ++i) {
    fx.publisher->publish(pub_event(2002, "t-" + std::to_string(i)));
    fx.overlay.run();
    ASSERT_LE(sub.group_dedup_size(), kCapacity) << "after event " << i;
  }
  ASSERT_EQ(titles.size(), std::size_t{kEvents});  // once each, no duplicate
  for (int i = 0; i < kEvents; ++i)
    EXPECT_EQ(titles[static_cast<std::size_t>(i)], "t-" + std::to_string(i));
}

// The in-packet case does not depend on the window: with dedup_capacity 0
// (dedup off, valid on best-effort links) every window insert evicts
// itself, and a window smaller than the number of groups one event hits
// can evict a group's entry before subs_ (unordered) visits the group's
// next disjunct. Each group must still fire once per event.
TEST(Composite, OverlappingDisjunctsFireOnceWhateverTheWindow) {
  constexpr std::size_t kGroups = 12;
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{1}}) {
    OverlayConfig config = single_broker();
    ASSERT_EQ(config.link.reliability, link::Reliability::BestEffort);
    config.subscriber.dedup_capacity = capacity;
    Fx fx{config};
    auto& sub = fx.overlay.add_subscriber();
    std::vector<std::vector<std::string>> fired(kGroups);
    for (std::size_t g = 0; g < kGroups; ++g) {
      sub.subscribe_any(
          {FilterBuilder{"Publication"}.where("year", Op::Eq, Value{2002}).build(),
           FilterBuilder{"Publication"}
               .where("conference", Op::Eq, Value{"ICDCS"})
               .build(),
           FilterBuilder{"Publication"}
               .where("author", Op::Eq, Value{"Eugster"})
               .build()},
          [&fired, g](const EventImage& e) {
            fired[g].emplace_back(e.find("title")->as_string());
          });
    }
    fx.overlay.run();

    std::vector<std::string> expected;
    for (int i = 0; i < 6; ++i) {
      expected.push_back("t-" + std::to_string(i));
      fx.publisher->publish(pub_event(2002, expected.back()));
      fx.overlay.run();
    }
    for (std::size_t g = 0; g < kGroups; ++g)
      EXPECT_EQ(fired[g], expected)
          << "dedup_capacity " << capacity << ", group " << g;
    EXPECT_LE(sub.group_dedup_size(), capacity);
  }
}

}  // namespace
}  // namespace cake
