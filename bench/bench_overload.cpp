// Experiment A20 — graceful degradation under overload (DESIGN.md §15).
//
// Publish storms at 1x/2x/10x a baseline rate against a reliable overlay
// with credit flow control and slow-child quarantine armed, with one
// subscriber's consumer stalled for most of the storm. The claims gated in
// CI (tools/bench_gate.py, BENCH_overload.json):
//
//   * healthy subscribers ride through untouched — their delivery count
//     equals the exact-filter oracle at every storm multiplier (virtual
//     time, so the count is deterministic and gated exactly);
//   * the stalled consumer never costs a lease: zero Expired notices and
//     zero forced rejoins, storm or no storm (control traffic is never
//     starved behind events);
//   * every shed frame is accounted: the conservation ledger's total and
//     its split by reason are deterministic per multiplier and gated
//     exactly (a drop that moves between reasons fails the gate);
//   * memory stays bounded: peak RSS gets a loose band — the watermark
//     pens and stall inboxes cap per-child state, so a 10x storm must not
//     balloon the process.
//
// Goodput (published events/sec of wall-clock sim execution) takes the
// standard 10% wall-clock band.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>

#include "harness.hpp"

namespace {

using namespace cake;

struct A20Row {
  std::size_t multiplier = 1;
  std::uint64_t published = 0;
  std::uint64_t healthy_expected = 0;
  std::uint64_t healthy_delivered = 0;
  std::uint64_t victim_delivered = 0;
  std::uint64_t total_shed = 0;
  health::ShedCounts shed;  ///< total_shed split by reason
  std::uint64_t expired_notices = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t quarantines = 0;
  double events_per_sec = 0.0;
  long peak_rss_kb = 0;
};

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

A20Row run_arm(std::size_t multiplier) {
  workload::ensure_types_registered();
  routing::OverlayConfig config;
  config.stage_counts = {1, 3, 9};
  config.broker.ttl = 2'000'000;
  config.broker.renew_interval = 900'000;
  config.broker.reap_interval = 1'000'000;
  config.subscriber.renew_interval = 900'000;
  config.link.reliability = link::Reliability::Reliable;
  config.link.credit = true;
  config.broker.quarantine = true;
  config.broker.child_queue = {.low = 16, .high = 48, .capacity = 96};
  config.broker.quarantine_after = 200'000;
  config.broker.quarantine_drain_interval = 50'000;
  config.broker.quarantine_pen_limit = 256;
  config.subscriber.stall_inbox_limit = 256;
  routing::Overlay overlay{config};
  auto& pub = overlay.add_publisher();
  pub.advertise(workload::BiblioGenerator::schema());
  overlay.run();

  workload::BiblioConfig dense;
  dense.years = 3;
  dense.conferences = 4;
  dense.authors = 10;
  workload::BiblioGenerator gen{dense, 2020};

  constexpr int kSubs = 30;
  std::vector<filter::ConjunctiveFilter> filters;
  std::vector<std::uint64_t> received(kSubs, 0);
  std::vector<routing::SubscriberNode*> subs;
  for (int i = 0; i < kSubs; ++i) {
    // The victim gets a year-only filter (high match rate): its stalled
    // backlog must actually exhaust credit and trip quarantine, not hide
    // behind a selective subscription.
    filters.push_back(gen.next_subscription(i == 0 ? 3 : i % 3));
    auto& sub = overlay.add_subscriber();
    sub.subscribe(filters[i],
                  [&received, i](const event::EventImage&) { ++received[i]; });
    subs.push_back(&sub);
    overlay.run();
  }

  // The storm: `multiplier` times the baseline event budget, paced at the
  // baseline inter-publish gap (a higher multiplier is a longer sustained
  // storm at the same instantaneous rate — the stalled consumer's backlog
  // scales with it while healthy consumers keep pace). Subscriber 0 stalls
  // from 10% into the storm until 70% — several lease-renewal cycles at
  // the 10x multiplier, so "zero expiries" is a real claim, not slack.
  const std::size_t events = 300 * multiplier;
  const std::size_t stall_at = events / 10;
  const std::size_t unstall_at = events * 7 / 10;
  std::vector<std::uint64_t> expected(kSubs, 0);
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t e = 0; e < events; ++e) {
    if (e == stall_at) subs[0]->stall();
    if (e == unstall_at) subs[0]->unstall();
    const event::EventImage image = gen.next_event();
    for (int i = 0; i < kSubs; ++i)
      if (filters[i].matches(image, overlay.registry())) ++expected[i];
    pub.publish(image);
    overlay.run();
    overlay.scheduler().run_until(overlay.scheduler().now() + 5'000);
  }
  if (subs[0]->stalled()) subs[0]->unstall();
  // Convergence: quarantine pens drain on background ticks; give the
  // overlay several TTLs so recovery is complete before accounting.
  overlay.scheduler().run_until(overlay.scheduler().now() + 8'000'000);
  overlay.run();
  const auto wall_end = std::chrono::steady_clock::now();

  A20Row row;
  row.multiplier = multiplier;
  row.published = events;
  for (int i = 1; i < kSubs; ++i) {
    row.healthy_expected += expected[i];
    row.healthy_delivered += received[i];
  }
  row.victim_delivered = received[0];
  const metrics::ShedLedger ledger = metrics::shed_ledger(overlay);
  row.total_shed = ledger.total_shed();
  row.shed = ledger.shed;
  for (const auto& broker : overlay.brokers()) {
    row.expired_notices += broker->stats().expired_notices;
    row.quarantines += broker->stats().children_quarantined;
  }
  for (const auto& sub : overlay.subscribers())
    row.rejoins += sub->stats().rejoins;
  const double seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  row.events_per_sec = seconds > 0.0 ? double(events) / seconds : 0.0;
  row.peak_rss_kb = peak_rss_kb();
  return row;
}

}  // namespace

int main() {
  std::cout << "=== A20: Graceful degradation under overload (DESIGN.md "
               "§15) ===\n"
            << "30 subscribers, reliable + credit + quarantine; subscriber "
               "0 stalled for 60% of each storm\n\n";

  util::TextTable table{{"Storm", "Published", "Healthy delivery", "Victim",
                         "Shed", "Expired", "Quarantines", "Events/sec",
                         "Peak RSS (MB)"}};
  std::vector<A20Row> rows;
  bool ok = true;
  for (const std::size_t multiplier : {1u, 2u, 10u}) {
    const A20Row row = run_arm(multiplier);
    table.add_row(
        {std::to_string(multiplier) + "x", std::to_string(row.published),
         std::to_string(row.healthy_delivered) + "/" +
             std::to_string(row.healthy_expected),
         std::to_string(row.victim_delivered), std::to_string(row.total_shed),
         std::to_string(row.expired_notices), std::to_string(row.quarantines),
         util::format_number(row.events_per_sec),
         util::format_number(double(row.peak_rss_kb) / 1024.0)});
    // The bench is its own oracle: a healthy-subscriber delivery gap or a
    // storm-induced lease expiry is a correctness failure, not a slow run.
    if (row.healthy_delivered != row.healthy_expected) {
      std::cerr << "A20 FAIL: healthy subscribers lost events at "
                << multiplier << "x (" << row.healthy_delivered << " != "
                << row.healthy_expected << ")\n";
      ok = false;
    }
    if (row.expired_notices != 0 || row.rejoins != 0) {
      std::cerr << "A20 FAIL: storm cost a lease at " << multiplier << "x ("
                << row.expired_notices << " expiries, " << row.rejoins
                << " rejoins)\n";
      ok = false;
    }
    rows.push_back(row);
  }
  table.print(std::cout);
  std::cout << "\nShape check: healthy delivery is exact at every "
               "multiplier; shedding concentrates on the stalled consumer "
               "and is fully accounted; expiries stay at zero.\n";

  std::ofstream json{"BENCH_overload.json"};
  json << "{\n  \"experiment\": \"A20\",\n  \"arms\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const A20Row& r = rows[i];
    json << "    {\"multiplier\": " << r.multiplier
         << ", \"published\": " << r.published
         << ", \"healthy_expected\": " << r.healthy_expected
         << ", \"healthy_delivered\": " << r.healthy_delivered
         << ", \"victim_delivered\": " << r.victim_delivered
         << ", \"total_shed\": " << r.total_shed
         << ", \"expired_notices\": " << r.expired_notices
         << ", \"rejoins\": " << r.rejoins
         << ", \"quarantines\": " << r.quarantines
         << ", \"events_per_sec\": " << r.events_per_sec
         << ", \"peak_rss_kb\": " << r.peak_rss_kb;
    for (std::size_t k = 0; k < health::kShedReasons; ++k) {
      // "grace pen evicted" -> "shed_grace_pen_evicted"
      std::string key{health::to_string(static_cast<health::ShedReason>(k))};
      std::replace(key.begin(), key.end(), ' ', '_');
      json << ", \"shed_" << key << "\": " << r.shed.by_reason[k];
    }
    json << "}" << (i + 1 == rows.size() ? "\n" : ",\n");
  }
  json << "  ]\n}\n";
  std::cout << "\nWrote BENCH_overload.json\n";
  return ok ? 0 : 1;
}
