#include <algorithm>

#include "overlay.hpp"

namespace perfbench {

Counters Counters::read(routing::Overlay& overlay) {
  Counters c;
  sim::Network& net = overlay.network();
  c.messages = net.total_messages();
  c.bytes = net.total_bytes();
  c.undeliverable = net.undeliverable();
  c.help_drained = net.help_drained();
  for (const auto& broker : overlay.brokers()) {
    const routing::BrokerStats s = broker->stats();
    c.broker_received += s.events_received;
    c.broker_forwarded += s.events_forwarded;
    c.broker_control += s.control_received;
  }
  for (const auto& sub : overlay.subscribers()) {
    const routing::SubscriberStats& s = sub->stats();
    c.sub_received += s.events_received;
    c.sub_delivered += s.events_delivered;
    c.join_redirects += s.join_redirects;
    c.exact_calls += s.events_received * sub->subscriptions();
    c.subscriptions += sub->subscriptions();
  }
  c.link = overlay.link_counters();
  return c;
}

void OverlayTrace::start(routing::Overlay& overlay) {
  before = Counters::read(overlay);
  broker_received_before.clear();
  for (const auto& broker : overlay.brokers())
    broker_received_before.push_back(broker->stats().events_received);
}

void OverlayTrace::tables(routing::Overlay& overlay, LayerInputs& in) const {
  std::size_t b = 0;
  for (const auto& broker : overlay.brokers()) {
    std::vector<filter::ConjunctiveFilter> table;
    for (auto& [f, children] : broker->table()) table.push_back(f);
    in.tables.push_back(std::move(table));
    in.table_weights.push_back(static_cast<double>(
        broker->stats().events_received - broker_received_before[b++]));
  }
}

void put_overlay_layers(routing::Overlay& overlay, const OverlayTrace& trace,
                        const UnitCosts& u, const LayerInputs& in,
                        std::uint64_t events, std::uint64_t replaces,
                        std::uint64_t subscribes, const Counters* setup,
                        Attribution& a, Result& r) {
  const Counters now = Counters::read(overlay);
  const Counters& was = trace.before;
  const double ev = std::max<double>(1.0, static_cast<double>(events));
  const double ops = std::max<double>(1.0, static_cast<double>(replaces));
  const double subs = std::max<double>(1.0, static_cast<double>(subscribes));
  const double broker_rx = double(now.broker_received - was.broker_received);
  const double sub_rx = double(now.sub_received - was.sub_received);

  r.put("wire.bytes_per_event", double(now.bytes - was.bytes) / ev, "B");
  r.put("sim.messages_per_event", double(now.messages - was.messages) / ev,
        "count");
  std::size_t filters_max = 0;
  for (const auto& t : in.tables) filters_max = std::max(filters_max, t.size());
  r.put("index.filters_max", double(filters_max), "count");
  const double delivered = double(now.sub_delivered - was.sub_delivered);
  r.put("routing.matching_rate", sub_rx > 0 ? delivered / sub_rx : 0.0,
        "ratio");
  r.put("routing.broker_visits_per_event", broker_rx / ev, "count");
  r.put("routing.forwards_per_event",
        double(now.broker_forwarded - was.broker_forwarded) / ev, "count");
  if (setup != nullptr) {
    const double held =
        std::max<double>(1.0, static_cast<double>(setup->subscriptions));
    r.put("routing.join_hops_per_op", double(setup->join_redirects) / held,
          "count");
    r.put("routing.control_per_op", double(setup->broker_control) / held,
          "count");
  } else {
    r.put("routing.join_hops_per_op",
          double(now.join_redirects - was.join_redirects) / subs, "count");
    r.put("routing.control_per_op",
          replaces == 0 ? 0.0
                        : double(now.broker_control - was.broker_control) / ops,
          "count");
  }
  const double data = double(now.link.data_sent - was.link.data_sent);
  r.put("link.acks_per_frame",
        data > 0 ? double(now.link.acks_sent - was.link.acks_sent) / data : 0.0,
        "ratio");
  r.put("link.retransmits", double(now.link.retransmits - was.link.retransmits),
        "count");
  r.put("link.credit_stalls",
        double(now.link.credit_stalls - was.link.credit_stalls), "count");
  r.put("sim.help_drained", double(now.help_drained - was.help_drained),
        "count");
  r.put("sim.undeliverable", double(now.undeliverable - was.undeliverable),
        "count");

  // Event path: one encode per publish, one decode per hop received, one
  // match per broker visit, every held exact filter per subscriber receive.
  a.charge(double(events), u.encode_ns);
  a.charge(broker_rx + sub_rx, u.decode_ns);
  double match_calls = 0;
  for (double w : in.table_weights) match_calls += w;
  a.charge(match_calls, u.match_ns);
  a.charge(double(now.exact_calls - was.exact_calls), u.exact_ns);
  // Control path: a subscribe weakens and inserts once per broker stage,
  // an unsubscribe removes once per stage.
  const double stages = double(in.stages);
  a.charge(double(subscribes) * stages, u.weaken_ns + u.add_ns);
  a.charge(double(replaces) * stages, u.remove_ns);
}

}  // namespace perfbench
