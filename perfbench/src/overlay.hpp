// Public counters and layer bookkeeping shared by the overlay workloads.
#pragma once

#include "cake/routing/overlay.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Public counters of the whole overlay, summed over its nodes. Exact only
/// at quiescence on the threaded backend.
struct Counters {
  std::uint64_t messages = 0, bytes = 0, undeliverable = 0, help_drained = 0;
  std::uint64_t broker_received = 0, broker_forwarded = 0, broker_control = 0;
  std::uint64_t sub_received = 0, sub_delivered = 0, join_redirects = 0;
  std::uint64_t exact_calls = 0;  ///< Σ events received × subscriptions held
  std::uint64_t subscriptions = 0;  ///< subscriptions held now
  link::LinkCounters link;

  static Counters read(routing::Overlay& overlay);
};

/// Counter snapshot taken when a traced phase starts.
struct OverlayTrace {
  Counters before;
  std::vector<std::uint64_t> broker_received_before;

  void start(routing::Overlay& overlay);
  /// Per-broker tables and their match-call weights over the traced phase.
  void tables(routing::Overlay& overlay, LayerInputs& in) const;
};

/// Layer metrics common to the overlay workloads; charges the event and
/// control paths to `a`. Counts are the traced phase's, except that with
/// `setup` (counters read right after the set-up) the join-hop and control
/// figures are per subscription of the set-up.
void put_overlay_layers(routing::Overlay& overlay, const OverlayTrace& trace,
                        const UnitCosts& u, const LayerInputs& in,
                        std::uint64_t events, std::uint64_t replaces,
                        std::uint64_t subscribes, const Counters* setup,
                        Attribution& a, Result& r);

}  // namespace perfbench
