// Bounded drop-oldest pens (DESIGN.md §15) and the per-reason shed counts
// their evictions charge. Id pens (dedup windows) carry no reason:
// forgetting an id loses no event.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <numeric>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <utility>

namespace cake::health {

/// Why an event was intentionally lost: one row of the conservation ledger.
enum class ShedReason : std::uint8_t {
  LinkQueue,      ///< link tx queue full, drop-newest (the link layer's own)
  GracePen,       ///< zero-match grace pen full
  QuarantinePen,  ///< slow-child quarantine pen full
  StallInbox,     ///< stalled-consumer inbox full
  DurableBuffer,  ///< detached durable subscriber's buffer full (keep last)
};
inline constexpr std::size_t kShedReasons =
    static_cast<std::size_t>(ShedReason::DurableBuffer) + 1;

/// The ledger label of `reason` ("grace pen evicted", ...).
[[nodiscard]] constexpr std::string_view to_string(ShedReason reason) noexcept {
  switch (reason) {
    case ShedReason::LinkQueue: return "link queue full";
    case ShedReason::GracePen: return "grace pen evicted";
    case ShedReason::QuarantinePen: return "quarantine pen evicted";
    case ShedReason::StallInbox: return "stall inbox evicted";
    case ShedReason::DurableBuffer: return "durable buffer evicted";
  }
  return "?";
}

/// Events shed per reason: one node's, or a whole overlay's summed.
struct ShedCounts {
  std::array<std::uint64_t, kShedReasons> by_reason{};

  std::uint64_t& operator[](ShedReason r) noexcept {
    return by_reason[static_cast<std::size_t>(r)];
  }
  std::uint64_t operator[](ShedReason r) const noexcept {
    return by_reason[static_cast<std::size_t>(r)];
  }
  ShedCounts& operator+=(const ShedCounts& other) noexcept {
    for (std::size_t i = 0; i < kShedReasons; ++i)
      by_reason[i] += other.by_reason[i];
    return *this;
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    return std::accumulate(by_reason.begin(), by_reason.end(), std::uint64_t{0});
  }
};

/// FIFO of at most `capacity` elements; a push into a full pen evicts the
/// oldest. Capacity 0 keeps nothing: every push evicts itself.
template <typename T>
class BoundedPen {
public:
  BoundedPen() = default;
  explicit BoundedPen(std::size_t capacity) : capacity_(capacity) {}
  /// A frame pen: each eviction is also charged to `shed[reason]`, which
  /// outlives the pen (a buffer erased on Resume, pens wiped by a crash).
  BoundedPen(std::size_t capacity, ShedCounts& shed, ShedReason reason)
      : capacity_(capacity), charge_(&shed[reason]) {}

  /// Appends `value`; returns the element evicted to make room, if any.
  std::optional<T> push(T value) {
    items_.push_back(std::move(value));
    if (items_.size() <= capacity_) return std::nullopt;
    ++evicted_;
    if (charge_ != nullptr) ++*charge_;
    return pop();
  }
  /// Removes and returns the oldest element (a drain, not an eviction).
  T pop() {
    T oldest = std::move(items_.front());
    items_.pop_front();
    return oldest;
  }
  /// Moves every element out, oldest first; the pen stays usable.
  std::deque<T> take() { return std::exchange(items_, {}); }
  void clear() noexcept { items_.clear(); }

  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Evictions over this pen's lifetime.
  [[nodiscard]] std::uint64_t evicted() const noexcept { return evicted_; }
  [[nodiscard]] auto begin() const noexcept { return items_.begin(); }
  [[nodiscard]] auto end() const noexcept { return items_.end(); }

private:
  std::deque<T> items_;  // oldest first
  std::size_t capacity_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t* charge_ = nullptr;  // frame pens: the node's reason slot
};

/// Remembers the last `capacity` distinct keys (a bounded dedup window);
/// a key that fell out of the window is new again.
template <typename K, typename Hash = std::hash<K>>
class SeenSet {
public:
  explicit SeenSet(std::size_t capacity) : order_(capacity) {}

  /// True when `key` is new (and now remembered); false for a repeat.
  bool insert(const K& key) {
    if (!index_.insert(key).second) return false;
    if (const std::optional<K> oldest = order_.push(key)) index_.erase(*oldest);
    return true;
  }
  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }

private:
  std::unordered_set<K, Hash> index_;
  BoundedPen<K> order_;  // the same keys, oldest first
};

}  // namespace cake::health
