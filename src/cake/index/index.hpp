// Filter matching engines.
//
// The paper's Fig. 6 evaluates every event against every filter in a
// node's table — kept here as `NaiveTable`, the reference implementation
// and the oracle the tests validate everything against. The paper defers
// "efficient indexing and matching techniques" to related work;
// `CountingIndex` is that technique: filters are decomposed into
// predicates, per-attribute hash/scan indexes find the satisfied
// predicates for an incoming event, and a counting pass reports the
// filters whose predicate count is fully satisfied. Both implement
// `MatchIndex`, so brokers and baselines can switch engines (A4 ablation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cake/filter/filter.hpp"
#include "cake/symbol/symbol.hpp"

namespace cake::index {

/// Stable handle for a filter inside one index.
using FilterId = std::size_t;

/// Per-caller matching state.
///
/// Engines that need working memory during a match — the counting pass of
/// `CountingIndex`, the shard-local id buffer of `ShardedIndex` — draw it
/// from here instead of from shared mutable members, so any number of
/// threads may match() against one index concurrently as long as each
/// passes its own scratch. A scratch is reusable across calls and across
/// indexes (it rebinds itself per index); it must not be shared between
/// threads. Long-lived matchers (brokers, the local bus) keep one per
/// owner/thread so the epoch trick below never has to re-clear.
class MatchScratch {
public:
  MatchScratch() = default;

private:
  friend class CountingIndex;
  friend class ShardedIndex;
  friend class AggregatedIndex;

  /// Predicate-hit counters for one counting index, epoch-stamped so a
  /// reused scratch needs no O(filters) clearing between matches. Stamp
  /// and count share a slot, so a bump touches one cache line.
  struct CountingState {
    struct Slot {
      std::uint64_t stamp = 0;
      std::uint32_t count = 0;
    };
    std::vector<Slot> slots;
    std::uint64_t epoch = 0;
  };

  /// State for `owner`, grown to cover `filters` entries. Kept per owner
  /// (bounded; reset wholesale past a small cap) so alternating matches
  /// against several indexes — e.g. one per shard — stay O(1) to rebind.
  CountingState& counting_for(const void* owner, std::size_t filters);

  std::unordered_map<const void*, CountingState> counting_;
  // CountingIndex: the event's type symbol, then its registered ancestors'.
  std::vector<symbol::Id> types_;
  std::vector<FilterId> shard_ids_;  // ShardedIndex: inner-id buffer
  std::vector<FilterId> agg_ids_;    // AggregatedIndex: group-rep id buffer
};

/// Incremental many-filters-to-one-event matcher.
///
/// Thread safety: concurrent match() calls against one index are safe when
/// every thread passes its own MatchScratch (the convenience overload uses
/// a thread-local one) — no engine mutates shared state while matching.
/// add() and remove() require external exclusion against everything else;
/// `ShardedIndex` lifts that restriction with internal per-shard locks.
class MatchIndex {
public:
  virtual ~MatchIndex() = default;

  /// Inserts a filter and returns its handle.
  virtual FilterId add(filter::ConjunctiveFilter filter) = 0;

  /// Removes a filter; removing an unknown id is a no-op.
  virtual void remove(FilterId id) = 0;

  /// Appends the ids of all filters matching `image` to `out` (cleared
  /// first), drawing working memory from `scratch`. Must agree exactly
  /// with ConjunctiveFilter::matches.
  virtual void match(const event::EventImage& image, std::vector<FilterId>& out,
                     MatchScratch& scratch) const = 0;

  /// Convenience: match with a per-thread scratch.
  void match(const event::EventImage& image, std::vector<FilterId>& out) const {
    thread_local MatchScratch scratch;
    match(image, out, scratch);
  }

  /// Number of live filters.
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// The filter stored under `id` (null if removed/unknown). The pointer
  /// is invalidated by the next add(); do not use it concurrently with
  /// writers.
  [[nodiscard]] virtual const filter::ConjunctiveFilter* find(FilterId id) const noexcept = 0;
};

/// Which engine a broker should use. `ShardedCounting` wraps one counting
/// index per event-class shard behind reader–writer locks (see sharded.hpp);
/// the others are single-table engines needing external synchronization.
enum class Engine { Naive, Counting, Trie, ShardedCounting };

/// Factory: builds an engine bound to `registry` for subtype tests.
[[nodiscard]] std::unique_ptr<MatchIndex> make_index(
    Engine engine,
    const reflect::TypeRegistry& registry = reflect::TypeRegistry::global());

/// Fig. 6: linear scan over the filter table.
class NaiveTable final : public MatchIndex {
public:
  explicit NaiveTable(const reflect::TypeRegistry& registry) : registry_(registry) {}

  using MatchIndex::match;
  FilterId add(filter::ConjunctiveFilter filter) override;
  void remove(FilterId id) override;
  void match(const event::EventImage& image, std::vector<FilterId>& out,
             MatchScratch& scratch) const override;
  [[nodiscard]] std::size_t size() const noexcept override { return live_; }
  [[nodiscard]] const filter::ConjunctiveFilter* find(FilterId id) const noexcept override;

private:
  const reflect::TypeRegistry& registry_;
  std::vector<std::optional<filter::ConjunctiveFilter>> slots_;
  std::size_t live_ = 0;
};

/// Predicate-counting matcher. Per attribute, equality constraints sit in
/// a hash index and numeric ranges in three lists ordered by operand (lone
/// lower bounds, windows, lone upper bounds), so a match visits only the
/// predicates the event satisfies, plus the windows that start within the
/// widest window span below the value and a short unsorted insert tail;
/// the other operators (Ne, Prefix, Regex, Exists, string and bool ranges)
/// sit on a per-attribute scan list. A filter's type test is not counted:
/// it is checked once its attribute predicates are all hit, against the
/// event's type and ancestors. Only filters with no attribute predicate sit
/// in per-type buckets. Removed filters are swept out of every list, and
/// their storage released, once they pass a fixed share of the live ones
/// (amortized O(1) per remove); ids never move.
class CountingIndex final : public MatchIndex {
public:
  explicit CountingIndex(const reflect::TypeRegistry& registry) : registry_(registry) {}

  using MatchIndex::match;
  FilterId add(filter::ConjunctiveFilter filter) override;
  void remove(FilterId id) override;
  void match(const event::EventImage& image, std::vector<FilterId>& out,
             MatchScratch& scratch) const override;
  [[nodiscard]] std::size_t size() const noexcept override { return live_; }
  [[nodiscard]] const filter::ConjunctiveFilter* find(FilterId id) const noexcept override;

  /// Number of filter-id slots across every candidate list, removed ids
  /// not yet swept out included (diagnostics: bounds the dead share).
  [[nodiscard]] std::size_t slot_count() const noexcept;

private:
  /// A numeric range on one attribute, holding for an event value `x` when
  /// `key` bounds it from below and `limit` from above. A lower bound
  /// (Ge/Gt) keys on its operand; a window (a lower bound followed by an
  /// upper one on the same attribute, or the reverse) adds the upper
  /// operand as its limit and counts as one predicate; a lone upper bound
  /// (Le/Lt) keys on its negated operand and is tested against -x.
  struct Range {
    double key = 0;
    double limit = std::numeric_limits<double>::infinity();
    FilterId id = 0;
    bool key_strict = false;    // fails at x == key (Gt, or Lt negated)
    bool limit_strict = false;  // fails at x == limit (Lt)
  };
  /// Ranges of one kind on one attribute. `run` is sorted by key, so the
  /// ranges whose key holds are a prefix of it; `tail` takes inserts
  /// unsorted, is scanned in full, and is merged into `run` once full.
  struct RangeList {
    std::vector<Range> run;
    std::vector<Range> tail;
    // Widest `limit - key` in `run`, rounded up, so no range of `run` holds
    // at x unless its key is at least x - span. Windows search from there;
    // for lone bounds, whose limit is open, it is infinite and unused.
    double span = 0;

    void insert(const Range& range);
    /// Drops the ranges of removed filters and recomputes `span`.
    template <class Dead>
    void sweep(const Dead& dead);
    [[nodiscard]] std::size_t size() const noexcept {
      return run.size() + tail.size();
    }
  };
  /// A constraint evaluated with `applies` on every event carrying it.
  struct Scan {
    filter::Op op = filter::Op::Any;
    value::Value operand;
    FilterId id = 0;
  };
  struct AttrIndex {
    // value -> filter ids with (attr == value)
    std::unordered_map<value::Value, std::vector<FilterId>> equals;
    RangeList lower;    // lone lower bounds, on x
    RangeList windows;  // windows, on x
    RangeList upper;    // lone upper bounds, on -x
    std::vector<Scan> other;
  };

  /// The type test of a filter, checked only once its count completes.
  /// Symbol 0 is the empty name, which accepts every type.
  struct TypeTest {
    symbol::Id symbol = 0;
    bool subtree = false;  // subtype-inclusive
  };
  /// One match's working set.
  struct Pass;

  // required_[id] for a removed filter: no count ever reaches it.
  static constexpr std::uint32_t kDead = std::numeric_limits<std::uint32_t>::max();

  void bump(FilterId id, Pass& pass) const;
  void bump_bounds(const RangeList& list, double x, Pass& pass) const;
  void bump_windows(const RangeList& list, double x, Pass& pass) const;
  void sweep();

  const reflect::TypeRegistry& registry_;
  std::vector<filter::ConjunctiveFilter> filters_;  // by id
  // Attribute index entries (each non-wildcard constraint, a window
  // counting once) each filter must hit, or kDead; 1 for a type-only
  // filter. Kept apart from the filters so the counting pass reads four
  // bytes per candidate.
  std::vector<std::uint32_t> required_;
  std::vector<TypeTest> type_tests_;  // by id
  std::size_t live_ = 0;
  std::vector<FilterId> removed_;  // dead ids the next sweep drops and frees
  std::vector<FilterId> accept_all_;  // filters with no predicate at all
  // All three tables key by interned symbol id: the match loop hashes one
  // u32 per attribute instead of a string (DESIGN.md §9).
  std::unordered_map<symbol::Id, AttrIndex> by_attribute_;
  // Filters whose only predicate is their type test, by type-name symbol:
  // exact tests on it, and subtype-inclusive ones rooted at it.
  std::unordered_map<symbol::Id, std::vector<FilterId>> exact_type_;
  std::unordered_map<symbol::Id, std::vector<FilterId>> subtree_type_;
};

/// Discrimination-tree matcher specialized for the equality-heavy,
/// standard-form filters the weakening pipeline produces.
///
/// Each filter's equality constraints (in filter order) form a path of
/// (attribute, value) edges; filters sharing prefixes — e.g. thousands of
/// (year, conference, author, title) subscriptions over a skewed universe
/// — share tree structure, so matching cost tracks the number of
/// *distinct matching prefixes*, not the number of filters. Non-equality
/// constraints and the type test are verified on the terminal candidates
/// (the tree is a sound, complete candidate pre-filter: an equality
/// constraint on an attribute the event lacks or differs on can never
/// match, so pruned subtrees contain no matching filters).
class TrieIndex final : public MatchIndex {
public:
  explicit TrieIndex(const reflect::TypeRegistry& registry) : registry_(registry) {}

  using MatchIndex::match;
  FilterId add(filter::ConjunctiveFilter filter) override;
  void remove(FilterId id) override;
  void match(const event::EventImage& image, std::vector<FilterId>& out,
             MatchScratch& scratch) const override;
  [[nodiscard]] std::size_t size() const noexcept override { return live_; }
  [[nodiscard]] const filter::ConjunctiveFilter* find(FilterId id) const noexcept override;

  /// Number of tree nodes (diagnostics: structure sharing across filters).
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

private:
  struct EdgeKey {
    symbol::Id attribute = 0;  // interned: integer compare, no string hash
    value::Value operand;
    [[nodiscard]] bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeKeyHash {
    std::size_t operator()(const EdgeKey& key) const noexcept {
      return std::hash<symbol::Id>{}(key.attribute) * 1315423911u ^
             key.operand.hash();
    }
  };
  struct Node {
    std::unordered_map<EdgeKey, std::size_t, EdgeKeyHash> edges;  // -> node idx
    std::vector<FilterId> terminal;  // filters whose Eq-path ends here
  };
  struct Entry {
    filter::ConjunctiveFilter filter;
    bool alive = true;
  };

  /// The node ending `filter`'s equality path, creating missing nodes.
  std::size_t insert_path(const filter::ConjunctiveFilter& filter);
  void match_node(std::size_t node_index, const event::EventImage& image,
                  std::vector<FilterId>& out) const;
  void sweep();

  const reflect::TypeRegistry& registry_;
  std::vector<Node> nodes_{1};  // nodes_[0] is the root
  std::vector<Entry> entries_;
  std::size_t live_ = 0;
  // Dead ids still on terminal lists and holding their filter; once they
  // pass a fixed share of the live filters they are released and the tree
  // is rebuilt from the live ones.
  std::vector<FilterId> removed_;
};

}  // namespace cake::index
