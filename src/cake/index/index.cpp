#include "cake/index/index.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cake/index/sharded.hpp"

namespace cake::index {

std::unique_ptr<MatchIndex> make_index(Engine engine,
                                       const reflect::TypeRegistry& registry) {
  switch (engine) {
    case Engine::Naive: return std::make_unique<NaiveTable>(registry);
    case Engine::Counting: return std::make_unique<CountingIndex>(registry);
    case Engine::Trie: return std::make_unique<TrieIndex>(registry);
    case Engine::ShardedCounting:
      return std::make_unique<ShardedIndex>(Engine::Counting, registry);
  }
  return std::make_unique<NaiveTable>(registry);
}

MatchScratch::CountingState& MatchScratch::counting_for(const void* owner,
                                                        std::size_t filters) {
  // Bound the per-owner cache: a scratch that has visited many short-lived
  // indexes sheds them all at once rather than leaking state forever.
  if (counting_.size() > 64 && !counting_.contains(owner)) counting_.clear();
  CountingState& state = counting_[owner];
  if (state.slots.size() < filters) {
    // New slots get stamp 0; epoch is always ≥ 1 by the time they are
    // read, so they can never alias a live count.
    state.slots.resize(filters);
  }
  return state;
}

FilterId NaiveTable::add(filter::ConjunctiveFilter filter) {
  slots_.emplace_back(std::move(filter));
  ++live_;
  return slots_.size() - 1;
}

void NaiveTable::remove(FilterId id) {
  if (id < slots_.size() && slots_[id].has_value()) {
    slots_[id].reset();
    --live_;
  }
}

void NaiveTable::match(const event::EventImage& image, std::vector<FilterId>& out,
                       MatchScratch&) const {
  out.clear();
  for (FilterId id = 0; id < slots_.size(); ++id) {
    if (slots_[id].has_value() && slots_[id]->matches(image, registry_))
      out.push_back(id);
  }
}

const filter::ConjunctiveFilter* NaiveTable::find(FilterId id) const noexcept {
  if (id >= slots_.size() || !slots_[id].has_value()) return nullptr;
  return &*slots_[id];
}

namespace {

// Ranges an `add` leaves unsorted before they are merged into the sorted
// run. A match scans the tail in full, so it stays short; keeping every
// insert sorted instead would cost each add a search and a shift.
constexpr std::size_t kRangeTail = 32;

// Removed ids are swept out once they outnumber half the live filters. A
// match then walks at most one dead slot per two live ones, and each sweep,
// linear in the lists, is paid for by the removals since the last one.
bool sweep_due(std::size_t dead, std::size_t live) noexcept {
  return dead * 2 > live;
}

bool is_lower(filter::Op op) noexcept {
  return op == filter::Op::Ge || op == filter::Op::Gt;
}

bool is_strict(filter::Op op) noexcept {
  return op == filter::Op::Gt || op == filter::Op::Lt;
}

// The operand of a range constraint (Ge/Gt/Le/Lt) with a numeric operand,
// which the range lists index; nullopt for every other constraint.
std::optional<double> numeric_bound(const filter::AttributeConstraint& c) noexcept {
  switch (c.op) {
    case filter::Op::Ge:
    case filter::Op::Gt:
    case filter::Op::Le:
    case filter::Op::Lt:
      return c.operand.as_number();
    default:
      return std::nullopt;
  }
}

// Raises `span` to at least `limit - key`, rounded up, so a window holding
// at x still has key ≥ x - span once x - span is rounded to nearest
// (rounding is monotone). NaN, from [inf, inf] or [-inf, -inf], never
// raises it: those windows hold only at x == key.
void widen(double& span, double key, double limit) noexcept {
  const double s =
      std::nextafter(limit - key, std::numeric_limits<double>::infinity());
  if (s > span) span = s;
}

}  // namespace

struct CountingIndex::Pass {
  MatchScratch::CountingState& state;
  const std::vector<symbol::Id>& types;  // event type, then its ancestors
  std::vector<FilterId>& out;

  [[nodiscard]] bool accepts(TypeTest test) const noexcept {
    if (test.symbol == 0) return true;
    if (!test.subtree) return test.symbol == types.front();
    return std::find(types.begin(), types.end(), test.symbol) != types.end();
  }
};

void CountingIndex::RangeList::insert(const Range& range) {
  tail.push_back(range);
  if (tail.size() <= kRangeTail) return;
  const auto by_key = [](const Range& a, const Range& b) { return a.key < b.key; };
  std::sort(tail.begin(), tail.end(), by_key);
  for (const Range& r : tail) widen(span, r.key, r.limit);
  const std::size_t sorted = run.size();
  run.insert(run.end(), tail.begin(), tail.end());
  std::inplace_merge(run.begin(), run.begin() + static_cast<std::ptrdiff_t>(sorted),
                     run.end(), by_key);
  tail.clear();
}

template <class Dead>
void CountingIndex::RangeList::sweep(const Dead& dead) {
  const auto dead_range = [&dead](const Range& r) { return dead(r.id); };
  std::erase_if(run, dead_range);
  std::erase_if(tail, dead_range);
  span = 0;
  for (const Range& r : run) widen(span, r.key, r.limit);
}

FilterId CountingIndex::add(filter::ConjunctiveFilter filter) {
  const FilterId id = filters_.size();
  std::uint32_t required = 0;

  const auto& constraints = filter.constraints();
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    const auto& constraint = constraints[i];
    if (constraint.is_wildcard()) continue;  // trivially satisfied
    ++required;
    AttrIndex& attr_index = by_attribute_[symbol::intern(constraint.name).id];
    if (constraint.op == filter::Op::Eq) {
      attr_index.equals[constraint.operand].push_back(id);
      continue;
    }
    const std::optional<double> bound = numeric_bound(constraint);
    if (!bound) {
      attr_index.other.push_back({constraint.op, constraint.operand, id});
      continue;
    }
    // A NaN operand orders against nothing: leaving it out of the lists
    // means the predicate is never bumped and the filter never matches.
    if (std::isnan(*bound)) continue;
    const bool lower = is_lower(constraint.op);
    const bool strict = is_strict(constraint.op);
    // A window: the next constraint bounds the same attribute from the
    // other side, and the pair becomes one range.
    if (i + 1 < constraints.size()) {
      const auto& next = constraints[i + 1];
      const std::optional<double> end = numeric_bound(next);
      if (end && !std::isnan(*end) && is_lower(next.op) != lower &&
          next.name == constraint.name) {
        attr_index.windows.insert(
            lower ? Range{*bound, *end, id, strict, is_strict(next.op)}
                  : Range{*end, *bound, id, is_strict(next.op), strict});
        ++i;
        continue;
      }
    }
    if (lower)
      attr_index.lower.insert({.key = *bound, .id = id, .key_strict = strict});
    else
      attr_index.upper.insert({.key = -*bound, .id = id, .key_strict = strict});
  }

  const auto& type = filter.type();
  TypeTest test;
  if (!type.accepts_all())
    test = {symbol::intern(type.name).id, type.include_subtypes};
  if (required == 0) {
    if (test.symbol == 0) {
      accept_all_.push_back(id);
    } else {
      // Type-only: the bucket lookup is the whole test.
      (test.subtree ? subtree_type_ : exact_type_)[test.symbol].push_back(id);
      required = 1;
    }
  }

  filters_.push_back(std::move(filter));
  required_.push_back(required);
  type_tests_.push_back(test);
  ++live_;
  return id;
}

void CountingIndex::remove(FilterId id) {
  if (id >= required_.size() || required_[id] == kDead) return;
  required_[id] = kDead;
  removed_.push_back(id);
  --live_;
  if (sweep_due(removed_.size(), live_)) sweep();
}

void CountingIndex::sweep() {
  const auto dead = [this](FilterId id) { return required_[id] == kDead; };
  // Sweeps every id list of `table`, dropping buckets left empty.
  const auto sweep_ids = [&dead](auto& table) {
    for (auto it = table.begin(); it != table.end();) {
      std::erase_if(it->second, dead);
      it = it->second.empty() ? table.erase(it) : std::next(it);
    }
  };

  std::erase_if(accept_all_, dead);
  sweep_ids(exact_type_);
  sweep_ids(subtree_type_);
  for (auto it = by_attribute_.begin(); it != by_attribute_.end();) {
    AttrIndex& index = it->second;
    sweep_ids(index.equals);
    for (RangeList* list : {&index.lower, &index.windows, &index.upper})
      list->sweep(dead);
    std::erase_if(index.other, [&dead](const Scan& s) { return dead(s.id); });
    const bool empty = index.equals.empty() && index.lower.size() == 0 &&
                       index.windows.size() == 0 && index.upper.size() == 0 &&
                       index.other.empty();
    it = empty ? by_attribute_.erase(it) : std::next(it);
  }
  // Release the removed filters' storage in one batch: their memory is
  // usually cold, and a release per remove would pay its misses one by one.
  for (const FilterId id : removed_)
    (void)std::exchange(filters_[id], filter::ConjunctiveFilter{});
  removed_.clear();
}

std::size_t CountingIndex::slot_count() const noexcept {
  const auto ids = [](const auto& table) {
    std::size_t n = 0;
    for (const auto& bucket : table) n += bucket.second.size();
    return n;
  };
  std::size_t slots = accept_all_.size() + ids(exact_type_) + ids(subtree_type_);
  for (const auto& [attr, index] : by_attribute_) {
    slots += ids(index.equals) + index.lower.size() + index.windows.size() +
             index.upper.size() + index.other.size();
  }
  return slots;
}

void CountingIndex::bump(FilterId id, Pass& pass) const {
  MatchScratch::CountingState::Slot& slot = pass.state.slots[id];
  if (slot.stamp != pass.state.epoch) {
    slot.stamp = pass.state.epoch;
    slot.count = 0;
  }
  if (++slot.count == required_[id] && pass.accepts(type_tests_[id]))
    pass.out.push_back(id);
}

void CountingIndex::bump_bounds(const RangeList& list, double x, Pass& pass) const {
  // Every bound before the first key above x holds, bar a strict one at x.
  for (const Range& r : list.run) {
    if (r.key > x) break;
    if (r.key < x || !r.key_strict) bump(r.id, pass);
  }
  for (const Range& r : list.tail)
    if (r.key < x || (r.key == x && !r.key_strict)) bump(r.id, pass);
}

void CountingIndex::bump_windows(const RangeList& list, double x, Pass& pass) const {
  const auto holds = [x](const Range& r) {
    return (r.key < x || (r.key == x && !r.key_strict)) &&
           (x < r.limit || (x == r.limit && !r.limit_strict));
  };
  // No window of the run starting below x - span reaches x. A NaN start
  // (x and the span both infinite) compares false and scans from the front.
  const double from = x - list.span;
  const auto first = std::partition_point(
      list.run.begin(), list.run.end(), [from](const Range& r) { return r.key < from; });
  for (auto it = first; it != list.run.end() && it->key <= x; ++it)
    if (holds(*it)) bump(it->id, pass);
  for (const Range& r : list.tail)
    if (holds(r)) bump(r.id, pass);
}

void CountingIndex::match(const event::EventImage& image,
                          std::vector<FilterId>& out,
                          MatchScratch& scratch) const {
  out.clear();
  // The event's type, then every registered ancestor: the symbols a type
  // test can name and still hold. All lookups are by interned symbol id —
  // integer hashes, no strings. An unregistered type has no ancestors, but
  // a subtree rooted at exactly its name still matches (conformance is
  // reflexive).
  std::vector<symbol::Id>& types = scratch.types_;
  types.assign(1, image.type_id());
  if (const reflect::TypeInfo* type = registry_.find(image.type_id()))
    for (const reflect::TypeInfo* anc = type->parent(); anc != nullptr;
         anc = anc->parent())
      types.push_back(anc->symbol().id);
  Pass pass{scratch.counting_for(this, required_.size()), types, out};
  ++pass.state.epoch;

  const auto push_live = [this, &out](const std::vector<FilterId>& ids) {
    for (const FilterId id : ids)
      if (required_[id] != kDead) out.push_back(id);
  };
  // Filters with no non-trivial predicate match everything; type-only ones
  // match when their bucket is the event's type or, subtype-inclusive, any
  // of its ancestors.
  push_live(accept_all_);
  if (const auto it = exact_type_.find(types.front()); it != exact_type_.end())
    push_live(it->second);
  for (const symbol::Id type : types)
    if (const auto it = subtree_type_.find(type); it != subtree_type_.end())
      push_live(it->second);

  // Attribute predicates.
  for (const auto& attr : image.attributes()) {
    const auto it = by_attribute_.find(attr.id);
    if (it == by_attribute_.end()) continue;
    const AttrIndex& attr_index = it->second;
    if (const auto eq = attr_index.equals.find(attr.value);
        eq != attr_index.equals.end()) {
      for (const FilterId id : eq->second) bump(id, pass);
    }
    // Numeric bounds hold only for numeric values, and never for NaN
    // (Value::compare).
    if (const std::optional<double> x = attr.value.as_number();
        x && !std::isnan(*x)) {
      bump_bounds(attr_index.lower, *x, pass);
      bump_windows(attr_index.windows, *x, pass);
      bump_bounds(attr_index.upper, -*x, pass);
    }
    for (const Scan& scan : attr_index.other) {
      if (applies(scan.op, attr.value, scan.operand)) bump(scan.id, pass);
    }
  }
}

const filter::ConjunctiveFilter* CountingIndex::find(FilterId id) const noexcept {
  if (id >= required_.size() || required_[id] == kDead) return nullptr;
  return &filters_[id];
}

std::size_t TrieIndex::insert_path(const filter::ConjunctiveFilter& filter) {
  std::size_t node = 0;  // root
  for (const auto& constraint : filter.constraints()) {
    if (constraint.op != filter::Op::Eq) continue;  // residual-checked later
    EdgeKey key{symbol::intern(constraint.name).id, constraint.operand};
    const auto it = nodes_[node].edges.find(key);
    if (it != nodes_[node].edges.end()) {
      node = it->second;
    } else {
      nodes_.emplace_back();
      const std::size_t child = nodes_.size() - 1;
      nodes_[node].edges.emplace(std::move(key), child);
      node = child;
    }
  }
  return node;
}

FilterId TrieIndex::add(filter::ConjunctiveFilter filter) {
  const FilterId id = entries_.size();
  nodes_[insert_path(filter)].terminal.push_back(id);
  entries_.push_back(Entry{std::move(filter), true});
  ++live_;
  return id;
}

void TrieIndex::remove(FilterId id) {
  if (id >= entries_.size() || !entries_[id].alive) return;
  entries_[id].alive = false;
  removed_.push_back(id);
  --live_;
  if (sweep_due(removed_.size(), live_)) sweep();
}

void TrieIndex::sweep() {
  for (const FilterId id : removed_)
    (void)std::exchange(entries_[id].filter, filter::ConjunctiveFilter{});
  removed_.clear();
  // Rebuild the tree from the live filters alone, found on the old tree's
  // terminal lists: paths only removed filters used go with them, so the
  // tree never outgrows the table, and the pass is linear in the old tree.
  const std::vector<Node> old = std::exchange(nodes_, std::vector<Node>(1));
  for (const Node& node : old) {
    for (const FilterId id : node.terminal)
      if (entries_[id].alive)
        nodes_[insert_path(entries_[id].filter)].terminal.push_back(id);
  }
}

void TrieIndex::match_node(std::size_t node_index, const event::EventImage& image,
                           std::vector<FilterId>& out) const {
  const Node& node = nodes_[node_index];
  for (const FilterId id : node.terminal) {
    // The trie guarantees every Eq constraint holds; verify the type test
    // and residual (non-Eq) constraints on the full filter. Re-checking
    // the Eq constraints costs little and keeps this obviously correct.
    if (entries_[id].alive && entries_[id].filter.matches(image, registry_))
      out.push_back(id);
  }
  if (node.edges.empty()) return;
  for (const auto& attr : image.attributes()) {
    const auto it = node.edges.find(EdgeKey{attr.id, attr.value});
    if (it != node.edges.end()) match_node(it->second, image, out);
  }
}

void TrieIndex::match(const event::EventImage& image, std::vector<FilterId>& out,
                      MatchScratch&) const {
  out.clear();
  match_node(0, image, out);
}

const filter::ConjunctiveFilter* TrieIndex::find(FilterId id) const noexcept {
  if (id >= entries_.size() || !entries_[id].alive) return nullptr;
  return &entries_[id].filter;
}

}  // namespace cake::index
