// Unit + oracle tests for matching engines: the counting index must agree
// exactly with the naive Fig. 6 table on randomized workloads.
#include "cake/index/index.hpp"

#include <gtest/gtest.h>

#include "cake/index/sharded.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cake/event/event.hpp"
#include "cake/util/rng.hpp"
#include "cake/workload/generators.hpp"

namespace cake::index {
namespace {

using event::EventImage;
using event::image_of;
using filter::ConjunctiveFilter;
using filter::FilterBuilder;
using filter::Op;
using value::Value;
using workload::Auction;
using workload::CarAuction;
using workload::Stock;
using workload::VehicleAuction;

class IndexTest : public ::testing::TestWithParam<Engine> {
protected:
  void SetUp() override {
    workload::ensure_types_registered();
    index_ = make_index(GetParam());
  }

  std::vector<FilterId> match(const EventImage& image) {
    std::vector<FilterId> out;
    index_->match(image, out);
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<MatchIndex> index_;
};

TEST_P(IndexTest, EmptyIndexMatchesNothing) {
  EXPECT_TRUE(match(image_of(Stock{"Foo", 1.0, 1})).empty());
  EXPECT_EQ(index_->size(), 0u);
}

TEST_P(IndexTest, SingleEqualityFilter) {
  const FilterId id = index_->add(
      FilterBuilder{"Stock"}.where("symbol", Op::Eq, Value{"Foo"}).build());
  EXPECT_EQ(match(image_of(Stock{"Foo", 1.0, 1})), std::vector<FilterId>{id});
  EXPECT_TRUE(match(image_of(Stock{"Bar", 1.0, 1})).empty());
}

TEST_P(IndexTest, ConjunctionRequiresAllPredicates) {
  const FilterId id = index_->add(FilterBuilder{"Stock"}
                                      .where("symbol", Op::Eq, Value{"Foo"})
                                      .where("price", Op::Lt, Value{10.0})
                                      .build());
  EXPECT_EQ(match(image_of(Stock{"Foo", 9.0, 1})), std::vector<FilterId>{id});
  EXPECT_TRUE(match(image_of(Stock{"Foo", 11.0, 1})).empty());
  EXPECT_TRUE(match(image_of(Stock{"Bar", 9.0, 1})).empty());
}

TEST_P(IndexTest, AcceptAllFilterMatchesEverything) {
  const FilterId id = index_->add(ConjunctiveFilter::accept_all());
  EXPECT_EQ(match(image_of(Stock{"Foo", 1.0, 1})), std::vector<FilterId>{id});
  EXPECT_EQ(match(EventImage{"Ghost", {}}), std::vector<FilterId>{id});
}

TEST_P(IndexTest, SubtypeInclusiveTypeFilter) {
  const FilterId id = index_->add(FilterBuilder{"Auction", true}.build());
  EXPECT_EQ(match(image_of(CarAuction{1.0, 2, 4})), std::vector<FilterId>{id});
  EXPECT_EQ(match(image_of(Auction{"Estate", 1.0})), std::vector<FilterId>{id});
  EXPECT_TRUE(match(image_of(Stock{"Foo", 1.0, 1})).empty());
}

TEST_P(IndexTest, ExactTypeFilterRejectsSubtypes) {
  const FilterId id = index_->add(FilterBuilder{"Auction", false}.build());
  EXPECT_EQ(match(image_of(Auction{"Estate", 1.0})), std::vector<FilterId>{id});
  EXPECT_TRUE(match(image_of(VehicleAuction{1.0, "Van", 3})).empty());
}

TEST_P(IndexTest, RemoveStopsMatching) {
  const FilterId id = index_->add(
      FilterBuilder{"Stock"}.where("symbol", Op::Eq, Value{"Foo"}).build());
  index_->remove(id);
  EXPECT_TRUE(match(image_of(Stock{"Foo", 1.0, 1})).empty());
  EXPECT_EQ(index_->size(), 0u);
  EXPECT_EQ(index_->find(id), nullptr);
  index_->remove(id);  // idempotent
  index_->remove(12345);
}

TEST_P(IndexTest, FindReturnsStoredFilter) {
  const ConjunctiveFilter f =
      FilterBuilder{"Stock"}.where("price", Op::Gt, Value{5.0}).build();
  const FilterId id = index_->add(f);
  ASSERT_NE(index_->find(id), nullptr);
  EXPECT_EQ(*index_->find(id), f);
}

TEST_P(IndexTest, DuplicateRangeConstraintsOnOneAttribute) {
  const FilterId id = index_->add(FilterBuilder{"Stock"}
                                      .where("price", Op::Gt, Value{5.0})
                                      .where("price", Op::Lt, Value{10.0})
                                      .build());
  EXPECT_EQ(match(image_of(Stock{"X", 7.0, 1})), std::vector<FilterId>{id});
  EXPECT_TRUE(match(image_of(Stock{"X", 4.0, 1})).empty());
  EXPECT_TRUE(match(image_of(Stock{"X", 12.0, 1})).empty());
}

TEST_P(IndexTest, WildcardConstraintsAreTriviallySatisfied) {
  const FilterId id = index_->add(FilterBuilder{"Stock"}
                                      .where("symbol", Op::Eq, Value{"Foo"})
                                      .where("price", Op::Any)
                                      .build());
  EXPECT_EQ(match(image_of(Stock{"Foo", 1e9, 1})), std::vector<FilterId>{id});
}

TEST_P(IndexTest, ManyFiltersSelectSubset) {
  std::vector<FilterId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(index_->add(FilterBuilder{"Stock"}
                                  .where("price", Op::Lt, Value{double(i)})
                                  .build()));
  }
  const auto matched = match(image_of(Stock{"Foo", 9.5, 1}));
  // prices 10..19 are above 9.5
  std::vector<FilterId> expected(ids.begin() + 10, ids.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(matched, expected);
}

// A Stock image carrying only `price = v`, of any kind.
EventImage priced(Value v) { return EventImage{"Stock", {{"price", std::move(v)}}}; }

FilterId add_bound(MatchIndex& index, Op op, Value operand) {
  return index.add(
      FilterBuilder{"Stock"}.where("price", op, std::move(operand)).build());
}

TEST_P(IndexTest, RangeBoundsExactlyAtTheOperand) {
  const FilterId gt = add_bound(*index_, Op::Gt, Value{5.0});
  const FilterId ge = add_bound(*index_, Op::Ge, Value{5.0});
  const FilterId lt = add_bound(*index_, Op::Lt, Value{5.0});
  const FilterId le = add_bound(*index_, Op::Le, Value{5.0});
  EXPECT_EQ(match(priced(Value{5.0})), (std::vector<FilterId>{ge, le}));
  EXPECT_EQ(match(priced(Value{4.5})), (std::vector<FilterId>{lt, le}));
  EXPECT_EQ(match(priced(Value{5.5})), (std::vector<FilterId>{gt, ge}));
}

TEST_P(IndexTest, IntAndDoubleCompareAsNumbers) {
  const FilterId ge_int = add_bound(*index_, Op::Ge, Value{5});
  const FilterId lt_double = add_bound(*index_, Op::Lt, Value{5.0});
  const FilterId le_int = add_bound(*index_, Op::Le, Value{5});
  const FilterId gt_double = add_bound(*index_, Op::Gt, Value{5.0});
  EXPECT_EQ(match(priced(Value{5})), (std::vector<FilterId>{ge_int, le_int}));
  EXPECT_EQ(match(priced(Value{5.0})), (std::vector<FilterId>{ge_int, le_int}));
  EXPECT_EQ(match(priced(Value{4})), (std::vector<FilterId>{lt_double, le_int}));
  EXPECT_EQ(match(priced(Value{6})), (std::vector<FilterId>{ge_int, gt_double}));
}

TEST_P(IndexTest, NaNMatchesNoBoundAndInfinitiesOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  add_bound(*index_, Op::Ge, Value{nan});  // a NaN operand matches nothing
  add_bound(*index_, Op::Lt, Value{nan});
  const FilterId above_neg_inf = add_bound(*index_, Op::Gt, Value{-inf});
  const FilterId below_inf = add_bound(*index_, Op::Lt, Value{inf});
  const FilterId at_most_inf = add_bound(*index_, Op::Le, Value{inf});
  const FilterId at_least_inf = add_bound(*index_, Op::Ge, Value{inf});
  const FilterId at_least_neg_inf = add_bound(*index_, Op::Ge, Value{-inf});
  EXPECT_TRUE(match(priced(Value{nan})).empty());
  EXPECT_EQ(match(priced(Value{inf})),
            (std::vector<FilterId>{above_neg_inf, at_most_inf, at_least_inf,
                                   at_least_neg_inf}));
  EXPECT_EQ(match(priced(Value{-inf})),
            (std::vector<FilterId>{below_inf, at_most_inf, at_least_neg_inf}));
  EXPECT_EQ(match(priced(Value{1})),
            (std::vector<FilterId>{above_neg_inf, below_inf, at_most_inf,
                                   at_least_neg_inf}));
}

TEST_P(IndexTest, StringAndBoolRangesBesideNumericBounds) {
  const FilterId ge_five = add_bound(*index_, Op::Ge, Value{5.0});
  const FilterId le_ten = add_bound(*index_, Op::Le, Value{10});
  const FilterId before_m = add_bound(*index_, Op::Lt, Value{"m"});
  const FilterId above_false = add_bound(*index_, Op::Gt, Value{false});
  EXPECT_EQ(match(priced(Value{7.0})), (std::vector<FilterId>{ge_five, le_ten}));
  EXPECT_EQ(match(priced(Value{"a"})), std::vector<FilterId>{before_m});
  EXPECT_TRUE(match(priced(Value{"z"})).empty());
  EXPECT_EQ(match(priced(Value{true})), std::vector<FilterId>{above_false});
  EXPECT_TRUE(match(priced(Value{false})).empty());
  EXPECT_TRUE(match(priced(Value{})).empty());  // null orders against nothing
}

TEST_P(IndexTest, TwoLowerBoundsOnOneAttribute) {
  const FilterId id = index_->add(FilterBuilder{"Stock"}
                                      .where("price", Op::Ge, Value{5})
                                      .where("price", Op::Gt, Value{7.0})
                                      .build());
  EXPECT_TRUE(match(priced(Value{6.0})).empty());
  EXPECT_TRUE(match(priced(Value{7})).empty());
  EXPECT_EQ(match(priced(Value{7.5})), std::vector<FilterId>{id});
}

TEST_P(IndexTest, WindowsInEitherOrderAndWithAThirdBound) {
  const FilterId upper_first = index_->add(FilterBuilder{"Stock"}
                                               .where("price", Op::Le, Value{10})
                                               .where("price", Op::Gt, Value{5.0})
                                               .build());
  const FilterId narrowed = index_->add(FilterBuilder{"Stock"}
                                            .where("price", Op::Ge, Value{5})
                                            .where("price", Op::Lt, Value{10.0})
                                            .where("price", Op::Lt, Value{8})
                                            .build());
  EXPECT_EQ(match(priced(Value{5})), std::vector<FilterId>{narrowed});
  EXPECT_EQ(match(priced(Value{7.5})), (std::vector<FilterId>{upper_first, narrowed}));
  EXPECT_EQ(match(priced(Value{8})), std::vector<FilterId>{upper_first});
  EXPECT_EQ(match(priced(Value{10})), std::vector<FilterId>{upper_first});
  EXPECT_TRUE(match(priced(Value{10.5})).empty());
}

// Enough identical windows that most are merged into the sorted run, each
// spanning 2^53 + 1, which rounds down to 2^53 as a double: the event at
// the window's upper edge still finds them all.
TEST_P(IndexTest, WindowsWhoseSpanRoundsDownStillHoldAtTheirLimit) {
  const double top = 9007199254740994.0;  // 2^53 + 2
  std::vector<FilterId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(index_->add(FilterBuilder{"Stock"}
                                  .where("price", Op::Ge, Value{1})
                                  .where("price", Op::Le, Value{top})
                                  .build()));
  }
  EXPECT_EQ(match(priced(Value{top})), ids);
  EXPECT_EQ(match(priced(Value{1})), ids);
  EXPECT_TRUE(match(priced(Value{0.5})).empty());
}

INSTANTIATE_TEST_SUITE_P(Engines, IndexTest,
                         ::testing::Values(Engine::Naive, Engine::Counting,
                                           Engine::Trie,
                                           Engine::ShardedCounting),
                         [](const auto& info) {
                           switch (info.param) {
                             case Engine::Naive: return "Naive";
                             case Engine::Counting: return "Counting";
                             case Engine::Trie: return "Trie";
                             default: return "ShardedCounting";
                           }
                         });

TEST(TrieStructure, SharedPrefixesShareNodes) {
  workload::ensure_types_registered();
  TrieIndex trie{reflect::TypeRegistry::global()};
  // 20 filters sharing (year, conference), unique authors.
  for (int i = 0; i < 20; ++i) {
    trie.add(FilterBuilder{"Publication"}
                 .where("year", Op::Eq, Value{2002})
                 .where("conference", Op::Eq, Value{"ICDCS"})
                 .where("author", Op::Eq, Value{"a" + std::to_string(i)})
                 .build());
  }
  // root + year + conference + 20 author leaves = 23 nodes, not 20×3.
  EXPECT_EQ(trie.node_count(), 23u);
}

TEST(TrieStructure, NonEqualityFiltersTerminateAtTheSharedPrefix) {
  workload::ensure_types_registered();
  TrieIndex trie{reflect::TypeRegistry::global()};
  const FilterId id = trie.add(FilterBuilder{"Stock"}
                                   .where("symbol", Op::Eq, Value{"Foo"})
                                   .where("price", Op::Lt, Value{10.0})
                                   .build());
  EXPECT_EQ(trie.node_count(), 2u);  // root + (symbol, Foo)
  std::vector<FilterId> out;
  trie.match(event::image_of(Stock{"Foo", 5.0, 1}), out);
  EXPECT_EQ(out, std::vector<FilterId>{id});
  trie.match(event::image_of(Stock{"Foo", 15.0, 1}), out);
  EXPECT_TRUE(out.empty());
}

// Removing filters rebuilds the tree from the live ones: paths only removed
// filters used do not outlive them.
TEST(TrieStructure, NodesShrinkBackUnderChurn) {
  workload::ensure_types_registered();
  TrieIndex trie{reflect::TypeRegistry::global()};
  std::vector<FilterId> live;
  const auto add = [&trie, &live](int i) {
    live.push_back(trie.add(FilterBuilder{"Stock"}
                                .where("symbol", Op::Eq, Value{"s" + std::to_string(i)})
                                .where("volume", Op::Eq, Value{i})
                                .build()));
  };
  for (int i = 0; i < 100; ++i) add(i);
  for (int i = 100; i < 5000; ++i) {
    trie.remove(live.front());
    live.erase(live.begin());
    add(i);
  }
  // 100 live two-edge paths, plus at most the dead ones not yet swept.
  EXPECT_LE(trie.node_count(), 1u + 2 * (100 + 50));
  std::vector<FilterId> out;
  trie.match(event::image_of(Stock{"s4999", 1.0, 4999}), out);
  EXPECT_EQ(out, std::vector<FilterId>{live.back()});
  for (const FilterId id : live) trie.remove(id);
  EXPECT_EQ(trie.size(), 0u);
  EXPECT_EQ(trie.node_count(), 1u);
}

// Oracle property: both engines agree on thousands of random
// (filters, events) combinations across all workload domains.
TEST(IndexOracle, CountingAgreesWithNaiveOnRandomWorkloads) {
  workload::ensure_types_registered();
  util::Rng rng{31337};
  workload::BiblioGenerator biblio{{}, 11};
  workload::StockGenerator stocks{{}, 12};
  workload::AuctionGenerator auctions{{}, 13};

  NaiveTable naive{reflect::TypeRegistry::global()};
  CountingIndex counting{reflect::TypeRegistry::global()};
  TrieIndex trie{reflect::TypeRegistry::global()};
  ShardedIndex sharded{Engine::Counting, reflect::TypeRegistry::global(), 8};

  // A mixed filter population, including type-only and wildcard shapes.
  for (int i = 0; i < 150; ++i) {
    ConjunctiveFilter f;
    switch (rng.below(5)) {
      case 0: f = biblio.next_subscription(); break;
      case 1: f = biblio.next_subscription(rng.below(4)); break;
      case 2: f = stocks.next_subscription(); break;
      case 3:
        f = FilterBuilder{"Auction", true}
                .where("price", Op::Lt, Value{1000.0 + 49'000.0 * rng.uniform()})
                .build();
        break;
      case 4: f = FilterBuilder{"VehicleAuction", rng.chance(0.5)}.build(); break;
    }
    const FilterId a = naive.add(f);
    const FilterId b = counting.add(f);
    const FilterId c = trie.add(f);
    const FilterId d = sharded.add(f);
    ASSERT_EQ(a, b);
    ASSERT_EQ(a, c);
    ASSERT_EQ(a, d);
    // Churn: occasionally remove a random earlier filter from all.
    if (rng.chance(0.15)) {
      const FilterId victim = rng.below(a + 1);
      naive.remove(victim);
      counting.remove(victim);
      trie.remove(victim);
      sharded.remove(victim);
    }
  }
  ASSERT_EQ(naive.size(), counting.size());
  ASSERT_EQ(naive.size(), trie.size());
  ASSERT_EQ(naive.size(), sharded.size());

  std::vector<FilterId> out_naive, out_counting, out_trie, out_sharded;
  for (int i = 0; i < 2000; ++i) {
    EventImage image;
    switch (rng.below(3)) {
      case 0: image = biblio.next_event(); break;
      case 1: image = image_of(stocks.next()); break;
      case 2: image = image_of(*auctions.next()); break;
    }
    naive.match(image, out_naive);
    counting.match(image, out_counting);
    trie.match(image, out_trie);
    sharded.match(image, out_sharded);
    std::sort(out_naive.begin(), out_naive.end());
    std::sort(out_counting.begin(), out_counting.end());
    std::sort(out_trie.begin(), out_trie.end());
    std::sort(out_sharded.begin(), out_sharded.end());
    ASSERT_EQ(out_naive, out_counting) << "event " << image.to_string();
    ASSERT_EQ(out_naive, out_trie) << "event " << image.to_string();
    ASSERT_EQ(out_naive, out_sharded) << "event " << image.to_string();
  }
}

// Range-heavy churn: window and open-ended bounds on a double (price) and
// an int (volume) attribute, int and double operands mixed, with enough
// replaces that every engine compacts many times. Operands and event values
// are drawn from a small grid so events land exactly on bounds often.
TEST(IndexOracle, RangeHeavyChurnAgreesWithNaive) {
  workload::ensure_types_registered();
  util::Rng rng{4242};
  const auto& registry = reflect::TypeRegistry::global();
  NaiveTable naive{registry};
  CountingIndex counting{registry};
  TrieIndex trie{registry};
  ShardedIndex sharded{Engine::Counting, registry, 8};
  MatchIndex* const engines[] = {&naive, &counting, &trie, &sharded};

  const auto operand = [&rng](bool as_int) {
    const auto grid = static_cast<std::int64_t>(rng.below(40));
    return as_int ? Value{grid} : Value{static_cast<double>(grid)};
  };
  const auto lower = [&rng] { return rng.chance(0.5) ? Op::Ge : Op::Gt; };
  const auto upper = [&rng] { return rng.chance(0.5) ? Op::Le : Op::Lt; };
  const auto next_filter = [&] {
    const char* attr = rng.chance(0.5) ? "price" : "volume";
    FilterBuilder builder{"Stock"};
    switch (rng.below(4)) {
      case 0: {  // window [lo, lo + width), either end written first
        const Value lo = operand(rng.chance(0.5));
        const Value hi{*lo.as_number() + 1.0 + static_cast<double>(rng.below(8))};
        if (rng.chance(0.5))
          builder.where(attr, lower(), lo).where(attr, upper(), hi);
        else
          builder.where(attr, upper(), hi).where(attr, lower(), lo);
        break;
      }
      case 1: builder.where(attr, lower(), operand(rng.chance(0.5))); break;
      case 2: builder.where(attr, upper(), operand(rng.chance(0.5))); break;
      case 3:  // windows on both attributes
        builder.where("price", lower(), operand(false))
            .where("volume", upper(), operand(true));
        break;
    }
    return builder.build();
  };

  std::vector<FilterId> live;
  const auto add = [&] {
    const ConjunctiveFilter f = next_filter();
    const FilterId id = naive.add(f);
    for (MatchIndex* engine : engines) {
      if (engine == &naive) continue;
      ASSERT_EQ(engine->add(f), id);
    }
    live.push_back(id);
  };
  for (int i = 0; i < 300; ++i) add();

  std::vector<FilterId> expected, got;
  constexpr int kBatches = 100, kReplacesPerBatch = 100;
  for (int batch = 0; batch < kBatches; ++batch) {
    for (int r = 0; r < kReplacesPerBatch; ++r) {
      const std::size_t victim = rng.below(live.size());
      for (MatchIndex* engine : engines) engine->remove(live[victim]);
      live[victim] = live.back();
      live.pop_back();
      add();
    }
    for (MatchIndex* engine : engines) ASSERT_EQ(engine->size(), live.size());
    for (int e = 0; e < 40; ++e) {
      const double price = rng.chance(0.5)
                               ? static_cast<double>(rng.below(48))
                               : 48.0 * rng.uniform();
      const EventImage image = image_of(
          Stock{"S", price, static_cast<std::int64_t>(rng.below(48))});
      naive.match(image, expected);
      std::sort(expected.begin(), expected.end());
      for (MatchIndex* engine : engines) {
        engine->match(image, got);
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, expected) << "batch " << batch << " event "
                                 << image.to_string();
      }
    }
  }
}

// Differential: the counting index reports exactly the naive table's ids
// on every event, under enough add/remove churn to sweep many times. The
// population mixes every type-test shape (exact, subtype-inclusive,
// type-only, accept-all, unregistered names) with windows of mixed spans
// (including [x, x] and one window wider than all others that is removed
// half-way), lone bounds with strict and non-strict edges, int and double
// operands, equality, and NaN operands; events carry NaN, non-numeric and
// missing values and unregistered types.
TEST(IndexOracle, CountingAgreesWithNaiveOnTypesAndWindowsUnderChurn) {
  workload::ensure_types_registered();
  util::Rng rng{2718};
  const auto& registry = reflect::TypeRegistry::global();
  NaiveTable naive{registry};
  CountingIndex counting{registry};

  const char* const types[] = {"Stock", "Auction", "VehicleAuction",
                               "CarAuction", "Ghost"};
  const char* const attrs[] = {"price", "qty"};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto pick_type = [&]() -> const char* {
    return types[rng.below(std::size(types))];
  };
  const auto number = [&rng](double v) {
    return rng.chance(0.5) && v == std::floor(v)
               ? Value{static_cast<std::int64_t>(v)}
               : Value{v};
  };
  const auto lower = [&rng] { return rng.chance(0.5) ? Op::Ge : Op::Gt; };
  const auto upper = [&rng] { return rng.chance(0.5) ? Op::Le : Op::Lt; };
  const auto add_constraint = [&](FilterBuilder& builder) {
    const char* attr = attrs[rng.below(std::size(attrs))];
    const double lo = static_cast<double>(rng.below(60)) - 10.0;
    switch (rng.below(7)) {
      case 0:
      case 1: {  // window, either end first; spans 0 ([x, x]) to 40
        const double spans[] = {0.0, 0.5, 1.0, 3.0, 8.0, 40.0};
        const double hi = lo + spans[rng.below(std::size(spans))];
        const Op lo_op = hi == lo ? Op::Ge : lower();
        const Op hi_op = hi == lo ? Op::Le : upper();
        if (rng.chance(0.5))
          builder.where(attr, lo_op, number(lo)).where(attr, hi_op, number(hi));
        else
          builder.where(attr, hi_op, number(hi)).where(attr, lo_op, number(lo));
        break;
      }
      case 2: builder.where(attr, lower(), number(lo)); break;
      case 3: builder.where(attr, upper(), number(lo)); break;
      case 4: builder.where(attr, Op::Eq, number(lo)); break;
      case 5: builder.where(attr, rng.chance(0.5) ? lower() : upper(), Value{nan}); break;
      case 6: builder.where(attr, Op::Ge, number(lo + 0.5)); break;
    }
  };
  const auto next_filter = [&] {
    switch (rng.below(8)) {
      case 0: return FilterBuilder{}.build();  // accept-all
      case 1: return FilterBuilder{pick_type(), rng.chance(0.5)}.build();
      case 2: {  // no type test, attribute predicates only
        FilterBuilder builder;
        add_constraint(builder);
        return builder.build();
      }
      default: {
        FilterBuilder builder{pick_type(), rng.chance(0.5)};
        const std::uint64_t n = 1 + rng.below(2);
        for (std::uint64_t i = 0; i < n; ++i) add_constraint(builder);
        return builder.build();
      }
    }
  };

  std::vector<FilterId> live;
  const auto add = [&](const ConjunctiveFilter& f) {
    const FilterId id = naive.add(f);
    ASSERT_EQ(counting.add(f), id);
    live.push_back(id);
  };
  for (int i = 0; i < 250; ++i) add(next_filter());
  // One window far wider than the rest, so every window search reaches
  // back to the front of the run until it is removed.
  const ConjunctiveFilter wide_window = FilterBuilder{"Auction", true}
                                            .where("price", Op::Ge, Value{-1e6})
                                            .where("price", Op::Lt, Value{1e6})
                                            .build();
  const FilterId wide = naive.add(wide_window);
  ASSERT_EQ(counting.add(wide_window), wide);

  const auto event = [&] {
    const char* const event_types[] = {"Stock", "Auction", "VehicleAuction",
                                       "CarAuction", "Ghost", "Phantom"};
    std::vector<event::ImageAttribute> attributes;
    for (const char* attr : attrs) {
      switch (rng.below(6)) {
        case 0: break;  // attribute missing
        case 1: attributes.push_back({attr, Value{nan}}); break;
        case 2: attributes.push_back({attr, Value{"text"}}); break;
        default: {
          const double v = static_cast<double>(rng.below(120)) / 2.0 - 10.0;
          attributes.push_back({attr, number(v)});
        }
      }
    }
    return EventImage{event_types[rng.below(std::size(event_types))],
                      std::move(attributes)};
  };

  std::vector<FilterId> expected, got;
  constexpr int kBatches = 60, kReplacesPerBatch = 50, kEventsPerBatch = 40;
  for (int batch = 0; batch < kBatches; ++batch) {
    if (batch == kBatches / 2) {
      naive.remove(wide);
      counting.remove(wide);
    }
    for (int r = 0; r < kReplacesPerBatch; ++r) {
      const std::size_t victim = rng.below(live.size());
      naive.remove(live[victim]);
      counting.remove(live[victim]);
      live[victim] = live.back();
      live.pop_back();
      add(next_filter());
    }
    ASSERT_EQ(counting.size(), naive.size());
    for (int e = 0; e < kEventsPerBatch; ++e) {
      const EventImage image = event();
      naive.match(image, expected);
      counting.match(image, got);
      std::sort(expected.begin(), expected.end());
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, expected) << "batch " << batch << " event "
                               << image.to_string();
    }
  }
}

// Removed ids never make up more than half the live ones in the counting
// index's candidate lists, whatever the removal order.
TEST(CountingStructure, DeadSlotsStayBoundedUnderChurn) {
  workload::ensure_types_registered();
  util::Rng rng{99};
  CountingIndex index{reflect::TypeRegistry::global()};
  // Each filter holds one slot, its price window: the type test is checked
  // on completed candidates, not listed.
  const auto window = [&rng] {
    const double lo = static_cast<double>(rng.below(100));
    return FilterBuilder{"Stock"}
        .where("price", Op::Ge, Value{lo})
        .where("price", Op::Lt, Value{lo + 10})
        .build();
  };
  std::vector<FilterId> live;
  for (int i = 0; i < 200; ++i) live.push_back(index.add(window()));
  EXPECT_EQ(index.slot_count(), live.size());

  const auto check_bounded = [&] {
    const std::size_t n = index.size();
    ASSERT_LE(index.slot_count(), n + n / 2) << n << " live";
  };
  for (int r = 0; r < 5000; ++r) {
    const std::size_t victim = rng.below(live.size());
    index.remove(live[victim]);
    live[victim] = index.add(window());
    check_bounded();
  }
  // Drain it completely, in random order: the lists empty out with it.
  while (!live.empty()) {
    const std::size_t victim = rng.below(live.size());
    index.remove(live[victim]);
    live[victim] = live.back();
    live.pop_back();
    check_bounded();
  }
  EXPECT_EQ(index.slot_count(), 0u);
}

}  // namespace
}  // namespace cake::index
