// Unit tests for the per-event trace pipeline: ring buffers, sampling,
// JSON-lines codec, journey assembly, attribution and the cake_trace CLI.
#include <chrono>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "cake/core/trace_tool.hpp"
#include "cake/metrics/metrics.hpp"
#include "cake/routing/overlay.hpp"
#include "cake/trace/collector.hpp"
#include "cake/trace/json.hpp"
#include "cake/trace/oracle.hpp"
#include "cake/trace/trace.hpp"
#include "cake/workload/generators.hpp"

namespace cake {
namespace {

trace::TraceSpan make_span(trace::TraceId id, trace::SpanKind kind,
                           sim::NodeId node, sim::NodeId from, std::size_t stage,
                           bool matched, std::uint64_t seq) {
  trace::TraceSpan span;
  span.trace_id = id;
  span.kind = kind;
  span.node = node;
  span.from = from;
  span.stage = stage;
  span.matched = matched;
  span.seq = seq;
  return span;
}

TEST(SpanRing, KeepsNewestAndCountsOverwrites) {
  trace::SpanRing ring{3};
  for (std::uint64_t i = 0; i < 5; ++i)
    ring.push(make_span(i + 1, trace::SpanKind::Broker, 1, 0, 1, true, i));

  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.size() + ring.evicted(), 5u);  // every push accounted
  EXPECT_EQ(ring.evicted(), 2u);

  const std::vector<trace::TraceSpan> spans{ring.begin(), ring.end()};
  ASSERT_EQ(spans.size(), 3u);
  // Oldest first, and the two oldest (seq 0, 1) were evicted.
  EXPECT_EQ(spans[0].seq, 2u);
  EXPECT_EQ(spans[1].seq, 3u);
  EXPECT_EQ(spans[2].seq, 4u);
}

TEST(SpanRing, PartialFill) {
  trace::SpanRing ring{8};
  ring.push(make_span(1, trace::SpanKind::Publish, 4, sim::kNoNode, 0, true, 0));
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.evicted(), 0u);
  EXPECT_EQ(std::vector<trace::TraceSpan>(ring.begin(), ring.end()).size(), 1u);
}

TEST(Tracer, RejectsAZeroRingCapacity) {
  trace::TraceConfig config;
  config.ring_capacity = 0;
  EXPECT_THROW(trace::Tracer{config}, std::invalid_argument);
  routing::OverlayConfig overlay;
  overlay.trace.enabled = true;
  overlay.trace.ring_capacity = 0;
  EXPECT_THROW(routing::Overlay{overlay}, std::invalid_argument);
}

TEST(Tracer, SamplingIsPureAndPeriodic) {
  trace::TraceConfig config;
  config.enabled = true;
  config.sample_period = 4;
  trace::Tracer tracer{config};

  std::size_t sampled = 0;
  for (std::uint64_t id = 1; id <= 4000; ++id) {
    const bool first = tracer.sampled(id);
    EXPECT_EQ(first, tracer.sampled(id));  // pure in the event id
    if (first) ++sampled;
  }
  // SplitMix64-hashed ids should land near 1-in-4.
  EXPECT_GT(sampled, 700u);
  EXPECT_LT(sampled, 1300u);
}

TEST(Tracer, StampCountsDecisionsAndEveryEventWhenPeriodOne) {
  trace::Tracer tracer{{true, 1, 64}};
  EXPECT_NE(tracer.stamp(42), 0u);
  EXPECT_NE(tracer.stamp(0), 0u);  // id 0 still gets a non-zero trace id
  const trace::TracerStats stats = tracer.stats();
  EXPECT_EQ(stats.events_sampled, 2u);
  EXPECT_EQ(stats.events_skipped, 0u);
}

TEST(Tracer, EmitAssignsGlobalSeqAndSortsSpans) {
  trace::Tracer tracer{{true, 1, 64}};
  tracer.emit(make_span(7, trace::SpanKind::Publish, 3, sim::kNoNode, 0, true, 99));
  tracer.emit(make_span(7, trace::SpanKind::Broker, 0, 3, 2, true, 99));
  tracer.emit(make_span(7, trace::SpanKind::Subscriber, 5, 0, 0, true, 99));

  const std::vector<trace::TraceSpan> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].seq, 0u);
  EXPECT_EQ(spans[1].seq, 1u);
  EXPECT_EQ(spans[2].seq, 2u);
  EXPECT_EQ(spans[0].kind, trace::SpanKind::Publish);
  EXPECT_EQ(spans[2].kind, trace::SpanKind::Subscriber);
  EXPECT_EQ(tracer.stats().spans_emitted, 3u);
}

TEST(TraceJson, SpanRoundTripIsExact) {
  trace::TraceSpan span;
  span.trace_id = (std::uint64_t{123} << 32) | 456;  // > 2^32: must survive
  span.kind = trace::SpanKind::Subscriber;
  span.node = 17;
  span.from = 3;
  span.stage = 0;
  span.filters_evaluated = 9;
  span.matched = false;
  span.weakened_attrs_hit = {"title", "author \"quoted\""};
  span.ticks = 123456789;
  span.seq = 42;

  const trace::TraceSpan back = trace::span_from_json(trace::span_to_json(span));
  EXPECT_EQ(back, span);
}

TEST(TraceJson, PublishSpanOmitsFrom) {
  trace::TraceSpan span;
  span.trace_id = 1;
  const std::string line = trace::span_to_json(span);
  EXPECT_EQ(line.find("\"from\""), std::string::npos);
  EXPECT_EQ(trace::span_from_json(line).from, sim::kNoNode);
}

TEST(TraceJson, RejectsMalformedLines) {
  EXPECT_THROW(trace::span_from_json("{"), trace::JsonError);
  EXPECT_THROW(trace::span_from_json("[]"), trace::JsonError);
  EXPECT_THROW(trace::span_from_json("{\"trace_id\":0,\"kind\":\"publish\","
                                     "\"node\":1,\"stage\":0,"
                                     "\"filters_evaluated\":0,\"matched\":true,"
                                     "\"weakened_attrs_hit\":[],\"ticks\":0,"
                                     "\"seq\":0}"),
               trace::JsonError);  // trace id 0 = untraced, never exported
  EXPECT_THROW(trace::parse_json("{\"a\":1} trailing"), trace::JsonError);
  EXPECT_THROW(trace::parse_json("01"), trace::JsonError);
}

TEST(TraceJson, ParsesEscapesAndNumbers) {
  const trace::JsonValue v =
      trace::parse_json(R"({"s":"a\"\\\nA","n":18446744073709551615})");
  EXPECT_EQ(v.at("s").as_string(), "a\"\\\nA");
  EXPECT_EQ(v.at("n").as_uint(), 18446744073709551615ull);
}

TEST(TraceJson, FullEscapeRepertoireAndUnicode) {
  // Every simple escape the grammar admits, plus \uXXXX in the one-, two-
  // and three-byte UTF-8 ranges (both hex cases).
  const trace::JsonValue v = trace::parse_json(
      "\"\\/\\b\\f\\r\\t\\u0041\\u00E9\\u20ac\"");
  EXPECT_EQ(v.as_string(), "/\b\f\r\tA\xC3\xA9\xE2\x82\xAC");

  EXPECT_THROW(trace::parse_json(R"("\u00")"), trace::JsonError);   // short
  EXPECT_THROW(trace::parse_json(R"("\uzzzz")"), trace::JsonError); // bad hex
  EXPECT_THROW(trace::parse_json(R"("\x")"), trace::JsonError);     // unknown

  // json_quote must escape controls so the line survives a round trip.
  const std::string quoted = trace::json_quote("a\n\t\"\\\x01z");
  EXPECT_EQ(trace::parse_json(quoted).as_string(), "a\n\t\"\\\x01z");
  EXPECT_NE(quoted.find("\\u0001"), std::string::npos);
}

TEST(TraceJson, NumbersAndStructuralErrors) {
  EXPECT_DOUBLE_EQ(trace::parse_json("-2.5e2").as_double(), -250.0);
  EXPECT_DOUBLE_EQ(trace::parse_json("7").as_double(), 7.0);  // uint promotes
  EXPECT_TRUE(trace::parse_json("null").is_null());
  EXPECT_FALSE(trace::parse_json("false").as_bool());

  EXPECT_THROW(trace::parse_json("1e+"), trace::JsonError);   // malformed tail
  EXPECT_THROW(trace::parse_json("-"), trace::JsonError);
  EXPECT_THROW(trace::parse_json("{\"a\" 1}"), trace::JsonError);  // no ':'
  EXPECT_THROW(trace::parse_json("[1 2]"), trace::JsonError);      // no ','
  EXPECT_THROW(trace::parse_json("tru"), trace::JsonError);  // cut literal
}

TEST(TraceJson, CheckedAccessorsThrowOnKindMismatch) {
  const trace::JsonValue num = trace::parse_json("3");
  const trace::JsonValue str = trace::parse_json("\"s\"");
  const trace::JsonValue obj = trace::parse_json("{\"k\":1}");
  EXPECT_THROW((void)num.as_bool(), trace::JsonError);
  EXPECT_THROW((void)str.as_uint(), trace::JsonError);
  EXPECT_THROW((void)str.as_double(), trace::JsonError);
  EXPECT_THROW((void)num.as_string(), trace::JsonError);
  EXPECT_THROW((void)num.as_array(), trace::JsonError);
  EXPECT_THROW((void)num.as_object(), trace::JsonError);
  EXPECT_THROW((void)obj.at("missing"), trace::JsonError);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_NE(obj.find("k"), nullptr);
}

TEST(TraceJson, SpanSchemaViolations) {
  // Structurally valid JSON that is not a valid span line.
  EXPECT_THROW(trace::span_from_json(
                   R"({"trace_id":1,"kind":"bogus","node":1,"stage":0,)"
                   R"("filters_evaluated":0,"matched":true,)"
                   R"("weakened_attrs_hit":[],"ticks":0,"seq":0})"),
               trace::JsonError);  // unknown kind
  EXPECT_THROW(trace::span_from_json(
                   R"({"trace_id":1,"kind":"publish","node":1,"stage":0,)"
                   R"("filters_evaluated":0,"matched":7,)"
                   R"("weakened_attrs_hit":[],"ticks":0,"seq":0})"),
               trace::JsonError);  // matched must be a bool
  EXPECT_THROW(trace::span_from_json(
                   R"({"trace_id":1,"kind":"publish","node":1,"stage":0,)"
                   R"("filters_evaluated":0,"matched":true,)"
                   R"("weakened_attrs_hit":"title","ticks":0,"seq":0})"),
               trace::JsonError);  // attrs must be an array
}

// A synthetic two-journey fixture: event 1 delivered cleanly, event 2
// spuriously reaches a subscriber after two matched broker hops.
trace::Collector synthetic_collector() {
  trace::Collector collector;
  // Journey 1: publish(9) -> broker 0 (stage 2) -> broker 1 (stage 1)
  //            -> subscriber 5, delivered.
  collector.add(make_span(1, trace::SpanKind::Publish, 9, sim::kNoNode, 0, true, 0));
  collector.add(make_span(1, trace::SpanKind::Broker, 0, 9, 2, true, 1));
  collector.add(make_span(1, trace::SpanKind::Broker, 1, 0, 1, true, 2));
  collector.add(make_span(1, trace::SpanKind::Subscriber, 5, 1, 0, true, 3));
  // Journey 2: same path, exact check fails at the subscriber, blame "x".
  collector.add(make_span(2, trace::SpanKind::Publish, 9, sim::kNoNode, 0, true, 4));
  collector.add(make_span(2, trace::SpanKind::Broker, 0, 9, 2, true, 5));
  collector.add(make_span(2, trace::SpanKind::Broker, 1, 0, 1, true, 6));
  auto spurious = make_span(2, trace::SpanKind::Subscriber, 5, 1, 0, false, 7);
  spurious.weakened_attrs_hit = {"x"};
  collector.add(spurious);
  return collector;
}

TEST(Collector, AssemblesJourneys) {
  const trace::Collector collector = synthetic_collector();
  EXPECT_EQ(collector.span_count(), 8u);
  ASSERT_EQ(collector.journeys().size(), 2u);

  const trace::Journey* j1 = collector.find(1);
  ASSERT_NE(j1, nullptr);
  EXPECT_TRUE(j1->delivered());
  EXPECT_EQ(j1->spurious_arrivals(), 0u);
  ASSERT_TRUE(j1->publish.has_value());
  EXPECT_EQ(j1->publish->node, 9u);
  EXPECT_EQ(j1->broker_spans().size(), 2u);

  const trace::Journey* j2 = collector.find(2);
  ASSERT_NE(j2, nullptr);
  EXPECT_FALSE(j2->delivered());
  EXPECT_EQ(j2->spurious_arrivals(), 1u);
}

TEST(Collector, AttributionChargesOneAttributePerSpuriousArrival) {
  const trace::Attribution attribution = synthetic_collector().attribution();
  EXPECT_EQ(attribution.total(), 1u);
  ASSERT_EQ(attribution.by_attribute.count("x"), 1u);
  EXPECT_EQ(attribution.by_attribute.at("x"), 1u);
  // Both upstream broker forwards of journey 2 were wasted on "x".
  EXPECT_EQ(attribution.spurious_hops_by_attribute.at("x"), 2u);
}

TEST(Collector, UnattributedFallback) {
  trace::Collector collector;
  collector.add(make_span(3, trace::SpanKind::Publish, 9, sim::kNoNode, 0, true, 0));
  collector.add(make_span(3, trace::SpanKind::Subscriber, 5, 9, 0, false, 1));
  const trace::Attribution attribution = collector.attribution();
  EXPECT_EQ(attribution.total(), 1u);
  EXPECT_EQ(attribution.by_attribute.at(trace::kUnattributed), 1u);
}

TEST(Collector, StageRollupsComputeTracedMr) {
  const std::vector<trace::StageRollup> rollups =
      synthetic_collector().stage_rollups();
  ASSERT_EQ(rollups.size(), 3u);  // stages 0, 1, 2
  EXPECT_EQ(rollups[0].stage, 0u);
  EXPECT_EQ(rollups[0].hops, 2u);
  EXPECT_EQ(rollups[0].matched, 1u);
  EXPECT_DOUBLE_EQ(rollups[0].mr(), 0.5);
  EXPECT_EQ(rollups[1].hops, 2u);
  EXPECT_DOUBLE_EQ(rollups[1].mr(), 1.0);
}

TEST(Collector, RejectedAtStageTracksDeepestRejection) {
  trace::Collector collector;
  collector.add(make_span(4, trace::SpanKind::Publish, 9, sim::kNoNode, 0, true, 0));
  collector.add(make_span(4, trace::SpanKind::Broker, 0, 9, 2, true, 1));
  collector.add(make_span(4, trace::SpanKind::Broker, 1, 0, 1, false, 2));
  const auto rejected = collector.rejected_at_stage();
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected.at(1), 1u);
}

TEST(Collector, JsonlRoundTrip) {
  const trace::Collector original = synthetic_collector();
  std::stringstream stream;
  original.export_jsonl(stream);

  trace::Collector back;
  back.add_all(trace::Collector::import_jsonl(stream));
  EXPECT_EQ(back.span_count(), original.span_count());
  ASSERT_EQ(back.journeys().size(), original.journeys().size());
  const trace::Journey* j2 = back.find(2);
  ASSERT_NE(j2, nullptr);
  EXPECT_EQ(j2->hops, original.find(2)->hops);
  EXPECT_EQ(j2->publish, original.find(2)->publish);
}

TEST(Collector, ImportReportsLineNumbers) {
  std::stringstream stream;
  stream << trace::span_to_json(
                make_span(1, trace::SpanKind::Publish, 1, sim::kNoNode, 0, true, 0))
         << "\nnot json\n";
  try {
    (void)trace::Collector::import_jsonl(stream);
    FAIL() << "expected JsonError";
  } catch (const trace::JsonError& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos);
  }
}

TEST(TraceOracle, PassesOnCleanJourneysAndCatchesBrokenChains) {
  const trace::Collector good = synthetic_collector();
  const auto expected = [](trace::TraceId id, sim::NodeId node) {
    return id == 1 && node == 5;
  };
  const trace::OracleReport report =
      trace::verify_journeys(good, {1, 2}, {5}, expected);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.deliveries_verified, 1u);
  EXPECT_EQ(report.spurious_arrivals, 1u);
  EXPECT_EQ(report.path_hops_verified, 4u);  // two hops per journey

  // Corrupt the chain: the stage-1 broker span claims matched=false, so the
  // delivery can no longer be justified by the journey.
  trace::Collector bad;
  bad.add(make_span(1, trace::SpanKind::Publish, 9, sim::kNoNode, 0, true, 0));
  bad.add(make_span(1, trace::SpanKind::Broker, 1, 9, 1, false, 1));
  bad.add(make_span(1, trace::SpanKind::Subscriber, 5, 1, 0, true, 2));
  const trace::OracleReport broken =
      trace::verify_journeys(bad, {1}, {5}, expected);
  EXPECT_FALSE(broken.ok());

  // A false negative: expected delivery with no matching subscriber span.
  trace::Collector missing;
  missing.add(make_span(1, trace::SpanKind::Publish, 9, sim::kNoNode, 0, true, 0));
  const trace::OracleReport incomplete =
      trace::verify_journeys(missing, {1}, {5}, expected);
  EXPECT_FALSE(incomplete.ok());
}

TEST(TraceOracle, OrphanSpansCountsJourneysWithoutPublish) {
  trace::Collector collector;
  collector.add(make_span(8, trace::SpanKind::Broker, 1, 9, 1, true, 0));
  collector.add(make_span(8, trace::SpanKind::Subscriber, 5, 1, 0, false, 1));
  EXPECT_EQ(trace::orphan_spans(collector), 2u);
  EXPECT_EQ(trace::orphan_spans(synthetic_collector()), 0u);
}

TEST(TraceOracle, EveryPathViolationKindIsDistinguished) {
  const auto expected = [](trace::TraceId id, sim::NodeId node) {
    return id == 1 && node == 5;
  };
  const auto first_violation = [&](const trace::Collector& c) {
    // All violations joined; callers assert on the distinguishing substring.
    return trace::verify_journeys(c, {1}, {5}, expected).to_string();
  };

  // Hole: the arrival's upstream node emitted no span at all.
  trace::Collector hole;
  hole.add(make_span(1, trace::SpanKind::Publish, 9, sim::kNoNode, 0, true, 0));
  hole.add(make_span(1, trace::SpanKind::Subscriber, 5, 3, 0, true, 1));
  EXPECT_NE(first_violation(hole).find("journey has a hole"), std::string::npos);

  // Upstream span exists but is another subscriber, not a broker.
  trace::Collector nonbroker;
  nonbroker.add(make_span(1, trace::SpanKind::Publish, 9, sim::kNoNode, 0, true, 0));
  nonbroker.add(make_span(1, trace::SpanKind::Subscriber, 3, 9, 0, true, 1));
  nonbroker.add(make_span(1, trace::SpanKind::Subscriber, 5, 3, 0, true, 2));
  EXPECT_NE(first_violation(nonbroker).find("not a broker span"),
            std::string::npos);

  // Stage must strictly increase walking up: two stage-1 brokers in a row.
  trace::Collector flat;
  flat.add(make_span(1, trace::SpanKind::Publish, 9, sim::kNoNode, 0, true, 0));
  flat.add(make_span(1, trace::SpanKind::Broker, 2, 9, 1, true, 1));
  flat.add(make_span(1, trace::SpanKind::Broker, 1, 2, 1, true, 2));
  flat.add(make_span(1, trace::SpanKind::Subscriber, 5, 1, 0, true, 3));
  EXPECT_NE(first_violation(flat).find("stage did not increase"),
            std::string::npos);

  // A from-cycle between brokers terminates: revisiting a broker cannot
  // keep the stage strictly increasing, so the walk fails fast (the loop
  // guard in verify_path is pure defense behind this check).
  trace::Collector cycle;
  cycle.add(make_span(1, trace::SpanKind::Publish, 9, sim::kNoNode, 0, true, 0));
  cycle.add(make_span(1, trace::SpanKind::Broker, 1, 2, 1, true, 1));
  cycle.add(make_span(1, trace::SpanKind::Broker, 2, 1, 2, true, 2));
  cycle.add(make_span(1, trace::SpanKind::Subscriber, 5, 1, 0, true, 3));
  EXPECT_NE(first_violation(cycle).find("stage did not increase"),
            std::string::npos);

  // Journeys that never got their publish span are flagged as orphans.
  trace::Collector orphan;
  orphan.add(make_span(1, trace::SpanKind::Broker, 1, 9, 1, true, 0));
  orphan.add(make_span(1, trace::SpanKind::Subscriber, 5, 1, 0, true, 1));
  EXPECT_NE(first_violation(orphan).find("orphan"), std::string::npos);
}

TEST(TraceOracle, BothDirectionsOfThePerfectFilteringCheck) {
  // Delivered where the reference matcher says "no match": false positive.
  trace::Collector fp;
  fp.add(make_span(1, trace::SpanKind::Publish, 9, sim::kNoNode, 0, true, 0));
  fp.add(make_span(1, trace::SpanKind::Broker, 1, 9, 1, true, 1));
  fp.add(make_span(1, trace::SpanKind::Subscriber, 5, 1, 0, true, 2));
  const auto never = [](trace::TraceId, sim::NodeId) { return false; };
  const trace::OracleReport fp_report =
      trace::verify_journeys(fp, {1}, {5}, never,
                             {.require_completeness = false});
  ASSERT_FALSE(fp_report.ok());
  EXPECT_NE(fp_report.violations.front().find("false positive delivery"),
            std::string::npos);

  // Arrived, exact verdict rejected, yet the reference matcher expected a
  // delivery: the subscriber's exact filter and the model disagree.
  trace::Collector reject;
  reject.add(make_span(1, trace::SpanKind::Publish, 9, sim::kNoNode, 0, true, 0));
  reject.add(make_span(1, trace::SpanKind::Broker, 1, 9, 1, true, 1));
  reject.add(make_span(1, trace::SpanKind::Subscriber, 5, 1, 0, false, 2));
  const auto always = [](trace::TraceId, sim::NodeId) { return true; };
  const trace::OracleReport reject_report =
      trace::verify_journeys(reject, {1}, {5}, always,
                             {.require_completeness = false});
  ASSERT_FALSE(reject_report.ok());
  EXPECT_NE(reject_report.violations.front().find("expected a delivery"),
            std::string::npos);
}

TEST(TraceOracle, ReportToStringTruncatesPastTheLimit) {
  trace::OracleReport report;
  report.journeys_checked = 4;
  for (int i = 0; i < 5; ++i)
    report.violations.push_back("violation " + std::to_string(i));
  const std::string text = report.to_string(2);
  EXPECT_NE(text.find("5 violation(s) across 4 journeys"), std::string::npos);
  EXPECT_NE(text.find("[1] violation 1"), std::string::npos);
  EXPECT_EQ(text.find("violation 2"), std::string::npos);
  EXPECT_NE(text.find("... 3 more"), std::string::npos);
}

// --- Overlay integration -------------------------------------------------

TEST(TraceOverlay, DisabledMeansNoTracerAtAll) {
  workload::ensure_types_registered();
  routing::OverlayConfig config;
  config.stage_counts = {1, 2};
  routing::Overlay overlay{config};
  EXPECT_EQ(overlay.tracer(), nullptr);

  auto& pub = overlay.add_publisher();
  pub.advertise(workload::BiblioGenerator::schema(3));
  workload::BiblioGenerator gen{{}, 3};
  auto& sub = overlay.add_subscriber();
  sub.subscribe(gen.next_subscription(), {});
  overlay.run();
  pub.publish(gen.next_event());
  overlay.run();  // no tracer anywhere: must simply not crash
}

TEST(TraceOverlay, UnsampledEventsEmitNoSpans) {
  workload::ensure_types_registered();
  routing::OverlayConfig config;
  config.stage_counts = {1, 2};
  config.trace.enabled = true;
  config.trace.sample_period = std::numeric_limits<std::uint64_t>::max();
  routing::Overlay overlay{config};
  ASSERT_NE(overlay.tracer(), nullptr);

  auto& pub = overlay.add_publisher();
  pub.advertise(workload::BiblioGenerator::schema(3));
  workload::BiblioGenerator gen{{}, 3};
  auto& sub = overlay.add_subscriber();
  sub.subscribe(gen.next_subscription(), {});
  overlay.run();
  for (int i = 0; i < 50; ++i) pub.publish(gen.next_event());
  overlay.run();

  const trace::TracerStats stats = overlay.tracer()->stats();
  EXPECT_EQ(stats.spans_emitted, 0u);
  EXPECT_EQ(stats.events_sampled + stats.events_skipped, 50u);
}

TEST(TraceOverlay, TracedEventsProduceCompleteJourneys) {
  workload::ensure_types_registered();
  routing::OverlayConfig config;
  config.stage_counts = {1, 2, 4};
  config.trace.enabled = true;
  routing::Overlay overlay{config};

  auto& pub = overlay.add_publisher();
  pub.advertise(workload::BiblioGenerator::schema());
  overlay.run();
  workload::BiblioGenerator gen{{}, 11};
  for (int i = 0; i < 4; ++i) {
    auto& sub = overlay.add_subscriber();
    sub.subscribe(gen.next_subscription(i % 2), {});
    overlay.run();
  }
  std::vector<std::uint64_t> ids;
  for (int e = 0; e < 60; ++e) ids.push_back(pub.publish(gen.next_event()));
  overlay.run();

  trace::Collector collector;
  collector.add_all(overlay.tracer()->spans());
  EXPECT_EQ(collector.journeys().size(), 60u);
  EXPECT_EQ(trace::orphan_spans(collector), 0u);
  // Every journey starts with its publish span and the root broker's hop.
  for (const std::uint64_t id : ids) {
    const trace::Journey* journey = collector.find(id);
    ASSERT_NE(journey, nullptr);
    EXPECT_TRUE(journey->publish.has_value());
    ASSERT_FALSE(journey->hops.empty());
    EXPECT_EQ(journey->hops.front().stage, 3u);  // root sees everything
  }
}

// Guard on the zero-cost-when-disabled contract: with tracing merely
// unsampled (tracer present, period ~inf) the publish path must stay within
// noise of the fully disabled path. Bound is deliberately loose — this is a
// regression tripwire for accidentally unconditional span work, not a
// benchmark (bench/bench_trace.cpp holds the real numbers).
TEST(TraceOverhead, DisabledPublishPathWithinNoiseOfBaseline) {
  workload::ensure_types_registered();
  const auto run_once = [](bool enabled) {
    routing::OverlayConfig config;
    config.stage_counts = {1, 2};
    config.trace.enabled = enabled;
    if (enabled)
      config.trace.sample_period = std::numeric_limits<std::uint64_t>::max();
    routing::Overlay overlay{config};
    auto& pub = overlay.add_publisher();
    pub.advertise(workload::BiblioGenerator::schema(3));
    workload::BiblioGenerator gen{{}, 5};
    auto& sub = overlay.add_subscriber();
    sub.subscribe(gen.next_subscription(), {});
    overlay.run();
    const auto start = std::chrono::steady_clock::now();
    for (int e = 0; e < 1500; ++e) pub.publish(gen.next_event());
    overlay.run();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // Interleave repetitions and keep the best of each to shed scheduler noise.
  double baseline = 1e9, unsampled = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    baseline = std::min(baseline, run_once(false));
    unsampled = std::min(unsampled, run_once(true));
  }
  EXPECT_LT(unsampled, baseline * 3.0 + 0.05)
      << "unsampled tracing cost " << unsampled << "s vs baseline " << baseline
      << "s";
}

// --- CLI -----------------------------------------------------------------

TEST(TraceTool, DemoSummaryJourneyTopPipeline) {
  const std::string path = ::testing::TempDir() + "cake_trace_spans.jsonl";
  std::ostringstream out, err;
  ASSERT_EQ(core::run_trace_tool({"demo", "--out", path, "--events", "80",
                                  "--seed", "9"},
                                 out, err),
            0)
      << err.str();

  // Pick a traced event that reached a subscriber, straight from the dump.
  std::ifstream dump{path};
  trace::Collector collector;
  collector.add_all(trace::Collector::import_jsonl(dump));
  trace::TraceId id = 0;
  for (const auto& [jid, journey] : collector.journeys())
    if (!journey.subscriber_spans().empty()) { id = jid; break; }
  ASSERT_NE(id, 0u) << "demo produced no subscriber arrivals";

  // Acceptance check: the CLI replays that event's full journey.
  std::ostringstream journey_out;
  ASSERT_EQ(core::run_trace_tool({"journey", path, "--id", std::to_string(id)},
                                 journey_out, err),
            0)
      << err.str();
  const std::string replay = journey_out.str();
  EXPECT_NE(replay.find("journey " + std::to_string(id)), std::string::npos);
  EXPECT_NE(replay.find("publish"), std::string::npos);
  EXPECT_NE(replay.find("broker"), std::string::npos);
  EXPECT_NE(replay.find("subscriber"), std::string::npos);
  // Replay shows every hop the collector knows about.
  const trace::Journey* journey = collector.find(id);
  std::size_t lines = 0;
  for (const char c : replay)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 1 + 1 + journey->hops.size());  // header + publish + hops

  std::ostringstream summary_out;
  EXPECT_EQ(core::run_trace_tool({"summary", path}, summary_out, err), 0);
  EXPECT_NE(summary_out.str().find("Per-stage rollup"), std::string::npos);
  EXPECT_NE(summary_out.str().find("False-positive attribution"),
            std::string::npos);

  std::ostringstream top_out;
  EXPECT_EQ(core::run_trace_tool({"top", path, "--n", "3"}, top_out, err), 0);
}

TEST(TraceTool, UsageAndErrorPaths) {
  std::ostringstream out, err;
  EXPECT_EQ(core::run_trace_tool({}, out, err), 1);
  EXPECT_NE(err.str().find("usage:"), std::string::npos);
  EXPECT_EQ(core::run_trace_tool({"frobnicate"}, out, err), 1);
  EXPECT_EQ(core::run_trace_tool({"journey", "/nonexistent", "--id", "1"}, out,
                                 err),
            1);
  EXPECT_EQ(core::run_trace_tool({"summary", "/nonexistent"}, out, err), 1);
  EXPECT_EQ(core::run_trace_tool({"demo", "--bogus-flag", "1"}, out, err), 1);
}

}  // namespace
}  // namespace cake
