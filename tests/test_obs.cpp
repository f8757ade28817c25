// Observability layer: trace recorder semantics, the flat metrics
// registry (byte-order snapshots, reference stability, merge determinism,
// golden sidecar bytes, allocation count of the writer), and end-to-end
// causal trace propagation through the ORB and network.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "net/flow_monitor.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "orb/orb.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"
#include "counting_new.hpp"

namespace aqm {
namespace {

// --- TraceRecorder -------------------------------------------------------------

TEST(TraceRecorder, RecordsEventsWithStableTracks) {
  obs::TraceRecorder tr;
  const std::uint16_t a = tr.track("alpha");
  const std::uint16_t b = tr.track("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(tr.track("alpha"), a);  // same name -> same lane

  tr.instant(obs::TraceCategory::Net, "hit", a, TimePoint{1000}, 7, {{"x", 1.0}});
  tr.complete(obs::TraceCategory::Net, "span", b, TimePoint{2000}, microseconds(5));
  EXPECT_EQ(tr.size(), 2u);

  std::vector<const char*> names;
  tr.for_each([&](const obs::TraceEvent& e) { names.push_back(e.name); });
  ASSERT_EQ(names.size(), 2u);
  EXPECT_STREQ(names[0], "hit");
  EXPECT_STREQ(names[1], "span");
}

TEST(TraceRecorder, CategoryMaskFilters) {
  obs::TraceRecorder tr(static_cast<std::uint32_t>(obs::TraceCategory::Net));
  EXPECT_TRUE(tr.wants(obs::TraceCategory::Net));
  EXPECT_FALSE(tr.wants(obs::TraceCategory::Orb));
  tr.set_enabled(false);
  EXPECT_FALSE(tr.wants(obs::TraceCategory::Net));
}

TEST(TraceRecorder, InternReturnsStablePointers) {
  obs::TraceRecorder tr;
  const char* p1 = tr.intern("call frame");
  // Force growth of the intern table.
  for (int i = 0; i < 100; ++i) (void)tr.intern("label " + std::to_string(i));
  const char* p2 = tr.intern("call frame");
  EXPECT_EQ(p1, p2);
  EXPECT_STREQ(p1, "call frame");
}

TEST(TraceRecorder, ClearKeepsRegistriesAndReusesChunks) {
  obs::TraceRecorder tr;
  const std::uint16_t lane = tr.track("lane");
  for (int i = 0; i < 5000; ++i) {  // spans multiple chunks
    tr.instant(obs::TraceCategory::Net, "e", lane, TimePoint{i});
  }
  EXPECT_EQ(tr.size(), 5000u);
  tr.clear();
  EXPECT_TRUE(tr.empty());
  EXPECT_EQ(tr.track("lane"), lane);
  tr.instant(obs::TraceCategory::Net, "e", lane, TimePoint{1});
  EXPECT_EQ(tr.size(), 1u);
}

TEST(TraceRecorder, RingCapacityRoundsUpToWholeChunks) {
  obs::TraceRecorder tr;
  EXPECT_EQ(tr.ring_capacity(), 0u);  // unbounded by default
  tr.set_ring_capacity(100);          // chunks are 2048 events
  EXPECT_EQ(tr.ring_capacity(), 2048u);
  tr.set_ring_capacity(2049);
  EXPECT_EQ(tr.ring_capacity(), 4096u);
}

TEST(TraceRecorder, RingEvictsWholeChunksAcrossBoundaries) {
  obs::TraceRecorder tr;
  tr.set_ring_capacity(4096);  // 2 chunks
  const std::uint16_t lane = tr.track("ring");
  const std::size_t recorded = 3 * 2048 + 5;  // crosses two chunk boundaries
  for (std::size_t i = 0; i < recorded; ++i) {
    tr.instant(obs::TraceCategory::Net, "e", lane, TimePoint{static_cast<std::int64_t>(i)});
  }
  // Eviction is chunk-granular: starting chunk 3 reclaimed chunk 1, starting
  // chunk 4 reclaimed chunk 2, so exactly two whole chunks were lost.
  EXPECT_EQ(tr.overwritten(), 4096u);
  EXPECT_EQ(tr.size(), recorded - 4096u);
  // Iteration starts at the oldest surviving event and stays in record order.
  std::int64_t expect_ts = 4096;
  std::size_t seen = 0;
  tr.for_each([&](const obs::TraceEvent& e) {
    EXPECT_EQ(e.ts_ns, expect_ts++);
    ++seen;
  });
  EXPECT_EQ(seen, tr.size());
  // clear() resets the loss counter along with the events.
  tr.clear();
  EXPECT_EQ(tr.overwritten(), 0u);
  EXPECT_TRUE(tr.empty());
}

TEST(TraceRecorder, RingModeStillHonorsCategoryMask) {
  obs::TraceRecorder tr(static_cast<std::uint32_t>(obs::TraceCategory::Net));
  tr.set_ring_capacity(2048);
  const std::uint16_t lane = tr.track("ring");
  for (int i = 0; i < 3000; ++i) {
    tr.instant(obs::TraceCategory::Orb, "masked", lane, TimePoint{i});
  }
  EXPECT_TRUE(tr.empty());  // masked-out events never enter the ring
  EXPECT_EQ(tr.overwritten(), 0u);
  for (int i = 0; i < 3000; ++i) {
    tr.instant(obs::TraceCategory::Net, "kept", lane, TimePoint{i});
  }
  EXPECT_EQ(tr.size() + tr.overwritten(), 3000u);
  tr.for_each([](const obs::TraceEvent& e) { EXPECT_STREQ(e.name, "kept"); });
}

TEST(TraceRecorder, ChromeJsonIsWellFormedAndNamesTracks) {
  obs::TraceRecorder tr;
  const std::uint16_t lane = tr.track("orb:client");
  tr.async_begin(obs::TraceCategory::Orb, "call echo", lane, TimePoint{1500}, 42);
  tr.async_end(obs::TraceCategory::Orb, "call echo", lane, TimePoint{2500}, 42);
  std::ostringstream os;
  tr.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("orb:client"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // Balanced braces is a cheap well-formedness proxy (no parser available).
  const auto open = std::count(json.begin(), json.end(), '{');
  const auto close = std::count(json.begin(), json.end(), '}');
  EXPECT_EQ(open, close);
}

TEST(TraceRecorder, AmbientCurrentId) {
  obs::TraceRecorder tr;
  EXPECT_EQ(tr.current(), 0u);
  tr.set_current(99);
  EXPECT_EQ(tr.current(), 99u);
  tr.set_current(0);
  EXPECT_EQ(tr.current(), 0u);
}

// --- Engine guard --------------------------------------------------------------

TEST(EngineTracer, NullByDefaultAndCategoryGated) {
  sim::Engine engine;
  EXPECT_EQ(engine.tracer(), nullptr);
  EXPECT_EQ(engine.tracer_for(obs::TraceCategory::Net), nullptr);

  obs::TraceRecorder tr;  // default mask excludes Engine
  engine.set_tracer(&tr);
  EXPECT_EQ(engine.tracer(), &tr);
  EXPECT_NE(engine.tracer_for(obs::TraceCategory::Net), nullptr);
  EXPECT_EQ(engine.tracer_for(obs::TraceCategory::Engine), nullptr);

  engine.set_tracer(nullptr);
  EXPECT_EQ(engine.tracer_for(obs::TraceCategory::Net), nullptr);
}

// --- MetricsRegistry -----------------------------------------------------------

TEST(MetricsRegistry, SnapshotRoundTrip) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").inc(3);
  reg.gauge("a.util").set(0.5);
  reg.stats("a.lat").add(10.0);
  reg.stats("a.lat").add(20.0);
  reg.histogram("a.hist", 0.0, 10.0, 10).add(5.0);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a.count"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("a.util").mean(), 0.5);
  EXPECT_EQ(snap.stats.at("a.lat").count(), 2u);
  EXPECT_EQ(snap.histograms.at("a.hist").count(), 1u);
}

TEST(MetricsSnapshot, MergeSemantics) {
  obs::MetricsRegistry r1;
  r1.counter("c").inc(2);
  r1.gauge("g").set(1.0);
  r1.stats("s").add(1.0);
  r1.histogram("h", 0.0, 10.0, 10).add(1.0);
  obs::MetricsRegistry r2;
  r2.counter("c").inc(5);
  r2.gauge("g").set(3.0);
  r2.stats("s").add(3.0);
  r2.histogram("h", 0.0, 10.0, 10).add(9.0);

  obs::MetricsSnapshot merged = r1.snapshot();
  merged.merge(r2.snapshot());
  EXPECT_EQ(merged.counters.at("c"), 7u);                 // counters sum
  EXPECT_EQ(merged.gauges.at("g").count(), 2u);           // one sample per shard
  EXPECT_DOUBLE_EQ(merged.gauges.at("g").mean(), 2.0);
  EXPECT_EQ(merged.stats.at("s").count(), 2u);            // Welford merge
  EXPECT_EQ(merged.histograms.at("h").count(), 2u);       // bucket-wise sum
  EXPECT_EQ(merged.merge_conflicts, 0u);
}

TEST(MetricsSnapshot, MergeConflictCountsAndKeepsExisting) {
  obs::MetricsRegistry r1;
  r1.histogram("h", 0.0, 10.0, 10).add(1.0);
  obs::MetricsRegistry r2;
  r2.histogram("h", 0.0, 20.0, 10).add(1.0);  // different bounds
  obs::MetricsSnapshot merged = r1.snapshot();
  merged.merge(r2.snapshot());
  EXPECT_EQ(merged.merge_conflicts, 1u);
  EXPECT_EQ(merged.histograms.at("h").count(), 1u);
}

TEST(MetricsSnapshot, HistogramMergeRejectsEveryLayoutMismatch) {
  // Each mismatch axis — bucket count, bounds, linear vs log scale — keeps
  // the existing histogram and bumps merge_conflicts; a matching layout
  // then still merges cleanly into the same snapshot.
  obs::MetricsRegistry base;
  base.histogram("h", 1.0, 100.0, 10).add(2.0);
  obs::MetricsSnapshot merged = base.snapshot();

  obs::MetricsSnapshot buckets;
  buckets.histograms.emplace("h", Histogram(1.0, 100.0, 20));
  merged.merge(buckets);
  EXPECT_EQ(merged.merge_conflicts, 1u);

  obs::MetricsSnapshot scale;
  scale.histograms.emplace("h", Histogram::log_scaled(1.0, 100.0, 10));
  merged.merge(scale);
  EXPECT_EQ(merged.merge_conflicts, 2u);
  EXPECT_EQ(merged.histograms.at("h").count(), 1u);
  EXPECT_FALSE(merged.histograms.at("h").log_scale());

  obs::MetricsRegistry ok;
  ok.histogram("h", 1.0, 100.0, 10).add(50.0);
  merged.merge(ok.snapshot());
  EXPECT_EQ(merged.merge_conflicts, 2u);
  EXPECT_EQ(merged.histograms.at("h").count(), 2u);
}

TEST(MetricsSidecar, DeterministicBytesForAnyGrouping) {
  // Simulates the shard-merge contract: trials merged in index order give
  // identical bytes no matter how work was distributed.
  const auto make = [](std::uint64_t seed) {
    obs::MetricsRegistry reg;
    reg.counter("n").inc(seed);
    reg.stats("v").add(static_cast<double>(seed) * 0.1);
    return reg.snapshot();
  };
  std::vector<obs::NamedSnapshot> trials;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    trials.push_back({"trial-" + std::to_string(i), make(i)});
  }
  std::ostringstream a;
  obs::write_metrics_sidecar(a, trials);
  std::ostringstream b;
  obs::write_metrics_sidecar(b, trials);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"merged\""), std::string::npos);
  EXPECT_NE(a.str().find("\"trials\""), std::string::npos);
}

TEST(MetricsRegistry, SnapshotSortsNamesBytewise) {
  // Byte order, not numeric order: "flow10" < "flow2" < "flow9".
  obs::MetricsRegistry reg;
  reg.counter("flow9");
  reg.counter("flow2");
  reg.counter("flow10");
  std::vector<std::string> names;
  for (const auto& [name, v] : reg.snapshot().counters) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"flow10", "flow2", "flow9"}));

  // Long ascending runs, short runs and descending stretches in one
  // registry: the snapshot equals a std::map built from the same names.
  obs::MetricsRegistry mixed;
  std::map<std::string, std::uint64_t> expect;
  const auto add = [&](const std::string& name) {
    mixed.counter(name).inc();
    ++expect[name];
  };
  for (int i = 0; i < 300; ++i) add("b." + std::to_string(1000 + i));   // one long run
  for (int i = 40; i > 0; --i) add("a." + std::to_string(i));           // descending
  for (int i = 0; i < 150; ++i) add("c." + std::to_string(5000 + i));  // another run
  for (int i = 0; i < 200; ++i) add("b." + std::to_string(i * 7 % 197));
  add("b.1000");  // repeat of an existing name
  const obs::MetricsSnapshot snap = mixed.snapshot();
  ASSERT_EQ(snap.counters.size(), expect.size());
  auto it = expect.begin();
  for (const auto& [name, v] : snap.counters) {
    EXPECT_EQ(name, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST(MetricsRegistry, ReferencesStayValidAcrossLaterInserts) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("keep.counter");
  obs::Gauge& g = reg.gauge("keep.gauge");
  RunningStats& s = reg.stats("keep.stats");
  Histogram& h = reg.histogram("keep.hist", 0.0, 10.0, 5);
  EXPECT_EQ(&reg.counter("keep.counter"), &c);  // a repeated lookup is the same object
  for (int i = 0; i < 100000; ++i) {
    const std::string name = "fill." + std::to_string(i);
    reg.counter(name).inc();
    if (i % 1000 == 0) {
      reg.gauge(name).set(1.0);
      reg.stats(name).add(1.0);
      reg.histogram(name, 0.0, 1.0, 2).add(0.5);
    }
    c.inc();
  }
  g.set(2.5);
  s.add(4.0);
  h.add(3.0);
  EXPECT_EQ(&reg.counter("keep.counter"), &c);
  EXPECT_EQ(&reg.gauge("keep.gauge"), &g);
  EXPECT_EQ(&reg.stats("keep.stats"), &s);
  EXPECT_EQ(&reg.histogram("keep.hist", 0.0, 99.0, 7), &h);  // first bounds win
  EXPECT_EQ(h.bucket_count(), 5u);
  EXPECT_EQ(reg.size(), 4u + 100000u + 3u * 100u);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("keep.counter"), 100000u);
  EXPECT_EQ(snap.counters.at("fill.99999"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("keep.gauge").mean(), 2.5);
  EXPECT_EQ(snap.stats.at("keep.stats").count(), 1u);
  EXPECT_EQ(snap.histograms.at("keep.hist").count(), 1u);
}

TEST(MetricsRegistry, KindsKeepSeparateNamespacesInOneRegistry) {
  // One name may be a counter, a gauge, stats and a histogram at once;
  // each kind's map stays name-sorted while registrations interleave.
  obs::MetricsRegistry reg;
  reg.stats("m").add(2.0);
  reg.counter("m").inc(7);
  reg.histogram("m", 0.0, 4.0, 4).add(1.0);
  reg.gauge("m").set(0.25);
  reg.counter("a").inc(1);
  reg.gauge("z");  // registered, never set
  reg.stats("b").add(1.0);
  EXPECT_EQ(reg.size(), 7u);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.begin()->first, "a");
  EXPECT_EQ(snap.counters.at("m"), 7u);
  EXPECT_EQ(snap.gauges.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("m").mean(), 0.25);
  EXPECT_EQ(snap.gauges.at("z").count(), 0u);
  EXPECT_EQ(snap.stats.begin()->first, "b");
  EXPECT_DOUBLE_EQ(snap.stats.at("m").mean(), 2.0);
  EXPECT_EQ(snap.histograms.at("m").count(), 1u);
  EXPECT_EQ(snap.counters.find("nope"), snap.counters.end());
  EXPECT_THROW((void)snap.stats.at("nope"), std::out_of_range);
}

TEST(MetricsSidecar, EscapesNamesLikeJson) {
  obs::MetricsRegistry reg;
  reg.counter(std::string("q\"b\\n\nt\tc\x01u\xc3\xa9") + "0123456789abcdef").inc(5);
  std::ostringstream os;
  reg.snapshot().write_json(os);
  EXPECT_NE(os.str().find("\"q\\\"b\\\\n\\nt\\u0009c\\u0001u\xc3\xa9"
                          "0123456789abcdef\": 5"),
            std::string::npos)
      << os.str();
}

namespace golden {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace golden

TEST(MetricsSidecar, GoldenBytesOf32kFlowHubExport) {
  // A 32,768-flow TelemetryHub (SLO breaches and recoveries, jitter,
  // retries, CE marks, unattributed traffic, flight dumps) exported next to
  // hand-registered metrics. The sizes and FNV-1a digests were captured
  // from the std::map-based registry and per-line stream writers this
  // pipeline replaced; any byte that moves fails here.
  constexpr std::uint64_t kFlows = 32768;
  obs::TelemetryHub hub;
  obs::SloSpec slo;
  slo.max_drop_rate = 0.2;
  slo.max_p99_latency_ms = 40.0;
  for (std::uint64_t id = 256; id <= kFlows; id += 256) hub.set_slo(id, slo);
  const std::uint16_t lane = hub.flight().track("golden");
  std::uint64_t x = 12345;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  for (std::int64_t step = 0; step < 30; ++step) {
    const TimePoint t{step * 100'000'000 + 50'000'000};
    // Every flow sees traffic in the first three steps; afterwards only
    // the SLO-bearing flows and a sparse sample keep going.
    for (std::uint64_t id = step < 3 ? 1 : 256; id <= kFlows; id += step < 3 ? 1 : 128) {
      const std::uint64_t r = next();
      hub.on_delivery(id, t, 200 + r % 1200);
      hub.on_call(id, t,
                  0.5 + static_cast<double>(r % 1000) * (step >= 10 && step < 20 ? 0.1 : 0.01),
                  r % 3 == 0 ? id * 1000 + static_cast<std::uint64_t>(step) : 0);
      if (r % 7 == 0) hub.on_jitter(id, static_cast<double>(r % 97) / 7.0);
      if (r % 5 == 0) hub.on_retry(id, t);
      if (r % 11 == 0) hub.on_ce_mark(id, t);
      if (r % 13 == 0) hub.on_deadline_miss(id, t);
      if (r % 4 == 0 || (step >= 10 && step < 20 && r % 2 == 0)) hub.on_drop(id, t);
      if (id % 1024 == 0) {
        hub.flight().instant(obs::TraceCategory::Net, "drop", lane, t, 0,
                             {{"flow", static_cast<double>(id)}, {"q", static_cast<double>(r % 50)}});
      }
    }
    hub.on_drop(0, t);
    hub.on_delivery(0, t, 100);
    hub.on_queue_depth(static_cast<std::size_t>(step % 17));
    if (step % 9 == 0) hub.on_reserve_overrun(1, t);
    hub.poll(t);
  }
  hub.finalize(TimePoint{3'100'000'000});

  obs::MetricsRegistry reg;
  reg.counter("net.total.sent").set(123456);
  reg.counter("net.flow10.sent").set(10);
  reg.counter("net.flow2.sent").set(2);
  reg.counter("net.flow9.sent").set(9);
  reg.gauge("net.util").set(0.625);
  reg.gauge("net.unset");
  reg.stats("net.lat_ms").add(1.25);
  reg.stats("net.lat_ms").add(3.5);
  reg.histogram("net.depth", 0.0, 64.0, 8).add(12.0);
  hub.export_metrics(reg, "telemetry");

  std::ostringstream metrics;
  obs::write_metrics_sidecar(metrics, {{"golden", reg.snapshot()}});
  EXPECT_EQ(metrics.str().size(), 23499054u);
  EXPECT_EQ(golden::fnv1a(metrics.str()), 0x86d8de9fbbf5b54bull);

  // Two trials exercise the merged section's linear merge.
  obs::MetricsRegistry other;
  other.counter("net.flow2.sent").set(20);
  other.counter("net.aaa").set(1);
  other.counter("telemetry.zzz").set(1);
  other.gauge("net.util").set(0.25);
  other.gauge("net.new_gauge").set(2.0);
  other.stats("net.lat_ms").add(7.0);
  other.histogram("net.depth", 0.0, 64.0, 8).add(60.0);
  other.histogram("net.other", 1.0, 10.0, 3).add(2.0);
  const std::vector<obs::NamedSnapshot> trials{{"a", reg.snapshot()}, {"b", other.snapshot()}};
  std::ostringstream merged;
  obs::write_metrics_sidecar(merged, trials);
  EXPECT_EQ(merged.str().size(), 23500024u);
  EXPECT_EQ(golden::fnv1a(merged.str()), 0xe37de7539b453fedull);

  std::ostringstream health;
  obs::write_health_sidecar(health, {{"golden", hub.report()}, {"again", hub.report()}});
  EXPECT_EQ(health.str().size(), 193798u);
  EXPECT_EQ(golden::fnv1a(health.str()), 0x24a62449aee99bebull);

  std::ostringstream flight;
  obs::write_flight_sidecar(flight, {{"golden", hub.dumps()}});
  EXPECT_EQ(flight.str().size(), 991u);
  EXPECT_EQ(golden::fnv1a(flight.str()), 0x63af26d675574cebull);
}

TEST(MetricsSidecar, SingleTrialWriteAllocatesConstantTimes) {
  // The writer appends into one buffer and writes the single trial's
  // snapshot as the merged section: its allocation count must not grow
  // with the number of entries.
  struct Discard : std::streambuf {
    std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
    int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  };
  const auto allocations_for = [](int entries) {
    obs::MetricsRegistry reg;
    for (int i = 0; i < entries; ++i) {
      const std::string name = "flow" + std::to_string(i);
      reg.counter(name + ".sent").inc(static_cast<std::uint64_t>(i));
      if (i % 10 == 0) reg.stats(name + ".lat").add(i * 0.5);
    }
    reg.gauge("util").set(0.5);
    reg.histogram("depth", 0.0, 8.0, 4).add(3.0);
    const obs::MetricsSnapshot snap = reg.snapshot();
    Discard sink;
    std::ostream os(&sink);
    const std::uint64_t before = test::heap_allocs();
    obs::write_metrics_sidecar(os, {{"trial", snap}});
    return test::heap_allocs() - before;
  };
  const std::uint64_t small = allocations_for(100);
  const std::uint64_t large = allocations_for(20000);
  EXPECT_EQ(small, large);
  EXPECT_LE(large, 4u);
}

// --- Log thread tags -----------------------------------------------------------

TEST(LogThreadTag, PrefixesMessagesPerThread) {
  std::vector<std::string> lines;
  Log::set_sink([&](LogLevel, std::string_view msg) { lines.emplace_back(msg); });
  const LogLevel prev = Log::level();
  Log::set_level(LogLevel::Info);

  Log::set_thread_tag("main");
  AQM_INFO() << "hello";
  std::thread t([] {
    // Worker threads start untagged regardless of the caller's tag.
    AQM_INFO() << "worker untagged";
    Log::set_thread_tag("w7");
    AQM_INFO() << "worker tagged";
  });
  t.join();
  Log::set_thread_tag("");
  AQM_INFO() << "untagged again";

  Log::set_level(prev);
  Log::set_sink(nullptr);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "[main] hello");
  EXPECT_EQ(lines[1], "worker untagged");
  EXPECT_EQ(lines[2], "[w7] worker tagged");
  EXPECT_EQ(lines[3], "untagged again");
}

// --- End-to-end causal propagation ---------------------------------------------

struct TracedOrbFixture : public ::testing::Test {
  TracedOrbFixture()
      : net(engine),
        client_node(net.add_node("client")),
        server_node(net.add_node("server")),
        client_cpu(engine, "client-cpu"),
        server_cpu(engine, "server-cpu"),
        client(net, client_node, client_cpu),
        server(net, server_node, server_cpu) {
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 100e6;
    cfg.propagation = microseconds(100);
    net.add_duplex_link(client_node, server_node, cfg);
    engine.set_tracer(&recorder);
  }

  obs::TraceRecorder recorder;
  sim::Engine engine;
  net::Network net;
  net::NodeId client_node;
  net::NodeId server_node;
  os::Cpu client_cpu;
  os::Cpu server_cpu;
  orb::OrbEndpoint client;
  orb::OrbEndpoint server;
};

TEST_F(TracedOrbFixture, RequestTraceChainsAcrossLayers) {
  orb::Poa& poa = server.create_poa("app");
  auto servant = std::make_shared<orb::FunctionServant>(
      microseconds(100), [](orb::ServerRequest& req) { req.reply_body = req.body; });
  const orb::ObjectRef ref = poa.activate_object("echo", std::move(servant));

  std::optional<orb::CompletionStatus> status;
  client.invoke(ref, "echo", {1, 2, 3}, orb::InvokeOptions{},
                [&](orb::CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  ASSERT_TRUE(status);
  EXPECT_EQ(*status, orb::CompletionStatus::Ok);

  // Exactly one client call span, opened and closed.
  std::uint64_t call_id = 0;
  int begins = 0;
  int ends = 0;
  recorder.for_each([&](const obs::TraceEvent& e) {
    if (std::string_view(e.name).substr(0, 5) != "call ") return;
    if (e.phase == obs::TracePhase::AsyncBegin) {
      ++begins;
      call_id = e.id;
    } else if (e.phase == obs::TracePhase::AsyncEnd) {
      ++ends;
    }
  });
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
  ASSERT_NE(call_id, 0u);

  // The same id shows up on ORB send, network hops, dispatch and reply.
  std::set<std::string> names;
  recorder.for_each([&](const obs::TraceEvent& e) {
    if (e.id == call_id) names.insert(e.name);
  });
  EXPECT_TRUE(names.count("send"));
  EXPECT_TRUE(names.count("enqueue"));
  EXPECT_TRUE(names.count("tx"));
  EXPECT_TRUE(names.count("deliver"));
  EXPECT_TRUE(names.count("dispatch"));
  EXPECT_TRUE(names.count("reply.send"));
  EXPECT_TRUE(names.count("reply.recv"));
  EXPECT_EQ(server.last_dispatch_trace(), call_id);
}

TEST_F(TracedOrbFixture, NoTracerMeansNoEventsAndSameResults) {
  engine.set_tracer(nullptr);
  orb::Poa& poa = server.create_poa("app");
  auto servant = std::make_shared<orb::FunctionServant>(
      microseconds(100), [](orb::ServerRequest& req) { req.reply_body = req.body; });
  const orb::ObjectRef ref = poa.activate_object("echo", std::move(servant));
  std::optional<orb::CompletionStatus> status;
  client.invoke(ref, "echo", {9}, orb::InvokeOptions{},
                [&](orb::CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  ASSERT_TRUE(status);
  EXPECT_EQ(*status, orb::CompletionStatus::Ok);
  EXPECT_TRUE(recorder.empty());
}

// --- FlowMonitor metrics -------------------------------------------------------

TEST(FlowMonitorObs, JitterAndInterarrivalAndExport) {
  sim::Engine engine;
  net::Network net(engine);
  const net::NodeId a = net.add_node("a");
  const net::NodeId b = net.add_node("b");
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 10e6;
  cfg.propagation = microseconds(100);
  net.add_duplex_link(a, b, cfg);
  net::FlowMonitor mon(net, b);

  for (int i = 0; i < 10; ++i) {
    engine.at(TimePoint{milliseconds(10 * (i + 1)).ns()}, [&net, a, b, i] {
      net::Packet p;
      p.dst = b;
      p.flow = 1;
      p.seq = static_cast<std::uint64_t>(i);
      p.size_bytes = 500;
      net.send(a, p);
    });
  }
  engine.run();

  EXPECT_EQ(mon.received(1), 10u);
  EXPECT_EQ(mon.dropped(1), 0u);
  // Constant spacing and constant transit: ~10 ms gaps, ~zero jitter.
  EXPECT_EQ(mon.interarrival_ms(1).count(), 9u);
  EXPECT_NEAR(mon.interarrival_ms(1).mean(), 10.0, 0.1);
  EXPECT_NEAR(mon.jitter_ms(1), 0.0, 0.01);
  // Unknown flows read as zero.
  EXPECT_EQ(mon.received(7), 0u);
  EXPECT_DOUBLE_EQ(mon.jitter_ms(7), 0.0);

  obs::MetricsRegistry reg;
  mon.export_metrics(reg, "mon");
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("mon.flow1.received"), 10u);
  EXPECT_EQ(snap.counters.at("mon.flow1.dropped"), 0u);
  EXPECT_EQ(snap.stats.at("mon.flow1.interarrival_ms").count(), 9u);
}

TEST(NetworkObs, ExportMetricsCountsFlows) {
  sim::Engine engine;
  net::Network net(engine);
  const net::NodeId a = net.add_node("a");
  const net::NodeId b = net.add_node("b");
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 10e6;
  net.add_duplex_link(a, b, cfg);
  net.set_receiver(b, [](net::Packet&&) {});
  net::Packet p;
  p.dst = b;
  p.flow = 3;
  p.size_bytes = 100;
  net.send(a, p);
  engine.run();

  obs::MetricsRegistry reg;
  net.export_metrics(reg, "net");
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("net.total.sent"), 1u);
  EXPECT_EQ(snap.counters.at("net.total.delivered"), 1u);
  EXPECT_EQ(snap.counters.at("net.flow3.sent"), 1u);
}

}  // namespace
}  // namespace aqm
