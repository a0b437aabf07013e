// Tests for the instrumentation layer: metrics registry and its wire form,
// event ring, scoped phase timers over a manual virtual clock, the merge
// path used by mp::World, and the chrome://tracing exporter.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "mp/comm.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace pac {
namespace {

TEST(Metrics, CounterFindOrCreateAndAdd) {
  metrics::Registry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("a").add();
  reg.counter("a").add(4);
  reg.counter("b").add(2);
  EXPECT_EQ(reg.counter_value("a"), 5u);
  EXPECT_EQ(reg.counter_value("b"), 2u);
  EXPECT_EQ(reg.counter_value("missing"), 0u);
  EXPECT_FALSE(reg.empty());
}

TEST(Metrics, CounterReferencesAreStable) {
  metrics::Registry reg;
  metrics::Counter& a = reg.counter("a");
  // Creating many more counters must not invalidate the first handle
  // (the mp layer caches these pointers per rank).
  for (int i = 0; i < 100; ++i)
    reg.counter("filler." + std::to_string(i)).add(1);
  a.add(7);
  EXPECT_EQ(reg.counter_value("a"), 7u);
}

TEST(Metrics, HistogramStatistics) {
  metrics::Registry reg;
  metrics::Histogram& h = reg.histogram("h");
  h.observe(1.0);
  h.observe(2.0);
  h.observe(3.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
  EXPECT_DOUBLE_EQ(reg.histogram_sum("h"), 6.0);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
}

TEST(Metrics, MergeAggregatesAcrossRegistries) {
  // The per-rank registries of a run are merged rank by rank at finalize;
  // counters add, histograms combine counts/sums/extrema.
  metrics::Registry r0;
  metrics::Registry r1;
  r0.counter("c").add(3);
  r1.counter("c").add(4);
  r1.counter("only1").add(1);
  r0.histogram("h").observe(1.0);
  r1.histogram("h").observe(5.0);

  metrics::Registry merged;
  merged.merge_from(r0);
  merged.merge_from(r1);
  EXPECT_EQ(merged.counter_value("c"), 7u);
  EXPECT_EQ(merged.counter_value("only1"), 1u);
  const metrics::Histogram* h = merged.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_DOUBLE_EQ(h->sum(), 6.0);
  EXPECT_DOUBLE_EQ(h->min(), 1.0);
  EXPECT_DOUBLE_EQ(h->max(), 5.0);
}

TEST(Metrics, ReportListsRecordedEntries) {
  metrics::Registry reg;
  reg.counter("hits").add(12);
  reg.counter("silent");  // zero: filtered from the report
  reg.histogram("lat").observe(0.5);
  std::ostringstream os;
  metrics::write_report(os, reg, "unit");
  const std::string out = os.str();
  EXPECT_NE(out.find("metrics report: unit"), std::string::npos);
  EXPECT_NE(out.find("hits"), std::string::npos);
  EXPECT_NE(out.find("12"), std::string::npos);
  EXPECT_NE(out.find("lat"), std::string::npos);
  EXPECT_EQ(out.find("silent"), std::string::npos);
}

void expect_same_registry(const metrics::Registry& a,
                          const metrics::Registry& b) {
  ASSERT_EQ(a.counters().size(), b.counters().size());
  for (const auto& [name, c] : a.counters())
    EXPECT_EQ(b.counter_value(name), c.value) << name;
  ASSERT_EQ(a.histograms().size(), b.histograms().size());
  for (const auto& [name, h] : a.histograms()) {
    SCOPED_TRACE(name);
    const metrics::Histogram* other = b.find_histogram(name);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->count(), h.count());
    // Bit patterns, not values: the wire must not round anything.
    const double mine[3] = {h.sum(), h.min(), h.max()};
    const double theirs[3] = {other->sum(), other->min(), other->max()};
    EXPECT_EQ(std::memcmp(mine, theirs, sizeof(mine)), 0);
    for (int i = 0; i < metrics::Histogram::kBuckets; ++i)
      EXPECT_EQ(other->bucket(i), h.bucket(i)) << "bucket " << i;
  }
}

TEST(MetricsWire, RoundTrip) {
  const metrics::Registry empty;
  const std::string empty_blob = metrics::encode(empty);
  EXPECT_TRUE(metrics::decode(empty_blob).empty());

  metrics::Registry reg;
  reg.counter("mp.allreduce.calls").add(12);
  reg.counter("mp.send.bytes").add(std::uint64_t{1} << 40);
  reg.counter("zero.handle");  // pre-registered, never fired
  metrics::Histogram& lat = reg.histogram("mp.allreduce.seconds");
  for (const double v : {3e-9, 1.5e-6, 0.1, 0.1, 42.0, 1e9, 0.0})
    lat.observe(v);
  reg.histogram("em.update_wts").observe(0.25);
  reg.histogram("zero.histogram");  // pre-registered, count 0
  const std::string blob = metrics::encode(reg);
  const metrics::Registry back = metrics::decode(blob);
  expect_same_registry(reg, back);
  EXPECT_EQ(back.find_histogram("zero.histogram")->count(), 0u);
  EXPECT_EQ(metrics::encode(back), blob);
}

TEST(EventRing, ZeroCapacityRecordsNothing) {
  trace::EventRing ring(0);
  EXPECT_FALSE(ring.enabled());
  ring.record(trace::Event{"t", "e", 0, 0.0, 1.0});
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(EventRing, KeepsNewestAndCountsDropped) {
  trace::EventRing ring(4);
  for (int i = 0; i < 10; ++i)
    ring.record(trace::Event{"t", "e", 0, static_cast<double>(i),
                             static_cast<double>(i) + 0.5});
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.size(), 4u);
  const std::vector<trace::Event> events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-to-newest: the survivors are events 6..9.
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_DOUBLE_EQ(events[i].start, 6.0 + static_cast<double>(i));
}

TEST(Recorder, ScopedPhasesNestOverVirtualClock) {
  trace::Recorder rec(0);
  double clock = 0.0;
  rec.set_clock([&clock] { return clock; });
  {
    trace::ScopedPhase outer(&rec, "em", "base_cycle");
    clock = 1.0;
    {
      trace::ScopedPhase inner(&rec, "em", "update_wts");
      clock = 3.0;
    }
    clock = 4.0;
  }
  const std::vector<trace::Event> events = rec.events().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes first; both spans cover their exact virtual windows.
  EXPECT_STREQ(events[0].name, "update_wts");
  EXPECT_DOUBLE_EQ(events[0].start, 1.0);
  EXPECT_DOUBLE_EQ(events[0].end, 3.0);
  EXPECT_STREQ(events[1].name, "base_cycle");
  EXPECT_DOUBLE_EQ(events[1].start, 0.0);
  EXPECT_DOUBLE_EQ(events[1].end, 4.0);
  EXPECT_DOUBLE_EQ(rec.metrics().histogram_sum("em.update_wts"), 2.0);
  EXPECT_DOUBLE_EQ(rec.metrics().histogram_sum("em.base_cycle"), 4.0);
}

TEST(Recorder, NullRecorderScopeIsNoOp) {
  // Code running outside a World has no recorder: a null pointer is safe.
  trace::ScopedPhase phase(nullptr, "em", "update_wts");
  PAC_TRACE_SCOPE(nullptr, "em", "update_wts");
}

TEST(Trace, ChromeTraceExportIsWellFormed) {
  const std::vector<trace::Event> events = {
      {"mp", "allreduce", 0, 0.001, 0.002},
      {"em", "update \"wts\"\\n", 1, 0.0, 0.004},
  };
  std::ostringstream os;
  trace::write_chrome_trace(os, events);
  const std::string json = os.str();
  // Structural checks a JSON parser would enforce.
  EXPECT_EQ(json.front(), '{');
  ASSERT_GE(json.size(), 2u);
  std::size_t braces = 0;
  std::size_t brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;  // skip the escaped character
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++brackets;
    else if (c == ']') --brackets;
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0u);
  EXPECT_EQ(brackets, 0u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Durations are exported in microseconds.
  EXPECT_NE(json.find("\"allreduce\""), std::string::npos);
  // The quoted-name event must arrive escaped, not raw.
  EXPECT_EQ(json.find("update \"wts\""), std::string::npos);
}

TEST(Trace, EventsCsvRoundTripsFields) {
  const std::vector<trace::Event> events = {{"mp", "bcast", 2, 0.5, 0.75}};
  std::ostringstream os;
  trace::write_events_csv(os, events);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("rank,category,name,start,end"), std::string::npos);
  EXPECT_NE(csv.find("2,mp,bcast,"), std::string::npos);
}

TEST(WorldIntegration, InstrumentedRunMergesPerRankRecorders) {
  mp::World::Config cfg;
  cfg.num_ranks = 4;
  cfg.machine = net::ideal_machine();
  cfg.instrument = true;
  mp::World world(cfg);
  mp::RunStats stats = world.run([](mp::Comm& comm) {
    if (trace::Recorder* rec = comm.recorder())
      rec->metrics().counter("test.per_rank").add(1);
    double v = 1.0;
    comm.allreduce_inplace<double>(std::span<double>(&v, 1),
                                   mp::ReduceOp::kSum);
  });
  ASSERT_TRUE(stats.instrumented);
  // One increment per rank, merged at finalize.
  EXPECT_EQ(stats.metrics.counter_value("test.per_rank"), 4u);
  EXPECT_EQ(stats.metrics.counter_value("mp.allreduce.calls"), 4u);
  EXPECT_EQ(stats.events_dropped, 0u);
  // Merged events are sorted by start time.
  for (std::size_t i = 1; i < stats.events.size(); ++i)
    EXPECT_LE(stats.events[i - 1].start, stats.events[i].start);
}

TEST(WorldIntegration, UninstrumentedRunRecordsMetricsButNoEvents) {
  mp::World::Config cfg;
  cfg.num_ranks = 2;
  cfg.machine = net::ideal_machine();
  cfg.instrument = false;
  mp::World world(cfg);
  mp::RunStats stats = world.run([](mp::Comm& comm) {
    // The registry is every rank's counter store; only the ring is off.
    ASSERT_NE(comm.recorder(), nullptr);
    EXPECT_FALSE(comm.recorder()->events().enabled());
    double v = 1.0;
    comm.allreduce_inplace<double>(std::span<double>(&v, 1),
                                   mp::ReduceOp::kSum);
  });
  EXPECT_FALSE(stats.instrumented);
  EXPECT_EQ(stats.metrics.counter_value("mp.allreduce.calls"), 2u);
  EXPECT_EQ(stats.collective_calls[static_cast<std::size_t>(
                net::CollectiveKind::kAllreduce)],
            2u);
  EXPECT_TRUE(stats.events.empty());
  EXPECT_EQ(stats.events_dropped, 0u);
}

TEST(WorldIntegration, EventRingToggleLeavesRunStatsUnchanged) {
  // `instrument` switches the event ring and nothing else: every number of
  // RunStats and the metrics report come out the same either way.
  const auto run = [](bool instrument) {
    mp::World::Config cfg;
    cfg.num_ranks = 3;
    cfg.machine = net::meiko_cs2();
    cfg.instrument = instrument;
    mp::World world(cfg);
    return world.run([](mp::Comm& comm) {
      trace::ScopedPhase phase(comm.recorder(), "test", "body");
      comm.charge(1e-3 * static_cast<double>(comm.rank() + 1));
      std::vector<double> v(8, static_cast<double>(comm.rank()));
      comm.allreduce_inplace<double>(v, mp::ReduceOp::kSum);
      if (comm.rank() == 0) comm.send_value<int>(2, 5, 7);
      if (comm.rank() == 2) (void)comm.recv_value<int>(0, 5);
      comm.broadcast<double>(v, 1);
      mp::Comm pair = comm.split(comm.rank() % 2, comm.rank());
      (void)pair.allreduce_scalar(1.0);
      comm.barrier();
    });
  };
  const mp::RunStats on = run(true);
  const mp::RunStats off = run(false);
  ASSERT_TRUE(on.instrumented);
  EXPECT_FALSE(off.instrumented);
  EXPECT_FALSE(on.events.empty());
  EXPECT_TRUE(off.events.empty());

  const auto same_bytes = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
  };
  EXPECT_EQ(on.num_ranks, off.num_ranks);
  EXPECT_EQ(std::memcmp(&on.virtual_time, &off.virtual_time, sizeof(double)),
            0);
  EXPECT_TRUE(same_bytes(on.rank_finish, off.rank_finish));
  EXPECT_TRUE(same_bytes(on.rank_compute, off.rank_compute));
  EXPECT_TRUE(same_bytes(on.rank_comm, off.rank_comm));
  EXPECT_TRUE(same_bytes(on.rank_idle, off.rank_idle));
  EXPECT_EQ(on.total_collectives, off.total_collectives);
  EXPECT_EQ(on.total_messages, off.total_messages);
  EXPECT_EQ(on.total_bytes, off.total_bytes);
  EXPECT_TRUE(same_bytes(on.collective_calls, off.collective_calls));
  EXPECT_TRUE(same_bytes(on.collective_seconds, off.collective_seconds));
  EXPECT_GT(on.total_messages, 0u);
  std::ostringstream report_on, report_off;
  metrics::write_report(report_on, on.metrics, "run");
  metrics::write_report(report_off, off.metrics, "run");
  EXPECT_EQ(report_on.str(), report_off.str());
  EXPECT_NE(report_on.str().find("test.body"), std::string::npos);
}

}  // namespace
}  // namespace pac
