// The obs lifecycle TraceRecorder: sampling, ring eviction, span nesting,
// the latency breakdown and the check-failure dump, both standalone and
// against a live scenario.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "common/alloc_probe.h"
#include "common/check.h"
#include "fabric/fault.h"
#include "obs/trace.h"
#include "workload/scenario.h"

namespace ibsec::workload {
namespace {

obs::TraceConfig lifecycle_config(std::uint64_t sample_every = 1) {
  obs::TraceConfig cfg;
  cfg.enabled = true;
  cfg.sample_every = sample_every;
  cfg.sample_seed = 42;
  return cfg;
}

TEST(LifecycleTrace, DisabledRecorderIsInert) {
  obs::TraceRecorder trace;  // default config: disabled
  EXPECT_FALSE(trace.enabled());
  EXPECT_EQ(trace.new_packet(0, 1, 0, 100), 0u);
  trace.instant(1, obs::TraceEventType::kDeliver, 1, 200);
  trace.span(1, obs::TraceEventType::kSerialize, -1, 100, 50);
  EXPECT_TRUE(trace.events().empty());
  EXPECT_EQ(trace.packets_seen(), 0u);
  EXPECT_EQ(trace.events_recorded(), 0u);
}

TEST(LifecycleTrace, SampleEveryOneTracesEveryPacket) {
  obs::TraceRecorder trace;
  trace.configure(lifecycle_config(1));
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(trace.new_packet(0, 1, 0, i), 0u);
  }
  EXPECT_EQ(trace.packets_seen(), 50u);
  EXPECT_EQ(trace.packets_sampled(), 50u);
  EXPECT_EQ(trace.events().size(), 50u);  // one kCreate each
}

TEST(LifecycleTrace, SamplingIsSeedDeterministic) {
  const auto sampled_set = [](std::uint64_t seed) {
    obs::TraceRecorder trace;
    obs::TraceConfig cfg = lifecycle_config(4);
    cfg.sample_seed = seed;
    trace.configure(cfg);
    std::set<std::uint64_t> ids;
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t id = trace.new_packet(0, 1, 0, i);
      if (id != obs::kTraceNotSampled) ids.insert(id);
    }
    return ids;
  };
  const auto a = sampled_set(7);
  const auto b = sampled_set(7);
  const auto c = sampled_set(8);
  EXPECT_EQ(a, b);                    // same seed -> same subset
  EXPECT_NE(a, c);                    // different seed -> different subset
  // ~1-in-4 with generous slack; never all, never none.
  EXPECT_GT(a.size(), 40u);
  EXPECT_LT(a.size(), 250u);
}

TEST(LifecycleTrace, SkippedPacketsRecordNothing) {
  obs::TraceRecorder trace;
  trace.configure(lifecycle_config(1000));
  std::uint64_t skipped = 0;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t id = trace.new_packet(0, 1, 0, i);
    if (id == obs::kTraceNotSampled) {
      ++skipped;
      trace.instant(id, obs::TraceEventType::kDeliver, 1, i + 5);
      trace.span(id, obs::TraceEventType::kSerialize, -1, i, 2);
    }
  }
  ASSERT_GT(skipped, 0u);
  EXPECT_EQ(trace.events_recorded(), trace.packets_sampled());
  EXPECT_EQ(trace.packets_seen(), 20u);
}

TEST(LifecycleTrace, DefaultModeDropsNewestPastCapacity) {
  obs::TraceRecorder trace;
  obs::TraceConfig cfg = lifecycle_config();
  cfg.capacity = 3;
  trace.configure(cfg);
  for (int i = 0; i < 8; ++i) {
    trace.instant(1, obs::TraceEventType::kInject, 0, i * 10);
  }
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].start, 0);   // the first events survive
  EXPECT_EQ(events[2].start, 20);
  EXPECT_EQ(trace.events_dropped(), 5u);
  EXPECT_EQ(trace.events_evicted(), 0u);
}

TEST(LifecycleTrace, FlightRecorderEvictsOldest) {
  obs::TraceRecorder trace;
  obs::TraceConfig cfg = lifecycle_config();
  cfg.capacity = 3;
  cfg.flight_recorder = true;
  trace.configure(cfg);
  for (int i = 0; i < 8; ++i) {
    trace.instant(1, obs::TraceEventType::kInject, 0, i * 10);
  }
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 3u);
  // Ring unrolled oldest-first: the *last* events survive, in order.
  EXPECT_EQ(events[0].start, 50);
  EXPECT_EQ(events[1].start, 60);
  EXPECT_EQ(events[2].start, 70);
  EXPECT_EQ(trace.events_evicted(), 5u);
  EXPECT_EQ(trace.events_dropped(), 0u);
}

TEST(LifecycleTrace, ChromeJsonNestsSpansByStartTime) {
  obs::TraceRecorder trace;
  trace.configure(lifecycle_config());
  const std::uint64_t id = trace.new_packet(2, 5, 1, 1000);
  ASSERT_NE(id, 0u);
  // Out-of-order recording: the outer span lands after the inner one.
  trace.span(id, obs::TraceEventType::kSerialize, -1, 3000, 500, "hca2.out");
  trace.span(id, obs::TraceEventType::kQueueWait, -1, 1000, 2000, "hca2.out");
  trace.instant(id, obs::TraceEventType::kDeliver, 5, 9000);
  const std::string json = trace.to_chrome_json();
  // Sorted by start: create (1000, instant) then queue_wait span then the
  // nested serialize span then deliver.
  const auto pos_create = json.find("\"create\"");
  const auto pos_wait = json.find("\"vl_queue_wait\"");
  const auto pos_ser = json.find("\"serialize\"");
  const auto pos_deliver = json.find("\"deliver\"");
  ASSERT_NE(pos_create, std::string::npos);
  ASSERT_NE(pos_wait, std::string::npos);
  ASSERT_NE(pos_ser, std::string::npos);
  ASSERT_NE(pos_deliver, std::string::npos);
  EXPECT_LT(pos_create, pos_wait);
  EXPECT_LT(pos_wait, pos_ser);
  EXPECT_LT(pos_ser, pos_deliver);
  // Spans are complete events with integer-derived microsecond durations.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.000500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.002000"), std::string::npos);
  // All events ride the packet's track.
  EXPECT_NE(json.find("\"tid\":" + std::to_string(id)), std::string::npos);
}

TEST(LifecycleTrace, BreakdownComponentsSumToTotal) {
  obs::TraceRecorder trace;
  trace.configure(lifecycle_config());
  const std::uint64_t id = trace.new_packet(0, 3, 0, 1000);
  trace.span(id, obs::TraceEventType::kMacSign, 0, 1000, 3200);
  trace.span(id, obs::TraceEventType::kQueueWait, -1, 4200, 800);
  trace.instant(id, obs::TraceEventType::kInject, 0, 5000, {}, 1);
  trace.span(id, obs::TraceEventType::kSerialize, -1, 5000, 2000);
  trace.span(id, obs::TraceEventType::kSwitch, 7, 7000, 600);
  trace.span(id, obs::TraceEventType::kSerialize, -1, 7600, 2000);
  trace.instant(id, obs::TraceEventType::kDeliver, 3, 9600);
  const auto rows = obs::compute_breakdown(trace.events());
  ASSERT_EQ(rows.size(), 1u);
  const auto& row = rows[0];
  EXPECT_EQ(row.packet_id, id);
  EXPECT_EQ(row.total_ps, 8600);  // 9600 - 1000
  EXPECT_EQ(row.crypto_ps, 3200);
  EXPECT_EQ(row.queuing_ps, 800);     // create -> inject minus crypto
  EXPECT_EQ(row.retransmit_ps, 0);
  EXPECT_EQ(row.wire_ps, 4600);       // inject -> deliver
  EXPECT_EQ(row.queuing_ps + row.crypto_ps + row.retransmit_ps + row.wire_ps,
            row.total_ps);
  EXPECT_EQ(row.serialize_ps, 4000);
  EXPECT_EQ(row.switch_ps, 600);
  EXPECT_EQ(row.hops, 2);
  EXPECT_EQ(row.retransmits, 0);
}

TEST(LifecycleTrace, BreakdownAttributesRetransmitWindow) {
  obs::TraceRecorder trace;
  trace.configure(lifecycle_config());
  const std::uint64_t id = trace.new_packet(0, 1, 0, 0);
  trace.instant(id, obs::TraceEventType::kInject, 0, 100);
  trace.instant(id, obs::TraceEventType::kRcRetransmit, 0, 5000, {}, 7);
  trace.instant(id, obs::TraceEventType::kInject, 0, 5100);  // resend trip
  trace.instant(id, obs::TraceEventType::kDeliver, 1, 6100);
  // A spurious resend after delivery must not count against latency.
  trace.instant(id, obs::TraceEventType::kInject, 0, 9000);
  const auto rows = obs::compute_breakdown(trace.events());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].queuing_ps, 100);
  EXPECT_EQ(rows[0].retransmit_ps, 5000);  // first inject -> last pre-delivery
  EXPECT_EQ(rows[0].wire_ps, 1000);
  EXPECT_EQ(rows[0].retransmits, 1);
  EXPECT_EQ(rows[0].queuing_ps + rows[0].crypto_ps + rows[0].retransmit_ps +
                rows[0].wire_ps,
            rows[0].total_ps);
}

TEST(LifecycleTrace, BreakdownSkipsIncompleteLifecycles) {
  obs::TraceRecorder trace;
  trace.configure(lifecycle_config());
  const std::uint64_t delivered = trace.new_packet(0, 1, 0, 0);
  trace.instant(delivered, obs::TraceEventType::kInject, 0, 10);
  trace.instant(delivered, obs::TraceEventType::kDeliver, 1, 20);
  const std::uint64_t dropped = trace.new_packet(0, 2, 0, 5);
  trace.instant(dropped, obs::TraceEventType::kInject, 0, 15);
  trace.instant(dropped, obs::TraceEventType::kSwitchDrop, 3, 18, "pkey");
  const auto rows = obs::compute_breakdown(trace.events());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].packet_id, delivered);
  // The CSV mirrors the same single row (header + 1 line).
  const std::string csv = obs::breakdown_csv(trace.events());
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

// Non-aborting handler so the failing check below returns to the test.
void ignore_check_failure(const CheckContext&) {}

TEST(LifecycleTrace, CheckFailureDumpsFlightRecorderTail) {
  obs::TraceRecorder trace;
  obs::TraceConfig cfg = lifecycle_config();
  cfg.flight_recorder = true;
  cfg.dump_on_check_failure = true;
  trace.configure(cfg);
  const std::uint64_t id = trace.new_packet(0, 1, 0, 100);
  trace.instant(id, obs::TraceEventType::kInject, 0, 200, "hca0.out");

  CheckFailureHandler prev = set_check_failure_handler(&ignore_check_failure);
  EXPECT_EQ(trace.dump_count(), 0u);
  IBSEC_CHECK(false) << "deliberate trace-dump test failure";
  set_check_failure_handler(prev);
  EXPECT_EQ(trace.dump_count(), 1u);

  // Uninstalling (via reconfigure) detaches the process-global hook.
  cfg.dump_on_check_failure = false;
  trace.configure(cfg);
  prev = set_check_failure_handler(&ignore_check_failure);
  IBSEC_CHECK(false) << "no dump expected";
  set_check_failure_handler(prev);
  EXPECT_EQ(trace.dump_count(), 1u);
}

TEST(LifecycleTrace, DumpPrintsNewestLast) {
  obs::TraceRecorder trace;
  trace.configure(lifecycle_config());
  const std::uint64_t id = trace.new_packet(4, 9, 0, 1000);
  trace.instant(id, obs::TraceEventType::kDeliver, 9, 4000);
  std::ostringstream out;
  trace.dump(out, 8);
  const std::string text = out.str();
  EXPECT_NE(text.find("create"), std::string::npos);
  EXPECT_NE(text.find("deliver"), std::string::npos);
  EXPECT_LT(text.find("create"), text.find("deliver"));
  EXPECT_EQ(trace.dump_count(), 1u);
}

TEST(LifecycleTrace, LiveScenarioBreakdownIsExact) {
  ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.warmup = 0;
  cfg.duration = 300 * time_literals::kMicrosecond;
  cfg.enable_realtime = false;
  cfg.key_management = KeyManagement::kPartitionLevel;
  cfg.auth_enabled = true;
  cfg.trace.enabled = true;
  Scenario scenario(cfg);
  const ScenarioResult result = scenario.run();
  ASSERT_FALSE(result.trace_json.empty());
  ASSERT_FALSE(result.trace_breakdown_csv.empty());

  const auto& sim = scenario.fabric().simulator();
  const auto rows = obs::compute_breakdown(sim.trace().events());
  ASSERT_GT(rows.size(), 100u);
  std::size_t with_crypto = 0;
  for (const auto& row : rows) {
    EXPECT_GE(row.queuing_ps, 0) << "packet " << row.packet_id;
    EXPECT_GE(row.crypto_ps, 0);
    EXPECT_GE(row.retransmit_ps, 0);
    EXPECT_GE(row.wire_ps, 0);
    EXPECT_EQ(row.queuing_ps + row.crypto_ps + row.retransmit_ps + row.wire_ps,
              row.total_ps)
        << "packet " << row.packet_id;
    if (row.crypto_ps > 0) {
      ++with_crypto;
      // The modeled MAC stage has exactly the configured duration.
      EXPECT_EQ(row.crypto_ps, cfg.per_message_auth_overhead);
    }
  }
  // The authenticated workload actually exercised the crypto component.
  EXPECT_GT(with_crypto, 50u);
}

TEST(LifecycleTrace, LiveScenarioSamplingTracesSubset) {
  ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.warmup = 0;
  cfg.duration = 300 * time_literals::kMicrosecond;
  cfg.enable_realtime = false;
  cfg.trace.enabled = true;
  cfg.trace.sample_every = 8;
  cfg.trace.sample_seed = 11;
  Scenario scenario(cfg);
  scenario.run();
  const auto& trace = scenario.fabric().simulator().trace();
  EXPECT_GT(trace.packets_sampled(), 0u);
  EXPECT_LT(trace.packets_sampled() * 3, trace.packets_seen());
}

// --- breakdown fold vs. the map-based reference -----------------------------

// The per-packet fold as it stood before the sort-based rewrite: a std::map
// keyed by trace id, one vector of inject times per packet. Kept here as
// the oracle for obs::compute_breakdown.
std::vector<obs::PacketBreakdown> reference_breakdown(
    const std::vector<obs::TraceEvent>& events) {
  struct Lifecycle {
    obs::PacketBreakdown b;
    SimTime first_inject = -1;
    std::vector<SimTime> injects;
    bool created = false;
    bool delivered = false;
  };
  std::map<std::uint64_t, Lifecycle> packets;
  for (const obs::TraceEvent& ev : events) {
    Lifecycle& lc = packets[ev.packet_id];
    lc.b.packet_id = ev.packet_id;
    switch (ev.type) {
      case obs::TraceEventType::kCreate:
        lc.created = true;
        lc.b.created_ps = ev.start;
        lc.b.src_node = ev.node;
        lc.b.dst_node = static_cast<int>(ev.a0);
        lc.b.traffic_class = static_cast<int>(ev.a1);
        break;
      case obs::TraceEventType::kInject:
        if (lc.first_inject < 0 || ev.start < lc.first_inject) {
          lc.first_inject = ev.start;
        }
        lc.injects.push_back(ev.start);
        break;
      case obs::TraceEventType::kDeliver:
        lc.delivered = true;
        lc.b.delivered_ps = ev.start;
        break;
      case obs::TraceEventType::kMacSign:
        if (lc.b.crypto_ps == 0) lc.b.crypto_ps = ev.duration;
        break;
      case obs::TraceEventType::kSerialize:
        lc.b.serialize_ps += ev.duration;
        ++lc.b.hops;
        break;
      case obs::TraceEventType::kSwitch:
        lc.b.switch_ps += ev.duration;
        break;
      case obs::TraceEventType::kRcRetransmit:
        ++lc.b.retransmits;
        break;
      default:
        break;
    }
  }
  std::vector<obs::PacketBreakdown> out;
  for (auto& [id, lc] : packets) {
    if (id == 0 || !lc.created || !lc.delivered || lc.first_inject < 0) {
      continue;
    }
    obs::PacketBreakdown& b = lc.b;
    SimTime last_inject = lc.first_inject;
    for (SimTime t : lc.injects) {
      if (t > last_inject && t <= b.delivered_ps) last_inject = t;
    }
    b.total_ps = b.delivered_ps - b.created_ps;
    b.queuing_ps = lc.first_inject - b.created_ps - b.crypto_ps;
    b.retransmit_ps = last_inject - lc.first_inject;
    b.wire_ps = b.delivered_ps - last_inject;
    out.push_back(b);
  }
  return out;
}

auto fields(const obs::PacketBreakdown& b) {
  return std::tuple(b.packet_id, b.src_node, b.dst_node, b.traffic_class,
                    b.created_ps, b.delivered_ps, b.total_ps, b.queuing_ps,
                    b.crypto_ps, b.retransmit_ps, b.wire_ps, b.serialize_ps,
                    b.switch_ps, b.hops, b.retransmits);
}

void expect_same_rows(const std::vector<obs::PacketBreakdown>& got,
                      const std::vector<obs::PacketBreakdown>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(fields(got[i]) == fields(want[i]))
        << "row " << i << " (packet " << want[i].packet_id << ")";
  }
}

TEST(LifecycleTrace, BreakdownMatchesReferenceOnWrappedRing) {
  // Lossy links under RC: retransmits, multiple injects per packet, and a
  // ring small enough that many lifecycles lose their first events.
  ScenarioConfig cfg;
  cfg.seed = 17;
  cfg.warmup = 0;
  cfg.duration = 400 * time_literals::kMicrosecond;
  cfg.fabric.fault_campaign =
      *fabric::FaultCampaign::parse("seed=3;drop=0.03;corrupt=0.01");
  cfg.rc.enabled = true;
  cfg.enable_rc_messages = true;
  cfg.rc_load = 0.15;
  cfg.trace.enabled = true;
  cfg.trace.flight_recorder = true;
  cfg.trace.capacity = 6000;
  Scenario scenario(cfg);
  const ScenarioResult result = scenario.run();
  const auto& trace = scenario.fabric().simulator().trace();
  ASSERT_GT(trace.events_evicted(), 0u);
  const auto want = reference_breakdown(trace.events());
  ASSERT_GT(want.size(), 50u);
  bool retransmitted = false;
  for (const auto& row : want) retransmitted |= row.retransmits > 0;
  EXPECT_TRUE(retransmitted);
  expect_same_rows(obs::compute_breakdown(trace.view()), want);
  EXPECT_EQ(result.trace_breakdown_csv, obs::breakdown_csv(trace.events()));
}

TEST(LifecycleTrace, BreakdownMatchesReferenceOnSparseSampling) {
  // 1-in-1000 sampling: few packets, ids spread over the whole serial range.
  ScenarioConfig cfg;
  cfg.seed = 19;
  cfg.warmup = 0;
  cfg.duration = 3 * time_literals::kMillisecond;
  cfg.trace.enabled = true;
  cfg.trace.sample_every = 1000;
  cfg.trace.sample_seed = 19;
  Scenario scenario(cfg);
  scenario.run();
  const auto& trace = scenario.fabric().simulator().trace();
  const auto want = reference_breakdown(trace.events());
  ASSERT_GE(want.size(), 3u);
  EXPECT_GT(want.back().packet_id, 1000u);
  expect_same_rows(obs::compute_breakdown(trace.view()), want);
}

TEST(LifecycleTrace, BreakdownOfFarApartIdsRunsInBoundedMemory) {
  // Ids 1 and 1<<40, events interleaved: a table indexed by id would need
  // terabytes; the fold must stay proportional to the event count. A third
  // id, 4097, shares id 1's low bits, so grouping must look at every bit.
  const std::uint64_t far = std::uint64_t{1} << 40;
  const std::uint64_t mid = 4097;
  const auto event = [](std::uint64_t id, obs::TraceEventType type,
                        SimTime start, SimTime duration = 0) {
    obs::TraceEvent ev;
    ev.packet_id = id;
    ev.type = type;
    ev.node = 2;
    ev.start = start;
    ev.duration = duration;
    ev.a0 = 5;
    return ev;
  };
  using T = obs::TraceEventType;
  const std::vector<obs::TraceEvent> events = {
      event(far, T::kCreate, 0),         event(1, T::kCreate, 10),
      event(mid, T::kCreate, 20),        event(far, T::kMacSign, 0, 300),
      event(1, T::kInject, 40),          event(mid, T::kInject, 60),
      event(far, T::kInject, 500),       event(1, T::kSerialize, 40, 200),
      event(mid, T::kDeliver, 700),      event(far, T::kSerialize, 500, 200),
      event(1, T::kDeliver, 900),        event(far, T::kRcRetransmit, 950),
      event(far, T::kInject, 1000),      event(far, T::kDeliver, 1500),
  };
  const std::uint64_t bytes_before = alloc_bytes();
  const auto rows = obs::compute_breakdown(events);
  EXPECT_LT(alloc_bytes() - bytes_before, 64u * 1024);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].packet_id, 1u);
  EXPECT_EQ(rows[1].packet_id, mid);
  EXPECT_EQ(rows[2].packet_id, far);
  EXPECT_EQ(rows[2].retransmit_ps, 500);
  expect_same_rows(rows, reference_breakdown(events));
}

}  // namespace
}  // namespace ibsec::workload
