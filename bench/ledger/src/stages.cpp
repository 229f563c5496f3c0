#include "stages.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>

#include "common/alloc_probe.h"
#include "crypto/mac.h"
#include "crypto/rsa.h"
#include "obs/timeseries.h"

namespace ledger {

using ibsec::SimTime;
using ibsec::alloc_count;
using ibsec::fabric::FabricConfig;
using ibsec::fabric::FilterMode;
using ibsec::ib::Packet;
using ibsec::obs::Snapshot;
using ibsec::workload::Scenario;
using ibsec::workload::ScenarioConfig;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Makes `value` observable so the compiler cannot drop the work behind it.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Median ns per call of `batch` (which performs `calls` operations) over
/// five rounds, each repeating the batch long enough to last `round_s`.
template <class F>
double ns_per_call(F&& batch, double calls, double round_s) {
  batch();  // warm caches and lazy state
  std::size_t reps = 1;
  std::vector<double> samples;
  while (samples.size() < 5) {
    const auto start = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) batch();
    const double elapsed = seconds_since(start);
    if (samples.empty() && elapsed < round_s) {
      reps *= 2;  // still calibrating the round length
      continue;
    }
    samples.push_back(elapsed * 1e9 / (static_cast<double>(reps) * calls));
  }
  return median(samples);
}

/// A UD SEND-only packet from node 0 to `dst_node` with `payload` bytes.
Packet make_ud_packet(std::size_t payload, int dst_node, ibsec::ib::PKeyValue pkey) {
  Packet pkt;
  pkt.lrh.vl = ibsec::fabric::kBestEffortVl;
  pkt.lrh.slid = 1;
  pkt.lrh.dlid = static_cast<ibsec::ib::Lid>(dst_node + 1);
  pkt.bth.opcode = ibsec::ib::OpCode::kUdSendOnly;
  pkt.bth.pkey = pkey;
  pkt.bth.dest_qp = 2;
  pkt.deth = ibsec::ib::Deth{0x1234, 2};
  pkt.payload.assign(payload, 0x5A);
  pkt.meta.dst_node = static_cast<std::uint32_t>(dst_node);
  pkt.finalize();
  return pkt;
}

// --- engine and fabric ------------------------------------------------------

// The hottest real event capture (the switch crossing: this + slot + port +
// verdict) is about 40 bytes; the chain carries the same.
struct EventChain {
  ibsec::sim::Simulator* sim;
  std::uint64_t state[4];

  void step() {
    sim->after(100, [this, s = state[0]]() mutable {
      state[1] ^= s;
      step();
    });
  }
};

double bench_event(int chains, double round_s) {
  ibsec::sim::Simulator sim;
  std::vector<EventChain> all(static_cast<std::size_t>(chains),
                              EventChain{&sim, {1, 2, 3, 4}});
  for (auto& c : all) c.step();
  constexpr SimTime kSteps = 16;
  return ns_per_call([&] { sim.run_until(sim.now() + 100 * kSteps); },
                     static_cast<double>(chains * kSteps), round_s);
}

double bench_arbiter(const Workload& w, double round_s) {
  ibsec::fabric::VlArbiter arb(
      ibsec::fabric::VlArbitrationConfig::paper_default(16));
  // The VLs this workload's traffic occupies, busy in a fixed pseudo-random
  // pattern so both tables are exercised.
  const bool realtime = w.config.enable_realtime ||
                        w.config.attack_vl == ibsec::fabric::kRealtimeVl;
  const bool best_effort = w.config.enable_best_effort ||
                           w.config.workload.enabled() ||
                           w.config.enable_rc_messages;
  std::array<std::array<bool, 16>, 64> pattern{};
  std::uint64_t lcg = w.config.seed | 1;
  for (auto& row : pattern) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    row[1] = realtime && (lcg >> 40) % 3 != 0;
    row[0] = best_effort && ((lcg >> 20) % 3 != 0 || !row[1]);
  }
  const std::size_t wire = w.payload_bytes + 34;
  const std::array<bool, 16>* row = nullptr;
  const auto sendable = [&row](ibsec::ib::VirtualLane vl) { return (*row)[vl]; };
  return ns_per_call(
      [&] {
        for (const auto& r : pattern) {
          row = &r;
          const int vl = arb.pick(sendable);
          if (vl >= 0) arb.on_sent(static_cast<ibsec::ib::VirtualLane>(vl), wire);
          keep(vl);
        }
      },
      static_cast<double>(pattern.size()), round_s);
}

double bench_vcrc(const Workload& w, double round_s) {
  Packet pkt = make_ud_packet(w.payload_bytes, 1, ibsec::ib::kDefaultPKey);
  return ns_per_call(
      [&] {
        for (std::uint32_t i = 0; i < 64; ++i) {
          pkt.bth.psn = i;
          keep(pkt.compute_vcrc());
        }
      },
      64, round_s);
}

double bench_filter(const Workload& w, double round_s) {
  FabricConfig cfg = w.config.fabric;
  ibsec::sim::Simulator sim;
  ibsec::fabric::SwitchPartitionFilter filter(cfg, sim, 2, "bench.filter");
  filter.set_ingress_port(0, true);
  ibsec::ib::PartitionTable table;
  std::vector<ibsec::ib::PKeyValue> pkeys;
  const std::size_t size = std::max<std::size_t>(1, w.filter_table_size);
  for (std::size_t i = 0; i + 1 < size; ++i) {
    pkeys.push_back(static_cast<ibsec::ib::PKeyValue>(
        ibsec::ib::kPKeyMembershipBit | (0x100 + i)));
  }
  pkeys.push_back(ibsec::ib::kDefaultPKey);
  for (auto pkey : pkeys) table.add(pkey);
  filter.set_port_partition_table(0, table);
  if (cfg.filter_mode == FilterMode::kSif) {
    filter.install_invalid_pkey(0, 0x7FFE);  // armed, as under attack
  }
  // Honest traffic: every packet carries some valid P_Key of the port.
  std::size_t next = 0;
  return ns_per_call(
      [&] {
        for (int i = 0; i < 64; ++i) {
          keep(filter.check(0, pkeys[next]).allow);
          next = next + 1 == pkeys.size() ? 0 : next + 1;
        }
      },
      64, round_s);
}

/// Per-hop host cost on the workload's own topology, net of the
/// event-queue, arbiter and VCRC stages (benched separately): what is left
/// is the switch's bookkeeping plus the port it leaves on, paid with the
/// workload's working set of switches and ports. Raw packets from every
/// node to the one half the fabric away; no filter (it has its own stage).
double bench_switch_hop(const Workload& w, double event_ns, double pick_ns,
                        double vcrc_ns, bool quick) {
  FabricConfig cfg = w.config.fabric;
  cfg.filter_mode = FilterMode::kNone;
  ibsec::fabric::Fabric fabric(cfg);
  auto& sim = fabric.simulator();
  const int n = fabric.node_count();
  std::vector<Packet> protos;
  for (int node = 0; node < n; ++node) {
    Packet p = make_ud_packet(w.payload_bytes, (node + n / 2) % n,
                              ibsec::ib::kDefaultPKey);
    p.lrh.slid = fabric.lid_of_node(node);
    p.finalize();
    protos.push_back(std::move(p));
  }
  const auto arrivals = [](const Snapshot& s) {
    return static_cast<double>(s.sum_matching("switch.*.forwarded") +
                               s.sum_matching("switch.*.drop.*"));
  };
  std::vector<double> samples;
  for (int round = 0; round < (quick ? 10 : 40); ++round) {
    std::vector<Packet> batch = protos;
    const Snapshot before = sim.obs().snapshot();
    const std::uint64_t events0 = sim.events_processed();
    const auto start = Clock::now();
    for (int node = 0; node < n; ++node) {
      fabric.hca(node).send(std::move(batch[static_cast<std::size_t>(node)]));
    }
    sim.run();
    const double elapsed_ns = seconds_since(start) * 1e9;
    const Snapshot after = sim.obs().snapshot();
    const double events = static_cast<double>(sim.events_processed() - events0);
    const double picks =
        static_cast<double>(after.sum_matching("link.*.arb.*_grants") -
                            before.sum_matching("link.*.arb.*_grants"));
    const double hops = arrivals(after) - arrivals(before);
    // Each hop checks the VCRC on entry and recomputes it on the way out.
    const double vcrcs = 2 * hops;
    if (round < 2) continue;  // warm-up rounds grow the queues and pools
    samples.push_back(
        (elapsed_ns - events * event_ns - picks * pick_ns - vcrcs * vcrc_ns) / hops);
  }
  return median(samples);
}

// --- security --------------------------------------------------------------

struct AuthCost {
  double tag32_ns = 0;
  double sign_ns = 0;
  double verify_ns = 0;
};

/// Real AuthEngines on a two-node fabric holding the workload's number of
/// partition secrets, MAC algorithm and replay setting. Workloads without
/// authentication are costed at the paper's default (UMAC, one key).
AuthCost bench_auth(const Workload& w, bool quick) {
  ScenarioConfig c;
  c.seed = w.config.seed;
  c.fabric.mesh_width = 2;
  c.fabric.mesh_height = 1;
  c.multi_tenant = true;  // with two nodes every partition holds both
  c.num_partitions = std::max(2, w.keys_per_node);
  c.key_management = ibsec::workload::KeyManagement::kPartitionLevel;
  c.auth_enabled = true;
  if (w.config.auth_enabled) c.auth_alg = w.config.auth_alg;
  c.replay_protection = w.config.replay_protection;
  c.enable_realtime = false;
  c.enable_best_effort = false;
  Scenario scenario(c);
  scenario.fabric().simulator().run();  // key distribution
  ibsec::security::AuthEngine& tx = *scenario.auth_engine(0);
  ibsec::security::AuthEngine& rx = *scenario.auth_engine(1);

  AuthCost cost;
  const Packet proto =
      make_ud_packet(w.payload_bytes, 1, scenario.pkey_of_partition(0));
  std::vector<std::uint8_t> covered;
  proto.icrc_covered_into(covered);
  const std::vector<std::uint8_t> key(16, 0x42);
  const auto mac = ibsec::crypto::make_mac(c.auth_alg, key);
  cost.tag32_ns = ns_per_call(
      [&] {
        for (std::uint64_t i = 0; i < 16; ++i) keep(mac->tag32(covered, i));
      },
      16, quick ? 0.002 : 0.01);

  constexpr int kBatch = 64;
  std::vector<Packet> batch(kBatch, proto);
  std::vector<double> sign_samples;
  std::vector<double> verify_samples;
  std::uint32_t psn = 0;
  int rejected = 0;
  for (int round = 0; round < (quick ? 10 : 40); ++round) {
    for (Packet& p : batch) p.bth.psn = psn++;  // fresh PSNs for the window
    auto start = Clock::now();
    for (Packet& p : batch) keep(tx.sign(p));
    const double sign_ns = seconds_since(start) * 1e9 / kBatch;
    start = Clock::now();
    for (const Packet& p : batch) {
      rejected += rx.verify(p) == ibsec::transport::AuthVerdict::kAccept ? 0 : 1;
    }
    const double verify_ns = seconds_since(start) * 1e9 / kBatch;
    if (round == 0) continue;
    sign_samples.push_back(sign_ns);
    verify_samples.push_back(verify_ns);
  }
  if (rejected != 0) {
    std::fprintf(stderr, "ledger: auth bench rejected %d honest packets\n",
                 rejected);
  }
  cost.sign_ns = median(sign_samples);
  cost.verify_ns = median(verify_samples);
  return cost;
}

struct RsaCost {
  double us = 0;
  double allocs = 0;
};

RsaCost bench_rsa_identity(const Workload& w, bool quick) {
  ibsec::crypto::CtrDrbg drbg(w.config.seed);
  std::vector<double> us;
  double allocs = 0;
  const int n = quick ? 3 : 9;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t a0 = alloc_count();
    const auto start = Clock::now();
    keep(ibsec::crypto::rsa_generate(w.config.rsa_bits, drbg).public_key);
    us.push_back(seconds_since(start) * 1e6);
    allocs += static_cast<double>(alloc_count() - a0);
  }
  return {median(us), allocs / n};
}

// --- transport ---------------------------------------------------------------

struct PostCost {
  double ns = 0;
  double allocs = 0;
};

/// Two CAs on a 2x1 mesh: the smallest fabric a transport bench can use.
struct TwoNodes {
  explicit TwoNodes(const ibsec::transport::RcConfig& rc = {})
      : fabric(config()), ca0(fabric, 0, pki, 1, 256), ca1(fabric, 1, pki, 1, 256) {
    ca0.set_rc_config(rc);
    ca1.set_rc_config(rc);
  }
  static FabricConfig config() {
    FabricConfig cfg;
    cfg.mesh_width = 2;
    cfg.mesh_height = 1;
    return cfg;
  }

  ibsec::fabric::Fabric fabric;
  ibsec::transport::PkiDirectory pki;
  ibsec::transport::ChannelAdapter ca0;
  ibsec::transport::ChannelAdapter ca1;
};

/// ChannelAdapter::post_send of one workload-sized UD payload (the caller
/// builds the payload vector, as every traffic source does), timed without
/// the fabric delivery that follows.
PostCost bench_ud_post(const Workload& w, bool quick) {
  TwoNodes net;
  const auto qp0 = net.ca0.create_qp(ibsec::transport::ServiceType::kUnreliableDatagram,
                                     ibsec::ib::kDefaultPKey).qpn;
  const auto& qp1 = net.ca1.create_qp(ibsec::transport::ServiceType::kUnreliableDatagram,
                                      ibsec::ib::kDefaultPKey);
  constexpr int kBatch = 32;
  std::vector<double> ns;
  double allocs = 0;
  double posts = 0;
  for (int round = 0; round < (quick ? 20 : 80); ++round) {
    const std::uint64_t a0 = alloc_count();
    const auto start = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      net.ca0.post_send(qp0, std::vector<std::uint8_t>(w.payload_bytes, 0x5A),
                        ibsec::ib::PacketMeta::TrafficClass::kBestEffort, 1,
                        qp1.qpn, qp1.qkey);
    }
    const double elapsed = seconds_since(start);
    const std::uint64_t a1 = alloc_count();
    net.fabric.simulator().run();
    if (round < 4) continue;
    ns.push_back(elapsed * 1e9 / kBatch);
    allocs += static_cast<double>(a1 - a0);
    posts += kBatch;
  }
  return {median(ns), allocs / posts};
}

struct RcCost {
  double msg_us = 0;  ///< whole message with reliability on
  double ack_ns = 0;  ///< reliability's extra cost, per ACK sent
};

/// One RC stream between two nodes: host time per message with the
/// reliability protocol on and off, over the same message sizes.
RcCost bench_rc(const Workload& w, bool quick) {
  const int rounds = quick ? 20 : 80;
  const auto run = [&](bool reliable, double& acks_per_msg) {
    ibsec::transport::RcConfig rc = w.config.rc;
    rc.enabled = reliable;
    TwoNodes net(rc);
    const auto a = net.ca0.create_qp(ibsec::transport::ServiceType::kReliableConnection,
                                     ibsec::ib::kDefaultPKey).qpn;
    const auto b = net.ca1.create_qp(ibsec::transport::ServiceType::kReliableConnection,
                                     ibsec::ib::kDefaultPKey).qpn;
    net.ca0.bind_rc(a, 1, b);
    net.ca1.bind_rc(b, 0, a);
    const std::vector<std::uint8_t> message(w.config.rc_message_bytes, 0x3C);
    constexpr int kBatch = 8;
    std::vector<double> us;
    for (int round = 0; round < rounds; ++round) {
      const auto start = Clock::now();
      for (int i = 0; i < kBatch; ++i) {
        net.ca0.post_message(a, message,
                             ibsec::ib::PacketMeta::TrafficClass::kBestEffort);
      }
      net.fabric.simulator().run();
      if (round >= 4) us.push_back(seconds_since(start) * 1e6 / kBatch);
    }
    acks_per_msg = static_cast<double>(net.fabric.simulator().obs().snapshot()
                                           .sum_matching("ca.*.rc.acks")) /
                   (rounds * kBatch);
    return median(us);
  };
  double acks_per_msg = 0;
  double unused = 0;
  RcCost cost;
  cost.msg_us = run(true, acks_per_msg);
  const double plain_us = run(false, unused);
  cost.ack_ns = acks_per_msg > 0
                    ? std::max(0.0, cost.msg_us - plain_us) * 1e3 / acks_per_msg
                    : 0.0;
  return cost;
}

// --- obs sinks -----------------------------------------------------------------

double bench_trace_span(const Workload& w, double round_s) {
  ibsec::obs::TraceRecorder rec;
  rec.configure(w.config.trace);
  const std::uint64_t id = rec.enabled() ? rec.new_packet(0, 1, 0, 0) : 0;
  SimTime t = 0;
  // The call shape of the switch-crossing site, which records (or, with
  // tracing off, discards) one span per hop.
  return ns_per_call(
      [&] {
        for (int i = 0; i < 64; ++i) {
          rec.span(id, ibsec::obs::TraceEventType::kSwitch, 3, t, 204'800,
                   (i & 7) != 0 ? "pass" : "pkey_fail");
          t += 204'800;
        }
      },
      64, round_s);
}

double bench_audit_emit(const Workload& w, double round_s) {
  ibsec::obs::AuditLog log;
  log.configure(w.config.audit);
  ibsec::obs::AuditEvent ev;
  ev.verdict = "rejected";
  ev.node = 3;
  ev.actor_lid = 7;
  ev.victim_lid = 4;
  return ns_per_call(
      [&] {
        for (int i = 0; i < 64; ++i) {
          ev.at += 3200;
          // Emission sites guard on enabled(); mirror them.
          if (log.enabled()) log.emit("pkey_reject", ev);
        }
      },
      64, round_s);
}

/// Sampling the workload's own (finished) registry with its pattern set.
double bench_timeseries_us(const Workload& w, const ibsec::obs::Registry& reg,
                           bool quick) {
  ibsec::obs::TimeSeriesConfig ts;
  ts.dt = 10 * ibsec::time_literals::kMicrosecond;
  // Scenario's default set, used whenever the config names none.
  ts.patterns = !w.config.timeseries_patterns.empty()
                    ? w.config.timeseries_patterns
                    : std::vector<std::string>{
                          "link.*.packets",      "link.*.bytes",
                          "link.*.queue_depth*", "switch.*.forwarded",
                          "switch.*.drop.*",     "hca.*.injected",
                          "hca.*.received",      "ca.*.rc.retransmits",
                          "auth.*"};
  ibsec::obs::TimeSeriesSampler sampler(reg, ts);
  std::vector<double> us;
  for (int i = 0; i < (quick ? 10 : 40); ++i) {
    const auto start = Clock::now();
    sampler.sample(i * ts.dt);
    us.push_back(seconds_since(start) * 1e6);
  }
  return median(us);
}

/// The exports Scenario::run() serializes at the end of the window; the
/// median of three, since one export lasts about as long as a burst of host
/// noise.
double time_exports_ns(Scenario& scenario) {
  auto& sim = scenario.fabric().simulator();
  std::vector<double> ns;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    keep(sim.obs().snapshot().to_json().size());
    if (sim.trace().enabled()) {
      keep(sim.trace().to_chrome_json().size());
      keep(ibsec::obs::breakdown_csv(sim.trace().events()).size());
    }
    if (sim.audit().enabled()) keep(sim.audit().to_jsonl().size());
    ns.push_back(seconds_since(start) * 1e9);
  }
  return median(ns);
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

StageResults run_stage_benches(const Workload& w, const RunFacts& run,
                               bool quick) {
  const double round_s = quick ? 0.002 : 0.01;
  const Snapshot& s = *run.snap;
  Scenario& scenario = *run.scenario;
  auto& sim = scenario.fabric().simulator();
  const auto count = [&s](const char* pattern) {
    return static_cast<double>(s.sum_matching(pattern));
  };

  // Export timing first: the checks that follow drain the fabric, which
  // would add trace and audit events.
  const double export_ns = time_exports_ns(scenario);

  const int nodes = scenario.fabric().node_count();
  const double event_ns =
      bench_event(4 * (nodes + scenario.fabric().switch_count()), round_s);
  const double pick_ns = bench_arbiter(w, round_s);
  const double vcrc_ns = bench_vcrc(w, round_s);
  const double filter_ns = bench_filter(w, round_s);
  const double hop_ns = bench_switch_hop(w, event_ns, pick_ns, vcrc_ns, quick);
  const AuthCost auth = bench_auth(w, quick);
  const PostCost post = bench_ud_post(w, quick);
  const RcCost rc = bench_rc(w, quick);
  const double span_ns = bench_trace_span(w, round_s);
  const double emit_ns = bench_audit_emit(w, round_s);
  const double sample_us = bench_timeseries_us(w, sim.obs(), quick);
  const RsaCost rsa = bench_rsa_identity(w, quick);

  const double arrivals =
      count("switch.*.forwarded") + count("switch.*.drop.*");
  const double verifies = count("auth.verify_ok") + count("auth.plain_accepted") +
                          count("auth.fail.*") + count("auth.verify_fail.*");
  // With tracing off every hop still reaches its trace call sites (queue
  // wait, serialize, switch crossing), which return at once: ~3 per packet
  // per link. With tracing on, the recorded events are the calls.
  const double trace_calls =
      sim.trace().enabled() ? static_cast<double>(sim.trace().events_recorded())
                            : 3 * count("link.*.packets");

  // {ns per call, calls}, in kStageNames order.
  const std::pair<double, double> costs[] = {
      {event_ns, run.run_events},
      {pick_ns, count("link.*.arb.*_grants")},
      {vcrc_ns, arrivals + count("switch.*.forwarded") + count("hca.*.received")},
      {hop_ns, arrivals},
      {filter_ns, count("switch.*.filter.lookups")},
      {auth.sign_ns, count("auth.signed")},
      {auth.verify_ns, verifies},
      {post.ns, count("hca.*.injected")},
      {rc.ack_ns, count("ca.*.rc.acks")},
      {span_ns, trace_calls},
      {emit_ns, static_cast<double>(sim.audit().events_recorded())},
      {sample_us * 1e3, run.timeseries_samples},
      {export_ns, 1},
  };
  static_assert(std::size(costs) == std::size(kStageNames));
  StageResults out;
  for (std::size_t i = 0; i < std::size(costs); ++i) {
    out.stages.push_back({kStageNames[i], costs[i].first, costs[i].second});
  }
  out.metrics = {
      {"sim.event_ns", event_ns},
      {"fabric.vl_arbiter.pick_ns", pick_ns},
      {"ib.vcrc_ns", vcrc_ns},
      {"fabric.switch.hop_ns", hop_ns},
      {"fabric.filter.check_ns", filter_ns},
      {"crypto.tag32_ns", auth.tag32_ns},
      {"security.auth.sign_ns", auth.sign_ns},
      {"security.auth.verify_ns", auth.verify_ns},
      {"transport.ud.post_ns", post.ns},
      {"transport.ud.post_allocs", post.allocs},
      {"transport.rc.msg_us", rc.msg_us},
      {"obs.trace.span_ns", span_ns},
      {"obs.audit.emit_ns", emit_ns},
      {"obs.timeseries.sample_us", sample_us},
      {"obs.export_ms", export_ns / 1e6},
      {"crypto.rsa_identity_us", rsa.us},
      {"crypto.rsa_identity_allocs", rsa.allocs},
  };
  return out;
}

}  // namespace ledger
