#include "bench/figures.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "analytic/enforcement_model.h"
#include "common/rng.h"
#include "crypto/mac.h"
#include "security/auth_engine.h"
#include "security/qp_key_manager.h"
#include "transport/subnet_manager.h"
#include "workload/experiment.h"

namespace ibsec::bench {
namespace {

using fabric::FilterMode;
using workload::KeyManagement;
using workload::ScenarioConfig;

/// printf into `out`: every figure writes its text through this one helper.
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* fmt,
                                           ...) {
  va_list args;
  va_start(args, fmt);
  va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  if (n > 0) {
    const std::size_t old = out.size();
    out.resize(old + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + old, static_cast<std::size_t>(n) + 1, fmt,
                   args);
    out.resize(old + static_cast<std::size_t>(n));
  }
  va_end(args);
}

void testbed_banner(std::string& out, const fabric::FabricConfig& cfg) {
  appendf(out, "Testbed (paper Table 1):\n");
  appendf(out, "  Physical link bandwidth : %.1f Gbps\n",
          static_cast<double>(cfg.link.bandwidth_bps) / 1e9);
  appendf(out, "  VLs per physical link   : %d\n", cfg.link.num_vls);
  appendf(out, "  MTU                     : %zu bytes\n", cfg.mtu_bytes);
  appendf(out, "  Topology                : %s\n",
          cfg.topology.describe(cfg.mesh_width, cfg.mesh_height).c_str());
  appendf(out, "\n");
}

// Figure 1 — Average queuing time & network latency under DoS attacks.
//
// Paper setup (sec. 3.1): 16-node mesh, four random partitions, honest nodes
// send at a predefined rate to same-partition peers; attackers flood random
// destinations at full 2.5 Gbps with random (invalid) P_Keys. The realtime
// and best-effort experiments are run separately, each measured on its own
// VL; the sweep variable is the number of attackers (0-4).
//
// Expected shape (paper): queuing time explodes (5 us -> ~100 us realtime,
// -> ~350 us best-effort) while network latency degrades only marginally,
// because credit-based flow control pushes congestion back into the source
// HCAs. Best-effort suffers more than realtime (VL priority).
FigureResult fig1(const fabric::TopologySpec& topology) {
  const auto base_config = [&topology] {
    ScenarioConfig cfg;
    cfg.seed = 2005;
    cfg.fabric.topology = topology;
    cfg.duration = 4 * time_literals::kMillisecond;
    cfg.warmup = 200 * time_literals::kMicrosecond;
    cfg.fabric.link.buffer_bytes_per_vl = 2176;  // 2 MTU packets deep
    return cfg;
  };
  std::string out;
  appendf(out, "=== Figure 1: average queuing time & network latency vs. "
               "number of attackers ===\n\n");
  testbed_banner(out, base_config().fabric);

  constexpr int kMaxAttackers = 4;
  std::vector<ScenarioConfig> configs;

  // (a) realtime workload, attack contends on the realtime VL.
  for (int a = 0; a <= kMaxAttackers; ++a) {
    ScenarioConfig cfg = base_config();
    cfg.enable_best_effort = false;
    cfg.realtime_rate = 0.40;
    cfg.num_attackers = a;
    cfg.attack_vl = fabric::kRealtimeVl;
    configs.push_back(cfg);
  }
  // (b) best-effort workload, attack contends on the best-effort VL.
  for (int a = 0; a <= kMaxAttackers; ++a) {
    ScenarioConfig cfg = base_config();
    cfg.enable_realtime = false;
    cfg.best_effort_load = 0.4;
    cfg.num_attackers = a;
    cfg.attack_vl = fabric::kBestEffortVl;
    configs.push_back(cfg);
  }

  const auto results = workload::run_sweep(configs);

  appendf(out, "(a) Realtime traffic (CBR 40%% of link rate, priority VL)\n");
  appendf(out, "%-14s %18s %18s\n", "Attackers", "Queuing (us)",
          "Net latency (us)");
  for (int a = 0; a <= kMaxAttackers; ++a) {
    const auto& m = results[static_cast<std::size_t>(a)].realtime;
    appendf(out, "%-14d %18.2f %18.2f\n", a, m.queuing_us.mean(),
            m.latency_us.mean());
  }

  appendf(out, "\n(b) Best-effort traffic (Poisson, 40%% injection rate)\n");
  appendf(out, "%-14s %18s %18s\n", "Attackers", "Queuing (us)",
          "Net latency (us)");
  for (int a = 0; a <= kMaxAttackers; ++a) {
    const auto& m =
        results[static_cast<std::size_t>(kMaxAttackers + 1 + a)].best_effort;
    appendf(out, "%-14d %18.2f %18.2f\n", a, m.queuing_us.mean(),
            m.latency_us.mean());
  }

  // Shape assertions (EXPERIMENTS.md records these as the reproduction
  // criteria): queuing rises sharply with attackers; latency only mildly.
  const auto& rt0 = results[0].realtime;
  const auto& rt4 = results[kMaxAttackers].realtime;
  const auto& be0 = results[kMaxAttackers + 1].best_effort;
  const auto& be4 = results[2 * kMaxAttackers + 1].best_effort;
  const double rt_q_ratio = rt4.queuing_us.mean() /
                            std::max(1.0, rt0.queuing_us.mean());
  const double be_q_ratio = be4.queuing_us.mean() /
                            std::max(1.0, be0.queuing_us.mean());
  appendf(out, "\nShape check: realtime queuing x%.1f, latency x%.1f | "
               "best-effort queuing x%.1f, latency x%.1f\n",
          rt_q_ratio, rt4.latency_us.mean() / rt0.latency_us.mean(),
          be_q_ratio, be4.latency_us.mean() / be0.latency_us.mean());
  const bool reproduced = rt_q_ratio > 3 && be_q_ratio > 3 &&
                          be4.queuing_us.mean() > rt4.queuing_us.mean();
  appendf(out, "Paper shape: queuing grows by an order of magnitude, latency "
               "marginally; best-effort hit harder than realtime: %s\n",
          reproduced ? "REPRODUCED" : "NOT REPRODUCED");
  return {std::move(out), reproduced};
}

// Figure 5 — Performance comparison among No Filtering, DPT, IF, and SIF.
//
// Paper setup (sec. 6): four attackers with a 1% probability of being
// active in any attack window; best-effort input loads of 40-70%; the bars
// show average network + queuing delay of non-attacking traffic, with the
// partition-enforcement scheme as the grouping variable.
//
// Expected shape: No Filtering is the worst (attack bursts cross the whole
// fabric); the three filters are close to each other; DPT pays a lookup at
// every hop, IF only at ingress; SIF approximates IF, slightly worse at low
// loads (the trap->SM->switch arming window leaks attack traffic, raising
// variance) and slightly better where it matters because its lookups only
// happen during attacks. Excluding attack periods, SIF < IF (paper: 13.65
// vs 14.19 us).
FigureResult fig5(const fabric::TopologySpec&) {
  std::string out;
  appendf(out,
          "=== Figure 5: No Filtering vs DPT vs IF vs SIF under a 1%%-duty "
          "DoS attack (4 attackers) ===\n\n");

  const std::vector<double> loads = {0.4, 0.5, 0.6, 0.7};
  const std::vector<FilterMode> modes = {FilterMode::kNone, FilterMode::kDpt,
                                         FilterMode::kIf, FilterMode::kSif};

  std::vector<ScenarioConfig> configs;
  for (double load : loads) {
    for (FilterMode mode : modes) {
      ScenarioConfig cfg;
      cfg.seed = 505;
      cfg.duration = 60 * time_literals::kMillisecond;
      cfg.warmup = 200 * time_literals::kMicrosecond;
      cfg.enable_realtime = false;
      // Calibration: "input load" is expressed relative to the saturation
      // point of uniform-random traffic on this 4x4 XY mesh (~80% of raw
      // link injection), so 70% load sits near-but-below saturation as in
      // the paper rather than past it.
      cfg.best_effort_load = load * 0.8;
      cfg.fabric.link.buffer_bytes_per_vl = 2176;
      cfg.fabric.filter_mode = mode;
      cfg.num_attackers = 4;
      cfg.attack_probability = 0.01;  // paper's "conservatively ... 1%"
      cfg.attack_burst = 100 * time_literals::kMicrosecond;
      cfg.attack_vl = fabric::kBestEffortVl;
      configs.push_back(cfg);
    }
  }
  testbed_banner(out, configs.front().fabric);

  const auto results = workload::run_sweep(configs);

  appendf(out, "%-8s %-14s %14s %14s %14s %12s %12s\n", "Load", "Scheme",
          "Queue (us)", "Net (us)", "Total (us)", "sd(total)", "drops@sw");
  std::size_t i = 0;
  for (double load : loads) {
    for (FilterMode mode : modes) {
      const auto& r = results[i++];
      const auto& m = r.best_effort;
      appendf(out, "%-8.0f %-14s %14.2f %14.2f %14.2f %12.2f %12llu\n",
              load * 100, fabric::to_string(mode), m.queuing_us.mean(),
              m.latency_us.mean(), m.total_us.mean(), m.total_us.stddev(),
              static_cast<unsigned long long>(r.switch_filter_drops));
    }
  }

  // Shape check at the highest load: filtering beats no filtering, and the
  // filter family stays within a tight band of each other.
  const std::size_t base = (loads.size() - 1) * modes.size();
  const double none_total = results[base + 0].best_effort.total_us.mean();
  const double dpt_total = results[base + 1].best_effort.total_us.mean();
  const double if_total = results[base + 2].best_effort.total_us.mean();
  const double sif_total = results[base + 3].best_effort.total_us.mean();
  appendf(out, "\n70%% load totals: none=%.2f dpt=%.2f if=%.2f sif=%.2f\n",
          none_total, dpt_total, if_total, sif_total);
  const bool reproduced = none_total > dpt_total && none_total > if_total &&
                          none_total > sif_total &&
                          sif_total < 1.25 * if_total;
  appendf(out, "Paper shape: every filter beats No Filtering; SIF ~ IF: %s\n",
          reproduced ? "REPRODUCED" : "NOT REPRODUCED");
  return {std::move(out), reproduced};
}

// Figure 6 — Message authentication overhead with key initialization.
//
// Paper setup (sec. 6): QP-level key management means a Q_Key (plus secret)
// exchange costs one fabric round trip per communicating QP pair; after
// that each message pays ~one pipeline cycle of MAC work (UMAC at 200 MHz
// keeps up with the 2.5 Gbps link). "No Key" is the baseline with
// pre-shared Q_Keys and plain ICRC; "With Key" runs QP-level key exchange +
// UMAC-32 tags in the ICRC field.
//
// Expected shape: With-Key queuing/network delay within a few microseconds
// of No-Key at every input load — the overhead is amortized across the
// lifetime of each QP pair.
FigureResult fig6(const fabric::TopologySpec&) {
  std::string out;
  appendf(out, "=== Figure 6: authentication overhead with key initialization "
               "(No Key vs With Key) ===\n\n");

  const std::vector<double> loads = {0.4, 0.5, 0.6, 0.7};
  std::vector<ScenarioConfig> configs;
  for (bool with_key : {false, true}) {
    for (double load : loads) {
      ScenarioConfig cfg;
      cfg.seed = 606;
      cfg.duration = 10 * time_literals::kMillisecond;
      cfg.warmup = 200 * time_literals::kMicrosecond;
      cfg.enable_realtime = false;
      // Same input-load calibration as fig5: loads are relative to the
      // mesh's uniform-random saturation point (~80% raw injection).
      cfg.best_effort_load = load * 0.8;
      cfg.fabric.link.buffer_bytes_per_vl = 2176;
      if (with_key) {
        cfg.key_management = KeyManagement::kQpLevel;
        cfg.auth_enabled = true;
        cfg.auth_alg = crypto::AuthAlgorithm::kUmac32;
        // One 3.2 ns pipeline stage per message for the UMAC tag.
        cfg.per_message_auth_overhead = 3200;
      }
      configs.push_back(cfg);
    }
  }
  testbed_banner(out, configs.front().fabric);

  const auto results = workload::run_sweep(configs);

  appendf(out, "%-10s %-10s %14s %14s %12s %12s %10s\n", "Load", "Keys",
          "Queue (us)", "Net (us)", "sd(queue)", "sd(net)", "delivered");
  for (std::size_t mode = 0; mode < 2; ++mode) {
    for (std::size_t li = 0; li < loads.size(); ++li) {
      const auto& r = results[mode * loads.size() + li];
      const auto& m = r.best_effort;
      appendf(out, "%-10.0f %-10s %14.2f %14.2f %12.2f %12.2f %10llu\n",
              loads[li] * 100, mode ? "With Key" : "No Key",
              m.queuing_us.mean(), m.latency_us.mean(),
              m.queuing_us.stddev(), m.latency_us.stddev(),
              static_cast<unsigned long long>(r.delivered));
    }
  }

  // Shape check: at every load the With-Key delay stays close to No-Key,
  // and With-Key traffic (which needs the RSA-unwrapped QP keys) flows at
  // all: a row that delivers nothing has no delay to compare.
  bool reproduced = true;
  for (std::size_t li = 0; li < loads.size(); ++li) {
    const auto& base = results[li].best_effort;
    const auto& keyed = results[loads.size() + li].best_effort;
    if (results[loads.size() + li].delivered == 0) reproduced = false;
    const double base_total = base.queuing_us.mean() + base.latency_us.mean();
    const double keyed_total =
        keyed.queuing_us.mean() + keyed.latency_us.mean();
    appendf(out, "load %.0f%%: total %.2f -> %.2f us (overhead %+.2f)\n",
            loads[li] * 100, base_total, keyed_total,
            keyed_total - base_total);
    if (keyed_total > base_total + 15.0 && keyed_total > 1.5 * base_total) {
      reproduced = false;
    }
  }
  appendf(out, "Paper shape: authentication + QP-level key management costs "
               "only a small constant: %s\n",
          reproduced ? "REPRODUCED" : "NOT REPRODUCED");
  return {std::move(out), reproduced};
}

void print_analytic(std::string& out, const char* title,
                    const analytic::EnforcementParams& p) {
  appendf(out, "%s (n=%lld nodes, s=%lld switches, p=%lld partitions/node, "
               "Pr=%.2f, Avg=%.0f)\n",
          title, static_cast<long long>(p.nodes),
          static_cast<long long>(p.switches),
          static_cast<long long>(p.partitions_per_node), p.attack_probability,
          p.avg_invalid_entries);
  appendf(out, "  %-6s %22s %22s %20s\n", "Scheme", "Mem/switch (entries)",
          "Mem all switches", "Lookups/packet");
  for (const auto& row : analytic::enforcement_table(p)) {
    appendf(out, "  %-6s %22.2f %22.2f %20.4f\n", row.scheme.c_str(),
            row.memory_per_switch_entries, row.memory_all_switches_entries,
            row.lookups_per_packet);
  }
  appendf(out, "\n");
}

// Table 2 — Partition-enforcement overhead: DPT vs IF vs SIF.
//
// Two views:
//  1. The paper's analytic formulas (memory entries and lookups/packet as
//     functions of n, s, p, Pr(n), Avg(p)), evaluated for the simulated
//     testbed and for a larger deployment.
//  2. Measured values from the packet-level simulator: actual table memory
//     programmed into switches and actual lookup counts per forwarded
//     packet under a live attack.
FigureResult table2(const fabric::TopologySpec&) {
  std::string out;
  appendf(out, "=== Table 2: partition enforcement overhead ===\n\n");

  // Analytic view — the simulated testbed.
  analytic::EnforcementParams testbed;
  testbed.nodes = 16;
  testbed.switches = 16;
  testbed.partitions_per_node = 2;  // default + one workload partition
  testbed.attack_probability = 0.01;
  testbed.avg_invalid_entries = 2;
  print_analytic(out, "Analytic, simulated testbed", testbed);

  // Analytic view — a larger deployment, linear f(i).
  analytic::EnforcementParams big;
  big.nodes = 1024;
  big.switches = 128;
  big.partitions_per_node = 8;
  big.attack_probability = 0.01;
  big.avg_invalid_entries = 8;
  print_analytic(out, "Analytic, 1024-node cluster", big);

  // CACTI view: f(i) = 1 cycle for SRAM-resident tables (paper sec. 6).
  analytic::EnforcementParams cacti = testbed;
  cacti.lookup_cost = [](double) { return 1.0; };
  print_analytic(out, "Analytic, CACTI unit-cost lookups", cacti);

  // Measured view from the simulator, under a sustained 4-attacker flood.
  appendf(out, "Measured in the packet-level simulator (4 attackers, "
               "sustained attack, best-effort load 50%%):\n");
  appendf(out, "  %-14s %16s %18s %14s %16s\n", "Scheme", "Table mem (B)",
          "Lookups/fwd pkt", "Drops@switch", "Leaked to HCAs");
  std::vector<ScenarioConfig> configs;
  for (FilterMode mode : {FilterMode::kNone, FilterMode::kDpt, FilterMode::kIf,
                          FilterMode::kSif}) {
    ScenarioConfig cfg;
    cfg.seed = 202;
    cfg.duration = 5 * time_literals::kMillisecond;
    cfg.enable_realtime = false;
    cfg.best_effort_load = 0.5;
    cfg.num_attackers = 4;
    cfg.fabric.filter_mode = mode;
    cfg.attack_vl = fabric::kBestEffortVl;
    configs.push_back(cfg);
  }
  const auto results = workload::run_sweep(configs);
  const char* names[] = {"No Filtering", "DPT", "IF", "SIF"};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double per_pkt =
        r.forwarded ? static_cast<double>(r.switch_filter_lookups) /
                          static_cast<double>(r.forwarded + r.switch_filter_drops)
                    : 0.0;
    appendf(out, "  %-14s %16zu %18.4f %14llu %16llu\n", names[i],
            r.switch_table_memory, per_pkt,
            static_cast<unsigned long long>(r.switch_filter_drops),
            static_cast<unsigned long long>(r.hca_pkey_violations));
  }

  // Shape check: DPT memory dominates; SIF lookups fall between None and IF;
  // and SIF is armed at all: it drops at the switch and leaks less than no
  // filtering (0 lookups would otherwise read as "fewer than IF's").
  const bool reproduced =
      results[1].switch_table_memory > 5 * results[2].switch_table_memory &&
      results[3].switch_filter_lookups < results[2].switch_filter_lookups &&
      results[1].switch_filter_lookups > results[2].switch_filter_lookups &&
      results[3].switch_filter_drops > 0 &&
      results[3].hca_pkey_violations < results[0].hca_pkey_violations;
  appendf(out,
          "\nPaper shape: DPT memory >> IF; lookup counts DPT > IF > SIF: %s\n",
          reproduced ? "REPRODUCED" : "NOT REPRODUCED");
  return {std::move(out), reproduced};
}

// Table 4 companion — empirical tag-collision rates.
//
// Table 4's forgery column is analytic (2^-30 provable for UMAC-32, ~2^-32
// for truncated HMAC, 1 for CRC). This bench measures the observable
// counterpart: hash N random distinct messages under one key and count
// pairwise tag collisions. An ideal 32-bit tag collides ~C(N,2)/2^32 times;
// a broken construction shows up as an excess. CRC-32 is also ideal *here*
// (random inputs!) — its forgery probability of 1 comes from keylessness,
// not from collisions, which the stream-MAC forgery test demonstrates.
FigureResult table4_forgery(const fabric::TopologySpec&) {
  constexpr std::size_t kMessages = 1 << 19;  // 524288
  constexpr std::size_t kMessageBytes = 64;
  std::string out;
  appendf(out, "=== Table 4 companion: empirical 32-bit tag collisions "
               "(%zu random %zu-byte messages) ===\n\n",
          kMessages, kMessageBytes);
  const double expected =
      static_cast<double>(kMessages) * (kMessages - 1) / 2.0 / 4294967296.0;
  appendf(out, "ideal 32-bit tag expectation: %.1f collisions\n\n", expected);

  appendf(out, "%-16s %12s %14s\n", "Algorithm", "collisions", "vs ideal");
  bool all_sane = true;
  for (auto alg :
       {crypto::AuthAlgorithm::kNone, crypto::AuthAlgorithm::kUmac32,
        crypto::AuthAlgorithm::kHmacMd5, crypto::AuthAlgorithm::kHmacSha1,
        crypto::AuthAlgorithm::kHmacSha256, crypto::AuthAlgorithm::kPmac}) {
    const auto mac = crypto::make_mac(
        alg, std::vector<std::uint8_t>(16, 0x42));
    Rng rng(991);
    std::vector<std::uint32_t> tags;
    tags.reserve(kMessages);
    std::vector<std::uint8_t> msg(kMessageBytes);
    for (std::size_t i = 0; i < kMessages; ++i) {
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u32());
      tags.push_back(mac->tag32(msg, /*nonce=*/7));
    }
    std::sort(tags.begin(), tags.end());
    std::size_t collisions = 0;
    for (std::size_t i = 1; i < tags.size(); ++i) {
      if (tags[i] == tags[i - 1]) ++collisions;
    }
    const double ratio = static_cast<double>(collisions) / expected;
    appendf(out, "%-16s %12zu %13.2fx\n",
            std::string(crypto::to_string(alg)).c_str(), collisions, ratio);
    // Within 3x of the birthday bound counts as unbiased at this sample.
    if (ratio > 3.0) all_sane = false;
  }

  appendf(out, "\nEvery tag32 behaves as an unbiased 32-bit hash on random "
               "inputs: %s\n", all_sane ? "CONFIRMED" : "NOT CONFIRMED");
  appendf(out, "(CRC-32's 'forgery probability 1' is keylessness, not "
               "collision bias — see tests/test_stream_mac.cpp for the "
               "constructive forgery.)\n");
  return {std::move(out), all_sane};
}

// Saturation curve — the calibration behind Figures 5/6's "input load".
//
// Sweeps offered best-effort load on the 4x4 mesh (uniform-random
// intra-partition traffic) and reports accepted throughput and delay. The
// knee of this curve (~80% of raw injection for this topology/routing) is
// the constant the figure benches use to place the paper's "70% input
// load" near-but-below saturation, mirroring where the paper's own curves
// bend. Beyond the knee the fabric stops accepting additional load
// (delivered packets plateau) and queuing diverges — the classic
// interconnect saturation signature.
FigureResult saturation(const fabric::TopologySpec& topology) {
  std::string out;
  appendf(out, "=== Saturation curve: offered load vs accepted throughput "
               "(uniform-random intra-partition traffic) ===\n\n");
  {
    fabric::FabricConfig banner;
    banner.topology = topology;
    testbed_banner(out, banner);
  }

  const std::vector<double> offered = {0.1, 0.2, 0.3, 0.4, 0.5,
                                       0.6, 0.7, 0.8, 0.9};
  std::vector<ScenarioConfig> configs;
  for (double load : offered) {
    ScenarioConfig cfg;
    cfg.seed = 1212;
    cfg.fabric.topology = topology;
    cfg.duration = 5 * time_literals::kMillisecond;
    cfg.warmup = 200 * time_literals::kMicrosecond;
    cfg.enable_realtime = false;
    cfg.best_effort_load = load;
    cfg.fabric.link.buffer_bytes_per_vl = 2176;
    configs.push_back(cfg);
  }
  const auto results = workload::run_sweep(configs);

  appendf(out, "%-10s %12s %14s %14s %12s\n", "Offered", "delivered",
          "Queue (us)", "p99 (us)", "accept %");
  double prev_delivered = 0;
  double knee = 1.0;
  for (std::size_t i = 0; i < offered.size(); ++i) {
    const auto& r = results[i];
    const double delivered = static_cast<double>(r.delivered);
    // Acceptance ratio relative to linear scaling from the lowest load.
    const double expected =
        static_cast<double>(results[0].delivered) * offered[i] / offered[0];
    const double accept = 100.0 * delivered / expected;
    appendf(out, "%-10.1f %12llu %14.2f %14.2f %11.0f%%\n", offered[i],
            static_cast<unsigned long long>(r.delivered),
            r.best_effort.queuing_us.mean(), r.best_effort.total_p99(),
            accept);
    // The knee: first load where delivered grows < 60% of the offered step.
    if (i > 0 && knee == 1.0) {
      const double step_gain = delivered - prev_delivered;
      const double step_expected = static_cast<double>(results[0].delivered) *
                                   (offered[i] - offered[i - 1]) / offered[0];
      if (step_gain < 0.6 * step_expected) knee = offered[i - 1];
    }
    prev_delivered = delivered;
  }

  appendf(out, "\nSaturation knee: ~%.0f%% of raw injection. The figure "
               "benches scale 'input load' by 0.8, so the paper's 70%% maps "
               "to 56%% raw — just below this knee, as in the paper.\n",
          knee * 100);
  const bool sane = knee >= 0.5 && knee <= 0.95;
  appendf(out, "Knee inside the expected band for uniform-random XY-mesh "
               "traffic: %s\n", sane ? "CONFIRMED" : "NOT CONFIRMED");
  return {std::move(out), sane};
}

struct RcRun {
  double goodput_gbps = 0;
  std::uint64_t messages = 0;
  std::uint64_t signed_packets = 0;
};

RcRun rc_run(bool with_auth, std::size_t message_bytes) {
  fabric::FabricConfig fcfg;
  fcfg.mesh_width = 2;
  fcfg.mesh_height = 1;
  fabric::Fabric fabric(fcfg);
  transport::PkiDirectory pki;
  transport::ChannelAdapter ca0(fabric, 0, pki, 1, 256);
  transport::ChannelAdapter ca1(fabric, 1, pki, 1, 256);

  auto& a = ca0.create_qp(transport::ServiceType::kReliableConnection,
                          ib::kDefaultPKey);
  auto& b = ca1.create_qp(transport::ServiceType::kReliableConnection,
                          ib::kDefaultPKey);
  ca0.bind_rc(a.qpn, 1, b.qpn);
  ca1.bind_rc(b.qpn, 0, a.qpn);

  std::unique_ptr<security::AuthEngine> e0, e1;
  std::unique_ptr<security::QpKeyManager> k0, k1;
  if (with_auth) {
    e0 = std::make_unique<security::AuthEngine>(ca0);
    e1 = std::make_unique<security::AuthEngine>(ca1);
    k0 = std::make_unique<security::QpKeyManager>(ca0);
    k1 = std::make_unique<security::QpKeyManager>(ca1);
    e0->set_key_manager(k0.get());
    e1->set_key_manager(k1.get());
    e0->enable_for_partition(ib::kDefaultPKey);
    e1->enable_for_partition(ib::kDefaultPKey);
    k0->establish_rc(a.qpn, 1, b.qpn);
    fabric.simulator().run();
  }

  RcRun result;
  std::uint64_t bytes_received = 0;
  ca1.set_message_handler(
      [&](std::span<const std::uint8_t> msg, const transport::QueuePair&) {
        bytes_received += msg.size();
        ++result.messages;
      });

  // Keep the pipe saturated: post the next message when the previous one's
  // segments have drained into the HCA (simple open-loop with a cap).
  const SimTime duration = 4 * time_literals::kMillisecond;
  const std::vector<std::uint8_t> message(message_bytes, 0x5C);
  auto& sim = fabric.simulator();
  std::function<void()> pump = [&] {
    if (sim.now() >= duration) return;
    if (ca0.hca().send_queue_depth(fabric::kBestEffortVl) < 8) {
      ca0.post_message(a.qpn, message,
                       ib::PacketMeta::TrafficClass::kBestEffort);
    }
    sim.after(10 * time_literals::kMicrosecond, pump);
  };
  pump();
  sim.run_until(duration);

  result.goodput_gbps =
      static_cast<double>(bytes_received) * 8.0 /
      (static_cast<double>(duration) / 1e12) / 1e9;
  if (e0) result.signed_packets = e0->stats().signed_packets;
  return result;
}

// RC large-message throughput — does per-segment authentication keep line
// rate?
//
// A single RC connection streams large messages (segmented into SEND
// First/Middle/Last packets at the 1024 B MTU) across one switch hop, with
// and without UMAC tags in each segment's ICRC field. The 2.5 Gb/s 1x link
// is the bound; authentication must not move the achieved goodput (the
// paper's claim that UMAC keeps up with IBA link speed, sec. 6, applied to
// the segmented path).
FigureResult rc_throughput(const fabric::TopologySpec&) {
  std::string out;
  appendf(out, "=== RC large-message throughput with per-segment "
               "authentication ===\n\n");
  appendf(out, "%-12s %-10s %12s %12s %14s\n", "Message", "Auth",
          "Goodput Gb/s", "messages", "signed pkts");
  bool reproduced = true;
  for (std::size_t size : {4096u, 16384u, 65536u}) {
    const RcRun plain = rc_run(false, size);
    const RcRun authed = rc_run(true, size);
    appendf(out, "%-12zu %-10s %12.3f %12llu %14s\n", size, "off",
            plain.goodput_gbps,
            static_cast<unsigned long long>(plain.messages), "-");
    appendf(out, "%-12zu %-10s %12.3f %12llu %14llu\n", size, "umac",
            authed.goodput_gbps,
            static_cast<unsigned long long>(authed.messages),
            static_cast<unsigned long long>(authed.signed_packets));
    if (authed.goodput_gbps < 0.98 * plain.goodput_gbps) reproduced = false;
  }
  appendf(out, "\nPer-segment UMAC tags cost zero goodput at line rate: %s\n",
          reproduced ? "CONFIRMED" : "NOT CONFIRMED");
  return {std::move(out), reproduced};
}

// Ablation — how the SIF activation window shapes the scheme's cost.
//
// SIF's weakness (paper sec. 6) is the interval between the first violating
// packet and the moment the ingress switch is armed: trap MAD transit + SM
// processing + SM->switch programming. This sweep varies the SM programming
// delay and reports how much attack traffic leaks to end hosts and what the
// honest traffic's delay looks like, with IF as the always-on reference.
FigureResult ablation_sif_window(const fabric::TopologySpec&) {
  std::string out;
  appendf(out, "=== Ablation: SIF arming window (SM->switch programming "
               "delay) ===\n\n");

  const std::vector<SimTime> delays = {
      1 * time_literals::kMicrosecond, 5 * time_literals::kMicrosecond,
      20 * time_literals::kMicrosecond, 100 * time_literals::kMicrosecond};

  std::vector<ScenarioConfig> configs;
  for (SimTime delay : delays) {
    ScenarioConfig cfg;
    cfg.seed = 717;
    cfg.duration = 20 * time_literals::kMillisecond;
    cfg.enable_realtime = false;
    cfg.best_effort_load = 0.5;
    cfg.num_attackers = 4;
    cfg.attack_probability = 0.05;
    cfg.attack_burst = 200 * time_literals::kMicrosecond;
    cfg.attack_vl = fabric::kBestEffortVl;
    cfg.fabric.filter_mode = FilterMode::kSif;
    cfg.fabric.sm_program_delay = delay;
    configs.push_back(cfg);
  }
  // IF reference (no window at all).
  {
    ScenarioConfig cfg = configs.front();
    cfg.fabric.filter_mode = FilterMode::kIf;
    configs.push_back(cfg);
  }

  const auto results = workload::run_sweep(configs);

  appendf(out, "%-22s %12s %12s %14s %14s %12s\n", "Config", "Queue (us)",
          "Net (us)", "Leaked pkts", "Drops@sw", "Lookups");
  for (std::size_t i = 0; i < delays.size(); ++i) {
    const auto& r = results[i];
    appendf(out, "SIF, program %5.0f us %12.2f %12.2f %14llu %14llu %12llu\n",
            to_microseconds(delays[i]), r.best_effort.queuing_us.mean(),
            r.best_effort.latency_us.mean(),
            static_cast<unsigned long long>(r.hca_pkey_violations),
            static_cast<unsigned long long>(r.switch_filter_drops),
            static_cast<unsigned long long>(r.switch_filter_lookups));
  }
  const auto& if_ref = results.back();
  appendf(out, "%-22s %12.2f %12.2f %14llu %14llu %12llu\n",
          "IF (reference)", if_ref.best_effort.queuing_us.mean(),
          if_ref.best_effort.latency_us.mean(),
          static_cast<unsigned long long>(if_ref.hca_pkey_violations),
          static_cast<unsigned long long>(if_ref.switch_filter_drops),
          static_cast<unsigned long long>(if_ref.switch_filter_lookups));

  // Shape: leakage grows strictly with the window; lookups stay far below
  // IF's (SIF's whole point) but above 0 (an unarmed SIF leaks the same at
  // every window and looks nothing up).
  bool rising = results[0].switch_filter_lookups > 0;
  for (std::size_t i = 1; i < delays.size(); ++i) {
    if (results[i].hca_pkey_violations <= results[i - 1].hca_pkey_violations ||
        results[i].switch_filter_lookups == 0) {
      rising = false;
    }
  }
  const bool cheaper =
      results[1].switch_filter_lookups < if_ref.switch_filter_lookups;
  appendf(out, "\nLeakage grows with the window, SIF lookups << IF: %s\n",
          (rising && cheaper) ? "CONFIRMED" : "NOT CONFIRMED");
  return {std::move(out), rising && cheaper};
}

// Ablation — which MAC can live in the ICRC field at line rate?
//
// The in-fabric cost of a MAC is one pipeline stage per message whose
// length is (MTU bytes x cycles/byte / crypto clock). For UMAC that stage
// is nanoseconds; for the HMACs at the paper's 350 MHz security-block clock
// it exceeds the packet serialization time, so the sender can no longer
// sustain the injection rate and queuing explodes. This sweep runs the same
// partition-level authenticated workload with each algorithm's modeled
// per-message cost (Table 4) and reports the end-to-end effect — the
// quantitative version of the paper's sec. 5.2/7 argument for UMAC.
FigureResult ablation_mac_algorithms(const fabric::TopologySpec&) {
  std::string out;
  appendf(out, "=== Ablation: MAC algorithm inside the ICRC field "
               "(350 MHz crypto block, 1024 B messages) ===\n\n");

  struct Candidate {
    const char* name;
    crypto::AuthAlgorithm alg;
    double cycles_per_byte;  // Table 4
  };
  const std::vector<Candidate> candidates = {
      {"none (plain ICRC)", crypto::AuthAlgorithm::kNone, 0.0},
      {"UMAC-32", crypto::AuthAlgorithm::kUmac32, 0.7},
      // PMAC with a pipelined AES core ([39]-class hardware): ~1.25 c/B.
      {"PMAC-AES", crypto::AuthAlgorithm::kPmac, 1.25},
      {"HMAC-MD5", crypto::AuthAlgorithm::kHmacMd5, 5.3},
      {"HMAC-SHA1", crypto::AuthAlgorithm::kHmacSha1, 12.6},
  };
  const double crypto_clock_hz = 350e6;

  std::vector<ScenarioConfig> configs;
  for (const Candidate& c : candidates) {
    ScenarioConfig cfg;
    cfg.seed = 808;
    cfg.duration = 5 * time_literals::kMillisecond;
    cfg.enable_realtime = false;
    cfg.best_effort_load = 0.5;
    cfg.fabric.link.buffer_bytes_per_vl = 2176;
    if (c.alg != crypto::AuthAlgorithm::kNone) {
      cfg.key_management = KeyManagement::kPartitionLevel;
      cfg.auth_enabled = true;
      cfg.auth_alg = c.alg;
      const double seconds =
          1024.0 * c.cycles_per_byte / crypto_clock_hz;
      cfg.per_message_auth_overhead =
          static_cast<SimTime>(seconds * 1e12);  // ps
    }
    configs.push_back(cfg);
  }

  const auto results = workload::run_sweep(configs);

  appendf(out, "%-20s %16s %12s %12s %10s\n", "Algorithm", "MAC stage (us)",
          "Queue (us)", "Net (us)", "delivered");
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& r = results[i];
    const SimTime stage =
        configs[i].auth_enabled ? configs[i].per_message_auth_overhead : 0;
    appendf(out, "%-20s %16.3f %12.2f %12.2f %10llu\n", candidates[i].name,
            to_microseconds(stage), r.best_effort.queuing_us.mean(),
            r.best_effort.latency_us.mean(),
            static_cast<unsigned long long>(r.delivered));
  }

  // Shape: UMAC within noise of the baseline; HMAC-SHA1's per-message stage
  // (~37 us > the 3.4 us serialization slot) visibly degrades service.
  const double base_q = results[0].best_effort.queuing_us.mean();
  const double umac_q = results[1].best_effort.queuing_us.mean();
  const double sha_q = results[4].best_effort.queuing_us.mean();
  const bool confirmed = umac_q < base_q + 10.0 && sha_q > umac_q;
  appendf(out, "\nUMAC ~ baseline (%.2f vs %.2f us), HMAC-SHA1 degraded "
               "(%.2f us): %s\n",
          umac_q, base_q, sha_q, confirmed ? "CONFIRMED" : "NOT CONFIRMED");
  return {std::move(out), confirmed};
}

// Ablation — PSN replay window (paper sec. 7 extension).
//
// The paper defers replay protection to future work, noting nonce
// management "will be another overhead". This ablation quantifies that
// overhead in the fabric model: the PSN window is O(1) state per stream and
// adds no wire bytes (the PSN already exists), so the measured cost is
// zero; the benefit is measured by injecting verbatim replays of captured
// authenticated packets and counting how many land.
FigureResult ablation_replay(const fabric::TopologySpec&) {
  std::string out;
  appendf(out, "=== Ablation: PSN replay window on/off ===\n\n");

  std::vector<ScenarioConfig> configs;
  for (bool replay_protection : {false, true}) {
    ScenarioConfig cfg;
    cfg.seed = 909;
    cfg.duration = 5 * time_literals::kMillisecond;
    cfg.enable_realtime = false;
    cfg.best_effort_load = 0.5;
    cfg.key_management = KeyManagement::kPartitionLevel;
    cfg.auth_enabled = true;
    cfg.replay_protection = replay_protection;
    configs.push_back(cfg);
  }
  const auto results = workload::run_sweep(configs);

  appendf(out, "%-14s %12s %12s %12s %12s\n", "Window", "Queue (us)",
          "Net (us)", "delivered", "auth rej");
  for (std::size_t i = 0; i < 2; ++i) {
    appendf(out, "%-14s %12.2f %12.2f %12llu %12llu\n", i ? "on" : "off",
            results[i].best_effort.queuing_us.mean(),
            results[i].best_effort.latency_us.mean(),
            static_cast<unsigned long long>(results[i].delivered),
            static_cast<unsigned long long>(results[i].auth_rejected));
  }

  // Cost: protection must not reject legitimate in-order traffic and must
  // not measurably change delay.
  const bool zero_cost =
      results[1].auth_rejected == 0 &&
      std::abs(results[1].best_effort.queuing_us.mean() -
               results[0].best_effort.queuing_us.mean()) < 2.0;

  // Benefit: replay captured authenticated packets into a protected victim.
  ScenarioConfig cfg = configs[1];
  workload::Scenario scenario(cfg);
  // Capture some packets at node 0 (if it isn't the attacker).
  std::vector<ib::Packet> captured;
  scenario.ca(0).set_delivery_probe([&](const ib::Packet& pkt) {
    scenario.metrics().record(pkt);
    if (captured.size() < 50 && pkt.meta.dst_node == 0 && pkt.deth) {
      captured.push_back(pkt);
    }
  });
  scenario.run();
  const obs::Counter& rejected = *scenario.ca(0).retire_obs().auth_rejected;
  const auto rejected_before = rejected.value();
  for (const ib::Packet& pkt : captured) {
    ib::Packet replay = pkt;
    replay.meta = ib::PacketMeta{};
    replay.meta.is_attack = true;
    scenario.ca(5).inject_raw(std::move(replay));
  }
  scenario.fabric().simulator().run();
  const auto rejected_after = rejected.value();
  const auto blocked = rejected_after - rejected_before;

  appendf(out, "\nReplayed %zu captured packets; %llu blocked by the window\n",
          captured.size(), static_cast<unsigned long long>(blocked));
  const bool confirmed = zero_cost && blocked == captured.size();
  appendf(out, "Zero measured cost and full replay rejection: %s\n",
          confirmed ? "CONFIRMED" : "NOT CONFIRMED");
  return {std::move(out), confirmed};
}

// Ablation — per-VL credit depth and the queuing/latency split.
//
// The paper's central measurement choice (sec. 3.1) — queuing time at the
// HCA as the DoS signal, with network latency nearly flat — is a direct
// consequence of credit-based flow control with shallow buffers: congestion
// cannot pool inside the fabric, so it backs up to the source. This sweep
// varies the per-VL receive buffer (in MTU packets) and shows the split
// move: deeper buffers absorb more of the delay as in-network latency and
// less as source queuing, while the total stays comparable.
FigureResult ablation_buffer_depth(const fabric::TopologySpec&) {
  std::string out;
  appendf(out, "=== Ablation: per-VL credit depth vs queuing/latency split "
               "(best-effort 50%% load, 2 attackers) ===\n\n");

  const std::vector<std::size_t> depths_in_mtus = {1, 2, 4, 8, 16};
  std::vector<ScenarioConfig> configs;
  for (std::size_t depth : depths_in_mtus) {
    ScenarioConfig cfg;
    cfg.seed = 1010;
    cfg.duration = 5 * time_literals::kMillisecond;
    cfg.enable_realtime = false;
    cfg.best_effort_load = 0.5;
    cfg.num_attackers = 2;
    cfg.attack_vl = fabric::kBestEffortVl;
    cfg.fabric.link.buffer_bytes_per_vl = depth * 1088;  // MTU + headers
    configs.push_back(cfg);
  }
  const auto results = workload::run_sweep(configs);

  appendf(out, "%-16s %14s %14s %14s %16s\n", "Buffer (MTUs)", "Queue (us)",
          "Net (us)", "Total (us)", "latency share");
  for (std::size_t i = 0; i < depths_in_mtus.size(); ++i) {
    const auto& m = results[i].best_effort;
    const double total = m.queuing_us.mean() + m.latency_us.mean();
    appendf(out, "%-16zu %14.2f %14.2f %14.2f %15.0f%%\n", depths_in_mtus[i],
            m.queuing_us.mean(), m.latency_us.mean(), total,
            100.0 * m.latency_us.mean() / total);
  }

  // Shape: the latency share of the total grows monotonically with depth.
  bool monotone = true;
  double prev_share = -1;
  for (const auto& r : results) {
    const auto& m = r.best_effort;
    const double share =
        m.latency_us.mean() / (m.queuing_us.mean() + m.latency_us.mean());
    if (share < prev_share - 0.02) monotone = false;
    prev_share = share;
  }
  appendf(out, "\nDeeper credits shift delay from source queuing into the "
               "fabric: %s\n", monotone ? "CONFIRMED" : "NOT CONFIRMED");
  return {std::move(out), monotone};
}

// Ablation — the attack SIF cannot stop, and the defence that can.
//
// Paper sec. 7: "Dumping traffic only with a valid P_Key. Since this attack
// uses a valid P_Key, any ingress filtering is useless." We reproduce the
// attack (compromised members flooding their own partition with their
// legitimate P_Key) and compare three postures:
//
//   1. SIF            — blind to it: no receiver ever traps.
//   2. ingress cap    — token-bucket admission control at HCA-facing switch
//                       ports bounds any single node's injection share.
//   3. both           — layered: SIF for invalid keys, caps for valid ones.
//
// The interesting numbers: honest traffic's delay under each posture and
// how much attack traffic the cap absorbs at the first hop.
FigureResult ablation_rate_limit(const fabric::TopologySpec&) {
  std::string out;
  appendf(out, "=== Ablation: valid-P_Key flood — SIF vs ingress rate "
               "limiting (sec. 7) ===\n\n");

  struct Posture {
    const char* name;
    FilterMode filter;
    double cap;  // ingress fraction, 0 = off
  };
  const std::vector<Posture> postures = {
      {"no defence", FilterMode::kNone, 0.0},
      {"SIF only", FilterMode::kSif, 0.0},
      {"ingress cap 60%", FilterMode::kNone, 0.6},
      {"SIF + cap 60%", FilterMode::kSif, 0.6},
  };

  std::vector<ScenarioConfig> configs;
  for (const Posture& p : postures) {
    ScenarioConfig cfg;
    cfg.seed = 1111;
    cfg.duration = 5 * time_literals::kMillisecond;
    cfg.enable_realtime = false;
    cfg.best_effort_load = 0.4;
    cfg.fabric.link.buffer_bytes_per_vl = 2176;
    cfg.num_attackers = 2;
    cfg.attack_with_valid_pkey = true;  // the sec. 7 attack
    cfg.attack_vl = fabric::kBestEffortVl;
    cfg.fabric.filter_mode = p.filter;
    cfg.fabric.ingress_rate_limit_fraction = p.cap;
    configs.push_back(cfg);
  }
  const auto results = workload::run_sweep(configs);

  appendf(out, "%-18s %12s %12s %14s %12s %12s\n", "Posture", "Queue (us)",
          "Net (us)", "rate-limited", "SIF drops", "traps");
  for (std::size_t i = 0; i < postures.size(); ++i) {
    const auto& r = results[i];
    appendf(out, "%-18s %12.2f %12.2f %14llu %12llu %12llu\n",
            postures[i].name, r.best_effort.queuing_us.mean(),
            r.best_effort.latency_us.mean(),
            static_cast<unsigned long long>(r.rate_limited),
            static_cast<unsigned long long>(r.switch_filter_drops),
            static_cast<unsigned long long>(r.sm_traps_received));
  }

  // Shape: SIF alone changes nothing (no traps fire); the ingress cap
  // absorbs attack traffic at the first hop and improves honest delay.
  const double undefended = results[0].best_effort.queuing_us.mean();
  const double sif_only = results[1].best_effort.queuing_us.mean();
  const double capped = results[2].best_effort.queuing_us.mean();
  const bool reproduced = results[1].sm_traps_received == 0 &&
                          std::abs(sif_only - undefended) < 2.0 &&
                          capped < 0.7 * undefended &&
                          results[2].rate_limited > 0;
  appendf(out, "\nSIF blind to valid-P_Key floods (0 traps, delay unchanged); "
               "ingress cap restores service: %s\n",
          reproduced ? "CONFIRMED" : "NOT CONFIRMED");
  return {std::move(out), reproduced};
}

constexpr Figure kFigures[] = {
    {"fig1", true, fig1},
    {"fig5", false, fig5},
    {"fig6", false, fig6},
    {"table2", false, table2},
    {"table4_forgery", false, table4_forgery},
    {"saturation", true, saturation},
    {"rc_throughput", false, rc_throughput},
    {"ablation_sif_window", false, ablation_sif_window},
    {"ablation_mac_algorithms", false, ablation_mac_algorithms},
    {"ablation_replay", false, ablation_replay},
    {"ablation_buffer_depth", false, ablation_buffer_depth},
    {"ablation_rate_limit", false, ablation_rate_limit},
};

}  // namespace

std::span<const Figure> all_figures() { return kFigures; }

}  // namespace ibsec::bench
