// VL arbitration: WRR table semantics in isolation, then end-to-end
// bandwidth sharing on a congested link.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"

#include "fabric/topology.h"
#include "fabric/vl_arbiter.h"

namespace ibsec::fabric {
namespace {

bool always(ib::VirtualLane) { return true; }

TEST(VlArbiter, HighTableWinsWhenSendable) {
  VlArbitrationConfig config;
  config.high_priority = {{1, 10}};
  config.low_priority = {{0, 10}};
  VlArbiter arb(config);
  EXPECT_EQ(arb.pick(always), 1);
}

TEST(VlArbiter, FallsToLowWhenHighEmptyHanded) {
  VlArbitrationConfig config;
  config.high_priority = {{1, 10}};
  config.low_priority = {{0, 10}};
  VlArbiter arb(config);
  const auto only_vl0 = [](ib::VirtualLane vl) { return vl == 0; };
  EXPECT_EQ(arb.pick(only_vl0), 0);
}

TEST(VlArbiter, ReturnsMinusOneWhenNothingSendable) {
  VlArbitrationConfig config;
  config.high_priority = {{1, 10}};
  config.low_priority = {{0, 10}};
  VlArbiter arb(config);
  EXPECT_EQ(arb.pick([](ib::VirtualLane) { return false; }), -1);
}

TEST(VlArbiter, WeightedAlternation) {
  // Two low-priority VLs with weights 2:1 (in 64-byte units); sending
  // 64-byte packets should yield a 2:1 service pattern.
  VlArbitrationConfig config;
  config.low_priority = {{2, 2}, {3, 1}};
  VlArbiter arb(config);
  std::map<int, int> counts;
  for (int i = 0; i < 30; ++i) {
    const int vl = arb.pick(always);
    ASSERT_GE(vl, 0);
    ++counts[vl];
    arb.on_sent(static_cast<ib::VirtualLane>(vl), 64);
  }
  EXPECT_EQ(counts[2], 20);
  EXPECT_EQ(counts[3], 10);
}

TEST(VlArbiter, LargePacketExhaustsWeight) {
  // Weight 16 = 1024 bytes: one MTU packet spends the whole allocation.
  VlArbitrationConfig config;
  config.low_priority = {{2, 16}, {3, 16}};
  VlArbiter arb(config);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    const int vl = arb.pick(always);
    order.push_back(vl);
    arb.on_sent(static_cast<ib::VirtualLane>(vl), 1058);
  }
  EXPECT_EQ(order, (std::vector<int>{2, 3, 2, 3}));
}

TEST(VlArbiter, ZeroWeightEntriesNeverServe) {
  VlArbitrationConfig config;
  config.low_priority = {{2, 0}, {3, 5}};
  VlArbiter arb(config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(arb.pick(always), 3);
    arb.on_sent(3, 64);
  }
}

TEST(VlArbiter, PaperDefaultShape) {
  const auto config = VlArbitrationConfig::paper_default(16);
  ASSERT_EQ(config.high_priority.size(), 1u);
  EXPECT_EQ(config.high_priority[0].vl, kRealtimeVl);
  // Low table: best-effort plus the 13 remaining data VLs (not VL15).
  ASSERT_EQ(config.low_priority.size(), 14u);
  EXPECT_EQ(config.low_priority[0].vl, kBestEffortVl);
  for (const auto& entry : config.low_priority) {
    EXPECT_NE(entry.vl, ib::kManagementVl);
  }
}

// --- differential: pick_mask and pick against the original scan -------------

/// The WRR scan as written before pick_mask: each table walked lazily from
/// its pointer with `%` wrap-around, no per-table short-circuit. The
/// arbiter's pick_mask() and pick() must choose the VL this does, step by
/// step, and leave the tables where it leaves them.
class ReferenceArbiter {
 public:
  explicit ReferenceArbiter(const VlArbitrationConfig& config) {
    for (const auto& entry : config.high_priority) {
      if (entry.weight > 0) high_.entries.push_back(entry);
    }
    for (const auto& entry : config.low_priority) {
      if (entry.weight > 0) low_.entries.push_back(entry);
    }
    high_.refill();
    low_.refill();
  }

  template <class Sendable>
  int pick(const Sendable& sendable) {
    const int high = pick_from(high_, sendable);
    if (high >= 0) return high;
    return pick_from(low_, sendable);
  }

  void on_sent(ib::VirtualLane vl, std::size_t bytes) {
    if (last_table_ == nullptr || last_table_->entries.empty()) return;
    Table& table = *last_table_;
    if (table.entries[table.index].vl != vl) return;
    const auto units = static_cast<std::uint32_t>((bytes + 63) / 64);
    if (units >= table.remaining) {
      table.advance();
    } else {
      table.remaining -= units;
    }
  }

 private:
  struct Table {
    std::vector<VlArbitrationEntry> entries;
    std::size_t index = 0;
    std::uint32_t remaining = 0;
    void refill() {
      if (!entries.empty()) remaining = entries[index].weight;
    }
    void advance() {
      if (entries.empty()) return;
      index = (index + 1) % entries.size();
      refill();
    }
  };

  template <class Sendable>
  int pick_from(Table& table, const Sendable& sendable) {
    if (table.entries.empty()) return -1;
    for (std::size_t scanned = 0; scanned < table.entries.size(); ++scanned) {
      const VlArbitrationEntry& entry = table.entries[table.index];
      if (table.remaining > 0 && sendable(entry.vl)) {
        last_table_ = &table;
        return entry.vl;
      }
      table.advance();
    }
    return -1;
  }

  Table high_;
  Table low_;
  Table* last_table_ = nullptr;
};

std::vector<VlArbitrationEntry> random_table(Rng& rng) {
  std::vector<VlArbitrationEntry> table(1 + rng.uniform(64));
  for (auto& entry : table) {
    // Data VLs only, so a 64-entry table repeats VLs; one entry in eight
    // has weight 0 and must never serve.
    entry.vl = static_cast<ib::VirtualLane>(rng.uniform(15));
    entry.weight = rng.uniform(8) == 0
                       ? 0
                       : static_cast<std::uint8_t>(1 + rng.uniform(255));
  }
  return table;
}

TEST(VlArbiter, PickMaskAndPickMatchTheOriginalScan) {
  Rng rng(2005);
  std::uint64_t steps = 0;
  std::uint64_t grants = 0;
  for (int trial = 0; trial < 200; ++trial) {
    VlArbitrationConfig config;
    config.high_priority = random_table(rng);
    config.low_priority = random_table(rng);
    ReferenceArbiter reference(config);
    VlArbiter by_mask(config);
    VlArbiter by_predicate(config);
    for (int step = 0; step < 1000; ++step, ++steps) {
      // Sparse sets as often as dense ones, so whole tables often hold no
      // sendable VL and the short-circuit runs.
      std::uint32_t sendable = static_cast<std::uint32_t>(rng.next_u64());
      for (std::uint64_t thin = rng.uniform(4); thin > 0; --thin) {
        sendable &= static_cast<std::uint32_t>(rng.next_u64());
      }
      sendable &= 0x7FFF;
      const auto in_set = [sendable](ib::VirtualLane vl) {
        return (sendable >> vl & 1u) != 0;
      };
      const int want = reference.pick(in_set);
      ASSERT_EQ(by_mask.pick_mask(sendable), want)
          << "trial " << trial << " step " << step;
      ASSERT_EQ(by_predicate.pick(in_set), want)
          << "trial " << trial << " step " << step;
      if (want < 0) continue;
      ++grants;
      const auto vl = static_cast<ib::VirtualLane>(want);
      const std::size_t bytes = 1 + rng.uniform(4200);
      reference.on_sent(vl, bytes);
      by_mask.on_sent(vl, bytes);
      by_predicate.on_sent(vl, bytes);
    }
  }
  EXPECT_GE(steps, 100'000u);
  EXPECT_GT(grants, steps / 4);
}

// --- end-to-end: bandwidth sharing on one congested link ---------------------

TEST(VlArbiterFabric, WeightedShareOnCongestedLink) {
  // Two flows on VLs 2 and 3 with weights 3:1 blast a single link; the
  // delivered byte counts should approach that ratio.
  FabricConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 1;
  VlArbitrationConfig arb;
  arb.low_priority = {{2, 48}, {3, 16}};  // 3 MTU : 1 MTU
  cfg.link.arbitration = arb;
  Fabric fabric(cfg);

  std::map<int, int> delivered;
  fabric.hca(1).set_receive_callback([&](ib::Packet&& pkt) {
    ++delivered[pkt.lrh.vl];
  });

  auto send_burst = [&](ib::VirtualLane vl, int count) {
    for (int i = 0; i < count; ++i) {
      ib::Packet pkt;
      pkt.lrh.vl = vl;
      pkt.lrh.sl = vl;
      pkt.lrh.slid = fabric.lid_of_node(0);
      pkt.lrh.dlid = fabric.lid_of_node(1);
      pkt.bth.opcode = ib::OpCode::kUdSendOnly;
      pkt.bth.pkey = ib::kDefaultPKey;
      pkt.deth = ib::Deth{1, 2};
      pkt.payload.assign(1024, 0x11);
      pkt.finalize();
      fabric.hca(0).send(std::move(pkt));
    }
  };
  send_burst(2, 60);
  send_burst(3, 60);
  // Run only long enough for ~40 packets' worth of link time, then check
  // the interleaving ratio among those delivered.
  fabric.simulator().run_until(40 * 3'400'000);
  ASSERT_GT(delivered[2], 0);
  ASSERT_GT(delivered[3], 0);
  const double ratio =
      static_cast<double>(delivered[2]) / static_cast<double>(delivered[3]);
  EXPECT_NEAR(ratio, 3.0, 0.8);
  fabric.simulator().run();  // drain to keep destructors happy
}

TEST(VlArbiterFabric, DefaultConfigKeepsRealtimePriority) {
  // Regression guard: with the default tables, realtime still preempts a
  // best-effort backlog (the Figure 1 mechanism).
  FabricConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 1;
  Fabric fabric(cfg);
  std::vector<ib::VirtualLane> order;
  fabric.hca(1).set_receive_callback(
      [&](ib::Packet&& pkt) { order.push_back(pkt.lrh.vl); });
  for (int i = 0; i < 8; ++i) {
    ib::Packet pkt;
    pkt.lrh.vl = kBestEffortVl;
    pkt.lrh.slid = fabric.lid_of_node(0);
    pkt.lrh.dlid = fabric.lid_of_node(1);
    pkt.bth.opcode = ib::OpCode::kUdSendOnly;
    pkt.bth.pkey = ib::kDefaultPKey;
    pkt.deth = ib::Deth{1, 2};
    pkt.payload.assign(1024, 0);
    pkt.finalize();
    fabric.hca(0).send(std::move(pkt));
  }
  ib::Packet rt;
  rt.lrh.vl = kRealtimeVl;
  rt.lrh.slid = fabric.lid_of_node(0);
  rt.lrh.dlid = fabric.lid_of_node(1);
  rt.bth.opcode = ib::OpCode::kUdSendOnly;
  rt.bth.pkey = ib::kDefaultPKey;
  rt.deth = ib::Deth{1, 2};
  rt.payload.assign(1024, 0);
  rt.finalize();
  fabric.hca(0).send(std::move(rt));
  fabric.simulator().run();
  const auto rt_pos =
      std::find(order.begin(), order.end(), kRealtimeVl) - order.begin();
  EXPECT_LE(rt_pos, 2);
}

TEST(VlArbiterFabric, CustomTableDispatchOrderUnderCreditStalls) {
  // Dispatch-order oracle for custom WRR tables. Three low-priority VLs with
  // weights small enough that a half-spent entry's remaining weight decides
  // who sends next, buffers two packets deep so ports credit-stall, and
  // bursts from two sources separated by idle gaps, so credits come back to
  // stalled, busy and idle ports alike. Every (arrival time, VL, PSN) at the
  // far HCA is folded into one FNV-1a hash, pinned from the event-per-credit
  // implementation; any change to when a credit lands or what arbitration
  // does on its arrival moves it.
  FabricConfig cfg;
  cfg.mesh_width = 3;
  cfg.mesh_height = 1;
  cfg.link.buffer_bytes_per_vl = 256;
  VlArbitrationConfig arb;
  arb.low_priority = {{2, 2}, {3, 2}, {4, 1}};
  cfg.link.arbitration = arb;
  Fabric fabric(cfg);
  sim::Simulator& sim = fabric.simulator();

  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  };
  int delivered = 0;
  fabric.hca(2).set_receive_callback([&](ib::Packet&& pkt) {
    mix(static_cast<std::uint64_t>(pkt.meta.delivered_at));
    mix(pkt.lrh.vl);
    mix(pkt.bth.psn);
    ++delivered;
  });

  std::uint32_t psn = 0;
  const auto send_burst = [&](int src, int count, int phase) {
    static constexpr std::size_t kPayloads[] = {16, 64, 200, 40, 120};
    for (int i = 0; i < count; ++i) {
      const auto vl = static_cast<ib::VirtualLane>(2 + (i + phase) % 3);
      ib::Packet pkt;
      pkt.lrh.vl = vl;
      pkt.lrh.sl = vl;
      pkt.lrh.slid = fabric.lid_of_node(src);
      pkt.lrh.dlid = fabric.lid_of_node(2);
      pkt.bth.opcode = ib::OpCode::kUdSendOnly;
      pkt.bth.pkey = ib::kDefaultPKey;
      pkt.bth.psn = psn++;
      pkt.deth = ib::Deth{1, 2};
      pkt.payload.assign(kPayloads[(i * 3 + phase) % 5], 0x5a);
      pkt.finalize();
      fabric.hca(src).send(std::move(pkt));
    }
  };
  constexpr int kBursts = 12;
  for (int b = 0; b < kBursts; ++b) {
    // Bursts of 7 to 16 packets every 9 us, the second source offset by a
    // burst-dependent lag so its traffic meets the first at sw1 and sw2.
    const SimTime at = b * 9 * time_literals::kMicrosecond;
    sim.at(at, [&send_burst, b] { send_burst(0, 7 + (b * 5) % 10, b); });
    sim.at(at + (b % 4) * 700 * time_literals::kNanosecond,
           [&send_burst, b] { send_burst(1, 5 + (b * 3) % 7, b + 1); });
  }
  sim.run();

  int sent = 0;
  for (int b = 0; b < kBursts; ++b) sent += 7 + (b * 5) % 10 + 5 + (b * 3) % 7;
  EXPECT_EQ(delivered, sent);
  EXPECT_EQ(sim.packets().in_use(), 0u);
  // The buffers really are shallow enough to stall senders.
  obs::Registry& reg = sim.obs();
  EXPECT_GT(reg.time_accumulator("link.hca0.out.credit_stall").total() +
                reg.time_accumulator("link.sw1.out1.credit_stall").total(),
            0);
  EXPECT_EQ(hash, 0x5ea85415136cf36eull) << std::hex << hash;
}

}  // namespace
}  // namespace ibsec::fabric
