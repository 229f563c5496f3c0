// Ingress admission control: token-bucket unit behaviour, switch
// integration, the sec. 7 valid-P_Key flood it exists for, and VL15
// exemption.
#include <gtest/gtest.h>

#include "fabric/rate_limiter.h"
#include "workload/scenario.h"
#include "switch_totals.h"

namespace ibsec::fabric {
namespace {

using namespace ibsec::time_literals;

TEST(TokenBucket, InitialBurstAvailable) {
  TokenBucket bucket(1000.0, 500);
  EXPECT_TRUE(bucket.consume(500, 0));
  EXPECT_FALSE(bucket.consume(1, 0));
}

TEST(TokenBucket, RefillsAtConfiguredRate) {
  TokenBucket bucket(1000.0, 1000);  // 1000 B/s
  EXPECT_TRUE(bucket.consume(1000, 0));
  // After 0.5 simulated seconds: 500 bytes back.
  const SimTime half_second = 500'000'000'000LL;
  EXPECT_FALSE(bucket.consume(501, half_second));
  EXPECT_TRUE(bucket.consume(500, half_second));
}

TEST(TokenBucket, CapsAtBurst) {
  TokenBucket bucket(1e9, 100);
  // A long quiet period must not accumulate beyond the burst size.
  EXPECT_FALSE(bucket.consume(101, 10 * kSecond));
  EXPECT_TRUE(bucket.consume(100, 10 * kSecond));
}

TEST(TokenBucket, FailedConsumeTakesNothing) {
  TokenBucket bucket(0.0, 100);
  EXPECT_FALSE(bucket.consume(200, 0));
  EXPECT_TRUE(bucket.consume(100, 0));  // still all there
}

TEST(TokenBucket, TimeNeverRunsBackward) {
  TokenBucket bucket(1000.0, 100);
  EXPECT_TRUE(bucket.consume(100, kSecond));
  // An out-of-order timestamp must not mint tokens.
  EXPECT_FALSE(bucket.consume(50, 0));
}

TEST(IngressRateLimit, CapsASingleNodeFlood) {
  FabricConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 1;
  cfg.ingress_rate_limit_fraction = 0.5;
  cfg.ingress_rate_limit_burst = 2176;
  Fabric fabric(cfg);

  int received = 0;
  fabric.hca(1).set_receive_callback([&](ib::Packet&&) { ++received; });
  // Blast 40 MTU packets back to back: at a 50% cap only about half the
  // line-rate stream is admitted (plus the initial burst allowance).
  for (int i = 0; i < 40; ++i) {
    ib::Packet pkt;
    pkt.lrh.vl = kBestEffortVl;
    pkt.lrh.slid = fabric.lid_of_node(0);
    pkt.lrh.dlid = fabric.lid_of_node(1);
    pkt.bth.opcode = ib::OpCode::kUdSendOnly;
    pkt.bth.pkey = ib::kDefaultPKey;
    pkt.deth = ib::Deth{1, 2};
    pkt.payload.assign(1024, 0x22);
    pkt.finalize();
    fabric.hca(0).send(std::move(pkt));
  }
  fabric.simulator().run();
  const std::uint64_t dropped_rate_limited =
      switch_total(fabric, &Switch::ObsHandles::drop_rate_limited);
  EXPECT_GT(dropped_rate_limited, 10u);
  EXPECT_EQ(static_cast<std::uint64_t>(received) + dropped_rate_limited,
            40u);
}

TEST(IngressRateLimit, ManagementVlExempt) {
  FabricConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 1;
  cfg.ingress_rate_limit_fraction = 0.01;  // drastic cap
  cfg.ingress_rate_limit_burst = 1100;
  Fabric fabric(cfg);
  int received = 0;
  fabric.hca(1).set_receive_callback([&](ib::Packet&&) { ++received; });
  for (int i = 0; i < 10; ++i) {
    ib::Packet pkt;
    pkt.lrh.vl = ib::kManagementVl;
    pkt.lrh.slid = fabric.lid_of_node(0);
    pkt.lrh.dlid = fabric.lid_of_node(1);
    pkt.bth.opcode = ib::OpCode::kUdSendOnly;
    pkt.bth.dest_qp = ib::kQp0SubnetManagement;
    pkt.deth = ib::Deth{0, 0};
    pkt.payload.assign(256, 0);
    pkt.finalize();
    fabric.hca(0).send(std::move(pkt));
  }
  fabric.simulator().run();
  EXPECT_EQ(received, 10);  // every MAD arrived despite the cap
}

TEST(IngressRateLimit, DisabledByDefault) {
  FabricConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 1;
  Fabric fabric(cfg);
  int received = 0;
  fabric.hca(1).set_receive_callback([&](ib::Packet&&) { ++received; });
  for (int i = 0; i < 20; ++i) {
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
  fabric.simulator().run();
  EXPECT_EQ(received, 20);
  EXPECT_EQ(switch_total(fabric, &Switch::ObsHandles::drop_rate_limited), 0u);
}

TEST(ValidPkeyFlood, DefeatsSifButNotRateLimit) {
  // The sec. 7 attack end to end through the scenario harness.
  workload::ScenarioConfig cfg;
  cfg.seed = 21;
  cfg.duration = 1 * kMillisecond;
  cfg.enable_realtime = false;
  cfg.best_effort_load = 0.4;
  cfg.num_attackers = 2;
  cfg.attack_with_valid_pkey = true;
  cfg.attack_vl = kBestEffortVl;
  cfg.fabric.filter_mode = FilterMode::kSif;

  workload::Scenario sif_only(cfg);
  const auto r_sif = sif_only.run();
  EXPECT_GT(r_sif.attack_packets, 100u);
  EXPECT_EQ(r_sif.sm_traps_received, 0u);   // nobody traps: P_Key is valid
  EXPECT_EQ(r_sif.switch_filter_drops, 0u); // SIF never arms

  cfg.fabric.ingress_rate_limit_fraction = 0.5;
  workload::Scenario with_cap(cfg);
  const auto r_cap = with_cap.run();
  EXPECT_GT(r_cap.rate_limited, 50u);
  // Honest delay improves (strictly better or at least not worse).
  EXPECT_LE(r_cap.best_effort.queuing_us.mean(),
            r_sif.best_effort.queuing_us.mean());
}

}  // namespace
}  // namespace ibsec::fabric
