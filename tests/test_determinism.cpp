// Determinism regression: identical (topology, seed) must produce
// byte-identical metric snapshots — across repeated runs and across
// ThreadPool worker counts. Any global state, wall-clock dependence, or
// scheduling-sensitive counter breaks these.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "crypto/sha256.h"
#include "workload/experiment.h"

namespace ibsec::workload {
namespace {

using time_literals::kMicrosecond;

ScenarioConfig config_variant(int i) {
  ScenarioConfig cfg;
  cfg.seed = 21 + static_cast<std::uint64_t>(i);
  cfg.warmup = 50 * kMicrosecond;
  cfg.duration = 300 * kMicrosecond;
  // Every variant also exercises the trace + time-series exports, so the
  // worker-count invariance below covers them too.
  cfg.trace.enabled = true;
  cfg.trace.sample_every = 2;
  cfg.trace.sample_seed = cfg.seed;
  cfg.timeseries_dt = 25 * kMicrosecond;
  // The audit plane rides every variant too, so rerun and worker-count
  // invariance below pin its export alongside trace and time series.
  cfg.audit.enabled = true;
  switch (i % 4) {
    case 0:
      cfg.num_attackers = 2;
      cfg.fabric.filter_mode = fabric::FilterMode::kSif;
      break;
    case 1:
      cfg.num_attackers = 1;
      cfg.fabric.filter_mode = fabric::FilterMode::kIf;
      break;
    case 2:
      // Lossy links + the RC reliability protocol: retransmission timers,
      // coalesced ACKs and per-link fault RNGs all have to replay exactly.
      cfg.fabric.fault_campaign =
          *fabric::FaultCampaign::parse("seed=9;drop=0.03;corrupt=0.01");
      cfg.rc.enabled = true;
      cfg.enable_rc_messages = true;
      cfg.rc_load = 0.15;
      break;
    default:
      break;  // baseline
  }
  return cfg;
}

TEST(Determinism, FaultyLinkRcRetransmitsByteIdentical) {
  ScenarioConfig cfg = config_variant(2);
  Scenario first(cfg);
  Scenario second(cfg);
  const ScenarioResult a = first.run();
  const ScenarioResult b = second.run();
  // The faults and the recovery actually happened...
  EXPECT_GT(a.obs.sum_matching("link.*.faults.dropped"), 0);
  EXPECT_GT(a.obs.sum_matching("ca.*.rc.retransmits"), 0);
  EXPECT_GT(a.obs.sum_matching("ca.*.rc.acks"), 0);
  // ...and replay byte-identically, retransmit and fault counters included.
  EXPECT_EQ(a.obs, b.obs);
  EXPECT_EQ(a.obs.to_json(), b.obs.to_json());
}

TEST(Determinism, SameSeedSameSnapshotJson) {
  ScenarioConfig cfg = config_variant(0);
  Scenario first(cfg);
  Scenario second(cfg);
  const ScenarioResult a = first.run();
  const ScenarioResult b = second.run();
  ASSERT_FALSE(a.obs.values.empty());
  EXPECT_EQ(a.obs, b.obs);
  EXPECT_EQ(a.obs.to_json(), b.obs.to_json());
  EXPECT_EQ(a.obs.to_csv(), b.obs.to_csv());
}

TEST(Determinism, TraceExportsByteIdentical) {
  ScenarioConfig cfg = config_variant(0);
  Scenario first(cfg);
  Scenario second(cfg);
  const ScenarioResult a = first.run();
  const ScenarioResult b = second.run();
  // The exports carry real content...
  ASSERT_GT(a.trace_json.size(), 1000u);
  ASSERT_NE(a.trace_breakdown_csv.find('\n'), std::string::npos);
  ASSERT_GT(a.timeseries_csv.size(), 100u);
  // ...and replay byte-for-byte.
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.trace_breakdown_csv, b.trace_breakdown_csv);
  EXPECT_EQ(a.timeseries_csv, b.timeseries_csv);
}

TEST(Determinism, AuditExportByteIdenticalAcrossReruns) {
  // Variant 0 floods bad P_Keys through a SIF fabric, so the audit log sees
  // the whole enforcement chain: switch drops, SM traps, SIF arm/disarm.
  ScenarioConfig cfg = config_variant(0);
  Scenario first(cfg);
  Scenario second(cfg);
  const ScenarioResult a = first.run();
  const ScenarioResult b = second.run();
  ASSERT_GT(a.audit_jsonl.size(), 100u);
  EXPECT_EQ(a.audit_jsonl, b.audit_jsonl);
}

TEST(Determinism, AuditDoesNotPerturbRunOutcome) {
  // Auditing is pure observation: the snapshot and every other export must
  // be byte-identical whether the audit plane is on or off.
  ScenarioConfig cfg = config_variant(0);
  Scenario audited(cfg);
  cfg.audit.enabled = false;
  Scenario silent(cfg);
  const ScenarioResult a = audited.run();
  const ScenarioResult b = silent.run();
  ASSERT_FALSE(a.audit_jsonl.empty());
  EXPECT_TRUE(b.audit_jsonl.empty());
  EXPECT_EQ(a.obs.to_json(), b.obs.to_json());
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.timeseries_csv, b.timeseries_csv);
}

TEST(Determinism, DifferentSeedsDifferentTraces) {
  ScenarioConfig cfg = config_variant(0);
  Scenario first(cfg);
  cfg.seed += 1;
  cfg.trace.sample_seed = cfg.seed;
  Scenario second(cfg);
  const ScenarioResult a = first.run();
  const ScenarioResult b = second.run();
  EXPECT_NE(a.trace_json, b.trace_json);
  EXPECT_NE(a.timeseries_csv, b.timeseries_csv);
}

TEST(Determinism, DifferentSeedsDifferentSnapshots) {
  ScenarioConfig cfg = config_variant(0);
  Scenario first(cfg);
  cfg.seed += 1;
  Scenario second(cfg);
  EXPECT_NE(first.run().obs, second.run().obs);
}

std::string sha256_hex(const std::string& s) {
  const auto digest = crypto::Sha256::hash(
      std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  return to_hex(digest);
}

// The ledger's campaign_obs shape, shrunk to a test window: every defense
// plus scan/replay/trap-forge campaigns, every packet traced into a
// flight-recorder ring small enough to wrap, the audit ring on, and the
// default time-series patterns. It pins the sink paths the mesh variants
// leave out: an evicting trace ring, a campaign and the audit export.
ScenarioConfig campaign_variant() {
  ScenarioConfig cfg;
  cfg.seed = 41;
  cfg.warmup = 50 * kMicrosecond;
  cfg.duration = 600 * kMicrosecond;
  cfg.fabric.filter_mode = fabric::FilterMode::kSif;
  cfg.key_management = KeyManagement::kPartitionLevel;
  cfg.auth_enabled = true;
  cfg.replay_protection = true;
  cfg.num_attackers = 2;
  cfg.attack = *AttackCampaignSpec::parse(
      "seed=41;attack=scan:count=30,interval=15us;"
      "attack=replay:count=30,interval=15us;"
      "attack=trap-forge:count=5,interval=100us");
  cfg.trace.enabled = true;
  cfg.trace.sample_every = 1;
  cfg.trace.sample_seed = cfg.seed;
  cfg.trace.flight_recorder = true;
  cfg.trace.capacity = 1u << 14;
  cfg.audit.enabled = true;
  cfg.audit.ring = true;
  cfg.timeseries_dt = 10 * kMicrosecond;
  return cfg;
}

TEST(Determinism, GoldenExportHashesAcrossRefactors) {
  // Run-to-run determinism (the tests above) would not notice a refactor
  // that deterministically changes simulation behaviour — e.g. a callback
  // container that reorders same-instant events, or a CRC/MAC rewrite that
  // computes different bytes. These SHA-256 hashes pin the exact exports of
  // three config variants; they only move when an intentional behaviour
  // change ships, and such a change must update them in the same commit
  // with a note in CHANGES.md.
  struct Golden {
    const char* name;
    ScenarioConfig config;
    const char* obs_json;
    const char* trace_json;
    const char* breakdown_csv;
    const char* timeseries_csv;
    const char* audit_jsonl;
  };
  const Golden kGolden[] = {
      {"mesh 0", config_variant(0),
       "d09a3fb618a04f7c45b25049230cc2b5e450851a6d15861ed61b1c22ee0030bf",
       "b91a24f7b2abbcc31b2706d35a19b77f7d2951c85102baf25ae78d24cc3b5bb6",
       "eebf4423c8ae660d320b3cfcf6dc310d5109c4736beb97aec8a01a77705258b8",
       "e183d754cf79b400646488d00449d68e2190883a6ac98f04f72c1c8a4123a903",
       "70f4582f9888a6d1a3af2a046a1d657334b35b8bb1f6e5ad51942cee02f08fb4"},
      {"mesh 2", config_variant(2),
       "01238c0759fce0c91e738386a32e89fe660793632fcab9b8bece2a4a8fe44660",
       "fe16a728575a30551014de0b07e1a86ab55ecec19aefeb6024078fa7c6050c00",
       "586f3598ae5ec5a1b2256cbc5e6ea1010b3862fbbe36e2812a80ad04a2ecb457",
       "3587574b7b069e741c52a088fba2244d450256e8cb88a1c4b11277882596642e",
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"campaign", campaign_variant(),
       "cb9c4232d7360115cba394397598cebffa952dd7ad53fa0fbb6bfa4bd9aa6a0b",
       "7639d0b24ee6233eb07000905733238250842f668afeb565c16893a180fb8802",
       "79c95dda543c2512df4ea751f457c07963e55cff849fc8dd68748195000c5a2e",
       "70345469cb7b8535fea8703f1b37b8a47109c506c35f653a4450c386464dc0bd",
       "34e47157cdbbcaf15f8ccd6ffb0587d6e05be647c7f4501dc12e7de7b3a05c9e"},
  };
  for (const Golden& golden : kGolden) {
    Scenario scenario(golden.config);
    const ScenarioResult r = scenario.run();
    EXPECT_EQ(sha256_hex(r.obs.to_json()), golden.obs_json)
        << golden.name << " obs snapshot drifted";
    EXPECT_EQ(sha256_hex(r.trace_json), golden.trace_json)
        << golden.name << " trace export drifted";
    EXPECT_EQ(sha256_hex(r.trace_breakdown_csv), golden.breakdown_csv)
        << golden.name << " latency breakdown drifted";
    EXPECT_EQ(sha256_hex(r.timeseries_csv), golden.timeseries_csv)
        << golden.name << " time series drifted";
    EXPECT_EQ(sha256_hex(r.audit_jsonl), golden.audit_jsonl)
        << golden.name << " audit export drifted";
  }
}

TEST(Determinism, CampaignGoldenCoversWrappedRings) {
  // The campaign golden only pins what it claims if its flight recorder
  // evicted, its audit log saw the campaigns, and the attacks ran.
  Scenario scenario(campaign_variant());
  const ScenarioResult r = scenario.run();
  const auto& sim = scenario.fabric().simulator();
  EXPECT_GT(sim.trace().events_evicted(), 0u);
  EXPECT_GT(sim.audit().events_recorded(), 0u);
  EXPECT_GT(r.obs.sum_matching("attacker.*.attempts"), 0);
  EXPECT_NE(r.trace_breakdown_csv.find('\n'), std::string::npos);
}

// Off-mesh variants: the same golden-pinning discipline for the fat-tree
// and dragonfly builders plus the collective workload, so a refactor of the
// topology layer (ECMP hash, link wiring order, route construction) or the
// collective scheduler cannot silently change simulation behaviour.
ScenarioConfig off_mesh_variant(int i) {
  ScenarioConfig cfg;
  cfg.seed = 91 + static_cast<std::uint64_t>(i);
  cfg.warmup = 50 * kMicrosecond;
  cfg.duration = 400 * kMicrosecond;
  cfg.trace.enabled = true;
  cfg.trace.sample_every = 2;
  cfg.trace.sample_seed = cfg.seed;
  cfg.timeseries_dt = 25 * kMicrosecond;
  if (i == 0) {
    // Fat-tree under attack with SIF, all-to-all collective across it.
    cfg.fabric.topology = *fabric::TopologySpec::parse("fattree:k=4");
    cfg.fabric.filter_mode = fabric::FilterMode::kSif;
    cfg.num_attackers = 2;
    cfg.workload = *WorkloadSpec::parse("alltoall:interval_us=20");
  } else {
    // Valiant-routed dragonfly, IF filtering, recursive-doubling allreduce.
    cfg.fabric.topology =
        *fabric::TopologySpec::parse("dragonfly:a=2,p=2,h=1,g=3,routing=valiant");
    cfg.fabric.filter_mode = fabric::FilterMode::kIf;
    cfg.workload = *WorkloadSpec::parse("allreduce:algo=rd,interval_us=20");
  }
  return cfg;
}

TEST(Determinism, OffMeshGoldenExportHashes) {
  struct Golden {
    int variant;
    const char* obs_json;
    const char* trace_json;
    const char* breakdown_csv;
    const char* timeseries_csv;
  };
  const Golden kGolden[] = {
      {0, "cf39fd9e30f7e80f239e6b21de80a2116ca3e5c29d9ce449d14b526da67e1f9b",
       "4264f6825dd01c1d35de884e68d9988a4a1c43208157e5562efa4549a8d2d6da",
       "a3d3186cf44766b14dc58b893c324bb726ef981c53628469aad9dc133d53755c",
       "a71a9a948e0698bce00b5990242f87f681212842da90040cc18704e8150aa7bd"},
      {1, "7b80f0eaa5b9a5aa7750550912be326ea18c99ffb1fd5e794b81d6867ae21c2c",
       "a36190491968aab3864d05cad9df08318461f4a54316f00df00b19cf8f8a5870",
       "11d4e3bf8ce7f7c34e41544d2442c86e4792c3cb9b66d2eaded120da91010eb0",
       "dc996983c88caeba1c9520b62b3ad98b113386b0b378eb8af3380d0470807727"},
  };
  for (const Golden& golden : kGolden) {
    Scenario scenario(off_mesh_variant(golden.variant));
    const ScenarioResult r = scenario.run();
    // The run did something worth pinning: collective traffic delivered.
    EXPECT_GT(r.obs.at("collective.delivered"), 0) << golden.variant;
    EXPECT_EQ(sha256_hex(r.obs.to_json()), golden.obs_json)
        << "off-mesh variant " << golden.variant << " obs snapshot drifted";
    EXPECT_EQ(sha256_hex(r.trace_json), golden.trace_json)
        << "off-mesh variant " << golden.variant << " trace export drifted";
    EXPECT_EQ(sha256_hex(r.trace_breakdown_csv), golden.breakdown_csv)
        << "off-mesh variant " << golden.variant << " breakdown drifted";
    EXPECT_EQ(sha256_hex(r.timeseries_csv), golden.timeseries_csv)
        << "off-mesh variant " << golden.variant << " time series drifted";
  }
}

TEST(Determinism, SweepWorkerCountInvariant) {
  std::vector<ScenarioConfig> configs;
  for (int i = 0; i < 4; ++i) configs.push_back(config_variant(i));
  // The off-mesh topologies + collective workloads ride the same sweep.
  configs.push_back(off_mesh_variant(0));
  configs.push_back(off_mesh_variant(1));

  const auto serial = run_sweep(configs, 1);
  const auto parallel = run_sweep(configs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_FALSE(serial[i].obs.values.empty()) << "config " << i;
    EXPECT_EQ(serial[i].obs.to_json(), parallel[i].obs.to_json())
        << "config " << i;
    // Trace + time-series exports must not depend on worker count either.
    ASSERT_FALSE(serial[i].trace_json.empty()) << "config " << i;
    EXPECT_EQ(serial[i].trace_json, parallel[i].trace_json) << "config " << i;
    EXPECT_EQ(serial[i].trace_breakdown_csv, parallel[i].trace_breakdown_csv)
        << "config " << i;
    EXPECT_EQ(serial[i].timeseries_csv, parallel[i].timeseries_csv)
        << "config " << i;
    EXPECT_EQ(serial[i].audit_jsonl, parallel[i].audit_jsonl)
        << "config " << i;
  }
  // At least one config actually produced audit events, so the invariance
  // above is not vacuously comparing empty strings.
  EXPECT_FALSE(serial[0].audit_jsonl.empty());
}

}  // namespace
}  // namespace ibsec::workload
