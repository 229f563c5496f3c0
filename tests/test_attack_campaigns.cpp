// The adversarial control-plane corpus: every attack campaign from
// workload/attack_campaign.h run against the scenario twice — defense on,
// defense off — with quantitative bounds on attacker success. Each bound is
// an invariant of the defense: if a refactor silently disables Q_Key
// checking, SM trap validation, RC control validation, replay windows or
// ingress rate limiting, the corresponding corpus test fails.
//
// Also here: the spec-grammar round-trip/rejection tests, the campaign
// determinism tests (same seed => byte-identical exports, worker-count
// invariance), and the satellite adversarial-load test that storms the
// rc_bad_control fail-closed path while asserting bit-exact RC delivery.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "fabric/fault.h"
#include "forensics.h"
#include "workload/experiment.h"

namespace ibsec::workload {
namespace {

using time_literals::kMicrosecond;
using time_literals::kMillisecond;

AttackCampaignSpec attack_spec(const std::string& s) {
  auto parsed = AttackCampaignSpec::parse(s);
  EXPECT_TRUE(parsed.has_value()) << s;
  return parsed.value_or(AttackCampaignSpec{});
}

// --- spec grammar ------------------------------------------------------------

TEST(AttackSpecGrammar, EmptySpecParsesDisabled) {
  const auto spec = AttackCampaignSpec::parse("");
  ASSERT_TRUE(spec.has_value());
  EXPECT_FALSE(spec->enabled());
  EXPECT_TRUE(AttackCampaignSpec::parse(";;").has_value());
}

TEST(AttackSpecGrammar, DefaultsAndSubkeys) {
  const AttackCampaignSpec spec = attack_spec(
      "seed=42;attack=scan;"
      "attack=rc-spoof:node=3,victim=5,count=250,interval=2.5us,"
      "qpn-range=16,epochs=6,keyspace=32");
  EXPECT_EQ(spec.seed, 42u);
  ASSERT_EQ(spec.attacks.size(), 2u);
  EXPECT_EQ(spec.attacks[0], AttackSpec{});  // bare kind keeps every default
  const AttackSpec& rc = spec.attacks[1];
  EXPECT_EQ(rc.kind, AttackKind::kRcSpoof);
  EXPECT_EQ(rc.node, 3);
  EXPECT_EQ(rc.victim, 5);
  EXPECT_EQ(rc.count, 250u);
  EXPECT_EQ(rc.interval, static_cast<SimTime>(2.5 * kMicrosecond));
  EXPECT_EQ(rc.qpn_range, 16u);
  EXPECT_EQ(rc.epochs, 6);
  EXPECT_EQ(rc.keyspace, 32u);
}

TEST(AttackSpecGrammar, EveryKindRoundTripsThroughCanonicalForm) {
  const char* kKinds[] = {"scan", "trap-forge", "rc-spoof", "replay",
                          "side-channel"};
  for (const char* kind : kKinds) {
    const AttackCampaignSpec spec = attack_spec(
        std::string("seed=7;attack=") + kind +
        ":node=12,victim=1,count=99,interval=13us,keyspace=128,"
        "qpn-range=4,epochs=10");
    const auto reparsed = AttackCampaignSpec::parse(spec.to_string());
    ASSERT_TRUE(reparsed.has_value()) << spec.to_string();
    EXPECT_EQ(*reparsed, spec) << spec.to_string();
    // The canonical form is a fixed point.
    EXPECT_EQ(reparsed->to_string(), spec.to_string());
  }
}

TEST(AttackSpecGrammar, MalformedSpecsRejected) {
  const char* kBad[] = {
      "bogus",                          // entry without '='
      "noise=1",                        // unknown key
      "seed=abc",                       // non-numeric seed
      "seed=-3",                        // negative seed
      "attack=warp-core",               // unknown kind
      "attack=scan:foo=1",              // unknown subkey
      "attack=scan:count=12x",          // trailing junk
      "attack=scan:count=",             // empty value
      "attack=scan:keyspace=0",         // empty keyspace is meaningless
      "attack=scan:epochs=1",           // below the ON/OFF minimum
      "attack=rc-spoof:qpn-range=0",    // empty QPN range
      "attack=rc-spoof:qpn-range=16777216",  // > 24-bit QPN space
      "attack=scan:interval=-5us",      // negative time
      "attack=scan:interval=fastus",    // non-numeric time
      "attack=scan:interval=nanus",     // NaN
      "attack=scan:interval=infus",     // infinity
      "attack=scan:interval=1e14us",    // ps conversion would overflow
      "attack=scan:node",               // subkey without '='
      "attack=scan:node=99999999999",   // out of int range, not wrapped
      "attack=scan:node= 3",            // whitespace
      "attack=scan:count=+5",           // explicit sign
      "seed= 7",                        // whitespace
      // A key given twice: not "the last one wins". Only attack= repeats
      // (DefaultsAndSubkeys), and each campaign's subkeys are its own.
      "attack=scan:count=3,count=600",
      "seed=1;seed=2",
      "seed=1;attack=scan;seed=2",
  };
  for (const char* bad : kBad) {
    EXPECT_FALSE(AttackCampaignSpec::parse(bad).has_value()) << bad;
  }
}

// --- corpus configs ----------------------------------------------------------

ScenarioConfig corpus_config(std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  return cfg;  // the paper testbed: 4x4 mesh, 4 partitions, rt + be load
}

// --- scan: Q_Key guessing ----------------------------------------------------
// 600 probes over a 64-key space hit at ~1/64 without authentication; with
// partition-level MACs every probe dies at the victim regardless of guess.

TEST(AttackCorpus, ScanSucceedsAtKeyspaceRateWithoutAuth) {
  ScenarioConfig cfg = corpus_config();
  cfg.attack = attack_spec("seed=7;attack=scan:count=600,keyspace=64");
  const ScenarioResult r = Scenario(cfg).run();
  EXPECT_EQ(r.attack_attempts, 600u);
  // E[success] = 600/64 ≈ 9.4; a generous band that still fails hard if the
  // Q_Key check disappears (=> 600) or probes stop flowing (=> 0).
  EXPECT_GE(r.attack_successes, 2u);
  EXPECT_LE(r.attack_successes, 40u);
  // Every miss is a per-QP dropped_bad_qkey at the victim.
  EXPECT_EQ(r.qkey_drops, r.attack_attempts - r.attack_successes);
}

TEST(AttackCorpus, ScanBlockedCompletelyByPartitionAuth) {
  ScenarioConfig cfg = corpus_config();
  cfg.key_management = KeyManagement::kPartitionLevel;
  cfg.auth_enabled = true;
  cfg.attack = attack_spec("seed=7;attack=scan:count=600,keyspace=64");
  const ScenarioResult r = Scenario(cfg).run();
  EXPECT_EQ(r.attack_attempts, 600u);
  EXPECT_EQ(r.attack_successes, 0u);  // no MAC key => no delivery, ever
}

// --- trap-forge: SIF poisoning ----------------------------------------------
// Forged P_Key-violation traps name an honest victim and its own partition
// key. An unvalidated SM installs the filter and blackholes the victim.

TEST(AttackCorpus, TrapForgeRejectedByTrapValidation) {
  ScenarioConfig cfg = corpus_config();
  cfg.fabric.filter_mode = fabric::FilterMode::kSif;
  cfg.attack = attack_spec("seed=3;attack=trap-forge:count=50");
  const ScenarioResult r = Scenario(cfg).run();
  EXPECT_EQ(r.attack_attempts, 50u);
  EXPECT_EQ(r.attack_successes, 0u);
  EXPECT_EQ(r.obs.sum_matching("sm.traps_rejected"), 50);
  EXPECT_EQ(r.obs.sum_matching("sm.sif_poisoned_installs"), 0);
}

TEST(AttackCorpus, TrapForgeBlackholesVictimWithoutValidation) {
  ScenarioConfig cfg = corpus_config();
  cfg.fabric.filter_mode = fabric::FilterMode::kSif;
  cfg.attack = attack_spec("seed=3;attack=trap-forge:count=50");
  Scenario defended(cfg);
  cfg.sm_trap_validation = false;
  Scenario poisoned(cfg);
  const ScenarioResult good = defended.run();
  const ScenarioResult bad = poisoned.run();
  EXPECT_EQ(bad.attack_successes, 50u);  // every forged trap installs
  EXPECT_EQ(bad.obs.sum_matching("sm.sif_poisoned_installs"), 50);
  // The poisoned filters actually blackhole honest traffic: same seed, same
  // workload, measurably fewer deliveries than the validated run.
  EXPECT_LT(bad.delivered, good.delivered);
}

// --- rc-spoof: forged ACK/NAK storms ----------------------------------------
// 2000 forged control packets with random PSNs against live RC windows.
// validate_control bounds acceptance to ~window/2^24 per attempt; without it
// a random cumulative ACK flushes the window about half the time.

ScenarioConfig rc_spoof_config() {
  ScenarioConfig cfg = corpus_config();
  cfg.rc.enabled = true;
  cfg.enable_rc_messages = true;
  cfg.rc_load = 0.2;
  cfg.attack = attack_spec("seed=11;attack=rc-spoof:count=2000");
  return cfg;
}

TEST(AttackCorpus, RcSpoofBoundedByControlValidation) {
  ScenarioConfig cfg = rc_spoof_config();
  ASSERT_TRUE(cfg.rc.validate_control);
  const ScenarioResult r = Scenario(cfg).run();
  EXPECT_EQ(r.attack_attempts, 2000u);
  EXPECT_LE(r.attack_successes, 2u);
  // The fail-closed path counted the storm instead of acting on it.
  EXPECT_GE(r.obs.sum_matching("ca.*.retired.rc_bad_control"), 1000);
  EXPECT_LE(r.obs.sum_matching("ca.*.rc.spoofed_control_accepted"), 2);
}

TEST(AttackCorpus, RcSpoofFlushesWindowsWithoutValidation) {
  ScenarioConfig cfg = rc_spoof_config();
  cfg.rc.validate_control = false;
  const ScenarioResult r = Scenario(cfg).run();
  EXPECT_EQ(r.attack_attempts, 2000u);
  EXPECT_GE(r.attack_successes, 10u);  // empirically ~36/2000
  EXPECT_GE(r.obs.sum_matching("ca.*.rc.spoofed_control_accepted"), 10);
}

// --- replay: verbatim re-injection ------------------------------------------
// Captured honest packets carry a valid MAC, so only the replay window can
// tell them apart from the original.

ScenarioConfig replay_config() {
  ScenarioConfig cfg = corpus_config();
  cfg.key_management = KeyManagement::kPartitionLevel;
  cfg.auth_enabled = true;
  cfg.attack = attack_spec("seed=13;attack=replay:count=300");
  return cfg;
}

TEST(AttackCorpus, ReplayRejectedByReplayWindow) {
  ScenarioConfig cfg = replay_config();
  cfg.replay_protection = true;
  const ScenarioResult r = Scenario(cfg).run();
  EXPECT_EQ(r.attack_attempts, 300u);
  EXPECT_EQ(r.attack_successes, 0u);
  EXPECT_EQ(r.obs.sum_matching("auth.fail.replay"), 300);
}

TEST(AttackCorpus, ReplayRedeliversWithoutProtection) {
  ScenarioConfig cfg = replay_config();
  ASSERT_FALSE(cfg.replay_protection);
  const ScenarioResult r = Scenario(cfg).run();
  EXPECT_EQ(r.attack_attempts, 300u);
  // Valid MAC + no window: virtually every replay re-delivers.
  EXPECT_GE(r.attack_successes, 270u);
  EXPECT_EQ(r.obs.sum_matching("auth.fail.replay"), 0);
}

// --- the corpus off-mesh -----------------------------------------------------
// Every campaign x defense invariant above re-asserted on a k=4 fat-tree
// (16 hosts behind 20 switches).
// The defenses live in the endpoints and the SM, so their guarantees must
// not depend on mesh coordinates, 1:1 node<->switch attachment, or XY route
// shape; the undefended baselines stay within the same statistical bands
// because success probability is a property of the keyspace, not the route.
// (side-channel is excluded by design: its timing channel is built on
// XY-mesh row geometry and IBSEC_CHECKs for a mesh topology.)

struct OffMeshTopo {
  const char* name;
  const char* spec;
  // Pinned per-topology replay-corpus bounds. Unlike scan/trap-forge/
  // rc-spoof, replay outcomes are congestion-coupled: clones ride the
  // best-effort VL behind honest load, so on an oversubscribed topology a
  // tail of the 300 injections is still credit-stalled in HCA queues at sim
  // end (fat-tree: ~273 of 300 arrive in-window).
  std::int64_t replay_rejected_min;
  std::int64_t replay_rejected_max;
  std::uint64_t replay_success_min;
};

// Prints the topology spec: the struct's raw bytes hold string pointers, so
// gtest's default print (which ctest appends to each test's name) would
// change with every run under ASLR.
void PrintTo(const OffMeshTopo& t, std::ostream* os) { *os << t.spec; }

class OffMeshAttackCorpus : public ::testing::TestWithParam<OffMeshTopo> {
 protected:
  ScenarioConfig corpus_config(std::uint64_t seed = 1) const {
    ScenarioConfig cfg;
    cfg.seed = seed;
    const auto topo = fabric::TopologySpec::parse(GetParam().spec);
    EXPECT_TRUE(topo.has_value()) << GetParam().spec;
    cfg.fabric.topology = topo.value_or(fabric::TopologySpec{});
    return cfg;
  }
};

TEST_P(OffMeshAttackCorpus, ScanSucceedsAtKeyspaceRateWithoutAuth) {
  ScenarioConfig cfg = corpus_config();
  cfg.attack = attack_spec("seed=7;attack=scan:count=600,keyspace=64");
  const ScenarioResult r = Scenario(cfg).run();
  EXPECT_EQ(r.attack_attempts, 600u);
  // Same E[success] = 600/64 band as the mesh run: the hit rate is set by
  // the Q_Key space, not the path the probe takes.
  EXPECT_GE(r.attack_successes, 2u);
  EXPECT_LE(r.attack_successes, 40u);
  EXPECT_EQ(r.qkey_drops, r.attack_attempts - r.attack_successes);
}

TEST_P(OffMeshAttackCorpus, ScanBlockedCompletelyByPartitionAuth) {
  ScenarioConfig cfg = corpus_config();
  cfg.key_management = KeyManagement::kPartitionLevel;
  cfg.auth_enabled = true;
  cfg.attack = attack_spec("seed=7;attack=scan:count=600,keyspace=64");
  const ScenarioResult r = Scenario(cfg).run();
  EXPECT_EQ(r.attack_attempts, 600u);
  EXPECT_EQ(r.attack_successes, 0u);
}

TEST_P(OffMeshAttackCorpus, TrapForgeRejectedByTrapValidation) {
  ScenarioConfig cfg = corpus_config();
  cfg.fabric.filter_mode = fabric::FilterMode::kSif;
  cfg.attack = attack_spec("seed=3;attack=trap-forge:count=50");
  const ScenarioResult r = Scenario(cfg).run();
  EXPECT_EQ(r.attack_attempts, 50u);
  EXPECT_EQ(r.attack_successes, 0u);
  EXPECT_EQ(r.obs.sum_matching("sm.traps_rejected"), 50);
  EXPECT_EQ(r.obs.sum_matching("sm.sif_poisoned_installs"), 0);
}

TEST_P(OffMeshAttackCorpus, TrapForgeBlackholesVictimWithoutValidation) {
  ScenarioConfig cfg = corpus_config();
  cfg.fabric.filter_mode = fabric::FilterMode::kSif;
  cfg.attack = attack_spec("seed=3;attack=trap-forge:count=50");
  Scenario defended(cfg);
  cfg.sm_trap_validation = false;
  Scenario poisoned(cfg);
  const ScenarioResult good = defended.run();
  const ScenarioResult bad = poisoned.run();
  EXPECT_EQ(bad.attack_successes, 50u);
  EXPECT_EQ(bad.obs.sum_matching("sm.sif_poisoned_installs"), 50);
  // The poisoned SIF entry sits at the victim's real ingress port — found
  // via the blueprint attach map, not a mesh node==switch identity — so it
  // still blackholes the victim's honest traffic.
  EXPECT_LT(bad.delivered, good.delivered);
}

TEST_P(OffMeshAttackCorpus, RcSpoofBoundedByControlValidation) {
  ScenarioConfig cfg = corpus_config();
  cfg.rc.enabled = true;
  cfg.enable_rc_messages = true;
  cfg.rc_load = 0.2;
  cfg.attack = attack_spec("seed=11;attack=rc-spoof:count=2000");
  ASSERT_TRUE(cfg.rc.validate_control);
  const ScenarioResult r = Scenario(cfg).run();
  EXPECT_EQ(r.attack_attempts, 2000u);
  EXPECT_LE(r.attack_successes, 2u);
  EXPECT_GE(r.obs.sum_matching("ca.*.retired.rc_bad_control"), 1000);
}

TEST_P(OffMeshAttackCorpus, RcSpoofFlushesWindowsWithoutValidation) {
  ScenarioConfig cfg = corpus_config();
  cfg.rc.enabled = true;
  cfg.enable_rc_messages = true;
  cfg.rc_load = 0.2;
  cfg.rc.validate_control = false;
  cfg.attack = attack_spec("seed=11;attack=rc-spoof:count=2000");
  const ScenarioResult r = Scenario(cfg).run();
  EXPECT_EQ(r.attack_attempts, 2000u);
  EXPECT_GE(r.attack_successes, 10u);
  EXPECT_GE(r.obs.sum_matching("ca.*.rc.spoofed_control_accepted"), 10);
}

TEST_P(OffMeshAttackCorpus, ReplayRejectedByReplayWindow) {
  ScenarioConfig cfg = corpus_config();
  cfg.key_management = KeyManagement::kPartitionLevel;
  cfg.auth_enabled = true;
  cfg.replay_protection = true;
  cfg.attack = attack_spec("seed=13;attack=replay:count=300");
  const ScenarioResult r = Scenario(cfg).run();
  EXPECT_EQ(r.attack_attempts, 300u);
  // The security invariant is topology-independent: zero replays deliver.
  EXPECT_EQ(r.attack_successes, 0u);
  // The rejection count is congestion-coupled (see OffMeshTopo).
  EXPECT_GE(r.obs.sum_matching("auth.fail.replay"),
            GetParam().replay_rejected_min);
  EXPECT_LE(r.obs.sum_matching("auth.fail.replay"),
            GetParam().replay_rejected_max);
}

TEST_P(OffMeshAttackCorpus, ReplayRedeliversWithoutProtection) {
  ScenarioConfig cfg = corpus_config();
  cfg.key_management = KeyManagement::kPartitionLevel;
  cfg.auth_enabled = true;
  cfg.attack = attack_spec("seed=13;attack=replay:count=300");
  const ScenarioResult r = Scenario(cfg).run();
  EXPECT_EQ(r.attack_attempts, 300u);
  // Replays that do arrive before sim end all re-deliver (valid MACs, no
  // window); congestion holds back a per-topology tail (see OffMeshTopo).
  EXPECT_GE(r.attack_successes, GetParam().replay_success_min);
  EXPECT_EQ(r.obs.sum_matching("auth.fail.replay"), 0);
}

TEST_P(OffMeshAttackCorpus, SameSeedByteIdenticalExports) {
  ScenarioConfig cfg = corpus_config(23);
  cfg.fabric.filter_mode = fabric::FilterMode::kSif;
  cfg.attack = attack_spec(
      "seed=5;attack=scan:count=200,keyspace=32;attack=trap-forge:count=20");
  const ScenarioResult a = Scenario(cfg).run();
  const ScenarioResult b = Scenario(cfg).run();
  EXPECT_EQ(a.obs.to_json(), b.obs.to_json());
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, OffMeshAttackCorpus,
    ::testing::Values(
        // Observed: 273 rejections / 237 undefended deliveries of 300.
        OffMeshTopo{"fattree", "fattree:k=4", 250, 300, 200}),
    [](const auto& info) { return info.param.name; });

// --- side-channel: contention probe -----------------------------------------
// A conspirator modulates an ON/OFF square wave through the victim row's
// east egress while the attacker latency-probes the shared path. On a quiet
// fabric the decoder recovers essentially every epoch; ingress rate limiting
// clips both flows under link capacity and pushes it to chance.

ScenarioConfig side_channel_config(std::uint64_t attack_seed) {
  ScenarioConfig cfg = corpus_config();
  cfg.enable_realtime = false;    // the covert signal needs a quiet fabric —
  cfg.enable_best_effort = false;  // background load is the cheap defense
  char spec[96];
  std::snprintf(spec, sizeof(spec),
                "seed=%llu;attack=side-channel:epochs=8,interval=100us",
                static_cast<unsigned long long>(attack_seed));
  cfg.attack = attack_spec(spec);
  return cfg;
}

TEST(AttackCorpus, SideChannelDecodesEpochsOnQuietFabric) {
  for (const std::uint64_t seed : {5ull, 42ull}) {
    const ScenarioResult r = Scenario(side_channel_config(seed)).run();
    EXPECT_EQ(r.attack_attempts, 8u) << "seed " << seed;
    EXPECT_GE(r.attack_successes, 7u) << "seed " << seed;
  }
}

TEST(AttackCorpus, SideChannelDegradedByIngressRateLimit) {
  for (const std::uint64_t seed : {5ull, 42ull}) {
    ScenarioConfig cfg = side_channel_config(seed);
    cfg.fabric.ingress_rate_limit_fraction = 0.15;
    const ScenarioResult r = Scenario(cfg).run();
    EXPECT_EQ(r.attack_attempts, 8u) << "seed " << seed;
    // 8 balanced epochs decode at ~4/8 by chance; the defended channel must
    // stay at or below 6 (never the >=7 an undefended decoder reaches).
    EXPECT_LE(r.attack_successes, 6u) << "seed " << seed;
  }
}

// --- counter hygiene ---------------------------------------------------------

TEST(AttackCorpus, NoCampaignMeansNoAttackerCounters) {
  ScenarioConfig cfg = corpus_config();
  cfg.warmup = 50 * kMicrosecond;
  cfg.duration = 300 * kMicrosecond;
  const ScenarioResult r = Scenario(cfg).run();
  EXPECT_EQ(r.attack_attempts, 0u);
  EXPECT_EQ(r.attack_successes, 0u);
  // Campaign counters are eager but exist only when a spec asks for them:
  // baseline snapshots (and their golden hashes) must never grow them.
  for (const auto& [name, value] : r.obs.values) {
    EXPECT_FALSE(name.starts_with("attacker.")) << name;
  }
}

// --- determinism -------------------------------------------------------------
// Campaigns are seeded simulation inputs like fault campaigns: the same
// (config, seed) must replay byte-identically, including every attack
// counter, trace export and time-series sample, at any worker count.

ScenarioConfig campaign_variant(int i) {
  ScenarioConfig cfg;
  cfg.seed = 31 + static_cast<std::uint64_t>(i);
  cfg.warmup = 50 * kMicrosecond;
  cfg.duration = 400 * kMicrosecond;
  cfg.trace.enabled = true;
  cfg.trace.sample_every = 2;
  cfg.trace.sample_seed = cfg.seed;
  cfg.timeseries_dt = 50 * kMicrosecond;
  switch (i % 2) {
    case 0:
      // Control-plane campaigns against the full defense stack.
      cfg.fabric.filter_mode = fabric::FilterMode::kSif;
      cfg.key_management = KeyManagement::kPartitionLevel;
      cfg.auth_enabled = true;
      cfg.replay_protection = true;
      cfg.attack = attack_spec(
          "seed=99;attack=scan:count=150;attack=trap-forge:count=12;"
          "attack=replay:count=40");
      break;
    default:
      // RC spoofing + the side-channel's wave/probe machinery.
      cfg.rc.enabled = true;
      cfg.enable_rc_messages = true;
      cfg.rc_load = 0.15;
      cfg.enable_best_effort = false;
      cfg.attack = attack_spec(
          "seed=7;attack=rc-spoof:count=300;"
          "attack=side-channel:epochs=4,interval=60us");
      break;
  }
  return cfg;
}

TEST(AttackDeterminism, SameSeedByteIdenticalAcrossCampaignMixes) {
  for (int variant = 0; variant < 2; ++variant) {
    ScenarioConfig cfg = campaign_variant(variant);
    Scenario first(cfg);
    Scenario second(cfg);
    const ScenarioResult a = first.run();
    const ScenarioResult b = second.run();
    ASSERT_GT(a.attack_attempts, 0u) << "variant " << variant;
    EXPECT_EQ(a.attack_attempts, b.attack_attempts) << "variant " << variant;
    EXPECT_EQ(a.attack_successes, b.attack_successes) << "variant " << variant;
    EXPECT_EQ(a.obs, b.obs) << "variant " << variant;
    EXPECT_EQ(a.obs.to_json(), b.obs.to_json()) << "variant " << variant;
    EXPECT_EQ(a.trace_json, b.trace_json) << "variant " << variant;
    EXPECT_EQ(a.timeseries_csv, b.timeseries_csv) << "variant " << variant;
  }
}

TEST(AttackDeterminism, CampaignSeedChangesOutcome) {
  // Against the full defense stack every seed flattens to the same zeros, so
  // probe seed sensitivity where the adversary RNG is observable: an
  // undefended scan's hit count follows its guess sequence.
  ScenarioConfig cfg;
  cfg.seed = 31;
  cfg.warmup = 50 * kMicrosecond;
  cfg.duration = 400 * kMicrosecond;
  cfg.attack = attack_spec("seed=99;attack=scan:count=300,keyspace=8");
  Scenario first(cfg);
  cfg.attack.seed += 1;  // same workload seed, different adversary seed
  Scenario second(cfg);
  const ScenarioResult a = first.run();
  const ScenarioResult b = second.run();
  EXPECT_EQ(a.attack_attempts, b.attack_attempts);
  EXPECT_NE(a.attack_successes, b.attack_successes);
  EXPECT_NE(a.obs, b.obs);
}

TEST(AttackDeterminism, SweepWorkerCountInvariantWithCampaigns) {
  std::vector<ScenarioConfig> configs;
  for (int i = 0; i < 2; ++i) configs.push_back(campaign_variant(i));
  const auto serial = run_sweep(configs, 1);
  const auto parallel = run_sweep(configs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_FALSE(serial[i].obs.values.empty()) << "config " << i;
    EXPECT_EQ(serial[i].obs.to_json(), parallel[i].obs.to_json())
        << "config " << i;
    EXPECT_EQ(serial[i].trace_json, parallel[i].trace_json) << "config " << i;
    EXPECT_EQ(serial[i].timeseries_csv, parallel[i].timeseries_csv)
        << "config " << i;
    EXPECT_EQ(serial[i].attack_successes, parallel[i].attack_successes)
        << "config " << i;
  }
}

// --- forensics: offline attribution from the audit plane ---------------------
// The defended campaigns leave an audit trail (obs/audit.h); the offline
// analyzer (tools/forensics) must reconstruct each incident and name the
// attacker's LID — deterministically, with zero false positives. The 4x4
// mesh testbed places the default attacker at node 15, LID 16.

TEST(AttackForensics, DefendedScanAttributedToAttackerLid) {
  ScenarioConfig cfg = corpus_config();
  cfg.key_management = KeyManagement::kPartitionLevel;
  cfg.auth_enabled = true;
  cfg.audit.enabled = true;
  cfg.attack = attack_spec("seed=7;attack=scan:count=600,keyspace=64");
  Scenario first(cfg);
  Scenario second(cfg);
  const ScenarioResult r = first.run();
  ASSERT_FALSE(r.audit_jsonl.empty());
  // Attribution is deterministic all the way down: the evidence itself is
  // byte-identical across same-seed reruns.
  EXPECT_EQ(r.audit_jsonl, second.run().audit_jsonl);

  const auto records = forensics::parse_audit_jsonl(r.audit_jsonl);
  ASSERT_TRUE(records.has_value());
  const forensics::Report report = forensics::analyze(*records);
  ASSERT_EQ(report.suspects.size(), 1u) << forensics::to_text(report);
  EXPECT_EQ(report.suspects[0], 16);
  bool saw_scan = false;
  for (const auto& inc : report.incidents) {
    if (inc.kind == "scan" && inc.suspect_lid == 16) {
      saw_scan = true;
      EXPECT_EQ(inc.events, 600u);  // every probe died at a CA, on record
      EXPECT_EQ(inc.accepted, 0u);
    }
  }
  EXPECT_TRUE(saw_scan) << forensics::to_text(report);

  const forensics::Detection det = forensics::score(report, {16});
  EXPECT_EQ(det.false_positives, 0u);
  EXPECT_EQ(det.precision_x1000, 1000);
  EXPECT_EQ(det.recall_x1000, 1000);
}

TEST(AttackForensics, ReplayIncidentIsFlaggedNotMisattributed) {
  ScenarioConfig cfg = corpus_config();
  cfg.key_management = KeyManagement::kPartitionLevel;
  cfg.auth_enabled = true;
  cfg.replay_protection = true;
  cfg.audit.enabled = true;
  cfg.attack = attack_spec("seed=13;attack=replay:count=300");
  const ScenarioResult r = Scenario(cfg).run();
  ASSERT_FALSE(r.audit_jsonl.empty());
  const auto records = forensics::parse_audit_jsonl(r.audit_jsonl);
  ASSERT_TRUE(records.has_value());
  const forensics::Report report = forensics::analyze(*records);
  // Replayed packets verify as the original honest sender, so the incident
  // surfaces but must be flagged spoofed — never pinned on the honest LID.
  bool saw_replay = false;
  for (const auto& inc : report.incidents) {
    if (inc.kind == "replay") {
      saw_replay = true;
      EXPECT_TRUE(inc.spoofed_source);
    }
  }
  EXPECT_TRUE(saw_replay) << forensics::to_text(report);
  EXPECT_TRUE(report.suspects.empty()) << forensics::to_text(report);
}

// --- adversarial load on the rc_bad_control fail-closed path -----------------
// A two-node fabric carrying known multi-MTU RC messages while a storm of
// forged ACK/NAK control packets (random PSNs, random syndromes) hammers the
// sender. With validate_control the storm may delay ACKs (it shares the
// reverse link) but must never advance a window it didn't earn or corrupt a
// single delivered byte — even with lossy links forcing real retransmits.

struct RcAdversarialLoad : public ::testing::Test {
  void build(bool validate_control, std::string_view faults = "") {
    fabric::FabricConfig fcfg;
    fcfg.mesh_width = 2;
    fcfg.mesh_height = 1;
    if (!faults.empty()) {
      auto campaign = fabric::FaultCampaign::parse(faults);
      ASSERT_TRUE(campaign.has_value());
      fcfg.fault_campaign = *campaign;
    }
    fabric = std::make_unique<fabric::Fabric>(fcfg);
    transport::RcConfig rc;
    rc.enabled = true;
    rc.retransmit_timeout = 20 * kMicrosecond;
    rc.validate_control = validate_control;
    for (int node = 0; node < 2; ++node) {
      cas.push_back(std::make_unique<transport::ChannelAdapter>(
          *fabric, node, pki, 55, /*rsa_bits=*/256));
      cas.back()->set_rc_config(rc);
    }
    auto& a = cas[0]->create_qp(transport::ServiceType::kReliableConnection,
                                0xFFFF);
    auto& b = cas[1]->create_qp(transport::ServiceType::kReliableConnection,
                                0xFFFF);
    cas[0]->bind_rc(a.qpn, 1, b.qpn);
    cas[1]->bind_rc(b.qpn, 0, a.qpn);
    src_qpn = a.qpn;
    dst_qpn = b.qpn;
    cas[1]->set_message_handler(
        [this](std::span<const std::uint8_t> payload,
               const transport::QueuePair&) {
          received.emplace_back(payload.begin(), payload.end());
        });
  }

  /// Posts seeded random payloads spanning sub-MTU through many-MTU sizes.
  void post_known_messages() {
    Rng rng(0xBEEF);
    for (const std::size_t bytes : {64u, 900u, 1024u, 2600u, 4096u, 8000u}) {
      std::vector<std::uint8_t> payload(bytes);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u32());
      ASSERT_TRUE(cas[0]->post_message(
          src_qpn, payload, ib::PacketMeta::TrafficClass::kBestEffort));
      sent.push_back(std::move(payload));
    }
  }

  /// Storms `count` forged control packets at the sender's RC QP, spaced so
  /// the barrage overlaps the whole transfer (and competes with real ACKs
  /// for the reverse link).
  void storm(int count, std::uint64_t seed, SimTime spacing) {
    auto& sim = fabric->simulator();
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
      const auto psn = static_cast<std::uint32_t>(rng.uniform(1u << 24));
      const std::uint8_t syndrome = rng.uniform(2)
                                        ? transport::kAethAck
                                        : transport::kAethNakPsnSequence;
      const auto msn = static_cast<std::uint32_t>(rng.uniform(1u << 24));
      // The event captures the draws, not the packet: a Packet outgrows
      // the event's inline callback storage.
      sim.at(static_cast<SimTime>(i) * spacing, [this, psn, syndrome, msn] {
        cas[1]->inject_raw(forged_control(psn, syndrome, msn));
      });
    }
  }

  /// A forged RC ACK/NAK from node 1 to the sender's QP.
  ib::Packet forged_control(std::uint32_t psn, std::uint8_t syndrome,
                            std::uint32_t msn) const {
    ib::Packet pkt;
    pkt.lrh.vl = fabric::kBestEffortVl;
    pkt.lrh.sl = pkt.lrh.vl;
    pkt.lrh.slid = fabric->lid_of_node(1);
    pkt.lrh.dlid = fabric->lid_of_node(0);
    pkt.bth.opcode = ib::OpCode::kRcAck;
    pkt.bth.pkey = 0xFFFF;
    pkt.bth.dest_qp = src_qpn;
    pkt.bth.psn = psn;
    pkt.meta.src_qp = dst_qpn;
    pkt.meta.src_node = 1;
    pkt.meta.dst_node = 0;
    pkt.meta.is_attack = true;  // spoofed completions count as such
    pkt.aeth = ib::Aeth{syndrome, msn};
    pkt.finalize();
    return pkt;
  }

  transport::PkiDirectory pki;
  std::unique_ptr<fabric::Fabric> fabric;
  std::vector<std::unique_ptr<transport::ChannelAdapter>> cas;
  std::vector<std::vector<std::uint8_t>> sent;
  std::vector<std::vector<std::uint8_t>> received;
  ib::Qpn src_qpn = 0, dst_qpn = 0;
};

TEST_F(RcAdversarialLoad, SpoofStormNeverAdvancesWindowOrCorruptsDelivery) {
  build(/*validate_control=*/true);
  post_known_messages();
  storm(/*count=*/500, /*seed=*/101, /*spacing=*/150000);  // 150ns apart
  fabric->simulator().run();

  // Bit-exact, in-order, exactly-once delivery of every message.
  EXPECT_EQ(received, sent);
  EXPECT_TRUE(cas[0]->find_qp(src_qpn)->requester.window().empty());
  EXPECT_FALSE(cas[0]->find_qp(src_qpn)->requester.failed());
  // The storm was counted, not obeyed: no spoofed completion, no spurious
  // retry exhaustion from a flushed-then-silent window. (Spoofs arriving
  // after the transfer completes hit the benign stale-duplicate path, so
  // bad_control sees the in-flight majority, not all 500.)
  EXPECT_EQ(cas[0]->rc_spoofed_accepted(), 0u);
  EXPECT_EQ(cas[0]->rc_obs().retry_exhausted->value(), 0u);
  EXPECT_GE(cas[0]->retire_obs().rc_bad_control->value(), 200u);
}

TEST_F(RcAdversarialLoad, SpoofStormCorruptsWindowsWithoutValidation) {
  build(/*validate_control=*/false);
  post_known_messages();
  storm(/*count=*/500, /*seed=*/101, /*spacing=*/150000);
  fabric->simulator().run();

  // The same storm against an unvalidated handler spoof-completes windows —
  // the regression this corpus exists to catch.
  EXPECT_GE(cas[0]->rc_spoofed_accepted(), 1u);
}

TEST_F(RcAdversarialLoad, SpoofStormPlusLinkFaultsStillBitExact) {
  build(/*validate_control=*/true, "seed=9;drop=0.02");
  post_known_messages();
  storm(/*count=*/400, /*seed=*/202, /*spacing=*/200000);
  fabric->simulator().run();

  // Real retransmits happened underneath the storm...
  EXPECT_GT(cas[0]->rc_obs().retransmits->value(), 0u);
  // ...and delivery is still bit-exact and exactly-once.
  EXPECT_EQ(received, sent);
  EXPECT_TRUE(cas[0]->find_qp(src_qpn)->requester.window().empty());
  EXPECT_EQ(cas[0]->rc_spoofed_accepted(), 0u);
  EXPECT_EQ(cas[0]->rc_obs().retry_exhausted->value(), 0u);
}

}  // namespace
}  // namespace ibsec::workload
