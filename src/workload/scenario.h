// The standard experiment scenario: the paper's testbed in one object.
//
// Builds the 16-node mesh fabric, one CA per node, the Subnet Manager,
// `num_partitions` random partitions, realtime + best-effort sources on
// every honest node, `num_attackers` DoS attackers, and (optionally) the
// authentication stack with partition-level or QP-level key management.
// Figures 1, 5 and 6 are parameter sweeps over ScenarioConfig.
#pragma once

#include <memory>

#include "obs/audit.h"
#include "obs/registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "security/auth_engine.h"
#include "security/partition_key_manager.h"
#include "security/qp_key_manager.h"
#include "transport/subnet_manager.h"
#include "workload/attack_campaign.h"
#include "workload/attacker.h"
#include "workload/collective.h"
#include "workload/metrics.h"
#include "workload/traffic.h"

namespace ibsec::workload {

enum class KeyManagement : std::uint8_t {
  kNone = 0,            ///< no authentication keys (baseline IBA)
  kPartitionLevel = 1,  ///< SM-distributed per-partition secrets (sec. 4.2)
  kQpLevel = 2,         ///< per-QP-pair secrets via Q_Key exchange (sec. 4.3)
};

struct ScenarioConfig {
  fabric::FabricConfig fabric;
  std::uint64_t seed = 1;

  int num_partitions = 4;
  /// Multi-tenant partition layout: instead of the paper's 4 shuffled
  /// groups, partition p holds nodes {p mod n, (p+1) mod n}, so thousands
  /// of partitions stress the key-manager and SIF/IF table paths (each node
  /// ends up in ~2*num_partitions/n partitions). Requires
  /// num_partitions >= node count; traffic peers become the nodes sharing
  /// a partition (the ring neighbors).
  bool multi_tenant = false;

  bool enable_realtime = true;
  double realtime_rate = 0.10;  ///< fraction of link bandwidth per node
  /// Realtime back-off: skip a send slot when the HCA realtime queue is at
  /// least this deep ("does not send when the network cannot support it").
  std::size_t realtime_backoff_limit = 32;
  bool enable_best_effort = true;
  double best_effort_load = 0.40;  ///< "input load" in Figures 5/6

  int num_attackers = 0;
  double attack_probability = 1.0;  ///< per-burst activity (Fig. 5 uses 0.01)
  SimTime attack_burst = 50 * time_literals::kMicrosecond;
  /// Fixed attack VL (see Attacker::Params::fixed_vl); unset = alternate.
  std::optional<ib::VirtualLane> attack_vl;
  /// Sec. 7 variant: attackers flood with their own partition's valid
  /// P_Key, making partition filtering useless.
  bool attack_with_valid_pkey = false;

  /// Seeded control-plane attack campaigns (attack_campaign.h), on top of —
  /// and independent of — the bandwidth flooders above. Empty = none.
  AttackCampaignSpec attack;
  /// SM plausibility check on P_Key-violation traps (the trap-forge
  /// campaign's defense); see SubnetManager::set_trap_validation.
  bool sm_trap_validation = true;

  /// MPI-style collective workload (collective.h) over the honest nodes,
  /// on top of the paper's realtime/best-effort sources. Disabled by
  /// default; starts at the end of warmup.
  WorkloadSpec workload;

  /// RC reliability protocol knobs, applied to every CA (off by default —
  /// see transport/rc_reliability.h). Cannot be combined with
  /// replay_protection: a Scenario with both fails an IBSEC_CHECK.
  transport::RcConfig rc;
  /// RC message streams between consecutive same-partition honest nodes
  /// (both directions), sized to exercise segmentation.
  bool enable_rc_messages = false;
  double rc_load = 0.2;            ///< fraction of link bandwidth per stream
  std::size_t rc_message_bytes = 2600;  ///< mean message size (MTU is 1024)

  KeyManagement key_management = KeyManagement::kNone;
  crypto::AuthAlgorithm auth_alg = crypto::AuthAlgorithm::kUmac32;
  bool auth_enabled = false;       ///< sign + require tags on all partitions
  bool replay_protection = false;
  /// Per-message MAC pipeline stage at the sender (paper: ~1 cycle).
  SimTime per_message_auth_overhead = 3200;  // ps

  /// RSA modulus for CA identities. 256 keeps 16-node bring-up fast inside
  /// sweeps; crypto-focused tests use larger keys.
  std::size_t rsa_bits = 256;

  SimTime warmup = 100 * time_literals::kMicrosecond;
  SimTime duration = 2 * time_literals::kMillisecond;

  /// Packet-lifecycle tracing (obs/trace.h), off by default. When enabled
  /// the result carries the Chrome trace JSON and the per-packet latency
  /// breakdown CSV.
  obs::TraceConfig trace;
  /// Security audit plane (obs/audit.h), off by default. When enabled the
  /// result carries the JSONL event log every enforcement point feeds.
  obs::AuditConfig audit;
  /// Fixed-Δt registry sampling into ScenarioResult::timeseries_csv;
  /// 0 disables. Buckets start at run() and cover warmup + duration.
  SimTime timeseries_dt = 0;
  /// Snapshot-name globs to keep per bucket; empty selects the default
  /// DoS-experiment set (queue depths, link/switch counters, rc, auth).
  std::vector<std::string> timeseries_patterns;
  std::size_t timeseries_max_samples = 1u << 16;
};

struct ScenarioResult {
  ClassMetrics realtime;
  ClassMetrics best_effort;

  std::uint64_t attack_packets = 0;
  /// Fabric-wide registry totals, summed over `obs` below.
  std::uint64_t switch_filter_drops = 0;
  std::uint64_t switch_filter_lookups = 0;
  std::uint64_t hca_pkey_violations = 0;
  std::uint64_t sm_traps_received = 0;
  std::uint64_t sif_installs = 0;
  std::uint64_t delivered = 0;
  std::uint64_t auth_rejected = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t rate_limited = 0;
  /// Not exported to the registry: the filters' table state and the CAs'
  /// trap sends.
  std::size_t switch_table_memory = 0;
  std::uint64_t traps_sent = 0;

  /// Campaign aggregates (Σ attacker.*.attempts / attacker.*.success) and
  /// the fabric-wide per-QP Q_Key-drop total. Like the registry totals
  /// above, they are sums over `obs`, lifted out so outcomes read directly
  /// off the result.
  std::uint64_t attack_attempts = 0;
  std::uint64_t attack_successes = 0;
  std::uint64_t qkey_drops = 0;

  /// Full registry snapshot at the end of the measurement window — every
  /// instrumented component ("switch.*", "link.*", "hca.*", "ca.*",
  /// "auth.*", "sm.*", "attack.*", "workload.*") in one flat map, ready for
  /// to_json()/to_csv().
  obs::Snapshot obs;

  /// Chrome trace_event JSON (empty unless config.trace.enabled).
  std::string trace_json;
  /// Per-packet latency breakdown CSV derived from the trace (empty unless
  /// config.trace.enabled).
  std::string trace_breakdown_csv;
  /// Fixed-Δt counter/gauge series (empty unless config.timeseries_dt > 0).
  std::string timeseries_csv;
  /// Security audit event log, JSONL (empty unless config.audit.enabled).
  std::string audit_jsonl;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Runs warmup + measurement and returns the aggregated result.
  ScenarioResult run();

  // --- component access (integration tests) ----------------------------------
  fabric::Fabric& fabric() { return *fabric_; }
  transport::ChannelAdapter& ca(int node) {
    return *cas_.at(static_cast<std::size_t>(node));
  }
  transport::SubnetManager& sm() { return *sm_; }
  security::AuthEngine* auth_engine(int node) {
    return auth_engines_.empty()
               ? nullptr
               : auth_engines_.at(static_cast<std::size_t>(node)).get();
  }
  const std::vector<int>& partition_of_node() const {
    return node_partition_;
  }
  ib::PKeyValue pkey_of_partition(int p) const {
    return static_cast<ib::PKeyValue>(ib::kPKeyMembershipBit | (0x100 + p));
  }
  const std::vector<int>& attacker_nodes() const { return attacker_nodes_; }
  MetricsCollector& metrics() { return metrics_; }
  /// The attack-campaign set, or nullptr when config.attack is empty.
  AttackCampaignSet* campaigns() { return campaigns_.get(); }
  /// The collective workload, or nullptr when config.workload is empty.
  CollectiveWorkload* collective() { return collective_.get(); }

 private:
  void build();
  void build_partitions(Rng& rng);
  void build_security();
  void build_traffic(Rng& rng);
  void build_attackers(Rng& rng);
  void build_campaigns();
  void build_collective();
  /// Samples one time-series bucket and reschedules itself every
  /// timeseries_dt until the measurement window ends.
  void timeseries_tick();

  ScenarioConfig config_;
  std::unique_ptr<fabric::Fabric> fabric_;
  transport::PkiDirectory pki_;
  std::vector<std::unique_ptr<transport::ChannelAdapter>> cas_;
  std::unique_ptr<transport::SubnetManager> sm_;
  std::vector<std::unique_ptr<security::PartitionKeyManager>> partition_keys_;
  std::vector<std::unique_ptr<security::QpKeyManager>> qp_keys_;
  std::vector<std::unique_ptr<security::AuthEngine>> auth_engines_;
  std::vector<std::unique_ptr<TrafficSource>> sources_;
  std::vector<std::unique_ptr<RcMessageSource>> rc_sources_;
  std::vector<std::unique_ptr<Attacker>> attackers_;
  std::unique_ptr<AttackCampaignSet> campaigns_;
  std::unique_ptr<CollectiveWorkload> collective_;
  std::vector<int> node_partition_;      // node -> partition index
  std::vector<ib::Qpn> ud_qp_of_node_;   // node -> its workload UD QP
  std::vector<int> attacker_nodes_;
  std::vector<int> rc_stream_nodes_;     // nodes carrying an RC stream QP
  MetricsCollector metrics_;
  std::unique_ptr<obs::TimeSeriesSampler> timeseries_;
  SimTime timeseries_end_ = 0;
};

}  // namespace ibsec::workload
