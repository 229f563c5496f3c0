#include "workload/scenario.h"

#include <algorithm>
#include <numeric>

namespace ibsec::workload {

namespace {

// Counters worth plotting against time in the DoS experiments when the
// caller does not name their own set.
std::vector<std::string> default_timeseries_patterns() {
  return {
      "link.*.packets",      "link.*.bytes",        "link.*.queue_depth*",
      "switch.*.forwarded",  "switch.*.drop.*",     "hca.*.injected",
      "hca.*.received",      "ca.*.rc.retransmits", "auth.*",
  };
}

}  // namespace

Scenario::Scenario(ScenarioConfig config) : config_(std::move(config)) {
  build();
}

Scenario::~Scenario() = default;

void Scenario::build() {
  // A go-back-N retransmission reuses its PSN, which the replay window
  // rejects as a replay, so every resend would be lost.
  IBSEC_CHECK(!(config_.rc.enabled && config_.replay_protection))
      << "rc.enabled and replay_protection cannot be combined: the replay "
         "window rejects every RC retransmission";
  Rng rng(config_.seed);

  fabric_ = std::make_unique<fabric::Fabric>(config_.fabric);
  // Tracing must be live before any component can emit an event (bring-up
  // MADs are part of a packet's lifecycle too).
  fabric_->simulator().trace().configure(config_.trace);
  // Same for the audit plane: bring-up enforcement verdicts are evidence.
  fabric_->simulator().audit().configure(config_.audit);
  const int n = fabric_->node_count();

  cas_.reserve(static_cast<std::size_t>(n));
  for (int node = 0; node < n; ++node) {
    cas_.push_back(std::make_unique<transport::ChannelAdapter>(
        *fabric_, node, pki_, config_.seed, config_.rsa_bits));
    cas_.back()->set_rc_config(config_.rc);
    cas_.back()->set_delivery_probe([this, node](const ib::Packet& pkt) {
      metrics_.record(pkt);
      if (campaigns_) campaigns_->on_delivered(node, pkt);
      if (collective_) collective_->on_delivered(node, pkt);
    });
  }

  std::vector<transport::ChannelAdapter*> ca_ptrs;
  for (auto& ca : cas_) ca_ptrs.push_back(ca.get());
  sm_ = std::make_unique<transport::SubnetManager>(*fabric_, ca_ptrs,
                                                   /*sm_node=*/0,
                                                   config_.seed);
  sm_->set_trap_validation(config_.sm_trap_validation);
  sm_->assign_m_keys();

  build_partitions(rng);
  build_security();

  // Pick attackers before wiring traffic so honest-node sources skip them.
  build_attackers(rng);
  build_traffic(rng);
  build_campaigns();
  // Last, so the collective QPs (and their obs counters) only exist for
  // configs that opted in — default golden exports stay untouched.
  build_collective();

  metrics_.set_warmup(config_.warmup);
}

void Scenario::build_partitions(Rng& rng) {
  const int n = fabric_->node_count();

  if (config_.multi_tenant) {
    // Multi-tenant layout: partition p holds the ring pair {p mod n,
    // (p+1) mod n}. With thousands of partitions every node carries
    // ~2*parts/n memberships, blowing up exactly the key-manager and
    // ingress-filter tables the spec says to stress. No shuffle draws:
    // the layout is a pure function of (n, parts).
    const int parts = std::max(1, config_.num_partitions);
    IBSEC_CHECK(parts >= n)
        << "multi_tenant needs num_partitions >= nodes (" << parts << " < "
        << n << ")";
    node_partition_.assign(static_cast<std::size_t>(n), 0);
    for (int node = 0; node < n; ++node) {
      // Primary partition `node` always contains the node itself.
      node_partition_[static_cast<std::size_t>(node)] = node;
    }
    for (int p = 0; p < parts; ++p) {
      std::vector<int> members;
      members.push_back(p % n);
      if (n > 1) members.push_back((p + 1) % n);
      sm_->create_partition(pkey_of_partition(p), members);
    }
    sm_->configure_switch_enforcement();
    return;
  }

  // "We partition the IBA network into four random groups" (sec. 3.1).
  std::vector<int> nodes(static_cast<std::size_t>(n));
  std::iota(nodes.begin(), nodes.end(), 0);
  for (std::size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1], nodes[rng.uniform(i)]);
  }

  node_partition_.assign(static_cast<std::size_t>(n), 0);
  const int parts = std::max(1, config_.num_partitions);
  std::vector<std::vector<int>> members(static_cast<std::size_t>(parts));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const int p = static_cast<int>(i) % parts;
    members[static_cast<std::size_t>(p)].push_back(nodes[i]);
    node_partition_[static_cast<std::size_t>(nodes[i])] = p;
  }
  for (int p = 0; p < parts; ++p) {
    sm_->create_partition(pkey_of_partition(p),
                          members[static_cast<std::size_t>(p)]);
  }
  sm_->configure_switch_enforcement();
}

void Scenario::build_security() {
  if (config_.key_management == KeyManagement::kNone && !config_.auth_enabled) {
    return;
  }
  const int n = fabric_->node_count();
  for (int node = 0; node < n; ++node) {
    auto engine = std::make_unique<security::AuthEngine>(ca(node));
    if (config_.key_management == KeyManagement::kPartitionLevel) {
      partition_keys_.push_back(
          std::make_unique<security::PartitionKeyManager>(ca(node)));
      engine->set_key_manager(partition_keys_.back().get());
    } else if (config_.key_management == KeyManagement::kQpLevel) {
      qp_keys_.push_back(std::make_unique<security::QpKeyManager>(
          ca(node), config_.auth_alg));
      engine->set_key_manager(qp_keys_.back().get());
    }
    if (config_.auth_enabled) {
      engine->enable_for_partition(
          pkey_of_partition(node_partition_[static_cast<std::size_t>(node)]));
    }
    engine->set_replay_protection(config_.replay_protection);
    // Matches the delay TrafficSource models before each authenticated send,
    // so traced kMacSign spans carry the same duration (see AuthEngine doc).
    engine->set_modeled_sign_overhead(
        config_.auth_enabled ? config_.per_message_auth_overhead : 0);
    auth_engines_.push_back(std::move(engine));
  }

  // Partition-level: the SM pushes one secret per partition at bring-up
  // ("key distribution overhead is virtually zero" — it happens once).
  if (config_.key_management == KeyManagement::kPartitionLevel) {
    for (int p = 0; p < config_.num_partitions; ++p) {
      sm_->distribute_partition_secret(pkey_of_partition(p),
                                       config_.auth_alg);
    }
    // Let the distribution MADs drain before traffic starts.
    fabric_->simulator().run_until(50 * time_literals::kMicrosecond);
  }
}

void Scenario::build_attackers(Rng& rng) {
  const int n = fabric_->node_count();
  std::set<ib::PKeyValue> legal;
  legal.insert(ib::kDefaultPKey);
  for (int p = 0; p < config_.num_partitions; ++p) {
    legal.insert(pkey_of_partition(p));
  }
  // Attackers are distinct random non-SM nodes.
  std::set<int> chosen;
  while (static_cast<int>(chosen.size()) < config_.num_attackers &&
         static_cast<int>(chosen.size()) < n - 1) {
    const int candidate =
        1 + static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n - 1)));
    chosen.insert(candidate);
  }
  attacker_nodes_.assign(chosen.begin(), chosen.end());
  for (int node : attacker_nodes_) {
    Attacker::Params params;
    params.legal_pkeys = legal;
    params.activity_probability = config_.attack_probability;
    params.burst_duration = config_.attack_burst;
    params.fixed_vl = config_.attack_vl;
    if (config_.attack_with_valid_pkey) {
      const int part = node_partition_[static_cast<std::size_t>(node)];
      params.valid_pkey = pkey_of_partition(part);
      // Target only same-partition peers: every flood packet carries a
      // P_Key its receiver accepts, so no trap ever fires.
      for (int other = 0; other < n; ++other) {
        if (other != node &&
            node_partition_[static_cast<std::size_t>(other)] == part) {
          params.target_nodes.push_back(other);
        }
      }
    }
    attackers_.push_back(
        std::make_unique<Attacker>(ca(node), params, rng.split()));
  }
}

void Scenario::build_traffic(Rng& rng) {
  const int n = fabric_->node_count();

  // One workload UD QP per node (attackers included: their QP exists, they
  // just also flood).
  ud_qp_of_node_.assign(static_cast<std::size_t>(n), 0);
  for (int node = 0; node < n; ++node) {
    const int p = node_partition_[static_cast<std::size_t>(node)];
    auto& qp = ca(node).create_qp(transport::ServiceType::kUnreliableDatagram,
                                  pkey_of_partition(p));
    ud_qp_of_node_[static_cast<std::size_t>(node)] = qp.qpn;
  }

  const bool qp_level = config_.key_management == KeyManagement::kQpLevel;
  const std::set<int> attackers(attacker_nodes_.begin(),
                                attacker_nodes_.end());

  // Whether `b` accepts packets sent on `a`'s workload QP (i.e. b is a
  // member of a's primary partition). Default layout: equal primaries.
  // Multi-tenant layout: a's primary partition `a` holds {a, (a+1) mod n},
  // so each node's one legal peer is its ring successor.
  const auto shares_partition = [this, n](int a, int b) {
    if (!config_.multi_tenant) {
      return node_partition_[static_cast<std::size_t>(a)] ==
             node_partition_[static_cast<std::size_t>(b)];
    }
    return (a + 1) % n == b;
  };

  for (int node = 0; node < n; ++node) {
    if (attackers.count(node)) continue;  // compromised nodes send no legit load

    // Peers: co-tenant nodes (excluding self and attackers).
    std::vector<TrafficSource::Peer> peers;
    for (int other = 0; other < n; ++other) {
      if (other == node || attackers.count(other)) continue;
      if (!shares_partition(node, other)) continue;
      TrafficSource::Peer peer;
      peer.node = other;
      peer.qp = ud_qp_of_node_[static_cast<std::size_t>(other)];
      if (!qp_level) {
        // Baseline: Q_Keys were exchanged out of band at setup.
        peer.qkey = ca(other).find_qp(peer.qp)->qkey;
        peer.ready = true;
      }
      peers.push_back(peer);
    }
    if (peers.empty()) continue;

    security::QpKeyManager* qkm =
        qp_level ? qp_keys_.at(static_cast<std::size_t>(node)).get() : nullptr;
    const SimTime overhead =
        config_.auth_enabled ? config_.per_message_auth_overhead : 0;

    if (config_.enable_realtime) {
      sources_.push_back(std::make_unique<RealtimeSource>(
          ca(node), ud_qp_of_node_[static_cast<std::size_t>(node)], peers,
          rng.split(), qkm, overhead, config_.realtime_rate,
          config_.realtime_backoff_limit));
    }
    if (config_.enable_best_effort) {
      sources_.push_back(std::make_unique<BestEffortSource>(
          ca(node), ud_qp_of_node_[static_cast<std::size_t>(node)], peers,
          rng.split(), qkm, overhead, config_.best_effort_load));
    }
  }

  if (!config_.enable_rc_messages) return;
  // RC streams: pair up consecutive honest nodes within each partition and
  // run a message source in each direction over a bound RC QP pair.
  const int parts = std::max(1, config_.num_partitions);
  std::vector<std::vector<int>> honest(static_cast<std::size_t>(parts));
  for (int node = 0; node < n; ++node) {
    if (attackers.count(node)) continue;
    honest[static_cast<std::size_t>(
               node_partition_[static_cast<std::size_t>(node)])]
        .push_back(node);
  }
  for (const auto& members : honest) {
    for (std::size_t i = 0; i + 1 < members.size(); i += 2) {
      const int a = members[i];
      const int b = members[i + 1];
      const ib::PKeyValue pkey = pkey_of_partition(
          node_partition_[static_cast<std::size_t>(a)]);
      const ib::Qpn qa =
          ca(a).create_qp(transport::ServiceType::kReliableConnection, pkey)
              .qpn;
      const ib::Qpn qb =
          ca(b).create_qp(transport::ServiceType::kReliableConnection, pkey)
              .qpn;
      ca(a).bind_rc(qa, b, qb);
      ca(b).bind_rc(qb, a, qa);
      rc_stream_nodes_.push_back(a);
      rc_stream_nodes_.push_back(b);
      rc_sources_.push_back(std::make_unique<RcMessageSource>(
          ca(a), qa, rng.split(), config_.rc_load, config_.rc_message_bytes));
      rc_sources_.push_back(std::make_unique<RcMessageSource>(
          ca(b), qb, rng.split(), config_.rc_load, config_.rc_message_bytes));
    }
  }
}

void Scenario::build_campaigns() {
  if (!config_.attack.enabled()) return;
  AttackContext ctx;
  ctx.fabric = fabric_.get();
  for (auto& ca_ptr : cas_) ctx.cas.push_back(ca_ptr.get());
  ctx.sm = sm_.get();
  ctx.sm_node = sm_->sm_node();
  ctx.node_partition = node_partition_;
  for (int p = 0; p < std::max(1, config_.num_partitions); ++p) {
    ctx.partition_pkeys.push_back(pkey_of_partition(p));
  }
  ctx.ud_qp_of_node = ud_qp_of_node_;
  ctx.attacker_nodes = attacker_nodes_;
  ctx.rc_stream_nodes = rc_stream_nodes_;
  campaigns_ = std::make_unique<AttackCampaignSet>(config_.attack, ctx);
}

void Scenario::build_collective() {
  if (!config_.workload.enabled()) return;
  // Ranks are the honest nodes, in node order — the deterministic
  // rank->node mapping the schedule oracle in the tests relies on.
  const std::set<int> attackers(attacker_nodes_.begin(),
                                attacker_nodes_.end());
  std::vector<transport::ChannelAdapter*> ranks;
  for (int node = 0; node < fabric_->node_count(); ++node) {
    if (!attackers.count(node)) ranks.push_back(cas_[static_cast<std::size_t>(node)].get());
  }
  collective_ = std::make_unique<CollectiveWorkload>(config_.workload,
                                                     std::move(ranks));
}

void Scenario::timeseries_tick() {
  auto& sim = fabric_->simulator();
  timeseries_->sample(sim.now());
  if (sim.now() + config_.timeseries_dt <= timeseries_end_) {
    sim.after(config_.timeseries_dt, [this] { timeseries_tick(); });
  }
}

ScenarioResult Scenario::run() {
  auto& sim = fabric_->simulator();

  if (config_.timeseries_dt > 0) {
    obs::TimeSeriesConfig ts;
    ts.dt = config_.timeseries_dt;
    ts.patterns = config_.timeseries_patterns.empty()
                      ? default_timeseries_patterns()
                      : config_.timeseries_patterns;
    ts.max_samples = config_.timeseries_max_samples;
    timeseries_ =
        std::make_unique<obs::TimeSeriesSampler>(sim.obs(), std::move(ts));
    timeseries_end_ = sim.now() + config_.warmup + config_.duration;
    timeseries_tick();  // bucket 0 at run start, then every dt
  }

  // Stagger source start times within one packet slot to avoid lockstep.
  Rng stagger(config_.seed ^ 0xABCDEF);
  for (auto& src : sources_) {
    src->start(sim.now() + static_cast<SimTime>(stagger.uniform(3'276'800)));
  }
  for (auto& src : rc_sources_) {
    src->start(sim.now() + static_cast<SimTime>(stagger.uniform(3'276'800)));
  }
  for (auto& attacker : attackers_) {
    attacker->start(sim.now() +
                    static_cast<SimTime>(stagger.uniform(1'000'000)));
  }
  // Campaign staggering draws come last, so configs without campaigns see
  // the exact draw sequence they always did (golden exports stay valid).
  if (campaigns_) campaigns_->start(sim.now(), stagger);
  // The collective schedule is fully deterministic (no stagger draws):
  // step 0 posts when warmup ends, steps then pace by spec.step_interval.
  if (collective_) collective_->start(sim.now() + config_.warmup);

  sim.run_until(sim.now() + config_.warmup + config_.duration);

  for (auto& src : sources_) src->stop();
  for (auto& src : rc_sources_) src->stop();
  for (auto& attacker : attackers_) attacker->stop();
  if (campaigns_) {
    campaigns_->stop();
    // Resolve counter-delta success metrics before the snapshot freezes.
    campaigns_->finish();
  }

  ScenarioResult result;
  result.realtime = metrics_.realtime();
  result.best_effort = metrics_.best_effort();
  for (auto& attacker : attackers_) {
    result.attack_packets += attacker->packets_injected();
  }
  result.switch_table_memory = fabric_->total_filter_memory_bytes();
  for (auto& ca_ptr : cas_) {
    result.traps_sent += ca_ptr->counters().traps_sent;
  }

  // Export the workload-level aggregates as gauges so one snapshot carries
  // the whole experiment, then freeze the registry into the result.
  auto& reg = sim.obs();
  const auto export_class = [&reg](const std::string& prefix,
                                   const ClassMetrics& m) {
    reg.gauge(prefix + "delivered")
        .set(static_cast<std::int64_t>(m.total_us.count()));
    reg.gauge(prefix + "total_us_mean_x1000")
        .set(static_cast<std::int64_t>(m.total_us.mean() * 1000.0));
    reg.gauge(prefix + "total_us_p99_x1000")
        .set(static_cast<std::int64_t>(m.total_p99() * 1000.0));
  };
  export_class("workload.realtime.", result.realtime);
  export_class("workload.best_effort.", result.best_effort);
  result.obs = reg.snapshot();
  // The scalar totals read the snapshot, the one store of every count.
  const auto total = [&result](std::string_view pattern) {
    return static_cast<std::uint64_t>(result.obs.sum_matching(pattern));
  };
  result.switch_filter_drops = total("switch.*.filter.drops");
  result.switch_filter_lookups = total("switch.*.filter.lookups");
  result.forwarded = total("switch.*.forwarded");
  result.rate_limited = total("switch.*.drop.rate_limited");
  result.hca_pkey_violations = total("ca.*.retired.pkey_violation");
  result.delivered = total("ca.*.retired.delivered");
  result.auth_rejected = total("ca.*.retired.auth_rejected");
  result.sm_traps_received = total("sm.traps_received");
  result.sif_installs = total("sm.sif_installs");
  result.attack_attempts = total("attacker.*.attempts");
  result.attack_successes = total("attacker.*.success");
  result.qkey_drops = total("ca.*.dropped_bad_qkey");
  if (timeseries_) {
    // Closing bucket, unless the last scheduled tick already landed exactly
    // at end-of-run (run_until executes events at t == end).
    const std::size_t rows = timeseries_->rows();
    if (rows == 0 || timeseries_->row_time(rows - 1) != sim.now()) {
      timeseries_->sample(sim.now());
    }
    result.timeseries_csv = timeseries_->to_csv();
  }
  if (sim.trace().enabled()) {
    result.trace_json = sim.trace().to_chrome_json();
    result.trace_breakdown_csv = obs::breakdown_csv(sim.trace().view());
  }
  if (sim.audit().enabled()) {
    result.audit_jsonl = sim.audit().to_jsonl();
  }
  return result;
}

}  // namespace ibsec::workload
