// run_experiment — command-line scenario runner.
//
// A downstream user's entry point for exploring the parameter space without
// writing C++: every knob the figure benches sweep is exposed as a flag.
//
//   run_experiment --load 0.5 --attackers 4 --filter sif --duration-ms 10
//   run_experiment --auth qp --alg umac --replay --seed 7
//
// Prints the scenario configuration, the per-class delay statistics
// (mean/sd/p50/p99), and the security counters.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/spec_text.h"
#include "workload/scenario.h"

using namespace ibsec;
using spec_text::parse_double;
using spec_text::parse_int;

namespace {

void usage(const char* prog) {
  std::printf(
      "usage: %s [options]\n"
      "  --seed N             RNG seed (default 1)\n"
      "  --topology SPEC      mesh[:WxH] | fattree:k=K[,seed=N] (N seeds\n"
      "                       the fat-tree's ECMP hash; default mesh 4x4)\n"
      "  --workload SPEC      MPI-style collective over the honest nodes:\n"
      "                       alltoall | allreduce:algo=ring|rd |\n"
      "                       incast[:target=R]; all accept ',bytes=B',\n"
      "                       ',rounds=R', ',interval_us=T' (default none)\n"
      "  --duration-ms N      measured duration (default 5)\n"
      "  --load F             best-effort injection fraction (default 0.4)\n"
      "  --realtime F         realtime CBR fraction, 0 disables (default 0)\n"
      "  --attackers N        compromised nodes flooding bad P_Keys (default 0)\n"
      "  --attack-duty F      fraction of time attack bursts are active (default 1)\n"
      "  --filter MODE        none|dpt|if|sif (default none)\n"
      "  --auth SCHEME        off|partition|qp (default off)\n"
      "  --alg MAC            umac|hmac-md5|hmac-sha1|hmac-sha256|pmac (default umac)\n"
      "  --replay             enable the PSN replay window\n"
      "  --buffer-mtus N      per-VL credit depth in MTU packets (default 4)\n"
      "  --partitions N       number of random partitions (default 4)\n"
      "  --rate-limit F       ingress admission cap fraction, 0 = off\n"
      "  --valid-pkey-attack  attackers flood with their own valid P_Key\n"
      "  --attack SPEC        seeded control-plane attack campaigns, e.g.\n"
      "                       'seed=7;attack=scan:count=600,keyspace=64;"
      "attack=trap-forge'\n"
      "                       kinds: scan|trap-forge|rc-spoof|replay|"
      "side-channel\n"
      "  --no-trap-validation disable the SM's forged-trap plausibility check\n"
      "  --no-rc-validate     disable RC ACK/NAK PSN validation (fail-open)\n"
      "  --faults SPEC        deterministic fault campaign, e.g.\n"
      "                       'seed=42;drop=0.01;corrupt=0.005;"
      "link=sw1.out3:drop=0.5;flap=sw1.out3:100us-300us;dead-switch=5'\n"
      "  --rc-load F          RC message load fraction; enables the RC\n"
      "                       reliability protocol and streams (default off)\n"
      "  --trace[=FILE]       write a Chrome trace_event JSON (open in\n"
      "                       Perfetto); FILE defaults to trace.json\n"
      "  --trace-sample N     trace every Nth packet (default 1 = every packet)\n"
      "  --breakdown FILE     write the per-packet latency-breakdown CSV, one\n"
      "                       row per delivered traced packet\n"
      "  --timeseries[=FILE]  write the fixed-dt counter/gauge time-series\n"
      "                       CSV; FILE defaults to timeseries.csv\n"
      "  --timeseries-dt NS   time-series bucket width in ns (default 10000)\n"
      "  --audit[=FILE]       write the security audit event log (JSONL), one\n"
      "                       line per enforcement decision; types and\n"
      "                       verdicts come from the decision table in\n"
      "                       obs/decision.h (docs/audit_schema.md); FILE\n"
      "                       defaults to audit.jsonl\n"
      "  --metrics FILE       dump the metrics snapshot (.json = JSON, else CSV)\n"
      "\n"
      "  --trace/--timeseries/--audit accept their output path uniformly as\n"
      "  '--flag=FILE', '--flag FILE', or bare '--flag' (documented default).\n",
      prog);
}

bool write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = body.empty() ||
                  std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string chrome_trace_path;
  std::string breakdown_path;
  std::string timeseries_path;
  std::string audit_path;
  std::string metrics_path;
  workload::ScenarioConfig cfg;
  cfg.seed = 1;
  cfg.duration = 5 * time_literals::kMillisecond;
  cfg.enable_realtime = false;
  cfg.best_effort_load = 0.4;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Output flags taking an optional path, uniformly: '--flag=FILE',
    // '--flag FILE' (a following token not starting with "--"), or bare
    // '--flag' (the documented default). Returns false on no match, so
    // longer flags sharing the prefix ("--trace-sample") fall through.
    const auto optional_path = [&](const char* flag, const char* fallback,
                                   std::string& out) -> bool {
      const std::size_t flen = std::strlen(flag);
      if (arg.compare(0, flen, flag) != 0) return false;
      if (arg.size() == flen) {
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
          out = argv[++i];
        } else {
          out = fallback;
        }
        return true;
      }
      if (arg[flen] != '=') return false;
      out = arg.substr(flen + 1);
      if (out.empty()) out = fallback;
      return true;
    };
    // Numeric flags parse straight into their field (or into these); a
    // value that does not parse falls through to the usage error below.
    double value = 0;
    std::size_t count = 0;
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--seed" && parse_int(next(), cfg.seed)) {
    } else if (arg == "--topology") {
      const char* spec = next();
      const auto topo = fabric::TopologySpec::parse(spec);
      if (!topo) {
        std::fprintf(stderr, "bad --topology spec: %s\n", spec);
        return 2;
      }
      cfg.fabric.topology = *topo;
    } else if (arg == "--workload") {
      const char* spec = next();
      const auto w = workload::WorkloadSpec::parse(spec);
      if (!w) {
        std::fprintf(stderr, "bad --workload spec: %s\n", spec);
        return 2;
      }
      cfg.workload = *w;
    } else if (arg == "--duration-ms" && parse_double(next(), value) &&
               value >= 0 && value * 1e3 <= spec_text::kMaxTimeUs) {
      cfg.duration = static_cast<SimTime>(value * 1e9);
    } else if (arg == "--load" && parse_double(next(), value)) {
      cfg.best_effort_load = value;
      cfg.enable_best_effort = value > 0;
    } else if (arg == "--realtime" && parse_double(next(), value)) {
      cfg.realtime_rate = value;
      cfg.enable_realtime = value > 0;
    } else if (arg == "--attackers" && parse_int(next(), cfg.num_attackers)) {
    } else if (arg == "--attack-duty" && parse_double(next(), value)) {
      cfg.attack_probability = value;
    } else if (arg == "--buffer-mtus" && parse_int(next(), count)) {
      cfg.fabric.link.buffer_bytes_per_vl = count * 1088;
    } else if (arg == "--partitions" && parse_int(next(), cfg.num_partitions)) {
    } else if (arg == "--filter") {
      const std::string mode = next();
      if (mode == "none") cfg.fabric.filter_mode = fabric::FilterMode::kNone;
      else if (mode == "dpt") cfg.fabric.filter_mode = fabric::FilterMode::kDpt;
      else if (mode == "if") cfg.fabric.filter_mode = fabric::FilterMode::kIf;
      else if (mode == "sif") cfg.fabric.filter_mode = fabric::FilterMode::kSif;
      else { std::fprintf(stderr, "bad --filter %s\n", mode.c_str()); return 2; }
    } else if (arg == "--auth") {
      const std::string scheme = next();
      if (scheme == "off") {
        cfg.key_management = workload::KeyManagement::kNone;
      } else if (scheme == "partition") {
        cfg.key_management = workload::KeyManagement::kPartitionLevel;
        cfg.auth_enabled = true;
      } else if (scheme == "qp") {
        cfg.key_management = workload::KeyManagement::kQpLevel;
        cfg.auth_enabled = true;
      } else {
        std::fprintf(stderr, "bad --auth %s\n", scheme.c_str());
        return 2;
      }
    } else if (arg == "--alg") {
      const std::string alg = next();
      if (alg == "umac") cfg.auth_alg = crypto::AuthAlgorithm::kUmac32;
      else if (alg == "hmac-md5") cfg.auth_alg = crypto::AuthAlgorithm::kHmacMd5;
      else if (alg == "hmac-sha1") cfg.auth_alg = crypto::AuthAlgorithm::kHmacSha1;
      else if (alg == "hmac-sha256") cfg.auth_alg = crypto::AuthAlgorithm::kHmacSha256;
      else if (alg == "pmac") cfg.auth_alg = crypto::AuthAlgorithm::kPmac;
      else { std::fprintf(stderr, "bad --alg %s\n", alg.c_str()); return 2; }
    } else if (arg == "--replay") {
      cfg.replay_protection = true;
    } else if (arg == "--rate-limit" && parse_double(next(), value)) {
      cfg.fabric.ingress_rate_limit_fraction = value;
    } else if (arg == "--valid-pkey-attack") {
      cfg.attack_with_valid_pkey = true;
    } else if (arg == "--attack") {
      const char* spec = next();
      const auto campaign = workload::AttackCampaignSpec::parse(spec);
      if (!campaign) {
        std::fprintf(stderr, "bad --attack spec: %s\n", spec);
        return 2;
      }
      cfg.attack = *campaign;
    } else if (arg == "--no-trap-validation") {
      cfg.sm_trap_validation = false;
    } else if (arg == "--no-rc-validate") {
      cfg.rc.validate_control = false;
    } else if (arg == "--faults") {
      const char* spec = next();
      const auto campaign = fabric::FaultCampaign::parse(spec);
      if (!campaign) {
        std::fprintf(stderr, "bad --faults spec: %s\n", spec);
        return 2;
      }
      cfg.fabric.fault_campaign = *campaign;
    } else if (arg == "--rc-load" && parse_double(next(), value)) {
      cfg.rc_load = value;
      cfg.enable_rc_messages = value > 0;
      cfg.rc.enabled = value > 0;
    } else if (optional_path("--trace", "trace.json", chrome_trace_path)) {
      cfg.trace.enabled = true;
    } else if (arg == "--trace-sample" &&
               parse_int(next(), cfg.trace.sample_every)) {
      if (cfg.trace.sample_every == 0) cfg.trace.sample_every = 1;
    } else if (arg == "--breakdown") {
      breakdown_path = next();
      cfg.trace.enabled = true;
    } else if (optional_path("--timeseries", "timeseries.csv",
                             timeseries_path)) {
      if (cfg.timeseries_dt == 0) {
        cfg.timeseries_dt = 10 * time_literals::kMicrosecond;
      }
    } else if (optional_path("--audit", "audit.jsonl", audit_path)) {
      cfg.audit.enabled = true;
    } else if (arg == "--timeseries-dt" && parse_double(next(), value) &&
               value >= 0 && value * 1e-3 <= spec_text::kMaxTimeUs) {
      cfg.timeseries_dt = static_cast<SimTime>(value * 1000.0);  // ns -> ps
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else {
      std::fprintf(stderr, "unknown option or bad value: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (cfg.rc.enabled && cfg.replay_protection) {
    std::fprintf(stderr,
                 "--rc-load cannot be combined with --replay: the replay "
                 "window rejects every RC retransmission\n");
    return 2;
  }

  std::printf("Testbed (paper Table 1):\n");
  std::printf("  Physical link bandwidth : %.1f Gbps\n",
              static_cast<double>(cfg.fabric.link.bandwidth_bps) / 1e9);
  std::printf("  VLs per physical link   : %d\n", cfg.fabric.link.num_vls);
  std::printf("  MTU                     : %zu bytes\n", cfg.fabric.mtu_bytes);
  std::printf("  Topology                : %s\n\n",
              cfg.fabric.topology
                  .describe(cfg.fabric.mesh_width, cfg.fabric.mesh_height)
                  .c_str());
  std::printf("filter=%s attackers=%d duty=%.2f load=%.2f auth=%s alg=%s\n\n",
              fabric::to_string(cfg.fabric.filter_mode), cfg.num_attackers,
              cfg.attack_probability, cfg.best_effort_load,
              cfg.key_management == workload::KeyManagement::kNone
                  ? "off"
                  : (cfg.key_management ==
                             workload::KeyManagement::kPartitionLevel
                         ? "partition"
                         : "qp"),
              std::string(crypto::to_string(cfg.auth_alg)).c_str());
  if (cfg.fabric.fault_campaign.enabled()) {
    std::printf("faults: %s\n", cfg.fabric.fault_campaign.describe().c_str());
  }
  if (cfg.attack.enabled()) {
    std::printf("%s (trap validation %s, rc validation %s)\n",
                cfg.attack.describe().c_str(),
                cfg.sm_trap_validation ? "on" : "off",
                cfg.rc.validate_control ? "on" : "off");
  }
  if (cfg.workload.enabled()) {
    std::printf("workload: %s\n", cfg.workload.to_string().c_str());
  }
  if (cfg.enable_rc_messages) {
    std::printf("rc: load=%.2f timeout=%lld us retries=%d window=%zu\n",
                cfg.rc_load,
                static_cast<long long>(cfg.rc.retransmit_timeout /
                                       time_literals::kMicrosecond),
                cfg.rc.max_retries, cfg.rc.max_outstanding);
  }

  // Sampling keyed off the scenario seed: same seed, same traced subset.
  cfg.trace.sample_seed = cfg.seed;

  workload::Scenario scenario(cfg);
  const auto r = scenario.run();
  if (!metrics_path.empty()) {
    // A ".json" suffix selects JSON, anything else name,value CSV.
    const bool json = metrics_path.ends_with(".json");
    if (write_text_file(metrics_path,
                        json ? r.obs.to_json() : r.obs.to_csv())) {
      std::printf("metrics: wrote %zu values to %s\n", r.obs.values.size(),
                  metrics_path.c_str());
    } else {
      std::fprintf(stderr, "metrics: failed to write %s\n",
                   metrics_path.c_str());
    }
  }
  const auto write_out = [](const char* what, const std::string& path,
                            const std::string& body) {
    if (path.empty()) return;
    if (write_text_file(path, body)) {
      std::printf("%s: wrote %zu bytes to %s\n", what, body.size(),
                  path.c_str());
    } else {
      std::fprintf(stderr, "%s: failed to write %s\n", what, path.c_str());
    }
  };
  write_out("trace", chrome_trace_path, r.trace_json);
  write_out("breakdown", breakdown_path, r.trace_breakdown_csv);
  write_out("timeseries", timeseries_path, r.timeseries_csv);
  write_out("audit", audit_path, r.audit_jsonl);

  const auto print_class = [](const char* name,
                              const workload::ClassMetrics& m) {
    if (m.queuing_us.count() == 0) return;
    std::printf("%-12s n=%-8llu queue %8.2f us (sd %7.2f)  net %7.2f us  "
                "total p50 %7.2f  p99 %8.2f\n",
                name, static_cast<unsigned long long>(m.queuing_us.count()),
                m.queuing_us.mean(), m.queuing_us.stddev(),
                m.latency_us.mean(), m.total_p50(), m.total_p99());
  };
  print_class("realtime", r.realtime);
  print_class("best-effort", r.best_effort);

  std::printf("\nattack packets    %llu\n",
              static_cast<unsigned long long>(r.attack_packets));
  std::printf("switch drops      %llu (lookups %llu, table mem %zu B)\n",
              static_cast<unsigned long long>(r.switch_filter_drops),
              static_cast<unsigned long long>(r.switch_filter_lookups),
              r.switch_table_memory);
  std::printf("HCA violations    %llu (traps %llu, SIF installs %llu)\n",
              static_cast<unsigned long long>(r.hca_pkey_violations),
              static_cast<unsigned long long>(r.sm_traps_received),
              static_cast<unsigned long long>(r.sif_installs));
  std::printf("delivered         %llu (auth rejected %llu)\n",
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.auth_rejected));
  if (auto* coll = scenario.collective()) {
    std::printf("collective        posted %llu  delivered %zu  "
                "mismatches %llu (ranks %d)\n",
                static_cast<unsigned long long>(coll->posted()),
                coll->delivered().size(),
                static_cast<unsigned long long>(coll->payload_mismatches()),
                coll->ranks());
  }
  if (cfg.fabric.fault_campaign.enabled() || cfg.enable_rc_messages) {
    const auto sum = [&r](const char* pattern) {
      return static_cast<unsigned long long>(r.obs.sum_matching(pattern));
    };
    std::printf("link fault drops  %llu (flap %llu, corrupted %llu)\n",
                sum("link.*.faults.dropped"), sum("link.*.faults.flap_dropped"),
                sum("link.*.faults.corrupted"));
    std::printf("rc retransmits    %llu (acks %llu, naks %llu, "
                "retry exhausted %llu)\n",
                sum("ca.*.rc.retransmits"), sum("ca.*.rc.acks"),
                sum("ca.*.rc.naks"), sum("ca.*.rc.retry_exhausted"));
  }
  if (cfg.attack.enabled()) {
    const auto sum = [&r](const std::string& pattern) {
      return static_cast<unsigned long long>(r.obs.sum_matching(pattern));
    };
    std::printf("\nattack campaigns  attempts %llu  successes %llu\n",
                static_cast<unsigned long long>(r.attack_attempts),
                static_cast<unsigned long long>(r.attack_successes));
    for (const auto kind :
         {workload::AttackKind::kScan, workload::AttackKind::kTrapForge,
          workload::AttackKind::kRcSpoof, workload::AttackKind::kReplay,
          workload::AttackKind::kSideChannel}) {
      const std::string name = workload::to_string(kind);
      const auto attempts = sum("attacker." + name + ".attempts");
      if (attempts == 0) continue;
      std::printf("  %-13s attempts %-8llu successes %llu\n", name.c_str(),
                  attempts, sum("attacker." + name + ".success"));
    }
    std::printf("  defenses      qkey drops %llu  traps rejected %llu  "
                "poisoned installs %llu\n",
                static_cast<unsigned long long>(r.qkey_drops),
                static_cast<unsigned long long>(scenario.sm().traps_rejected()),
                static_cast<unsigned long long>(
                    scenario.sm().poisoned_installs()));
    std::printf("  rc            spoofed control accepted %llu  "
                "bad control %llu  auth replays %llu\n",
                sum("ca.*.rc.spoofed_control_accepted"),
                sum("ca.*.retired.rc_bad_control"), sum("auth.fail.replay"));
  }
  std::printf("max link util     %.1f%%\n",
              100.0 * scenario.fabric().max_link_utilization());
  return 0;
}
