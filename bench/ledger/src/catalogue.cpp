#include "catalogue.h"

#include <cstdio>

#include "stages.h"
#include "workloads.h"

namespace ledger {

namespace {

Metric e2e(const char* name, const char* unit, bool in_file = true) {
  return {name, unit, "end_to_end", true, in_file, ""};
}

Metric layer(const char* name, const char* unit, const char* layer_name,
             const char* moves, bool lower = true, bool in_file = true) {
  return {name, unit, layer_name, lower, in_file, moves};
}

std::vector<Metric> build() {
  std::vector<Metric> m = {
      // End to end, measured with tracing off; --calibrate sets the bounds.
      e2e("setup_s", "s"),
      e2e("run_s", "s"),
      e2e("peak_rss_mb", "MB"),
      e2e("setup_allocs", "count"),
      e2e("run_allocs", "count"),
      e2e("error_rate", "ratio", false),

      layer("sim.events", "count", "sim", "run_s on mesh_dos"),
      layer("sim.events_per_s", "1/s", "sim", "run_s on mesh_dos", false),
      layer("sim.event_ns", "ns", "sim", "run_s on mesh_dos"),

      layer("ib.vcrc_ns", "ns", "ib", "run_s on mesh_dos and fattree_mpi"),
      layer("fabric.vl_arbiter.pick_ns", "ns", "fabric",
            "run_s on mesh_dos and fattree_mpi"),
      layer("fabric.switch.hop_ns", "ns", "fabric",
            "run_s on mesh_dos and fattree_mpi"),
      layer("fabric.switch.ingress.calls", "count", "fabric",
            "run_s on mesh_dos and fattree_mpi"),
      layer("fabric.switch.ingress.p50_ns", "ns", "fabric",
            "run_s on mesh_dos and fattree_mpi"),
      layer("fabric.switch.ingress.p99_ns", "ns", "fabric",
            "run_s on mesh_dos and fattree_mpi"),
      layer("fabric.switch.ingress.self_share", "share", "fabric",
            "run_s on mesh_dos and fattree_mpi"),
      layer("fabric.link.packets", "count", "fabric",
            "run_s on mesh_dos and fattree_mpi"),
      // Simulated times are exact per seed and may read the same on every
      // run, so they stay out of the benchmark file.
      layer("fabric.link.credit_stall_us", "sim_us", "fabric",
            "run_s on mesh_dos and fattree_mpi", true, false),
      layer("fabric.switch.forwarded", "count", "fabric",
            "run_s on mesh_dos and fattree_mpi"),
      layer("fabric.switch.drops", "count", "fabric",
            "run_s on mesh_dos and fattree_mpi"),

      layer("fabric.filter.check_ns", "ns", "filter",
            "run_s on tenant2048 and fattree_mpi, never mesh_dos"),
      layer("fabric.filter.lookups", "count", "filter",
            "run_s on tenant2048 and fattree_mpi, never mesh_dos"),

      layer("crypto.tag32_ns", "ns", "crypto", "run_s on tenant2048"),
      layer("security.auth.sign_ns", "ns", "security", "run_s on tenant2048"),
      layer("security.auth.verify_ns", "ns", "security", "run_s on tenant2048"),
      layer("security.auth.sign.calls", "count", "security",
            "run_s on tenant2048"),
      layer("security.auth.sign.self_share", "share", "security",
            "run_s on tenant2048"),
      // Span percentiles read 0 on workloads without authentication, so
      // they stay in the ledger's own report only.
      layer("security.auth.sign.p50_ns", "ns", "security",
            "run_s on tenant2048", true, false),
      layer("security.auth.sign.p99_ns", "ns", "security",
            "run_s on tenant2048", true, false),
      layer("security.auth.verify.calls", "count", "security",
            "run_s on tenant2048"),
      layer("security.auth.verify.self_share", "share", "security",
            "run_s on tenant2048"),
      layer("security.auth.verify.p50_ns", "ns", "security",
            "run_s on tenant2048", true, false),
      layer("security.auth.verify.p99_ns", "ns", "security",
            "run_s on tenant2048", true, false),
      layer("security.auth.rejected", "count", "security",
            "run_s on tenant2048"),

      layer("transport.ud.post_ns", "ns", "transport",
            "run_s on every workload"),
      layer("transport.ud.post_allocs", "count", "transport",
            "run_allocs on every workload, most on fattree_mpi"),
      layer("transport.rc.msg_us", "us", "transport",
            "run_s and peak_rss_mb on fattree_mpi"),
      layer("transport.rc.acks", "count", "transport",
            "run_s and peak_rss_mb on fattree_mpi"),
      layer("transport.rc.retransmits", "count", "transport",
            "run_s and peak_rss_mb on fattree_mpi"),
      layer("transport.delivered_ratio", "ratio", "transport",
            "run_s and peak_rss_mb on fattree_mpi", false),
      layer("transport.ca.receive.calls", "count", "transport",
            "run_s on every workload"),
      layer("transport.ca.receive.p50_ns", "ns", "transport",
            "run_s on every workload"),
      layer("transport.ca.receive.p99_ns", "ns", "transport",
            "run_s on every workload"),
      layer("transport.ca.receive.self_share", "share", "transport",
            "run_s on every workload"),

      layer("obs.trace.span_ns", "ns", "obs",
            "run_s on campaign_obs; the off cost must not move mesh_dos"),
      layer("obs.audit.emit_ns", "ns", "obs",
            "run_s on campaign_obs; the off cost must not move mesh_dos"),
      layer("obs.timeseries.sample_us", "us", "obs", "run_s on campaign_obs"),
      layer("obs.export_ms", "ms", "obs", "run_s on campaign_obs"),
      layer("obs.trace.events", "count", "obs",
            "run_s, run_allocs and peak_rss_mb on campaign_obs"),
      layer("obs.trace.dropped", "count", "obs",
            "run_s, run_allocs and peak_rss_mb on campaign_obs"),
      layer("obs.audit.events", "count", "obs",
            "run_s, run_allocs and peak_rss_mb on campaign_obs"),
      layer("obs.timeseries.samples", "count", "obs",
            "run_s, run_allocs and peak_rss_mb on campaign_obs"),
      layer("obs.registry.metrics", "count", "obs",
            "run_s, run_allocs and peak_rss_mb on campaign_obs"),
      layer("obs.export_bytes", "bytes", "obs",
            "run_s, run_allocs and peak_rss_mb on campaign_obs"),

      layer("crypto.rsa_identity_us", "us", "setup",
            "setup_s on fattree_mpi and tenant2048"),
      layer("crypto.rsa_identity_allocs", "count", "setup",
            "setup_allocs on fattree_mpi and tenant2048"),
      layer("workload.build_s", "s", "setup",
            "setup_s on fattree_mpi and tenant2048"),
      layer("workload.drain_s", "s", "setup", "setup_s on tenant2048"),
      layer("workload.drain_sim_us", "sim_us", "setup", "setup_s on tenant2048",
            true, false),
      layer("workload.drain_events", "count", "setup", "setup_s on tenant2048"),

      layer("trace.overhead_share", "share", "trace",
            "nothing: the cost of the traced run's own spans"),
      layer("run.unattributed_share", "share", "trace",
            "run_s wherever no stage bench covers the work"),
  };
  // One share per ranked stage: ns/call x registry calls / run_s.
  for (const char* stage : kStageNames) {
    m.push_back({std::string(stage) + ".share", "share", "stage", true, true,
                 "run_s on the workloads that call the stage"});
  }
  return m;
}

}  // namespace

const std::vector<Metric>& metric_catalogue() {
  static const std::vector<Metric> catalogue = build();
  return catalogue;
}

const Metric* find_metric(const std::string& name) {
  for (const Metric& m : metric_catalogue()) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string benchmark_json(const std::map<std::string, double>& bounds) {
  std::string out = "{\n";
  out += "  \"command\": [\"python3\", \"bench/ledger/run.py\"],\n";
  out += "  \"paths\": [\"bench/ledger\"],\n";
  out += "  \"run_seconds\": " + std::to_string(kRunSeconds) + ",\n";
  out += "  \"workloads\": [\n";
  const auto& names = workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    out += "    {\"name\": " + json_string(names[i]) +
           ", \"why\": " + json_string(std::string(workload_why(names[i]))) +
           "}" + (i + 1 < names.size() ? ",\n" : "\n");
  }
  out += "  ],\n";

  std::vector<std::string> e2e_rows;
  std::vector<std::string> layer_rows;
  char bound[32];
  for (const Metric& m : metric_catalogue()) {
    if (!m.in_benchmark_file) continue;
    const std::string head = "    {\"name\": " + json_string(m.name) +
                             ", \"unit\": " + json_string(m.unit) +
                             ", \"better\": \"" +
                             (m.lower_is_better ? "lower" : "higher") + "\"";
    if (m.layer == "end_to_end") {
      std::snprintf(bound, sizeof bound, "%.2f", bounds.at(m.name));
      e2e_rows.push_back(head + ", \"bound\": " + bound + "}");
    } else {
      layer_rows.push_back(head + "}");
    }
  }
  const auto join = [](const std::vector<std::string>& rows) {
    std::string s;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      s += rows[i] + (i + 1 < rows.size() ? ",\n" : "\n");
    }
    return s;
  };
  out += "  \"end_to_end\": [\n" + join(e2e_rows) + "  ],\n";
  out += "  \"per_layer\": [\n" + join(layer_rows) + "  ]\n";
  out += "}\n";
  return out;
}

}  // namespace ledger
