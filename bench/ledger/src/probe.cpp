#include "probe.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>

#include "common/alloc_probe.h"
#include "common/hex.h"
#include "crypto/sha256.h"
#include "spans.h"
#include "stages.h"

namespace ledger {

using ibsec::alloc_count;
using ibsec::obs::Snapshot;
using ibsec::workload::Scenario;
using ibsec::workload::ScenarioResult;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void put(const char* key, double value) {
  std::printf("%s %.17g\n", key, value);
}
void put(const std::string& key, double value) { put(key.c_str(), value); }

/// SHA-256 over every export the run produced, hex-encoded. Equal digests
/// mean byte-identical simulations.
std::string export_digest(const ScenarioResult& r) {
  ibsec::crypto::Sha256 h;
  const auto feed = [&h](const std::string& part) {
    h.update({reinterpret_cast<const std::uint8_t*>(part.data()), part.size()});
    h.update({reinterpret_cast<const std::uint8_t*>("\x1e"), 1});  // separator
  };
  feed(r.obs.to_json());
  feed(r.trace_json);
  feed(r.trace_breakdown_csv);
  feed(r.timeseries_csv);
  feed(r.audit_jsonl);
  return ibsec::to_hex(h.finalize());
}

std::size_t export_bytes(const ScenarioResult& r) {
  return r.obs.to_json().size() + r.trace_json.size() +
         r.trace_breakdown_csv.size() + r.timeseries_csv.size() +
         r.audit_jsonl.size();
}

double timeseries_rows(const std::string& csv) {
  if (csv.empty()) return 0;
  double lines = 0;
  for (char c : csv) lines += c == '\n' ? 1 : 0;
  return lines - 1;  // header
}

/// The correctness checks behind error_rate. Each prints "check.<name> 0|1"
/// (1 = passed). Conservation needs the in-flight packets drained, so it
/// runs the simulator to empty — after every measurement is taken.
void run_checks(const Workload& w, Scenario& scenario, const ScenarioResult& r) {
  const Snapshot& s = r.obs;
  const auto& cfg = w.config;

  put("check.delivery", s.sum_matching("ca.*.retired.delivered") > 0);

  if (cfg.workload.enabled()) {
    put("check.collective_payload",
        s.at("collective.payload_mismatch") == 0 &&
            s.at("collective.delivered") > 0);
  }
  if (cfg.rc.enabled) {
    // The registry does not export reassembly errors; the CA counters do.
    std::uint64_t reassembly = 0;
    for (int n = 0; n < scenario.fabric().node_count(); ++n) {
      reassembly += scenario.ca(n).counters().reassembly_errors;
    }
    put("check.rc_reliability",
        reassembly == 0 && s.sum_matching("ca.*.rc.retry_exhausted") == 0 &&
            s.sum_matching("ca.*.rc.acks") > 0);
  }
  if (cfg.attack.enabled()) {
    put("check.campaigns_defended",
        s.sum_matching("attacker.*.success") == 0 &&
            s.sum_matching("attacker.*.attempts") > 0);
  }
  if (cfg.auth_enabled && !cfg.attack.enabled() && cfg.num_attackers == 0) {
    // Only honest traffic flows, so any reject is a false positive.
    put("check.honest_auth",
        s.at("auth.signed") > 0 && s.sum_matching("auth.fail.*") == 0 &&
            s.sum_matching("auth.verify_fail.*") == 0 &&
            s.sum_matching("ca.*.retired.auth_*") == 0);
  }

  // Packet conservation (tests/test_invariants.cpp): once drained, every
  // injected packet died at a switch, on a faulty link, or reached an HCA,
  // and each HCA's receives split exactly into its CA's retire causes.
  auto& sim = scenario.fabric().simulator();
  sim.run();
  const Snapshot d = sim.obs().snapshot();
  bool conserved =
      d.sum_matching("hca.*.injected") ==
      d.sum_matching("switch.*.drop.*") +
          d.sum_matching("link.*.faults.dropped") +
          d.sum_matching("link.*.faults.flap_dropped") +
          d.sum_matching("hca.*.received");
  for (int n = 0; n < scenario.fabric().node_count(); ++n) {
    const std::string id = std::to_string(n);
    conserved = conserved && d.at("hca." + id + ".received") ==
                                 d.sum_matching("ca." + id + ".retired.*");
  }
  put("check.conservation", conserved);
}

/// Simulated counts every child reports; they are identical across the
/// children of one seed (same simulation), so the parent keeps one copy.
void put_counts(Scenario& scenario, const ScenarioResult& r) {
  const Snapshot& s = r.obs;
  auto& sim = scenario.fabric().simulator();
  put("fabric.link.packets", static_cast<double>(s.sum_matching("link.*.packets")));
  put("fabric.link.credit_stall_us",
      static_cast<double>(s.sum_matching("link.*.credit_stall.total_ps")) / 1e6);
  put("fabric.switch.forwarded",
      static_cast<double>(s.sum_matching("switch.*.forwarded")));
  put("fabric.switch.drops", static_cast<double>(s.sum_matching("switch.*.drop.*")));
  put("fabric.filter.lookups",
      static_cast<double>(s.sum_matching("switch.*.filter.lookups")));
  put("security.auth.rejected",
      static_cast<double>(s.sum_matching("auth.fail.*") +
                          s.sum_matching("auth.verify_fail.*")));
  put("transport.rc.acks", static_cast<double>(s.sum_matching("ca.*.rc.acks")));
  put("transport.rc.retransmits",
      static_cast<double>(s.sum_matching("ca.*.rc.retransmits")));
  const double injected = static_cast<double>(s.sum_matching("hca.*.injected"));
  put("transport.delivered_ratio",
      injected > 0
          ? static_cast<double>(s.sum_matching("ca.*.retired.delivered")) / injected
          : 0.0);
  put("obs.trace.events", static_cast<double>(sim.trace().events_recorded()));
  put("obs.trace.dropped", static_cast<double>(sim.trace().events_dropped() +
                                               sim.trace().events_evicted()));
  put("obs.audit.events", static_cast<double>(sim.audit().events_recorded()));
  put("obs.timeseries.samples", timeseries_rows(r.timeseries_csv));
  put("obs.registry.metrics", static_cast<double>(sim.obs().size()));
  put("obs.export_bytes", static_cast<double>(export_bytes(r)));
}

}  // namespace

int run_child(const Workload& w, bool traced, bool quick,
              const std::string& spans_path) {
  // Only the traced child builds the recorder: the measured children's
  // heap and RSS hold nothing but the simulation.
  std::optional<SpanRecorder> spans;
  if (traced) spans.emplace();

  // Setup: construction, then drain bring-up (key distribution included)
  // before any source starts, so run() times traffic and nothing else.
  const std::uint64_t a0 = alloc_count();
  const auto t0 = Clock::now();
  if (spans) spans->begin(Span::kSetup);
  auto scenario = std::make_unique<Scenario>(w.config);
  const auto t1 = Clock::now();
  auto& sim = scenario->fabric().simulator();
  sim.run();
  if (spans) spans->end();
  const auto t2 = Clock::now();
  const std::uint64_t a2 = alloc_count();

  put("setup_s", seconds_between(t0, t2));
  put("workload.build_s", seconds_between(t0, t1));
  put("workload.drain_s", seconds_between(t1, t2));
  put("setup_allocs", static_cast<double>(a2 - a0));
  put("workload.drain_sim_us", ibsec::to_microseconds(sim.now()));
  put("workload.drain_events", static_cast<double>(sim.events_processed()));
  std::optional<Instrumentation> instrumentation;
  if (spans) instrumentation.emplace(*scenario, *spans);
  const std::uint64_t events0 = sim.events_processed();
  const std::uint64_t a3 = alloc_count();
  const auto t3 = Clock::now();
  if (spans) spans->begin(Span::kRun);
  const ScenarioResult result = scenario->run();
  if (spans) spans->end();
  const auto t4 = Clock::now();
  const std::uint64_t a4 = alloc_count();
  const double run_events = static_cast<double>(sim.events_processed() - events0);

  put(traced ? "traced.run_s" : "run_s", seconds_between(t3, t4));
  put("run_allocs", static_cast<double>(a4 - a3));
  put("sim.events", run_events);
  std::printf("digest %s\n", export_digest(result).c_str());
  put_counts(*scenario, result);

  if (spans) {
    const double run_ns = static_cast<double>(spans->stats(Span::kRun).total_ns);
    for (Span span : {Span::kSwitchIngress, Span::kCaReceive, Span::kAuthSign,
                      Span::kAuthVerify}) {
      const SpanRecorder::Stats st = spans->stats(span);
      const std::string base = span_name(span);
      put(base + ".calls", static_cast<double>(st.calls));
      put(base + ".p50_ns", st.p50_ns);
      put(base + ".p99_ns", st.p99_ns);
      put(base + ".self_share", static_cast<double>(st.self_ns) / run_ns);
    }
    if (!spans_path.empty()) {
      std::ofstream(spans_path) << spans->chrome_json();
    }

    RunFacts facts;
    facts.scenario = scenario.get();
    facts.snap = &result.obs;
    facts.run_events = run_events;
    facts.timeseries_samples = timeseries_rows(result.timeseries_csv);
    const StageResults stages = run_stage_benches(w, facts, quick);
    for (const StageCost& stage : stages.stages) {
      put("stage." + stage.name + ".ns", stage.ns_per_call);
      put("stage." + stage.name + ".calls", stage.calls);
    }
    for (const auto& [name, value] : stages.metrics) put(name, value);
  }

  run_checks(w, *scenario, result);
  std::fflush(stdout);
  return 0;
}

}  // namespace ledger
