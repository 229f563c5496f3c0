#include "spans.h"

#include <bit>
#include <cstdio>

namespace ledger {

using ibsec::fabric::Device;
using ibsec::fabric::Fabric;
using ibsec::fabric::TopologyBlueprint;

const char* span_name(Span span) {
  switch (span) {
    case Span::kSetup: return "workload.setup";
    case Span::kRun: return "workload.run";
    case Span::kSwitchIngress: return "fabric.switch.ingress";
    case Span::kCaReceive: return "transport.ca.receive";
    case Span::kAuthSign: return "security.auth.sign";
    case Span::kAuthVerify: return "security.auth.verify";
    case Span::kCount: break;
  }
  return "?";
}

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {
  stack_.reserve(16);
  kept_.reserve(kKeep);
}

int SpanRecorder::bucket_of(std::uint64_t ns) {
  if (ns < 32) return static_cast<int>(ns);
  const int e = std::bit_width(ns) - 1;  // e >= 5
  return 32 + (e - 5) * 16 + static_cast<int>((ns >> (e - 4)) & 15);
}

std::pair<double, double> SpanRecorder::bucket_range(int bucket) {
  if (bucket < 32) return {static_cast<double>(bucket), 1.0};
  const int e = (bucket - 32) / 16 + 5;
  const double sub = (bucket - 32) % 16;
  const double width = static_cast<double>(std::int64_t{1} << (e - 4));
  return {static_cast<double>(std::int64_t{1} << e) + sub * width, width};
}

void SpanRecorder::end() {
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = now_ns() - open.start;
  if (!stack_.empty()) stack_.back().child_ns += dur;

  Agg& agg = agg_[static_cast<std::size_t>(open.span)];
  ++agg.calls;
  agg.total_ns += dur;
  agg.self_ns += dur - open.child_ns;
  ++agg.hist[static_cast<std::size_t>(
      bucket_of(static_cast<std::uint64_t>(dur > 0 ? dur : 0)))];
  if (kept_.size() < kKeep) {
    kept_.push_back({open.span, static_cast<std::uint32_t>(stack_.size()),
                     open.start, dur});
  }
}

SpanRecorder::Stats SpanRecorder::stats(Span span) const {
  const Agg& agg = agg_[static_cast<std::size_t>(span)];
  Stats s;
  s.calls = agg.calls;
  s.total_ns = agg.total_ns;
  s.self_ns = agg.self_ns;
  // Linear interpolation inside the bucket holding the rank.
  const auto percentile = [&agg](double q) -> double {
    if (agg.calls == 0) return 0;
    const double rank = q * static_cast<double>(agg.calls);
    double seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const double in_bucket = static_cast<double>(agg.hist[static_cast<std::size_t>(b)]);
      if (seen + in_bucket >= rank && in_bucket > 0) {
        const auto [low, width] = bucket_range(b);
        return low + width * (rank - seen) / in_bucket;
      }
      seen += in_bucket;
    }
    return 0;
  };
  s.p50_ns = percentile(0.50);
  s.p99_ns = percentile(0.99);
  return s;
}

std::string SpanRecorder::chrome_json() const {
  std::string out = "{\"traceEvents\":[\n";
  char line[160];
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%u}}",
                  i == 0 ? "" : ",\n", span_name(k.span),
                  static_cast<double>(k.start) / 1e3,
                  static_cast<double>(k.dur) / 1e3, k.depth);
    out += line;
  }
  out += "\n]}\n";
  return out;
}

// --- proxies -----------------------------------------------------------------

class Instrumentation::TimedDevice final : public Device {
 public:
  TimedDevice(Device& inner, SpanRecorder& rec, Span span)
      : inner_(inner), rec_(rec), span_(span) {}

  void packet_arrived(ibsec::ib::Packet&& pkt, int in_port) override {
    SpanRecorder::Scope scope(rec_, span_);
    inner_.packet_arrived(std::move(pkt), in_port);
  }
  std::string name() const override { return inner_.name(); }

 private:
  Device& inner_;
  SpanRecorder& rec_;
  Span span_;
};

class Instrumentation::TimedAuthenticator final
    : public ibsec::transport::PacketAuthenticator {
 public:
  TimedAuthenticator(ibsec::transport::PacketAuthenticator& inner,
                     SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  bool sign(ibsec::ib::Packet& pkt) override {
    SpanRecorder::Scope scope(rec_, Span::kAuthSign);
    return inner_.sign(pkt);
  }
  ibsec::transport::AuthVerdict verify(const ibsec::ib::Packet& pkt) override {
    SpanRecorder::Scope scope(rec_, Span::kAuthVerify);
    return inner_.verify(pkt);
  }

 private:
  ibsec::transport::PacketAuthenticator& inner_;
  SpanRecorder& rec_;
};

Instrumentation::Instrumentation(ibsec::workload::Scenario& scenario,
                                 SpanRecorder& rec) {
  Fabric& fabric = scenario.fabric();
  const TopologyBlueprint& bp = fabric.blueprint();

  std::vector<Device*> sw_proxy;
  for (int s = 0; s < fabric.switch_count(); ++s) {
    devices_.push_back(std::make_unique<TimedDevice>(
        fabric.switch_at(s), rec, Span::kSwitchIngress));
    sw_proxy.push_back(devices_.back().get());
  }
  // The same cables Fabric::build connects: HCA <-> ingress switch, then
  // switch <-> switch in blueprint order.
  for (int n = 0; n < fabric.node_count(); ++n) {
    const TopologyBlueprint::Attach& at =
        bp.attach[static_cast<std::size_t>(n)];
    devices_.push_back(
        std::make_unique<TimedDevice>(fabric.hca(n), rec, Span::kCaReceive));
    fabric.hca(n).out().connect(sw_proxy[static_cast<std::size_t>(at.switch_id)],
                                at.port);
    fabric.switch_at(at.switch_id).out(at.port).connect(devices_.back().get(), 0);
  }
  for (const TopologyBlueprint::Link& link : bp.links) {
    fabric.switch_at(link.a).out(link.port_a).connect(
        sw_proxy[static_cast<std::size_t>(link.b)], link.port_b);
    fabric.switch_at(link.b).out(link.port_b).connect(
        sw_proxy[static_cast<std::size_t>(link.a)], link.port_a);
  }

  for (int n = 0; n < fabric.node_count(); ++n) {
    ibsec::security::AuthEngine* engine = scenario.auth_engine(n);
    if (engine == nullptr) continue;
    auths_.push_back(std::make_unique<TimedAuthenticator>(*engine, rec));
    scenario.ca(n).set_authenticator(auths_.back().get());
  }
}

Instrumentation::~Instrumentation() = default;

}  // namespace ledger
