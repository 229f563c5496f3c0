// Host-time spans for the traced run, recorded from ledger code around
// calls into the simulator's public API — nothing inside src/ is touched.
//
// Spans nest (an auth verify runs inside a CA receive), so each one's self
// time is its duration minus the time its child spans cover. Every span is
// aggregated per name on the fly (calls, total, self, a log-bucketed
// histogram for p50/p99); only the first kKeep are stored verbatim for the
// Chrome trace export.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workload/scenario.h"

namespace ledger {

enum class Span : std::uint8_t {
  kSetup = 0,     ///< workload.setup: Scenario construction + bring-up drain
  kRun,           ///< workload.run: Scenario::run()
  kSwitchIngress, ///< fabric.switch.ingress: Switch::packet_arrived
  kCaReceive,     ///< transport.ca.receive: Hca::packet_arrived -> CA
  kAuthSign,      ///< security.auth.sign: PacketAuthenticator::sign
  kAuthVerify,    ///< security.auth.verify: PacketAuthenticator::verify
  kCount,
};

const char* span_name(Span span);

class SpanRecorder {
 public:
  static constexpr std::size_t kKeep = 200'000;

  struct Stats {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    double p50_ns = 0;
    double p99_ns = 0;
  };

  SpanRecorder();

  void begin(Span span) { stack_.push_back({span, now_ns(), 0}); }
  void end();

  /// RAII span around one call.
  class Scope {
   public:
    Scope(SpanRecorder& rec, Span span) : rec_(rec) { rec_.begin(span); }
    ~Scope() { rec_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
  };

  Stats stats(Span span) const;
  /// Chrome trace_event JSON of the stored spans (ts/dur in microseconds).
  std::string chrome_json() const;

 private:
  // Log-linear buckets: exact below 32 ns, then 16 per power of two (~6%).
  static constexpr int kBuckets = 1024;
  static int bucket_of(std::uint64_t ns);
  /// Lower edge and width of a bucket, in ns.
  static std::pair<double, double> bucket_range(int bucket);

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  struct Open {
    Span span;
    std::int64_t start;
    std::int64_t child_ns;
  };
  struct Kept {
    Span span;
    std::uint32_t depth;
    std::int64_t start;
    std::int64_t dur;
  };
  struct Agg {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::array<std::uint64_t, kBuckets> hist{};
  };

  std::chrono::steady_clock::time_point origin_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::array<Agg, static_cast<std::size_t>(Span::kCount)> agg_{};
};

/// Re-wires a built Scenario so every switch and HCA input, and every CA's
/// authenticator, runs through a timing proxy. The wiring is read back from
/// Fabric::blueprint() exactly as Fabric::build laid it out; the proxies
/// only forward, so the simulation (and its export digest) is unchanged.
class Instrumentation {
 public:
  Instrumentation(ibsec::workload::Scenario& scenario, SpanRecorder& rec);
  ~Instrumentation();
  Instrumentation(const Instrumentation&) = delete;
  Instrumentation& operator=(const Instrumentation&) = delete;

 private:
  class TimedDevice;
  class TimedAuthenticator;
  std::vector<std::unique_ptr<TimedDevice>> devices_;
  std::vector<std::unique_ptr<TimedAuthenticator>> auths_;
};

}  // namespace ledger
