// Per-packet lifecycle tracing: typed span/instant events keyed by a
// per-packet trace id, with deterministic seed-derived sampling and a
// bounded ring-buffer "flight recorder" mode.
//
// Every sim::Simulator owns one TraceRecorder (next to its obs::Registry —
// no globals, so parallel sweep workers never share trace state).
// Components record through it only when `enabled()` returns true; the
// disabled path is a single inlined bool load, so tracing is zero-cost for
// ordinary runs. Packet identity is assigned once, at packet construction
// (`new_packet`), and rides in `ib::PacketMeta::trace_id`; copies made for
// RC retransmission keep the id, which is how a retransmitted packet's
// extra wire trips attach to the original lifecycle.
//
// Sampling is a deterministic function of (sample_seed, packet serial):
// with sample_every == 1 every packet is traced; with N > 1 a splitmix64
// hash selects ~1-in-N packets, so which packets are traced depends only on
// the configuration, never on wall clock or scheduling. Exports are
// byte-identical for identical (topology, seed) runs — the property
// tests/test_determinism.cpp pins alongside the metrics snapshots.
//
// Storage is bounded either way: the default mode keeps the *first*
// `capacity` events (drop-newest, counted), the flight-recorder mode keeps
// the *last* `capacity` events in a ring (evict-oldest, counted). The
// flight recorder can additionally register itself with the IBSEC_CHECK
// failure path (dump_on_check_failure) so a fatal contract violation dumps
// the tail of the event stream to stderr before aborting. Install the dump
// from at most one live recorder at a time — the hook is process-global.
//
// Exports read the stored events in place through an EventView — the
// ring's two contiguous runs, oldest first — and never copy a TraceEvent:
//   to_chrome_json()  — Chrome trace_event JSON ("X" complete spans + "i"
//                       instants, ts/dur in microseconds), loadable in
//                       Perfetto / chrome://tracing. One track per packet
//                       (tid = trace id). Orders the events through a
//                       permutation — (start, uint32 record index) keys,
//                       radix-sorted — never by moving the events, and
//                       writes into a pre-reserved string.
//   compute_breakdown()/breakdown_csv() — the derived per-packet latency
//                       decomposition (queuing / crypto / retransmit /
//                       wire), components summing exactly to the
//                       end-to-end latency. Groups each packet's events by
//                       sorting (trace id, record index) pairs, so memory
//                       is O(events) however sparse sampling leaves the
//                       ids, with no per-packet node or vector.
// Integers format through obs/format.h (std::to_chars), never through
// double or locale-dependent formatting.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/time.h"

namespace ibsec::obs {

/// The event taxonomy. Packet-scoped events carry the packet's trace id;
/// `node` is the recording component (CA/HCA node or switch id, -1 for
/// links, which identify themselves via `detail`).
enum class TraceEventType : std::uint8_t {
  kCreate = 0,     ///< instant: packet built (a0 = dst node, a1 = class)
  kInject,         ///< instant: first byte on the wire (source HCA port)
  kQueueWait,      ///< span: enqueue -> VL-arbitration grant on a port
  kSerialize,      ///< span: byte serialization on one link
  kSwitch,         ///< span: switch pipeline crossing (+filter lookup)
  kSwitchDrop,     ///< instant: switch discarded the packet (detail = cause)
  kLinkFault,      ///< instant: injected link fault (drop/corrupt/flap)
  kMacSign,        ///< span: sender MAC stage (dur = modeled overhead)
  kMacVerify,      ///< instant: receiver auth verdict (detail)
  kRcRetransmit,   ///< instant: go-back-N resend of this packet
  kRcAck,          ///< instant: ACK/NAK control packet processed
  kRcComplete,     ///< instant: request left the RC send window
  kDeliver,        ///< instant: delivered to the destination QP/memory
  kRetire,         ///< instant: terminal non-delivery at the CA (detail)
};

const char* to_string(TraceEventType type);
/// Chrome trace category: "packet", "link", "switch", "crypto" or "rc".
const char* category_of(TraceEventType type);

/// Trace-id value meaning "considered for sampling and skipped". Distinct
/// from 0 ("never considered") so a packet gets exactly one sampling draw:
/// the HCA assigns ids only to id-0 packets, and instant()/span() ignore
/// both values.
inline constexpr std::uint64_t kTraceNotSampled = ~0ULL;

struct TraceEvent {
  std::uint64_t packet_id = 0;
  TraceEventType type = TraceEventType::kCreate;
  std::int32_t node = -1;
  SimTime start = 0;
  SimTime duration = 0;  ///< 0 for instants
  std::int64_t a0 = 0;   ///< type-specific (kCreate: dst node)
  std::int64_t a1 = 0;   ///< type-specific (kCreate: traffic class)
  std::string detail;    ///< port name, drop cause, verdict, ...
};

/// Stored events in record order, read in place: a flight-recorder ring
/// unrolls into two contiguous runs, oldest first. Converts implicitly from
/// a vector (one run), which must outlive the view.
class EventView {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): vectors convert on purpose.
  EventView(const std::vector<TraceEvent>& events) : older_(events) {}
  EventView(std::span<const TraceEvent> older,
            std::span<const TraceEvent> newer)
      : older_(older), newer_(newer) {}

  std::size_t size() const { return older_.size() + newer_.size(); }
  const TraceEvent& operator[](std::size_t i) const {
    return i < older_.size() ? older_[i] : newer_[i - older_.size()];
  }

 private:
  std::span<const TraceEvent> older_;
  std::span<const TraceEvent> newer_;
};

struct TraceConfig {
  bool enabled = false;
  /// 1 traces every packet; N > 1 selects ~1-in-N by seed-derived hash.
  std::uint64_t sample_every = 1;
  /// Mixed into the per-packet sampling hash; different seeds trace
  /// different (deterministic) packet subsets.
  std::uint64_t sample_seed = 0;
  /// Bound on stored events (drop-newest, or evict-oldest in ring mode).
  std::size_t capacity = 1u << 19;
  /// Keep the newest events instead of the oldest (post-mortem tail).
  bool flight_recorder = false;
  /// Register the flight-recorder tail dump with the IBSEC_CHECK failure
  /// path. Process-global hook: enable on at most one recorder at a time.
  bool dump_on_check_failure = false;
};

class TraceRecorder {
 public:
  TraceRecorder() = default;
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Apply a configuration. Call before the simulation starts (existing
  /// events are kept; sampling state is not reset).
  void configure(const TraceConfig& config);
  const TraceConfig& config() const { return config_; }

  /// The hot-path guard: every instrumentation site checks this first.
  bool enabled() const { return config_.enabled; }

  /// Assigns the next packet identity and records kCreate when the packet
  /// is sampled. Returns 0 when disabled, kTraceNotSampled when the
  /// sampling hash skips this packet.
  std::uint64_t new_packet(int src_node, int dst_node, int traffic_class,
                           SimTime now);

  /// Records an instant event for `packet_id` (no-op when id == 0).
  void instant(std::uint64_t packet_id, TraceEventType type, int node,
               SimTime at, std::string detail = {}, std::int64_t a0 = 0,
               std::int64_t a1 = 0);
  /// Records a complete span [start, start + duration).
  void span(std::uint64_t packet_id, TraceEventType type, int node,
            SimTime start, SimTime duration, std::string detail = {});

  // --- introspection ----------------------------------------------------------
  std::uint64_t packets_seen() const { return serial_; }
  std::uint64_t packets_sampled() const { return sampled_; }
  std::uint64_t events_recorded() const { return recorded_; }
  /// Events discarded past the cap (default mode).
  std::uint64_t events_dropped() const { return dropped_; }
  /// Events overwritten by newer ones (flight-recorder mode).
  std::uint64_t events_evicted() const { return evicted_; }
  std::uint64_t dump_count() const { return dumps_; }

  /// Stored events in record order (ring unrolled oldest-first), in place.
  EventView view() const;
  /// A copy of view(), for callers that keep events past the recorder.
  std::vector<TraceEvent> events() const;

  /// Chrome trace_event JSON — byte-deterministic: events sort by start
  /// time (record order breaking ties), timestamps format from integer
  /// picoseconds, never through double formatting.
  std::string to_chrome_json() const;

  /// Human-readable tail (the last `last_n` events), newest last. This is
  /// what the check-failure hook prints to stderr.
  void dump(std::ostream& out, std::size_t last_n) const;

 private:
  void record(TraceEvent&& event);
  bool sampled(std::uint64_t serial) const;
  void install_check_dump(bool install);
  static void check_dump_trampoline(void* self);

  TraceConfig config_;
  std::vector<TraceEvent> events_;
  std::size_t ring_head_ = 0;  // next overwrite slot in flight-recorder mode
  std::uint64_t serial_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t evicted_ = 0;
  mutable std::uint64_t dumps_ = 0;
  bool dump_installed_ = false;
};

/// The per-packet latency decomposition derived from trace events. The four
/// components partition the end-to-end latency exactly:
///   total = queuing + crypto + retransmit + wire
/// with
///   crypto     = the sender MAC stage that elapsed before injection
///   queuing    = source-HCA wait (create -> first injection) minus crypto
///   retransmit = first injection -> last injection at/before delivery
///                (0 when the packet never retransmitted)
///   wire       = last injection -> delivery (serialization, switch
///                pipelines, propagation, downstream queueing)
/// `serialize_ps` / `switch_ps` further attribute the wire component;
/// `hops` counts serialization spans (wire trips, retransmits included).
struct PacketBreakdown {
  std::uint64_t packet_id = 0;
  int src_node = -1;
  int dst_node = -1;
  int traffic_class = 0;
  SimTime created_ps = 0;
  SimTime delivered_ps = 0;
  SimTime total_ps = 0;
  SimTime queuing_ps = 0;
  SimTime crypto_ps = 0;
  SimTime retransmit_ps = 0;
  SimTime wire_ps = 0;
  SimTime serialize_ps = 0;
  SimTime switch_ps = 0;
  int hops = 0;
  int retransmits = 0;
};

/// One entry per packet with both kCreate and kDeliver events, sorted by
/// trace id. Packets whose lifecycle is incomplete (dropped, in flight, or
/// partially evicted from a flight recorder) are skipped. A vector of
/// events converts to the view.
std::vector<PacketBreakdown> compute_breakdown(EventView events);

/// CSV report (header + one row per delivered packet), byte-deterministic.
std::string breakdown_csv(EventView events);

}  // namespace ibsec::obs
