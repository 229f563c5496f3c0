// RC transport reliability: two state machines per RC QP that give
// exactly-once in-order delivery over a lossy fabric (RcRequester: go-back-N
// window, timer, bounded retries; RcResponder: expected PSN, coalesced ACKs,
// one NAK per gap, reassembly). With RcConfig::enabled off both keep the
// fire-and-forget semantics: requests go straight out, gaps are counted and
// not dropped, and only `ack_req` gets a reply.
//
// ACK/NAK ride the kRcAck opcode with an AETH: syndrome 0x00 is a
// cumulative positive acknowledgement of AETH.msn, syndrome 0x60 is the
// NAK whose AETH.msn names the receiver's expected PSN.
//
// Both reach the world only through their RcContext: an RcWire that builds
// and sends packets, and the Simulator for time, timers and decisions.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/annotations.h"
#include "common/time.h"
#include "ib/packet.h"
#include "sim/simulator.h"

namespace ibsec::transport {

struct QueuePair;

// --- PSN serial arithmetic (24-bit circular space) ---------------------------
/// a < b in the 24-bit circular PSN space (window spans stay < 2^23).
constexpr bool psn_lt(ib::Psn a, ib::Psn b) {
  return a != b && (((b - a) & ib::kPsnMask) < (1u << 23));
}
constexpr bool psn_le(ib::Psn a, ib::Psn b) { return a == b || psn_lt(a, b); }

// --- AETH syndromes ----------------------------------------------------------
inline constexpr std::uint8_t kAethAck = 0x00;
inline constexpr std::uint8_t kAethNakPsnSequence = 0x60;

/// Knobs for the RC reliability protocol. Reliability is opt-in
/// (`enabled = false` preserves the seed fabric's fire-and-forget RC
/// semantics for existing workloads and tests).
struct RcConfig {
  bool enabled = false;

  /// Fail-closed ACK/NAK validation (on by default): a cumulative ACK must
  /// name a PSN that was actually sent (psn < next_psn) and a NAK must name
  /// one at or below next_psn, else the packet is dropped and counted as
  /// rc_bad_control. Disabling this is the ablation the adversarial
  /// rc-spoof campaign measures: a forged ACK with a random "future" PSN
  /// then flushes the whole send window about half the time, instead of
  /// having to land inside the live window (~window/2^24 per attempt).
  bool validate_control = true;

  /// Base transport timeout before the unacked window is retransmitted.
  /// Must exceed the fabric RTT including queuing; spurious retransmits are
  /// safe (the receiver re-ACKs duplicates) but waste bandwidth.
  SimTime retransmit_timeout = 50 * time_literals::kMicrosecond;
  /// Consecutive unacknowledged timeouts before the QP errors out.
  int max_retries = 6;
  /// Exponential backoff cap: timeout << min(retry_count, cap).
  int backoff_shift_cap = 4;

  /// Send-window depth in packets; posts beyond it queue at the sender.
  std::size_t max_outstanding = 64;

  /// Receiver: ACK after this many unacknowledged arrivals...
  int ack_coalesce = 4;
  /// ...or this long after the first of them, whichever comes first.
  SimTime ack_delay = 5 * time_literals::kMicrosecond;
};

/// Timeout for the (retry_count)-th retransmission round.
constexpr SimTime rc_backoff_timeout(const RcConfig& cfg, int retry_count) {
  const int shift = retry_count < cfg.backoff_shift_cap
                        ? retry_count
                        : cfg.backoff_shift_cap;
  return cfg.retransmit_timeout << shift;
}

/// How the RC state machines put packets on the wire: ChannelAdapter, or a
/// test fake that queues them.
class RcWire {
 public:
  /// A packet from `qp` to its bound peer with `op`, `psn`, the source QP,
  /// and message and trace identity. `created_at` < 0 stamps now.
  virtual ib::Packet to_peer(const QueuePair& qp, ib::OpCode op, ib::Psn psn,
                             ib::PacketMeta::TrafficClass tclass,
                             SimTime created_at) = 0;
  /// Signs (if an authenticator applies) or finalizes, then sends.
  virtual void sign_and_send(ib::Packet&& pkt) = 0;

 protected:
  ~RcWire() = default;
};

/// Counters under "ca.<node>.rc.": the reliability protocol's own event
/// stream (retransmits, acks/naks sent, retry exhaustions).
struct RcObs {
  obs::Counter* retransmits = nullptr;
  obs::Counter* acks = nullptr;
  obs::Counter* naks = nullptr;
  obs::Counter* retry_exhausted = nullptr;
  /// Attack-tagged RC control packets that passed validation AND cleared
  /// send-window entries they never earned — the rc-spoof campaign's
  /// success metric. Stays 0 with validate_control on unless a spoofed
  /// PSN lands inside the live window (~window/2^24 per attempt). Created
  /// on first use ("ca.<n>.rc.spoofed_control_accepted"), so attack-free
  /// runs never grow a snapshot entry.
  obs::Counter* spoofed_control_accepted = nullptr;
};

/// The "ca.<node>.retired.<cause>" counters the RC state machines retire
/// packets under (part of ChannelAdapter::RetireObs).
struct RcRetireObs {
  obs::Counter* ack = nullptr;
  obs::Counter* nak = nullptr;
  obs::Counter* rc_duplicate = nullptr;
  obs::Counter* rc_out_of_order = nullptr;
  obs::Counter* rc_bad_control = nullptr;
};

/// RC counts the registry does not export (part of ChannelAdapter::Counters).
struct RcCounts {
  /// Protocol ACKs plus the ack_req replies sent with the protocol off.
  std::uint64_t acks_sent = 0;
  /// Includes the PSN gaps counted (not dropped) with the protocol off.
  std::uint64_t rc_out_of_order = 0;
  std::uint64_t reassembly_errors = 0;
};

/// What every RC state machine of one channel adapter shares; the CA
/// fills it in and registers its counters.
struct RcContext {
  /// Records a decision on `pkt` made at this node (Simulator::record).
  IBSEC_HOT void record(obs::Decision kind, obs::Counter& counter,
                        const ib::Packet& pkt, std::int64_t a0 = 0) {
    sim.record(kind, counter, pkt, node, a0);
  }
  /// A trace instant on `pkt`'s lifecycle, when tracing is on.
  void trace(const ib::Packet& pkt, obs::TraceEventType type,
             const char* detail = "", std::int64_t a0 = 0);

  RcWire& wire;
  sim::Simulator& sim;
  int node;
  RcConfig config{};
  RcObs obs{};
  const RcRetireObs& retire;
  RcCounts& counts;
  /// Retry exhaustion: the QP is now in error (posts fail) and the PSN is
  /// that of the first request that was given up on.
  std::function<void(ib::Qpn qpn, ib::Psn oldest_unacked)> on_error{};
};

/// The sending side of one RC QP: window, pending queue, transport timer,
/// retransmission and ACK/NAK validation.
class RcRequester {
 public:
  RcRequester(RcContext& rc, QueuePair& qp) : rc_(rc), qp_(qp) {}
  RcRequester(const RcRequester&) = delete;  // its timers hold `this`

  /// Sends a request of this QP (PSN taken), or queues it behind a full
  /// window.
  IBSEC_HOT void submit(ib::Packet&& pkt);
  /// An ACK or NAK addressed to `qp` (null when no such QP exists).
  IBSEC_HOT static void on_ack(RcContext& rc, QueuePair* qp,
                               const ib::Packet& pkt);

  /// Retry budget exhausted: posts fail from now on.
  bool failed() const { return failed_; }
  /// Unacked requests keyed by PSN; entries leave on a covering
  /// cumulative ACK.
  const std::map<ib::Psn, ib::Packet>& window() const { return window_; }
  /// Posts beyond max_outstanding, transmitted as the window drains.
  const std::deque<ib::Packet>& pending() const { return pending_; }

 private:
  const RcConfig& config() const { return rc_.config; }
  IBSEC_HOT void transmit(ib::Packet&& pkt);
  IBSEC_HOT void process_ack(const ib::Packet& pkt);
  /// Returns how many window entries the cumulative (N)ACK retired — the
  /// spoof accounting needs to know whether a forged control packet
  /// actually cleared anything.
  IBSEC_HOT std::size_t ack_through(ib::Psn psn, bool inclusive);
  void note_spoof(const ib::Packet& pkt, std::size_t cleared);
  void on_progress();
  void arm_timer();
  void on_timeout(std::uint64_t generation);
  void retransmit(ib::Psn from_psn);
  void fail();

  RcContext& rc_;
  QueuePair& qp_;
  std::map<ib::Psn, ib::Packet> window_;
  std::deque<ib::Packet> pending_;
  /// Consecutive timeout rounds without progress; reset by any ACK.
  int retry_count_ = 0;
  /// Guards the (uncancellable) transport timer: events carrying an older
  /// generation fire as no-ops.
  std::uint64_t timer_generation_ = 0;
  bool failed_ = false;
};

/// The receiving side of one RC QP: expected PSN, the in-order / duplicate
/// / out-of-order verdict, ACK coalescing, one NAK per gap, and SEND
/// First/Middle/Last reassembly.
class RcResponder {
 public:
  RcResponder(RcContext& rc, QueuePair& qp) : rc_(rc), qp_(qp) {}
  RcResponder(const RcResponder&) = delete;  // its ACK timer holds `this`

  enum class Verdict : std::uint8_t {
    kDeliver,  ///< execute or deliver it
    kDrop,     ///< retired here (duplicate re-ACKed, or a gap NAKed)
  };
  /// The PSN gate. Only RC requests on a bound RC QP are sequenced.
  IBSEC_HOT Verdict admit(const ib::Packet& pkt);
  /// After the CA executed or delivered `pkt`: the protocol's coalesced
  /// cumulative ACK (forced by ack_req), else the reply to ack_req.
  void acknowledge(const ib::Packet& pkt);
  /// Feeds a SEND First/Middle/Last; returns the message a Last completes,
  /// valid until the next First (the buffer keeps its capacity).
  const std::vector<std::uint8_t>* reassemble(const ib::Packet& pkt);
  /// Every reply to the bound peer: ACK, NAK or ack_req reply.
  void reply(ib::Psn psn, ib::Aeth aeth);

 private:
  void schedule_ack(bool force);
  void send_ack();

  RcContext& rc_;
  QueuePair& qp_;
  ib::Psn expected_psn_ = 0;
  /// In-order arrivals since the last ACK went out.
  int unacked_ = 0;
  /// A coalescing ack_delay event is pending.
  bool ack_scheduled_ = false;
  /// One NAK per gap: set when a sequence-error NAK goes out, cleared when
  /// expected_psn next advances.
  bool nak_armed_ = false;
  /// The partial SEND message being received.
  bool assembling_ = false;
  std::vector<std::uint8_t> message_;
};

}  // namespace ibsec::transport
