// Link-layer machinery: output ports with per-VL queues, strict-priority VL
// arbitration, and credit-based flow control.
//
// IBA links are lossless: a sender may only put a packet on the wire when
// the receiver has advertised enough buffer credit on that packet's VL.
// When the fabric congests, credits dry up hop by hop until packets queue in
// the source HCA — which is why the paper measures DoS impact as *queuing
// time* growth while network latency stays comparatively flat (sec. 3.1).
//
// VL15 (subnet management) is exempt from flow control per the IBA spec;
// trap MADs still get through a congested fabric.
//
// Credit returns are banked, not scheduled. When a receiver frees buffer,
// the credit would reach the sender one propagation delay later; instead of
// an event for that arrival, the sending OutputPort reserves the event's
// place in the simulator's (time, seq) order (Simulator::reserve_seq) and
// appends {time, seq, VL, bytes} to a FIFO, which is ordered because every
// entry lies the same delay ahead of a clock that never goes back. Before
// it arbitrates on a free line the port folds in every entry the clock has
// reached. Only a port that credit-stalls with credit banked needs to act
// at an entry's instant, and it schedules one wake-up at the head entry's
// reserved place, so the wake-up pops exactly where an event scheduled at
// release time would have. At any other instant a landing credit changes
// only the counter: a busy line cannot dispatch, and a free, empty line's
// arbiter is at rest, so arbitrating then would change nothing (see
// OutputPort::try_dispatch).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/ring_queue.h"
#include "common/rng.h"
#include "fabric/config.h"
#include "ib/packet.h"
#include "sim/simulator.h"

namespace ibsec::fabric {

/// Anything that can accept packets from a link: switches and HCAs.
class Device {
 public:
  virtual ~Device() = default;

  /// Called when the last byte of `pkt` has arrived on `in_port`.
  virtual void packet_arrived(ib::Packet&& pkt, int in_port) = 0;

  virtual std::string name() const = 0;
};

class InputPort;

/// The sending side of one unidirectional link. Owns the per-VL queues and
/// the credit counters mirroring the peer's input buffer.
class OutputPort {
 public:
  OutputPort(sim::Simulator& simulator, const LinkParams& params,
             std::string name);

  /// Connects to the receiving device. `peer_port` is the input port index
  /// on the peer.
  void connect(Device* peer, int peer_port);

  const std::string& name() const { return name_; }

  /// Replaces this port's fault behaviour (FaultCampaign per-link override).
  void set_fault_profile(const FaultProfile& profile) { faults_ = profile; }

  /// Queues the packet parked in `slot` (a Simulator::packets() slot the port
  /// now owns) on `vl`. When it goes on the wire or a flapped link drops it,
  /// the port frees its bytes from `release`, the sender's input buffer.
  IBSEC_HOT void enqueue(ib::Packet* slot, ib::VirtualLane vl,
                         InputPort* release = nullptr);

  std::size_t queue_depth(ib::VirtualLane vl) const;

  /// Total packets that have completed transmission on this port.
  std::uint64_t packets_sent() const { return obs_packets_->value(); }
  /// Bytes that completed transmission on this port.
  std::uint64_t bytes_sent() const { return obs_bytes_->value(); }
  std::uint64_t packets_corrupted() const { return obs_corrupted_->value(); }
  /// Fraction of wall-clock the line spent transmitting, up to `now`.
  double utilization(SimTime now) const {
    if (now <= 0) return 0.0;
    return static_cast<double>(busy_time_) / static_cast<double>(now);
  }

 private:
  struct QueuedPacket {
    ib::Packet* slot = nullptr;    ///< the packet, parked in the pool
    InputPort* release = nullptr;  ///< input buffer freed at dispatch
    SimTime enqueued_at = 0;  ///< for the VL-arbitration-wait trace span
    std::size_t bytes = 0;    ///< slot->wire_size(), cached at enqueue
  };
  static_assert(sizeof(QueuedPacket) <= 32,
                "a queue entry is a handle: the packet stays in its slot");

  /// A credit return on its way back: it lands at `at`, ordered among
  /// same-time events by the reserved `seq`.
  struct BankedCredit {
    SimTime at = 0;
    std::uint64_t seq = 0;
    std::uint32_t bytes = 0;
    ib::VirtualLane vl = 0;
  };

  friend class InputPort;  // banks credits and reads the buffer size

  /// The receiver freed `bytes` of `vl` buffer: bank the credit to land one
  /// propagation delay from now, waking the port then if it is stalled.
  IBSEC_HOT void bank_credit(ib::VirtualLane vl, std::size_t bytes);
  /// Adds `bytes` of credit for `vl`, checking it never exceeds the peer's
  /// buffer.
  IBSEC_HOT void add_credit(ib::VirtualLane vl, std::size_t bytes);
  /// Schedules the one wake-up at the head banked credit's reserved place
  /// if the port is credit-stalled (line free, packets queued) and none is
  /// armed.
  void wake_if_stalled();
  IBSEC_HOT void try_dispatch();
  /// Removes the head of `vl`'s queue, keeping the depth gauges and the
  /// queued-VL mask honest.
  IBSEC_HOT QueuedPacket pop_front(ib::VirtualLane vl);
  /// Cold lazy resolvers: the first packet on a VL registers that VL's
  /// metric here, keeping the name assembly out of the IBSEC_HOT bodies.
  obs::Gauge& vl_depth_gauge(ib::VirtualLane vl);
  obs::Counter& vl_dispatched_counter(int vl_index);
  /// Marks a link fault on `pkt`'s trace lifecycle, if it has one.
  void trace_fault(const ib::Packet& pkt, const std::string& label);
  /// VL15 first (exempt from arbitration and flow control), then the
  /// weighted arbitration tables; -1 if nothing can send.
  int arbitrate();

  sim::Simulator& sim_;
  LinkParams params_;
  std::string name_;
  Device* peer_ = nullptr;
  int peer_port_ = -1;

  // Ring buffers, not deques: a deque frees and allocates a node block as
  // its ends cross block boundaries, so even a steady queue would allocate
  // on the per-hop path. A ring recycles its buffer once grown.
  std::vector<RingQueue<QueuedPacket>> vl_queues_;
  /// Bit v set iff vl_queues_[v] is non-empty.
  std::uint32_t queued_mask_ = 0;
  std::vector<std::size_t> credits_;
  /// Credit returns not yet folded into credits_, oldest first.
  RingQueue<BankedCredit> banked_;
  bool wake_armed_ = false;
  VlArbiter arbiter_;
  FaultProfile faults_;
  Rng fault_rng_;
  bool line_busy_ = false;
  SimTime busy_time_ = 0;
  // Registry handles under "link.<name>.", the only store of the port's
  // packet, byte and fault counts. Credit stalls measure the spans where
  // the line is free and packets wait but no VL has the credits to send —
  // the hop-by-hop back-pressure signal behind the paper's queuing-time
  // growth. Per-VL dispatch counters resolve lazily (most of the 16 VLs
  // never carry traffic). The faults.* counters feed the conservation
  // invariant: injected == switch drops + link fault drops + received.
  obs::Counter* obs_packets_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;
  obs::Counter* obs_corrupted_ = nullptr;
  obs::Counter* obs_dropped_ = nullptr;
  obs::Counter* obs_flap_dropped_ = nullptr;
  obs::TimeAccumulator* obs_credit_stall_ = nullptr;
  std::vector<obs::Counter*> obs_vl_dispatched_;
  // Queue-depth gauges (current + high-water): the whole port eagerly, each
  // VL lazily on first use — the per-VL depth series is what the
  // TimeSeriesSampler plots for the DoS experiments.
  obs::Gauge* obs_queue_depth_ = nullptr;
  std::vector<obs::Gauge*> obs_vl_depth_;
  SimTime stall_since_ = -1;
  // Trace labels assembled once at construction: the fault sites sit inside
  // IBSEC_HOT functions and must not concatenate strings per event.
  std::string flap_label_;
  std::string drop_label_;
  std::string corrupt_label_;
};

/// Per-(port, VL) input buffer accounting at the receiving device, plus the
/// upstream port whose credits the buffer mirrors.
class InputPort {
 public:
  InputPort() = default;
  explicit InputPort(OutputPort& upstream);

  /// Records buffer occupancy for an arrived packet. Asserts the sender
  /// respected credits (the invariant the flow-control tests check).
  void accept(const ib::Packet& pkt, ib::VirtualLane vl);

  /// Frees the bytes of `pkt` and returns their credit upstream.
  void release(const ib::Packet& pkt, ib::VirtualLane vl) {
    release_bytes(pkt.wire_size(), vl);
  }
  /// Same, when the packet has already been moved away.
  void release_bytes(std::size_t bytes, ib::VirtualLane vl);

 private:
  OutputPort* upstream_ = nullptr;
  std::vector<std::size_t> used_;
};

}  // namespace ibsec::fabric
