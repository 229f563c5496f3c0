// Traffic sources reproducing the paper's two workload classes (sec. 3.1):
//
//   Realtime    — constant-rate stream with priority VL. "Since realtime
//                 traffic has minimal bandwidth requirements, an application
//                 does not send any packet when the current network status
//                 cannot support the application's bandwidth requirement":
//                 modelled as skipping a send slot when the HCA's realtime
//                 queue is backed up.
//   Best-effort — Poisson arrivals at a configured injection rate ("similar
//                 to scientific workloads"), posted regardless of network
//                 state, so congestion shows up as queuing time.
//
// Destinations are drawn uniformly from the source's partition peers. When
// QP-level key management is active, the first message to a peer triggers
// the Q_Key request round trip; messages generated while the exchange is in
// flight wait in an application pending queue (their queuing time includes
// the wait — exactly the key-initialization overhead Figure 6 measures).
#pragma once

#include <deque>
#include <map>
#include <vector>

#include "common/rng.h"
#include "security/qp_key_manager.h"
#include "transport/channel_adapter.h"

namespace ibsec::workload {

/// Shared peer-addressing logic + Q_Key acquisition.
class TrafficSource {
 public:
  struct Peer {
    int node = -1;
    ib::Qpn qp = 0;
    ib::QKeyValue qkey = 0;  ///< pre-shared (baseline) or 0 until learned
    bool ready = false;
  };

  /// `qp_keys` may be null (no QP-level key management: Q_Keys pre-shared).
  TrafficSource(transport::ChannelAdapter& ca, ib::Qpn src_qp,
                std::vector<Peer> peers, Rng rng,
                security::QpKeyManager* qp_keys,
                SimTime per_message_overhead);
  virtual ~TrafficSource() = default;

  void start(SimTime at);
  void stop() { stopped_ = true; }

  std::uint64_t generated() const { return generated_; }
  std::uint64_t posted() const { return posted_; }
  std::uint64_t skipped() const { return skipped_; }

 protected:
  /// Next generation instant after `now`; < 0 means no further traffic.
  virtual SimTime next_interval() = 0;
  virtual ib::PacketMeta::TrafficClass traffic_class() const = 0;
  /// Realtime back-off check; best-effort always returns true.
  virtual bool may_send_now() const { return true; }

  std::size_t payload_size() const;

  transport::ChannelAdapter& ca_;
  Rng rng_;

 private:
  void tick();
  void emit_to(Peer& peer, SimTime created_at);

  ib::Qpn src_qp_;
  std::vector<Peer> peers_;
  security::QpKeyManager* qp_keys_;
  SimTime per_message_overhead_;
  bool stopped_ = false;
  std::uint64_t generated_ = 0;
  std::uint64_t posted_ = 0;
  std::uint64_t skipped_ = 0;
  // Messages awaiting a Q_Key exchange, per peer index: creation timestamps.
  std::map<std::size_t, std::deque<SimTime>> pending_;
  std::map<std::size_t, bool> request_in_flight_;
};

class RealtimeSource final : public TrafficSource {
 public:
  /// `rate_fraction` of the link bandwidth, e.g. 0.1 = 250 Mb/s of MTU
  /// packets. `backoff_queue_limit`: skip the slot when the HCA's realtime
  /// VL queue is at least this deep.
  RealtimeSource(transport::ChannelAdapter& ca, ib::Qpn src_qp,
                 std::vector<Peer> peers, Rng rng,
                 security::QpKeyManager* qp_keys, SimTime per_message_overhead,
                 double rate_fraction, std::size_t backoff_queue_limit = 4);

 protected:
  SimTime next_interval() override { return interval_; }
  ib::PacketMeta::TrafficClass traffic_class() const override {
    return ib::PacketMeta::TrafficClass::kRealtime;
  }
  bool may_send_now() const override;

 private:
  SimTime interval_;
  std::size_t backoff_limit_;
};

class BestEffortSource final : public TrafficSource {
 public:
  /// Poisson arrivals with mean load `injection_fraction` of link bandwidth.
  BestEffortSource(transport::ChannelAdapter& ca, ib::Qpn src_qp,
                   std::vector<Peer> peers, Rng rng,
                   security::QpKeyManager* qp_keys,
                   SimTime per_message_overhead, double injection_fraction);

 protected:
  SimTime next_interval() override;
  ib::PacketMeta::TrafficClass traffic_class() const override {
    return ib::PacketMeta::TrafficClass::kBestEffort;
  }

 private:
  double mean_interval_ps_;
};

/// Message stream over a bound RC QP: Poisson arrivals of variable-size
/// messages (sub-MTU through multi-MTU, so post_message exercises
/// segmentation) at a mean load of `load_fraction` of link bandwidth.
/// With RcConfig::enabled this drives the reliability protocol — ACK
/// coalescing, retransmission, window back-pressure — under fault
/// campaigns; posts stop counting once the QP errors out (retry exhausted).
class RcMessageSource {
 public:
  RcMessageSource(transport::ChannelAdapter& ca, ib::Qpn qp, Rng rng,
                  double load_fraction, std::size_t mean_message_bytes);

  void start(SimTime at);
  void stop() { stopped_ = true; }

  std::uint64_t posted() const { return posted_; }
  /// Posts rejected by the CA (typically an RC QP whose retries ran out).
  std::uint64_t post_failures() const { return post_failures_; }

 private:
  void tick();

  transport::ChannelAdapter& ca_;
  ib::Qpn qp_;
  Rng rng_;
  double mean_interval_ps_;
  std::size_t mean_bytes_;
  bool stopped_ = false;
  std::uint64_t posted_ = 0;
  std::uint64_t post_failures_ = 0;
};

}  // namespace ibsec::workload
