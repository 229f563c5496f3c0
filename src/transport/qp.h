// Queue Pairs: the smallest communication entity in IBA (paper sec. 4.3).
//
// Two transport services are modelled, matching the paper's discussion:
//   Reliable Connection (RC)  — two QPs bound to each other; packets carry a
//                               P_Key but *no* Q_Key (none is needed).
//   Unreliable Datagram (UD)  — a QP talks to many QPs; packets carry the
//                               destination's Q_Key in a DETH, and that
//                               plaintext Q_Key is the whole access control.
#pragma once

#include <cstdint>

#include "ib/types.h"
#include "transport/rc_reliability.h"

namespace ibsec::transport {

enum class ServiceType : std::uint8_t {
  kReliableConnection,
  kUnreliableDatagram,
};

struct QueuePair {
  explicit QueuePair(RcContext& rc)
      : requester(rc, *this), responder(rc, *this) {}

  ib::Qpn qpn = 0;
  ServiceType type = ServiceType::kReliableConnection;
  ib::PKeyValue pkey = ib::kDefaultPKey;

  /// UD only: packets arriving for this QP must carry this Q_Key.
  ib::QKeyValue qkey = 0;

  /// RC only: the bound remote endpoint.
  int peer_node = -1;
  ib::Qpn peer_qpn = 0;
  bool connected = false;

  /// Next packet sequence number for sends (24-bit wraparound).
  ib::Psn next_psn = 0;

  /// RC only: the two state machines (see rc_reliability.h).
  RcRequester requester;
  RcResponder responder;

  struct Counters {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
  } counters;

  ib::Psn take_psn() {
    const ib::Psn psn = next_psn;
    next_psn = (next_psn + 1) & ib::kPsnMask;
    return psn;
  }
};

}  // namespace ibsec::transport
