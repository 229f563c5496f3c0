// InfiniBand packet headers with byte-accurate wire encoding. The simulator
// only writes wire images; the readers are test oracles (tests/support).
//
// Layouts follow IBA spec v1.1 (vol. 1, ch. 7-9):
//   LRH  — Local Route Header, 8 bytes, link layer.
//   GRH  — Global Route Header, 40 bytes, optional (inter-subnet).
//   BTH  — Base Transport Header, 12 bytes, every transport packet.
//   DETH — Datagram Extended Transport Header, 8 bytes (UD only).
//   RETH — RDMA Extended Transport Header, 16 bytes (RDMA ops).
//   AETH — ACK Extended Transport Header, 4 bytes (RC acks).
//
// The BTH "resv8a" byte is the field the paper repurposes to name the
// authentication algorithm in use; crucially it is one of the bytes the
// ICRC computation masks to 0xFF, so flipping it never invalidates a plain
// ICRC — full wire compatibility (paper sec. 5.1).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "ib/types.h"

namespace ibsec::ib {

/// Transport opcodes (subset sufficient for the simulated services).
/// Values follow the IBA opcode space: top 3 bits select the service class.
enum class OpCode : std::uint8_t {
  kRcSendFirst = 0x00,       // multi-packet SEND, first segment
  kRcSendMiddle = 0x01,      // multi-packet SEND, middle segment
  kRcSendLast = 0x02,        // multi-packet SEND, last segment
  kRcSendOnly = 0x04,        // reliable connection, single-packet SEND
  kRcAck = 0x11,             // RC acknowledge (carries AETH)
  kRcRdmaWriteOnly = 0x0A,   // RC RDMA WRITE, single packet (carries RETH)
  kUdSendOnly = 0x64,        // unreliable datagram SEND (carries DETH)
};

/// Local Route Header (8 bytes).
struct Lrh {
  static constexpr std::size_t kWireSize = 8;

  VirtualLane vl = 0;        // 4 bits — variant (switches may remap): masked in ICRC
  std::uint8_t lver = 0;     // 4 bits, link version
  ServiceLevel sl = 0;       // 4 bits
  std::uint8_t lnh = 1;      // 2 bits, next header (1 = BTH w/o GRH, 3 = GRH)
  Lid dlid = 0;
  std::uint16_t pkt_len = 0; // 11 bits, length in 4-byte words (LRH..ICRC)
  Lid slid = 0;

  void serialize(std::span<std::uint8_t, kWireSize> out) const;
  bool operator==(const Lrh&) const = default;
};

/// Global Route Header (40 bytes). Present only when LRH.lnh == 3. The
/// simulated fabric is a single subnet, so GRH appears only in tests.
struct Grh {
  static constexpr std::size_t kWireSize = 40;

  std::uint8_t ip_ver = 6;       // 4 bits
  std::uint8_t tclass = 0;       // 8 bits — variant: masked in ICRC
  std::uint32_t flow_label = 0;  // 20 bits — variant: masked in ICRC
  std::uint16_t pay_len = 0;
  std::uint8_t nxt_hdr = 0x1B;   // IBA BTH
  std::uint8_t hop_limit = 0;    // variant: masked in ICRC
  std::array<std::uint8_t, 16> sgid{};
  std::array<std::uint8_t, 16> dgid{};

  void serialize(std::span<std::uint8_t, kWireSize> out) const;
  bool operator==(const Grh&) const = default;
};

/// Base Transport Header (12 bytes).
struct Bth {
  static constexpr std::size_t kWireSize = 12;

  OpCode opcode = OpCode::kRcSendOnly;
  bool se = false;           // solicited event
  bool migreq = false;       // migration state
  std::uint8_t pad_cnt = 0;  // 2 bits, payload pad bytes
  std::uint8_t tver = 0;     // 4 bits
  PKeyValue pkey = kDefaultPKey;
  std::uint8_t resv8a = 0;   // ICRC-masked reserved byte -> auth algorithm id
  Qpn dest_qp = 0;           // 24 bits
  bool ack_req = false;
  Psn psn = 0;               // 24 bits
  // resv7b (7 bits, byte 8 low bits) transmitted as zero.

  void serialize(std::span<std::uint8_t, kWireSize> out) const;
  bool operator==(const Bth&) const = default;
};

/// Datagram Extended Transport Header (8 bytes, UD service).
struct Deth {
  static constexpr std::size_t kWireSize = 8;

  QKeyValue qkey = 0;
  Qpn src_qp = 0;  // 24 bits

  void serialize(std::span<std::uint8_t, kWireSize> out) const;
  bool operator==(const Deth&) const = default;
};

/// RDMA Extended Transport Header (16 bytes).
struct Reth {
  static constexpr std::size_t kWireSize = 16;

  std::uint64_t va = 0;       // remote virtual address
  RKeyValue rkey = 0;
  std::uint32_t dma_len = 0;

  void serialize(std::span<std::uint8_t, kWireSize> out) const;
  bool operator==(const Reth&) const = default;
};

/// ACK Extended Transport Header (4 bytes).
struct Aeth {
  static constexpr std::size_t kWireSize = 4;

  std::uint8_t syndrome = 0;
  std::uint32_t msn = 0;  // 24 bits

  void serialize(std::span<std::uint8_t, kWireSize> out) const;
  bool operator==(const Aeth&) const = default;
};

}  // namespace ibsec::ib
