// The one store of packets parked in a simulated fabric (Simulator::packets()),
// and of the buffers their payloads live in.
//
// Hca::send moves a packet into a slot; the output queue entry and then the
// link's delivery event carry that slot to the peer, and a switch moves the
// packet once, into the slot that crosses it and waits in its output queue.
// acquire() hands out a stable Packet* that the owner passes back to
// release() exactly once. Slots come in chunks of 64 behind stable pointers
// (sim/event_queue.h's pattern), so the pool grows to the peak parked count
// in a few allocations and then recycles. Single-threaded, like a Simulator.
//
// Payload buffers recycle by size class: the powers of two from 64 B to
// 4 KiB (each IBA MTU, 256 to 4096, fills one exactly). Whatever builds a
// packet takes its payload from buffer(), and release() gives a retired
// packet's buffer back, so a packet's bytes are allocated once per peak of
// buffers in flight, not once per packet. Each class keeps at most one chunk
// of spares, and trim() (run by Simulator::run() once the queue drains)
// drops them all, so a burst does not pin its high-water mark.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/annotations.h"
#include "ib/packet.h"

namespace ibsec::sim {

class PacketPool {
 public:
  using Buffer = std::vector<std::uint8_t>;
  static constexpr std::size_t kChunkSize = 64;
  static constexpr std::size_t kMinClass = 64;
  static constexpr std::size_t kMaxClass = 4096;

  /// Moves `pkt` into a free slot (taking a fresh one only when none is
  /// free) and returns the slot pointer, valid until release().
  IBSEC_HOT ib::Packet* acquire(ib::Packet&& pkt) {
    ib::Packet* slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      const std::size_t at = handed_out_++ % kChunkSize;
      // Amortized growth, one chunk per 64 slots. IBSEC_DETLINT_ALLOW(hot-alloc)
      if (at == 0) chunks_.push_back(std::make_unique<Chunk>());
      slot = &(*chunks_.back())[at];
    }
    *slot = std::move(pkt);
    return slot;
  }

  /// Returns a slot to the free list and recycles the payload still in it.
  /// Nothing may keep a reference into that payload past this call.
  IBSEC_HOT void release(ib::Packet* slot) {
    recycle(std::move(slot->payload));
    // Never outgrows the slots handed out. IBSEC_DETLINT_ALLOW(hot-alloc)
    free_.push_back(slot);
  }

  /// An empty buffer for a payload of `bytes`: a spare of the size class
  /// that holds it, else a fresh one of the class size. A request above
  /// kMaxClass gets a buffer of exactly `bytes`, which recycle() frees; one
  /// of 0 bytes gets no storage.
  IBSEC_HOT Buffer buffer(std::size_t bytes) {
    Buffer out;
    if (bytes == 0) return out;
    if (bytes > kMaxClass) {
      out.reserve(bytes);
      return out;
    }
    std::vector<Buffer>& spares = spares_[class_index(bytes)];
    if (!spares.empty()) {
      out = std::move(spares.back());
      spares.pop_back();
      return out;
    }
    out.reserve(std::bit_ceil(std::max(bytes, kMinClass)));
    return out;
  }

  /// Takes `buf` back (left empty). It is kept as a spare only if its
  /// capacity is exactly a class size and its class holds fewer than
  /// kChunkSize spares; any other buffer is freed.
  IBSEC_HOT void recycle(Buffer&& buf) {
    Buffer spare = std::move(buf);
    const std::size_t cap = spare.capacity();
    if (cap < kMinClass || cap > kMaxClass || !std::has_single_bit(cap)) {
      return;
    }
    std::vector<Buffer>& spares = spares_[class_index(cap)];
    if (spares.size() >= kChunkSize) return;
#ifndef NDEBUG
    // Where IBSEC_DCHECK is on, a reader of a retired payload sees poison,
    // not the old bytes, and the goldens move.
    std::fill(spare.begin(), spare.end(), kPoison);
#endif
    spare.clear();
    // At most kChunkSize spares per class. IBSEC_DETLINT_ALLOW(hot-alloc)
    spares.push_back(std::move(spare));
  }

  /// A copy of `pkt` whose payload lives in a buffer() of its size.
  IBSEC_HOT ib::Packet copy(const ib::Packet& pkt) {
    ib::Packet out;
    out.payload = buffer(pkt.payload.size());
    // Copy-assignment copies the payload into the capacity already there.
    out = pkt;
    return out;
  }

  /// Frees every spare buffer.
  void trim() {
    for (std::vector<Buffer>& spares : spares_) spares.clear();
  }

  /// Slots ever handed out: the high-water mark of parked packets.
  std::size_t capacity() const { return handed_out_; }
  /// Slots acquired and not yet released: packets still parked.
  std::size_t in_use() const { return handed_out_ - free_.size(); }
  /// Spare payload buffers held, over every class.
  std::size_t spare_buffers() const {
    std::size_t n = 0;
    for (const std::vector<Buffer>& spares : spares_) n += spares.size();
    return n;
  }

 private:
  using Chunk = std::array<ib::Packet, kChunkSize>;
  /// 64 B, 128 B, ..., 4 KiB.
  static constexpr std::size_t kClasses =
      std::countr_zero(kMaxClass) - std::countr_zero(kMinClass) + 1;
  static constexpr std::uint8_t kPoison = 0xDB;

  /// The class of the smallest class size that holds `bytes` (1..kMaxClass).
  static std::size_t class_index(std::size_t bytes) {
    return static_cast<std::size_t>(
        std::bit_width(std::max(bytes, kMinClass) - 1) -
        std::countr_zero(kMinClass));
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<ib::Packet*> free_;
  std::size_t handed_out_ = 0;
  std::array<std::vector<Buffer>, kClasses> spares_;
};

}  // namespace ibsec::sim
