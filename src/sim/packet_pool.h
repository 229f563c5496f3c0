// The one store of packets parked in a simulated fabric (Simulator::packets()).
//
// Hca::send moves a packet into a slot; the output queue entry and then the
// link's delivery event carry that slot to the peer, and a switch moves the
// packet once, into the slot that crosses it and waits in its output queue.
// acquire() hands out a stable Packet* that the owner passes back to
// release() exactly once. Slots come in chunks of 64 behind stable pointers
// (sim/event_queue.h's pattern), so the pool grows to the peak parked count
// in a few allocations and then recycles. Single-threaded, like a Simulator.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/annotations.h"
#include "ib/packet.h"

namespace ibsec::sim {

class PacketPool {
 public:
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

  /// Returns a slot to the free list, which never outgrows the slots
  /// handed out. IBSEC_DETLINT_ALLOW(hot-alloc)
  IBSEC_HOT void release(ib::Packet* slot) { free_.push_back(slot); }

  /// Slots ever handed out: the high-water mark of parked packets.
  std::size_t capacity() const { return handed_out_; }
  /// Slots acquired and not yet released: packets still parked.
  std::size_t in_use() const { return handed_out_ - free_.size(); }

 private:
  static constexpr std::size_t kChunkSize = 64;
  using Chunk = std::array<ib::Packet, kChunkSize>;

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<ib::Packet*> free_;
  std::size_t handed_out_ = 0;
};

}  // namespace ibsec::sim
