// Discrete-event queue: a time-ordered priority queue of callbacks.
//
// Ties are broken by insertion sequence number so that events scheduled for
// the same instant fire in FIFO order — this makes the whole simulation a
// deterministic function of (topology, seed), which the experiment sweeps
// and regression tests rely on. Because (time, seq) is a strict total order
// (seq is unique), every correct priority queue pops the same sequence; the
// heap layout below is a performance choice, not a behaviour choice.
//
// Layout: the binary heap orders 16-byte trivially-copyable {time, seq|slot}
// entries, while the callbacks themselves sit still in a recycled slot pool.
// Keeping the ~90-byte inline callbacks out of the heap matters twice over:
// every push/pop sifts O(log n) entries, and sifting PODs is a handful of
// moves where sifting whole events would run InlineFunction's relocate
// machinery at each level. The pool is chunked (fixed-size arrays behind
// stable pointers) so a slot's address never changes; pop_and_run() exploits
// that to invoke the callback in place even while it schedules new events.
// The slot free list makes steady-state scheduling allocation-free once the
// pool has grown to the peak in-flight event count (the same recycling
// policy as common/ring_queue.h and fabric's PacketPool).
//
// The heap is a plain binary heap over a vector, root at index 0. Push
// sifts the new entry up. Pop is Floyd's: it walks the hole left by the
// root down to a leaf, always taking the earlier child with the branch-free
// `c += before(h[c + 1], h[c])`, then sifts the old last entry up from that
// leaf. The walk down costs one comparison per level instead of the two a
// textbook sift-down needs, and the old last entry belongs near the bottom,
// so the sift up is short. `before` compares {time, seq|slot} as one
// 128-bit key. On a hold-model loop (pop, push at a random later time,
// 256 to 16,384 pending, -O3, a 4-vCPU x86-64 host) this pops and pushes
// in about 0.6x the time of std::pop_heap/push_heap with a branch-free
// two-compare comparator.
//
// Reserved sequence numbers: reserve_seq() hands out the next seq without
// scheduling anything, and schedule_as() later files an event under it.
// The event then pops exactly where an event scheduled at reservation time
// would have, even among same-time events scheduled in between. Fabric
// output ports use this to bank credit returns instead of scheduling one
// event per credit (see fabric/link.h).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/check.h"
#include "common/time.h"
#include "sim/inline_function.h"

namespace ibsec::sim {

class EventQueue {
 public:
  /// Scheduling is allocation-free: callbacks live inline in the recycled
  /// pool slots (see sim/inline_function.h for the capture-size contract).
  using Callback = InlineFunction<void(), 64>;

  /// Accepts any callable a Callback can hold; a raw lambda is constructed
  /// directly in its pool slot (no Callback temporary on the way in).
  template <class F>
  IBSEC_HOT void schedule(SimTime when, F&& fn) {
    schedule_as(when, next_seq_++, std::forward<F>(fn));
  }

  /// Takes the next sequence number without scheduling anything; a later
  /// schedule_as() under it pops where an event scheduled now would.
  std::uint64_t reserve_seq() { return next_seq_++; }
  /// The seq the next schedule() or reserve_seq() takes.
  std::uint64_t next_seq() const { return next_seq_; }

  /// Schedules `fn` at `when` under `seq`, a number reserve_seq() handed out
  /// and no other event holds.
  template <class F>
  IBSEC_HOT void schedule_as(SimTime when, std::uint64_t seq, F&& fn) {
    IBSEC_DCHECK(seq < next_seq_);
    IBSEC_DCHECK(next_seq_ <= (std::uint64_t{1} << (64 - kSlotBits)));
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = total_slots_++;
      // Past kSlotCount the slot would spill into the seq bits and corrupt
      // the pop order; the check costs nothing off this growth path.
      IBSEC_CHECK(slot < kSlotCount)
          << "more than " << kSlotCount << " events pending at once";
      if ((slot & kChunkMask) == 0) {
        // Amortized pool growth: one chunk per 512 slots, never again once
        // the peak in-flight count is hit. IBSEC_DETLINT_ALLOW(hot-alloc)
        chunks_.push_back(std::make_unique<Chunk>());
      }
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      slot_ref(slot) = std::forward<F>(fn);
    } else {
      slot_ref(slot).emplace(std::forward<F>(fn));
    }
    const Entry entry{when, (seq << kSlotBits) | slot};
    // Amortized heap growth: capacity doubles to the peak event count and
    // then stays. IBSEC_DETLINT_ALLOW(hot-alloc)
    heap_.push_back(entry);
    sift_up(heap_.size() - 1, entry);
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  SimTime next_time() const {
    IBSEC_DCHECK(!heap_.empty());
    return heap_.front().time;
  }

  /// Removes and returns the earliest event's callback, advancing nothing
  /// else; the Simulator owns the clock.
  IBSEC_HOT Callback pop(SimTime& time_out) {
    const Entry entry = pop_entry();
    time_out = entry.time;
    const auto slot = slot_of(entry);
    // Moving out leaves the slot empty, so recycling it later destroys
    // nothing stale.
    Callback fn = std::move(slot_ref(slot));
    // Slot recycling: the free list never outgrows the pool, so this
    // push_back reuses existing capacity. IBSEC_DETLINT_ALLOW(hot-alloc)
    free_slots_.push_back(slot);
    return fn;
  }

  /// Pops the earliest event, reports its time and sequence number through
  /// `set_time`, then runs the callback *in place* — no move out of the
  /// pool. Safe against reentrant schedule() calls because chunk addresses
  /// are stable and the executing slot is only put back on the free list
  /// after it returns.
  template <class SetTime>
  IBSEC_HOT void pop_and_run(SetTime&& set_time) {
    const Entry entry = pop_entry();
    set_time(entry.time, entry.seq_slot >> kSlotBits);
    const auto slot = slot_of(entry);
    Callback& fn = slot_ref(slot);
    fn();
    fn = nullptr;
    // Slot recycling: the free list never outgrows the pool, so this
    // push_back reuses existing capacity. IBSEC_DETLINT_ALLOW(hot-alloc)
    free_slots_.push_back(slot);
  }

 private:
  // seq_slot packs the slot index into the low kSlotBits and the insertion
  // sequence number above them. seq strictly increases and never repeats,
  // so comparing the packed word tie-breaks identically to comparing seq
  // alone — the slot bits can never decide between two live entries.
  // Packing shrinks an Entry to 16 bytes, one third off every sift move.
  static constexpr std::uint64_t kSlotBits = 24;  // 16M concurrent events
  static constexpr std::uint64_t kSlotCount = std::uint64_t{1} << kSlotBits;

  static constexpr std::uint32_t kChunkSize = 512;  // slots per pool chunk
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;
  static constexpr std::uint32_t kChunkShift = 9;
  static_assert(std::uint32_t{1} << kChunkShift == kChunkSize);
  using Chunk = std::array<Callback, kChunkSize>;

  struct Entry {
    SimTime time;
    std::uint64_t seq_slot;
  };
  static_assert(std::is_trivially_copyable_v<Entry>);
  static_assert(sizeof(Entry) == 16);

  /// True iff `a` pops before `b`: one 128-bit comparison of the keys
  /// {time, seq_slot}, no branch. Which sibling wins a sift comparison is
  /// data-dependent and mispredicts badly as a branch; a compare-and-borrow
  /// over both words also beats combining two 64-bit compares.
  static bool before(const Entry& a, const Entry& b) {
    return key(a) < key(b);
  }
  /// Time in the high word with its sign bit flipped, so unsigned order is
  /// SimTime's signed order.
  static unsigned __int128 key(const Entry& e) {
    const std::uint64_t time =
        static_cast<std::uint64_t>(e.time) ^ (std::uint64_t{1} << 63);
    return static_cast<unsigned __int128>(time) << 64 | e.seq_slot;
  }

  /// Moves `entry` from index `hole` toward the root until its parent pops
  /// before it.
  IBSEC_HOT void sift_up(std::size_t hole, const Entry entry) {
    Entry* const h = heap_.data();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(entry, h[parent])) break;
      h[hole] = h[parent];
      hole = parent;
    }
    h[hole] = entry;
  }

  IBSEC_HOT Entry pop_entry() {
    IBSEC_DCHECK(!heap_.empty());
    Entry* const h = heap_.data();
    const Entry top = h[0];
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return top;
    // Floyd: walk the root's hole down to a leaf along the earlier child.
    std::size_t hole = 0;
    std::size_t c = 1;
    while (c + 1 < n) {
      c += static_cast<std::size_t>(before(h[c + 1], h[c]));
      h[hole] = h[c];
      hole = c;
      c = 2 * c + 1;
    }
    if (c < n) {  // a last parent with one child
      h[hole] = h[c];
      hole = c;
    }
    sift_up(hole, last);
    return top;
  }

  static std::uint32_t slot_of(const Entry& entry) {
    return static_cast<std::uint32_t>(entry.seq_slot & (kSlotCount - 1));
  }

  Callback& slot_ref(std::uint32_t slot) {
    return (*chunks_[slot >> kChunkShift])[slot & kChunkMask];
  }

  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t total_slots_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace ibsec::sim
