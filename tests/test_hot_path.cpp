// The zero-allocation hot-path contract:
//
//   1. InlineFunction — the event queue's callback type — stores captures
//      inline and relocates them on move; a capture past the declared
//      capacity fails to compile.
//   2. The Simulator's PacketPool recycles the slots that park packets, in
//      chunks of 64, and the payload buffers, by power-of-two size class
//      with at most 64 spares a class.
//   3. The streaming serialization / CRC / MAC paths produce byte- and
//      tag-identical results to materializing the covered bytes (the wire
//      image from serialize(), masked for the ICRC) and hashing them —
//      property-tested over randomized packets with a seeded Rng, so the
//      equivalence holds across header combinations and payload sizes, not
//      just the golden packets other suites pin.
//   4. The event-scheduling steady state, a congested output port, a UD
//      post-to-delivery loop between two CAs, the packet CRCs, DRBG draws
//      and the AES-based MAC tags perform zero heap allocations, measured
//      with the global allocation probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_probe.h"
#include "common/ring_queue.h"
#include "common/rng.h"
#include "crypto/crc16.h"
#include "crypto/crc32.h"
#include "crypto/ctr_drbg.h"
#include "crypto/hmac.h"
#include "crypto/mac.h"
#include "crypto/pmac.h"
#include "crypto/sha256.h"
#include "crypto/umac.h"
#include "fabric/link.h"
#include "ib/packet.h"
#include "sim/inline_function.h"
#include "sim/packet_pool.h"
#include "sim/simulator.h"
#include "support/wire_parse.h"
#include "transport/channel_adapter.h"

namespace ibsec {
namespace {

// --- InlineFunction ----------------------------------------------------------

using VoidFn = sim::InlineFunction<void(), 64>;

TEST(InlineFunction, InvokesWithArgumentsAndReturn) {
  sim::InlineFunction<int(int, int), 64> add = [](int a, int b) {
    return a + b;
  };
  EXPECT_EQ(add(2, 40), 42);
}

TEST(InlineFunction, StartsEmptyAndComparesToNullptr) {
  VoidFn fn;
  EXPECT_TRUE(fn == nullptr);
  EXPECT_FALSE(fn);
  fn = [] {};
  EXPECT_TRUE(fn != nullptr);
  EXPECT_TRUE(static_cast<bool>(fn));
  fn = nullptr;
  EXPECT_TRUE(fn == nullptr);
}

TEST(InlineFunction, MoveTransfersTheCallable) {
  int hits = 0;
  VoidFn a = [&hits] { ++hits; };
  VoidFn b = std::move(a);
  EXPECT_TRUE(a == nullptr);  // NOLINT(bugprone-use-after-move): spec'd state
  b();
  EXPECT_EQ(hits, 1);
  VoidFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

struct DtorCounter {
  int* count;
  explicit DtorCounter(int* c) : count(c) {}
  DtorCounter(DtorCounter&& other) noexcept : count(other.count) {
    other.count = nullptr;
  }
  DtorCounter(const DtorCounter&) = delete;
  ~DtorCounter() {
    if (count != nullptr) ++*count;
  }
  void operator()() const {}
};

TEST(InlineFunction, DestroysCaptureExactlyOnce) {
  int destroyed = 0;
  {
    VoidFn fn{DtorCounter(&destroyed)};
    EXPECT_EQ(destroyed, 0);
    VoidFn moved = std::move(fn);
    moved();
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, ReassignmentDestroysThePreviousCallable) {
  int destroyed = 0;
  VoidFn fn{DtorCounter(&destroyed)};
  fn = [] {};
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, SmallCapturesAreInlineAndAllocationFree) {
  struct Small {
    std::uint64_t a = 1, b = 2, c = 3;
  };
  static_assert(VoidFn::fits_inline<decltype([s = Small{}] {
    (void)s;
  })>());
  Small s;
  const std::uint64_t before = alloc_count();
  VoidFn fn = [s] { (void)s; };
  VoidFn moved = std::move(fn);
  moved();
  EXPECT_EQ(alloc_count() - before, 0u)
      << "constructing/moving/invoking an inline callable must not allocate";
}

TEST(InlineFunction, OversizedCapturesDoNotFitInline) {
  // emplace() static_asserts fits_inline, so a capture like this one fails
  // to compile instead of reaching the heap.
  struct Big {
    std::uint8_t bytes[96];
  };
  static_assert(!VoidFn::fits_inline<decltype([b = Big{}] { (void)b; })>());
}

TEST(InlineFunction, EventQueueCallbackHoldsTheFabricDeliveryCapture) {
  // The largest hot capture in src/: the link delivery / switch crossing
  // lambdas (two pointers + ints). It documents the contract's slack;
  // emplace() itself asserts the contract at every call site.
  struct HotCapture {
    void* a;
    void* b;
    std::uint64_t c;
    std::uint64_t d;
    std::uint32_t e;
  };
  static_assert(sizeof(HotCapture) <= 64);
  static_assert(sim::EventQueue::Callback::fits_inline<decltype(
                    [h = HotCapture{}] { (void)h; })>());
}

// --- PacketPool --------------------------------------------------------------

ib::Packet make_ud_packet(std::size_t payload_size) {
  ib::Packet pkt;
  pkt.lrh.vl = 1;
  pkt.lrh.slid = 3;
  pkt.lrh.dlid = 9;
  pkt.bth.opcode = ib::OpCode::kUdSendOnly;
  pkt.bth.pkey = 0x8123;
  pkt.bth.dest_qp = 42;
  pkt.bth.psn = 77;
  pkt.deth = ib::Deth{0xDEADBEEF, 7};
  pkt.payload.assign(payload_size, 0x42);
  pkt.finalize();
  return pkt;
}

TEST(PacketPool, ReusesSlotsInsteadOfGrowing) {
  sim::PacketPool pool;
  for (int round = 0; round < 100; ++round) {
    ib::Packet* slot = pool.acquire(make_ud_packet(64));
    ib::Packet out = std::move(*slot);
    pool.release(slot);
    EXPECT_EQ(out.payload.size(), 64u);
  }
  EXPECT_EQ(pool.capacity(), 1u) << "serial acquire/release must reuse one slot";
}

TEST(PacketPool, PacketContentSurvivesTheSlot) {
  sim::PacketPool pool;
  ib::Packet original = make_ud_packet(128);
  const auto wire_before = original.serialize();
  ib::Packet* slot = pool.acquire(std::move(original));
  ib::Packet delivered = std::move(*slot);
  pool.release(slot);
  EXPECT_EQ(delivered.serialize(), wire_before);
}

TEST(PacketPool, GrowsToConcurrentInFlightCountThenStabilizes) {
  sim::PacketPool pool;
  std::vector<ib::Packet*> in_flight;
  for (int i = 0; i < 8; ++i) in_flight.push_back(pool.acquire(make_ud_packet(16)));
  EXPECT_EQ(pool.capacity(), 8u);
  for (ib::Packet* slot : in_flight) pool.release(slot);
  for (int round = 0; round < 50; ++round) {
    ib::Packet* slot = pool.acquire(make_ud_packet(16));
    pool.release(slot);
  }
  EXPECT_EQ(pool.capacity(), 8u);
}

TEST(PacketPool, GrowsInChunksOf64AndCountsSlotsInUse) {
  sim::PacketPool pool;
  std::vector<ib::Packet> packets(65);
  std::vector<ib::Packet*> slots;
  slots.reserve(packets.size());
  std::vector<int> growths;  // the acquires that allocated
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const std::uint64_t before = alloc_count();
    slots.push_back(pool.acquire(std::move(packets[i])));
    if (alloc_count() != before) growths.push_back(static_cast<int>(i) + 1);
  }
  EXPECT_EQ(growths, (std::vector<int>{1, 65}))
      << "a chunk holds 64 slots: only the 1st and the 65th acquire grow";
  EXPECT_EQ(pool.capacity(), 65u);
  EXPECT_EQ(pool.in_use(), 65u);
  for (std::size_t i = 0; i < 10; ++i) pool.release(slots[i]);
  EXPECT_EQ(pool.in_use(), 55u);
  EXPECT_EQ(pool.capacity(), 65u);
}

TEST(PacketPool, BuffersRoundUpToPowerOfTwoClasses) {
  sim::PacketPool pool;
  for (const auto& [bytes, capacity] :
       {std::pair<std::size_t, std::size_t>{1, 64}, {64, 64}, {65, 128},
        {256, 256}, {1000, 1024}, {4096, 4096}}) {
    const std::vector<std::uint8_t> buf = pool.buffer(bytes);
    EXPECT_TRUE(buf.empty()) << bytes;
    EXPECT_EQ(buf.capacity(), capacity) << bytes;
  }
  EXPECT_EQ(pool.buffer(0).capacity(), 0u);
  // Above the largest class a buffer is sized to its request and never
  // kept: a second request allocates again.
  std::vector<std::uint8_t> big = pool.buffer(4097);
  EXPECT_GE(big.capacity(), 4097u);
  pool.recycle(std::move(big));
  EXPECT_EQ(pool.spare_buffers(), 0u);
  const std::uint64_t before = alloc_count();
  const std::vector<std::uint8_t> again = pool.buffer(4097);
  EXPECT_EQ(alloc_count() - before, 1u);
}

TEST(PacketPool, RecycleKeepsOnlyClassSizesAndAChunkPerClass) {
  sim::PacketPool pool;
  for (const std::size_t capacity : {32, 100, 1000, 8192}) {
    std::vector<std::uint8_t> buf;
    buf.reserve(capacity);
    pool.recycle(std::move(buf));
  }
  EXPECT_EQ(pool.spare_buffers(), 0u) << "not a class size: freed";

  std::vector<std::vector<std::uint8_t>> held;
  for (int i = 0; i < 70; ++i) held.push_back(pool.buffer(256));
  for (int i = 0; i < 3; ++i) held.push_back(pool.buffer(2048));
  for (auto& buf : held) pool.recycle(std::move(buf));
  EXPECT_EQ(pool.spare_buffers(), 64u + 3u)
      << "64 spares of the 256 B class, all three of the 2 KiB class";
}

TEST(PacketPool, ReleaseHandsThePayloadStorageBack) {
  sim::PacketPool pool;
  ib::Packet pkt = make_ud_packet(0);
  pkt.payload = pool.buffer(200);
  pkt.payload.assign(200, 0x42);
  const std::uint8_t* storage = pkt.payload.data();
  pool.release(pool.acquire(std::move(pkt)));
  EXPECT_EQ(pool.spare_buffers(), 1u);

  const std::uint64_t before = alloc_count();
  const std::vector<std::uint8_t> reused = pool.buffer(256);
  EXPECT_EQ(alloc_count() - before, 0u);
  EXPECT_EQ(reused.data(), storage);
  EXPECT_TRUE(reused.empty());
  EXPECT_EQ(pool.spare_buffers(), 0u);
}

TEST(PacketPool, CopyTakesItsPayloadFromThePool) {
  sim::PacketPool pool;
  const ib::Packet original = make_ud_packet(300);
  std::vector<std::uint8_t> spare = pool.buffer(300);
  const std::uint8_t* storage = spare.data();
  pool.recycle(std::move(spare));

  const std::uint64_t before = alloc_count();
  const ib::Packet copy = pool.copy(original);
  EXPECT_EQ(alloc_count() - before, 0u);
  EXPECT_EQ(copy.payload.data(), storage);
  EXPECT_EQ(copy.serialize(), original.serialize());
}

TEST(PacketPool, DrainedRunLeavesNoSpares) {
  sim::Simulator sim;
  const auto retire_one = [&sim] {
    sim.packets().recycle(sim.packets().buffer(512));
  };
  sim.after(10, retire_one);
  sim.run_until(20);
  EXPECT_EQ(sim.packets().spare_buffers(), 1u) << "run_until keeps spares";
  sim.after(10, retire_one);
  sim.run();
  EXPECT_EQ(sim.packets().spare_buffers(), 0u);
}

TEST(RingQueue, FifoOrderAcrossWraparound) {
  RingQueue<int> q;
  int next_push = 0;
  int next_pop = 0;
  // Keep the queue 3 deep while pushing far past any power-of-two capacity,
  // forcing head/tail to wrap many times.
  for (int i = 0; i < 3; ++i) q.push_back(next_push++);
  for (int round = 0; round < 1000; ++round) {
    ASSERT_EQ(q.front(), next_pop);
    q.pop_front();
    ++next_pop;
    q.push_back(next_push++);
  }
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.at(0), next_pop);
  EXPECT_EQ(q.at(2), next_pop + 2);
}

TEST(RingQueue, GrowthPreservesOrderWithWrappedHead) {
  RingQueue<int> q;
  // Wrap head into the middle of the initial capacity, then overfill so
  // grow() has to relinearize a wrapped range.
  for (int i = 0; i < 8; ++i) q.push_back(i);
  for (int i = 0; i < 5; ++i) q.pop_front();
  for (int i = 8; i < 40; ++i) q.push_back(i);
  ASSERT_EQ(q.size(), 35u);
  for (int expect = 5; expect < 40; ++expect) {
    ASSERT_EQ(q.front(), expect);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, SteadyStatePushPopAllocatesNothing) {
  RingQueue<std::vector<std::uint8_t>> q;
  // Warm up to the high-water mark (16 in flight needs capacity 16).
  for (int i = 0; i < 16; ++i) q.push_back(std::vector<std::uint8_t>(64, 1));
  while (!q.empty()) q.pop_front();
  const std::size_t capacity_before = q.capacity();

  const std::uint64_t allocs_before = alloc_count();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 16; ++i) {
      // Moved-in element: the buffer itself allocates, the queue must not.
      std::vector<std::uint8_t> payload;
      q.push_back(std::move(payload));
    }
    while (!q.empty()) q.pop_front();
  }
  EXPECT_EQ(alloc_count() - allocs_before, 0u);
  EXPECT_EQ(q.capacity(), capacity_before);
}

// --- streaming vs. materializing equivalence ---------------------------------

/// A randomized but always-wellformed packet: every opcode (and thus header
/// combination), optional GRH, payload sizes spanning empty through MTU.
ib::Packet random_packet(Rng& rng) {
  static constexpr ib::OpCode kOps[] = {
      ib::OpCode::kRcSendFirst, ib::OpCode::kRcSendMiddle,
      ib::OpCode::kRcSendLast,  ib::OpCode::kRcSendOnly,
      ib::OpCode::kRcAck,       ib::OpCode::kRcRdmaWriteOnly,
      ib::OpCode::kUdSendOnly,
  };
  ib::Packet pkt;
  const auto op = kOps[rng.uniform(std::size(kOps))];
  pkt.bth.opcode = op;
  pkt.lrh.vl = static_cast<std::uint8_t>(rng.uniform(16));
  pkt.lrh.slid = static_cast<std::uint16_t>(rng.uniform(1 << 16));
  pkt.lrh.dlid = static_cast<std::uint16_t>(rng.uniform(1 << 16));
  pkt.bth.pkey = static_cast<std::uint16_t>(rng.uniform(1 << 16));
  pkt.bth.dest_qp = static_cast<std::uint32_t>(rng.uniform(1 << 24));
  pkt.bth.psn = static_cast<std::uint32_t>(rng.uniform(1 << 24));
  pkt.bth.resv8a = static_cast<std::uint8_t>(rng.uniform(256));
  if (rng.bernoulli(0.5)) {
    ib::Grh grh;
    grh.tclass = static_cast<std::uint8_t>(rng.uniform(256));
    grh.flow_label = static_cast<std::uint32_t>(rng.uniform(1 << 20));
    grh.hop_limit = static_cast<std::uint8_t>(rng.uniform(256));
    for (auto& b : grh.sgid) b = static_cast<std::uint8_t>(rng.uniform(256));
    for (auto& b : grh.dgid) b = static_cast<std::uint8_t>(rng.uniform(256));
    pkt.grh = grh;
    pkt.lrh.lnh = 3;
  }
  if (ib::opcode_has_deth(op)) {
    pkt.deth = ib::Deth{static_cast<std::uint32_t>(rng.next_u32()),
                        static_cast<std::uint32_t>(rng.uniform(1 << 24))};
  }
  if (ib::opcode_has_reth(op)) {
    ib::Reth reth;
    reth.va = rng.next_u64();
    reth.dma_len = rng.next_u32();
    pkt.reth = reth;
  }
  if (ib::opcode_has_aeth(op)) {
    ib::Aeth aeth;
    aeth.syndrome = static_cast<std::uint8_t>(rng.uniform(256));
    aeth.msn = static_cast<std::uint32_t>(rng.uniform(1 << 24));
    pkt.aeth = aeth;
  }
  const std::size_t payload_size = rng.uniform(2049);  // 0 .. 2048
  pkt.payload.resize(payload_size);
  for (auto& b : pkt.payload) b = static_cast<std::uint8_t>(rng.uniform(256));
  pkt.finalize();
  return pkt;
}

// The ICRC's variant-field masking, restated over a wire image: LRH.VL
// nibble, GRH tclass/flow_label/hop_limit and BTH.resv8a become one-bits.
void mask_variant_fields(const ib::Packet& pkt,
                         std::vector<std::uint8_t>& bytes) {
  bytes[0] |= 0xF0;
  std::size_t bth = ib::Lrh::kWireSize;
  if (pkt.grh) {
    const std::size_t grh = ib::Lrh::kWireSize;
    bytes[grh] |= 0x0F;
    for (const std::size_t i : {1u, 2u, 3u, 7u}) bytes[grh + i] = 0xFF;
    bth += ib::Grh::kWireSize;
  }
  bytes[bth + 4] = 0xFF;
}

TEST(StreamingEquivalence, ScratchSerializersMatchMaterializers) {
  Rng rng(0xC0FFEE);
  std::vector<std::uint8_t> scratch;  // reused across packets, as on the hot path
  for (int trial = 0; trial < 200; ++trial) {
    const ib::Packet pkt = random_packet(rng);
    const auto wire = pkt.serialize();
    EXPECT_EQ(wire.size(), pkt.wire_size());
    // The ICRC covers the wire image up to the ICRC field, masked.
    std::vector<std::uint8_t> want(wire.begin(), wire.end() - 6);
    mask_variant_fields(pkt, want);
    pkt.icrc_covered_into(scratch);
    EXPECT_EQ(scratch, want);
  }
}

TEST(StreamingEquivalence, IncrementalCrcsMatchCoveredByteHashes) {
  Rng rng(0xBEEF01);
  std::vector<std::uint8_t> covered;
  for (int trial = 0; trial < 200; ++trial) {
    const ib::Packet pkt = random_packet(rng);
    // Materialize what each CRC covers, then hash it with the reference:
    // the ICRC its masked body, the VCRC the wire image up to the VCRC.
    pkt.icrc_covered_into(covered);
    EXPECT_EQ(pkt.compute_icrc(), crypto::crc32_reference(covered));
    const auto wire = pkt.serialize();
    EXPECT_EQ(pkt.compute_vcrc(),
              crypto::crc16_iba_reference(
                  std::span(wire).first(wire.size() - 2)));
  }
}

TEST(StreamingEquivalence, Crc16IbaChunkedMatchesOneShot) {
  Rng rng(0x51CE);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> data(rng.uniform(4096));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(256));
    crypto::Crc16Iba inc;
    std::size_t offset = 0;
    while (offset < data.size()) {
      const std::size_t take =
          std::min<std::size_t>(1 + rng.uniform(257), data.size() - offset);
      inc.update(std::span(data).subspan(offset, take));
      offset += take;
    }
    EXPECT_EQ(inc.value(), crypto::crc16_iba(data));
  }
}

std::vector<std::uint8_t> random_key(Rng& rng) {
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.uniform(256));
  return key;
}

std::vector<std::uint8_t> random_message(Rng& rng, std::size_t max_size) {
  std::vector<std::uint8_t> msg(rng.uniform(max_size + 1));
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.uniform(256));
  return msg;
}

TEST(StreamingEquivalence, HmacTag32MatchesCopyAndAppendReference) {
  Rng rng(0x33AA);
  for (int trial = 0; trial < 50; ++trial) {
    const auto key = random_key(rng);
    const auto msg = random_message(rng, 3000);
    const std::uint64_t nonce = rng.next_u64();
    const auto mac = crypto::make_mac(crypto::AuthAlgorithm::kHmacSha256, key);
    // Pre-refactor semantics: HMAC over message || nonce_be, leftmost 4
    // bytes big-endian.
    std::vector<std::uint8_t> concat = msg;
    for (int i = 7; i >= 0; --i) {
      concat.push_back(static_cast<std::uint8_t>(nonce >> (8 * i)));
    }
    const auto digest = crypto::Hmac<crypto::Sha256>::mac(key, concat);
    const std::uint32_t expected = static_cast<std::uint32_t>(digest[0]) << 24 |
                                   static_cast<std::uint32_t>(digest[1]) << 16 |
                                   static_cast<std::uint32_t>(digest[2]) << 8 |
                                   digest[3];
    EXPECT_EQ(mac->tag32(msg, nonce), expected);
  }
}

TEST(StreamingEquivalence, EveryMacAlgorithmVerifiesItsOwnPacketTags) {
  Rng rng(0xF00D);
  std::vector<std::uint8_t> scratch;
  for (const auto alg :
       {crypto::AuthAlgorithm::kUmac32, crypto::AuthAlgorithm::kHmacSha256,
        crypto::AuthAlgorithm::kPmac}) {
    const auto key = random_key(rng);
    const auto mac = crypto::make_mac(alg, key);
    for (int trial = 0; trial < 20; ++trial) {
      const ib::Packet pkt = random_packet(rng);
      pkt.icrc_covered_into(scratch);
      const std::uint32_t tag = mac->tag32(scratch, pkt.bth.psn);
      std::vector<std::uint8_t> fresh;
      pkt.icrc_covered_into(fresh);
      EXPECT_EQ(tag, mac->tag32(fresh, pkt.bth.psn));
      EXPECT_TRUE(mac->verify(scratch, pkt.bth.psn, tag));
    }
  }
}

// --- steady-state allocation count -------------------------------------------

// The shape of the hottest real capture in the tree, the switch
// pipeline-delay continuation: packet slot, ingress port and route decision.
struct HotCapture {
  void* a = nullptr;
  void* b = nullptr;
  std::uint64_t c = 0;
  std::uint64_t d = 0;
  std::uint32_t e = 0;
};
static_assert(sizeof(HotCapture) == 40);

TEST(ZeroAllocSteadyState, SelfReschedulingEventsAllocateNothing) {
  sim::Simulator sim;
  struct Chain {
    sim::Simulator* sim;
    std::uint64_t fired = 0;
    void step() {
      HotCapture state;
      state.c = fired;
      sim->after(100, [this, state]() mutable {
        state.d ^= state.c;
        ++fired;
        step();
      });
    }
  };
  std::vector<Chain> chains(64, Chain{&sim});
  for (auto& c : chains) c.step();

  // Warmup: let the event-heap vector reach its steady capacity.
  sim.run_until(100 * 1000);
  const std::uint64_t fired_before =
      std::accumulate(chains.begin(), chains.end(), std::uint64_t{0},
                      [](std::uint64_t acc, const Chain& c) {
                        return acc + c.fired;
                      });
  ASSERT_GT(fired_before, 0u);

  const std::uint64_t allocs_before = alloc_count();
  sim.run_until(100 * 11000);
  const std::uint64_t allocs_after = alloc_count();

  const std::uint64_t fired_after =
      std::accumulate(chains.begin(), chains.end(), std::uint64_t{0},
                      [](std::uint64_t acc, const Chain& c) {
                        return acc + c.fired;
                      });
  ASSERT_GT(fired_after, fired_before + 600'000);
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "scheduling/dispatching " << (fired_after - fired_before)
      << " events allocated " << (allocs_after - allocs_before) << " times";
}

// An output port held 80 packets deep cycles them through enqueue,
// arbitration, dispatch and delivery with no allocation once its ring, the
// packet pool and the event queue have grown: the entries are handles, and
// the packets stay in their pool slots from enqueue to delivery.
TEST(ZeroAllocSteadyState, CongestedPortAllocatesNothing) {
  // Takes each arriving packet back for the next round and frees its buffer
  // bytes, so credits flow back to the port.
  struct Sink final : fabric::Device {
    fabric::InputPort in;
    std::vector<ib::Packet> arrived;
    void packet_arrived(ib::Packet&& pkt, int /*in_port*/) override {
      const ib::VirtualLane vl = pkt.lrh.vl;
      in.accept(pkt, vl);
      in.release(pkt, vl);
      arrived.push_back(std::move(pkt));
    }
    std::string name() const override { return "sink"; }
  };
  constexpr std::size_t kDepth = 80;
  sim::Simulator sim;
  const fabric::LinkParams params;
  fabric::OutputPort port(sim, params, "congested");
  Sink sink;
  sink.in = fabric::InputPort(port);
  sink.arrived.reserve(kDepth);
  port.connect(&sink, 0);
  std::vector<ib::Packet> batch(kDepth, make_ud_packet(256));
  for (ib::Packet& pkt : batch) pkt.lrh.vl = 0;

  std::uint64_t steady_allocs = 0;
  std::size_t peak_depth = 0;
  for (int round = 0; round < 8; ++round) {
    const std::uint64_t before = alloc_count();
    for (ib::Packet& pkt : batch) {
      port.enqueue(sim.packets().acquire(std::move(pkt)), 0);
    }
    peak_depth = std::max(peak_depth, port.queue_depth(0));
    sim.run();
    if (round >= 2) steady_allocs += alloc_count() - before;
    ASSERT_EQ(sink.arrived.size(), kDepth);
    std::swap(batch, sink.arrived);
    sink.arrived.clear();
  }
  EXPECT_GE(peak_depth, 64u);
  EXPECT_EQ(port.packets_sent(), 8 * kDepth);
  EXPECT_EQ(sim.packets().in_use(), 0u);
  EXPECT_EQ(steady_allocs, 0u)
      << "6 rounds of " << kDepth << " packets through a congested port";
}

// UD SENDs from one CA to another across a two-switch fabric, one in flight
// at a time: once the pools, queues and lazily-made counters have grown, a
// post, its crossing and its delivery allocate nothing. The payload comes
// from the packet pool and goes back to it when the receiving CA retires
// the packet.
TEST(ZeroAllocSteadyState, UdPostToDeliveryAllocatesNothing) {
  fabric::FabricConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 1;
  fabric::Fabric fabric(cfg);
  transport::PkiDirectory pki;
  transport::ChannelAdapter src(fabric, 0, pki, /*key_seed=*/42,
                                /*rsa_bits=*/256);
  transport::ChannelAdapter dst(fabric, 1, pki, /*key_seed=*/42,
                                /*rsa_bits=*/256);
  const auto& src_qp =
      src.create_qp(transport::ServiceType::kUnreliableDatagram,
                    ib::kDefaultPKey);
  const auto& dst_qp =
      dst.create_qp(transport::ServiceType::kUnreliableDatagram,
                    ib::kDefaultPKey);
  std::uint64_t delivered = 0;
  dst.set_message_handler(
      [&delivered](std::span<const std::uint8_t> message,
                   const transport::QueuePair&) {
        if (message.size() == 1024 && message[0] == 0x5A) ++delivered;
      });
  sim::Simulator& sim = fabric.simulator();
  const auto post_and_deliver = [&](int packets) {
    for (int i = 0; i < packets; ++i) {
      std::vector<std::uint8_t> payload = sim.packets().buffer(1024);
      payload.assign(1024, 0x5A);
      EXPECT_TRUE(src.post_send(src_qp.qpn, std::move(payload),
                                ib::PacketMeta::TrafficClass::kBestEffort,
                                dst.node(), dst_qp.qpn, dst_qp.qkey));
      sim.run_until(sim.now() + 20 * time_literals::kMicrosecond);
    }
  };
  post_and_deliver(50);  // warm-up
  ASSERT_EQ(delivered, 50u);

  const std::uint64_t before = alloc_count();
  post_and_deliver(1000);
  const std::uint64_t allocs = alloc_count() - before;
  EXPECT_EQ(delivered, 1050u);
  EXPECT_EQ(sim.packets().in_use(), 0u);
  EXPECT_EQ(allocs, 0u) << "1000 UD posts, crossings and deliveries";
}

// Computing and checking both CRCs is heap-free, on a packet whose pieces
// all take the table kernel (64 B) and on one whose payload folds (1 KB).
TEST(ZeroAllocSteadyState, PacketCrcsAllocateNothing) {
  for (const std::size_t wire_size : {std::size_t{64}, std::size_t{1024}}) {
    ib::Packet pkt;
    pkt.bth.opcode = ib::OpCode::kUdSendOnly;
    pkt.deth = ib::Deth{0x1234, 7};
    pkt.payload.resize(wire_size - pkt.wire_size(), 0x5A);
    ASSERT_EQ(pkt.wire_size(), wire_size);

    const std::uint64_t before = alloc_count();
    pkt.finalize();
    const bool icrc_ok = pkt.icrc_valid();
    const bool vcrc_ok = pkt.vcrc_valid();
    const std::uint64_t allocs = alloc_count() - before;

    EXPECT_TRUE(icrc_ok);
    EXPECT_TRUE(vcrc_ok);
    EXPECT_EQ(allocs, 0u) << wire_size << " B packet";
  }
}

// The AES users on the per-packet and key-drawing paths are heap-free once
// keyed: a DRBG draw into a caller's span, a UMAC-32 tag and a PMAC tag,
// each on a 64 B and a 1 KB message.
TEST(ZeroAllocSteadyState, DrbgDrawAndAesMacTagsAllocateNothing) {
  crypto::CtrDrbg drbg(std::uint64_t{2005});
  const std::vector<std::uint8_t> key = drbg.generate(crypto::Umac32::kKeySize);
  const crypto::Umac32 umac(key);
  const crypto::Pmac pmac(key);
  std::vector<std::uint8_t> message(1024);
  std::vector<std::uint8_t> draw(100);
  for (const std::size_t size : {std::size_t{64}, std::size_t{1024}}) {
    const auto msg = std::span<const std::uint8_t>(message).first(size);
    const std::uint64_t before = alloc_count();
    drbg.generate(std::span<std::uint8_t>(draw));
    const std::uint32_t umac_tag = umac.tag(msg, size);
    const std::uint32_t pmac_tag = pmac.tag32(msg, size);
    const std::uint64_t allocs = alloc_count() - before;
    EXPECT_EQ(allocs, 0u) << size << " B message";
    EXPECT_TRUE(umac.verify(msg, size, umac_tag));
    EXPECT_EQ(pmac.tag32(msg, size), pmac_tag);
  }
}

}  // namespace
}  // namespace ibsec
