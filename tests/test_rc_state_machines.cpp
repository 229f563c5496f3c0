// RcRequester and RcResponder on a fake wire: no fabric, no channel
// adapter. Each side's RcWire queues what it would send; the fixture moves
// packets between the two sides by hand, so every case chooses exactly
// which packet is lost, reordered, duplicated or forged, and when the
// transport timers fire.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "transport/qp.h"

namespace ibsec::transport {
namespace {

using time_literals::kMicrosecond;
using Verdict = RcResponder::Verdict;

/// Queues every packet instead of sending it.
class FakeWire : public RcWire {
 public:
  ib::Packet to_peer(const QueuePair& qp, ib::OpCode op, ib::Psn psn,
                     ib::PacketMeta::TrafficClass tclass,
                     SimTime created_at) override {
    ib::Packet pkt;
    pkt.bth.opcode = op;
    pkt.bth.dest_qp = qp.peer_qpn;
    pkt.bth.psn = psn;
    pkt.meta.src_qp = qp.qpn;
    pkt.meta.traffic_class = tclass;
    pkt.meta.created_at = created_at;
    return pkt;
  }
  void sign_and_send(ib::Packet&& pkt) override {
    sent.push_back(std::move(pkt));
  }
  std::vector<ib::Packet> take() { return std::exchange(sent, {}); }

  std::vector<ib::Packet> sent;
};

/// One node's side: its RC context on a fake wire and one bound RC QP.
struct Side {
  Side(sim::Simulator& sim, int node, ib::Qpn qpn, ib::Qpn peer_qpn,
       const RcConfig& config)
      : ctx{.wire = wire,
            .sim = sim,
            .node = node,
            .retire = retire,
            .counts = counts},
        qp(ctx) {
    const std::string prefix = "ca." + std::to_string(node) + ".retired.";
    retire.ack = &sim.obs().counter(prefix + "ack");
    retire.nak = &sim.obs().counter(prefix + "nak");
    retire.rc_duplicate = &sim.obs().counter(prefix + "rc_duplicate");
    retire.rc_out_of_order = &sim.obs().counter(prefix + "rc_out_of_order");
    retire.rc_bad_control = &sim.obs().counter(prefix + "rc_bad_control");
    const std::string rc = "ca." + std::to_string(node) + ".rc.";
    ctx.obs.retransmits = &sim.obs().counter(rc + "retransmits");
    ctx.obs.acks = &sim.obs().counter(rc + "acks");
    ctx.obs.naks = &sim.obs().counter(rc + "naks");
    ctx.obs.retry_exhausted = &sim.obs().counter(rc + "retry_exhausted");
    ctx.config = config;
    qp.qpn = qpn;
    qp.peer_node = 1 - node;
    qp.peer_qpn = peer_qpn;
    qp.connected = true;
  }

  /// A request of this QP, taking its next PSN (as the CA's builder does).
  ib::Packet request(ib::OpCode op = ib::OpCode::kRcSendOnly,
                     bool ack_req = false) {
    ib::Packet pkt =
        wire.to_peer(qp, op, qp.take_psn(),
                     ib::PacketMeta::TrafficClass::kBestEffort, -1);
    pkt.bth.ack_req = ack_req;
    return pkt;
  }
  void post(int n, ib::OpCode op = ib::OpCode::kRcSendOnly) {
    for (int i = 0; i < n; ++i) qp.requester.submit(request(op));
  }

  FakeWire wire;
  RcRetireObs retire;
  RcCounts counts;
  RcContext ctx;
  QueuePair qp;
};

RcConfig protocol_config() {
  RcConfig rc;
  rc.enabled = true;
  rc.retransmit_timeout = 20 * kMicrosecond;
  rc.max_retries = 3;
  rc.backoff_shift_cap = 2;
  rc.max_outstanding = 16;
  rc.ack_coalesce = 4;
  rc.ack_delay = 5 * kMicrosecond;
  return rc;
}

ib::Packet control(ib::Qpn dest_qp, std::uint8_t syndrome, ib::Psn msn) {
  ib::Packet pkt;
  pkt.bth.opcode = ib::OpCode::kRcAck;
  pkt.bth.dest_qp = dest_qp;
  pkt.bth.psn = msn;
  pkt.aeth = ib::Aeth{syndrome, msn};
  return pkt;
}

/// Node 0 (QP 2) requests, node 1 (QP 3) responds.
struct RcStateMachines : ::testing::Test {
  void build(const RcConfig& config = protocol_config()) {
    a = std::make_unique<Side>(sim, 0, 2, 3, config);
    b = std::make_unique<Side>(sim, 1, 3, 2, config);
  }

  /// What the channel adapter does with a request that reaches node 1.
  Verdict deliver(const ib::Packet& pkt) {
    const Verdict verdict = b->qp.responder.admit(pkt);
    if (verdict == Verdict::kDeliver) {
      delivered.push_back(pkt.bth.psn);
      b->qp.responder.acknowledge(pkt);
    }
    return verdict;
  }
  /// What the channel adapter does with a control packet at node 0.
  void control_to_a(const ib::Packet& pkt) {
    RcRequester::on_ack(a->ctx, &a->qp, pkt);
  }

  /// Moves packets both ways until neither side sends and no timer is
  /// left. `fault` sees each batch node 0 sends and returns what arrives.
  void exchange(const std::function<std::vector<ib::Packet>(
                    std::vector<ib::Packet>)>& fault = {}) {
    for (int step = 0; step < 100000; ++step) {
      std::vector<ib::Packet> requests = a->wire.take();
      if (fault) requests = fault(std::move(requests));
      for (const ib::Packet& pkt : requests) deliver(pkt);
      const std::vector<ib::Packet> replies = b->wire.take();
      for (const ib::Packet& pkt : replies) control_to_a(pkt);
      if (requests.empty() && replies.empty() && a->wire.sent.empty()) {
        if (sim.pending_events() == 0) return;
        sim.run_until(sim.now() + kMicrosecond);
      }
    }
    FAIL() << "the exchange never went quiet";
  }

  std::vector<ib::Psn> expected_psns(ib::Psn n) const {
    std::vector<ib::Psn> psns(n);
    for (ib::Psn i = 0; i < n; ++i) psns[i] = i;
    return psns;
  }

  sim::Simulator sim;
  std::unique_ptr<Side> a, b;
  std::vector<ib::Psn> delivered;
};

// --- loss, reorder, duplicates -----------------------------------------------

TEST_F(RcStateMachines, LossIsRecoveredExactlyOnceInOrder) {
  build();
  a->post(8);
  bool dropped = false;
  exchange([&](std::vector<ib::Packet> batch) {
    std::erase_if(batch, [&](const ib::Packet& pkt) {
      if (dropped || pkt.bth.psn != 3) return false;
      return dropped = true;
    });
    return batch;
  });
  EXPECT_TRUE(dropped);
  EXPECT_EQ(delivered, expected_psns(8));
  EXPECT_TRUE(a->qp.requester.window().empty());
  EXPECT_FALSE(a->qp.requester.failed());
  EXPECT_GT(a->ctx.obs.retransmits->value(), 0u);
  EXPECT_EQ(b->ctx.obs.naks->value(), 1u);  // one gap, one NAK
}

TEST_F(RcStateMachines, ReorderIsRecoveredExactlyOnceInOrder) {
  build();
  a->post(4);
  bool swapped = false;
  exchange([&](std::vector<ib::Packet> batch) {
    if (!swapped && batch.size() >= 2) {
      std::swap(batch[0], batch[1]);
      swapped = true;
    }
    return batch;
  });
  EXPECT_TRUE(swapped);
  EXPECT_EQ(delivered, expected_psns(4));
  EXPECT_TRUE(a->qp.requester.window().empty());
  EXPECT_GT(b->retire.rc_out_of_order->value(), 0u);
}

TEST_F(RcStateMachines, DuplicatesAreReackedNotRedelivered) {
  build();
  a->post(6);
  std::size_t duplicates = 0;
  exchange([&](std::vector<ib::Packet> batch) {
    std::vector<ib::Packet> twice;
    for (ib::Packet& pkt : batch) {
      twice.push_back(pkt);
      twice.push_back(std::move(pkt));
      ++duplicates;
    }
    return twice;
  });
  EXPECT_EQ(delivered, expected_psns(6));
  EXPECT_EQ(b->retire.rc_duplicate->value(), duplicates);
  EXPECT_TRUE(a->qp.requester.window().empty());
  EXPECT_EQ(a->ctx.obs.retransmits->value(), 0u);
}

TEST_F(RcStateMachines, LostAckIsRecoveredByReackingTheDuplicate) {
  build();
  a->post(1);
  for (const ib::Packet& pkt : a->wire.take()) deliver(pkt);
  sim.run_until(5 * kMicrosecond);     // the delayed ACK goes out...
  ASSERT_EQ(b->wire.take().size(), 1u);  // ...and is lost
  exchange();  // the timer resends PSN 0; its duplicate is re-ACKed
  EXPECT_EQ(delivered, expected_psns(1));
  EXPECT_EQ(b->retire.rc_duplicate->value(), 1u);
  EXPECT_TRUE(a->qp.requester.window().empty());
  EXPECT_FALSE(a->qp.requester.failed());
}

// --- spoofed and malformed control -------------------------------------------

TEST_F(RcStateMachines, SpoofedControlIsRejectedAndChangesNothing) {
  build();
  a->post(3);  // PSNs 0..2 outstanding, next_psn 3
  a->wire.take();
  const ib::Qpn qpn = a->qp.qpn;
  control_to_a(control(qpn, kAethAck, 3));    // ACK at next_psn: never sent
  control_to_a(control(qpn, kAethAck, 999));  // ACK past next_psn
  control_to_a(control(qpn, kAethNakPsnSequence, 4));  // NAK past next_psn
  ib::Packet no_aeth = control(qpn, kAethAck, 1);
  no_aeth.aeth.reset();
  control_to_a(no_aeth);
  EXPECT_EQ(a->retire.rc_bad_control->value(), 4u);
  EXPECT_EQ(a->qp.requester.window().size(), 3u);
  EXPECT_TRUE(a->wire.sent.empty());  // no retransmission was provoked
  EXPECT_EQ(a->retire.ack->value(), 0u);
  EXPECT_EQ(a->retire.nak->value(), 0u);

  // A forged in-window ACK does clear entries, and the spoof is counted.
  ib::Packet forged = control(qpn, kAethAck, 0);
  forged.meta.is_attack = true;
  control_to_a(forged);
  EXPECT_EQ(a->qp.requester.window().size(), 2u);
  ASSERT_NE(a->ctx.obs.spoofed_control_accepted, nullptr);
  EXPECT_EQ(a->ctx.obs.spoofed_control_accepted->value(), 1u);
}

TEST_F(RcStateMachines, AckOnAnEmptyWindowIsAStaleDuplicate) {
  build();
  control_to_a(control(a->qp.qpn, kAethAck, 0));
  EXPECT_EQ(a->retire.ack->value(), 1u);
  EXPECT_EQ(a->retire.rc_bad_control->value(), 0u);
  EXPECT_TRUE(a->qp.requester.window().empty());
  EXPECT_EQ(sim.pending_events(), 0u);  // no timer armed
}

TEST_F(RcStateMachines, ControlForNoBoundQpIsRejected) {
  build();
  RcRequester::on_ack(a->ctx, nullptr, control(99, kAethAck, 0));
  a->qp.connected = false;
  control_to_a(control(a->qp.qpn, kAethAck, 0));
  EXPECT_EQ(a->retire.rc_bad_control->value(), 2u);
}

TEST_F(RcStateMachines, WithoutValidationAFutureAckFlushesTheWindow) {
  RcConfig config = protocol_config();
  config.validate_control = false;  // the rc-spoof campaign's ablation
  build(config);
  a->post(3);
  control_to_a(control(a->qp.qpn, kAethAck, 1000));
  EXPECT_TRUE(a->qp.requester.window().empty());
  EXPECT_EQ(a->retire.rc_bad_control->value(), 0u);
}

// --- ACK coalescing and NAKs ---------------------------------------------------

TEST_F(RcStateMachines, AcksCoalesceAtTheThreshold) {
  build();
  a->post(8);
  for (const ib::Packet& pkt : a->wire.take()) deliver(pkt);
  // ack_coalesce = 4: one cumulative ACK after the 4th and the 8th.
  const std::vector<ib::Packet> acks = b->wire.take();
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[0].aeth->msn, 3u);
  EXPECT_EQ(acks[1].aeth->msn, 7u);
  EXPECT_EQ(b->counts.acks_sent, 2u);
  EXPECT_EQ(b->ctx.obs.acks->value(), 2u);
}

TEST_F(RcStateMachines, AcksCoalesceAtTheDelay) {
  build();
  a->post(2);
  for (const ib::Packet& pkt : a->wire.take()) deliver(pkt);
  EXPECT_TRUE(b->wire.sent.empty());  // below the threshold: not yet
  sim.run_until(5 * kMicrosecond - 1);
  EXPECT_TRUE(b->wire.sent.empty());
  sim.run_until(5 * kMicrosecond);
  const std::vector<ib::Packet> acks = b->wire.take();
  ASSERT_EQ(acks.size(), 1u);  // one ACK for both
  EXPECT_EQ(acks[0].aeth->syndrome, kAethAck);
  EXPECT_EQ(acks[0].aeth->msn, 1u);
}

TEST_F(RcStateMachines, AckReqForcesAnAck) {
  build();
  a->qp.requester.submit(a->request(ib::OpCode::kRcSendOnly, true));
  for (const ib::Packet& pkt : a->wire.take()) deliver(pkt);
  ASSERT_EQ(b->wire.sent.size(), 1u);
  EXPECT_EQ(b->wire.sent[0].aeth->msn, 0u);
}

TEST_F(RcStateMachines, OneNakPerGap) {
  build();
  a->post(5);
  std::vector<ib::Packet> sent = a->wire.take();
  for (std::size_t i = 1; i < sent.size(); ++i) {
    EXPECT_EQ(deliver(sent[i]), Verdict::kDrop);  // PSN 0 lost: 4 OOO
  }
  EXPECT_EQ(b->ctx.obs.naks->value(), 1u);
  EXPECT_EQ(b->counts.rc_out_of_order, 4u);
  std::vector<ib::Packet> naks = b->wire.take();
  ASSERT_EQ(naks.size(), 1u);
  EXPECT_EQ(naks[0].aeth->syndrome, kAethNakPsnSequence);
  EXPECT_EQ(naks[0].aeth->msn, 0u);  // the expected PSN
  // The gap closes; a new gap is a new NAK.
  EXPECT_EQ(deliver(sent[0]), Verdict::kDeliver);
  EXPECT_EQ(deliver(sent[3]), Verdict::kDrop);
  EXPECT_EQ(deliver(sent[4]), Verdict::kDrop);
  EXPECT_EQ(b->ctx.obs.naks->value(), 2u);
}

// --- retry exhaustion ------------------------------------------------------------

TEST_F(RcStateMachines, RetryExhaustionCallsTheErrorHandlerOnce) {
  build();
  int errors = 0;
  a->ctx.on_error = [&](ib::Qpn qpn, ib::Psn oldest) {
    EXPECT_EQ(qpn, a->qp.qpn);
    EXPECT_EQ(oldest, 0u);
    ++errors;
  };
  a->post(2);
  exchange([](std::vector<ib::Packet>) {  // nothing ever arrives
    return std::vector<ib::Packet>{};
  });
  EXPECT_EQ(errors, 1);
  EXPECT_TRUE(a->qp.requester.failed());
  EXPECT_TRUE(a->qp.requester.window().empty());
  EXPECT_TRUE(a->qp.requester.pending().empty());
  EXPECT_EQ(a->ctx.obs.retry_exhausted->value(), 1u);
  // max_retries rounds of the two outstanding requests.
  EXPECT_EQ(a->ctx.obs.retransmits->value(), 2u * 3u);
}

TEST_F(RcStateMachines, FullWindowQueuesInPsnOrder) {
  RcConfig config = protocol_config();
  config.max_outstanding = 2;
  build(config);
  a->post(5);
  EXPECT_EQ(a->qp.requester.window().size(), 2u);
  EXPECT_EQ(a->qp.requester.pending().size(), 3u);
  exchange();
  EXPECT_EQ(delivered, expected_psns(5));
  EXPECT_TRUE(a->qp.requester.pending().empty());
}

// --- fire-and-forget -------------------------------------------------------------

TEST_F(RcStateMachines, FireAndForgetCountsGapsAndAnswersAckReq) {
  build(RcConfig{});  // enabled = false
  a->post(3);
  std::vector<ib::Packet> sent = a->wire.take();
  ASSERT_EQ(sent.size(), 3u);  // straight out, no window
  EXPECT_TRUE(a->qp.requester.window().empty());
  EXPECT_EQ(sim.pending_events(), 0u);  // and no timer
  // PSN 1 is lost: the gap is counted and PSN 2 still delivered.
  EXPECT_EQ(deliver(sent[0]), Verdict::kDeliver);
  EXPECT_EQ(deliver(sent[2]), Verdict::kDeliver);
  EXPECT_EQ(b->counts.rc_out_of_order, 1u);
  EXPECT_EQ(b->retire.rc_out_of_order->value(), 0u);  // not retired
  EXPECT_TRUE(b->wire.sent.empty());                    // no ACK traffic
  // ack_req gets its reply, naming the request's PSN.
  ib::Packet asks = a->request(ib::OpCode::kRcRdmaWriteOnly, true);
  EXPECT_EQ(deliver(asks), Verdict::kDeliver);
  std::vector<ib::Packet> replies = b->wire.take();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].bth.opcode, ib::OpCode::kRcAck);
  EXPECT_EQ(replies[0].aeth->msn, asks.bth.psn);
  EXPECT_EQ(b->counts.acks_sent, 1u);
  EXPECT_EQ(b->ctx.obs.acks->value(), 0u);  // a reply, not a protocol ACK
  // ACKs at the requester are counted and change nothing.
  control_to_a(replies[0]);
  EXPECT_EQ(a->retire.ack->value(), 1u);
}

// --- reassembly --------------------------------------------------------------------

TEST_F(RcStateMachines, SegmentsReassembleAndStrayOnesAreCounted) {
  build();
  const auto segment = [&](ib::OpCode op, std::uint8_t byte) {
    ib::Packet pkt = a->request(op);
    pkt.payload.assign(3, byte);
    return pkt;
  };
  RcResponder& r = b->qp.responder;
  EXPECT_EQ(r.reassemble(segment(ib::OpCode::kRcSendMiddle, 9)), nullptr);
  EXPECT_EQ(b->counts.reassembly_errors, 1u);  // no First before it
  EXPECT_EQ(r.reassemble(segment(ib::OpCode::kRcSendFirst, 1)), nullptr);
  EXPECT_EQ(r.reassemble(segment(ib::OpCode::kRcSendMiddle, 2)), nullptr);
  const auto* message = r.reassemble(segment(ib::OpCode::kRcSendLast, 3));
  ASSERT_NE(message, nullptr);
  EXPECT_EQ(*message, (std::vector<std::uint8_t>{1, 1, 1, 2, 2, 2, 3, 3, 3}));
  EXPECT_EQ(b->counts.reassembly_errors, 1u);
}

}  // namespace
}  // namespace ibsec::transport
