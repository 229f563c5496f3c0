// QP-level key management — per-QP-pair secrets and RDMA protection.
//
// Demonstrates the paper's finer-grained scheme (sec. 4.3):
//  1. UD: a client asks a datagram server for its Q_Key; the response
//     carries a fresh per-requester secret (RSA-wrapped). Two clients of
//     the same server end up with different secrets, indexed at the server
//     by (Q_Key, source QP) as in paper Figure 3.
//  2. RC + RDMA: an RC pair establishes a connection secret; RDMA WRITEs
//     are then authenticated per-QP, which closes the R_Key exposure hole
//     that partition-level keys cannot (an in-partition attacker with the
//     R_Key still fails).
#include <cstdio>

#include "common/hex.h"
#include "security/auth_engine.h"
#include "security/qp_key_manager.h"
#include "transport/subnet_manager.h"

using namespace ibsec;

int main() {
  fabric::FabricConfig config;
  fabric::Fabric fabric(config);
  transport::PkiDirectory pki;
  std::vector<std::unique_ptr<transport::ChannelAdapter>> cas;
  for (int node = 0; node < fabric.node_count(); ++node) {
    cas.push_back(
        std::make_unique<transport::ChannelAdapter>(fabric, node, pki, 13));
  }
  std::vector<transport::ChannelAdapter*> ptrs;
  for (auto& ca : cas) ptrs.push_back(ca.get());
  transport::SubnetManager sm(fabric, ptrs, 0, 13);
  sm.assign_m_keys();
  constexpr ib::PKeyValue kPkey = 0x8055;
  sm.create_partition(kPkey, {1, 2, 3, 6});

  std::vector<std::unique_ptr<security::AuthEngine>> engines;
  std::vector<std::unique_ptr<security::QpKeyManager>> keys;
  for (auto& ca : cas) {
    engines.push_back(std::make_unique<security::AuthEngine>(*ca));
    keys.push_back(std::make_unique<security::QpKeyManager>(*ca));
    engines.back()->set_key_manager(keys.back().get());
    engines.back()->enable_for_partition(kPkey);
  }

  // --- UD: Q_Key request/response with per-requester secrets ---------------
  auto& server = cas[6]->create_qp(
      transport::ServiceType::kUnreliableDatagram, kPkey);
  auto& client_a = cas[1]->create_qp(
      transport::ServiceType::kUnreliableDatagram, kPkey);
  auto& client_b = cas[2]->create_qp(
      transport::ServiceType::kUnreliableDatagram, kPkey);

  keys[1]->add_qkey_ready_callback([&](int node, ib::Qpn qp,
                                       ib::QKeyValue qkey) {
    std::printf("[node 1] learned Q_Key 0x%08x for QP %u@node %d + fresh "
                "secret\n", qkey, qp, node);
    cas[1]->post_send(client_a.qpn, ascii_bytes("from client A"),
                      ib::PacketMeta::TrafficClass::kBestEffort, node, qp,
                      qkey);
  });
  keys[2]->add_qkey_ready_callback([&](int node, ib::Qpn qp,
                                       ib::QKeyValue qkey) {
    std::printf("[node 2] learned Q_Key 0x%08x + its own secret\n", qkey);
    cas[2]->post_send(client_b.qpn, ascii_bytes("from client B"),
                      ib::PacketMeta::TrafficClass::kBestEffort, node, qp,
                      qkey);
  });
  cas[6]->set_receive_handler(
      [](const ib::Packet& pkt, const transport::QueuePair&) {
        std::printf("[node 6] verified and accepted \"%s\"\n",
                    std::string(pkt.payload.begin(), pkt.payload.end())
                        .c_str());
      });

  std::printf("--- UD Q_Key exchange ---\n");
  keys[1]->request_qkey(client_a.qpn, 6, server.qpn);
  keys[2]->request_qkey(client_b.qpn, 6, server.qpn);
  fabric.simulator().run();
  std::printf("server now holds %zu per-requester secrets for one Q_Key "
              "(paper Fig. 3 table)\n\n",
              keys[6]->ud_rx_secret_count());

  // --- RC + RDMA: closing the R_Key hole ------------------------------------
  std::printf("--- RC connect + authenticated RDMA ---\n");
  auto& rc_client = cas[3]->create_qp(
      transport::ServiceType::kReliableConnection, kPkey);
  auto& rc_server = cas[6]->create_qp(
      transport::ServiceType::kReliableConnection, kPkey);
  cas[3]->bind_rc(rc_client.qpn, 6, rc_server.qpn);
  cas[6]->bind_rc(rc_server.qpn, 3, rc_client.qpn);

  ib::MemoryRegion region;
  region.va_base = 0x9000;
  region.length = 128;
  region.rkey = 0xBEEF;
  region.remote_write = true;
  cas[6]->register_memory(region, std::vector<std::uint8_t>(128, 0));

  keys[3]->establish_rc(rc_client.qpn, 6, rc_server.qpn);
  fabric.simulator().run();

  cas[3]->post_rdma_write(rc_client.qpn, 0x9000, 0xBEEF,
                          ascii_bytes("GOOD"),
                          ib::PacketMeta::TrafficClass::kBestEffort);
  fabric.simulator().run();
  std::printf("[node 6] RDMA writes applied: %llu, memory[0..3] = %c%c%c%c\n",
              static_cast<unsigned long long>(
                  cas[6]->counters().rdma_writes_applied),
              (*cas[6]->memory_of(0xBEEF))[0], (*cas[6]->memory_of(0xBEEF))[1],
              (*cas[6]->memory_of(0xBEEF))[2], (*cas[6]->memory_of(0xBEEF))[3]);

  // Node 1 is in the same partition and captured the R_Key — under
  // partition-level keys it could tamper; under QP-level keys it cannot.
  std::printf("[node 1] in-partition attacker forging RDMA with captured "
              "R_Key...\n");
  ib::Packet forged;
  forged.lrh.vl = fabric::kBestEffortVl;
  forged.lrh.slid = fabric.lid_of_node(1);
  forged.lrh.dlid = fabric.lid_of_node(6);
  forged.bth.opcode = ib::OpCode::kRcRdmaWriteOnly;
  forged.bth.pkey = kPkey;
  forged.bth.dest_qp = rc_server.qpn;
  forged.reth = ib::Reth{0x9000, 0xBEEF, 4};
  forged.payload = ascii_bytes("EVIL");
  forged.finalize();
  cas[1]->inject_raw(std::move(forged));
  fabric.simulator().run();
  std::printf("[node 6] RDMA writes applied: %llu (unchanged), "
              "rejected unauthenticated: %llu, memory still \"%c%c%c%c\"\n",
              static_cast<unsigned long long>(
                  cas[6]->counters().rdma_writes_applied),
              static_cast<unsigned long long>(
                  cas[6]->retire_obs().auth_missing->value()),
              (*cas[6]->memory_of(0xBEEF))[0], (*cas[6]->memory_of(0xBEEF))[1],
              (*cas[6]->memory_of(0xBEEF))[2], (*cas[6]->memory_of(0xBEEF))[3]);
  return 0;
}
