// The enforcement-decision table (obs/decision.h) against what mirrors it.
// The audit schema document must name exactly the table's audit types, and
// for each type exactly its verdicts. Each audited row must also be emitted
// by one of a few short scenarios; a row no scenario reaches is dead and
// goes with its site.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "obs/decision.h"
#include "workload/scenario.h"

namespace ibsec::obs {
namespace {

using namespace time_literals;
using workload::Scenario;
using workload::ScenarioConfig;

/// Audit type -> its verdicts.
using Vocabulary = std::map<std::string, std::set<std::string>>;

Vocabulary table_vocabulary() {
  Vocabulary out;
  for (const DecisionRow& row : kDecisions) {
    if (row.audit_type.empty()) continue;
    out[std::string(row.audit_type)].insert(std::string(row.verdict));
  }
  return out;
}

std::string trim(const std::string& s) {
  const std::size_t begin = s.find_first_not_of(' ');
  if (begin == std::string::npos) return {};
  return s.substr(begin, s.find_last_not_of(' ') - begin + 1);
}

/// Reads every markdown table row of the schema document whose first cell
/// is a backticked type; its second cell lists the verdicts, comma-separated.
Vocabulary doc_vocabulary(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot read " << path;
  Vocabulary out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::size_t type_end = line.find('`', 3);
    const std::size_t cell = line.find('|', type_end);
    const std::size_t cell_end = line.find('|', cell + 1);
    if (type_end == std::string::npos || cell_end == std::string::npos) {
      ADD_FAILURE() << "malformed schema row: " << line;
      continue;
    }
    std::set<std::string>& verdicts = out[line.substr(3, type_end - 3)];
    const std::string list = line.substr(cell + 1, cell_end - cell - 1);
    std::size_t begin = 0;
    while (begin <= list.size()) {
      std::size_t end = list.find(',', begin);
      if (end == std::string::npos) end = list.size();
      verdicts.insert(trim(list.substr(begin, end - begin)));
      begin = end + 1;
    }
  }
  return out;
}

TEST(DecisionTable, AuditSchemaDocMatchesTable) {
  const Vocabulary doc =
      doc_vocabulary(std::string(IBSEC_SOURCE_ROOT) + "/docs/audit_schema.md");
  const Vocabulary table = table_vocabulary();
  ASSERT_FALSE(doc.empty());
  for (const auto& [type, verdicts] : table) {
    const auto it = doc.find(type);
    if (it == doc.end()) {
      ADD_FAILURE() << "audit type " << type
                    << " is in the decision table but not in "
                       "docs/audit_schema.md";
      continue;
    }
    EXPECT_EQ(it->second, verdicts) << "verdicts of " << type;
  }
  for (const auto& [type, verdicts] : doc) {
    EXPECT_TRUE(table.count(type) != 0)
        << "docs/audit_schema.md documents " << type
        << ", which no decision row names";
  }
}

using Emitted = std::set<std::pair<std::string, std::string>>;

void collect(Scenario& scenario, Emitted& emitted) {
  for (const AuditEvent& ev : scenario.fabric().simulator().audit().events()) {
    emitted.emplace(ev.type, ev.verdict);
  }
}

ScenarioConfig short_run() {
  ScenarioConfig cfg;
  cfg.warmup = 50 * kMicrosecond;
  cfg.duration = 500 * kMicrosecond;
  cfg.enable_realtime = false;
  cfg.audit.enabled = true;
  return cfg;
}

ScenarioConfig flood(fabric::FilterMode mode) {
  ScenarioConfig cfg = short_run();
  cfg.num_attackers = 2;
  cfg.fabric.filter_mode = mode;
  return cfg;
}

ScenarioConfig authenticated() {
  ScenarioConfig cfg = short_run();
  cfg.key_management = workload::KeyManagement::kPartitionLevel;
  cfg.auth_enabled = true;
  return cfg;
}

/// A UD packet from `from` to `to` claiming a UMAC tag it guessed.
ib::Packet forged(Scenario& scenario, int from, int to, ib::PKeyValue pkey) {
  fabric::Fabric& fabric = scenario.fabric();
  ib::Packet pkt;
  pkt.lrh.vl = fabric::kBestEffortVl;
  pkt.lrh.slid = fabric.lid_of_node(from);
  pkt.lrh.dlid = fabric.lid_of_node(to);
  pkt.bth.opcode = ib::OpCode::kUdSendOnly;
  pkt.bth.pkey = pkey;
  pkt.bth.resv8a = static_cast<std::uint8_t>(crypto::AuthAlgorithm::kUmac32);
  pkt.bth.dest_qp = 2;
  pkt.deth = ib::Deth{0, 2};
  pkt.payload.assign(64, 0xF0);
  pkt.set_lengths();
  pkt.icrc = 0x12345678;
  pkt.refresh_vcrc();
  return pkt;
}

TEST(DecisionTable, EveryAuditedRowIsEmitted) {
  Emitted emitted;
  const auto run = [&](const ScenarioConfig& cfg) {
    Scenario scenario(cfg);
    scenario.run();
    collect(scenario, emitted);
  };

  // The Fig. 1 flood under each filter: CA P_Key rejects and the traps
  // they raise, then a drop per filter mode.
  run(flood(fabric::FilterMode::kNone));
  run(flood(fabric::FilterMode::kDpt));
  run(flood(fabric::FilterMode::kIf));
  {
    // Bursty attackers let SIF arm and then expire.
    ScenarioConfig cfg = flood(fabric::FilterMode::kSif);
    cfg.duration = 1 * kMillisecond;
    cfg.attack_probability = 0.2;
    run(cfg);
  }
  {
    ScenarioConfig cfg = flood(fabric::FilterMode::kNone);
    cfg.attack_with_valid_pkey = true;
    cfg.fabric.ingress_rate_limit_fraction = 0.1;
    run(cfg);
  }
  {
    ScenarioConfig cfg = short_run();
    cfg.attack = *workload::AttackCampaignSpec::parse(
        "seed=7;attack=scan:count=50,interval=5us");
    run(cfg);
  }
  {
    // Unauthenticated scans, replays against the replay window, and
    // forged traps the SM rejects.
    ScenarioConfig cfg = authenticated();
    cfg.replay_protection = true;
    cfg.fabric.filter_mode = fabric::FilterMode::kSif;
    cfg.attack = *workload::AttackCampaignSpec::parse(
        "seed=41;attack=scan:count=30,interval=15us;"
        "attack=replay:count=30,interval=15us;"
        "attack=trap-forge:count=5,interval=100us");
    run(cfg);
  }
  {
    // Spoofed RC ACKs with validation off: some are rejected as malformed,
    // some clear window entries.
    ScenarioConfig cfg = short_run();
    cfg.enable_rc_messages = true;
    cfg.rc.enabled = true;
    cfg.rc.validate_control = false;
    cfg.attack = *workload::AttackCampaignSpec::parse("seed=3;attack=rc-spoof");
    run(cfg);
  }
  {
    // Guessed tags: one in a partition both ends hold keys for, one under
    // the default P_Key, which has no key.
    Scenario scenario(authenticated());
    scenario.run();
    const std::vector<int>& part = scenario.partition_of_node();
    int from = 1;
    int to = 2;
    for (int node = 2; node < static_cast<int>(part.size()); ++node) {
      if (part[static_cast<std::size_t>(node)] == part[1]) to = node;
    }
    transport::ChannelAdapter& ca = scenario.ca(from);
    ca.inject_raw(
        forged(scenario, from, to, scenario.pkey_of_partition(part[1])));
    ca.inject_raw(forged(scenario, from, to, ib::kDefaultPKey));
    scenario.fabric().simulator().run();
    collect(scenario, emitted);
  }

  for (const DecisionRow& row : kDecisions) {
    if (row.audit_type.empty()) continue;
    EXPECT_TRUE(emitted.count({std::string(row.audit_type),
                               std::string(row.verdict)}) != 0)
        << "no scenario emits " << row.audit_type << "/" << row.verdict
        << " (decision row " << static_cast<int>(row.kind) << ")";
  }
}

}  // namespace
}  // namespace ibsec::obs
