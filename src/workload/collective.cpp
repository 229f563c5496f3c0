#include "workload/collective.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "common/check.h"

namespace ibsec::workload {

namespace {

constexpr std::size_t kHeaderBytes = 16;  // step, src, dst, magic
constexpr std::uint32_t kMagic = 0x7EEC11C0;

void put_u32(std::vector<std::uint8_t>& buf, std::size_t off,
             std::uint32_t v) {
  buf[off] = static_cast<std::uint8_t>(v);
  buf[off + 1] = static_cast<std::uint8_t>(v >> 8);
  buf[off + 2] = static_cast<std::uint8_t>(v >> 16);
  buf[off + 3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& buf, std::size_t off) {
  return static_cast<std::uint32_t>(buf[off]) |
         static_cast<std::uint32_t>(buf[off + 1]) << 8 |
         static_cast<std::uint32_t>(buf[off + 2]) << 16 |
         static_cast<std::uint32_t>(buf[off + 3]) << 24;
}

/// The deterministic fill byte at offset i of message (src, dst, step).
std::uint8_t fill_byte(const CollectiveMessage& msg, std::size_t i) {
  return static_cast<std::uint8_t>(msg.src * 131 + msg.dst * 17 +
                                   static_cast<int>(msg.step) * 31 +
                                   static_cast<int>(i));
}

bool parse_int_view(std::string_view text, int& out) {
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) return false;
  out = value;
  return true;
}

int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

}  // namespace

std::optional<WorkloadSpec> WorkloadSpec::parse(std::string_view text) {
  WorkloadSpec spec;
  std::string_view kind = text;
  std::string_view params;
  const std::size_t colon = text.find(':');
  if (colon != std::string_view::npos) {
    kind = text.substr(0, colon);
    params = text.substr(colon + 1);
  }

  if (kind == "alltoall") {
    spec.kind = Kind::kAllToAll;
  } else if (kind == "allreduce") {
    spec.kind = Kind::kAllReduceRing;  // until algo= says otherwise
  } else if (kind == "incast") {
    spec.kind = Kind::kIncast;
  } else {
    return std::nullopt;
  }

  while (!params.empty()) {
    const std::size_t comma = params.find(',');
    std::string_view token = params.substr(0, comma);
    params = comma == std::string_view::npos ? std::string_view{}
                                             : params.substr(comma + 1);
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    int number = 0;
    if (key == "algo") {
      if (kind != "allreduce") return std::nullopt;
      if (value == "ring") {
        spec.kind = Kind::kAllReduceRing;
      } else if (value == "rd") {
        spec.kind = Kind::kAllReduceRd;
      } else {
        return std::nullopt;
      }
    } else if (key == "bytes") {
      if (!parse_int_view(value, number) || number < 1) return std::nullopt;
      spec.bytes = static_cast<std::size_t>(number);
    } else if (key == "rounds") {
      if (!parse_int_view(value, number) || number < 1) return std::nullopt;
      spec.rounds = number;
    } else if (key == "target") {
      if (spec.kind != Kind::kIncast || !parse_int_view(value, number) ||
          number < 0) {
        return std::nullopt;
      }
      spec.incast_target = number;
    } else if (key == "interval_us") {
      if (!parse_int_view(value, number) || number < 1) return std::nullopt;
      spec.step_interval = number * time_literals::kMicrosecond;
    } else {
      return std::nullopt;
    }
  }
  return spec;
}

std::string WorkloadSpec::to_string() const {
  const char* head = "";
  switch (kind) {
    case Kind::kNone:
      return "";
    case Kind::kAllToAll:
      head = "alltoall";
      break;
    case Kind::kAllReduceRing:
      head = "allreduce:algo=ring";
      break;
    case Kind::kAllReduceRd:
      head = "allreduce:algo=rd";
      break;
    case Kind::kIncast:
      head = "incast";
      break;
  }
  char buf[160];
  if (kind == Kind::kIncast) {
    std::snprintf(buf, sizeof(buf), "%s:target=%d,bytes=%zu,rounds=%d", head,
                  incast_target, bytes, rounds);
  } else {
    std::snprintf(buf, sizeof(buf), "%s%cbytes=%zu,rounds=%d", head,
                  kind == Kind::kAllToAll ? ':' : ',', bytes, rounds);
  }
  std::string out = buf;
  if (step_interval != WorkloadSpec{}.step_interval) {
    out += ",interval_us=" +
           std::to_string(step_interval / time_literals::kMicrosecond);
  }
  return out;
}

std::vector<CollectiveMessage> collective_schedule(const WorkloadSpec& spec,
                                                   int ranks) {
  std::vector<CollectiveMessage> out;
  if (!spec.enabled() || ranks < 2) return out;
  const int n = ranks;

  // Steps per single collective, so rounds stack back to back.
  std::uint32_t steps_per_round = 0;
  switch (spec.kind) {
    case WorkloadSpec::Kind::kNone:
      return out;
    case WorkloadSpec::Kind::kAllToAll:
      steps_per_round = static_cast<std::uint32_t>(n - 1);
      break;
    case WorkloadSpec::Kind::kAllReduceRing:
      steps_per_round = static_cast<std::uint32_t>(2 * (n - 1));
      break;
    case WorkloadSpec::Kind::kAllReduceRd: {
      const int p2 = floor_pow2(n);
      int log2 = 0;
      while ((1 << log2) < p2) ++log2;
      steps_per_round =
          static_cast<std::uint32_t>(log2 + (n > p2 ? 2 : 0));
      break;
    }
    case WorkloadSpec::Kind::kIncast:
      steps_per_round = 1;
      break;
  }

  for (int round = 0; round < spec.rounds; ++round) {
    const std::uint32_t base =
        static_cast<std::uint32_t>(round) * steps_per_round;
    switch (spec.kind) {
      case WorkloadSpec::Kind::kNone:
        break;
      case WorkloadSpec::Kind::kAllToAll:
        // Round-robin pairing: step s, rank i sends its block to (i+s+1)%n.
        // Exactly n*(n-1) messages per round, each ordered pair once.
        for (std::uint32_t s = 0; s + 1 < static_cast<std::uint32_t>(n);
             ++s) {
          for (int i = 0; i < n; ++i) {
            out.push_back(
                {i, (i + static_cast<int>(s) + 1) % n, base + s});
          }
        }
        break;
      case WorkloadSpec::Kind::kAllReduceRing:
        // Reduce-scatter then allgather: 2(n-1) neighbor steps, every rank
        // passing one chunk to (i+1)%n per step.
        for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(2 * (n - 1));
             ++s) {
          for (int i = 0; i < n; ++i) out.push_back({i, (i + 1) % n, base + s});
        }
        break;
      case WorkloadSpec::Kind::kAllReduceRd: {
        // MPICH-style recursive doubling: non-power-of-two ranks fold into
        // the low ranks first (pre), the 2^k survivors pairwise exchange
        // for log2 steps, then the folded ranks get the result back (post).
        const int p2 = floor_pow2(n);
        const int extra = n - p2;
        std::uint32_t s = base;
        if (extra > 0) {
          for (int i = 0; i < extra; ++i) out.push_back({p2 + i, i, s});
          ++s;
        }
        for (int bit = 1; bit < p2; bit <<= 1) {
          for (int i = 0; i < p2; ++i) out.push_back({i, i ^ bit, s});
          ++s;
        }
        if (extra > 0) {
          for (int i = 0; i < extra; ++i) out.push_back({i, p2 + i, s});
        }
        break;
      }
      case WorkloadSpec::Kind::kIncast: {
        const int target = ((spec.incast_target % n) + n) % n;
        for (int i = 0; i < n; ++i) {
          if (i != target) out.push_back({i, target, base});
        }
        break;
      }
    }
  }
  return out;
}

CollectiveWorkload::CollectiveWorkload(
    const WorkloadSpec& spec, std::vector<transport::ChannelAdapter*> cas)
    : spec_(spec), cas_(std::move(cas)) {
  IBSEC_CHECK(!cas_.empty()) << "collective workload needs participants";
  // The communicator spans partitions, so the collective QPs live in the
  // default partition (present in every CA and ingress-filter table).
  qps_.reserve(cas_.size());
  for (transport::ChannelAdapter* ca : cas_) {
    qps_.push_back(ca->create_qp(transport::ServiceType::kUnreliableDatagram,
                                 ib::kDefaultPKey)
                       .qpn);
  }
  schedule_ = collective_schedule(spec_, ranks());
  for (const CollectiveMessage& msg : schedule_) {
    num_steps_ = std::max(num_steps_, msg.step + 1);
  }
  auto& reg = cas_.front()->fabric().simulator().obs();
  obs_posted_ = &reg.counter("collective.posted");
  obs_delivered_ = &reg.counter("collective.delivered");
  obs_mismatch_ = &reg.counter("collective.payload_mismatch");
}

int CollectiveWorkload::rank_of_node(int node) const {
  for (std::size_t r = 0; r < cas_.size(); ++r) {
    if (cas_[r]->node() == node) return static_cast<int>(r);
  }
  return -1;
}

SimTime CollectiveWorkload::span() const {
  return num_steps_ == 0 ? 0 : (num_steps_ - 1) * spec_.step_interval;
}

std::vector<std::uint8_t> CollectiveWorkload::make_payload(
    const CollectiveMessage& msg) const {
  std::vector<std::uint8_t> payload(std::max(spec_.bytes, kHeaderBytes));
  put_u32(payload, 0, msg.step);
  put_u32(payload, 4, static_cast<std::uint32_t>(msg.src));
  put_u32(payload, 8, static_cast<std::uint32_t>(msg.dst));
  put_u32(payload, 12, kMagic);
  for (std::size_t i = kHeaderBytes; i < payload.size(); ++i) {
    payload[i] = fill_byte(msg, i);
  }
  return payload;
}

void CollectiveWorkload::start(SimTime at) {
  auto& sim = cas_.front()->fabric().simulator();
  for (std::uint32_t step = 0; step < num_steps_; ++step) {
    sim.at(at + static_cast<SimTime>(step) * spec_.step_interval,
           [this, step] { post_step(step); });
  }
}

void CollectiveWorkload::post_step(std::uint32_t step) {
  for (const CollectiveMessage& msg : schedule_) {
    if (msg.step != step) continue;
    transport::ChannelAdapter& src = *cas_[static_cast<std::size_t>(msg.src)];
    transport::ChannelAdapter& dst = *cas_[static_cast<std::size_t>(msg.dst)];
    const ib::Qpn dst_qp = qps_[static_cast<std::size_t>(msg.dst)];
    // Q_Keys are pre-shared job state, like the baseline traffic sources.
    const ib::QKeyValue qkey = dst.find_qp(dst_qp)->qkey;
    if (src.post_send(qps_[static_cast<std::size_t>(msg.src)],
                      make_payload(msg),
                      ib::PacketMeta::TrafficClass::kBestEffort, dst.node(),
                      dst_qp, qkey)) {
      ++posted_;
      obs_posted_->inc();
    } else {
      ++post_failures_;
    }
  }
}

void CollectiveWorkload::on_delivered(int node, const ib::Packet& pkt) {
  const int rank = rank_of_node(node);
  if (rank < 0) return;
  if (pkt.bth.dest_qp != qps_[static_cast<std::size_t>(rank)]) return;
  if (pkt.payload.size() < kHeaderBytes || get_u32(pkt.payload, 12) != kMagic) {
    return;  // not a collective payload (stray traffic to our QP)
  }
  CollectiveMessage msg;
  msg.step = get_u32(pkt.payload, 0);
  msg.src = static_cast<int>(get_u32(pkt.payload, 4));
  msg.dst = static_cast<int>(get_u32(pkt.payload, 8));
  bool ok = msg.dst == rank;
  for (std::size_t i = kHeaderBytes; ok && i < pkt.payload.size(); ++i) {
    ok = pkt.payload[i] == fill_byte(msg, i);
  }
  if (!ok) {
    ++payload_mismatches_;
    obs_mismatch_->inc();
    return;
  }
  delivered_.push_back(msg);
  obs_delivered_->inc();
}

}  // namespace ibsec::workload
