// MPI-style collective workloads (after MPICH2-over-IB traffic patterns):
// all-to-all personalized exchange, ring and recursive-doubling allreduce,
// and the incast storage pattern — each expressed as a deterministic
// round-based message schedule over the participating ranks.
//
// The schedule is a pure function of (spec, rank count): tests compare the
// delivered message multiset against collective_schedule() exactly, and the
// same spec produces byte-identical traffic on every topology, rerun, and
// sweep worker count. Messages travel as UD SENDs on a dedicated per-rank
// QP in the default partition (a job-wide communicator spanning tenant
// partitions, like a real MPI job), so they pass DPT/IF/SIF filters under
// every mode. Each payload self-describes (step, src rank, dst rank) plus a
// deterministic fill pattern, letting the receiver detect misrouted or
// corrupted deliveries without side channels.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "transport/channel_adapter.h"

namespace ibsec::workload {

struct WorkloadSpec {
  enum class Kind : std::uint8_t {
    kNone = 0,
    kAllToAll = 1,        ///< step s: rank i -> (i+s+1) mod N, N-1 steps
    kAllReduceRing = 2,   ///< 2(N-1) neighbor steps (reduce-scatter+allgather)
    kAllReduceRd = 3,     ///< recursive doubling with pre/post for non-2^k N
    kIncast = 4,          ///< every rank -> one target, one step per round
  };

  Kind kind = Kind::kNone;
  std::size_t bytes = 256;   ///< payload bytes per message (min 16 enforced)
  int rounds = 1;            ///< whole-collective repetitions
  int incast_target = 0;     ///< destination rank for kIncast
  /// Spacing between schedule steps; generous enough that a step drains
  /// before the next begins on an otherwise idle fabric.
  SimTime step_interval = 50 * time_literals::kMicrosecond;

  bool enabled() const { return kind != Kind::kNone; }

  /// Grammar: "alltoall" | "allreduce:algo=ring|rd" | "incast[:target=R]",
  /// all accepting ",bytes=B", ",rounds=R" and ",interval_us=T" parameters.
  static std::optional<WorkloadSpec> parse(std::string_view text);
  std::string to_string() const;
};

/// One scheduled message: `src` rank sends to `dst` rank at step `step`
/// (steps are posted step_interval apart, messages within a step together).
struct CollectiveMessage {
  int src = 0;
  int dst = 0;
  std::uint32_t step = 0;

  friend bool operator==(const CollectiveMessage& a,
                         const CollectiveMessage& b) {
    return a.src == b.src && a.dst == b.dst && a.step == b.step;
  }
  friend bool operator<(const CollectiveMessage& a,
                        const CollectiveMessage& b) {
    if (a.step != b.step) return a.step < b.step;
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  }
};

/// The exact message multiset the workload will post — a pure function of
/// the spec and rank count (the correctness oracle for the tests).
std::vector<CollectiveMessage> collective_schedule(const WorkloadSpec& spec,
                                                   int ranks);

class CollectiveWorkload {
 public:
  /// `cas[r]` is rank r's channel adapter. Creates one UD QP per rank in
  /// the default partition; Q_Keys are treated as pre-shared job state.
  CollectiveWorkload(const WorkloadSpec& spec,
                     std::vector<transport::ChannelAdapter*> cas);

  /// Schedules every step; step s posts at `at + s * spec.step_interval`.
  void start(SimTime at);

  /// Scenario's delivery probe forwards every delivered packet here; the
  /// workload claims the ones addressed to its own QPs and validates them.
  void on_delivered(int node, const ib::Packet& pkt);

  int ranks() const { return static_cast<int>(cas_.size()); }
  int rank_of_node(int node) const;
  ib::Qpn qp_of_rank(int rank) const {
    return qps_.at(static_cast<std::size_t>(rank));
  }

  std::uint64_t posted() const { return posted_; }
  std::uint64_t post_failures() const { return post_failures_; }
  /// Delivered messages in arrival order, as decoded from the payloads.
  const std::vector<CollectiveMessage>& delivered() const {
    return delivered_;
  }
  /// Deliveries whose payload fill did not match the deterministic pattern
  /// (corruption or misrouting slipping past the fabric checks).
  std::uint64_t payload_mismatches() const { return payload_mismatches_; }

 private:
  void post_step(std::uint32_t step);
  std::vector<std::uint8_t> make_payload(const CollectiveMessage& msg) const;

  WorkloadSpec spec_;
  std::vector<transport::ChannelAdapter*> cas_;  // rank -> CA
  std::vector<ib::Qpn> qps_;                     // rank -> collective UD QP
  std::vector<CollectiveMessage> schedule_;
  std::uint32_t num_steps_ = 0;
  std::uint64_t posted_ = 0;
  std::uint64_t post_failures_ = 0;
  std::uint64_t payload_mismatches_ = 0;
  std::vector<CollectiveMessage> delivered_;
  obs::Counter* obs_posted_ = nullptr;
  obs::Counter* obs_delivered_ = nullptr;
  obs::Counter* obs_mismatch_ = nullptr;
};

}  // namespace ibsec::workload
