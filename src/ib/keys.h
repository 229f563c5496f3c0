// IBA isolation/protection keys and the memory-region table guarded by
// L_Key/R_Key (paper Table 3 enumerates the exposure consequences of each).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "ib/types.h"

namespace ibsec::ib {

/// Per-node management keys (held by the node, checked on management ops).
struct NodeKeys {
  MKeyValue m_key = 0;  ///< subnet-management authority
  BKeyValue b_key = 0;  ///< baseboard (hardware) management authority
};

/// A registered memory region reachable by RDMA.
struct MemoryRegion {
  std::uint64_t va_base = 0;
  std::uint32_t length = 0;
  RKeyValue rkey = 0;
  LKeyValue lkey = 0;
  bool remote_write = false;
};

/// The HCA's memory translation & protection table. RDMA requests name a
/// region by R_Key; the destination QP does not intervene (that is the whole
/// point of RDMA, and why a leaked R_Key is dangerous — paper Table 3).
class MemoryRegionTable {
 public:
  /// Registers a region; returns false if the R_Key is already in use.
  bool register_region(const MemoryRegion& region) {
    return regions_.emplace(region.rkey, region).second;
  }

  /// Validates an RDMA WRITE: R_Key exists, [va, va+len) within bounds,
  /// and the region allows remote writes. Returns the region on success.
  std::optional<MemoryRegion> check_access(RKeyValue rkey, std::uint64_t va,
                                           std::uint32_t len) const {
    const auto it = regions_.find(rkey);
    if (it == regions_.end()) return std::nullopt;
    const MemoryRegion& r = it->second;
    if (va < r.va_base || va + len > r.va_base + r.length) return std::nullopt;
    if (!r.remote_write) return std::nullopt;
    return r;
  }

  std::size_t size() const { return regions_.size(); }

 private:
  // Key-ordered so traversal (snapshots, iteration in future audits) is a
  // deterministic function of the registered regions, not of hash layout.
  std::map<RKeyValue, MemoryRegion> regions_;
};

/// A port's partition table: the set of P_Keys it is a member of
/// (IBA 10.9). Lookup cost in hardware is what Table 2 models as f(p).
class PartitionTable {
 public:
  void add(PKeyValue pkey) { pkeys_.push_back(pkey); }
  void clear() { pkeys_.clear(); }
  std::size_t size() const { return pkeys_.size(); }
  const std::vector<PKeyValue>& entries() const { return pkeys_; }

  /// True if any table entry matches `pkey` under the IBA membership rule.
  bool contains(PKeyValue pkey) const {
    for (PKeyValue entry : pkeys_) {
      if (pkeys_match(entry, pkey)) return true;
    }
    return false;
  }

 private:
  std::vector<PKeyValue> pkeys_;
};

}  // namespace ibsec::ib
