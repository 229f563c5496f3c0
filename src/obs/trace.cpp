#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <iostream>
#include <numeric>

#include "common/check.h"
#include "obs/format.h"

namespace ibsec::obs {
namespace {

// splitmix64 finalizer: the sampling decision must depend only on
// (sample_seed, packet serial), never on allocation order or wall clock.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// (key, record index) pairs: the exports order the stored events through
// these, never by moving the events themselves.
using RecordKeys = std::vector<std::pair<std::uint64_t, std::uint32_t>>;

// Record keys for `events`, in record order.
template <class KeyOf>
RecordKeys record_keys(const EventView& events, KeyOf key_of) {
  IBSEC_CHECK(events.size() <= UINT32_MAX) << "trace too large to index";
  RecordKeys keys(events.size());
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    keys[i] = {key_of(events[i]), i};
  }
  return keys;
}

// Sorts record-order keys by key, keeping record order among equal keys.
// A stable LSD radix sort over the keys' spread, 11 bits a pass: a few
// linear passes (two for the trace ids of a wrapped ring) instead of a
// comparison sort's O(n log n) branchy compares. Memory is O(events)
// whatever the key range.
void sort_by_key(RecordKeys& keys) {
  constexpr unsigned kBits = 11;
  constexpr std::uint64_t kMask = (1u << kBits) - 1;
  if (keys.size() < 2) return;
  const auto [lo, hi] = std::minmax_element(
      keys.begin(), keys.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::uint64_t base = lo->first;
  const std::uint64_t spread = hi->first - base;
  RecordKeys scratch(keys.size());
  for (unsigned shift = 0; shift < 64 && (spread >> shift) != 0;
       shift += kBits) {
    std::array<std::uint32_t, kMask + 2> next{};  // bucket starts
    for (const auto& k : keys) ++next[((k.first - base) >> shift & kMask) + 1];
    std::partial_sum(next.begin(), next.end(), next.begin());
    for (const auto& k : keys) {
      scratch[next[(k.first - base) >> shift & kMask]++] = k;
    }
    keys.swap(scratch);
  }
}

// Formats picoseconds as decimal microseconds ("12.345678") from integer
// arithmetic only — double formatting is locale/libm-dependent and would
// break byte-determinism.
void put_us(TextBuilder& out, SimTime ps) {
  if (ps < 0) {
    out.text('-');
    ps = -ps;
  }
  out.integer(ps / 1'000'000);
  char frac[7] = {'.'};
  std::int64_t rest = ps % 1'000'000;
  for (int i = 6; i > 0; --i, rest /= 10) {
    frac[i] = static_cast<char>('0' + rest % 10);
  }
  out.text(std::string_view(frac, sizeof frac));
}

}  // namespace

const char* to_string(TraceEventType type) {
  switch (type) {
    case TraceEventType::kCreate: return "create";
    case TraceEventType::kInject: return "inject";
    case TraceEventType::kQueueWait: return "vl_queue_wait";
    case TraceEventType::kSerialize: return "serialize";
    case TraceEventType::kSwitch: return "switch_cross";
    case TraceEventType::kSwitchDrop: return "switch_drop";
    case TraceEventType::kLinkFault: return "link_fault";
    case TraceEventType::kMacSign: return "mac_sign";
    case TraceEventType::kMacVerify: return "mac_verify";
    case TraceEventType::kRcRetransmit: return "rc_retransmit";
    case TraceEventType::kRcAck: return "rc_ack";
    case TraceEventType::kRcComplete: return "rc_complete";
    case TraceEventType::kDeliver: return "deliver";
    case TraceEventType::kRetire: return "retire";
  }
  return "unknown";
}

const char* category_of(TraceEventType type) {
  switch (type) {
    case TraceEventType::kCreate:
    case TraceEventType::kInject:
    case TraceEventType::kDeliver:
    case TraceEventType::kRetire:
      return "packet";
    case TraceEventType::kQueueWait:
    case TraceEventType::kSerialize:
    case TraceEventType::kLinkFault:
      return "link";
    case TraceEventType::kSwitch:
    case TraceEventType::kSwitchDrop:
      return "switch";
    case TraceEventType::kMacSign:
    case TraceEventType::kMacVerify:
      return "crypto";
    case TraceEventType::kRcRetransmit:
    case TraceEventType::kRcAck:
    case TraceEventType::kRcComplete:
      return "rc";
  }
  return "packet";
}

TraceRecorder::~TraceRecorder() { install_check_dump(false); }

void TraceRecorder::configure(const TraceConfig& config) {
  config_ = config;
  if (config_.sample_every == 0) config_.sample_every = 1;
  if (config_.capacity == 0) config_.capacity = 1;
  install_check_dump(config_.enabled && config_.dump_on_check_failure);
}

bool TraceRecorder::sampled(std::uint64_t serial) const {
  if (config_.sample_every <= 1) return true;
  return mix64(config_.sample_seed ^ serial) % config_.sample_every == 0;
}

std::uint64_t TraceRecorder::new_packet(int src_node, int dst_node,
                                        int traffic_class, SimTime now) {
  if (!config_.enabled) return 0;
  const std::uint64_t serial = ++serial_;
  if (!sampled(serial)) return kTraceNotSampled;
  ++sampled_;
  instant(serial, TraceEventType::kCreate, src_node, now, {}, dst_node,
          traffic_class);
  return serial;
}

void TraceRecorder::instant(std::uint64_t packet_id, TraceEventType type,
                            int node, SimTime at, std::string detail,
                            std::int64_t a0, std::int64_t a1) {
  if (!config_.enabled || packet_id == 0 || packet_id == kTraceNotSampled) {
    return;
  }
  TraceEvent ev;
  ev.packet_id = packet_id;
  ev.type = type;
  ev.node = node;
  ev.start = at;
  ev.a0 = a0;
  ev.a1 = a1;
  ev.detail = std::move(detail);
  record(std::move(ev));
}

void TraceRecorder::span(std::uint64_t packet_id, TraceEventType type,
                         int node, SimTime start, SimTime duration,
                         std::string detail) {
  if (!config_.enabled || packet_id == 0 || packet_id == kTraceNotSampled) {
    return;
  }
  TraceEvent ev;
  ev.packet_id = packet_id;
  ev.type = type;
  ev.node = node;
  ev.start = start;
  ev.duration = duration;
  ev.detail = std::move(detail);
  record(std::move(ev));
}

void TraceRecorder::record(TraceEvent&& event) {
  ++recorded_;
  if (events_.size() < config_.capacity) {
    events_.push_back(std::move(event));
    return;
  }
  if (!config_.flight_recorder) {
    ++dropped_;  // drop-newest: the front of the run is what we keep
    return;
  }
  // Ring mode: overwrite the oldest slot, keep the newest tail.
  events_[ring_head_] = std::move(event);
  ring_head_ = (ring_head_ + 1) % config_.capacity;
  ++evicted_;
}

EventView TraceRecorder::view() const {
  // ring_head_ is the oldest element once the ring has wrapped (0 before).
  const std::span<const TraceEvent> all(events_);
  return {all.subspan(ring_head_), all.first(ring_head_)};
}

std::vector<TraceEvent> TraceRecorder::events() const {
  const EventView stored = view();
  std::vector<TraceEvent> out;
  out.reserve(stored.size());
  for (std::size_t i = 0; i < stored.size(); ++i) out.push_back(stored[i]);
  return out;
}

std::string TraceRecorder::to_chrome_json() const {
  const EventView stored = view();
  // Chrome's viewer expects ts-ordered input; record order breaks ties so
  // the output is byte-deterministic. Sort (start, record index) keys into
  // a permutation, never the events themselves.
  RecordKeys order = record_keys(stored, [](const TraceEvent& ev) {
    // Flipping the sign bit maps int64 order onto uint64 order.
    return static_cast<std::uint64_t>(ev.start) ^ (std::uint64_t{1} << 63);
  });
  sort_by_key(order);

  TextBuilder out;
  // About 150 bytes per event; pages past the real size stay untouched.
  out.reserve(stored.size() * 192 + 64);
  out.text("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const auto& [key, i] : order) {
    const TraceEvent& ev = stored[i];
    if (!first) out.text(',');
    first = false;
    out.text("{\"name\":\"").text(to_string(ev.type));
    out.text("\",\"cat\":\"").text(category_of(ev.type));
    if (ev.duration > 0) {
      out.text("\",\"ph\":\"X\",\"ts\":");
      put_us(out, ev.start);
      out.text(",\"dur\":");
      put_us(out, ev.duration);
    } else {
      out.text("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
      put_us(out, ev.start);
    }
    out.text(",\"pid\":0,\"tid\":")
        .integer(static_cast<std::int64_t>(ev.packet_id));
    out.text(",\"args\":{\"node\":").integer(ev.node);
    out.text(",\"a0\":").integer(ev.a0);
    out.text(",\"a1\":").integer(ev.a1);
    if (!ev.detail.empty()) {
      // Details are component-chosen literals (port names, drop causes);
      // none contain characters needing JSON escapes.
      out.text(",\"detail\":\"").text(ev.detail).text('"');
    }
    out.text("}}");
  }
  out.text("]}\n");
  return out.take();
}

void TraceRecorder::dump(std::ostream& out, std::size_t last_n) const {
  const EventView all = view();
  const std::size_t begin = all.size() > last_n ? all.size() - last_n : 0;
  out << "[trace] flight recorder tail: " << (all.size() - begin) << " of "
      << all.size() << " stored events (" << recorded_ << " recorded, "
      << evicted_ << " evicted, " << dropped_ << " dropped)\n";
  for (std::size_t i = begin; i < all.size(); ++i) {
    const TraceEvent& ev = all[i];
    out << "[trace] t=" << ev.start << "ps pkt=" << ev.packet_id << " "
        << to_string(ev.type) << " node=" << ev.node;
    if (ev.duration > 0) out << " dur=" << ev.duration << "ps";
    if (!ev.detail.empty()) out << " " << ev.detail;
    out << "\n";
  }
  ++dumps_;
}

void TraceRecorder::check_dump_trampoline(void* self) {
  static_cast<TraceRecorder*>(self)->dump(std::cerr, 64);
  std::cerr.flush();
}

void TraceRecorder::install_check_dump(bool install) {
  if (install == dump_installed_) return;
  if (install) {
    set_check_failure_dump(&TraceRecorder::check_dump_trampoline, this);
  } else {
    set_check_failure_dump(nullptr, nullptr);
  }
  dump_installed_ = install;
}

std::vector<PacketBreakdown> compute_breakdown(EventView events) {
  // Group each packet's events by sorting (trace id, record index) pairs:
  // O(events) memory however sparse the ids, and record order within a
  // packet, which the fold below depends on.
  RecordKeys keys = record_keys(
      events, [](const TraceEvent& ev) { return ev.packet_id; });
  sort_by_key(keys);

  std::vector<PacketBreakdown> out;
  for (std::size_t begin = 0, end = 0; begin < keys.size(); begin = end) {
    const std::uint64_t id = keys[begin].first;
    end = begin;
    while (end < keys.size() && keys[end].first == id) ++end;

    PacketBreakdown b;
    b.packet_id = id;
    SimTime first_inject = -1;
    bool created = false;
    bool delivered = false;
    for (std::size_t k = begin; k < end; ++k) {
      const TraceEvent& ev = events[keys[k].second];
      switch (ev.type) {
        case TraceEventType::kCreate:
          created = true;
          b.created_ps = ev.start;
          b.src_node = ev.node;
          b.dst_node = static_cast<int>(ev.a0);
          b.traffic_class = static_cast<int>(ev.a1);
          break;
        case TraceEventType::kInject:
          if (first_inject < 0 || ev.start < first_inject) {
            first_inject = ev.start;
          }
          break;
        case TraceEventType::kDeliver:
          delivered = true;
          b.delivered_ps = ev.start;
          break;
        case TraceEventType::kMacSign:
          // Only the first sign's modeled pipeline time elapsed before
          // injection; retransmit re-signs are accounted to `retransmit`.
          if (b.crypto_ps == 0) b.crypto_ps = ev.duration;
          break;
        case TraceEventType::kSerialize:
          b.serialize_ps += ev.duration;
          ++b.hops;
          break;
        case TraceEventType::kSwitch:
          b.switch_ps += ev.duration;
          break;
        case TraceEventType::kRcRetransmit:
          ++b.retransmits;
          break;
        default:
          break;
      }
    }
    if (id == 0 || !created || !delivered || first_inject < 0) {
      continue;  // incomplete lifecycle (dropped, in flight, or evicted)
    }
    // The last injection at or before delivery: a retransmit racing past an
    // in-flight delivery must not push `wire` negative.
    SimTime last_inject = first_inject;
    for (std::size_t k = begin; k < end; ++k) {
      const TraceEvent& ev = events[keys[k].second];
      if (ev.type == TraceEventType::kInject && ev.start > last_inject &&
          ev.start <= b.delivered_ps) {
        last_inject = ev.start;
      }
    }
    b.total_ps = b.delivered_ps - b.created_ps;
    b.queuing_ps = first_inject - b.created_ps - b.crypto_ps;
    b.retransmit_ps = last_inject - first_inject;
    b.wire_ps = b.delivered_ps - last_inject;
    out.push_back(b);
  }
  return out;
}

std::string breakdown_csv(EventView events) {
  TextBuilder out;
  out.text(
      "trace_id,src,dst,class,created_ps,delivered_ps,total_ps,queuing_ps,"
      "crypto_ps,retransmit_ps,wire_ps,serialize_ps,switch_ps,hops,"
      "retransmits\n");
  for (const PacketBreakdown& b : compute_breakdown(events)) {
    out.integer(static_cast<std::int64_t>(b.packet_id));
    for (const std::int64_t v :
         {std::int64_t{b.src_node}, std::int64_t{b.dst_node},
          std::int64_t{b.traffic_class}, b.created_ps, b.delivered_ps,
          b.total_ps, b.queuing_ps, b.crypto_ps, b.retransmit_ps, b.wire_ps,
          b.serialize_ps, b.switch_ps, std::int64_t{b.hops},
          std::int64_t{b.retransmits}}) {
      out.text(',').integer(v);
    }
    out.text('\n');
  }
  return out.take();
}

}  // namespace ibsec::obs
