#include "obs/registry.h"

#include <cmath>

#include "obs/format.h"

namespace ibsec::obs {

// --- Snapshot ----------------------------------------------------------------

std::int64_t Snapshot::at(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

bool glob_match(std::string_view pattern, std::string_view name) {
  // Iterative glob with '*' backtracking (the classic two-pointer scan).
  std::size_t p = 0, n = 0;
  std::size_t star = std::string_view::npos, restart = 0;
  while (n < name.size()) {
    if (p < pattern.size() &&
        (pattern[p] == name[n])) {
      ++p;
      ++n;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      restart = n;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      n = ++restart;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::int64_t Snapshot::sum_matching(std::string_view pattern) const {
  std::int64_t sum = 0;
  for (const auto& [name, value] : values) {
    if (glob_match(pattern, name)) sum += value;
  }
  return sum;
}

std::string Snapshot::to_json() const {
  TextBuilder out;
  out.text('{');
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) out.text(',');
    first = false;
    // Metric names never contain quotes or backslashes.
    out.text("\n  \"").text(name).text("\": ").integer(value);
  }
  out.text(first ? "}" : "\n}").text('\n');
  return out.take();
}

std::string Snapshot::to_csv() const {
  TextBuilder out;
  out.text("name,value\n");
  for (const auto& [name, value] : values) {
    out.text(name).text(',').integer(value).text('\n');
  }
  return out.take();
}

// --- Registry ----------------------------------------------------------------

Registry::Metric* Registry::resolve(const std::string& name, Kind kind) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_.emplace(name, std::make_unique<Metric>(kind)).first;
    (last_created_ != nullptr ? last_created_->next : first_created_) =
        &*it;
    last_created_ = it->second.get();
  } else if (it->second->kind != kind) {
    ++kind_collisions_;
    return nullptr;
  }
  return it->second.get();
}

Counter& Registry::counter(const std::string& name) {
  Metric* m = resolve(name, Kind::kCounter);
  return m != nullptr ? m->counter : sink_counter_;
}

Gauge& Registry::gauge(const std::string& name) {
  Metric* m = resolve(name, Kind::kGauge);
  return m != nullptr ? m->gauge : sink_gauge_;
}

TimeAccumulator& Registry::time_accumulator(const std::string& name) {
  Metric* m = resolve(name, Kind::kTime);
  return m != nullptr ? m->time : sink_time_;
}

Histogram& Registry::histogram(const std::string& name, double upper,
                               int buckets) {
  Metric* m = resolve(name, Kind::kHistogram);
  if (m == nullptr) return sink_hist_;
  if (m->hist == nullptr) {
    m->hist = std::make_unique<Histogram>(upper, buckets);
  }
  return *m->hist;
}

namespace {

// Histogram statistics export as fixed-point x1000 integers.
std::int64_t x1000(double v) { return std::llround(v * 1000.0); }

}  // namespace

template <class Fn>
void Registry::for_each_column(const Entry& entry, Fn&& fn) {
  const std::string& metric_name = entry.first;
  const Metric& metric = *entry.second;
  using Read = std::int64_t (*)(const Metric&);
  const auto add = [&](const char* suffix, Read read) {
    std::string name;  // sized once: a single allocation, as name + suffix
    name.reserve(metric_name.size() + std::char_traits<char>::length(suffix));
    name.append(metric_name).append(suffix);
    fn(Column{std::move(name), metric_name, &metric, read});
  };
  switch (metric.kind) {
    case Kind::kCounter:
      add("", [](const Metric& m) {
        return static_cast<std::int64_t>(m.counter.value());
      });
      break;
    case Kind::kGauge:
      add("", [](const Metric& m) { return m.gauge.value(); });
      add(".hwm", [](const Metric& m) { return m.gauge.high_water(); });
      break;
    case Kind::kTime:
      add(".total_ps", [](const Metric& m) { return m.time.total(); });
      add(".count", [](const Metric& m) {
        return static_cast<std::int64_t>(m.time.count());
      });
      break;
    case Kind::kHistogram:
      add(".count", [](const Metric& m) {
        return static_cast<std::int64_t>(m.hist->total());
      });
      add(".overflow", [](const Metric& m) {
        return static_cast<std::int64_t>(m.hist->overflow());
      });
      add(".p50_x1000",
          [](const Metric& m) { return x1000(m.hist->p50()); });
      add(".p99_x1000",
          [](const Metric& m) { return x1000(m.hist->p99()); });
      add(".p999_x1000",
          [](const Metric& m) { return x1000(m.hist->p999()); });
      // Exact sample extremes: the tail anchors interpolated percentiles
      // can't provide (forensics reads the worst single observation).
      add(".min_x1000",
          [](const Metric& m) { return x1000(m.hist->min()); });
      add(".max_x1000",
          [](const Metric& m) { return x1000(m.hist->max()); });
      break;
  }
}

Registry::Column Registry::kind_collisions_column() {
  return {"obs.kind_collisions", {}, nullptr, nullptr};
}

void Registry::new_columns(ColumnCursor& cursor,
                           std::vector<Column>& out) const {
  const Entry* e =
      cursor.last != nullptr ? cursor.last->second->next : first_created_;
  for (; e != nullptr; e = e->second->next) {
    for_each_column(*e, [&](Column&& column) {
      out.push_back(std::move(column));
    });
    cursor.last = e;
  }
  if (!cursor.collisions && kind_collisions_ > 0) {
    cursor.collisions = true;
    out.push_back(kind_collisions_column());
  }
}

std::int64_t Registry::value(const Column& column) const {
  return column.metric != nullptr
             ? column.read(*column.metric)
             : static_cast<std::int64_t>(kind_collisions_);
}

Snapshot Registry::snapshot() const {
  // Name order, then obs.kind_collisions last: where two metrics export the
  // same key (a counter "x.count" beside a time accumulator "x"), the later
  // assignment wins. TimeSeriesSampler::to_csv resolves such keys the same
  // way.
  Snapshot snap;
  const auto put = [&](Column&& column) {
    const std::int64_t v = value(column);
    snap.values[std::move(column.name)] = v;
  };
  for (const Entry& entry : metrics_) for_each_column(entry, put);
  if (kind_collisions_ > 0) put(kind_collisions_column());
  return snap;
}

}  // namespace ibsec::obs
