#include "obs/timeseries.h"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "obs/format.h"

namespace ibsec::obs {

void TimeSeriesSampler::discover() {
  std::vector<Registry::Column> born;  // stays unallocated on quiet ticks
  registry_.new_columns(cursor_, born);
  for (Registry::Column& column : born) {
    const bool keep =
        config_.patterns.empty() ||
        std::any_of(config_.patterns.begin(), config_.patterns.end(),
                    [&](const std::string& pattern) {
                      return glob_match(pattern, column.name);
                    });
    if (keep) columns_.push_back(std::move(column));
  }
}

void TimeSeriesSampler::sample(SimTime now) {
  if (rows_.size() >= config_.max_samples) {
    ++dropped_;
    return;
  }
  discover();
  rows_.push_back({now, values_.size(), columns_.size()});
  for (const Registry::Column& column : columns_) {
    values_.push_back(registry_.value(column));
  }
}

bool TimeSeriesSampler::outranks(std::size_t a, std::size_t b) const {
  // Registry::snapshot() assigns in metric-name order with
  // obs.kind_collisions last, so the later assignment wins a shared name.
  const Registry::Column& x = columns_[a];
  const Registry::Column& y = columns_[b];
  return std::tuple(x.metric == nullptr, x.metric_name) >
         std::tuple(y.metric == nullptr, y.metric_name);
}

std::optional<std::int64_t> TimeSeriesSampler::value(
    std::size_t row, std::string_view name) const {
  const Row& r = rows_.at(row);
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < r.width; ++i) {
    if (columns_[i].name == name && (!best || outranks(i, *best))) best = i;
  }
  if (!best) return std::nullopt;
  return values_[r.begin + *best];
}

std::string TimeSeriesSampler::to_csv() const {
  // One CSV column per exported name, sorted. Columns sharing a name (a
  // counter "x.count" beside a time accumulator "x") sort adjacent, lowest
  // precedence first, and each bucket takes the last one it has.
  std::vector<std::size_t> order(columns_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (columns_[a].name != columns_[b].name) {
      return columns_[a].name < columns_[b].name;
    }
    return outranks(b, a);
  });
  std::vector<std::size_t> group_end;  // one past each name's run in order
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k + 1 == order.size() ||
        columns_[order[k]].name != columns_[order[k + 1]].name) {
      group_end.push_back(k + 1);
    }
  }

  TextBuilder out;
  out.reserve((rows_.size() + 1) * (group_end.size() + 1) * 4);
  out.text("t_ps");
  for (const std::size_t end : group_end) {
    out.text(',').text(columns_[order[end - 1]].name);
  }
  out.text('\n');
  for (const Row& row : rows_) {
    out.integer(row.t);
    std::size_t begin = 0;
    for (const std::size_t end : group_end) {
      std::int64_t v = 0;  // born after this bucket
      for (std::size_t k = end; k-- > begin;) {
        if (order[k] < row.width) {
          v = values_[row.begin + order[k]];
          break;
        }
      }
      out.text(',').integer(v);
      begin = end;
    }
    out.text('\n');
  }
  return out.take();
}

}  // namespace ibsec::obs
