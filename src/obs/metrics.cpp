#include "obs/metrics.hpp"

#include <functional>
#include <numeric>

#include "obs/json_out.hpp"

namespace aqm::obs {
namespace {

using detail::JsonOut;

void write_stats_object(JsonOut& out, const RunningStats& s) {
  out << '{';
  out.key("count") << s.count() << ',';
  out.key("mean") << s.mean() << ',';
  out.key("min") << (s.empty() ? 0.0 : s.min()) << ',';
  out.key("max") << (s.empty() ? 0.0 : s.max()) << ',';
  out.key("sum") << s.sum() << '}';
}

void write_histogram_object(JsonOut& out, const Histogram& h) {
  out << '{';
  out.key("count") << h.count() << ',';
  out.key("lo") << h.bucket_lo(0) << ',';
  out.key("hi") << h.bucket_hi(h.bucket_count() - 1) << ',';
  out.key("p50") << h.quantile(0.5) << ',';
  out.key("p90") << h.quantile(0.9) << ',';
  out.key("p99") << h.quantile(0.99) << ',';
  out.key("buckets") << " [";
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (i > 0) out << ',';
    out << h.bucket(i);
  }
  out << "]}";
}

/// `"title": {` + one `"name": value` line per entry + `}`.
template <class V, class WriteValue>
void write_section(JsonOut& out, std::string_view p1, std::string_view title,
                   const NameMap<V>& entries, WriteValue write_value) {
  out << p1 << '"' << title << "\": {";
  bool first = true;
  for (const auto& [name, v] : entries) {
    out << (first ? "\n" : ",\n") << p1 << "  ";
    out.key(name) << ' ';
    write_value(v);
    first = false;
  }
  if (!first) out << '\n' << p1;
  out << '}';
}

void write_snapshot(JsonOut& out, const MetricsSnapshot& s, int indent) {
  const std::string p0(static_cast<std::size_t>(indent), ' ');
  const std::string p1 = p0 + "  ";
  const auto stats = [&out](const RunningStats& v) { write_stats_object(out, v); };
  out << "{\n";
  write_section(out, p1, "counters", s.counters, [&out](std::uint64_t v) { out << v; });
  out << ",\n";
  write_section(out, p1, "gauges", s.gauges, stats);
  out << ",\n";
  write_section(out, p1, "stats", s.stats, stats);
  out << ",\n";
  write_section(out, p1, "histograms", s.histograms,
                [&out](const Histogram& h) { write_histogram_object(out, h); });
  out << '\n' << p0 << '}';
}

/// Linear merge of two name-sorted runs; `combine` folds equal names.
template <class V, class Combine>
void merge_sorted(std::vector<std::pair<std::string, V>>& into,
                  const std::vector<std::pair<std::string, V>>& from, Combine combine) {
  if (from.empty()) return;
  std::vector<std::pair<std::string, V>> out;
  out.reserve(into.size() + from.size());
  auto a = into.begin();
  auto b = from.begin();
  while (a != into.end() && b != from.end()) {
    if (a->first < b->first) {
      out.push_back(std::move(*a++));
    } else if (b->first < a->first) {
      out.push_back(*b++);
    } else {
      combine(a->second, b->second);
      out.push_back(std::move(*a++));
      ++b;
    }
  }
  out.insert(out.end(), std::make_move_iterator(a), std::make_move_iterator(into.end()));
  out.insert(out.end(), b, from.end());
  into = std::move(out);
}

template <class Trials>
void write_sidecar(std::ostream& os, const Trials& trials) {
  JsonOut out(os);
  out << "{\n  \"trials\": [";
  bool first = true;
  for (const auto& t : trials) {
    out << (first ? "\n" : ",\n") << "    {\"name\": ";
    out.str(t.name) << ", \"metrics\": ";
    write_snapshot(out, t.snapshot, 4);
    out << '}';
    first = false;
  }
  out << (first ? "" : "\n  ") << "],\n  \"merged\": ";
  if (trials.size() == 1) {
    write_snapshot(out, trials.begin()->snapshot, 2);
  } else {
    MetricsSnapshot merged;
    for (const auto& t : trials) merged.merge(t.snapshot);
    write_snapshot(out, merged, 2);
  }
  out << "\n}\n";
}

}  // namespace

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  merge_sorted(counters.items_, other.counters.items_,
               [](std::uint64_t& a, std::uint64_t b) { a += b; });
  const auto welford = [](RunningStats& a, const RunningStats& b) { a.merge(b); };
  merge_sorted(gauges.items_, other.gauges.items_, welford);
  merge_sorted(stats.items_, other.stats.items_, welford);
  merge_sorted(histograms.items_, other.histograms.items_,
               [this](Histogram& a, const Histogram& b) {
                 if (!a.merge(b)) ++merge_conflicts;
               });
  merge_conflicts += other.merge_conflicts;
}

void MetricsSnapshot::write_json(std::ostream& os, int indent) const {
  JsonOut out(os);
  write_snapshot(out, *this, indent);
}

template <class T, class... Args>
T& MetricsRegistry::find_or_add(std::deque<T>& values, Kind kind, std::string_view name,
                                Args&&... args) {
  const auto hash = static_cast<std::uint32_t>(std::hash<std::string_view>{}(name)) +
                    static_cast<std::uint32_t>(kind);
  if ((entries_.size() + 1) * 2 > index_.size()) grow_index();
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    Cell& c = index_[i];
    if (c.entry == 0) {
      c = {hash, static_cast<std::uint32_t>(entries_.size() + 1)};
      entries_.push_back({static_cast<std::uint32_t>(names_.size()),
                          static_cast<std::uint32_t>(name.size()),
                          static_cast<std::uint32_t>(values.size()), kind});
      names_ += name;
      return values.emplace_back(std::forward<Args>(args)...);
    }
    const Entry& e = entries_[c.entry - 1];
    if (c.hash == hash && e.kind == kind && name_of(e) == name) return values[e.slot];
  }
}

void MetricsRegistry::grow_index() {
  std::vector<Cell> old(index_.empty() ? 16 : index_.size() * 2);
  old.swap(index_);
  const std::size_t mask = index_.size() - 1;
  for (const Cell& c : old) {
    if (c.entry == 0) continue;
    std::size_t i = c.hash & mask;
    while (index_[i].entry != 0) i = (i + 1) & mask;
    index_[i] = c;
  }
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return find_or_add(counters_, Kind::Counter, name);
}
Gauge& MetricsRegistry::gauge(std::string_view name) {
  return find_or_add(gauges_, Kind::Gauge, name);
}
RunningStats& MetricsRegistry::stats(std::string_view name) {
  return find_or_add(stats_, Kind::Stats, name);
}
Histogram& MetricsRegistry::histogram(std::string_view name, double lo, double hi,
                                      std::size_t buckets) {
  return find_or_add(histograms_, Kind::Histogram, name, lo, hi, buckets);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // One sort of the entry ids by name. Registration usually ends in one
  // long ascending run (TelemetryHub::export_metrics registers in name
  // order), so only the entries before that run are sorted, then merged
  // with it. Equal names differ in kind and go to different vectors, so
  // each vector comes out strictly name-sorted.
  const auto by_name = [this](std::uint32_t a, std::uint32_t b) {
    return name_of(entries_[a]) < name_of(entries_[b]);
  };
  const auto n = static_cast<std::uint32_t>(entries_.size());
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::uint32_t tail = n == 0 ? 0 : n - 1;  // order[tail, n) is ascending
  while (tail > 0 && by_name(tail - 1, tail)) --tail;
  std::sort(order.begin(), order.begin() + tail, by_name);
  std::inplace_merge(order.begin(), order.begin() + tail, order.end(), by_name);
  MetricsSnapshot snap;
  snap.counters.items_.reserve(counters_.size());
  snap.gauges.items_.reserve(gauges_.size());
  snap.stats.items_.reserve(stats_.size());
  snap.histograms.items_.reserve(histograms_.size());
  for (const std::uint32_t id : order) {
    const Entry& e = entries_[id];
    const std::string_view name = name_of(e);
    switch (e.kind) {
      case Kind::Counter:
        snap.counters.items_.emplace_back(name, counters_[e.slot].value());
        break;
      case Kind::Gauge: {
        RunningStats s;
        if (gauges_[e.slot].is_set()) s.add(gauges_[e.slot].value());
        snap.gauges.items_.emplace_back(name, s);
        break;
      }
      case Kind::Stats:
        snap.stats.items_.emplace_back(name, stats_[e.slot]);
        break;
      case Kind::Histogram:
        snap.histograms.items_.emplace_back(name, histograms_[e.slot]);
        break;
    }
  }
  return snap;
}

void write_metrics_sidecar(std::ostream& os, std::initializer_list<NamedSnapshotRef> trials) {
  write_sidecar(os, trials);
}

void write_metrics_sidecar(std::ostream& os, const std::vector<NamedSnapshot>& trials) {
  write_sidecar(os, trials);
}

bool write_metrics_sidecar_file(const std::string& path,
                                const std::vector<NamedSnapshot>& trials) {
  return detail::write_file(path, [&](std::ostream& os) { write_metrics_sidecar(os, trials); });
}

}  // namespace aqm::obs
