// Unified metrics registry: named counters, gauges, summary stats and
// histograms, snapshot into plain mergeable data and emitted as JSON.
// Storage is flat (DESIGN.md §7): one append-only deque per kind (stable
// references), names in one arena behind one open-addressing index.
//
// Determinism contract (mirrors the parallel-execution contract of
// DESIGN.md §6): a registry is local to one trial, filled by that trial's
// single-threaded simulation, and snapshot()ed into the trial's result
// slot. Drivers merge snapshots in trial-index order, so the merged JSON
// is byte-identical for any --jobs value. Names sort by byte value
// ("flow10" < "flow2") and doubles are printed with a fixed format, so
// "same inputs" means "same bytes".
//
// Merge semantics across shards/trials:
//  * counters    — sum.
//  * gauges      — each snapshot contributes one sample; merged output
//                  reports count/mean/min/max over shards (a deterministic
//                  way to combine "current value" metrics like utilization).
//  * stats       — Welford merge (RunningStats::merge).
//  * histograms  — bucket-wise sum (identical bounds required).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace aqm::obs {

class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_ += d; }
  void set(std::uint64_t v) { v_ = v; }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

class Gauge {
 public:
  void set(double v) {
    v_ = v;
    set_ = true;
  }
  [[nodiscard]] double value() const { return v_; }
  [[nodiscard]] bool is_set() const { return set_; }

 private:
  double v_ = 0.0;
  bool set_ = false;
};

/// Name-sorted (name, value) vector: one metric kind of a snapshot, read
/// like a const std::map (ordered iteration, find, at, emplace).
template <class V>
class NameMap {
 public:
  using value_type = std::pair<std::string, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] const_iterator find(std::string_view name) const {
    const auto it = lower_bound(name);
    return it != end() && it->first == name ? it : end();
  }
  [[nodiscard]] const V& at(std::string_view name) const {
    const auto it = find(name);
    if (it == end()) throw std::out_of_range("obs::NameMap::at: no " + std::string(name));
    return it->second;
  }
  /// Inserts (name, value) unless the name is present, like std::map.
  std::pair<const_iterator, bool> emplace(std::string_view name, V value) {
    const auto it = lower_bound(name);
    if (it != end() && it->first == name) return {it, false};
    return {items_.emplace(it, std::string(name), std::move(value)), true};
  }

 private:
  friend struct MetricsSnapshot;
  friend class MetricsRegistry;

  [[nodiscard]] const_iterator lower_bound(std::string_view name) const {
    return std::lower_bound(begin(), end(), name,
                            [](const value_type& e, std::string_view n) { return e.first < n; });
  }

  std::vector<value_type> items_;
};

/// Plain-data snapshot of a registry; mergeable and serializable.
struct MetricsSnapshot {
  NameMap<std::uint64_t> counters;
  /// Gauges become single-sample stats so merged output can report the
  /// spread across shards.
  NameMap<RunningStats> gauges;
  NameMap<RunningStats> stats;
  NameMap<Histogram> histograms;

  /// Merges another snapshot into this one (see merge semantics above).
  /// Histogram merges require identical bounds/bucket counts; mismatches
  /// keep the existing entry and are counted in `merge_conflicts`.
  void merge(const MetricsSnapshot& other);
  std::uint64_t merge_conflicts = 0;

  /// Deterministic JSON object: {"counters":{...},"gauges":{...},
  /// "stats":{...},"histograms":{...}}. `indent` is the number of leading
  /// spaces on nested lines (pretty, stable).
  void write_json(std::ostream& os, int indent = 0) const;
};

/// Live registry handed to components at export time (or held for the
/// trial's duration when incremental counting is wanted). Returned
/// references stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  RunningStats& stats(std::string_view name);
  /// Registers (or finds) a histogram. Bounds are fixed at first
  /// registration; later calls with the same name return the existing one.
  Histogram& histogram(std::string_view name, double lo, double hi, std::size_t buckets);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  // Each kind is its own namespace: the index is keyed by (kind, name).
  enum class Kind : std::uint8_t { Counter, Gauge, Stats, Histogram };
  struct Entry {
    std::uint32_t name_off, name_len;  // in names_
    std::uint32_t slot;                // in the kind's deque
    Kind kind;
  };
  struct Cell {                // index cell; entry == 0 marks it empty
    std::uint32_t hash = 0;    // low hash bits: probe start and filter
    std::uint32_t entry = 0;   // entries_ position + 1
  };

  /// The value of (kind, name), appended to `values` (constructed from
  /// `args`) when absent.
  template <class T, class... Args>
  T& find_or_add(std::deque<T>& values, Kind kind, std::string_view name, Args&&... args);
  void grow_index();
  [[nodiscard]] std::string_view name_of(const Entry& e) const {
    return {names_.data() + e.name_off, e.name_len};
  }

  std::string names_;            // every name, back to back
  std::vector<Entry> entries_;   // registration order
  std::vector<Cell> index_;      // open addressing, linear probing
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<RunningStats> stats_;
  std::deque<Histogram> histograms_;
};

/// One trial's snapshot, labeled for the sidecar file.
struct NamedSnapshot {
  std::string name;
  MetricsSnapshot snapshot;
};

/// A borrowed (label, snapshot): write_metrics_sidecar(os, {{"trial",
/// reg.snapshot()}}) binds the snapshot instead of copying it.
struct NamedSnapshotRef {
  std::string_view name;
  const MetricsSnapshot& snapshot;
};

/// Writes the per-trial + merged metrics sidecar:
///   {"trials":[{"name":...,"metrics":{...}},...],"merged":{...}}
/// Trials must already be in index order; the merge folds them in that
/// order, so the output is byte-identical for any worker count. One
/// trial's merged section is written straight from its snapshot.
void write_metrics_sidecar(std::ostream& os, std::initializer_list<NamedSnapshotRef> trials);
void write_metrics_sidecar(std::ostream& os, const std::vector<NamedSnapshot>& trials);
bool write_metrics_sidecar_file(const std::string& path,
                                const std::vector<NamedSnapshot>& trials);

}  // namespace aqm::obs
