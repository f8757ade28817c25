// One open-addressing key -> slot index for every hashed table in the
// stack (DESIGN.md §10): the per-flow tables, the link table, the GIOP
// transport's reassembly table and the ORB's pending-reply table each map
// a key to a u32 slot in an arena their owner keeps.
//
// A key's home cell is its value mod a prime capacity, so dense ascending
// flow ids sit in consecutive cells. A taken home is probed by double
// hashing (a per-key stride), so keys that alias mod the capacity scatter
// instead of piling into one run; DESIGN.md §10 has the placements
// measured against this one. Erase leaves a tombstone, and the rehash
// target array is kept, so insert/erase churn at stable occupancy
// allocates nothing after warm-up.
//
// Probe order is unspecified, so the table exposes no iteration: owners
// that emit in order keep their own id arrays.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace aqm::common {

/// Two-word key: the transport's (source, message id).
struct Key128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator==(const Key128&, const Key128&) = default;
};

/// Home-cell input; a Key128 folds so that ascending `lo` under one `hi` ascends.
[[nodiscard]] inline std::uint64_t flat_fold(std::uint64_t key) { return key; }
[[nodiscard]] inline std::uint64_t flat_fold(const Key128& key) {
  return key.hi * 0x9E3779B97F4A7C15ull + key.lo;
}

template <typename Key>
class FlatIndex {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Returns the mapped slot, or kNoSlot when the key is absent.
  [[nodiscard]] std::uint32_t find(const Key& key) const {
    const Cell* c = locate(key);
    return c == nullptr ? kNoSlot : c->slot;
  }

  /// Inserts a new mapping; the key must be absent and slot < kNoSlot - 1.
  void insert(const Key& key, std::uint32_t slot) {
    assert(slot < kTomb && "FlatIndex slot collides with a cell marker");
    assert(find(key) == kNoSlot && "FlatIndex::insert on a present key");
    // Rehash at 3/4 occupancy counting tombstones: a purge at the same
    // capacity while live keys fill at most half, else growth to 3/8.
    if ((used_ + tombs_ + 1) * 4 > cells_.size() * 3) {
      rehash((used_ + 1) * 2 > cells_.size() ? capacity_for((used_ + 1) * 2)
                                             : cells_.size());
    }
    const std::size_t i = vacant(cells_, key);
    if (cells_[i].slot == kTomb) --tombs_;
    cells_[i] = Cell{key, slot};
    ++used_;
  }

  /// Removes the key; returns the slot it mapped to, or kNoSlot when absent.
  std::uint32_t erase(const Key& key) {
    Cell* c = const_cast<Cell*>(locate(key));
    if (c == nullptr) return kNoSlot;
    const std::uint32_t slot = c->slot;
    c->slot = kTomb;
    --used_;
    ++tombs_;
    return slot;
  }

  [[nodiscard]] std::size_t size() const { return used_; }

 private:
  static constexpr std::uint32_t kEmpty = kNoSlot;
  static constexpr std::uint32_t kTomb = kNoSlot - 1;

  struct Cell {
    Key key{};
    std::uint32_t slot = kEmpty;
  };

  /// Walks the key's probe sequence until `stop` accepts a cell; returns
  /// that cell's index. Home = fold mod cap, then a per-key step in
  /// [1, cap - 1], which visits every cell of a prime table once per cap.
  template <typename Stop>
  [[nodiscard]] static std::size_t probe(const std::vector<Cell>& cells, const Key& key,
                                         Stop stop) {
    const std::uint64_t fold = flat_fold(key);
    const std::size_t cap = cells.size();
    const std::uint64_t mix = (fold * 0x9E3779B97F4A7C15ull) >> 32;
    const std::size_t step = 1 + static_cast<std::size_t>((mix * (cap - 1)) >> 32);
    std::size_t i = static_cast<std::size_t>(fold % cap);
    while (!stop(cells[i])) i = i + step >= cap ? i + step - cap : i + step;
    return i;
  }

  /// The key's live cell, or null when the key is absent.
  [[nodiscard]] const Cell* locate(const Key& key) const {
    if (cells_.empty()) return nullptr;
    const Cell& c = cells_[probe(cells_, key, [&key](const Cell& cell) {
      return cell.slot == kEmpty || (cell.slot != kTomb && cell.key == key);
    })];
    return c.slot == kEmpty ? nullptr : &c;
  }

  /// The first cell on the key's probe sequence that holds no live key.
  [[nodiscard]] static std::size_t vacant(const std::vector<Cell>& cells, const Key& key) {
    return probe(cells, key, [](const Cell& c) { return c.slot >= kTomb; });
  }

  /// Smallest prime capacity holding n keys at <= 3/4 occupancy.
  [[nodiscard]] static std::size_t capacity_for(std::size_t n) {
    for (std::size_t cap = ((n * 4 + 2) / 3) | 1;; cap += 2) {
      bool prime = cap >= 13;
      for (std::size_t d = 3; prime && d * d <= cap; d += 2) prime = cap % d != 0;
      if (prime) return cap;
    }
  }

  void rehash(std::size_t cap) {
    spare_.assign(cap, Cell{});
    for (const Cell& c : cells_) {
      if (c.slot < kTomb) spare_[vacant(spare_, c.key)] = c;
    }
    cells_.swap(spare_);
    tombs_ = 0;
  }

  std::vector<Cell> cells_;
  std::vector<Cell> spare_;  // rehash target; kept so a purge never allocates
  std::size_t used_ = 0;
  std::size_t tombs_ = 0;
};

}  // namespace aqm::common
