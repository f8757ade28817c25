// Flat per-flow state storage for million-flow worlds (DESIGN.md §10).
//
// FlowMap<T> replaces the ordered std::map<FlowId, T> tables that used to
// back the network layer's per-flow state. Lookup is a common::FlatIndex
// FlowId -> dense-slot probe; the T values live contiguously in a slot
// arena that is recycled through a free list, so steady-state insert/erase
// churn performs no heap allocation at all and the per-packet hot path
// costs one open-addressing probe instead of an O(log n) tree walk.
//
// Determinism rule: the index exposes no iteration, so any consumer that
// iterates (metrics export, admission re-sums, service scans) must go
// through sorted_ids()/for_each_ordered(), which sort the arena's slot ->
// id array into the ascending-FlowId order the old std::map gave for free.
// That keeps every emitted byte `--jobs`-invariant and identical to the
// legacy containers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_index.hpp"
#include "net/packet.hpp"

namespace aqm::net {

template <typename T>
class FlowMap {
 public:
  /// Returns the entry for `id`, default-constructing it on first use.
  /// References are invalidated by subsequent inserts (slot arena growth).
  T& operator[](FlowId id) {
    std::uint32_t slot = index_.find(id);
    if (slot != Index::kNoSlot) return slots_[slot];
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
      ids_.push_back(id);
    } else {
      slot = free_.back();
      free_.pop_back();
      slots_[slot] = T{};
      ids_[slot] = id;
    }
    index_.insert(id, slot);
    return slots_[slot];
  }

  [[nodiscard]] T* find(FlowId id) { return const_cast<T*>(std::as_const(*this).find(id)); }
  [[nodiscard]] const T* find(FlowId id) const {
    const std::uint32_t slot = index_.find(id);
    return slot == Index::kNoSlot ? nullptr : &slots_[slot];
  }
  [[nodiscard]] bool contains(FlowId id) const { return index_.find(id) != Index::kNoSlot; }

  /// Releases the entry (its slot is recycled; the stored value is reset
  /// immediately so owned resources are freed now, not at reuse time).
  bool erase(FlowId id) {
    const std::uint32_t slot = index_.erase(id);
    if (slot == Index::kNoSlot) return false;
    slots_[slot] = T{};
    free_.push_back(slot);
    return true;
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] bool empty() const { return index_.size() == 0; }

  /// Sorted snapshot of the live FlowIds (ascending) — the deterministic
  /// iteration order every emitter must use. A recycled slot's stale id no
  /// longer maps back to that slot, which tells it apart from a live one.
  [[nodiscard]] std::vector<FlowId> sorted_ids() const {
    std::vector<FlowId> ids;
    ids.reserve(index_.size());
    for (std::uint32_t slot = 0; slot < ids_.size(); ++slot) {
      if (index_.find(ids_[slot]) == slot) ids.push_back(ids_[slot]);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  /// Calls fn(id, value) for every entry in ascending FlowId order.
  template <typename Fn>
  void for_each_ordered(Fn&& fn) const {
    for (const FlowId id : sorted_ids()) fn(id, *find(id));
  }

 private:
  using Index = common::FlatIndex<FlowId>;

  Index index_;
  std::vector<T> slots_;
  std::vector<FlowId> ids_;  // by slot: the key that owns (or last owned) it
  std::vector<std::uint32_t> free_;
};

}  // namespace aqm::net
