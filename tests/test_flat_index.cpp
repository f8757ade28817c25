// common::FlatIndex, the open-addressing key -> slot index behind every
// hashed table in the stack (DESIGN.md §10), and the FlowMap built on it.
//
// 1. Random insert/erase/find churn matches a reference std::map for each
//    key shape the stack uses: random 128-bit transport keys, dense
//    ascending flow ids, reserved-flow ids (multiples of 8) and
//    (from << 32) | to link keys.
// 2. FlowMap insert/erase churn at stable occupancy performs zero heap
//    allocations once warmed up, verified by counting global operator new.
#include "common/flat_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "counting_new.hpp"
#include "net/flow_table.hpp"

namespace aqm::common {
namespace {

// Orders Key128 for the reference map.
struct Key128Less {
  bool operator()(const Key128& a, const Key128& b) const {
    return std::make_pair(a.hi, a.lo) < std::make_pair(b.hi, b.lo);
  }
};
template <typename Key>
using RefMap = std::conditional_t<std::is_same_v<Key, Key128>,
                                  std::map<Key, std::uint32_t, Key128Less>,
                                  std::map<Key, std::uint32_t>>;

/// Replays `ops` random operations over keys drawn by `draw` against both
/// a FlatIndex and a std::map, checking every result and a final sweep.
template <typename Key>
void churn_matches_reference(const std::function<Key(std::mt19937_64&)>& draw, int ops) {
  FlatIndex<Key> index;
  RefMap<Key> ref;
  std::mt19937_64 rng{99};
  for (int i = 0; i < ops; ++i) {
    const Key key = draw(rng);
    switch (rng() % 3) {
      case 0: {  // insert (if absent)
        if (ref.count(key) == 0) {
          const auto slot = static_cast<std::uint32_t>(rng() % (1u << 20));
          index.insert(key, slot);
          ref[key] = slot;
        }
        break;
      }
      case 1: {  // erase
        const auto it = ref.find(key);
        EXPECT_EQ(index.erase(key), it == ref.end() ? FlatIndex<Key>::kNoSlot : it->second)
            << "op " << i;
        if (it != ref.end()) ref.erase(it);
        break;
      }
      default: {  // find
        const std::uint32_t got = index.find(key);
        const auto it = ref.find(key);
        EXPECT_EQ(got, it == ref.end() ? FlatIndex<Key>::kNoSlot : it->second) << "op " << i;
        break;
      }
    }
    ASSERT_EQ(index.size(), ref.size()) << "op " << i;
  }
  // Full sweep at the end: every surviving key resolves, nothing extra.
  for (const auto& [key, slot] : ref) EXPECT_EQ(index.find(key), slot);
}

TEST(FlatIndex, RandomChurnMatchesReferenceMap) {
  constexpr int kOps = 40'000;
  {
    SCOPED_TRACE("random 128-bit (hi, lo)");
    std::vector<std::uint64_t> words(64);
    std::mt19937_64 gen{7};
    for (auto& w : words) w = gen();
    churn_matches_reference<Key128>(
        [&](std::mt19937_64& rng) { return Key128{words[rng() % 64], words[rng() % 64]}; },
        kOps);
  }
  {
    SCOPED_TRACE("dense ascending u64");
    churn_matches_reference<std::uint64_t>(
        [](std::mt19937_64& rng) { return 1 + rng() % 4'096; }, kOps);
  }
  {
    SCOPED_TRACE("multiples of 8");
    churn_matches_reference<std::uint64_t>(
        [](std::mt19937_64& rng) { return 8 * (rng() % 4'096); }, kOps);
  }
  {
    SCOPED_TRACE("(from << 32) | to");
    churn_matches_reference<std::uint64_t>(
        [](std::mt19937_64& rng) { return (rng() % 64) << 32 | rng() % 64; }, kOps);
  }
}

TEST(FlowMap, ChurnAtStableOccupancyIsAllocationFree) {
  // RSVP churn shape: a sliding window of live flows, the oldest released
  // and a fresh id reserved each step, so occupancy stays at kLive while
  // erased keys leave tombstones behind in the index.
  constexpr std::uint64_t kLive = 1'024;
  net::FlowMap<std::uint64_t> flows;
  std::uint64_t next = 1;
  for (; next <= kLive; ++next) flows[next] = next;
  const auto churn = [&](int steps) {
    for (int i = 0; i < steps; ++i, ++next) {
      ASSERT_TRUE(flows.erase(next - kLive));
      flows[next] = next;
    }
  };
  churn(20'000);  // warm-up: the index purges its tombstones at least once
  const std::uint64_t before = test::heap_allocs();
  churn(20'000);
  EXPECT_EQ(test::heap_allocs() - before, 0u) << "steady-state FlowMap churn allocated";
  EXPECT_EQ(flows.size(), kLive);
  const std::vector<net::FlowId> ids = flows.sorted_ids();
  ASSERT_EQ(ids.size(), kLive);
  EXPECT_EQ(ids.front(), next - kLive);
  EXPECT_EQ(ids.back(), next - 1);
  EXPECT_EQ(*flows.find(next - 1), next - 1);
}

}  // namespace
}  // namespace aqm::common
