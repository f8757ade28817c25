#include "net/queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

namespace aqm::net {
namespace {

Packet make_packet(std::uint32_t size, Dscp dscp = dscp::kBestEffort,
                   FlowId flow = kNoFlow) {
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.size_bytes = size;
  p.dscp = dscp;
  p.flow = flow;
  return p;
}

const TimePoint t0 = TimePoint::zero();

// --- DropTailQueue -------------------------------------------------------------

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(10);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    auto p = make_packet(i * 100);
    EXPECT_FALSE(q.enqueue(std::move(p), t0).has_value());
  }
  EXPECT_EQ(q.packets(), 3u);
  EXPECT_EQ(q.bytes(), 600u);
  EXPECT_EQ(q.dequeue(t0)->size_bytes, 100u);
  EXPECT_EQ(q.dequeue(t0)->size_bytes, 200u);
  EXPECT_EQ(q.dequeue(t0)->size_bytes, 300u);
  EXPECT_FALSE(q.dequeue(t0).has_value());

  // Wrap the ring (16 cells to start), then grow it while wrapped: FIFO
  // order must survive the unwrap into the doubled ring.
  DropTailQueue ring(100);
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  const auto push = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Packet p = make_packet(100);
      p.seq = next_in++;
      ASSERT_FALSE(ring.enqueue(std::move(p), t0).has_value());
    }
  };
  const auto pop = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const auto p = ring.dequeue(t0);
      ASSERT_TRUE(p.has_value());
      EXPECT_EQ(p->seq, next_out++);
    }
  };
  push(12);
  pop(10);   // head at cell 10
  push(14);  // 16 queued, wrapped past the end
  push(5);   // grows while wrapped
  EXPECT_EQ(ring.packets(), 21u);
  pop(21);
  EXPECT_TRUE(ring.empty());

  // A popped packet holds the only queue-side reference to its payload:
  // dropping it releases the buffer at once (the CdrBufferPool reuse rule).
  const auto buffer = std::make_shared<const std::vector<std::uint8_t>>(64);
  Packet shared = make_packet(100);
  shared.payload = buffer;
  ASSERT_FALSE(ring.enqueue(std::move(shared), t0).has_value());
  EXPECT_EQ(buffer.use_count(), 2);
  {
    const auto p = ring.dequeue(t0);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(buffer.use_count(), 2);
  }
  EXPECT_EQ(buffer.use_count(), 1);
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q(2);
  EXPECT_FALSE(q.enqueue(make_packet(100), t0).has_value());
  EXPECT_FALSE(q.enqueue(make_packet(100), t0).has_value());
  const auto rejected = q.enqueue(make_packet(999), t0);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->size_bytes, 999u);
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.stats().enqueued, 2u);
}

TEST(DropTailQueue, AlwaysReadyWhenNonEmpty) {
  DropTailQueue q(5);
  EXPECT_FALSE(q.next_ready_delay(t0).has_value());
  (void)q.enqueue(make_packet(10), t0);
  // Drop-tail has no gating: next_ready_delay stays nullopt (callers use
  // dequeue() directly).
  EXPECT_FALSE(q.next_ready_delay(t0).has_value());
}

// --- DiffServQueue -------------------------------------------------------------

TEST(DiffServQueue, EfServedBeforeBestEffort) {
  DiffServQueue q(100);
  (void)q.enqueue(make_packet(1, dscp::kBestEffort), t0);
  (void)q.enqueue(make_packet(2, dscp::kEf), t0);
  (void)q.enqueue(make_packet(3, dscp::kBestEffort), t0);
  EXPECT_EQ(q.dequeue(t0)->size_bytes, 2u);
  EXPECT_EQ(q.dequeue(t0)->size_bytes, 1u);
  EXPECT_EQ(q.dequeue(t0)->size_bytes, 3u);
}

TEST(DiffServQueue, StrictPriorityAcrossAllClasses) {
  DiffServQueue q(100);
  (void)q.enqueue(make_packet(5, dscp::kAf11), t0);
  (void)q.enqueue(make_packet(4, dscp::kAf21), t0);
  (void)q.enqueue(make_packet(3, dscp::kAf31), t0);
  (void)q.enqueue(make_packet(2, dscp::kAf41), t0);
  (void)q.enqueue(make_packet(1, dscp::kEf), t0);
  (void)q.enqueue(make_packet(6, dscp::kBestEffort), t0);
  (void)q.enqueue(make_packet(0, dscp::kCs6), t0);
  std::vector<std::uint32_t> order;
  while (auto p = q.dequeue(t0)) order.push_back(p->size_bytes);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(DiffServQueue, PerClassCapacityIsolation) {
  DiffServQueue q(2);
  // Fill best effort.
  EXPECT_FALSE(q.enqueue(make_packet(1, dscp::kBestEffort), t0).has_value());
  EXPECT_FALSE(q.enqueue(make_packet(1, dscp::kBestEffort), t0).has_value());
  EXPECT_TRUE(q.enqueue(make_packet(1, dscp::kBestEffort), t0).has_value());
  // EF class still has room: congestion in BE does not hurt EF.
  EXPECT_FALSE(q.enqueue(make_packet(1, dscp::kEf), t0).has_value());
  EXPECT_EQ(q.class_packets(PhbClass::Ef), 1u);
  EXPECT_EQ(q.class_packets(PhbClass::BestEffort), 2u);
}

TEST(DiffServQueue, ClassifyMapsCodepoints) {
  EXPECT_EQ(classify(dscp::kEf), PhbClass::Ef);
  EXPECT_EQ(classify(dscp::kCs6), PhbClass::NetworkControl);
  EXPECT_EQ(classify(dscp::kAf41), PhbClass::Af4);
  EXPECT_EQ(classify(dscp::kAf11), PhbClass::Af1);
  EXPECT_EQ(classify(dscp::kBestEffort), PhbClass::BestEffort);
  EXPECT_EQ(classify(7), PhbClass::BestEffort);  // unknown codepoint
}

// --- IntServQueue --------------------------------------------------------------

IntServQueue::Config small_config() {
  IntServQueue::Config cfg;
  cfg.best_effort_capacity = 4;
  cfg.flow_capacity = 4;
  cfg.control_capacity = 4;
  return cfg;
}

IntServQueue::Config shaping_config() {
  IntServQueue::Config cfg = small_config();
  cfg.excess_to_best_effort = false;  // shape in the flow queue
  return cfg;
}

TEST(IntServQueue, UnreservedTrafficIsBestEffort) {
  IntServQueue q(small_config());
  (void)q.enqueue(make_packet(1, dscp::kBestEffort, 5), t0);
  EXPECT_EQ(q.packets(), 1u);
  EXPECT_EQ(q.dequeue(t0)->size_bytes, 1u);
}

TEST(IntServQueue, ReservedFlowServedAheadOfBestEffort) {
  IntServQueue q(small_config());
  q.install_reservation(7, 1e6, 50'000, t0);
  (void)q.enqueue(make_packet(100, dscp::kBestEffort, kNoFlow), t0);
  (void)q.enqueue(make_packet(200, dscp::kBestEffort, 7), t0);
  EXPECT_EQ(q.dequeue(t0)->flow, 7u);
  EXPECT_EQ(q.dequeue(t0)->flow, kNoFlow);
}

TEST(IntServQueue, NonConformingReservedWaitsForTokens) {
  IntServQueue q(shaping_config());
  // 8000 bps = 1000 B/s, bucket 1000 B.
  q.install_reservation(7, 8000.0, 1000, t0);
  (void)q.enqueue(make_packet(800, dscp::kBestEffort, 7), t0);
  (void)q.enqueue(make_packet(800, dscp::kBestEffort, 7), t0);
  EXPECT_TRUE(q.dequeue(t0).has_value());   // first conforms (bucket full)
  EXPECT_FALSE(q.dequeue(t0).has_value());  // second must wait for tokens
  const auto delay = q.next_ready_delay(t0);
  ASSERT_TRUE(delay.has_value());
  EXPECT_NEAR(delay->seconds(), 0.6, 0.01);  // needs 600 more bytes at 1000 B/s
  const TimePoint later = t0 + *delay;
  EXPECT_TRUE(q.dequeue(later).has_value());
}

TEST(IntServQueue, FlowQueueTailDropsWhenFull) {
  IntServQueue q(shaping_config());  // flow capacity 4
  q.install_reservation(7, 8000.0, 10'000, t0);
  int dropped = 0;
  for (int i = 0; i < 6; ++i) {
    if (q.enqueue(make_packet(500, dscp::kBestEffort, 7), t0).has_value()) ++dropped;
  }
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(q.stats().dropped, 2u);
}

TEST(IntServQueue, OversizedReservedPacketDroppedWhenShaping) {
  IntServQueue q(shaping_config());
  q.install_reservation(7, 8000.0, 1000, t0);
  EXPECT_TRUE(q.enqueue(make_packet(2000, dscp::kBestEffort, 7), t0).has_value());
}

TEST(IntServQueue, ExcessDemotesToBestEffortByDefault) {
  IntServQueue q(small_config());
  // 1000 B/s, bucket 1000 B: only the first 1000-byte burst conforms.
  q.install_reservation(7, 8000.0, 1000, t0);
  EXPECT_FALSE(q.enqueue(make_packet(800, dscp::kBestEffort, 7), t0).has_value());
  EXPECT_FALSE(q.enqueue(make_packet(800, dscp::kBestEffort, 7), t0).has_value());
  // First packet conformed (guaranteed queue); second was demoted but NOT
  // dropped: with idle capacity it still flows as best effort.
  EXPECT_EQ(q.packets(), 2u);
  EXPECT_EQ(q.stats().dropped, 0u);
  // Both are immediately eligible (no token gating at dequeue).
  EXPECT_TRUE(q.dequeue(t0).has_value());
  EXPECT_TRUE(q.dequeue(t0).has_value());
}

TEST(IntServQueue, DemotedExcessDropsOnlyWhenBestEffortFull) {
  IntServQueue q(small_config());  // best-effort capacity 4
  q.install_reservation(7, 8000.0, 1000, t0);
  int dropped = 0;
  for (int i = 0; i < 8; ++i) {
    if (q.enqueue(make_packet(900, dscp::kBestEffort, 7), t0).has_value()) ++dropped;
  }
  // 1 conforming + 4 best effort accepted; the rest dropped.
  EXPECT_EQ(dropped, 3);
}

TEST(IntServQueue, ControlPlaneBypassesEverything) {
  IntServQueue q(small_config());
  q.install_reservation(7, 1e9, 50'000, t0);
  (void)q.enqueue(make_packet(1, dscp::kBestEffort, 7), t0);
  (void)q.enqueue(make_packet(2, dscp::kCs6), t0);
  EXPECT_EQ(q.dequeue(t0)->size_bytes, 2u);
}

TEST(IntServQueue, RemoveReservationDemotesQueuedPackets) {
  IntServQueue q(shaping_config());
  q.install_reservation(7, 8000.0, 1000, t0);
  (void)q.enqueue(make_packet(400, dscp::kBestEffort, 7), t0);
  (void)q.enqueue(make_packet(400, dscp::kBestEffort, 7), t0);
  q.remove_reservation(7);
  EXPECT_FALSE(q.has_reservation(7));
  EXPECT_EQ(q.packets(), 2u);  // still queued, now as best effort
  EXPECT_TRUE(q.dequeue(t0).has_value());
  EXPECT_TRUE(q.dequeue(t0).has_value());
}

TEST(IntServQueue, RemoveReservationReturnsWhatBestEffortCannotTake) {
  // Both storage modes: the demoted packets that do not fit in a full
  // best-effort queue are counted as drops and handed back to the caller.
  for (const bool legacy : {false, true}) {
    IntServQueue::Config cfg = shaping_config();
    cfg.legacy_flow_map = legacy;
    IntServQueue q(cfg);
    q.install_reservation(7, 8000.0, 1000, t0);
    for (std::uint32_t i = 0; i < 3; ++i) {
      ASSERT_FALSE(q.enqueue(make_packet(400 + i, dscp::kBestEffort, 7), t0).has_value());
    }
    for (int i = 0; i < 3; ++i) ASSERT_FALSE(q.enqueue(make_packet(100), t0).has_value());
    const std::vector<Packet> dropped = q.remove_reservation(7);
    ASSERT_EQ(dropped.size(), 2u) << "legacy=" << legacy;  // one slot was free
    EXPECT_EQ(dropped[0].size_bytes, 401u);
    EXPECT_EQ(dropped[1].size_bytes, 402u);
    EXPECT_EQ(q.stats().dropped, 2u);
    EXPECT_EQ(q.packets(), 4u);
    EXPECT_TRUE(q.remove_reservation(7).empty());  // nothing left to tear down
  }
}

TEST(IntServQueue, ReservedRateSumsFlows) {
  IntServQueue q(small_config());
  q.install_reservation(1, 1e6, 10'000, t0);
  q.install_reservation(2, 2e6, 10'000, t0);
  EXPECT_DOUBLE_EQ(q.reserved_rate_bps(), 3e6);
  EXPECT_DOUBLE_EQ(q.flow_rate_bps(1), 1e6);
  EXPECT_DOUBLE_EQ(q.flow_rate_bps(99), 0.0);
  // Modify replaces, does not add.
  q.install_reservation(1, 0.5e6, 10'000, t0);
  EXPECT_DOUBLE_EQ(q.reserved_rate_bps(), 2.5e6);
}

TEST(IntServQueue, NextReadyNulloptWhenEmpty) {
  IntServQueue q(small_config());
  EXPECT_FALSE(q.next_ready_delay(t0).has_value());
}

}  // namespace
}  // namespace aqm::net
