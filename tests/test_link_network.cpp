#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "counting_new.hpp"
#include "net/flow_monitor.hpp"
#include "net/network.hpp"
#include "net/red_queue.hpp"
#include "net/traffic_gen.hpp"
#include "orb/transport.hpp"
#include "sim/engine.hpp"

namespace aqm::net {
namespace {

LinkConfig fast_link(double bps = 10e6, Duration prop = microseconds(100)) {
  LinkConfig cfg;
  cfg.bandwidth_bps = bps;
  cfg.propagation = prop;
  return cfg;
}

Packet make_packet(NodeId dst, std::uint32_t size, FlowId flow = 1) {
  Packet p;
  p.dst = dst;
  p.size_bytes = size;
  p.flow = flow;
  return p;
}

TEST(Network, DirectDeliveryLatencyIsTxPlusPropagation) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link(10e6, microseconds(100)));
  std::optional<TimePoint> arrival;
  net.set_receiver(b, [&](Packet&&) { arrival = e.now(); });
  net.send(a, make_packet(b, 1250));  // 1250 B at 10 Mbps = 1 ms tx
  e.run();
  ASSERT_TRUE(arrival);
  EXPECT_EQ(arrival->ns(), milliseconds(1).ns() + microseconds(100).ns());
}

TEST(Network, SerializationDelaysBackToBackPackets) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link(10e6, microseconds(0)));
  std::vector<std::int64_t> arrivals;
  net.set_receiver(b, [&](Packet&&) { arrivals.push_back(e.now().ns()); });
  net.send(a, make_packet(b, 1250));
  net.send(a, make_packet(b, 1250));
  net.send(a, make_packet(b, 1250));
  e.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], milliseconds(1).ns());
  EXPECT_EQ(arrivals[1], milliseconds(2).ns());
  EXPECT_EQ(arrivals[2], milliseconds(3).ns());
}

TEST(Network, MultiHopRoutingViaRouter) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId r = net.add_node("router");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, r, fast_link());
  net.add_duplex_link(r, b, fast_link());
  bool arrived = false;
  net.set_receiver(b, [&](Packet&& p) {
    arrived = true;
    EXPECT_EQ(p.src, a);
    EXPECT_EQ(p.dst, b);
  });
  net.send(a, make_packet(b, 500));
  e.run();
  EXPECT_TRUE(arrived);
  EXPECT_EQ(net.next_hop(a, b), r);
  EXPECT_EQ((net.path(a, b)), (std::vector<NodeId>{a, r, b}));
}

TEST(Network, ShortestPathPreferred) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId r1 = net.add_node("r1");
  const NodeId r2 = net.add_node("r2");
  const NodeId b = net.add_node("b");
  // Long path a-r1-r2-b and a direct a-b link.
  net.add_duplex_link(a, r1, fast_link());
  net.add_duplex_link(r1, r2, fast_link());
  net.add_duplex_link(r2, b, fast_link());
  net.add_duplex_link(a, b, fast_link());
  EXPECT_EQ(net.next_hop(a, b), b);
  EXPECT_EQ(net.path(a, b).size(), 2u);
}

TEST(Network, EqualCostRoutesTakeTheLowestNeighbourWhateverTheAddOrder) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId r1 = net.add_node("r1");
  const NodeId r2 = net.add_node("r2");
  const NodeId b = net.add_node("b");
  // Two equal-cost paths a-r1-b and a-r2-b; the r2 side is added first.
  net.add_duplex_link(r2, b, fast_link());
  net.add_duplex_link(a, r2, fast_link());
  net.add_duplex_link(r1, b, fast_link());
  net.add_duplex_link(a, r1, fast_link());
  EXPECT_EQ(net.next_hop(a, b), r1);
  EXPECT_EQ(net.path(b, a), (std::vector<NodeId>{b, r1, a}));
  net.set_receiver(b, [](Packet&&) {});
  net.send(a, make_packet(b, 100));
  e.run();
  EXPECT_EQ(net.link_between(a, r1)->packets_transmitted(), 1u);
  EXPECT_EQ(net.link_between(a, r2)->packets_transmitted(), 0u);
  EXPECT_EQ(net.flow(1).delivered, 1u);
}

TEST(NetworkDeathTest, DuplicateLinkAborts) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, fast_link());
  EXPECT_DEATH(net.add_link(a, b, fast_link()), "duplicate link a -> b");
}

TEST(Network, UnreachableDestinationDropsPacket) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("island");
  bool arrived = false;
  net.set_receiver(b, [&](Packet&&) { arrived = true; });
  net.send(a, make_packet(b, 100, 5));
  e.run();
  EXPECT_FALSE(arrived);
  EXPECT_EQ(net.flow(5).dropped, 1u);
  EXPECT_EQ(net.next_hop(a, b), kInvalidNode);
  EXPECT_TRUE(net.path(a, b).empty());
}

TEST(Network, FlowCountersTrackSentAndDelivered) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link());
  net.set_receiver(b, [](Packet&&) {});
  for (int i = 0; i < 5; ++i) net.send(a, make_packet(b, 100, 9));
  e.run();
  EXPECT_EQ(net.flow(9).sent, 5u);
  EXPECT_EQ(net.flow(9).delivered, 5u);
  EXPECT_EQ(net.flow(9).dropped, 0u);
  EXPECT_EQ(net.flow(9).sent_bytes, 500u);
  EXPECT_EQ(net.totals().sent, 5u);
}

TEST(Network, CongestionDropsAreCounted) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  // Tiny queue: 2 packets.
  net.add_link(a, b, fast_link(1e6), std::make_unique<DropTailQueue>(2));
  net.add_link(b, a, fast_link());
  net.set_receiver(b, [](Packet&&) {});
  // Burst of 10 packets into a slow link: 1 transmitting + 2 queued pass.
  for (int i = 0; i < 10; ++i) net.send(a, make_packet(b, 1000, 3));
  e.run();
  EXPECT_EQ(net.flow(3).sent, 10u);
  EXPECT_EQ(net.flow(3).delivered, 3u);
  EXPECT_EQ(net.flow(3).dropped, 7u);
}

TEST(Network, LinkUtilizationAndCounters) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link(10e6, Duration::zero()));
  net.set_receiver(b, [](Packet&&) {});
  net.send(a, make_packet(b, 1250));  // 1 ms tx
  e.after(milliseconds(2), [] {});    // extend wall time to 2 ms
  e.run();
  Link* link = net.link_between(a, b);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->packets_transmitted(), 1u);
  EXPECT_EQ(link->bytes_transmitted(), 1250u);
  EXPECT_NEAR(link->utilization(), 0.5, 0.01);
}

TEST(Network, TransmissionTimeComputation) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link(100e6));
  const Link* link = net.link_between(a, b);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->transmission_time(1250).ns(), 100'000);  // 1250B @ 100Mbps = 100us
}

TEST(TrafficGenerator, CbrRateIsAccurate) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link(100e6));
  net.set_receiver(b, [](Packet&&) {});
  TrafficGenerator::Config cfg;
  cfg.src = a;
  cfg.dst = b;
  cfg.rate_bps = 1.2e6;
  cfg.packet_bytes = 1500;
  cfg.flow = 4;
  cfg.poisson = false;
  TrafficGenerator gen(net, cfg);
  gen.start();
  e.run_until(TimePoint{seconds(10).ns()});
  gen.stop();
  // 1.2 Mbps = 150 KB/s = 100 pkts/s of 1500 B.
  EXPECT_NEAR(static_cast<double>(gen.packets_sent()), 1000.0, 10.0);
}

TEST(TrafficGenerator, PoissonApproximatesRate) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link(100e6));
  net.set_receiver(b, [](Packet&&) {});
  TrafficGenerator::Config cfg;
  cfg.src = a;
  cfg.dst = b;
  cfg.rate_bps = 8e6;
  cfg.packet_bytes = 1000;  // 1000 pkts/s
  cfg.poisson = true;
  cfg.seed = 99;
  TrafficGenerator gen(net, cfg);
  gen.run_between(TimePoint{seconds(1).ns()}, TimePoint{seconds(6).ns()});
  e.run_until(TimePoint{seconds(10).ns()});
  EXPECT_NEAR(static_cast<double>(gen.packets_sent()), 5000.0, 300.0);
}

TEST(FlowMonitor, RecordsLatencyAndGaps) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link(10e6, Duration::zero()));
  FlowMonitor monitor(net, b);
  Packet p1 = make_packet(b, 1250, 6);
  p1.seq = 0;
  Packet p2 = make_packet(b, 1250, 6);
  p2.seq = 2;  // seq 1 lost
  net.send(a, std::move(p1));
  net.send(a, std::move(p2));
  e.run();
  EXPECT_EQ(monitor.received(6), 2u);
  EXPECT_EQ(monitor.sequence_gaps(6), 1u);
  EXPECT_EQ(monitor.received_bytes(6), 2500u);
  const auto stats = monitor.latency_series(6).stats();
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_NEAR(stats.min(), 1.0, 0.01);  // 1ms serialization
}

TEST(LossyLink, DropsApproximatelyConfiguredFraction) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkConfig lossy = fast_link(100e6);
  lossy.loss_probability = 0.2;
  lossy.loss_seed = 5;
  net.add_link(a, b, lossy);
  net.add_link(b, a, fast_link());
  int received = 0;
  net.set_receiver(b, [&](Packet&&) { ++received; });
  const int sent = 5000;
  for (int i = 0; i < sent; ++i) {
    e.after(microseconds(200 * i), [&] { net.send(a, make_packet(b, 500, 8)); });
  }
  e.run();
  EXPECT_NEAR(static_cast<double>(received) / sent, 0.8, 0.03);
  EXPECT_EQ(net.flow(8).dropped + net.flow(8).delivered, net.flow(8).sent);
  EXPECT_EQ(net.link_between(a, b)->packets_corrupted(), net.flow(8).dropped);
}

TEST(LossyLink, ZeroLossByDefault) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link());
  int received = 0;
  net.set_receiver(b, [&](Packet&&) { ++received; });
  for (int i = 0; i < 100; ++i) {
    e.after(microseconds(100 * i), [&] { net.send(a, make_packet(b, 500)); });
  }
  e.run();
  EXPECT_EQ(received, 100);
  EXPECT_EQ(net.link_between(a, b)->packets_corrupted(), 0u);
}

TEST(LossyLink, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Engine e;
    Network net(e);
    const NodeId a = net.add_node("a");
    const NodeId b = net.add_node("b");
    LinkConfig lossy = fast_link(100e6);
    lossy.loss_probability = 0.3;
    lossy.loss_seed = seed;
    net.add_link(a, b, lossy);
    net.add_link(b, a, fast_link());
    int received = 0;
    net.set_receiver(b, [&](Packet&&) { ++received; });
    for (int i = 0; i < 500; ++i) {
      e.after(microseconds(100 * i), [&] { net.send(a, make_packet(b, 500)); });
    }
    e.run();
    return received;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST(FlowMonitor, DownstreamStillSeesPackets) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link());
  FlowMonitor monitor(net, b);
  int seen = 0;
  monitor.set_downstream([&](Packet&&) { ++seen; });
  net.send(a, make_packet(b, 100));
  e.run();
  EXPECT_EQ(seen, 1);
}

// --- allocation-free packet hop ------------------------------------------------

/// A four-link path a -> r1 -> r2 -> r3 -> b through every egress
/// discipline on the coalesced transmitter: RED, DiffServ, drop-tail, then
/// an IntServ bottleneck holding one reservation. Each link is slower than
/// the one before, so every queue backs up.
struct HopPath {
  sim::Engine engine;
  Network net{engine};
  NodeId a = net.add_node("a");
  NodeId r1 = net.add_node("r1");
  NodeId r2 = net.add_node("r2");
  NodeId r3 = net.add_node("r3");
  NodeId b = net.add_node("b");
  std::uint64_t received = 0;

  HopPath(bool shape, double loss) {
    LinkConfig cfg = fast_link(100e6);
    cfg.loss_probability = loss;
    cfg.loss_seed = 7;
    net.add_link(a, r1, cfg, std::make_unique<RedQueue>(RedConfig{.min_threshold = 5,
                                                                  .max_threshold = 40}));
    cfg.bandwidth_bps = 50e6;
    net.add_link(r1, r2, cfg, std::make_unique<DiffServQueue>(1000));
    cfg.bandwidth_bps = 20e6;
    net.add_link(r2, r3, cfg, std::make_unique<DropTailQueue>(1000));
    cfg.bandwidth_bps = 10e6;
    IntServQueue::Config qc;
    qc.excess_to_best_effort = !shape;
    auto intserv = std::make_unique<IntServQueue>(qc);
    intserv->install_reservation(1, 2e6, 4'000, engine.now());
    net.add_link(r3, b, cfg, std::move(intserv));
    net.set_receiver(b, [this](Packet&&) { ++received; });
  }

  [[nodiscard]] std::uint64_t hops() const {
    std::uint64_t n = 0;
    for (const auto& [from, to] : {std::pair{a, r1}, {r1, r2}, {r2, r3}, {r3, b}}) {
      n += net.link_between(from, to)->packets_transmitted();
    }
    return n;
  }

  /// One burst of `n` reserved and `n` best-effort packets (copies of the
  /// given templates) 100 us apart, started 1 s after the last round so
  /// every token bucket refills, then run to quiescence.
  void round(const Packet& reserved, const Packet& best_effort, int n) {
    const TimePoint start = engine.now() + seconds(1);
    for (int i = 0; i < n; ++i) {
      engine.at(start + microseconds(100 * i), [this, &reserved, &best_effort] {
        net.send(a, Packet(reserved));
        net.send(a, Packet(best_effort));
      });
    }
    engine.run();
  }
};

TEST(PacketHop, SteadyStateForwardingIsAllocationFree) {
  // Every packet carries a GIOP fragment of one shared message buffer, as
  // the ORB transport sends them: copying the payload bumps a reference
  // count and allocates nothing.
  orb::GiopFragment frag;
  frag.data = std::make_shared<const std::vector<std::uint8_t>>(1'000, std::uint8_t{7});
  frag.length = 1'000;

  struct Variant {
    const char* name;
    bool shape;
    double loss;
  };
  for (const Variant& v : {Variant{"demote", false, 0.0}, Variant{"shape", true, 0.0},
                           Variant{"demote, lossy", false, 0.05},
                           Variant{"shape, lossy", true, 0.05}}) {
    SCOPED_TRACE(v.name);
    HopPath path(v.shape, v.loss);
    Packet reserved = make_packet(path.b, 1'040, 1);
    reserved.dscp = dscp::kEf;
    reserved.ecn = Ecn::Capable;
    reserved.payload = frag;
    Packet best_effort = make_packet(path.b, 1'040, 2);
    best_effort.ecn = Ecn::Capable;
    best_effort.payload = frag;
    // Warm-up: larger bursts than the measured one, so every ring, slab and
    // pool has reached its peak size. The engine's calendar buckets trade
    // storage with its drain vector, so their capacities take a few rounds
    // to settle.
    for (int i = 0; i < 8; ++i) path.round(reserved, best_effort, 400);
    const std::uint64_t hops_before = path.hops();
    const std::uint64_t allocs_before = test::heap_allocs();
    path.round(reserved, best_effort, 200);
    const std::uint64_t allocs = test::heap_allocs() - allocs_before;
    const std::uint64_t hops = path.hops() - hops_before;
    EXPECT_GT(hops, 1'000u);
    EXPECT_GT(path.received, 0u);
    EXPECT_EQ(allocs, 0u) << "over " << hops << " hops";
  }
}

}  // namespace
}  // namespace aqm::net
