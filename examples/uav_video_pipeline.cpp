// The paper's Figure 3 application in miniature: a three-stage pipeline
//
//   UAV (video source) --2 Mbps wireless--> distributor --LAN--> display
//                                                     \--LAN--> ATR host
//
// The distributor fans each frame out to a human display (wants smooth
// video) and an ATR image processor (slow; wants I-frames only). A QuO
// contract on the UAV watches the delivery ratio reported by the
// distributor and filters the wireless uplink down to 10/2 fps when the
// wireless link degrades (a competing transmitter appears mid-run).
#include <iostream>
#include <memory>

#include "avstreams/stream.hpp"
#include "core/experiment.hpp"
#include "media/frame_filter.hpp"
#include "media/video_sink.hpp"
#include "media/video_source.hpp"
#include "net/traffic_gen.hpp"
#include "orb/cdr.hpp"
#include "orb/orb.hpp"
#include "quo/contract.hpp"
#include "quo/syscond.hpp"

int main(int argc, char** argv) {
  using namespace aqm;
  core::reject_arguments(argc, argv);

  // --- topology -------------------------------------------------------------
  sim::Engine engine;
  net::Network network(engine);
  const auto uav = network.add_node("uav");
  const auto dist = network.add_node("distributor");
  const auto display = network.add_node("display");
  const auto atr = network.add_node("atr");
  const auto jammer = network.add_node("competing-tx");

  net::LinkConfig wireless;
  wireless.bandwidth_bps = 2e6;  // constrained air link
  wireless.propagation = milliseconds(2);
  net::LinkConfig lan;
  lan.bandwidth_bps = 100e6;
  lan.propagation = microseconds(100);
  network.add_duplex_link(uav, dist, wireless);
  network.add_duplex_link(jammer, uav, lan);  // shares the uav->dist uplink? no:
  // the competing transmitter routes through the uav's radio to dist,
  // contending on the same 2 Mbps wireless segment.
  network.add_duplex_link(dist, display, lan);
  network.add_duplex_link(dist, atr, lan);

  os::Cpu uav_cpu(engine, "uav-cpu");
  os::Cpu dist_cpu(engine, "dist-cpu");
  os::Cpu display_cpu(engine, "display-cpu");
  os::Cpu atr_cpu(engine, "atr-cpu");

  orb::OrbEndpoint uav_orb(network, uav, uav_cpu);
  orb::OrbEndpoint dist_orb(network, dist, dist_cpu);
  orb::OrbEndpoint display_orb(network, display, display_cpu);
  orb::OrbEndpoint atr_orb(network, atr, atr_cpu);

  const media::GopStructure gop = media::GopStructure::mpeg1_paper_profile();

  // --- stage 3: consumers ------------------------------------------------------
  media::VideoSinkStats display_stats(engine, gop);
  orb::Poa& display_poa = display_orb.create_poa("video");
  av::VideoSinkEndpoint display_sink(
      display_poa, "screen", microseconds(300),
      [&](const media::VideoFrame& f) { display_stats.on_received(f); });

  media::VideoSinkStats atr_stats(engine, gop);
  orb::Poa& atr_poa = atr_orb.create_poa("video");
  av::VideoSinkEndpoint atr_sink(atr_poa, "processor", milliseconds(130),  // edge detection
                                 [&](const media::VideoFrame& f) {
                                   atr_stats.on_received(f);
                                 });

  // --- stage 2: distributor fans out + reports upstream ------------------------
  av::StreamBinding to_display(dist_orb, display_sink.ref(), 401);
  av::StreamBinding to_atr(dist_orb, atr_sink.ref(), 402);
  media::FrameFilter atr_branch_filter(media::FilterLevel::IOnly);  // ATR wants I-frames

  std::uint64_t dist_received = 0;
  orb::Poa& dist_poa = dist_orb.create_poa("video");
  av::VideoSinkEndpoint dist_in(dist_poa, "relay", microseconds(200),
                                [&](const media::VideoFrame& f) {
                                  ++dist_received;
                                  to_display.push(f);
                                  if (atr_branch_filter.filter(f)) to_atr.push(f);
                                });

  // --- stage 1: UAV source with QuO adaptation ---------------------------------
  av::StreamBinding uplink(uav_orb, dist_in.ref(), 400);
  media::FrameFilter uplink_filter(media::FilterLevel::Full);
  media::VideoSinkStats uav_stats(engine, gop);
  media::VideoSource camera(engine, gop, 30.0, [&](const media::VideoFrame& f) {
    uav_stats.on_source(f);
    if (!uplink_filter.filter(f)) return;
    uav_stats.on_transmitted(f);
    uplink.push(f);
  });

  // QuO wiring: the distributor reports its received count every 500 ms on
  // a control channel; a ValueSysCond holds the measured delivery ratio; a
  // contract drives the uplink filter level.
  quo::ValueSysCond ratio("uplink-delivery-ratio", 1.0);
  // Hysteresis: upgrades need a sustained clean streak, otherwise the
  // contract would bounce off the congested link every report period.
  quo::ValueSysCond clean_streak("clean-reports", 100.0);
  quo::Contract contract(engine, "uplink-quality");
  contract
      .add_region("full-rate",
                  [&] { return ratio.value() >= 0.92 && clean_streak.value() >= 8.0; })
      .add_region("degraded",
                  [&] { return ratio.value() >= 0.25 && clean_streak.value() >= 2.0; })
      .add_region("minimal", nullptr)
      .observe(ratio);
  contract.on_enter("full-rate", [&] {
    uplink_filter.set_level(media::FilterLevel::Full);
    std::cout << "  [QuO " << engine.now().seconds() << "s] region full-rate -> 30 fps\n";
  });
  contract.on_enter("degraded", [&] {
    uplink_filter.set_level(media::FilterLevel::IpOnly);
    std::cout << "  [QuO " << engine.now().seconds() << "s] region degraded -> 10 fps\n";
  });
  contract.on_enter("minimal", [&] {
    uplink_filter.set_level(media::FilterLevel::IOnly);
    std::cout << "  [QuO " << engine.now().seconds() << "s] region minimal -> 2 fps\n";
  });
  contract.eval();

  orb::Poa& uav_ctl = uav_orb.create_poa("ctl");
  std::uint64_t last_rx = 0;
  std::uint64_t last_tx = 0;
  auto status_servant = std::make_shared<orb::FunctionServant>(
      microseconds(20), [&](orb::ServerRequest& req) {
        orb::CdrReader r(req.body);
        const std::uint64_t rx_total = r.read_u64();
        const std::uint64_t tx_total = uav_stats.transmitted_count();
        const auto dtx = tx_total - last_tx;
        const auto drx = rx_total - last_rx;
        last_tx = tx_total;
        last_rx = rx_total;
        if (dtx > 0) {
          const double r = static_cast<double>(drx) / static_cast<double>(dtx);
          clean_streak.set(r >= 0.92 ? clean_streak.value() + 1.0 : 0.0);
          ratio.set(r);
          contract.eval();
        }
      });
  const orb::ObjectRef status_ref = uav_ctl.activate_object("status", status_servant);
  orb::ObjectStub status_stub(dist_orb, status_ref);
  sim::PeriodicTimer status_timer(engine, milliseconds(500), [&] {
    orb::CdrWriter w;
    w.write_u64(dist_received);
    status_stub.oneway("status_report", w.take());
  });

  // --- the mission -----------------------------------------------------------
  // A competing transmitter floods the wireless segment from t=10s to 25s.
  net::TrafficGenerator::Config jam;
  jam.src = jammer;
  jam.dst = dist;
  jam.rate_bps = 6e6;  // 3x the air link
  jam.flow = 999;
  net::TrafficGenerator jammer_gen(network, jam);
  // Competing traffic must cross the same uav->dist radio.
  // (Topology above routes jammer->uav->dist.)

  std::cout << "UAV pipeline: 30 fps MPEG-1 over a 2 Mbps air link; jammer active "
               "10s-25s\n";
  camera.run_between(TimePoint{seconds(1).ns()}, TimePoint{seconds(40).ns()});
  status_timer.start();
  jammer_gen.run_between(TimePoint{seconds(10).ns()}, TimePoint{seconds(25).ns()});
  engine.run_until(TimePoint{seconds(42).ns()});
  status_timer.stop();

  // --- report ------------------------------------------------------------------
  const auto lat = display_stats.latency_series().stats();
  std::cout << "\nresults:\n"
            << "  camera frames        : " << uav_stats.source_count() << "\n"
            << "  uplink transmitted   : " << uav_stats.transmitted_count() << "\n"
            << "  display received     : " << display_stats.received_count()
            << " (decodable " << display_stats.decodable_count() << ")\n"
            << "  display mean latency : " << lat.mean() << " ms (max " << lat.max()
            << ")\n"
            << "  ATR received         : " << atr_stats.received_count()
            << " I-frames (" << atr_stats.received_of(media::FrameType::I) << ")\n"
            << "  QuO transitions      : " << contract.transition_count() << "\n";
  return 0;
}
