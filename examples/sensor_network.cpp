// A remote-sensor network built from the middleware services: the naming
// service bootstraps discovery, the real-time event channel decouples
// sensor suppliers from consumers, and the global scheduling service
// assigns CORBA priorities from declared timing requirements (periods) so
// nobody hand-picks priority numbers.
//
//   uav1, uav2  --events-->  ops-center (naming + event channel)
//                                 |--> control station (all telemetry)
//                                 '--> threat console (detections only)
#include <iostream>
#include <memory>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/scheduling_service.hpp"
#include "cos/events.hpp"
#include "cos/naming.hpp"
#include "net/network.hpp"
#include "orb/cdr.hpp"
#include "orb/orb.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

int main(int argc, char** argv) {
  using namespace aqm;
  core::reject_arguments(argc, argv);

  // --- hosts ------------------------------------------------------------------
  sim::Engine engine;
  net::Network network(engine);
  const auto ops = network.add_node("ops-center");
  const auto uav1 = network.add_node("uav1");
  const auto uav2 = network.add_node("uav2");
  const auto station = network.add_node("control-station");
  net::LinkConfig link;
  link.bandwidth_bps = 10e6;
  link.propagation = milliseconds(2);
  for (const auto n : {uav1, uav2, station}) network.add_duplex_link(ops, n, link);

  os::Cpu ops_cpu(engine, "ops-cpu");
  os::Cpu uav1_cpu(engine, "uav1-cpu");
  os::Cpu uav2_cpu(engine, "uav2-cpu");
  os::Cpu station_cpu(engine, "station-cpu");
  orb::OrbEndpoint ops_orb(network, ops, ops_cpu);
  orb::OrbEndpoint uav1_orb(network, uav1, uav1_cpu);
  orb::OrbEndpoint uav2_orb(network, uav2, uav2_cpu);
  orb::OrbEndpoint station_orb(network, station, station_cpu);

  // --- middleware services on the ops center -----------------------------------
  orb::Poa& cos_poa = ops_orb.create_poa("cos");
  cos::NamingServiceServer naming(cos_poa);
  cos::EventChannel channel(ops_orb, cos_poa);
  if (!naming.bind("services/events", channel.ref()).ok()) return 1;

  // --- the scheduling service decides priorities --------------------------------
  core::SchedulingService scheduler;
  scheduler.declare({"threat-detection", milliseconds(100), milliseconds(5), 10});
  scheduler.declare({"telemetry", seconds(1), milliseconds(20), 0});
  if (const auto status = scheduler.assign(); !status.ok()) {
    std::cerr << "scheduling failed: " << status.error() << "\n";
    return 1;
  }
  const orb::CorbaPriority detection_prio = *scheduler.priority_of("threat-detection");
  const orb::CorbaPriority telemetry_prio = *scheduler.priority_of("telemetry");
  std::cout << "scheduling service (rate-monotonic): threat-detection -> "
            << detection_prio << ", telemetry -> " << telemetry_prio
            << " (utilization " << scheduler.total_utilization() << ")\n";

  // --- consumers discover the channel through the naming service ----------------
  int station_events = 0;
  orb::Poa& station_poa = station_orb.create_poa("app");
  cos::EventConsumer telemetry_console(station_poa, "telemetry", microseconds(200),
                                       [&](const cos::Event&) { ++station_events; });
  int threats = 0;
  cos::EventConsumer threat_console(
      station_poa, "threats", microseconds(100), [&](const cos::Event& e) {
        ++threats;
        orb::CdrReader r(e.payload);
        std::cout << "  [threat " << engine.now().seconds() << "s] " << e.topic
                  << " confidence " << r.read_f64() << " (priority " << e.priority
                  << ")\n";
      });

  cos::NamingClient resolver(station_orb, naming.ref());
  resolver.resolve("services/events", [&](Result<orb::ObjectRef> r) {
    if (!r.ok()) return;
    telemetry_console.subscribe(station_orb, r.value(), "sensors/");
    threat_console.subscribe(station_orb, r.value(), "sensors/detections/");
  });

  // --- suppliers ----------------------------------------------------------------
  cos::EventSupplier uav1_supplier(uav1_orb, channel.ref());
  cos::EventSupplier uav2_supplier(uav2_orb, channel.ref());
  Rng rng(2026);

  sim::PeriodicTimer uav1_telemetry(engine, seconds(1), [&] {
    uav1_supplier.push("sensors/telemetry/uav1", telemetry_prio);
  });
  sim::PeriodicTimer uav2_telemetry(engine, seconds(1), [&] {
    uav2_supplier.push("sensors/telemetry/uav2", telemetry_prio);
  });
  sim::PeriodicTimer detector(engine, milliseconds(100), [&] {
    // Occasionally the ATR pipeline flags something.
    if (!rng.bernoulli(0.02)) return;
    orb::CdrWriter w;
    w.write_f64(rng.uniform(0.6, 0.99));
    uav1_supplier.push("sensors/detections/uav1", detection_prio, w.take());
  });

  uav1_telemetry.start();
  uav2_telemetry.start();
  detector.start();
  engine.run_until(TimePoint{seconds(30).ns()});
  uav1_telemetry.stop();
  uav2_telemetry.stop();
  detector.stop();
  engine.run_until(TimePoint{seconds(31).ns()});

  std::cout << "\nafter 30s:\n"
            << "  events published      : " << channel.events_published() << "\n"
            << "  deliveries            : " << channel.deliveries() << "\n"
            << "  station telemetry     : " << station_events << " events\n"
            << "  threat console        : " << threats << " detections\n"
            << "  names bound           : " << naming.size() << "\n";
  return 0;
}
