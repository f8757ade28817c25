// Per-layer counters read from the ORB, CPU and link public counters,
// shared by the workloads that use those layers.
#pragma once

#include <initializer_list>

#include "harness.hpp"
#include "net/network.hpp"
#include "orb/orb.hpp"
#include "os/cpu.hpp"

namespace e2e {

/// orb.* counters summed over the given endpoints.
void add_orb_counters(Outcome& out, std::initializer_list<aqm::orb::OrbEndpoint*> orbs);

/// os.* counters of the CPU the workload loads.
void add_cpu_counters(Outcome& out, const aqm::os::Cpu& cpu);

/// Packets transmitted over every link between the given nodes.
[[nodiscard]] std::uint64_t link_hops(const aqm::net::Network& net,
                                      std::initializer_list<aqm::net::NodeId> nodes);

}  // namespace e2e
