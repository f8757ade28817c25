#include "counters.hpp"

namespace e2e {

void add_orb_counters(Outcome& out, std::initializer_list<aqm::orb::OrbEndpoint*> orbs) {
  aqm::orb::OrbStats sum;
  std::uint64_t expired = 0;
  for (aqm::orb::OrbEndpoint* orb : orbs) {
    const aqm::orb::OrbStats& s = orb->stats();
    sum.requests_sent += s.requests_sent;
    sum.replies_ok += s.replies_ok;
    sum.replies_error += s.replies_error;
    sum.timeouts += s.timeouts;
    sum.retries += s.retries;
    sum.dispatch_rejected += s.dispatch_rejected;
    expired += orb->transport().messages_expired();
  }
  out.counter("orb.requests_sent", static_cast<double>(sum.requests_sent));
  out.counter("orb.replies_ok", static_cast<double>(sum.replies_ok));
  out.counter("orb.replies_error", static_cast<double>(sum.replies_error));
  out.counter("orb.timeouts", static_cast<double>(sum.timeouts));
  out.counter("orb.retries", static_cast<double>(sum.retries));
  out.counter("orb.dispatch_rejected", static_cast<double>(sum.dispatch_rejected));
  out.counter("orb.transport.expired", static_cast<double>(expired));
}

void add_cpu_counters(Outcome& out, const aqm::os::Cpu& cpu) {
  out.counter("os.cpu.utilization", cpu.utilization());
  out.counter("os.cpu.busy_s", cpu.busy_time().seconds());
  out.counter("os.reserved_utilization", cpu.reserved_utilization());
}

std::uint64_t link_hops(const aqm::net::Network& net,
                        std::initializer_list<aqm::net::NodeId> nodes) {
  std::uint64_t hops = 0;
  for (const aqm::net::NodeId a : nodes) {
    for (const aqm::net::NodeId b : nodes) {
      if (const aqm::net::Link* l = net.link_between(a, b)) hops += l->packets_transmitted();
    }
  }
  return hops;
}

}  // namespace e2e
