#include "net/flow_monitor.hpp"

#include <cmath>
#include <string>

#include "obs/telemetry.hpp"

namespace aqm::net {

FlowMonitor::FlowMonitor(Network& net, NodeId node) : net_(net) {
  // Chain in front of any receiver already attached at the node (e.g. an
  // ORB transport): the previous consumer becomes the default downstream,
  // so installing the monitor is a pure tap. set_downstream replaces it.
  downstream_ = net_.swap_receiver(node, [this](Packet&& p) {
    auto& f = flows_[p.flow];
    ++f.count;
    f.bytes += p.size_bytes;
    const double arrival_ms = net_.engine().now().seconds() * 1e3;
    const Duration latency = net_.engine().now() - p.sent_at;
    const double transit_ms = latency.millis();
    f.latency_ms.add(net_.engine().now(), transit_ms);
    if (f.seen) {
      f.interarrival_ms.add(arrival_ms - f.last_arrival_ms);
      const double d = std::abs(transit_ms - f.last_transit_ms);
      f.jitter_ms += (d - f.jitter_ms) / 16.0;
      if (obs::TelemetryHub* th = net_.engine().telemetry()) {
        th->on_jitter(p.flow, f.jitter_ms);
      }
    }
    f.last_arrival_ms = arrival_ms;
    f.last_transit_ms = transit_ms;
    if (f.seen && p.seq > f.next_seq) f.gaps += p.seq - f.next_seq;
    f.next_seq = p.seq + 1;
    f.seen = true;
    if (downstream_) downstream_(std::move(p));
  });
}

const TimeSeries& FlowMonitor::latency_series(FlowId flow) const {
  const PerFlow* f = flows_.find(flow);
  return f == nullptr ? empty_series_ : f->latency_ms;
}

std::uint64_t FlowMonitor::received(FlowId flow) const {
  const PerFlow* f = flows_.find(flow);
  return f == nullptr ? 0 : f->count;
}

std::uint64_t FlowMonitor::received_bytes(FlowId flow) const {
  const PerFlow* f = flows_.find(flow);
  return f == nullptr ? 0 : f->bytes;
}

std::uint64_t FlowMonitor::sequence_gaps(FlowId flow) const {
  const PerFlow* f = flows_.find(flow);
  return f == nullptr ? 0 : f->gaps;
}

std::uint64_t FlowMonitor::dropped(FlowId flow) const { return net_.flow(flow).dropped; }

const RunningStats& FlowMonitor::interarrival_ms(FlowId flow) const {
  const PerFlow* f = flows_.find(flow);
  return f == nullptr ? empty_stats_ : f->interarrival_ms;
}

double FlowMonitor::jitter_ms(FlowId flow) const {
  const PerFlow* f = flows_.find(flow);
  return f == nullptr ? 0.0 : f->jitter_ms;
}

void FlowMonitor::export_metrics(obs::MetricsRegistry& reg,
                                 std::string_view prefix) const {
  flows_.for_each_ordered([&](FlowId flow, const PerFlow& f) {
    const std::string p = std::string(prefix) + ".flow" + std::to_string(flow);
    reg.counter(p + ".received").set(f.count);
    reg.counter(p + ".received_bytes").set(f.bytes);
    reg.counter(p + ".sequence_gaps").set(f.gaps);
    reg.counter(p + ".dropped").set(net_.flow(flow).dropped);
    reg.gauge(p + ".jitter_ms").set(f.jitter_ms);
    reg.stats(p + ".latency_ms").merge(f.latency_ms.stats());
    reg.stats(p + ".interarrival_ms").merge(f.interarrival_ms);
  });
}

}  // namespace aqm::net
