// city_churn: the city_scale 32k-flow fan-in under reservation churn.
//
// 256 hosts on 8 edge routers feed a core router whose 30 Mbps IntServ
// egress to the sink is the bottleneck. Every 8th flow is reserved through
// RSVP (NetworkQosManager), not installed directly. During the run,
// reserved flows are released and re-requested at a fixed simulated rate,
// in a seeded order. The reserved flows of the first hosts form a
// controlled group: each is reserved through a QoSSession whose policy
// carries a drop-rate SLO for the TelemetryHub, and their core-egress
// rates are re-divided by a FeedbackScheduler that the benchmark steps
// once per epoch. Half of the group steps its rate up (a flash crowd) part
// way through. Open loop: every packet's send time comes from per-flow
// Poisson schedules generated from the seed in set-up.
//
// Protected ADU: a packet of a reserved flow; it misses when it is lost or
// arrives after its deadline.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/feedback_scheduler.hpp"
#include "core/network_qos_manager.hpp"
#include "core/qos_policy.hpp"
#include "core/qos_session.hpp"
#include "harness.hpp"
#include "net/network.hpp"
#include "net/queue.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "orb/orb.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

namespace e2e {
namespace {

using namespace aqm;

constexpr std::size_t kEdges = 8;
constexpr std::size_t kHosts = 256;
constexpr std::size_t kFlowsPerHost = 128;
constexpr std::size_t kFlows = kHosts * kFlowsPerHost;  // 32768
constexpr std::size_t kControlledHosts = 4;             // 64 controlled flows
constexpr std::uint32_t kPacketBytes = 700;
constexpr Duration kSettle = seconds(1);
constexpr Duration kReserveSpacing = microseconds(100);  // set-up request pacing
constexpr Duration kBaseHorizon = seconds(20);
constexpr Duration kDrain = seconds(2);
constexpr Duration kEpoch = milliseconds(500);  // controller epoch = run slice
constexpr Duration kDeadline = milliseconds(50);
// Regular reserved flows: ~2.8 kbps offered inside a 4 kbps reservation.
constexpr double kReservedGapNs = 2e9;
constexpr net::FlowSpec kReservedSpec{4e3, 4'000};
// Controlled group: ~56 kbps offered inside 64 kbps; the crowd triples it.
constexpr double kGroupGapNs = 100e6;
constexpr double kCrowdGapNs = kGroupGapNs / 3;
constexpr net::FlowSpec kGroupSpec{64e3, 16'000};
constexpr double kCrowdAt = 0.4;  // share of the horizon before the step
// Best effort: 25 Mbps aggregate over the unreserved flows.
constexpr double kBestEffortBps = 25e6;
// Churn: one release every 2 ms, re-requested 250 ms later.
constexpr Duration kChurnEvery = milliseconds(2);
constexpr Duration kChurnGap = milliseconds(250);

bool is_reserved(net::FlowId f) { return (f - 1) % 8 == 0; }
std::size_t host_of(net::FlowId f) { return static_cast<std::size_t>((f - 1) / kFlowsPerHost); }
bool is_controlled(net::FlowId f) { return is_reserved(f) && host_of(f) < kControlledHosts; }

struct Send {
  std::int64_t at_ns = 0;
  std::uint32_t flow = 0;
};

class CityChurn final : public Workload {
 public:
  CityChurn(const Options& opt, Tracer& tracer);
  Outcome run() override;

 private:
  void send_next();
  void churn_release();
  void churn_reserve(net::FlowId flow);
  void reserved(TimePoint asked, Status<std::string> status);

  Tracer& tr_;
  TimePoint start_;
  TimePoint end_;
  sim::Engine engine_;
  net::Network net_{engine_};
  obs::TelemetryHub hub_;
  net::NodeId core_;
  net::NodeId sink_;
  std::vector<net::NodeId> edges_;
  std::vector<net::NodeId> hosts_;
  net::IntServQueue* core_egress_ = nullptr;
  std::vector<std::pair<net::NodeId, net::NodeId>> links_;
  std::unique_ptr<core::NetworkQosManager> qos_;

  // Controlled group: one ORB endpoint per host carries the group's QoS
  // sessions (no invocations are made through them).
  std::vector<std::unique_ptr<os::Cpu>> cpus_;
  std::vector<std::unique_ptr<orb::OrbEndpoint>> orbs_;
  std::vector<std::unique_ptr<orb::ObjectStub>> stubs_;
  std::vector<std::unique_ptr<core::QoSSession>> sessions_;
  std::unique_ptr<core::FeedbackScheduler> controller_;
  std::vector<net::FlowId> controlled_;

  // Seeded inputs.
  std::vector<Send> sends_;
  std::vector<net::FlowId> churn_order_;
  std::size_t next_send_ = 0;
  std::size_t next_churn_ = 0;

  // Outcome.
  std::vector<std::int64_t> latency_ns_;  // per send, -1 = not delivered
  std::vector<double> rsvp_setup_ms_;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::string first_rejection_;
  std::size_t depth_max_ = 0;
};

CityChurn::CityChurn(const Options& opt, Tracer& tracer)
    : tr_(tracer),
      start_(TimePoint::zero() + kSettle),
      end_(start_ + Duration{static_cast<std::int64_t>(
                        static_cast<double>(kBaseHorizon.ns()) * opt.scale)}) {
  engine_.reserve(1 << 16);
  engine_.set_telemetry(&hub_);
  engine_.set_tracer(&hub_.flight());

  // --- topology: hosts -> edges -> core -> sink, plus the reverse path RSVP
  // RESV messages retrace ---------------------------------------------------------
  core_ = net_.add_node("core");
  sink_ = net_.add_node("sink");
  for (std::size_t m = 0; m < kEdges; ++m) edges_.push_back(net_.add_node("edge" + std::to_string(m)));
  for (std::size_t h = 0; h < kHosts; ++h) hosts_.push_back(net_.add_node("host" + std::to_string(h)));
  const auto intserv = [] {
    net::IntServQueue::Config qc;
    qc.best_effort_capacity = 4'096;
    return std::make_unique<net::IntServQueue>(qc);
  };
  net::LinkConfig host_up;
  host_up.bandwidth_bps = 100e6;
  net::LinkConfig edge_up;
  edge_up.bandwidth_bps = 1e9;
  net::LinkConfig core_up;
  core_up.bandwidth_bps = 30e6;
  const auto link = [this](net::NodeId a, net::NodeId b, const net::LinkConfig& cfg,
                           std::unique_ptr<net::Queue> q) {
    net_.add_link(a, b, cfg, std::move(q));
    links_.emplace_back(a, b);
  };
  for (std::size_t h = 0; h < kHosts; ++h) {
    link(hosts_[h], edges_[h % kEdges], host_up, nullptr);
    link(edges_[h % kEdges], hosts_[h], host_up, nullptr);
  }
  for (const net::NodeId e : edges_) {
    link(e, core_, edge_up, intserv());
    link(core_, e, edge_up, nullptr);
  }
  auto core_q = intserv();
  core_egress_ = core_q.get();
  link(core_, sink_, core_up, std::move(core_q));
  link(sink_, core_, core_up, nullptr);
  qos_ = std::make_unique<core::NetworkQosManager>(net_);
  qos_->deploy_agents_everywhere();

  // --- seeded inputs: per-flow Poisson send schedules and the churn order -----------
  Rng rng(stream_seed(opt.seed, 1));
  const double be_gap_ns =
      static_cast<double>(kFlows - kFlows / 8) * kPacketBytes * 8.0 / kBestEffortBps * 1e9;
  const auto crowd_at = static_cast<double>(start_.ns()) +
                        kCrowdAt * static_cast<double>((end_ - start_).ns());
  const auto end_ns = static_cast<double>(end_.ns());
  for (net::FlowId f = 1; f <= kFlows; ++f) {
    const bool crowd = is_controlled(f) && ((f - 1) / 8) % 2 == 0;
    const double gap = !is_reserved(f) ? be_gap_ns : is_controlled(f) ? kGroupGapNs : kReservedGapNs;
    // The first packet lands uniformly inside the first mean gap, so every
    // flow is live; Poisson after that.
    const double first = rng.uniform(0.0, std::min(gap, 0.5 * (end_ns - start_.ns())));
    for (double t = static_cast<double>(start_.ns()) + first; t < end_ns;) {
      sends_.push_back(Send{static_cast<std::int64_t>(t), static_cast<std::uint32_t>(f)});
      t += rng.exponential(crowd && t >= crowd_at ? kCrowdGapNs : gap);
    }
  }
  std::sort(sends_.begin(), sends_.end(), [](const Send& a, const Send& b) {
    return a.at_ns != b.at_ns ? a.at_ns < b.at_ns : a.flow < b.flow;
  });
  latency_ns_.assign(sends_.size(), -1);
  for (net::FlowId f = 1; f <= kFlows; f += 8) {
    if (!is_controlled(f)) churn_order_.push_back(f);
  }
  for (std::size_t i = churn_order_.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(churn_order_[i - 1],
              churn_order_[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }

  net_.set_receiver(sink_, [this](net::Packet&& p) {
    latency_ns_[p.seq] = (engine_.now() - p.sent_at).ns();
  });

  // --- reservations: regular flows through the QoS manager, the controlled
  // group through QoS sessions carrying the drop-rate SLO. Requests are
  // spread over the settle time so the signaling fits the control queues. ----
  obs::SloSpec slo;
  slo.max_drop_rate = 0.05;
  for (std::size_t h = 0; h < kControlledHosts; ++h) {
    cpus_.push_back(std::make_unique<os::Cpu>(engine_, "host" + std::to_string(h) + "-cpu"));
    orbs_.push_back(std::make_unique<orb::OrbEndpoint>(net_, hosts_[h], *cpus_.back()));
  }
  Duration at = Duration::zero();
  for (net::FlowId f = 1; f <= kFlows; f += 8, at += kReserveSpacing) {
    if (is_controlled(f)) {
      controlled_.push_back(f);
      orb::ObjectRef sink_ref;
      sink_ref.node = sink_;
      sink_ref.object_key = "sink/flow" + std::to_string(f);
      stubs_.push_back(std::make_unique<orb::ObjectStub>(*orbs_[host_of(f)], sink_ref));
      sessions_.push_back(std::make_unique<core::QoSSession>(*orbs_[host_of(f)],
                                                             *stubs_.back(), qos_.get()));
      core::EndToEndQosPolicy policy;
      policy.flow = f;
      policy.network_reservation = kGroupSpec;
      policy.slo = slo;
      core::QoSSession* session = sessions_.back().get();
      engine_.at(TimePoint::zero() + at, [this, session, policy] {
        tr_.span(Span::BenchHandler, 0, [&] {
          const TimePoint asked = engine_.now();
          tr_.span(Span::CoreSession, 0, [&] {
            session->apply(policy, [this, asked](Status<std::string> s) {
              reserved(asked, std::move(s));
            });
          });
        });
      });
    } else {
      engine_.at(TimePoint::zero() + at, [this, f] { churn_reserve(f); });
    }
  }
  tr_.span(Span::SimRun, 0, [&] { engine_.run_until(start_); });

  core::FeedbackConfig fc;
  fc.epoch = kEpoch;
  fc.net_pool_bps = 8e6;
  fc.miss_weight = 0.0;
  fc.drop_weight = 4.0;
  fc.latency_weight = 0.0;
  controller_ = std::make_unique<core::FeedbackScheduler>(engine_, hub_, fc);
  for (const net::FlowId f : controlled_) {
    controller_->control_rate(f, *core_egress_, kGroupSpec.bucket_bytes);
  }

  engine_.at(TimePoint{sends_.front().at_ns}, [this] { send_next(); });
  engine_.at(start_ + kChurnEvery, [this] { churn_release(); });
}

void CityChurn::reserved(TimePoint asked, Status<std::string> status) {
  tr_.span(Span::BenchHandler, 0, [&] {
    if (status.ok()) {
      ++admitted_;
      rsvp_setup_ms_.push_back((engine_.now() - asked).millis());
    } else {
      ++rejected_;
      if (first_rejection_.empty()) first_rejection_ = status.error();
    }
  });
}

void CityChurn::send_next() {
  const std::size_t i = next_send_++;
  tr_.span(Span::BenchHandler, i + 1, [&] {
    const Send& s = sends_[i];
    net::Packet p;
    p.dst = sink_;
    p.flow = s.flow;
    p.seq = i;
    p.size_bytes = kPacketBytes;
    p.dscp = is_reserved(s.flow) ? net::dscp::kEf : net::dscp::kBestEffort;
    tr_.span(Span::NetSend, i + 1, [&] { net_.send(hosts_[host_of(s.flow)], std::move(p)); });
    depth_max_ = std::max(depth_max_, core_egress_->packets());
    if (next_send_ < sends_.size()) {
      engine_.at(TimePoint{sends_[next_send_].at_ns}, [this] { send_next(); });
    }
  });
}

void CityChurn::churn_release() {
  tr_.span(Span::BenchHandler, 0, [&] {
    const net::FlowId f = churn_order_[next_churn_++ % churn_order_.size()];
    tr_.span(Span::CoreReserve, 0, [&] { qos_->release(f, hosts_[host_of(f)]); });
    const TimePoint again = engine_.now() + kChurnGap;
    if (again < end_) engine_.at(again, [this, f] { churn_reserve(f); });
    const TimePoint next = engine_.now() + kChurnEvery;
    if (next < end_) engine_.at(next, [this] { churn_release(); });
  });
}

void CityChurn::churn_reserve(net::FlowId f) {
  tr_.span(Span::BenchHandler, 0, [&] {
    const TimePoint asked = engine_.now();
    tr_.span(Span::CoreReserve, 0, [&] {
      qos_->reserve(f, hosts_[host_of(f)], sink_, kReservedSpec,
                    [this, asked](Status<std::string> s) { reserved(asked, std::move(s)); });
    });
  });
}

Outcome CityChurn::run() {
  Outcome out;
  const std::uint64_t events_before = engine_.executed();
  const TimePoint drain_end = end_ + kDrain;
  for (TimePoint t = engine_.now() + kEpoch;; t = t + kEpoch) {
    const TimePoint until = std::min(t, drain_end);
    tr_.span(Span::SimRun, 0, [&] { engine_.run_until(until); });
    tr_.span(Span::ObsPoll, 0, [&] { hub_.poll(until); });
    if (until <= end_) tr_.span(Span::CoreEpoch, 0, [&] { controller_->run_epoch(until); });
    if (until >= drain_end) break;
  }

  // --- harvest ---------------------------------------------------------------------
  Digest digest;
  std::uint64_t resv_sent = 0;
  std::uint64_t resv_delivered = 0;
  std::uint64_t be_sent = 0;
  std::uint64_t be_delivered = 0;
  for (std::size_t i = 0; i < sends_.size(); ++i) {
    const std::int64_t lat = latency_ns_[i];
    digest.add(static_cast<std::uint64_t>(lat));
    if (is_reserved(sends_[i].flow)) {
      ++resv_sent;
      if (lat >= 0) ++resv_delivered;
      out.adus.push_back(Adu{lat, kDeadline.ns()});
    } else {
      ++be_sent;
      if (lat >= 0) ++be_delivered;
    }
  }

  obs::HealthReport health;
  std::string sidecar;
  tr_.span(Span::ObsExport, 0, [&] {
    hub_.finalize(engine_.now());
    health = hub_.report();
    obs::MetricsRegistry reg;
    const auto emit = [&reg](const std::string& base, const net::FlowCounters& c) {
      reg.counter(base + ".sent").set(c.sent);
      reg.counter(base + ".delivered").set(c.delivered);
      reg.counter(base + ".dropped").set(c.dropped);
    };
    emit("net.total", net_.totals());
    for (const net::FlowId f : controlled_) emit("net.flow" + std::to_string(f), net_.flow(f));
    reg.counter("net.core.dropped").set(core_egress_->stats().dropped);
    hub_.export_metrics(reg, "telemetry");
    std::ostringstream os;
    obs::write_metrics_sidecar(os, {{"city_churn", reg.snapshot()}});
    obs::write_health_sidecar(os, {{"city_churn", health}});
    sidecar = os.str();
  });
  digest.add(sidecar);
  out.digest = digest.value();

  // --- per-layer counters ------------------------------------------------------------
  std::uint64_t hops = 0;
  for (const auto& [a, b] : links_) hops += net_.link_between(a, b)->packets_transmitted();
  const net::FlowCounters& tot = net_.totals();
  std::uint64_t breaches = 0;
  std::uint64_t recoveries = 0;
  for (const auto& [flow, s] : health.flows) {
    breaches += s.breaches;
    recoveries += s.recoveries;
  }
  std::sort(rsvp_setup_ms_.begin(), rsvp_setup_ms_.end());
  const double flow_epochs =
      static_cast<double>(controller_->epochs_run()) * static_cast<double>(controlled_.size());
  out.counter("sim.events", static_cast<double>(engine_.executed() - events_before));
  out.counter("net.pkt_hops", static_cast<double>(hops));
  out.counter("net.delivered", static_cast<double>(tot.delivered));
  out.counter("net.dropped", static_cast<double>(tot.dropped));
  out.counter("net.bottleneck.drops", static_cast<double>(core_egress_->stats().dropped));
  out.counter("net.bottleneck.depth_max", static_cast<double>(depth_max_));
  out.counter("net.rsvp.admitted", static_cast<double>(admitted_));
  out.counter("net.rsvp.rejected", static_cast<double>(rejected_));
  out.counter("net.rsvp.setup_ms_p50", quantile_sorted(rsvp_setup_ms_, 0.5));
  out.counter("core.feedback.epochs", static_cast<double>(controller_->epochs_run()));
  out.counter("core.feedback.restamps_applied",
              static_cast<double>(controller_->restamps_applied()));
  out.counter("core.feedback.restamp_ratio",
              flow_epochs > 0 ? static_cast<double>(controller_->restamps_applied()) / flow_epochs
                              : 0.0);
  out.counter("obs.breaches", static_cast<double>(breaches));
  out.counter("obs.recoveries", static_cast<double>(recoveries));
  out.counter("obs.flight.overwritten", static_cast<double>(hub_.flight().overwritten()));

  // --- checks ---------------------------------------------------------------------
  // Per data flow, sent = delivered + dropped. IntServQueue::remove_reservation
  // discards a torn-down flow's queued packets when best effort is full
  // without reporting them to the Network, so those packets are missing
  // from the Network's per-flow counters; they are reconciled, exactly,
  // against the queues' own drop counters and reported as
  // net.unreported_drops.
  std::uint64_t flows = 0;
  std::uint64_t unbalanced = 0;
  std::uint64_t shortfall = 0;
  for (net::FlowId f = 1; f <= kFlows; ++f) {
    const net::FlowCounters& c = net_.flow(f);
    if (c.sent == 0) continue;
    ++flows;
    if (c.sent < c.delivered + c.dropped) ++unbalanced;
    else shortfall += c.sent - c.delivered - c.dropped;
  }
  std::uint64_t queue_drops = 0;
  for (const auto& [a, b] : links_) queue_drops += net_.link_between(a, b)->queue().stats().dropped;
  const std::uint64_t unreported = queue_drops > tot.dropped ? queue_drops - tot.dropped : 0;
  out.counter("net.flows", static_cast<double>(flows));
  out.counter("net.unreported_drops", static_cast<double>(unreported));
  out.check("conservation.net", unbalanced == 0 && shortfall == unreported &&
                                    queue_drops >= tot.dropped,
            std::to_string(flows) + " data flows balance; " + std::to_string(shortfall) +
                " packets missing from the Network's counters = " +
                std::to_string(unreported) + " queue drops the Network did not see");
  out.check("rsvp.all_admitted", rejected_ == 0 && admitted_ > 0,
            std::to_string(admitted_) + " admitted, " + std::to_string(rejected_) + " rejected" +
                (first_rejection_.empty() ? "" : " (first: " + first_rejection_ + ")"));
  const double resv_ratio = resv_sent == 0 ? 0.0 : static_cast<double>(resv_delivered) / resv_sent;
  const double be_ratio = be_sent == 0 ? 0.0 : static_cast<double>(be_delivered) / be_sent;
  out.check("shape.reserved_above_best_effort", resv_ratio > be_ratio,
            "reserved delivery " + std::to_string(resv_ratio) + " > best effort " +
                std::to_string(be_ratio));
  out.check("control.active", controller_->epochs_run() > 0 && controller_->restamps_applied() > 0,
            std::to_string(controller_->epochs_run()) + " epochs, " +
                std::to_string(controller_->restamps_applied()) + " re-stamps");
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_city_churn(const Options& opt, Tracer& tracer) {
  return std::make_unique<CityChurn>(opt, tracer);
}

}  // namespace e2e
