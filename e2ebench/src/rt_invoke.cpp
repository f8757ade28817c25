// rt_invoke: the Figures 4-6 / Table 2 mechanisms, without image synthesis.
//
// A fixed set of closed-loop twoway callers on the client host is split
// into a high and a low RT-CORBA priority class. Each class's policy maps
// its CORBA priority onto DiffServ codepoints and native thread priorities;
// the high class also holds a hard CPU reserve on the server, requested
// through the CORBA CPU-reservation manager. Servants answer through AMI
// deferred replies after submitting modelled CPU work (Cpu::submit_for),
// while bursty competing CPU load runs on the server at a native priority
// between the two classes. The 100 Mbps DiffServ path is uncongested.
//
// Seeded inputs, generated in set-up: a pool of payloads (log-uniform
// sizes, tens of bytes to tens of KB, random contents), each caller's
// cyclic call plan (payload, think time, servant work) and the load burst
// schedule.
//
// Protected ADU: a high-class call; it misses when it fails or its reply
// arrives after its per-call deadline.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/cpu_reservation_manager.hpp"
#include "core/qos_policy.hpp"
#include "core/qos_session.hpp"
#include "core/testbed.hpp"
#include "counters.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "orb/orb.hpp"
#include "orb/servant.hpp"

namespace e2e {
namespace {

using namespace aqm;

constexpr unsigned kCallersPerClass = 4;
constexpr orb::CorbaPriority kHighPriority = 24000;  // native 186 (linear map)
constexpr orb::CorbaPriority kLowPriority = 8000;    // native 62
constexpr os::Priority kLoadPriority = 128;          // between the classes
constexpr Duration kSettle = seconds(1);
constexpr Duration kBaseHorizon = seconds(60);
constexpr Duration kDrain = seconds(2);
constexpr Duration kSlice = milliseconds(500);
constexpr Duration kCallTimeout = seconds(1);
constexpr std::size_t kPayloads = 1024;
constexpr std::size_t kPlanLength = 2048;  // cyclic per-caller call plan
constexpr double kMinPayload = 32.0;
constexpr double kMaxPayload = 32768.0;
constexpr double kThinkMeanNs = 3e6;
// Servant work: a base cost plus a per-byte cost, jittered per call.
constexpr double kWorkBaseNs = 100e3;
constexpr double kWorkPerByteNs = 20.0;
// Deadline of a high-class call: a fixed budget plus ~3x its wire time.
constexpr std::int64_t kDeadlineBaseNs = 2'000'000;
constexpr std::int64_t kDeadlinePerByteNs = 250;
// The high class's hard reserve on the server CPU.
constexpr Duration kReserveCompute = microseconds(1'500);
constexpr Duration kReservePeriod = milliseconds(5);
// Competing load: bursts of CPU work, exponential gaps.
constexpr double kBurstMeanNs = 4e6;
constexpr double kBurstGapMeanNs = 16e6;

struct PlannedCall {
  std::uint32_t payload = 0;
  std::int64_t think_ns = 0;
  std::int64_t work_ns = 0;
};

struct Caller {
  bool high = false;
  std::size_t next = 0;  // position in the cyclic plan
  std::vector<PlannedCall> plan;
};

struct Burst {
  std::int64_t at_ns = 0;
  std::int64_t work_ns = 0;
};

class RtInvoke final : public Workload {
 public:
  RtInvoke(const Options& opt, Tracer& tracer);
  Outcome run() override;

 private:
  void issue(std::size_t caller);
  void on_reply(std::size_t caller, std::uint64_t call, TimePoint issued,
                orb::CompletionStatus status);
  void handle(orb::ServerRequest& req, bool high);
  void submit_burst();

  Tracer& tr_;
  TimePoint start_;
  TimePoint end_;
  core::PriorityTestbed bed_;
  net::Queue& bottleneck_;

  // Seeded inputs.
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::vector<Caller> callers_;
  std::vector<Burst> bursts_;
  std::size_t next_burst_ = 0;

  // Per-call bookkeeping, indexed by call id.
  struct CallRecord {
    std::int64_t work_ns = 0;
    std::int64_t latency_ns = -1;
    std::int64_t deadline_ns = 0;
    bool high = false;
    bool ok = false;
  };
  std::vector<CallRecord> calls_;

  std::unique_ptr<core::CpuReservationManagerServer> manager_;
  std::unique_ptr<core::CpuReservationClient> reserve_client_;
  std::unique_ptr<orb::ObjectStub> high_stub_;
  std::unique_ptr<orb::ObjectStub> low_stub_;
  std::unique_ptr<core::QoSSession> high_session_;
  std::unique_ptr<core::QoSSession> low_session_;
  os::ReserveId reserve_ = os::kNoReserve;
  std::optional<bool> sessions_ok_;
  int sessions_pending_ = 2;

  std::uint64_t twoways_issued_ = 0;
  std::uint64_t twoways_completed_ = 0;
  std::uint64_t jobs_submitted_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::size_t depth_max_ = 0;
};

core::PriorityTestbedParams testbed_params() {
  core::PriorityTestbedParams p;
  p.bottleneck_bps = 100e6;  // uncongested
  p.diffserv_bottleneck = true;
  return p;
}

std::vector<std::uint8_t> stamp_call(const std::vector<std::uint8_t>& payload,
                                     std::uint64_t call) {
  std::vector<std::uint8_t> body(payload);
  std::memcpy(body.data(), &call, sizeof call);
  return body;
}

std::uint64_t call_of(const std::vector<std::uint8_t>& body) {
  std::uint64_t call = 0;
  std::memcpy(&call, body.data(), sizeof call);
  return call;
}

RtInvoke::RtInvoke(const Options& opt, Tracer& tracer)
    : tr_(tracer),
      start_(TimePoint::zero() + kSettle),
      end_(start_ + Duration{static_cast<std::int64_t>(
                        static_cast<double>(kBaseHorizon.ns()) * opt.scale)}),
      bed_(testbed_params()),
      bottleneck_(bed_.network.link_between(bed_.router_node, bed_.receiver_node)->queue()) {
  // --- seeded inputs ----------------------------------------------------------------
  Rng payload_rng(stream_seed(opt.seed, 1));
  payloads_.reserve(kPayloads);
  // Log-uniform sizes, stratified so every seed offers the same size mix.
  const double log_lo = std::log(kMinPayload);
  const double log_step = (std::log(kMaxPayload) - log_lo) / kPayloads;
  for (std::size_t i = 0; i < kPayloads; ++i) {
    const double log_size = log_lo + log_step * (static_cast<double>(i) + payload_rng.next_double());
    std::vector<std::uint8_t> body(static_cast<std::size_t>(std::exp(log_size)));
    for (std::size_t b = 0; b < body.size(); b += 8) {
      const std::uint64_t word = payload_rng.next_u64();
      std::memcpy(body.data() + b, &word, std::min<std::size_t>(8, body.size() - b));
    }
    payloads_.push_back(std::move(body));
  }
  Rng plan_rng(stream_seed(opt.seed, 2));
  for (unsigned c = 0; c < 2 * kCallersPerClass; ++c) {
    Caller caller;
    caller.high = c < kCallersPerClass;
    caller.plan.reserve(kPlanLength);
    for (std::size_t k = 0; k < kPlanLength; ++k) {
      PlannedCall pc;
      pc.payload = static_cast<std::uint32_t>(plan_rng.uniform_int(0, kPayloads - 1));
      pc.think_ns = static_cast<std::int64_t>(plan_rng.exponential(kThinkMeanNs));
      pc.work_ns = static_cast<std::int64_t>(
          (kWorkBaseNs + kWorkPerByteNs * static_cast<double>(payloads_[pc.payload].size())) *
          plan_rng.uniform(0.5, 1.5));
      caller.plan.push_back(pc);
    }
    callers_.push_back(std::move(caller));
  }
  Rng load_rng(stream_seed(opt.seed, 3));
  for (double t = static_cast<double>(start_.ns()) + load_rng.exponential(kBurstGapMeanNs);
       t < static_cast<double>(end_.ns()); t += load_rng.exponential(kBurstGapMeanNs)) {
    bursts_.push_back(Burst{static_cast<std::int64_t>(t),
                            static_cast<std::int64_t>(load_rng.exponential(kBurstMeanNs))});
  }

  // --- server: CPU reservation manager and the two class servants ------------------
  orb::Poa& mgmt_poa = bed_.receiver_orb.create_poa("mgmt");
  manager_ = std::make_unique<core::CpuReservationManagerServer>(mgmt_poa, bed_.receiver_cpu);
  reserve_client_ =
      std::make_unique<core::CpuReservationClient>(bed_.sender_orb, manager_->ref());

  orb::PoaPolicies lanes;
  lanes.lanes = {orb::rt::ThreadpoolLane{kLowPriority, 2, 256},
                 orb::rt::ThreadpoolLane{kHighPriority, 2, 256}};
  orb::Poa& rt_poa = bed_.receiver_orb.create_poa("rt", lanes);
  const auto make_servant = [this](bool high) {
    return std::make_shared<orb::FunctionServant>(
        [](const orb::ServerRequest& req) {
          // Header parse + demux, plus demarshal of the body.
          return microseconds(20) + Duration{static_cast<std::int64_t>(req.body.size()) * 2};
        },
        [this, high](orb::ServerRequest& req) { handle(req, high); });
  };
  const orb::ObjectRef high_ref = rt_poa.activate_object("high", make_servant(true));
  const orb::ObjectRef low_ref = rt_poa.activate_object("low", make_servant(false));

  // --- client: one binding per class, QoS declared through a session ------------------
  high_stub_ = std::make_unique<orb::ObjectStub>(bed_.sender_orb, high_ref);
  low_stub_ = std::make_unique<orb::ObjectStub>(bed_.sender_orb, low_ref);
  high_session_ = std::make_unique<core::QoSSession>(bed_.sender_orb, *high_stub_, nullptr,
                                                     reserve_client_.get());
  low_session_ = std::make_unique<core::QoSSession>(bed_.sender_orb, *low_stub_);
  core::EndToEndQosPolicy high_policy;
  high_policy.flow = core::kFlowSender1;
  high_policy.priority = kHighPriority;
  high_policy.map_priority_to_dscp = true;
  high_policy.server_cpu_reserve = os::ReserveSpec{kReserveCompute, kReservePeriod, true};
  core::EndToEndQosPolicy low_policy;
  low_policy.flow = core::kFlowSender2;
  low_policy.priority = kLowPriority;
  low_policy.map_priority_to_dscp = true;
  const auto settled = [this](Status<std::string> s) {
    if (!s.ok()) sessions_ok_ = false;
    if (--sessions_pending_ == 0 && !sessions_ok_.has_value()) sessions_ok_ = true;
  };
  tr_.span(Span::CoreSession, 0, [&] { high_session_->apply(high_policy, settled); });
  tr_.span(Span::CoreSession, 0, [&] { low_session_->apply(low_policy, settled); });
  tr_.span(Span::SimRun, 0, [&] { bed_.engine.run_until(start_); });
  reserve_ = high_session_->cpu_reserve_id().value_or(os::kNoReserve);

  // Arm the callers (staggered by their first think time) and the load.
  for (std::size_t c = 0; c < callers_.size(); ++c) {
    bed_.engine.at(start_ + Duration{callers_[c].plan.front().think_ns},
                   [this, c] { issue(c); });
  }
  if (!bursts_.empty()) {
    bed_.engine.at(TimePoint{bursts_.front().at_ns}, [this] { submit_burst(); });
  }
}

void RtInvoke::issue(std::size_t c) {
  const std::uint64_t call = calls_.size();
  tr_.span(Span::BenchHandler, call + 1, [&] {
    Caller& caller = callers_[c];
    const PlannedCall& pc = caller.plan[caller.next % kPlanLength];
    const std::vector<std::uint8_t>& payload = payloads_[pc.payload];
    CallRecord rec;
    rec.work_ns = pc.work_ns;
    rec.high = caller.high;
    rec.deadline_ns =
        kDeadlineBaseNs + kDeadlinePerByteNs * static_cast<std::int64_t>(payload.size());
    calls_.push_back(rec);
    const TimePoint issued = bed_.engine.now();
    ++twoways_issued_;
    orb::ObjectStub& stub = caller.high ? *high_stub_ : *low_stub_;
    tr_.span(Span::OrbInvoke, call + 1, [&] {
      stub.twoway(
          "process", stamp_call(payload, call),
          [this, c, call, issued](orb::CompletionStatus status, std::vector<std::uint8_t>) {
            on_reply(c, call, issued, status);
          },
          kCallTimeout);
    });
    depth_max_ = std::max(depth_max_, bottleneck_.packets());
  });
}

void RtInvoke::on_reply(std::size_t c, std::uint64_t call, TimePoint issued,
                        orb::CompletionStatus status) {
  tr_.span(Span::BenchHandler, call + 1, [&] {
    ++twoways_completed_;
    CallRecord& rec = calls_[call];
    rec.ok = status == orb::CompletionStatus::Ok;
    if (rec.ok) rec.latency_ns = (bed_.engine.now() - issued).ns();
    Caller& caller = callers_[c];
    ++caller.next;
    const TimePoint next = bed_.engine.now() + Duration{caller.plan[caller.next % kPlanLength].think_ns};
    if (next < end_) bed_.engine.at(next, [this, c] { issue(c); });
  });
}

void RtInvoke::handle(orb::ServerRequest& req, bool high) {
  const std::uint64_t call = call_of(req.body);
  tr_.span(Span::BenchHandler, call + 1, [&] {
    orb::ServerRequest::Replier reply = req.defer();
    const os::Priority native = bed_.receiver_orb.priority_mappings().to_native(req.priority);
    ++jobs_submitted_;
    tr_.span(Span::OsSubmit, call + 1, [&] {
      bed_.receiver_cpu.submit_for(
          Duration{calls_[call].work_ns}, native,
          [this, call, reply = std::move(reply)] {
            tr_.span(Span::BenchHandler, call + 1, [&] {
              ++jobs_completed_;
              std::vector<std::uint8_t> body(16);
              std::memcpy(body.data(), &call, sizeof call);
              reply(std::move(body));
            });
          },
          high ? reserve_ : os::kNoReserve);
    });
  });
}

void RtInvoke::submit_burst() {
  const std::size_t i = next_burst_++;
  tr_.span(Span::BenchHandler, 0, [&] {
    ++jobs_submitted_;
    tr_.span(Span::OsSubmit, 0, [&] {
      bed_.receiver_cpu.submit_for(Duration{bursts_[i].work_ns}, kLoadPriority, [this] {
        tr_.span(Span::BenchHandler, 0, [&] { ++jobs_completed_; });
      });
    });
    if (next_burst_ < bursts_.size()) {
      bed_.engine.at(TimePoint{bursts_[next_burst_].at_ns}, [this] { submit_burst(); });
    }
  });
}

Outcome RtInvoke::run() {
  Outcome out;
  sim::Engine& eng = bed_.engine;
  const std::uint64_t events_before = eng.executed();
  const TimePoint drain_end = end_ + kDrain;
  for (TimePoint t = eng.now() + kSlice;; t = t + kSlice) {
    const TimePoint until = std::min(t, drain_end);
    tr_.span(Span::SimRun, 0, [&] { eng.run_until(until); });
    if (until >= drain_end) break;
  }

  // --- harvest ---------------------------------------------------------------------
  Digest digest;
  std::vector<double> low_ms;
  std::uint64_t high_calls = 0;
  for (const CallRecord& rec : calls_) {
    digest.add(static_cast<std::uint64_t>(rec.latency_ns));
    if (rec.high) {
      ++high_calls;
      out.adus.push_back(Adu{rec.ok ? rec.latency_ns : -1, rec.deadline_ns});
    } else if (rec.ok) {
      low_ms.push_back(static_cast<double>(rec.latency_ns) / 1e6);
    }
  }

  const orb::OrbStats& so = bed_.sender_orb.stats();
  std::string sidecar;
  tr_.span(Span::ObsExport, 0, [&] {
    obs::MetricsRegistry reg;
    bed_.sender_orb.export_metrics(reg, "orb.client");
    bed_.receiver_orb.export_metrics(reg, "orb.server");
    bed_.network.export_metrics(reg, "net");
    bed_.sender_cpu.export_metrics(reg, "cpu.client");
    bed_.receiver_cpu.export_metrics(reg, "cpu.server");
    reg.counter("rt.calls").set(calls_.size());
    reg.counter("rt.high_calls").set(high_calls);
    std::ostringstream os;
    obs::write_metrics_sidecar(os, {{"rt_invoke", reg.snapshot()}});
    sidecar = os.str();
  });
  digest.add(sidecar);
  out.digest = digest.value();

  // --- per-layer counters ------------------------------------------------------------
  const net::FlowCounters& tot = bed_.network.totals();
  const std::uint64_t replies = so.replies_ok + so.replies_error + so.timeouts;
  out.counter("sim.events", static_cast<double>(eng.executed() - events_before));
  out.counter("net.pkt_hops",
              static_cast<double>(link_hops(bed_.network, {bed_.sender_node, bed_.router_node,
                                                            bed_.receiver_node, bed_.cross_node})));
  out.counter("net.delivered", static_cast<double>(tot.delivered));
  out.counter("net.dropped", static_cast<double>(tot.dropped));
  out.counter("net.bottleneck.drops", static_cast<double>(bottleneck_.stats().dropped));
  out.counter("net.bottleneck.depth_max", static_cast<double>(depth_max_));
  add_orb_counters(out, {&bed_.sender_orb, &bed_.receiver_orb});
  add_cpu_counters(out, bed_.receiver_cpu);

  // --- checks ---------------------------------------------------------------------
  std::uint64_t unbalanced = 0;
  for (const net::FlowId f : {core::kFlowSender1, core::kFlowSender2}) {
    const net::FlowCounters& fc = bed_.network.flow(f);
    if (fc.sent != fc.delivered + fc.dropped) ++unbalanced;
  }
  out.counter("net.flows", 2.0);
  out.check("conservation.net", unbalanced == 0,
            std::to_string(unbalanced) + " of 2 class flows with sent != delivered + dropped");
  out.check("conservation.orb",
            replies == so.requests_sent && twoways_completed_ == twoways_issued_,
            "client requests " + std::to_string(so.requests_sent) + " = replies " +
                std::to_string(so.replies_ok) + " + errors " +
                std::to_string(so.replies_error) + " + timeouts " +
                std::to_string(so.timeouts) + "; bench calls " +
                std::to_string(twoways_issued_) + " issued, " +
                std::to_string(twoways_completed_) + " completed");
  out.check("conservation.cpu", jobs_submitted_ == jobs_completed_,
            std::to_string(jobs_submitted_) + " jobs submitted, " +
                std::to_string(jobs_completed_) + " completed");
  out.check("policy.applied", sessions_ok_.value_or(false) && reserve_ != os::kNoReserve,
            "both class sessions settled, high-class CPU reserve granted");

  std::vector<double> high_ms;
  for (const Adu& a : out.adus) {
    if (a.latency_ns >= 0) high_ms.push_back(static_cast<double>(a.latency_ns) / 1e6);
  }
  std::sort(high_ms.begin(), high_ms.end());
  std::sort(low_ms.begin(), low_ms.end());
  const double high_p99 = quantile_sorted(high_ms, 0.99);
  const double low_p99 = quantile_sorted(low_ms, 0.99);
  out.check("shape.high_p99_below_low", !high_ms.empty() && high_p99 < low_p99,
            "high p99 " + std::to_string(high_p99) + " ms < low p99 " +
                std::to_string(low_p99) + " ms");
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_rt_invoke(const Options& opt, Tracer& tracer) {
  return std::make_unique<RtInvoke>(opt, tracer);
}

}  // namespace e2e
