// video_resv: the Table 1 / Figure 7 shape, pulsed.
//
// A 30 fps MPEG-1 stream crosses the 10 Mbps IntServ bottleneck of the
// ReservationTestbed under a partial RSVP reservation, with QuO frame
// filtering (RateAdaptationQosket fed by receiver status reports). The
// 43.8 Mbps best-effort load is pulsed on and off every few seconds, so the
// contract degrades and recovers many times. Open loop: frames and load
// packets follow schedules generated from the seed in set-up (load packet
// arrival times; per-frame sizes jittered around the GOP profile).
//
// Protected ADU: a transmitted (post-filter) frame; it misses when it is
// lost or arrives after the playout deadline.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "avstreams/rate_adaptation.hpp"
#include "avstreams/stream.hpp"
#include "common/rng.hpp"
#include "core/qos_policy.hpp"
#include "core/qos_session.hpp"
#include "core/testbed.hpp"
#include "counters.hpp"
#include "harness.hpp"
#include "media/frame_filter.hpp"
#include "media/gop.hpp"
#include "obs/metrics.hpp"
#include "quo/status_channel.hpp"

namespace e2e {
namespace {

using namespace aqm;

constexpr double kFps = 30.0;
constexpr double kLoadBps = 43.8e6;
constexpr std::uint32_t kLoadPacketBytes = 1500;
constexpr Duration kSettle = seconds(1);            // RSVP settle before traffic
constexpr Duration kBaseHorizon = seconds(1'200);   // video duration at scale 1
constexpr Duration kPulsePeriod = seconds(12);      // load on/off cycle
constexpr Duration kPulseOn = seconds(3);
constexpr Duration kFirstPulse = milliseconds(2'050);  // after video start
constexpr Duration kDrain = seconds(5);
constexpr Duration kSlice = seconds(1);             // run_until granularity
constexpr Duration kPlayoutDeadline = milliseconds(100);
constexpr Duration kDecodeCost = microseconds(500);
// Wire-rate reservation between the I+P stream (~730 kbps on the wire) and
// the full stream (~1.35 Mbps): the reduced stream fits with headroom.
constexpr double kReservedRateBps = 900e3;
constexpr std::uint32_t kBucketBytes = 40'000;
constexpr std::size_t kBestEffortCapacity = 3'000;  // packets

class VideoResv final : public Workload {
 public:
  VideoResv(const Options& opt, Tracer& tracer);
  Outcome run() override;

 private:
  void send_frame();
  void send_load();
  void on_status();

  Tracer& tr_;
  TimePoint video_start_;
  TimePoint video_end_;
  core::ReservationTestbed bed_;
  media::GopStructure gop_ = media::GopStructure::mpeg1_paper_profile();
  net::Queue& bottleneck_;

  // Seeded inputs, generated in set-up.
  std::vector<media::VideoFrame> frames_;
  std::vector<std::int64_t> load_at_ns_;

  // Per-frame outcome.
  std::vector<std::int64_t> arrival_ns_;
  std::vector<std::uint8_t> transmitted_;
  std::size_t next_frame_ = 0;
  std::size_t next_load_ = 0;
  std::size_t depth_max_ = 0;

  media::FrameFilter filter_{media::FilterLevel::Full};
  std::unique_ptr<av::VideoSinkEndpoint> sink_;
  std::unique_ptr<av::StreamBinding> binding_;
  std::unique_ptr<av::RateAdaptationQosket> qosket_;
  std::unique_ptr<quo::StatusCollector> collector_;
  std::unique_ptr<quo::StatusReporter> reporter_;
  std::unique_ptr<core::QoSSession> session_;
  quo::ValueSysCond* rx_total_ = nullptr;
  std::uint64_t last_rx_ = 0;
  std::uint64_t last_tx_ = 0;
  std::uint64_t tx_count_ = 0;
  std::optional<bool> reserved_;
  double rsvp_setup_ms_ = 0.0;
};

core::ReservationTestbedParams testbed_params() {
  core::ReservationTestbedParams p;
  p.load_rate_bps = kLoadBps;
  p.intserv.best_effort_capacity = kBestEffortCapacity;
  return p;
}

VideoResv::VideoResv(const Options& opt, Tracer& tracer)
    : tr_(tracer),
      video_start_(TimePoint::zero() + kSettle),
      video_end_(video_start_ +
                 Duration{static_cast<std::int64_t>(
                     static_cast<double>(kBaseHorizon.ns()) * opt.scale)}),
      bed_(testbed_params()),
      bottleneck_(bed_.network.link_between(bed_.switch_node, bed_.receiver_node)->queue()) {
  // --- seeded inputs ------------------------------------------------------------
  Rng frame_rng(stream_seed(opt.seed, 1));
  const auto n_frames = static_cast<std::size_t>(
      std::llround((video_end_ - video_start_).seconds() * kFps));
  frames_.reserve(n_frames);
  for (std::size_t i = 0; i < n_frames; ++i) {
    media::VideoFrame f;
    f.index = i;
    f.type = gop_.type_at(i);
    f.size_bytes = static_cast<std::uint32_t>(
        std::llround(gop_.size_of(f.type) * frame_rng.uniform(0.8, 1.2)));
    f.capture_time =
        video_start_ + Duration{std::llround(static_cast<double>(i) * 1e9 / kFps)};
    frames_.push_back(f);
  }
  arrival_ns_.assign(n_frames, -1);
  transmitted_.assign(n_frames, 0);

  // Poisson load packets inside each "on" window.
  Rng load_rng(stream_seed(opt.seed, 2));
  const double mean_gap_ns = kLoadPacketBytes * 8.0 / kLoadBps * 1e9;
  for (TimePoint on = video_start_ + kFirstPulse; on < video_end_; on = on + kPulsePeriod) {
    const std::int64_t off_ns = std::min(on + kPulseOn, video_end_).ns();
    for (double t = static_cast<double>(on.ns()) + load_rng.exponential(mean_gap_ns);
         t < static_cast<double>(off_ns); t += load_rng.exponential(mean_gap_ns)) {
      load_at_ns_.push_back(static_cast<std::int64_t>(t));
    }
  }

  // --- receiver: sink endpoint ------------------------------------------------
  orb::Poa& video_poa = bed_.receiver_orb.create_poa("video");
  sink_ = std::make_unique<av::VideoSinkEndpoint>(
      video_poa, "display", kDecodeCost, [this](const media::VideoFrame& f) {
        tr_.span(Span::BenchHandler, f.index + 1,
                 [&] { arrival_ns_[f.index] = bed_.engine.now().ns(); });
      });

  // --- sender: QuO frame filter -> stream binding ------------------------------
  binding_ = std::make_unique<av::StreamBinding>(bed_.sender_orb, sink_->ref(),
                                                 core::kFlowVideo);
  av::RateAdaptationConfig qcfg;
  qcfg.reserved_rate_bps = kReservedRateBps;
  qcfg.ip_stream_rate_bps = gop_.rate_bps_filtered(kFps, true, true, false);
  // Probe back up after a few clean seconds, without growing backoff, so
  // every load pulse degrades the contract and every quiet gap restores it.
  qcfg.initial_upgrade_hold_reports = 8;
  qcfg.max_upgrade_hold_reports = 8;
  qosket_ = std::make_unique<av::RateAdaptationQosket>(bed_.engine, filter_, qcfg);

  // --- QuO status collection: receiver reports deliveries upstream ---------------
  orb::Poa& ctl_poa = bed_.sender_orb.create_poa("ctl");
  collector_ = std::make_unique<quo::StatusCollector>(ctl_poa, "video-status");
  rx_total_ = &collector_->condition("frames_received");
  reporter_ = std::make_unique<quo::StatusReporter>(bed_.receiver_orb, collector_->ref(),
                                                    milliseconds(500));
  reporter_->probe("frames_received",
                   [this] { return static_cast<double>(sink_->frames_received()); });
  rx_total_->subscribe([this] { on_status(); });

  // --- partial RSVP reservation through the QoS session ---------------------------
  session_ = std::make_unique<core::QoSSession>(bed_.sender_orb, binding_->stub(), &bed_.qos);
  core::EndToEndQosPolicy policy;
  policy.network_reservation = net::FlowSpec{kReservedRateBps, kBucketBytes};
  const TimePoint asked = bed_.engine.now();
  tr_.span(Span::CoreSession, 0, [&] {
    session_->apply(policy, [this, asked](Status<std::string> s) {
      reserved_ = s.ok();
      rsvp_setup_ms_ = (bed_.engine.now() - asked).millis();
    });
  });
  tr_.span(Span::SimRun, 0, [&] { bed_.engine.run_until(video_start_); });

  // Arm the sources; the first measured event is the first frame.
  reporter_->start();
  bed_.engine.at(frames_.front().capture_time, [this] { send_frame(); });
  if (!load_at_ns_.empty()) {
    bed_.engine.at(TimePoint{load_at_ns_.front()}, [this] { send_load(); });
  }
}

void VideoResv::send_frame() {
  const std::size_t i = next_frame_++;
  tr_.span(Span::BenchHandler, i + 1, [&] {
    const media::VideoFrame& f = frames_[i];
    if (filter_.filter(f)) {
      transmitted_[i] = 1;
      ++tx_count_;
      tr_.span(Span::AvPush, i + 1, [&] { binding_->push(f); });
    }
    if (next_frame_ < frames_.size()) {
      bed_.engine.at(frames_[next_frame_].capture_time, [this] { send_frame(); });
    }
  });
}

void VideoResv::send_load() {
  const std::size_t i = next_load_++;
  tr_.span(Span::BenchHandler, 0, [&] {
    net::Packet p;
    p.dst = bed_.receiver_node;
    p.size_bytes = kLoadPacketBytes;
    p.flow = core::kFlowCross;
    p.seq = i;
    tr_.span(Span::NetSend, 0, [&] { bed_.network.send(bed_.load_node, std::move(p)); });
    depth_max_ = std::max(depth_max_, bottleneck_.packets());
    if (next_load_ < load_at_ns_.size()) {
      bed_.engine.at(TimePoint{load_at_ns_[next_load_]}, [this] { send_load(); });
    }
  });
}

// Sender side: derive the per-window delivery ratio from the receiver's
// cumulative count against the local transmit count and feed the qosket.
void VideoResv::on_status() {
  tr_.span(Span::BenchHandler, 0, [&] {
    const auto rx = static_cast<std::uint64_t>(rx_total_->value());
    const std::uint64_t dtx = tx_count_ - last_tx_;
    const std::uint64_t drx = rx - last_rx_;
    last_tx_ = tx_count_;
    last_rx_ = rx;
    if (dtx == 0) return;
    const double ratio = static_cast<double>(drx) / static_cast<double>(dtx);
    tr_.span(Span::QuoReport, 0, [&] { qosket_->report(ratio); });
  });
}

Outcome VideoResv::run() {
  Outcome out;
  sim::Engine& eng = bed_.engine;
  const std::uint64_t events_before = eng.executed();
  const TimePoint drain_end = video_end_ + kDrain;
  for (TimePoint t = eng.now() + kSlice;; t = t + kSlice) {
    if (t >= video_end_ && reporter_->running()) {
      tr_.span(Span::SimRun, 0, [&] { eng.run_until(video_end_); });
      reporter_->stop();
    }
    const TimePoint until = std::min(t, drain_end);
    tr_.span(Span::SimRun, 0, [&] { eng.run_until(until); });
    if (until >= drain_end) break;
  }

  // --- harvest ---------------------------------------------------------------------
  Digest digest;
  std::uint64_t i_tx = 0;
  std::uint64_t i_rx = 0;
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    if (transmitted_[i] == 0) continue;
    const std::int64_t lat =
        arrival_ns_[i] < 0 ? -1 : arrival_ns_[i] - frames_[i].capture_time.ns();
    out.adus.push_back(Adu{lat, kPlayoutDeadline.ns()});
    digest.add(static_cast<std::uint64_t>(i));
    digest.add(static_cast<std::uint64_t>(lat));
    if (frames_[i].type == media::FrameType::I) {
      ++i_tx;
      if (arrival_ns_[i] >= 0) ++i_rx;
    }
  }

  obs::MetricsSnapshot snap;
  std::string sidecar;
  tr_.span(Span::ObsExport, 0, [&] {
    obs::MetricsRegistry reg;
    bed_.sender_orb.export_metrics(reg, "orb.sender");
    bed_.receiver_orb.export_metrics(reg, "orb.receiver");
    bed_.network.export_metrics(reg, "net");
    bed_.sender_cpu.export_metrics(reg, "cpu.sender");
    bed_.receiver_cpu.export_metrics(reg, "cpu.receiver");
    reg.counter("video.frames_transmitted").set(tx_count_);
    reg.counter("video.frames_filtered").set(filter_.dropped());
    reg.counter("video.region_changes").set(qosket_->history().size());
    snap = reg.snapshot();
    std::ostringstream os;
    obs::write_metrics_sidecar(os, {{"video_resv", snap}});
    sidecar = os.str();
  });
  digest.add(sidecar);
  out.digest = digest.value();

  // --- per-layer counters ------------------------------------------------------------
  const net::FlowCounters& tot = bed_.network.totals();
  out.counter("sim.events", static_cast<double>(eng.executed() - events_before));
  out.counter("net.pkt_hops",
              static_cast<double>(link_hops(bed_.network, {bed_.sender_node, bed_.switch_node,
                                                            bed_.receiver_node, bed_.load_node})));
  out.counter("net.delivered", static_cast<double>(tot.delivered));
  out.counter("net.dropped", static_cast<double>(tot.dropped));
  out.counter("net.bottleneck.drops", static_cast<double>(bottleneck_.stats().dropped));
  out.counter("net.bottleneck.depth_max", static_cast<double>(depth_max_));
  out.counter("net.rsvp.admitted", reserved_.value_or(false) ? 1.0 : 0.0);
  out.counter("net.rsvp.rejected", reserved_.value_or(true) ? 0.0 : 1.0);
  out.counter("net.rsvp.setup_ms_p50", rsvp_setup_ms_);
  add_orb_counters(out, {&bed_.sender_orb, &bed_.receiver_orb});
  add_cpu_counters(out, bed_.receiver_cpu);
  out.counter("quo.region_changes", static_cast<double>(qosket_->history().size()));
  out.counter("media.frames_filtered", static_cast<double>(filter_.dropped()));

  // --- checks ---------------------------------------------------------------------
  std::uint64_t flows = 0;
  std::uint64_t unbalanced = 0;
  for (const auto& [name, sent] : snap.counters) {
    // Data flows only: RSVP messages ride flow 0 and are consumed hop by hop.
    if (name.rfind("net.flow", 0) != 0 || name.size() < 5 ||
        name.compare(name.size() - 5, 5, ".sent") != 0 || name == "net.flow0.sent") {
      continue;
    }
    const std::string base = name.substr(0, name.size() - 5);
    ++flows;
    if (sent != snap.counters.at(base + ".delivered") + snap.counters.at(base + ".dropped")) {
      ++unbalanced;
    }
  }
  out.counter("net.flows", static_cast<double>(flows));
  out.check("conservation.net", unbalanced == 0,
            std::to_string(flows) + " data flows, " + std::to_string(unbalanced) +
                " with sent != delivered + dropped");
  // Every frame and status report is a oneway: each request the ORBs
  // dispatched must have reached its servant.
  const orb::OrbStats& so = bed_.sender_orb.stats();
  const orb::OrbStats& ro = bed_.receiver_orb.stats();
  out.check("conservation.orb",
            ro.requests_dispatched == sink_->frames_received() &&
                so.requests_dispatched == collector_->reports_received(),
            "receiver dispatched " + std::to_string(ro.requests_dispatched) + ", sink got " +
                std::to_string(sink_->frames_received()) + "; sender dispatched " +
                std::to_string(so.requests_dispatched) + ", collector got " +
                std::to_string(collector_->reports_received()));
  out.check("rsvp.admitted", reserved_.value_or(false), "partial reservation confirmed");
  out.check("shape.i_frames_arrive", i_tx > 0 && i_rx == i_tx,
            std::to_string(i_rx) + "/" + std::to_string(i_tx) + " transmitted I-frames arrived");
  out.check("shape.contract_adapts", qosket_->history().size() >= 2,
            std::to_string(qosket_->history().size()) + " region changes");
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_video_resv(const Options& opt, Tracer& tracer) {
  return std::make_unique<VideoResv>(opt, tracer);
}

}  // namespace e2e
