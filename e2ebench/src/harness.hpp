// End-to-end benchmark harness shared by the workloads.
//
//  * Tracer — times calls into each layer's public functions from outside
//    the library. Call counts are always kept; with recording on, every
//    call also leaves a span (kind, start, end, parent, ADU id) in memory,
//    from which per-layer self time is derived after the run.
//  * Workload — one simulated world. The constructor is the set-up phase
//    (topology, ORBs, servants, seeded input generation, policy
//    application, RSVP/policy settle); run() is the measured phase
//    (simulated horizon, drain, harvest, metrics/health sidecar export).
//  * Outcome — what a run hands back: the protected ADUs with their
//    deadlines, per-layer counters read from the layers' public counters,
//    the correctness checks and the simulation digest.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2e {

/// Span kinds, one per layer boundary the benchmark calls across, plus
/// the benchmark's own handlers and the two phase roots.
enum class Span : std::uint8_t {
  SimRun,        // sim::Engine::run_until slice
  NetSend,       // net::Network::send (bench-injected packets)
  OrbInvoke,     // orb::ObjectStub::oneway / twoway
  OsSubmit,      // os::Cpu::submit_for
  QuoReport,     // av::RateAdaptationQosket::report
  AvPush,        // av::StreamBinding::push
  CoreSession,   // core::QoSSession::apply / update
  CoreReserve,   // core::NetworkQosManager::reserve / release / renegotiate
  CoreEpoch,     // core::FeedbackScheduler::run_epoch (bench-stepped)
  ObsPoll,       // obs::TelemetryHub::poll
  ObsExport,     // report, export_metrics and sidecar serialization
  BenchHandler,  // a benchmark-owned event handler or callback
  BenchSetup,    // root: the set-up phase
  BenchRun,      // root: the measured run phase
  kCount,
};

inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(Span::kCount);

/// Metric-name stem of a span kind ("net.send", "core.qos.reserve", ...).
[[nodiscard]] const char* span_name(Span kind);

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t adu = 0;  // id shared by every span of one ADU (0 = none)
  std::uint32_t parent = 0;
  Span kind = Span::BenchHandler;
};

inline constexpr std::uint32_t kNoParent = 0xffffffffU;

class Tracer {
 public:
  explicit Tracer(bool record) : record_(record) {
    if (record_) spans_.reserve(1U << 20);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Runs `fn` as one call into the layer `kind`; returns what fn returns.
  template <typename F>
  decltype(auto) span(Span kind, std::uint64_t adu, F&& fn) {
    ++calls_[static_cast<std::size_t>(kind)];
    if (!record_) return fn();
    const Scope scope(*this, kind, adu);
    return fn();
  }

  [[nodiscard]] bool recording() const { return record_; }
  [[nodiscard]] std::uint64_t calls(Span kind) const {
    return calls_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Per-kind self time in ns: each span's duration minus the part its
  /// child spans cover. Children of one span never overlap (single thread,
  /// strict nesting), so the self times of all spans sum exactly to the
  /// summed duration of the root spans.
  [[nodiscard]] std::array<std::int64_t, kSpanKinds> self_ns() const;
  /// Summed duration of the root spans.
  [[nodiscard]] std::int64_t root_ns() const;

  /// Writes the recorded spans as tab-separated lines
  /// (index, parent, kind, adu, start_ns, end_ns). Returns false on I/O
  /// failure.
  bool write_tsv(const std::string& path) const;

 private:
  class Scope {
   public:
    Scope(Tracer& t, Span kind, std::uint64_t adu) : t_(t), index_(t.begin(kind, adu)) {}
    ~Scope() { t_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::uint32_t index_;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  std::uint32_t begin(Span kind, std::uint64_t adu) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(SpanRecord{now_ns(), 0, adu, current_, kind});
    current_ = index;
    return index;
  }
  void end(std::uint32_t index) {
    SpanRecord& s = spans_[index];
    s.end_ns = now_ns();
    current_ = s.parent;
  }

  bool record_;
  std::array<std::uint64_t, kSpanKinds> calls_{};
  std::vector<SpanRecord> spans_;
  std::uint32_t current_ = kNoParent;
};

/// 64-bit FNV-1a over the simulation's observable results.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    add(static_cast<std::uint64_t>(s.size()));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One protected application data unit: latency < 0 means it was lost.
struct Adu {
  std::int64_t latency_ns = -1;
  std::int64_t deadline_ns = 0;

  [[nodiscard]] bool missed() const { return latency_ns < 0 || latency_ns > deadline_ns; }
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Outcome {
  std::vector<Adu> adus;
  /// Per-layer counters read from the layers' public counters, by metric
  /// name (e.g. "net.pkt_hops", "orb.replies_ok").
  std::vector<std::pair<std::string, double>> counters;
  std::vector<Check> checks;
  std::uint64_t digest = 0;

  void counter(std::string name, double value) { counters.emplace_back(std::move(name), value); }
  void check(std::string name, bool ok, std::string detail) {
    checks.push_back(Check{std::move(name), ok, std::move(detail)});
  }
};

struct Options {
  std::uint64_t seed = 1;
  /// Multiplies the simulated horizon (1 = the benchmark's size; the
  /// benchmark's own smoke tests use a fraction).
  double scale = 1.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// The measured phase: horizon, drain, harvest and sidecar export.
  virtual Outcome run() = 0;
};

/// Builds (= sets up) the named workload; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name, const Options& opt,
                                        Tracer& tracer);

[[nodiscard]] const std::vector<std::string_view>& workload_names();

// Per-workload factories (one translation unit each).
std::unique_ptr<Workload> make_video_resv(const Options& opt, Tracer& tracer);
std::unique_ptr<Workload> make_rt_invoke(const Options& opt, Tracer& tracer);
std::unique_ptr<Workload> make_city_churn(const Options& opt, Tracer& tracer);

/// Value at quantile q (0..1) of an ascending-sorted sample, nearest rank.
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted, double q);

/// Derives an independent input stream from the run seed, so adding a
/// stream never shifts the draws of another.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace e2e
