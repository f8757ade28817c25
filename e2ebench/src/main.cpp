// e2ebench: end-to-end benchmark of the simulated DRE middleware stack.
//
//   e2ebench --workload <video_resv|rt_invoke|city_churn> --seed N
//            --seconds S --trace 0|1 [--scale F] [--spans-dir DIR]
//
// One process, one simulated world at a time, one thread. After one
// warm-up run, the workload is set up and run again and again until S
// seconds have passed (at least three times); host times are medians over
// those runs. Every run must reproduce the warm-up's simulation digest.
// With --trace 0 the end-to-end metrics are printed; with --trace 1 the
// untraced and traced runs alternate, the per-layer table comes from the
// traced runs and the spans of one traced run are written to --spans-dir.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace e2e;

struct Metric {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (untraced runs).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"run_s", "s"},          {"peak_rss_mb", "MB"},
    {"qos.miss_pct", "%"},     {"qos.lat_p50_ms", "ms"}, {"qos.lat_p99_ms", "ms"},
};

// The per-layer metrics (traced runs); the same set for every workload,
// 0 where a layer is not exercised.
constexpr Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.run.self_s", "s"},
    {"net.send.calls", "count"},
    {"net.send.self_s", "s"},
    {"net.pkt_hops", "count"},
    {"net.delivered", "count"},
    {"net.dropped", "count"},
    {"net.delivery_ratio", "ratio"},
    {"net.bottleneck.drops", "count"},
    {"net.bottleneck.depth_max", "packets"},
    {"net.flows", "count"},
    {"net.bytes_per_flow", "bytes"},
    {"net.unreported_drops", "count"},
    {"net.rsvp.admitted", "count"},
    {"net.rsvp.rejected", "count"},
    {"net.rsvp.setup_ms_p50", "ms"},
    {"orb.invoke.calls", "count"},
    {"orb.invoke.self_s", "s"},
    {"orb.requests_sent", "count"},
    {"orb.replies_ok", "count"},
    {"orb.replies_error", "count"},
    {"orb.timeouts", "count"},
    {"orb.retries", "count"},
    {"orb.dispatch_rejected", "count"},
    {"orb.reply_ratio", "ratio"},
    {"orb.transport.expired", "count"},
    {"os.submit.calls", "count"},
    {"os.submit.self_s", "s"},
    {"os.cpu.utilization", "ratio"},
    {"os.cpu.busy_s", "s"},
    {"os.reserved_utilization", "ratio"},
    {"quo.report.calls", "count"},
    {"quo.report.self_s", "s"},
    {"quo.region_changes", "count"},
    {"avstreams.push.calls", "count"},
    {"avstreams.push.self_s", "s"},
    {"media.frames_filtered", "count"},
    {"core.session.calls", "count"},
    {"core.session.self_s", "s"},
    {"core.qos.reserve.calls", "count"},
    {"core.qos.reserve.self_s", "s"},
    {"core.feedback.epochs", "count"},
    {"core.feedback.epoch.self_s", "s"},
    {"core.feedback.restamps_applied", "count"},
    {"core.feedback.restamp_ratio", "ratio"},
    {"obs.poll.self_s", "s"},
    {"obs.export.self_s", "s"},
    {"obs.breaches", "count"},
    {"obs.recoveries", "count"},
    {"obs.flight.overwritten", "count"},
    {"bench.handler.self_s", "s"},
    {"bench.self_s", "s"},
    {"trace.spans", "count"},
    {"trace.root_s", "s"},
    {"trace.overhead", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string spans_dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <video_resv|rt_invoke|city_churn> "
               "--seed N --seconds S --trace 0|1 [--scale F] [--spans-dir DIR]\n"
               "       e2ebench --list-metrics\n",
               why);
  std::exit(2);
}

double parse_number(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0)) usage((std::string("bad value for ") + flag).c_str());
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      char* end = nullptr;
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("bad value for --seed");
    } else if (flag == "--seconds") {
      a.seconds = parse_number("--seconds", v);
    } else if (flag == "--trace") {
      const std::string t = v;
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      a.trace = t == "1";
    } else if (flag == "--scale") {
      a.scale = parse_number("--scale", v);
      if (a.scale <= 0) usage("--scale must be positive");
    } else if (flag == "--spans-dir") {
      a.spans_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage(("unknown workload " + a.workload).c_str());
  }
  return a;
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::int64_t>(mi.uordblks + mi.hblkhd);
}

struct Iteration {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::int64_t setup_heap_bytes = 0;
  Outcome out;
  std::unique_ptr<Tracer> tracer;  // traced runs only
};

/// What the per-layer table needs from one traced run; the spans
/// themselves are kept only for the run that gets written out.
struct TraceSummary {
  double run_s = 0.0;
  std::int64_t setup_heap_bytes = 0;
  std::array<std::int64_t, kSpanKinds> self{};
  std::array<std::uint64_t, kSpanKinds> calls{};
  std::int64_t root_ns = 0;
  std::size_t spans = 0;

  explicit TraceSummary(const Iteration& it)
      : run_s(it.run_s),
        setup_heap_bytes(it.setup_heap_bytes),
        self(it.tracer->self_ns()),
        root_ns(it.tracer->root_ns()),
        spans(it.tracer->spans().size()) {
    for (std::size_t k = 0; k < kSpanKinds; ++k) calls[k] = it.tracer->calls(static_cast<Span>(k));
  }
  [[nodiscard]] double self_s(Span k) const {
    return static_cast<double>(self[static_cast<std::size_t>(k)]) / 1e9;
  }
  [[nodiscard]] double calls_of(Span k) const {
    return static_cast<double>(calls[static_cast<std::size_t>(k)]);
  }
};

Iteration run_once(const Args& args, bool traced) {
  Iteration it;
  auto tracer = std::make_unique<Tracer>(traced);
  const Options opt{args.seed, args.scale};
  const std::int64_t heap0 = heap_in_use();
  const double t0 = now_s();
  std::unique_ptr<Workload> w = tracer->span(
      Span::BenchSetup, 0, [&] { return make_workload(args.workload, opt, *tracer); });
  const double t1 = now_s();
  it.setup_heap_bytes = heap_in_use() - heap0;
  it.out = tracer->span(Span::BenchRun, 0, [&] { return w->run(); });
  const double t2 = now_s();
  w.reset();
  it.setup_s = t1 - t0;
  it.run_s = t2 - t1;
  if (traced) it.tracer = std::move(tracer);
  return it;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  char buf[96];
  std::snprintf(buf, sizeof buf, "min %.6g  q1 %.6g  q3 %.6g  max %.6g", v.front(),
                quantile_sorted(v, 0.25), quantile_sorted(v, 0.75), v.back());
  return buf;
}

struct Qos {
  std::uint64_t attempted = 0;
  std::uint64_t missed = 0;
  std::size_t samples = 0;
  std::size_t beyond_tail = 0;
  double tail_q = 0.99;
  double miss_pct = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

// p99 of delivered latencies; with fewer than 10 samples beyond p99, the
// highest percentile that still has 10 samples beyond it.
Qos qos_of(const std::vector<Adu>& adus) {
  Qos q;
  std::vector<double> ms;
  for (const Adu& a : adus) {
    ++q.attempted;
    if (a.missed()) ++q.missed;
    if (a.latency_ns >= 0) ms.push_back(static_cast<double>(a.latency_ns) / 1e6);
  }
  std::sort(ms.begin(), ms.end());
  q.samples = ms.size();
  q.miss_pct = q.attempted == 0 ? 0.0 : 100.0 * static_cast<double>(q.missed) /
                                            static_cast<double>(q.attempted);
  if (ms.empty()) return q;
  q.p50_ms = quantile_sorted(ms, 0.5);
  const std::size_t n = ms.size();
  q.beyond_tail = std::max<std::size_t>(10, n / 100);
  if (q.beyond_tail >= n) q.beyond_tail = n - 1;
  q.p99_ms = ms[n - 1 - q.beyond_tail];
  q.tail_q = 1.0 - static_cast<double>(q.beyond_tail) / static_cast<double>(n);
  return q;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<std::pair<Metric, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first.name, metrics[i].second, metrics[i].first.unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    for (const Metric& m : kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
    for (const Metric& m : kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
    return 0;
  }
  const Args args = parse(argc, argv);

  // Warm-up: fills caches and the allocator; its outcome is the reference
  // every measured run must reproduce.
  const Iteration warm = run_once(args, false);
  const Outcome& ref = warm.out;
  std::vector<Check> checks = ref.checks;

  std::vector<Iteration> plain;
  std::vector<TraceSummary> traced;
  std::unique_ptr<Tracer> dumped;  // spans of the first traced run
  const std::size_t min_each = args.trace ? 2 : 3;
  const double deadline = now_s() + args.seconds;
  std::uint64_t mismatched = 0;
  while (plain.size() < min_each || traced.size() < (args.trace ? min_each : 0) ||
         now_s() < deadline) {
    const bool trace_this = args.trace && traced.size() < plain.size();
    Iteration it = run_once(args, trace_this);
    if (it.out.digest != ref.digest) ++mismatched;
    if (trace_this) {
      traced.emplace_back(it);
      if (!dumped) dumped = std::move(it.tracer);
    } else {
      it.out = Outcome{};
      plain.push_back(std::move(it));
    }
  }
  checks.push_back(Check{"determinism.repeat", mismatched == 0,
                         std::to_string(plain.size() + traced.size()) +
                             " runs reproduce the warm-up digest (" +
                             std::to_string(mismatched) + " differ)"});

  std::vector<double> setup_s;
  std::vector<double> run_s;
  for (const Iteration& it : plain) {
    setup_s.push_back(it.setup_s);
    run_s.push_back(it.run_s);
  }
  const double setup_med = median(setup_s);
  const double run_med = median(run_s);
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const Qos q = qos_of(ref.adus);

  std::printf("e2ebench workload=%s seed=%" PRIu64 " scale=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.scale, args.trace ? 1 : 0);
  std::printf("  runs: %zu untraced + %zu traced measured, 1 warm-up\n", plain.size(),
              traced.size());
  std::printf("  setup_s   %.6f s   (%s)\n", setup_med, quartiles(setup_s).c_str());
  std::printf("  run_s     %.6f s   (%s)\n", run_med, quartiles(run_s).c_str());
  std::printf("  peak_rss_mb  %.3f MB\n", peak_rss_mb);
  std::printf("  qos.miss_pct    %.4f %%  (%" PRIu64 " of %" PRIu64 " protected ADUs missed)\n",
              q.miss_pct, q.missed, q.attempted);
  std::printf("  qos.lat_p50_ms  %.6f ms\n", q.p50_ms);
  std::printf("  qos.lat_p99_ms  %.6f ms  (percentile %.4f, %zu samples beyond, %zu delivered "
              "samples)\n",
              q.p99_ms, q.tail_q * 100.0, q.beyond_tail, q.samples);
  std::printf("  sim_digest %016" PRIx64 "\n", ref.digest);

  std::vector<std::pair<Metric, double>> out_metrics;
  if (!args.trace) {
    const double values[] = {setup_med, run_med, peak_rss_mb, q.miss_pct, q.p50_ms, q.p99_ms};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out_metrics.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    // The traced run with the median root span gives the table, so its
    // self times sum exactly to its root.
    std::vector<double> traced_run_s;
    bool sums = true;
    for (const TraceSummary& t : traced) {
      traced_run_s.push_back(t.run_s);
      std::int64_t total = 0;
      for (const std::int64_t v : t.self) total += v;
      sums = sums && total == t.root_ns;
    }
    std::sort(traced.begin(), traced.end(),
              [](const TraceSummary& a, const TraceSummary& b) { return a.root_ns < b.root_ns; });
    const TraceSummary& pick = traced[(traced.size() - 1) / 2];
    std::int64_t self_sum = 0;
    for (const std::int64_t s : pick.self) self_sum += s;
    checks.push_back(Check{"trace.self_sums_to_root", sums,
                           "per-layer self times sum to the root spans in every traced run"});
    checks.push_back(Check{"trace.digest_matches", mismatched == 0,
                           "traced and untraced runs give the same sim_digest"});

    std::map<std::string, double> v;
    for (const auto& [name, value] : ref.counters) {
      const bool listed = std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                                      [&](const Metric& m) { return name == m.name; });
      if (!listed) {
        std::fprintf(stderr, "e2ebench: workload counter %s is not a listed metric\n", name.c_str());
        return 2;
      }
      v[name] = value;
    }
    const auto self_s = [&](Span k) { return pick.self_s(k); };
    const auto calls = [&](Span k) { return pick.calls_of(k); };
    v["sim.ns_per_event"] = v["sim.events"] > 0 ? run_med * 1e9 / v["sim.events"] : 0.0;
    v["sim.run.self_s"] = self_s(Span::SimRun);
    v["net.send.calls"] = calls(Span::NetSend);
    v["net.send.self_s"] = self_s(Span::NetSend);
    const double resolved = v["net.delivered"] + v["net.dropped"];
    v["net.delivery_ratio"] = resolved > 0 ? v["net.delivered"] / resolved : 0.0;
    v["net.bytes_per_flow"] =
        v["net.flows"] > 0 ? static_cast<double>(pick.setup_heap_bytes) / v["net.flows"] : 0.0;
    v["orb.invoke.calls"] = calls(Span::OrbInvoke);
    v["orb.invoke.self_s"] = self_s(Span::OrbInvoke);
    const double twoway_done = v["orb.replies_ok"] + v["orb.replies_error"] + v["orb.timeouts"];
    v["orb.reply_ratio"] = twoway_done > 0 ? v["orb.replies_ok"] / twoway_done : 0.0;
    v["os.submit.calls"] = calls(Span::OsSubmit);
    v["os.submit.self_s"] = self_s(Span::OsSubmit);
    v["quo.report.calls"] = calls(Span::QuoReport);
    v["quo.report.self_s"] = self_s(Span::QuoReport);
    v["avstreams.push.calls"] = calls(Span::AvPush);
    v["avstreams.push.self_s"] = self_s(Span::AvPush);
    v["core.session.calls"] = calls(Span::CoreSession);
    v["core.session.self_s"] = self_s(Span::CoreSession);
    v["core.qos.reserve.calls"] = calls(Span::CoreReserve);
    v["core.qos.reserve.self_s"] = self_s(Span::CoreReserve);
    v["core.feedback.epoch.self_s"] = self_s(Span::CoreEpoch);
    v["obs.poll.self_s"] = self_s(Span::ObsPoll);
    v["obs.export.self_s"] = self_s(Span::ObsExport);
    v["bench.handler.self_s"] = self_s(Span::BenchHandler);
    v["bench.self_s"] = self_s(Span::BenchSetup) + self_s(Span::BenchRun);
    v["trace.spans"] = static_cast<double>(pick.spans);
    v["trace.root_s"] = static_cast<double>(pick.root_ns) / 1e9;
    v["trace.overhead"] = median(traced_run_s) / run_med;

    std::printf("  per-layer (traced run with the median root span; self = span minus child "
                "spans):\n");
    for (const Metric& m : kPerLayer) {
      out_metrics.emplace_back(m, v[m.name]);
      std::printf("    %-32s %16.9g %s\n", m.name, v[m.name], m.unit);
    }
    std::printf("    self-time sum %.9f s = root %.9f s\n", static_cast<double>(self_sum) / 1e9,
                static_cast<double>(pick.root_ns) / 1e9);
    if (!args.spans_dir.empty()) {
      const std::string path =
          args.spans_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".spans.tsv";
      const bool ok = dumped->write_tsv(path);
      checks.push_back(Check{"trace.spans_written", ok, path});
      if (ok) std::printf("  spans written to %s\n", path.c_str());
    }
  }

  bool correct = true;
  for (const Check& c : checks) {
    std::printf("  check %-34s %s  (%s)\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.c_str());
    correct = correct && c.ok;
  }
  std::printf("  verdict: %s\n", correct ? "PASS" : "FAIL");
  const std::uint64_t attempted = q.attempted * (plain.size() + traced.size());
  print_json(correct, std::max<std::uint64_t>(attempted, 1), correct ? 0 : attempted,
             out_metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
