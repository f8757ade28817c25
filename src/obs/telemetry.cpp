#include "obs/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "obs/json_out.hpp"

namespace aqm::obs {

TelemetryHub::TelemetryHub(TelemetryConfig cfg)
    : cfg_(cfg),
      bucket_ns_(cfg.bucket.ns()),
      latency_layout_(Histogram::log_scaled(cfg.latency_lo_ms, cfg.latency_hi_ms,
                                            cfg.latency_buckets)),
      window_ns_(cfg.bucket.ns() * static_cast<std::int64_t>(cfg.buckets)),
      window_scratch_(latency_layout_),
      flight_(kDefaultCategories),
      dump_source_(&flight_) {
  assert(bucket_ns_ > 0);
  assert(cfg_.buckets > 0);
  flight_.set_ring_capacity(cfg_.flight_capacity);
}

TelemetryHub::FlowState& TelemetryHub::flow_state(std::uint64_t flow) {
  if (flow == mru_flow_ && mru_flow_ != 0) return flows_[mru_slot_];
  std::uint32_t slot = flow_index_.find(flow);
  if (slot == FlowIndex::kNoSlot) {
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
    flows_.back().id = flow;
    flow_index_.insert(flow, slot);
  }
  mru_flow_ = flow;
  mru_slot_ = slot;
  return flows_[slot];
}

void TelemetryHub::enable_window(FlowState& f, TimePoint now) {
  if (f.windowed) return;
  f.windowed = true;
  f.ring.reserve(cfg_.buckets);
  for (std::uint32_t i = 0; i < cfg_.buckets; ++i) f.ring.emplace_back(latency_layout_);
  // Bucket boundaries are integer multiples of the bucket width on the
  // simulation clock, so evaluation instants are deterministic regardless
  // of when monitoring was enabled.
  f.bucket_start_ns = (now.ns() / bucket_ns_) * bucket_ns_;
  f.recent_traces.assign(cfg_.recent_traces, 0);
}

void TelemetryHub::set_slo(std::uint64_t flow, const SloSpec& spec) {
  if (flow == 0) return;
  FlowState& f = flow_state(flow);
  f.spec = spec;
  f.has_spec = spec.any();
  if (f.has_spec) enable_window(f, TimePoint::zero());
}

void TelemetryHub::watch(std::uint64_t flow) {
  if (flow == 0) return;
  enable_window(flow_state(flow), TimePoint::zero());
}

void TelemetryHub::clear_slo(std::uint64_t flow) {
  const std::uint32_t slot = flow_index_.find(flow);
  if (slot == FlowIndex::kNoSlot) return;
  FlowState& f = flows_[slot];
  f.spec = SloSpec{};
  f.has_spec = false;
  f.bad_streak = 0;
  f.good_streak = 0;
}

const SloSpec* TelemetryHub::slo(std::uint64_t flow) const {
  const std::uint32_t slot = flow_index_.find(flow);
  if (slot == FlowIndex::kNoSlot || !flows_[slot].has_spec) return nullptr;
  return &flows_[slot].spec;
}

void TelemetryHub::roll(FlowState& f, std::int64_t now_ns) {
  while (now_ns >= f.bucket_start_ns + bucket_ns_) {
    const std::int64_t boundary = f.bucket_start_ns + bucket_ns_;
    // The bucket that just completed updates the throughput EWMA before
    // the window is judged at this boundary.
    const double inst_bps = static_cast<double>(f.ring[f.cur].bytes) * 8.0e9 /
                            static_cast<double>(bucket_ns_);
    if (!f.ewma_seeded) {
      f.ewma_bps = inst_bps;
      f.ewma_seeded = true;
    } else {
      f.ewma_bps = cfg_.throughput_alpha * inst_bps +
                   (1.0 - cfg_.throughput_alpha) * f.ewma_bps;
    }
    evaluate(f, boundary);
    // Advance: the next slot holds the window's oldest bucket; retire it
    // from the incrementally-maintained aggregates and reuse its storage.
    f.cur = (f.cur + 1) % static_cast<std::uint32_t>(f.ring.size());
    Bucket& expiring = f.ring[f.cur];
    f.w_calls -= expiring.calls;
    f.w_misses -= expiring.misses;
    f.w_deliveries -= expiring.deliveries;
    f.w_drops -= expiring.drops;
    f.w_bytes -= expiring.bytes;
    expiring.calls = expiring.misses = expiring.deliveries = expiring.drops = 0;
    expiring.bytes = 0;
    expiring.latency.clear();
    f.bucket_start_ns = boundary;
  }
}

WindowStats TelemetryHub::window_stats(const FlowState& f) {
  WindowStats w;
  w.calls = f.w_calls;
  w.misses = f.w_misses;
  w.deliveries = f.w_deliveries;
  w.drops = f.w_drops;
  w.bytes = f.w_bytes;
  w.miss_rate = w.calls == 0 ? 0.0
                             : static_cast<double>(w.misses) / static_cast<double>(w.calls);
  const std::uint64_t seen = w.deliveries + w.drops;
  w.drop_rate = seen == 0 ? 0.0 : static_cast<double>(w.drops) / static_cast<double>(seen);
  // The window-wide latency histogram is materialized here, not maintained
  // per observation: merging K bucket histograms at an evaluation instant
  // amortizes to (K * buckets) / observations-per-bucket — far cheaper
  // than a second histogram add on every hot-path observation.
  window_scratch_.clear();
  for (const Bucket& b : f.ring) window_scratch_.merge(b.latency);
  w.p99_latency_ms =
      window_scratch_.count() == 0 ? 0.0 : window_scratch_.quantile(0.99);
  w.throughput_bps = f.ewma_seeded ? f.ewma_bps : 0.0;
  return w;
}

void TelemetryHub::evaluate(FlowState& f, std::int64_t t_ns) {
  if (!f.has_spec) return;
  const WindowStats w = window_stats(f);
  // Windows with no traffic at all are skipped as "clean": an idle flow
  // recovers (nothing is violated) rather than pinning a throughput
  // breach forever after load stops.
  const bool empty = w.calls == 0 && w.deliveries == 0 && w.drops == 0;
  const char* metric = nullptr;
  double value = 0.0;
  double threshold = 0.0;
  if (!empty) {
    const SloSpec& s = f.spec;
    if (s.max_miss_rate && w.miss_rate > *s.max_miss_rate) {
      metric = "miss_rate";
      value = w.miss_rate;
      threshold = *s.max_miss_rate;
    } else if (s.max_drop_rate && w.drop_rate > *s.max_drop_rate) {
      metric = "drop_rate";
      value = w.drop_rate;
      threshold = *s.max_drop_rate;
    } else if (s.max_p99_latency_ms && w.p99_latency_ms > *s.max_p99_latency_ms) {
      metric = "p99_latency_ms";
      value = w.p99_latency_ms;
      threshold = *s.max_p99_latency_ms;
    } else if (s.min_throughput_bps && f.ewma_seeded &&
               w.throughput_bps < *s.min_throughput_bps) {
      metric = "throughput_bps";
      value = w.throughput_bps;
      threshold = *s.min_throughput_bps;
    }
  }
  if (metric != nullptr) {
    f.good_streak = 0;
    ++f.bad_streak;
    if (!f.breached && f.bad_streak >= f.spec.breach_windows) {
      f.breached = true;
      f.breach_since_ns = t_ns;
      ++f.summary.breaches;
      events_.push_back({t_ns, f.id, true, metric, value, threshold, w});
      capture_dump(f, t_ns, metric);
    }
  } else {
    f.bad_streak = 0;
    ++f.good_streak;
    if (f.breached && f.good_streak >= f.spec.recover_windows) {
      f.breached = false;
      f.summary.breached_ns += t_ns - f.breach_since_ns;
      ++f.summary.recoveries;
      events_.push_back({t_ns, f.id, false, "recovered", 0.0, 0.0, w});
    }
  }
}

void TelemetryHub::note_trace(FlowState& f, std::uint64_t trace) {
  if (trace == 0 || f.recent_traces.empty()) return;
  f.recent_traces[f.recent_pos] = trace;
  f.recent_pos = (f.recent_pos + 1) % f.recent_traces.size();
}

void TelemetryHub::capture_dump(const FlowState& f, std::int64_t t_ns,
                                const char* metric) {
  if (dumps_.size() >= cfg_.max_dumps || dump_source_ == nullptr) return;
  FlightDump d;
  d.t_ns = t_ns;
  d.flow = f.id;
  d.metric = metric;
  d.ring_overwritten = dump_source_->overwritten();
  const std::int64_t lo = t_ns - window_ns_;
  dump_source_->for_each([&](const TraceEvent& e) {
    if (e.ts_ns < lo) return;
    bool implicated = false;
    if (e.id != 0) {
      for (const std::uint64_t id : f.recent_traces) {
        if (id != 0 && id == e.id) {
          implicated = true;
          break;
        }
      }
    }
    if (!implicated && e.argc > 0) {
      const auto flow_val = static_cast<double>(f.id);
      for (std::uint8_t i = 0; i < e.argc; ++i) {
        if (e.args[i].key != nullptr && std::string_view(e.args[i].key) == "flow" &&
            e.args[i].value == flow_val) {
          implicated = true;
          break;
        }
      }
    }
    if (!implicated) return;
    FlightEvent fe;
    fe.ts_ns = e.ts_ns;
    fe.cat = to_string(e.cat);
    fe.name = e.name != nullptr ? e.name : "?";
    fe.id = e.id;
    fe.argc = e.argc;
    for (std::uint8_t i = 0; i < e.argc; ++i) {
      fe.args[i] = {e.args[i].key != nullptr ? e.args[i].key : "?", e.args[i].value};
    }
    d.events.push_back(std::move(fe));
  });
  dumps_.push_back(std::move(d));
}

void TelemetryHub::on_deadline_miss(std::uint64_t flow, TimePoint now,
                                    std::uint64_t trace) {
  if (flow == 0) {
    ++global_misses_;
    return;
  }
  FlowState& f = flow_state(flow);
  ++f.total_calls;
  ++f.total_misses;
  note_trace(f, trace);
  if (!f.windowed) return;
  roll(f, now.ns());
  Bucket& b = f.ring[f.cur];
  ++b.calls;
  ++b.misses;
  ++f.w_calls;
  ++f.w_misses;
}

void TelemetryHub::on_retry(std::uint64_t flow, TimePoint now) {
  (void)now;
  if (flow == 0) return;
  ++flow_state(flow).total_retries;
}

void TelemetryHub::on_ce_mark(std::uint64_t flow, TimePoint now) {
  (void)now;
  if (flow == 0) return;
  ++flow_state(flow).total_ce_marks;
}

void TelemetryHub::on_queue_depth(std::size_t packets) {
  queue_depth_.add(static_cast<double>(packets));
}

void TelemetryHub::on_jitter(std::uint64_t flow, double jitter_ms) {
  if (flow == 0) return;
  flow_state(flow).jitter_ms.add(jitter_ms);
}

void TelemetryHub::on_reserve_overrun(std::uint64_t reserve_id, TimePoint now) {
  (void)reserve_id;
  (void)now;
  ++reserve_overruns_;
}

void TelemetryHub::poll(TimePoint now) {
  // Ascending flow-id order so same-boundary health events from different
  // flows land in the stream in a deterministic order.
  std::vector<std::uint64_t> ids;
  ids.reserve(flows_.size());
  for (const FlowState& f : flows_) {
    if (f.windowed) ids.push_back(f.id);
  }
  std::sort(ids.begin(), ids.end());
  for (const std::uint64_t id : ids) roll(flows_[flow_index_.find(id)], now.ns());
}

void TelemetryHub::finalize(TimePoint now) {
  poll(now);
  for (FlowState& f : flows_) {
    if (f.breached) {
      f.summary.breached_ns += now.ns() - f.breach_since_ns;
      f.breach_since_ns = now.ns();
    }
  }
}

bool TelemetryHub::breached(std::uint64_t flow) const {
  const std::uint32_t slot = flow_index_.find(flow);
  return slot != FlowIndex::kNoSlot && flows_[slot].breached;
}

WindowStats TelemetryHub::window(std::uint64_t flow, TimePoint now) {
  if (flow == 0) return {};
  FlowState& f = flow_state(flow);
  if (!f.windowed) return {};
  roll(f, now.ns());
  return window_stats(f);
}

HealthReport TelemetryHub::report() const {
  HealthReport r;
  r.events = events_;
  for (const FlowState& f : flows_) {
    if (f.has_spec || f.summary.breaches > 0) r.flows.emplace(f.id, f.summary);
  }
  return r;
}

void TelemetryHub::export_metrics(MetricsRegistry& reg, std::string_view prefix) const {
  // Names are registered in byte order of the full name — flows by the
  // decimal text of their id ("flow10" < "flow2"), suffixes alphabetical,
  // hub-global names around the ".flow" block — so the registry's
  // snapshot finds the whole walk already sorted. Each flow's
  // "<prefix>.flow<id>" is built once in a reused buffer.
  std::vector<std::pair<std::string, std::uint32_t>> order;  // (decimal id, slot)
  order.reserve(flows_.size());
  for (std::uint32_t s = 0; s < flows_.size(); ++s) order.emplace_back(std::to_string(flows_[s].id), s);
  std::sort(order.begin(), order.end());
  std::string name(prefix);
  const auto named = [&name](std::size_t keep, std::string_view suffix) -> std::string_view {
    name.resize(keep);
    name += suffix;
    return name;
  };
  const std::size_t p = prefix.size();
  reg.counter(named(p, ".flight_dumps")).inc(dumps_.size());
  reg.counter(named(p, ".flight_overwritten")).inc(flight_.overwritten());
  for (const auto& [id, slot] : order) {
    const FlowState& f = flows_[slot];
    named(p, ".flow");
    name += id;
    const std::size_t n = name.size();
    const bool health = f.has_spec || f.summary.breaches > 0;
    if (health) {
      reg.gauge(named(n, ".breached_ms")).set(static_cast<double>(f.summary.breached_ns) / 1e6);
      reg.counter(named(n, ".breaches")).inc(f.summary.breaches);
    }
    reg.counter(named(n, ".calls")).inc(f.total_calls);
    reg.counter(named(n, ".ce_marks")).inc(f.total_ce_marks);
    reg.counter(named(n, ".deadline_misses")).inc(f.total_misses);
    reg.counter(named(n, ".delivered_bytes")).inc(f.total_bytes);
    reg.counter(named(n, ".deliveries")).inc(f.total_deliveries);
    reg.counter(named(n, ".drops")).inc(f.total_drops);
    if (!f.jitter_ms.empty()) reg.stats(named(n, ".jitter_ms")).merge(f.jitter_ms);
    if (health) reg.counter(named(n, ".recoveries")).inc(f.summary.recoveries);
    reg.counter(named(n, ".retries")).inc(f.total_retries);
  }
  reg.counter(named(p, ".health_events")).inc(events_.size());
  if (!queue_depth_.empty()) reg.stats(named(p, ".queue_depth")).merge(queue_depth_);
  reg.counter(named(p, ".reserve_overruns")).inc(reserve_overruns_);
  if (global_drops_ + global_deliveries_ + global_misses_ > 0) {
    reg.counter(named(p, ".unattributed.deadline_misses")).inc(global_misses_);
    reg.counter(named(p, ".unattributed.deliveries")).inc(global_deliveries_);
    reg.counter(named(p, ".unattributed.drops")).inc(global_drops_);
  }
}

// --- sidecar writers --------------------------------------------------------

namespace {

using detail::JsonOut;

void write_health_event(JsonOut& out, const HealthEvent& e) {
  out << '{';
  out.key("t_ms") << static_cast<double>(e.t_ns) / 1e6 << ',';
  out.key("flow") << e.flow << ',';
  out.key("type") << (e.breach ? "\"breach\"," : "\"recover\",");
  out.key("metric").str(e.metric) << ',';
  out.key("value") << e.value << ',';
  out.key("threshold") << e.threshold << ',';
  const WindowStats& w = e.window;
  out.key("window") << '{';
  out.key("calls") << w.calls << ',';
  out.key("misses") << w.misses << ',';
  out.key("deliveries") << w.deliveries << ',';
  out.key("drops") << w.drops << ',';
  out.key("bytes") << w.bytes << ',';
  out.key("miss_rate") << w.miss_rate << ',';
  out.key("drop_rate") << w.drop_rate << ',';
  out.key("p99_latency_ms") << w.p99_latency_ms << ',';
  out.key("throughput_bps") << w.throughput_bps << "}}";
}

/// `"flow<id>": {"breaches":..,"recoveries":..,"breached_ms":..}` lines at
/// `pad`, one per flow, inside `{...}` closed at `close_pad`.
void write_flow_summaries(JsonOut& out, const std::map<std::uint64_t, FlowHealthSummary>& flows,
                          std::string_view pad, std::string_view close_pad) {
  out << '{';
  bool first = true;
  for (const auto& [flow, s] : flows) {
    out << (first ? "\n" : ",\n") << pad << "\"flow" << flow << "\": {";
    out.key("breaches") << s.breaches << ',';
    out.key("recoveries") << s.recoveries << ',';
    out.key("breached_ms") << static_cast<double>(s.breached_ns) / 1e6 << '}';
    first = false;
  }
  if (!first) out << '\n' << close_pad;
  out << '}';
}

}  // namespace

void write_health_sidecar(std::ostream& os, const std::vector<NamedHealthReport>& trials) {
  JsonOut out(os);
  out << "{\n  \"trials\": [";
  HealthReport merged;
  std::uint64_t merged_events = 0;
  bool first = true;
  for (const auto& t : trials) {
    out << (first ? "\n" : ",\n") << "    {\"name\": ";
    out.str(t.name) << ", \"health\": {\n      \"events\": [";
    bool efirst = true;
    for (const HealthEvent& e : t.report.events) {
      out << (efirst ? "\n" : ",\n") << "        ";
      write_health_event(out, e);
      efirst = false;
    }
    out << (efirst ? "" : "\n      ") << "],\n      \"flows\": ";
    write_flow_summaries(out, t.report.flows, "        ", "      ");
    out << "\n    }}";
    merged_events += t.report.events.size();
    for (const auto& [flow, s] : t.report.flows) {
      FlowHealthSummary& m = merged.flows[flow];
      m.breaches += s.breaches;
      m.recoveries += s.recoveries;
      m.breached_ns += s.breached_ns;
    }
    first = false;
  }
  out << (first ? "" : "\n  ") << "],\n  \"merged\": ";
  // The merged section sums summaries across trials (events stay in their
  // trials: they live on independent simulated timelines).
  out << "{\n    \"events\": " << merged_events << ",\n    \"flows\": ";
  write_flow_summaries(out, merged.flows, "      ", "    ");
  out << "\n  }\n}\n";
}

bool write_health_sidecar_file(const std::string& path,
                               const std::vector<NamedHealthReport>& trials) {
  return detail::write_file(path, [&](std::ostream& os) { write_health_sidecar(os, trials); });
}

void write_flight_sidecar(std::ostream& os, const std::vector<NamedFlightDumps>& trials) {
  JsonOut out(os);
  out << "{\n  \"dumps\": [";
  bool first = true;
  for (const auto& t : trials) {
    for (const FlightDump& d : t.dumps) {
      out << (first ? "\n" : ",\n") << "    {";
      out.key("trial").str(t.name) << ',';
      out.key("t_ms") << static_cast<double>(d.t_ns) / 1e6 << ',';
      out.key("flow") << d.flow << ',';
      out.key("metric").str(d.metric) << ',';
      out.key("ring_overwritten") << d.ring_overwritten << ',';
      out.key("events") << '[';
      bool efirst = true;
      for (const FlightEvent& e : d.events) {
        out << (efirst ? "\n      {" : ",\n      {");
        out.key("t_ms") << static_cast<double>(e.ts_ns) / 1e6 << ',';
        out.key("cat").str(e.cat) << ',';
        out.key("name").str(e.name) << ',';
        out.key("id") << e.id;
        if (e.argc > 0) {
          out << ',';
          out.key("args") << '{';
          for (std::uint8_t i = 0; i < e.argc; ++i) {
            if (i > 0) out << ',';
            out.key(e.args[i].first) << e.args[i].second;
          }
          out << '}';
        }
        out << '}';
        efirst = false;
      }
      out << (efirst ? "]}" : "\n    ]}");
      first = false;
    }
  }
  out << (first ? "" : "\n  ") << "]\n}\n";
}

bool write_flight_sidecar_file(const std::string& path,
                               const std::vector<NamedFlightDumps>& trials) {
  return detail::write_file(path, [&](std::ostream& os) { write_flight_sidecar(os, trials); });
}

}  // namespace aqm::obs
