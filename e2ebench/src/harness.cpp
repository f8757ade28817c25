#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace e2e {

const char* span_name(Span kind) {
  switch (kind) {
    case Span::SimRun: return "sim.run";
    case Span::NetSend: return "net.send";
    case Span::OrbInvoke: return "orb.invoke";
    case Span::OsSubmit: return "os.submit";
    case Span::QuoReport: return "quo.report";
    case Span::AvPush: return "avstreams.push";
    case Span::CoreSession: return "core.session";
    case Span::CoreReserve: return "core.qos.reserve";
    case Span::CoreEpoch: return "core.feedback.epoch";
    case Span::ObsPoll: return "obs.poll";
    case Span::ObsExport: return "obs.export";
    case Span::BenchHandler: return "bench.handler";
    case Span::BenchSetup: return "bench.setup";
    case Span::BenchRun: return "bench.run";
    case Span::kCount: break;
  }
  return "?";
}

std::array<std::int64_t, kSpanKinds> Tracer::self_ns() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::array<std::int64_t, kSpanKinds> self{};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    self[static_cast<std::size_t>(s.kind)] += s.end_ns - s.start_ns - child_ns[i];
  }
  return self;
}

std::int64_t Tracer::root_ns() const {
  std::int64_t total = 0;
  for (const SpanRecord& s : spans_) {
    if (s.parent == kNoParent) total += s.end_ns - s.start_ns;
  }
  return total;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::ofstream os(path);
  os << "index\tparent\tkind\tadu\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << i << '\t' << (s.parent == kNoParent ? -1 : static_cast<std::int64_t>(s.parent))
       << '\t' << span_name(s.kind) << '\t' << s.adu << '\t' << s.start_ns << '\t'
       << s.end_ns << '\n';
  }
  os.flush();
  return static_cast<bool>(os);
}

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {"video_resv", "rt_invoke",
                                                      "city_churn"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, const Options& opt,
                                        Tracer& tracer) {
  if (name == "video_resv") return make_video_resv(opt, tracer);
  if (name == "rt_invoke") return make_rt_invoke(opt, tracer);
  if (name == "city_churn") return make_city_churn(opt, tracer);
  return nullptr;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return sorted[std::min(rank, sorted.size()) - 1];
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (stream + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace e2e
