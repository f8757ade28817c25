// Micro-benchmarks of the ORB data path (google-benchmark): CDR
// marshaling, GIOP encode/decode, frame codec, POA demultiplexing scaling
// — the TAO-style optimizations Section 2.1 of the paper leans on.
#include <benchmark/benchmark.h>

#include <memory>

#include "avstreams/frame_codec.hpp"
#include "common/json_report.hpp"
#include "orb/cdr.hpp"
#include "orb/giop.hpp"
#include "orb/poa.hpp"
#include "orb/orb.hpp"
#include "core/qos_control_plane.hpp"
#include "core/qos_policy.hpp"
#include "core/qos_session.hpp"
#include "net/network.hpp"
#include "os/cpu.hpp"
#include "quo/contract.hpp"
#include "quo/syscond.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aqm;

void BM_CdrWritePrimitives(benchmark::State& state) {
  for (auto _ : state) {
    orb::CdrWriter w;
    for (int i = 0; i < 64; ++i) {
      w.write_u32(static_cast<std::uint32_t>(i));
      w.write_u64(static_cast<std::uint64_t>(i) * 7);
      w.write_u8(static_cast<std::uint8_t>(i));
    }
    benchmark::DoNotOptimize(w.buffer().data());
  }
  state.SetItemsProcessed(state.iterations() * 192);
}
BENCHMARK(BM_CdrWritePrimitives);

void BM_CdrReadPrimitives(benchmark::State& state) {
  orb::CdrWriter w;
  for (int i = 0; i < 64; ++i) {
    w.write_u32(static_cast<std::uint32_t>(i));
    w.write_u64(static_cast<std::uint64_t>(i) * 7);
    w.write_u8(static_cast<std::uint8_t>(i));
  }
  for (auto _ : state) {
    orb::CdrReader r(w.buffer());
    std::uint64_t sum = 0;
    for (int i = 0; i < 64; ++i) {
      sum += r.read_u32();
      sum += r.read_u64();
      sum += r.read_u8();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 192);
}
BENCHMARK(BM_CdrReadPrimitives);

void BM_GiopEncodeRequest(benchmark::State& state) {
  const std::vector<std::uint8_t> body(static_cast<std::size_t>(state.range(0)));
  orb::RequestHeader header;
  header.request_id = 1;
  header.object_key = "video/receiver";
  header.operation = "push_frame";
  header.contexts.push_back(orb::make_priority_context(20'000));
  header.contexts.push_back(orb::make_timestamp_context(TimePoint{123}));
  for (auto _ : state) {
    auto bytes = orb::encode_request(header, body);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(body.size()));
}
BENCHMARK(BM_GiopEncodeRequest)->Arg(128)->Arg(1400)->Arg(13'600);

void BM_GiopDecodeRequest(benchmark::State& state) {
  const std::vector<std::uint8_t> body(static_cast<std::size_t>(state.range(0)));
  orb::RequestHeader header;
  header.request_id = 1;
  header.object_key = "video/receiver";
  header.operation = "push_frame";
  header.contexts.push_back(orb::make_priority_context(20'000));
  const auto bytes = orb::encode_request(header, body);
  for (auto _ : state) {
    const auto msg = orb::decode(bytes);
    benchmark::DoNotOptimize(msg.request.request_id);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_GiopDecodeRequest)->Arg(128)->Arg(1400)->Arg(13'600);

void BM_FrameCodecRoundTrip(benchmark::State& state) {
  media::VideoFrame f;
  f.index = 7;
  f.type = media::FrameType::I;
  f.size_bytes = 13'600;
  for (auto _ : state) {
    const auto body = av::encode_frame(f);
    const auto out = av::decode_frame(body);
    benchmark::DoNotOptimize(out.index);
  }
  state.SetBytesProcessed(state.iterations() * 13'600);
}
BENCHMARK(BM_FrameCodecRoundTrip);

/// Active-demultiplexing claim: POA servant lookup stays O(1) in the
/// number of registered servants.
void BM_PoaDemux(benchmark::State& state) {
  sim::Engine engine;
  net::Network net(engine);
  const auto node = net.add_node("host");
  os::Cpu cpu(engine, "cpu");
  orb::OrbEndpoint orb_endpoint(net, node, cpu);
  orb::Poa& poa = orb_endpoint.create_poa("app");
  const auto n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    poa.activate_object("servant" + std::to_string(i),
                        std::make_shared<orb::FunctionServant>(
                            microseconds(1), [](orb::ServerRequest&) {}));
  }
  const std::string target = "servant" + std::to_string(n / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(poa.find(target));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoaDemux)->Arg(10)->Arg(100)->Arg(1000)->Arg(10'000);

/// Full oneway invocation path (marshal -> transport -> demux -> dispatch
/// -> servant) drained to completion each iteration. Arg(0): the stock
/// endpoint (built-in pipeline only) — the hot path the interceptor
/// refactor must keep within 3% of the recorded pre-refactor baseline.
/// Arg(1): four extra registered no-op interceptors, bounding the
/// marginal per-interceptor cost.
void BM_InterceptorOverhead(benchmark::State& state) {
  const int extra = static_cast<int>(state.range(0));
  sim::Engine engine;
  net::Network net(engine);
  const auto a = net.add_node("client");
  const auto b = net.add_node("server");
  net::LinkConfig link;
  link.bandwidth_bps = 1e9;
  net.add_duplex_link(a, b, link);
  os::Cpu client_cpu(engine, "client-cpu");
  os::Cpu server_cpu(engine, "server-cpu");
  orb::OrbEndpoint client(net, a, client_cpu);
  orb::OrbEndpoint server(net, b, server_cpu);
  class NoopClientInterceptor final : public orb::ClientRequestInterceptor {
   public:
    [[nodiscard]] const char* name() const override { return "bench.noop"; }
  };
  class NoopServerInterceptor final : public orb::ServerRequestInterceptor {
   public:
    [[nodiscard]] const char* name() const override { return "bench.noop"; }
  };
  if (extra != 0) {
    client.add_client_interceptor(std::make_unique<NoopClientInterceptor>());
    client.add_client_interceptor(std::make_unique<NoopClientInterceptor>());
    server.add_server_interceptor(std::make_unique<NoopServerInterceptor>());
    server.add_server_interceptor(std::make_unique<NoopServerInterceptor>());
  }
  orb::Poa& poa = server.create_poa("app");
  std::uint64_t handled = 0;
  const orb::ObjectRef ref = poa.activate_object(
      "sink", std::make_shared<orb::FunctionServant>(
                  microseconds(1), [&handled](orb::ServerRequest&) { ++handled; }));
  const std::vector<std::uint8_t> body(512);
  orb::InvokeOptions opts;
  opts.oneway = true;
  for (auto _ : state) {
    client.invoke(ref, "op", body, opts);
    engine.run();
  }
  benchmark::DoNotOptimize(handled);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterceptorOverhead)->Arg(0)->Arg(1);

/// Live policy re-stamp cost (DESIGN.md §12): QoSSession::update diffing a
/// changed priority/deadline onto the versioned interceptor binding.
/// Arg(0): the direct session path. Arg(1): the same re-stamp driven
/// through QosControlPlane::override_flow (merge + managed-slot
/// bookkeeping on top). Both are synchronous and allocation-free in
/// steady state — this prices the per-update arithmetic the
/// FeedbackScheduler and override channel pay every actuation.
void BM_PolicyUpdate(benchmark::State& state) {
  const bool via_plane = state.range(0) != 0;
  sim::Engine engine;
  net::Network net(engine);
  const auto a = net.add_node("client");
  const auto b = net.add_node("server");
  net::LinkConfig link;
  link.bandwidth_bps = 1e9;
  net.add_duplex_link(a, b, link);
  os::Cpu client_cpu(engine, "client-cpu");
  os::Cpu server_cpu(engine, "server-cpu");
  orb::OrbEndpoint client(net, a, client_cpu);
  orb::OrbEndpoint server(net, b, server_cpu);
  orb::Poa& poa = server.create_poa("app");
  const orb::ObjectRef ref = poa.activate_object(
      "sink", std::make_shared<orb::FunctionServant>(microseconds(1),
                                                     [](orb::ServerRequest&) {}));
  orb::ObjectStub stub(client, ref);
  stub.set_flow(42);
  core::QoSSession session(client, stub);
  core::EndToEndQosPolicy policy;
  policy.flow = 42;
  policy.priority = 10'000;
  policy.deadline = milliseconds(20);
  session.apply(policy);
  orb::Poa& ctrl_poa = client.create_poa("ctrl");
  core::QosControlPlane plane(ctrl_poa);
  plane.manage(42, session);
  core::PolicyOverride ov;
  std::uint32_t i = 0;
  for (auto _ : state) {
    const auto priority = static_cast<orb::CorbaPriority>(10'000 + (i & 1) * 5'000);
    if (via_plane) {
      ov.priority = priority;
      ov.deadline = milliseconds(5 + (i % 3));
      benchmark::DoNotOptimize(plane.override_flow(42, ov).ok());
    } else {
      policy.priority = priority;
      policy.deadline = milliseconds(5 + (i % 3));
      session.update(policy);
    }
    ++i;
  }
  benchmark::DoNotOptimize(session.updates_applied());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolicyUpdate)->Arg(0)->Arg(1);

void BM_ContractEval(benchmark::State& state) {
  sim::Engine engine;
  quo::ValueSysCond bw("bw", 10.0);
  quo::Contract contract(engine, "bench");
  contract.add_region("high", [&] { return bw.value() >= 8.0; })
      .add_region("medium", [&] { return bw.value() >= 4.0; })
      .add_region("low", nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(contract.eval());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContractEval);

}  // namespace

int main(int argc, char** argv) {
  return aqm::bench::run_with_json_report(argc, argv, "orb");
}
