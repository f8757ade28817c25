#include "orb/orb.hpp"

#include <cassert>
#include <utility>

#include "common/log.hpp"
#include "obs/telemetry.hpp"

namespace aqm::orb {
namespace {

/// Encodes a CompletionStatus code as an exception reply body.
std::vector<std::uint8_t> encode_error_body(CompletionStatus status) {
  CdrWriter w;
  w.write_u32(static_cast<std::uint32_t>(status));
  return w.take();
}

CompletionStatus decode_error_body(const std::vector<std::uint8_t>& body) {
  try {
    CdrReader r(body);
    const auto code = r.read_u32();
    if (code > static_cast<std::uint32_t>(CompletionStatus::SystemError)) {
      return CompletionStatus::SystemError;
    }
    return static_cast<CompletionStatus>(code);
  } catch (const MarshalError&) {
    return CompletionStatus::SystemError;
  }
}

}  // namespace

OrbEndpoint::OrbEndpoint(net::Network& net, net::NodeId node, os::Cpu& cpu, OrbConfig config)
    : net_(net), cpu_(cpu), config_(config), transport_(net, node, config.transport) {
  transport_.set_message_handler(
      [this](net::NodeId src, const MessageBuffer& msg) { on_message(src, msg); });
  install_builtin_interceptors();
}

Poa& OrbEndpoint::create_poa(const std::string& name, PoaPolicies policies) {
  assert(poas_.count(name) == 0 && "POA already exists");
  auto poa = std::make_unique<Poa>(*this, name, std::move(policies));
  Poa& ref = *poa;
  poas_[name] = std::move(poa);
  return ref;
}

Poa* OrbEndpoint::find_poa(const std::string& name) {
  const auto it = poas_.find(name);
  return it == poas_.end() ? nullptr : it->second.get();
}

Duration OrbEndpoint::marshal_cost(std::size_t bytes) const {
  return config_.marshal_base +
         config_.marshal_per_kb * static_cast<std::int64_t>(bytes / 1024);
}

Duration OrbEndpoint::demarshal_cost(std::size_t bytes) const {
  return config_.demux_base +
         config_.demarshal_per_kb * static_cast<std::int64_t>(bytes / 1024);
}

obs::TraceRecorder* OrbEndpoint::orb_tracer() {
  obs::TraceRecorder* tr = engine().tracer_for(obs::TraceCategory::Orb);
  if (tr != nullptr && obs_bound_ != tr) {
    obs_track_ = tr->track("orb:" + net_.node_name(node()));
    obs_bound_ = tr;
  }
  return tr;
}

obs::TraceRecorder* OrbEndpoint::pipeline_tracer() {
  obs::TraceRecorder* tr = engine().tracer_for(obs::TraceCategory::Pipeline);
  if (tr != nullptr && obs_bound_ != tr) {
    obs_track_ = tr->track("orb:" + net_.node_name(node()));
    obs_bound_ = tr;
  }
  return tr;
}

// --- interceptor registration ------------------------------------------------

void OrbEndpoint::install_builtin_interceptors() {
  // Client chain (wire-nearest last): the priority mapper must run before
  // the DSCP/flow stages that consume the resolved priority, and the DSCP
  // stage before flow classification (classifiers may key on the codepoint).
  client_chain_.push_back(InterceptorEntry<ClientRequestInterceptor>{
      std::make_unique<PriorityInterceptor>(*this), /*builtin=*/true});
  client_chain_.push_back(InterceptorEntry<ClientRequestInterceptor>{
      std::make_unique<TimestampInterceptor>(), /*builtin=*/true});
  client_chain_.push_back(InterceptorEntry<ClientRequestInterceptor>{
      std::make_unique<TraceInterceptor>(), /*builtin=*/true});
  client_chain_.push_back(InterceptorEntry<ClientRequestInterceptor>{
      std::make_unique<DeadlineRetryInterceptor>(), /*builtin=*/true});
  client_chain_.push_back(InterceptorEntry<ClientRequestInterceptor>{
      std::make_unique<DscpInterceptor>(*this), /*builtin=*/true});
  client_chain_.push_back(InterceptorEntry<ClientRequestInterceptor>{
      std::make_unique<FlowClassificationInterceptor>(*this), /*builtin=*/true});

  // Server chain: context extraction order mirrors the client stamping
  // order (priority, timestamp, trace), then the deadline gate.
  server_chain_.push_back(InterceptorEntry<ServerRequestInterceptor>{
      std::make_unique<PriorityInterceptor>(*this), /*builtin=*/true});
  server_chain_.push_back(InterceptorEntry<ServerRequestInterceptor>{
      std::make_unique<TimestampInterceptor>(), /*builtin=*/true});
  server_chain_.push_back(InterceptorEntry<ServerRequestInterceptor>{
      std::make_unique<TraceInterceptor>(), /*builtin=*/true});
  server_chain_.push_back(InterceptorEntry<ServerRequestInterceptor>{
      std::make_unique<DeadlineDropInterceptor>(), /*builtin=*/true});
  server_chain_.push_back(InterceptorEntry<ServerRequestInterceptor>{
      std::make_unique<DscpInterceptor>(*this), /*builtin=*/true});
}

ClientRequestInterceptor& OrbEndpoint::add_client_interceptor(
    std::unique_ptr<ClientRequestInterceptor> icpt) {
  assert(icpt != nullptr);
  const auto it = client_chain_.insert(
      client_chain_.begin() + static_cast<std::ptrdiff_t>(client_user_count_),
      InterceptorEntry<ClientRequestInterceptor>{std::move(icpt)});
  ++client_user_count_;
  return *it->icpt;
}

ServerRequestInterceptor& OrbEndpoint::add_server_interceptor(
    std::unique_ptr<ServerRequestInterceptor> icpt) {
  assert(icpt != nullptr);
  server_chain_.push_back(InterceptorEntry<ServerRequestInterceptor>{std::move(icpt)});
  return *server_chain_.back().icpt;
}

ClientRequestInterceptor* OrbEndpoint::find_client_interceptor(std::string_view name) {
  for (auto& entry : client_chain_) {
    if (name == entry.icpt->name()) return entry.icpt.get();
  }
  return nullptr;
}

ServerRequestInterceptor* OrbEndpoint::find_server_interceptor(std::string_view name) {
  for (auto& entry : server_chain_) {
    if (name == entry.icpt->name()) return entry.icpt.get();
  }
  return nullptr;
}

// --- chain runners -----------------------------------------------------------
// Forward in every phase except the client reply/exception path, which
// unwinds in reverse so user interceptors (registered before the built-ins)
// observe replies last-in-first-out relative to their request-path order.
// The server send_reply phase stays forward: the built-in stampers define
// the reply's service-context byte order.

InterceptStatus OrbEndpoint::run_client_establish(ClientRequestContext& ctx) {
  obs::TraceRecorder* tr = pipeline_tracer();
  for (auto& entry : client_chain_) {
    ++entry.runs;
    if (tr != nullptr) {
      tr->instant(obs::TraceCategory::Pipeline, entry.icpt->name(), obs_track_,
                  engine().now(), ctx.trace_id);
    }
    if (auto st = entry.icpt->establish(ctx); !st) {
      ++entry.vetoes;
      return st;
    }
  }
  return {};
}

InterceptStatus OrbEndpoint::run_client_send(ClientRequestContext& ctx) {
  for (auto& entry : client_chain_) {
    if (auto st = entry.icpt->send_request(ctx); !st) {
      ++entry.vetoes;
      return st;
    }
  }
  return {};
}

void OrbEndpoint::run_client_reply(ClientRequestContext& ctx) {
  for (auto it = client_chain_.rbegin(); it != client_chain_.rend(); ++it) {
    it->icpt->receive_reply(ctx);
  }
}

void OrbEndpoint::run_client_exception(ClientRequestContext& ctx) {
  for (auto it = client_chain_.rbegin(); it != client_chain_.rend(); ++it) {
    it->icpt->receive_exception(ctx);
  }
}

InterceptStatus OrbEndpoint::run_server_receive(ServerRequestContext& ctx) {
  obs::TraceRecorder* tr = pipeline_tracer();
  for (auto& entry : server_chain_) {
    ++entry.runs;
    if (tr != nullptr) {
      tr->instant(obs::TraceCategory::Pipeline, entry.icpt->name(), obs_track_,
                  engine().now(), ctx.trace);
    }
    if (auto st = entry.icpt->receive_request(ctx); !st) {
      ++entry.vetoes;
      return st;
    }
  }
  return {};
}

InterceptStatus OrbEndpoint::run_server_reply(ServerRequestContext& ctx) {
  for (auto& entry : server_chain_) {
    if (auto st = entry.icpt->send_reply(ctx); !st) {
      ++entry.vetoes;
      return st;
    }
  }
  return {};
}

// --- metrics -----------------------------------------------------------------

void OrbEndpoint::export_metrics(obs::MetricsRegistry& reg, std::string_view prefix) const {
  const std::string p(prefix);
  reg.counter(p + ".requests_sent").set(stats_.requests_sent);
  reg.counter(p + ".requests_dispatched").set(stats_.requests_dispatched);
  reg.counter(p + ".replies_ok").set(stats_.replies_ok);
  reg.counter(p + ".replies_error").set(stats_.replies_error);
  reg.counter(p + ".timeouts").set(stats_.timeouts);
  reg.counter(p + ".dispatch_rejected").set(stats_.dispatch_rejected);
  reg.counter(p + ".collocated_calls").set(stats_.collocated_calls);
  reg.counter(p + ".messages_expired").set(transport_.messages_expired());
  reg.counter(p + ".interceptor.client_vetoed").set(stats_.client_vetoed);
  reg.counter(p + ".interceptor.server_vetoed").set(stats_.server_vetoed);
  reg.counter(p + ".interceptor.deadline_dropped").set(stats_.deadline_dropped);
  reg.counter(p + ".interceptor.deadline_missed").set(stats_.deadline_missed);
  reg.counter(p + ".interceptor.retries").set(stats_.retries);
  for (const auto& entry : client_chain_) {
    const std::string base = p + ".interceptor.client." + entry.icpt->name();
    reg.counter(base + ".runs").set(entry.runs);
    reg.counter(base + ".vetoes").set(entry.vetoes);
  }
  for (const auto& entry : server_chain_) {
    const std::string base = p + ".interceptor.server." + entry.icpt->name();
    reg.counter(base + ".runs").set(entry.runs);
    reg.counter(base + ".vetoes").set(entry.vetoes);
  }
  for (const auto& [name, poa] : poas_) {
    const std::string base = p + ".poa." + name;
    reg.counter(base + ".dispatched").set(poa->dispatch_stats().dispatched);
    reg.counter(base + ".rejected").set(poa->dispatch_stats().rejected);
    reg.counter(base + ".collocated").set(poa->dispatch_stats().collocated);
  }
}

// --- client side -------------------------------------------------------------

void OrbEndpoint::invoke(const ObjectRef& ref, const std::string& operation,
                         std::vector<std::uint8_t> body, InvokeOptions options,
                         ResponseCallback cb) {
  if (!ref.valid()) throw BadParam("invoke on invalid object reference");
  if (!options.oneway && !cb) throw BadParam("twoway invoke requires a callback");
  invoke_internal(ref, operation, std::move(body), std::move(options), std::move(cb),
                  /*attempt=*/1, /*deadline=*/std::nullopt);
}

void OrbEndpoint::invoke_internal(const ObjectRef& ref, const std::string& operation,
                                  std::vector<std::uint8_t> body, InvokeOptions options,
                                  ResponseCallback cb, int attempt,
                                  std::optional<TimePoint> deadline) {
  const CorbaPriority resolved =
      options.priority.value_or(ref.priority_model == PriorityModel::ServerDeclared
                                    ? ref.server_priority
                                    : client_priority_);
  const std::uint32_t request_id = next_request_id_++;

  // Establish phase: QoS decisions (priority/DSCP/flow/deadline rewrites)
  // before any CPU cost is paid; the built-in priority stage maps the final
  // CORBA priority to the native band the marshal job runs at.
  ClientRequestContext ectx;
  ectx.ref = &ref;
  ectx.operation = &operation;
  ectx.options = &options;
  ectx.request_id = request_id;
  ectx.oneway = options.oneway;
  ectx.attempt = attempt;
  ectx.now = engine().now();
  ectx.priority = resolved;
  ectx.flow = options.flow;
  ectx.deadline = deadline;  // carried across retries
  ectx.retry = options.retry;
  if (const auto st = run_client_establish(ectx); !st) {
    ++stats_.client_vetoed;
    if (st.error() == CompletionStatus::Timeout) {
      // Deadline already expired at establish time: the pipeline vetoed the
      // call before any cost was paid, but the application still missed it.
      ++stats_.deadline_missed;
      if (obs::TelemetryHub* th = engine().telemetry()) {
        th->on_deadline_miss(ectx.flow, engine().now());
      }
    }
    if (obs::TraceRecorder* tr = orb_tracer()) {
      tr->instant(obs::TraceCategory::Orb, "icpt.veto", obs_track_, engine().now(), 0,
                  {{"request_id", static_cast<double>(request_id)}});
    }
    // Vetoed invocations complete synchronously: no CPU or wire cost.
    if (!options.oneway && cb) cb(st.error(), {});
    return;
  }

  const CorbaPriority priority = ectx.priority;
  const os::Priority native = ectx.native_priority;
  const Duration cost = marshal_cost(body.size() + operation.size() + 64);

  // A traced request gets one end-to-end id here; it rides in a GIOP
  // service context (next to the RT-CORBA priority) and on every fragment
  // packet, so all layers chain their events to this call.
  std::uint64_t trace_id = 0;
  const char* span_name = nullptr;
  if (obs::TraceRecorder* tr = orb_tracer()) {
    trace_id = tr->next_id();
    span_name = tr->intern("call " + operation);
    tr->async_begin(obs::TraceCategory::Orb, span_name, obs_track_, engine().now(),
                    trace_id,
                    {{"request_id", static_cast<double>(request_id)},
                     {"priority", static_cast<double>(priority)}});
  }

  // Materialized only when another attempt is still possible, so the
  // common (no-retry) path stays allocation-free.
  std::shared_ptr<RetryState> retry_state;
  if (!options.oneway && options.retry.enabled() && attempt < options.retry.max_attempts) {
    retry_state = std::make_shared<RetryState>(
        RetryState{ref, operation, body, options, attempt, ectx.deadline});
  }

  // Marshal on the client CPU at the request's native priority, run the
  // send_request (stamping) phase, then ship.
  cpu_.submit_for(
      cost, native,
      [this, ref, operation, body = std::move(body), options, cb = std::move(cb),
       priority, request_id, trace_id, span_name, attempt, deadline = ectx.deadline,
       dscp_override = ectx.dscp_override, flow = ectx.flow,
       retry_state = std::move(retry_state)]() mutable {
        RequestHeader header;
        header.request_id = request_id;
        header.response_expected = !options.oneway;
        header.object_key = ref.object_key;
        header.operation = operation;

        ClientRequestContext ctx;
        ctx.ref = &ref;
        ctx.operation = &operation;
        ctx.options = &options;
        ctx.request_id = request_id;
        ctx.oneway = options.oneway;
        ctx.attempt = attempt;
        ctx.now = engine().now();
        ctx.priority = priority;
        ctx.dscp_override = dscp_override;
        ctx.flow = flow;
        ctx.deadline = deadline;
        ctx.trace_id = trace_id;
        ctx.retry = options.retry;
        ctx.contexts = &header.contexts;
        if (const auto st = run_client_send(ctx); !st) {
          ++stats_.client_vetoed;
          if (trace_id != 0 && span_name != nullptr) {
            if (obs::TraceRecorder* tr = orb_tracer()) {
              tr->async_end(obs::TraceCategory::Orb, span_name, obs_track_,
                            engine().now(), trace_id, {{"veto", 1.0}});
            }
          }
          if (!options.oneway && cb) cb(st.error(), {});
          return;
        }

        auto buf = pool_.acquire();
        encode_request(header, body, *buf);
        pool_.note_message_size(buf->size());
        MessageBuffer bytes = CdrBufferPool::freeze(std::move(buf));
        ++stats_.requests_sent;
        const bool collocated = ref.node == node();
        if (collocated) ++stats_.collocated_calls;
        if (obs::TraceRecorder* tr = orb_tracer()) {
          tr->instant(obs::TraceCategory::Orb, "send", obs_track_, engine().now(),
                      trace_id, {{"bytes", static_cast<double>(bytes->size())}});
        }

        if (!options.oneway) {
          PendingRequest pending;
          pending.cb = std::move(cb);
          pending.priority = priority;
          pending.trace = trace_id;
          pending.span_name = span_name;
          pending.attempt = attempt;
          pending.retry = std::move(retry_state);
          pending.flow = ctx.flow;
          pending.sent_at = engine().now();
          pending.timeout = engine().after(options.timeout, [this, request_id] {
            std::optional<PendingRequest> timed_out = take_pending(request_id);
            if (!timed_out) return;
            const std::uint64_t trace = timed_out->trace;
            ++stats_.timeouts;
            ++stats_.deadline_missed;
            if (obs::TelemetryHub* th = engine().telemetry()) {
              th->on_deadline_miss(timed_out->flow, engine().now(), trace);
            }
            if (trace != 0 && timed_out->span_name != nullptr) {
              if (obs::TraceRecorder* tr = orb_tracer()) {
                tr->async_end(obs::TraceCategory::Orb, timed_out->span_name, obs_track_,
                              engine().now(), trace, {{"timeout", 1.0}});
              }
            }
            complete_exception(std::move(timed_out->cb), CompletionStatus::Timeout,
                               timed_out->attempt, std::move(timed_out->retry), trace);
          });
          add_pending(request_id, std::move(pending));
        } else if (trace_id != 0 && span_name != nullptr) {
          // Oneways have no reply; the client span closes at the send.
          if (obs::TraceRecorder* tr = orb_tracer()) {
            tr->async_end(obs::TraceCategory::Orb, span_name, obs_track_,
                          engine().now(), trace_id);
          }
        }

        if (collocated) {
          // Collocation optimization (TAO-style): the target lives in this
          // ORB, so the request short-circuits the transport entirely —
          // same marshaling and dispatch semantics, zero wire time.
          on_message(node(), bytes);
        } else {
          transport_.send_message(ref.node, std::move(bytes), ctx.dscp, ctx.flow, trace_id);
        }
      });
}

void OrbEndpoint::complete_exception(ResponseCallback cb, CompletionStatus status,
                                     int attempt, std::shared_ptr<RetryState> retry_state,
                                     std::uint64_t trace) {
  ClientRequestContext ctx;
  ctx.attempt = attempt;
  ctx.now = engine().now();
  ctx.status = status;
  ctx.trace_id = trace;
  if (retry_state != nullptr) {
    ctx.ref = &retry_state->ref;
    ctx.operation = &retry_state->operation;
    ctx.options = &retry_state->options;
    ctx.retry = retry_state->options.retry;
    ctx.deadline = retry_state->deadline;
  }
  run_client_exception(ctx);

  if (ctx.retry_requested && retry_state != nullptr) {
    ++stats_.retries;
    if (obs::TelemetryHub* th = engine().telemetry()) {
      th->on_retry(retry_state->options.flow, engine().now());
    }
    if (obs::TraceRecorder* tr = orb_tracer()) {
      tr->instant(obs::TraceCategory::Orb, "icpt.retry", obs_track_, engine().now(),
                  trace,
                  {{"attempt", static_cast<double>(attempt + 1)},
                   {"backoff_us", static_cast<double>(ctx.retry_backoff.ns()) / 1e3}});
    }
    engine().after(ctx.retry_backoff,
                   [this, state = std::move(retry_state), cb = std::move(cb)]() mutable {
                     invoke_internal(state->ref, state->operation, state->body,
                                     state->options, std::move(cb), state->attempt + 1,
                                     state->deadline);
                   });
    return;
  }
  if (cb) cb(status, {});
}

// --- server side -------------------------------------------------------------

void OrbEndpoint::add_pending(std::uint32_t request_id, PendingRequest pending) {
  std::uint32_t slot;
  if (pending_free_.empty()) {
    slot = static_cast<std::uint32_t>(pending_slots_.size());
    pending_slots_.push_back(std::move(pending));
  } else {
    slot = pending_free_.back();
    pending_free_.pop_back();
    pending_slots_[slot] = std::move(pending);
  }
  pending_index_.insert(request_id, slot);
}

std::optional<OrbEndpoint::PendingRequest> OrbEndpoint::take_pending(
    std::uint32_t request_id) {
  const std::uint32_t slot = pending_index_.erase(request_id);
  if (slot == common::FlatIndex<std::uint32_t>::kNoSlot) return std::nullopt;
  pending_free_.push_back(slot);
  return std::move(pending_slots_[slot]);
}

void OrbEndpoint::on_message(net::NodeId src, const MessageBuffer& msg) {
  // Decode into the endpoint scratch: this path re-parses headers without
  // allocating once the scratch's strings/contexts/body are warm.
  try {
    decode_into(decode_scratch_, *msg);
  } catch (const MarshalError& e) {
    AQM_WARN() << "orb@" << net_.node_name(node()) << ": dropping malformed GIOP ("
               << e.what() << ")";
    return;
  }
  if (decode_scratch_.type == GiopMsgType::Request) {
    handle_request(src, decode_scratch_, msg->size());
  } else {
    handle_reply(decode_scratch_, msg->size());
  }
}

void OrbEndpoint::handle_request(net::NodeId src, GiopMessage& msg, std::size_t wire_size) {
  RequestHeader& header = msg.request;

  // object_key = "<poa>/<object-id>"
  const auto slash = header.object_key.find('/');
  Poa* poa = nullptr;
  std::shared_ptr<Servant> servant;
  if (slash != std::string::npos) {
    poa = find_poa(header.object_key.substr(0, slash));
    if (poa != nullptr) servant = poa->find(header.object_key.substr(slash + 1));
  }
  if (servant == nullptr) {
    AQM_DEBUG() << "orb@" << net_.node_name(node()) << ": no servant for key "
                << header.object_key;
    if (header.response_expected) {
      send_reply(src, header.request_id, ReplyStatus::SystemException,
                 encode_error_body(CompletionStatus::ObjectNotExist),
                 config_.default_priority);
    }
    return;
  }

  // Receive_request phase: the built-ins resolve priority / timestamp /
  // trace / deadline from the service contexts; a veto rejects the request
  // before any thread-pool or servant work is spent on it.
  ServerRequestContext rctx;
  rctx.operation = &header.operation;
  rctx.object_key = &header.object_key;
  rctx.poa = poa;
  rctx.request_id = header.request_id;
  rctx.response_expected = header.response_expected;
  rctx.collocated = src == node();
  rctx.client = src;
  rctx.now = engine().now();
  rctx.contexts = &header.contexts;
  if (const auto st = run_server_receive(rctx); !st) {
    ++stats_.server_vetoed;
    if (st.error() == CompletionStatus::Timeout) ++stats_.deadline_dropped;
    if (obs::TraceRecorder* tr = orb_tracer()) {
      tr->instant(obs::TraceCategory::Orb, "icpt.veto", obs_track_, engine().now(),
                  rctx.trace,
                  {{"request_id", static_cast<double>(header.request_id)},
                   {"status", static_cast<double>(st.error())}});
    }
    if (header.response_expected) {
      send_reply(src, header.request_id, ReplyStatus::SystemException,
                 encode_error_body(st.error()), rctx.priority, rctx.trace);
    }
    return;
  }

  const CorbaPriority priority = rctx.priority;
  const std::uint64_t trace = rctx.trace;
  if (rctx.collocated) ++poa->dispatch_stats().collocated;

  auto req = std::make_shared<ServerRequest>();
  req->operation = std::move(header.operation);
  req->body = std::move(msg.body);
  req->client = src;
  req->priority = priority;
  req->client_send_time = rctx.client_send_time;

  const Duration cost = demarshal_cost(wire_size) + servant->cpu_cost(*req);
  const bool response_expected = header.response_expected;
  const std::uint32_t request_id = header.request_id;

  // Reply channel, usable synchronously (after handle() returns) or
  // asynchronously via ServerRequest::defer(). Answers at most once, even
  // if a deferred replier races an exception reply.
  auto replied = std::make_shared<bool>(false);
  if (response_expected) {
    req->replier = [this, src, request_id, priority, trace,
                    replied](std::vector<std::uint8_t> reply_body) {
      if (*replied) return;
      *replied = true;
      send_reply(src, request_id, ReplyStatus::NoException, std::move(reply_body),
                 priority, trace);
    };
  }

  const bool accepted = poa->thread_pool().dispatch(
      priority, cost,
      [this, poa, servant, req, response_expected, request_id, src, replied, trace] {
        ++stats_.requests_dispatched;
        ++poa->dispatch_stats().dispatched;
        req->handled_at = engine().now();
        obs::TraceRecorder* tr = orb_tracer();
        if (tr != nullptr) {
          tr->instant(obs::TraceCategory::Orb, "dispatch", obs_track_, engine().now(),
                      trace,
                      {{"request_id", static_cast<double>(request_id)},
                       {"priority", static_cast<double>(req->priority)}});
          // Make the request's trace ambient while the servant runs, so
          // downstream effects (syscond updates, contract transitions,
          // reservations) chain their events to this request.
          tr->set_current(trace);
        }
        if (trace != 0) last_dispatch_trace_ = trace;
        ReplyStatus status = ReplyStatus::NoException;
        std::vector<std::uint8_t> reply_body;
        try {
          servant->handle(*req);
          reply_body = std::move(req->reply_body);
        } catch (const ObjectNotExist&) {
          status = ReplyStatus::SystemException;
          reply_body = encode_error_body(CompletionStatus::ObjectNotExist);
        } catch (const Transient&) {
          status = ReplyStatus::SystemException;
          reply_body = encode_error_body(CompletionStatus::Transient);
        } catch (const SystemException&) {
          status = ReplyStatus::SystemException;
          reply_body = encode_error_body(CompletionStatus::SystemError);
        }
        if (tr != nullptr) tr->set_current(0);
        if (!response_expected) return;
        if (status == ReplyStatus::NoException) {
          if (!req->deferred()) req->replier(std::move(reply_body));
          // deferred: the servant's replier fires later.
        } else if (!*replied) {
          // Exceptions answer immediately, deferred or not.
          *replied = true;
          send_reply(src, request_id, status, std::move(reply_body), req->priority,
                     trace);
        }
      });

  if (!accepted) {
    ++stats_.dispatch_rejected;
    ++poa->dispatch_stats().rejected;
    if (obs::TraceRecorder* tr = orb_tracer()) {
      tr->instant(obs::TraceCategory::Orb, "dispatch.reject", obs_track_,
                  engine().now(), trace,
                  {{"priority", static_cast<double>(priority)}});
    }
    if (response_expected) {
      send_reply(src, request_id, ReplyStatus::SystemException,
                 encode_error_body(CompletionStatus::Transient), priority, trace);
    }
  }
}

void OrbEndpoint::send_reply(net::NodeId client, std::uint32_t request_id,
                             ReplyStatus status, std::vector<std::uint8_t> body,
                             CorbaPriority priority, std::uint64_t trace) {
  const os::Priority native = priority_mappings_.to_native(priority);
  const Duration cost = marshal_cost(body.size() + 32);
  cpu_.submit_for(
      cost, native,
      [this, client, request_id, status, body = std::move(body), priority, trace] {
        ReplyHeader header;
        header.request_id = request_id;
        header.status = status;

        // Send_reply phase: built-in stampers append the reply's service
        // contexts and derive the egress DSCP from the reply priority.
        ServerRequestContext rctx;
        rctx.request_id = request_id;
        rctx.response_expected = true;
        rctx.client = client;
        rctx.now = engine().now();
        rctx.priority = priority;
        rctx.trace = trace;
        rctx.reply_contexts = &header.contexts;
        rctx.reply_status = status;
        if (const auto st = run_server_reply(rctx); !st) {
          // Reply suppressed: the client sees a timeout.
          ++stats_.server_vetoed;
          return;
        }

        auto buf = pool_.acquire();
        encode_reply(header, body, *buf);
        pool_.note_message_size(buf->size());
        MessageBuffer bytes = CdrBufferPool::freeze(std::move(buf));
        if (obs::TraceRecorder* tr = orb_tracer()) {
          tr->instant(obs::TraceCategory::Orb, "reply.send", obs_track_, engine().now(),
                      trace, {{"bytes", static_cast<double>(bytes->size())}});
        }
        transport_.send_message(client, std::move(bytes), rctx.reply_dscp, net::kNoFlow,
                                trace);
      });
}

void OrbEndpoint::handle_reply(GiopMessage& msg, std::size_t wire_size) {
  std::optional<PendingRequest> taken = take_pending(msg.reply.request_id);
  if (!taken) return;  // late reply after timeout: drop
  PendingRequest& pending = *taken;
  engine().cancel(pending.timeout);

  const os::Priority native = priority_mappings_.to_native(pending.priority);
  const Duration cost = demarshal_cost(wire_size);
  const ReplyStatus status = msg.reply.status;
  if (obs::TraceRecorder* tr = orb_tracer()) {
    tr->instant(obs::TraceCategory::Orb, "reply.recv", obs_track_, engine().now(),
                pending.trace, {{"bytes", static_cast<double>(wire_size)}});
  }
  cpu_.submit_for(
      cost, native,
      [this, cb = std::move(pending.cb), status, trace = pending.trace,
       span = pending.span_name, attempt = pending.attempt,
       retry_state = std::move(pending.retry), priority = pending.priority,
       flow = pending.flow, sent_at = pending.sent_at,
       request_id = msg.reply.request_id, body = std::move(msg.body)]() mutable {
        // The client call span closes once the reply is
        // demarshaled — end-to-end latency as the app sees it.
        if (trace != 0 && span != nullptr) {
          if (obs::TraceRecorder* tr = orb_tracer()) {
            tr->async_end(obs::TraceCategory::Orb, span, obs_track_, engine().now(),
                          trace,
                          {{"ok", status == ReplyStatus::NoException ? 1.0 : 0.0}});
          }
        }
        if (status == ReplyStatus::NoException) {
          ++stats_.replies_ok;
          if (obs::TelemetryHub* th = engine().telemetry()) {
            th->on_call(flow, engine().now(), (engine().now() - sent_at).millis(),
                        trace);
          }
          ClientRequestContext ctx;
          ctx.request_id = request_id;
          ctx.attempt = attempt;
          ctx.now = engine().now();
          ctx.priority = priority;
          ctx.trace_id = trace;
          ctx.status = CompletionStatus::Ok;
          if (retry_state != nullptr) {
            ctx.ref = &retry_state->ref;
            ctx.operation = &retry_state->operation;
            ctx.options = &retry_state->options;
            ctx.retry = retry_state->options.retry;
            ctx.deadline = retry_state->deadline;
          }
          run_client_reply(ctx);
          cb(CompletionStatus::Ok, std::move(body));
        } else {
          ++stats_.replies_error;
          complete_exception(std::move(cb), decode_error_body(body), attempt,
                             std::move(retry_state), trace);
        }
      });
}

// --- ObjectStub --------------------------------------------------------------

void ObjectStub::invoke_with_binding(const std::string& operation,
                                     std::vector<std::uint8_t> body, bool oneway,
                                     OrbEndpoint::ResponseCallback cb, Duration timeout) {
  InvokeOptions options;
  options.oneway = oneway;
  options.timeout = timeout;
  options.flow = flow_;
  options.priority = priority_;
  options.deadline = deadline_;
  options.retry = retry_;
  orb_->invoke(ref_, operation, std::move(body), std::move(options), std::move(cb));
}

void ObjectStub::oneway(const std::string& operation, std::vector<std::uint8_t> body) {
  invoke_with_binding(operation, std::move(body), /*oneway=*/true, nullptr, seconds(2));
}

void ObjectStub::twoway(const std::string& operation, std::vector<std::uint8_t> body,
                        OrbEndpoint::ResponseCallback cb, Duration timeout) {
  invoke_with_binding(operation, std::move(body), /*oneway=*/false, std::move(cb),
                      timeout);
}

}  // namespace aqm::orb
