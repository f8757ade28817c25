#include "core/qos_policy_interceptor.hpp"

#include "orb/orb.hpp"

namespace aqm::core {

QosPolicyInterceptor& QosPolicyInterceptor::install(orb::OrbEndpoint& orb) {
  if (QosPolicyInterceptor* existing = find(orb)) return *existing;
  return static_cast<QosPolicyInterceptor&>(
      orb.add_client_interceptor(std::make_unique<QosPolicyInterceptor>()));
}

QosPolicyInterceptor* QosPolicyInterceptor::find(orb::OrbEndpoint& orb) {
  return static_cast<QosPolicyInterceptor*>(orb.find_client_interceptor(kName));
}

void QosPolicyInterceptor::bind(net::NodeId node, std::string object_key,
                                EndToEndQosPolicy policy) {
  // Re-stamp in place when the binding exists: the map nodes (and the
  // object-key string) are reused, so a live policy change allocates
  // nothing after the first bind.
  if (rebind(node, object_key, policy)) return;
  Binding binding;
  binding.state.policy = std::move(policy);
  binding.state.version = 1;
  bindings_[node].insert_or_assign(std::move(object_key), std::move(binding));
}

bool QosPolicyInterceptor::rebind(net::NodeId node, std::string_view object_key,
                                  const EndToEndQosPolicy& policy) {
  Binding* b = lookup_mut(node, object_key);
  if (b == nullptr) return false;
  b->state.policy = policy;
  ++b->state.version;
  return true;
}

void QosPolicyInterceptor::unbind(net::NodeId node, std::string_view object_key) {
  const auto nit = bindings_.find(node);
  if (nit == bindings_.end()) return;
  const auto bit = nit->second.find(object_key);
  if (bit == nit->second.end()) return;
  nit->second.erase(bit);
  if (nit->second.empty()) bindings_.erase(nit);
}

const QosPolicyInterceptor::Binding* QosPolicyInterceptor::lookup(
    net::NodeId node, std::string_view object_key) const {
  const auto nit = bindings_.find(node);
  if (nit == bindings_.end()) return nullptr;
  const auto bit = nit->second.find(object_key);
  return bit == nit->second.end() ? nullptr : &bit->second;
}

QosPolicyInterceptor::Binding* QosPolicyInterceptor::lookup_mut(
    net::NodeId node, std::string_view object_key) {
  return const_cast<Binding*>(lookup(node, object_key));
}

const EndToEndQosPolicy* QosPolicyInterceptor::binding(net::NodeId node,
                                                       std::string_view object_key) const {
  const Binding* b = lookup(node, object_key);
  return b == nullptr ? nullptr : &b->state.policy;
}

const QosBindingState* QosPolicyInterceptor::binding_state(
    net::NodeId node, std::string_view object_key) const {
  const Binding* b = lookup(node, object_key);
  return b == nullptr ? nullptr : &b->state;
}

std::optional<net::Dscp> QosPolicyInterceptor::effective_dscp(
    net::NodeId node, std::string_view object_key, orb::CorbaPriority priority) const {
  const Binding* b = lookup(node, object_key);
  if (b == nullptr) return std::nullopt;
  if (b->state.policy.explicit_dscp) return *b->state.policy.explicit_dscp;
  if (b->state.policy.map_priority_to_dscp) return b->banded.to_dscp(priority);
  return std::nullopt;
}

orb::InterceptStatus QosPolicyInterceptor::establish(orb::ClientRequestContext& ctx) {
  // Reads the binding's *current* versioned state on every invocation —
  // a control-plane re-stamp between two calls is visible to the second
  // call with no rebinding and no captured constants anywhere downstream.
  const Binding* b = lookup(ctx.ref->node, ctx.ref->object_key);
  if (b == nullptr) return {};
  const EndToEndQosPolicy& policy = b->state.policy;
  // An explicit per-invocation priority (InvokeOptions / stub override)
  // wins over the binding policy.
  const bool caller_pinned = ctx.options != nullptr && ctx.options->priority.has_value();
  if (policy.priority && !caller_pinned) ctx.priority = *policy.priority;
  if (policy.explicit_dscp) {
    ctx.dscp_override = *policy.explicit_dscp;
  } else if (policy.map_priority_to_dscp) {
    ctx.dscp_override = b->banded.to_dscp(ctx.priority);
  }
  if (policy.flow && ctx.flow == net::kNoFlow) ctx.flow = *policy.flow;
  // Policy deadline: a caller-pinned deadline (InvokeOptions or an earlier
  // interceptor) wins; otherwise the built-in deadline interceptor sees
  // the absolute deadline we stamp here.
  const bool caller_deadline =
      ctx.deadline.has_value() ||
      (ctx.options != nullptr && ctx.options->deadline.has_value());
  if (policy.deadline && !caller_deadline) ctx.deadline = ctx.now + *policy.deadline;
  return {};
}

}  // namespace aqm::core
