#include "orb/transport.hpp"

#include <algorithm>
#include <cassert>

namespace aqm::orb {

// Fragments ride in every data packet; keep them inside the payload's
// inline buffer so forwarding never allocates (checked hop by hop by
// PacketHop.SteadyStateForwardingIsAllocationFree in test_link_network).
static_assert(sizeof(GiopFragment) <= net::PacketPayload::kInlineSize);

GiopTransport::GiopTransport(net::Network& net, net::NodeId node, TransportConfig config)
    : net_(net), node_(node), config_(config) {
  assert(config_.mtu > config_.packet_overhead);
  net_.set_receiver(node_, [this](net::Packet&& p) { on_packet(std::move(p)); });
}

void GiopTransport::send_message(net::NodeId dst, MessageBuffer msg, net::Dscp dscp,
                                 net::FlowId flow, std::uint64_t trace) {
  assert(msg != nullptr && !msg->empty());
  ++sent_;
  const std::uint32_t payload_mtu = config_.mtu - config_.packet_overhead;
  const auto total = static_cast<std::uint32_t>(msg->size());
  const std::uint32_t count = (total + payload_mtu - 1) / payload_mtu;
  const std::uint64_t message_id = next_message_id_++;

  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t offset = i * payload_mtu;
    const std::uint32_t length = std::min(payload_mtu, total - offset);
    net::Packet p;
    p.dst = dst;
    p.size_bytes = length + config_.packet_overhead;
    p.dscp = dscp;
    p.ecn = config_.ecn_capable ? net::Ecn::Capable : net::Ecn::NotCapable;
    p.flow = flow;
    p.seq = flow_seq_[flow]++;
    p.trace = trace;
    p.payload = GiopFragment{message_id, i, count, offset, length, msg};
    net_.send(node_, std::move(p));
  }
}

obs::TraceRecorder* GiopTransport::tracer() {
  obs::TraceRecorder* tr = net_.engine().tracer_for(obs::TraceCategory::Orb);
  if (tr != nullptr && obs_bound_ != tr) {
    obs_track_ = tr->track("giop:" + net_.node_name(node_));
    obs_bound_ = tr;
  }
  return tr;
}

std::uint64_t GiopTransport::ce_marks(net::FlowId flow) const {
  const std::uint64_t* marks = ce_marks_.find(flow);
  return marks == nullptr ? 0 : *marks;
}

std::uint32_t GiopTransport::acquire_reassembly_slot() {
  if (!reassembly_free_.empty()) {
    const std::uint32_t slot = reassembly_free_.back();
    reassembly_free_.pop_back();
    return slot;
  }
  reassembly_slots_.emplace_back();
  return static_cast<std::uint32_t>(reassembly_slots_.size() - 1);
}

void GiopTransport::release_reassembly_slot(std::uint32_t slot) {
  Reassembly& r = reassembly_slots_[slot];
  reassembly_index_.erase(reassembly_key(r.src, r.message_id));
  // Drop the message reference now (the sender's pooled buffer recycles),
  // but keep the `seen` bitmap's capacity for the next message in this slot
  // — the zero-alloc steady-state receive path depends on it.
  r.data.reset();
  r.expected = 0;
  r.arrived = 0;
  r.trace = 0;
  r.expiry = {};
  reassembly_free_.push_back(slot);
}

void GiopTransport::on_packet(net::Packet&& p) {
  if (!p.payload.has_value()) return;  // not a GIOP fragment (ignore)
  const auto* frag = p.payload.get<GiopFragment>();
  if (frag == nullptr) return;
  if (p.ecn == net::Ecn::CongestionExperienced) {
    ++ce_marks_[p.flow];
    if (obs::TraceRecorder* tr = tracer()) {
      tr->instant(obs::TraceCategory::Orb, "ce.mark", obs_track_, net_.engine().now(),
                  p.trace, {{"flow", static_cast<double>(p.flow)}});
    }
  }

  if (frag->count == 1) {
    deliver(p.src, frag->data);
    return;
  }

  std::uint32_t slot = reassembly_index_.find(reassembly_key(p.src, frag->message_id));
  if (slot == Key128Index::kNoSlot) {
    slot = acquire_reassembly_slot();
    Reassembly& r = reassembly_slots_[slot];
    r.expected = frag->count;
    r.arrived = 0;
    r.seen.assign((frag->count + 63) / 64, 0);  // reuses the slot's capacity
    r.data = frag->data;
    r.trace = p.trace;
    r.src = p.src;
    r.message_id = frag->message_id;
    r.expiry = net_.engine().after(
        config_.reassembly_timeout,
        [this, src = p.src, id = frag->message_id] { expire(src, id); });
    reassembly_index_.insert(reassembly_key(p.src, frag->message_id), slot);
  }
  Reassembly& r = reassembly_slots_[slot];
  if (frag->index >= r.expected) return;  // garbage
  std::uint64_t& word = r.seen[frag->index >> 6];
  const std::uint64_t bit = 1ull << (frag->index & 63);
  if ((word & bit) != 0) return;  // duplicate
  word |= bit;
  ++r.arrived;
  if (r.arrived < r.expected) return;

  net_.engine().cancel(r.expiry);
  const MessageBuffer msg = std::move(r.data);
  release_reassembly_slot(slot);
  deliver(p.src, msg);
}

void GiopTransport::deliver(net::NodeId src, const MessageBuffer& msg) {
  ++delivered_;
  if (handler_) handler_(src, msg);
}

void GiopTransport::expire(net::NodeId src, std::uint64_t message_id) {
  const std::uint32_t slot = reassembly_index_.find(reassembly_key(src, message_id));
  if (slot == Key128Index::kNoSlot) return;
  const std::uint64_t trace = reassembly_slots_[slot].trace;
  const std::uint32_t missing =
      reassembly_slots_[slot].expected - reassembly_slots_[slot].arrived;
  release_reassembly_slot(slot);
  ++expired_;
  if (obs::TraceRecorder* tr = tracer()) {
    tr->instant(obs::TraceCategory::Orb, "reassembly.expire", obs_track_,
                net_.engine().now(), trace,
                {{"missing", static_cast<double>(missing)}});
  }
}

}  // namespace aqm::orb
