// GIOP transport adapter: moves whole GIOP messages between nodes over the
// packet network, fragmenting to the MTU on send and reassembling on
// receive. Packet loss under congestion means messages can arrive
// incomplete; reassembly state expires after a timeout and the message
// counts as lost (video semantics: no retransmission, matching the paper's
// streaming experiments). Every delivered message is the sender's whole
// MessageBuffer: fragments share it, so reassembly copies no bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/flat_index.hpp"
#include "common/time.hpp"
#include "net/flow_table.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "orb/buffer_pool.hpp"  // MessageBuffer
#include "sim/engine.hpp"

namespace aqm::orb {

/// What each network packet carries.
struct GiopFragment {
  std::uint64_t message_id = 0;
  std::uint32_t index = 0;
  std::uint32_t count = 1;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
  MessageBuffer data;  // the full message; [offset, offset+length) is this fragment
};

struct TransportConfig {
  std::uint32_t mtu = net::kDefaultMtu;
  std::uint32_t packet_overhead = 40;  // IP + TCP-ish framing per fragment
  Duration reassembly_timeout = seconds(5);
  /// Send fragments ECN-capable: RED routers then mark instead of drop
  /// under incipient congestion, and ce_marks() exposes the feedback.
  bool ecn_capable = false;
};

class GiopTransport {
 public:
  /// (source node, complete message). The reference is borrowed for the
  /// duration of the callback; a handler that retains the bytes past its
  /// return copies the buffer handle (one shared_ptr, never the payload).
  using MessageHandler = std::function<void(net::NodeId src, const MessageBuffer& msg)>;

  GiopTransport(net::Network& net, net::NodeId node, TransportConfig config = {});
  GiopTransport(const GiopTransport&) = delete;
  GiopTransport& operator=(const GiopTransport&) = delete;

  [[nodiscard]] net::NodeId node() const { return node_; }

  void set_message_handler(MessageHandler handler) { handler_ = std::move(handler); }

  /// Fragments a message to the MTU and sends it to `dst`, stamped with the
  /// given DSCP and flow id. A nonzero `trace` rides on every fragment so
  /// per-hop network events chain to the originating request.
  void send_message(net::NodeId dst, MessageBuffer msg, net::Dscp dscp,
                    net::FlowId flow = net::kNoFlow, std::uint64_t trace = 0);

  /// Messages passed to send_message.
  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  /// Messages handed to the handler.
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  /// Messages whose reassembly expired with fragments missing.
  [[nodiscard]] std::uint64_t messages_expired() const { return expired_; }
  /// Congestion-experienced marks seen on received packets of a flow
  /// (cumulative). The feedback signal for ECN-aware QuO adaptation.
  [[nodiscard]] std::uint64_t ce_marks(net::FlowId flow) const;

 private:
  using Key128Index = common::FlatIndex<common::Key128>;
  struct Reassembly {
    std::uint32_t expected = 0;
    std::uint32_t arrived = 0;
    std::vector<std::uint64_t> seen;  // bitmap; capacity survives slot recycling
    MessageBuffer data;
    sim::EventId expiry{};
    std::uint64_t trace = 0;
    net::NodeId src = net::kInvalidNode;
    std::uint64_t message_id = 0;
  };

  void on_packet(net::Packet&& p);
  void deliver(net::NodeId src, const MessageBuffer& msg);
  void expire(net::NodeId src, std::uint64_t message_id);

  std::uint32_t acquire_reassembly_slot();
  void release_reassembly_slot(std::uint32_t slot);

  [[nodiscard]] static common::Key128 reassembly_key(net::NodeId src,
                                                    std::uint64_t message_id) {
    return {static_cast<std::uint32_t>(src), message_id};
  }

  /// Engine recorder iff ORB tracing is on; binds the "giop:<node>" lane on
  /// first use.
  [[nodiscard]] obs::TraceRecorder* tracer();

  net::Network& net_;
  net::NodeId node_;
  TransportConfig config_;
  MessageHandler handler_;
  std::uint64_t next_message_id_ = 1;
  net::FlowMap<std::uint64_t> flow_seq_;
  net::FlowMap<std::uint64_t> ce_marks_;

  // Reassembly: flat (src, message_id)-keyed index over a recycled slot
  // arena — the steady-state receive path touches no allocator.
  Key128Index reassembly_index_;
  std::vector<Reassembly> reassembly_slots_;
  std::vector<std::uint32_t> reassembly_free_;

  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t expired_ = 0;
  obs::TraceRecorder* obs_bound_ = nullptr;
  std::uint16_t obs_track_ = 0;
};

}  // namespace aqm::orb
