// QoSSession: applies an EndToEndQosPolicy to one client->object binding,
// coordinating all four mechanisms (thread priorities, DSCPs, CPU
// reserves, RSVP reservations) from the middleware's end-to-end vantage
// point. This is the integration layer the paper contributes.
//
// Policies are runtime-rebindable: update() diffs the active policy
// against a new one and re-stamps only the mechanisms whose parameters
// changed — priority/DSCP/deadline flip in place through the
// versioned interceptor binding, CPU reserves resize without
// detach-reattach, and network reservations renegotiate on the live flow
// (RSVP modify). The session tracks which stages actually applied, so
// revoke() after a partial failure (or while signaling is still in
// flight) releases exactly what exists and nothing else.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "core/cpu_reservation_manager.hpp"
#include "core/network_qos_manager.hpp"
#include "core/qos_policy.hpp"
#include "orb/orb.hpp"

namespace aqm::core {

class QoSSession {
 public:
  using ApplyCallback = std::function<void(Status<std::string>)>;

  /// `stub` is the client-side binding the policy governs; it must outlive
  /// the session. `net_qos` is required for network reservations,
  /// `cpu_client` for server CPU reserves.
  QoSSession(orb::OrbEndpoint& client_orb, orb::ObjectStub& stub,
             NetworkQosManager* net_qos = nullptr,
             CpuReservationClient* cpu_client = nullptr);

  /// Applies the policy. The callback fires once every asynchronous
  /// mechanism (RSVP signaling, remote reserve creation) settles; partial
  /// failures are reported with the combined error text while successful
  /// mechanisms stay in force.
  void apply(EndToEndQosPolicy policy, ApplyCallback cb = nullptr);

  /// Live re-stamp: diffs the active policy against `policy` and applies
  /// only the delta, without tearing the binding down. Priority, DSCP,
  /// deadline, and flow re-stamp in place through the versioned
  /// interceptor binding (allocation-free); an existing CPU reserve
  /// resizes via update_reserve (no detach-reattach); a changed network
  /// reservation renegotiates on the live flow (RSVP modify). Mechanisms
  /// whose parameters are unchanged are not touched at all, so re-applying
  /// the active policy is a no-op (idempotent). The callback fires when
  /// every re-signaled mechanism settles.
  void update(EndToEndQosPolicy policy, ApplyCallback cb = nullptr);

  /// Releases what actually applied and restores best-effort defaults.
  /// Safe after a partial apply failure: only the stages that took effect
  /// are torn down, and asynchronous reservations still in flight are
  /// released the moment they land instead of leaking.
  void revoke();

  [[nodiscard]] const EndToEndQosPolicy& active_policy() const { return policy_; }
  [[nodiscard]] bool network_reserved() const { return network_reserved_; }
  [[nodiscard]] std::optional<os::ReserveId> cpu_reserve_id() const { return cpu_reserve_; }
  /// Number of update() re-stamps applied over the session's lifetime.
  [[nodiscard]] std::uint64_t updates_applied() const { return updates_applied_; }

 private:
  void settle_part(Status<std::string> status);
  void request_network_reservation(const net::FlowSpec& spec);
  void request_cpu_reserve(const os::ReserveSpec& spec);

  orb::OrbEndpoint& client_orb_;
  orb::ObjectStub& stub_;
  NetworkQosManager* net_qos_;
  CpuReservationClient* cpu_client_;

  EndToEndQosPolicy policy_;
  ApplyCallback pending_cb_;
  int pending_parts_ = 0;
  std::vector<std::string> errors_;

  // --- applied-stage ledger --------------------------------------------------
  // revoke() consults these, never the policy: a stage that failed to apply
  // (or was never requested) is not torn down, and a stage applied under an
  // earlier flow id is torn down under that id even if the policy moved on.
  bool network_reserved_ = false;
  std::optional<os::ReserveId> cpu_reserve_;
  bool interceptor_bound_ = false;
  bool slo_applied_ = false;
  net::FlowId reserved_flow_ = net::kNoFlow;
  net::FlowId slo_flow_ = net::kNoFlow;
  /// Generation counter bumped by apply/update/revoke. Asynchronous
  /// callbacks capture the generation they were issued under; a stale
  /// callback releases the resource it acquired instead of recording it,
  /// so revoke() during in-flight signaling can never leak a reservation.
  std::uint64_t generation_ = 0;
  std::uint64_t updates_applied_ = 0;
};

}  // namespace aqm::core
