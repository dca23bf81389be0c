// elect::api — one client API for the election service, local or
// remote.
//
// The service grew two near-identical client surfaces: the in-process
// svc::service::session and the TCP net::client. Every embedder was
// written twice and every caller repeated the same raw-epoch
// bookkeeping (keep the winning epoch, pass it back to renew/release,
// remember to renew before the TTL, remember to release on every exit
// path). api::client folds both transports behind one facade and turns
// leadership into an RAII value:
//
//   api::client c(service);                 // or api::client c(host, port)
//   if (auto got = c.acquire("locks/demo")) {
//     // got.lease holds the key: the fencing epoch is carried
//     // internally, a shared heartbeat thread renews it at TTL/3, and
//     // leaving scope releases it on every exit path.
//     do_leader_work();
//   }                                       // lease released here
//
//   auto sub = c.watch("locks/demo", [](const api::watch_event& e) {
//     // elected / released / expired, same over both transports
//   });
//
// Semantics are identical over both backends — that is the contract,
// and tests/test_api.cpp enforces it by running one scenario matrix
// (unique winner, handoff, auto-renew, watch delivery, crash reclaim,
// stale-epoch fencing) against each.
//
// Threading: a client is thread-safe, but it is ONE identity (one svc
// session / one connection) — open one client per logical participant,
// exactly as you would sessions. Watch callbacks run on the transport's
// notifier thread (never on a caller's); keep them brief and never
// block them on this client's own blocking acquire.
//
// Failure mapping: transport loss and service stop surface as
// acquire_status::rejected on acquires; an auto-renew that is fenced
// (the lease expired before the heartbeat could save it — e.g. a long
// GC-like stall, or transport loss) marks the lease lost(), after
// which the holder must stop acting as leader. This is exactly the
// epoch-fencing story of the underlying service, with the bookkeeping
// done for you.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "api/backend.hpp"

namespace elect::api {

using svc::lease_status;
using svc::transition;
using svc::watch_event;

namespace detail {
struct core;
struct lease_state;
}  // namespace detail

/// Outcome of one acquire call.
enum class acquire_status : std::uint8_t {
  /// The caller is the leader; `acquired::lease` holds the key.
  won,
  /// try_acquire only: somebody else holds the current epoch.
  lost,
  /// try_acquire_for only: the timeout elapsed first.
  timed_out,
  /// The service stopped or the transport died.
  rejected,
};

[[nodiscard]] std::string_view to_string(acquire_status s);

/// Leadership of one key, as a value. Move-only. While held() the
/// client's heartbeat thread renews the lease at TTL/3 cadence;
/// destruction releases the key (waking its next contender). A lease
/// may outlive its client object without dangling — it just degrades
/// to lost().
class lease {
 public:
  /// An empty lease (held() == false, release() == not_leader).
  lease() = default;
  ~lease();

  lease(lease&& other) noexcept = default;
  lease& operator=(lease&& other) noexcept;
  lease(const lease&) = delete;
  lease& operator=(const lease&) = delete;

  /// Still the leader, as far as this process knows. False after
  /// release(), abandon(), a fenced auto-renew (lost()), or client
  /// shutdown.
  [[nodiscard]] bool held() const;
  explicit operator bool() const { return held(); }

  /// The lease was fenced away: an auto-renew came back stale (the TTL
  /// elapsed despite the heartbeat — stall or transport loss) or the
  /// client shut down. Stop acting as leader.
  [[nodiscard]] bool lost() const;

  [[nodiscard]] const std::string& key() const;
  /// The fencing epoch this lease won (0 for an empty lease). Exposed
  /// for logging/fencing of external side effects; release/renew calls
  /// carry it for you.
  [[nodiscard]] std::uint64_t epoch() const;
  /// Current renewal deadline (time_point::max() for non-expiring
  /// leases; meaningless once !held()).
  [[nodiscard]] std::chrono::steady_clock::time_point deadline() const;

  /// Step down now. Returns the fencing verdict: ok when this call
  /// released the key; stale_epoch when the lease was fenced away
  /// (lost(), or an abandoned lease whose TTL already handed the key
  /// on — the zombie-comes-back path, answered by the registry's epoch
  /// fence); not_leader when there was nothing to release (empty or
  /// already released). Idempotent.
  lease_status release();

  /// Walk away WITHOUT releasing: stop the heartbeat and drop the
  /// claim on the floor, exactly like the holder crashing. The key
  /// stays wedged until the lease TTL fences it (or this client
  /// disconnects politely, which releases everything its identity
  /// holds). This is how tests and chaos drills simulate a dead leader
  /// through the public API.
  void abandon();

 private:
  friend class client;
  lease(std::shared_ptr<detail::core> core,
        std::shared_ptr<detail::lease_state> state);
  lease_status release_impl(bool include_abandoned);

  std::shared_ptr<detail::core> core_;
  std::shared_ptr<detail::lease_state> state_;
};

/// What an acquire call returns: a status and, on `won`, the lease.
struct acquired {
  acquire_status status = acquire_status::rejected;
  /// Engaged iff status == won.
  class lease lease;
  /// The epoch the attempt contended (the lease's epoch when won).
  std::uint64_t epoch = 0;
  /// The epoch was granted by the adaptive CAS fast path.
  bool fast_path = false;

  [[nodiscard]] bool won() const { return status == acquire_status::won; }
  explicit operator bool() const { return won(); }
};

/// RAII watch subscription: destruction (or cancel()) unsubscribes,
/// after which the callback never runs again. Move-only.
class subscription {
 public:
  subscription() = default;
  ~subscription();

  subscription(subscription&& other) noexcept = default;
  subscription& operator=(subscription&& other) noexcept;
  subscription(const subscription&) = delete;
  subscription& operator=(const subscription&) = delete;

  /// Live and delivering?
  [[nodiscard]] bool active() const;
  explicit operator bool() const { return active(); }

  /// Unsubscribe now. Idempotent. Must not be called from inside the
  /// subscription's own callback (destroying the subscription there
  /// deadlocks on the delivery-in-flight wait — cancel from another
  /// thread instead).
  void cancel();

 private:
  friend class client;
  subscription(std::shared_ptr<detail::core> core, std::uint64_t id);

  std::shared_ptr<detail::core> core_;
  std::uint64_t id_ = 0;
};

class client {
 public:
  /// In-process client: one session on `service` (which must outlive
  /// every call — though not necessarily the client object itself:
  /// calls after the service stops are safely rejected).
  explicit client(svc::service& service);

  /// Remote client: a wire-protocol connection to an elect_server.
  client(const std::string& host, std::uint16_t port);

  /// Remote client from an endpoint string (what command lines pass
  /// around). A single "host:port" connects to that server; a
  /// comma-separated "host1:p1,host2:p2,..." list is cluster mode —
  /// the client connects to the first reachable member and follows
  /// `not_primary` redirects transparently, so acquire/renew/release
  /// keep working across a failover. A malformed endpoint yields a
  /// client that is simply not connected().
  explicit client(const std::string& endpoint);

  /// Releases every lease this client still holds (politely, via
  /// disconnect), cancels its subscriptions, stops the heartbeat, and
  /// closes the transport. Outstanding lease/subscription objects
  /// degrade to lost()/inactive rather than dangling.
  ~client();

  client(const client&) = delete;
  client& operator=(const client&) = delete;

  /// Is the transport usable? (Always check after the remote
  /// constructors.)
  [[nodiscard]] bool connected() const;

  /// One-shot election attempt: won or lost, never blocks on a holder.
  [[nodiscard]] acquired try_acquire(const std::string& key);

  /// Blocking acquire: contend, sleep out the current holder, win the
  /// fresh epoch — or rejected on service stop / transport loss.
  [[nodiscard]] acquired acquire(const std::string& key);

  /// Bounded blocking acquire; timed_out when `timeout` elapses first.
  [[nodiscard]] acquired try_acquire_for(const std::string& key,
                                         std::chrono::milliseconds timeout);

  /// Subscribe to `key`'s leader transitions (elected / released /
  /// expired). Guarantees, identical over both transports: every
  /// committed transition after this call returns is delivered once,
  /// in the order the registry executed it per key — an epoch's end
  /// (released/expired) before its successor's `elected`. There is NO
  /// ordering across keys.
  /// Delivery lag is bounded by the lease TTL + sweep interval: a
  /// silently crashed holder is observed as `expired` within that
  /// bound. Returns an inactive subscription on a dead transport.
  [[nodiscard]] subscription watch(
      const std::string& key, std::function<void(const watch_event&)> fn);

  /// Combined metrics report JSON (service + net section when remote);
  /// empty on failure.
  [[nodiscard]] std::string metrics_json();

 private:
  [[nodiscard]] acquired wrap(const std::string& key,
                              const svc::acquire_result& result);

  std::shared_ptr<detail::core> core_;
};

}  // namespace elect::api
