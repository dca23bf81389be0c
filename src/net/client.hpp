// elect::net::client — a remote handle on the election service,
// mirroring svc::service::session over TCP.
//
// The API is synchronous — every call blocks its calling thread until
// the server answers — but the transport is pipelined underneath: a
// background reader thread routes response frames to waiters by
// request id, so N threads sharing one client keep N requests in
// flight on one socket, and the server is free to answer them out of
// order (a release overtakes a parked acquire; that reordering is what
// makes the remote lock usable at all).
//
// The raw submit()/take() layer exposes the pipelining directly for
// load generators and tests: submit() returns immediately with the
// request id, take() blocks for that id's response. The synchronous
// calls are submit+take.
//
// Crash semantics match the service's lease story. destroying the
// client or calling close() just closes the socket — the server's
// disconnect-on-close hook then force-releases everything this client
// held, exactly like a local client crashing (PR 2). disconnect() is
// the polite form: an explicit wire op that releases server-side state
// while the connection stays usable.
//
// Transport failure is reported through the same types the local
// session uses, but a *sever* is distinguishable from a *shutdown*:
// if the connection died underneath the client (peer crash, network
// fault, refused connect), acquire-family calls come back `rejected`
// with `connection_lost` set and lease calls come back
// `lease_status::connection_lost`; if this process itself called
// close() (crash semantics, PR 4), calls keep the original mapping —
// `rejected` without connection_lost, lease calls `stale_epoch`.
// Either way the caller must stop acting as a leader; reason() reports
// which way the transport went down. Chaos histories (and real users)
// need the distinction: a sever means the server may still count you
// as holder until the TTL or disconnect reclaim fences you.
//
// Striping: against a multi-reactor server one socket lands on one
// reactor, so one client caps out at a single reactor's throughput
// however many threads share it. The striped constructor opens N
// connections and routes each request by key hash, so one client
// object spreads load across reactors while every op on a given key
// stays on one connection (ordering per key is preserved, and the
// server's per-connection lease accounting sees a stable owner). The
// stripes are one client: any stripe failing fails them all, and
// close()/destruction reclaims leases on every stripe.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/wire.hpp"
#include "svc/service.hpp"
#include "svc/watch.hpp"

namespace elect::net {

/// Why a client's transport is down. `severed` covers every loss the
/// user did not ask for: a failed connect, the peer closing or
/// crashing, a protocol violation killing the stream. `local_close`
/// means this process called close() (or destroyed the client).
enum class close_reason : std::uint8_t { none, local_close, severed };

[[nodiscard]] std::string_view to_string(close_reason r);

class client {
 public:
  /// Connect and handshake. Check connected() — failure (refused,
  /// version mismatch, service stopped) does not abort.
  client(const std::string& host, std::uint16_t port);
  /// Cluster-aware connect: `endpoints` is a comma-separated
  /// "host1:p1,host2:p2,..." list (a single "host:port" also works).
  /// The client connects to the first reachable member and, from then
  /// on, transparently follows `not_primary` redirects and fails over
  /// on severed connections: the acquire/release/renew family retries
  /// against the hinted (or next) endpoint with backoff until a
  /// primary answers or the retry budget runs out. Lease state does
  /// NOT move with the client — a lease granted by the old primary is
  /// either preserved (committed before the crash) or fenced; the
  /// first renew after failover reports which. Watch subscriptions are
  /// re-issued best-effort after a failover. Single-endpoint
  /// (host, port) clients keep the exact legacy behavior.
  explicit client(const std::string& endpoints);
  /// Striped connect: `stripes` connections (clamped to [1, 64]), each
  /// with its own server session; requests route by key hash. See the
  /// header comment. api::client and other single-connection users keep
  /// the two-argument form (one stripe behaves exactly as before).
  client(const std::string& host, std::uint16_t port, int stripes);
  ~client();

  client(const client&) = delete;
  client& operator=(const client&) = delete;

  [[nodiscard]] bool connected() const noexcept {
    return open_.load(std::memory_order_relaxed);
  }
  /// Why the transport is down (close_reason::none while connected).
  /// Once severed, a later close() does not rewrite history: the first
  /// cause wins.
  [[nodiscard]] close_reason reason() const noexcept {
    return reason_.load(std::memory_order_acquire);
  }
  /// The svc session id backing stripe 0 (from its handshake).
  [[nodiscard]] std::uint64_t session_id() const noexcept;
  /// How many connections this client stripes over.
  [[nodiscard]] std::size_t stripe_count() const noexcept {
    return channels_.size();
  }

  // Session API mirror. Semantics per svc::service::session, plus the
  // transport-failure mapping described in the header comment.
  [[nodiscard]] svc::acquire_result try_acquire(const std::string& key);
  [[nodiscard]] svc::acquire_result acquire(const std::string& key);
  [[nodiscard]] svc::acquire_result try_acquire_for(
      const std::string& key, std::chrono::milliseconds timeout);
  svc::lease_status release(const std::string& key);
  svc::lease_status release(const std::string& key, std::uint64_t epoch);
  svc::lease_status renew(const std::string& key, std::uint64_t epoch);
  /// Like renew(), additionally reporting the refreshed lease deadline
  /// (on this client's clock) through `refreshed_deadline` when the
  /// renewal succeeded — what an auto-renewing lease schedules its next
  /// heartbeat from. Pass nullptr to ignore.
  svc::lease_status renew(const std::string& key, std::uint64_t epoch,
                          std::chrono::steady_clock::time_point*
                              refreshed_deadline);

  /// Subscribe to leader transitions on `key` (wire::op::watch): the
  /// server pushes one event frame per elected/released/expired
  /// transition. The reader publishes each pushed frame into a
  /// svc::watch_hub this client owns, and `fn` runs on that hub's
  /// notifier thread (NOT the reader) under the hub's guarantees
  /// (svc/watch.hpp): per-key order, a bounded queue, nothing after
  /// unwatch() returns. So a callback may freely make synchronous calls
  /// on this same client — exactly like a local watcher — and may
  /// cancel any subscription; a callback that blocks forever stalls
  /// only this client's watch delivery. Watches on the same key share
  /// one server-side subscription (one push frame per transition,
  /// delivered once to each callback). A cluster member serves a watch
  /// only as primary; a multi-endpoint client follows the redirect.
  /// Returns a client-side watch id, 0 on a dead connection or server
  /// refusal. Events published between
  /// subscription and this call returning are delivered.
  [[nodiscard]] std::uint64_t watch(
      const std::string& key,
      std::function<void(const svc::watch_event&)> fn);

  /// Cancel a watch. After return the callback will not run again
  /// (called from a callback it does not wait, and the cancelled watch
  /// is skipped for the rest of the event). Unknown ids are a no-op.
  void unwatch(std::uint64_t id);
  /// Politely drop everything this client holds (wire op, issued on
  /// every stripe). Returns the number of keys released across all
  /// stripes; 0 on a dead connection.
  std::size_t disconnect();
  /// The combined net + service metrics JSON; empty on failure.
  [[nodiscard]] std::string metrics_json();
  /// Issue one admin op (admin_list / admin_inspect /
  /// admin_force_release / admin_snapshot / admin_commands; `key`
  /// ignored for list and snapshot) and return the raw response —
  /// `denied` when the server's admin surface is off, empty on
  /// transport failure. `epoch` carries the op's integer argument
  /// (admin_commands: the log index to resume after). The
  /// elect_admin CLI and the chaos checker are built on this.
  [[nodiscard]] std::optional<wire::response> admin(
      wire::op kind, const std::string& key = "", std::uint64_t epoch = 0);

  /// Hard-close every stripe without a disconnect op — from the
  /// server's point of view this client crashed; leases are reclaimed
  /// by the disconnect-on-close hook. Safe to call concurrently with
  /// in-flight requests (their take()/call() fails cleanly, no blocked
  /// waiter and no leaked routing slot) and with itself (idempotent,
  /// mutex-serialized). Also run by the destructor.
  void close();

  // Raw pipelining layer. submit() frames and sends one request on the
  // key's stripe and returns its id without waiting (0 on a dead
  // connection); take() blocks until that id's response arrives (empty
  // on connection loss). One thread can keep a deep window in flight
  // this way.
  std::uint64_t submit(wire::op kind, const std::string& key = "",
                       std::uint64_t epoch = 0, std::uint64_t timeout_ms = 0);
  [[nodiscard]] std::optional<wire::response> take(std::uint64_t id);

 private:
  struct slot {
    bool done = false;
    wire::response response;
  };

  /// One striped connection: socket, its handshake session, a write
  /// lock serializing frame sends, and the reader thread routing its
  /// responses into the shared pending map.
  struct channel {
    int fd = -1;
    std::uint64_t session_id = 0;
    std::mutex write_mutex;
    std::thread reader;
  };

  /// One server-side subscription shared by every local watch on a key
  /// (the wire carries one event frame per transition per key, however
  /// many callbacks fan out locally).
  struct key_subscription {
    /// The server's handle (watch response's epoch); 0 until the
    /// subscribe ack lands.
    std::uint64_t server_id = 0;
    /// Local watch entries on this key.
    int refs = 0;
    /// A subscribe round trip is in flight; later watch() calls on the
    /// key piggyback instead of issuing a second wire op.
    bool subscribing = false;
  };

  /// submit + take; empty on transport failure.
  [[nodiscard]] std::optional<wire::response> call(wire::op kind,
                                                   const std::string& key,
                                                   std::uint64_t epoch,
                                                   std::uint64_t timeout_ms);
  /// call(), plus redirect-following for multi-endpoint clients: on
  /// `not_primary` or a severed transport, fail over (hinted endpoint
  /// first, then round-robin) with backoff and reissue the op.
  /// Single-endpoint clients pass straight through to call().
  [[nodiscard]] std::optional<wire::response> call_routed(
      wire::op kind, const std::string& key, std::uint64_t epoch,
      std::uint64_t timeout_ms);
  /// Open `stripes` connections to one target (constructor body).
  /// False leaves the client dead with reason `severed`.
  bool open_channels(const std::string& host, std::uint16_t port,
                     int stripes);
  /// Tear down the current channels and reconnect everything to a new
  /// target. Requires close_mutex_; returns false (client stays dead,
  /// channels closed) when the target refuses.
  bool reopen_locked(const std::string& host, std::uint16_t port);
  /// One failover round: try the hint, then the other endpoints. The
  /// generation check makes concurrent callers piggyback on a
  /// finished failover instead of tearing it down again.
  bool failover(std::uint64_t seen_generation, const std::string& hint);
  /// Re-issue the wire watch op for every locally subscribed key after
  /// a failover (best-effort: a key the new primary refuses just stops
  /// delivering).
  void resubscribe_watches();
  /// submit() body; `expect_reply` false skips the pending slot (the
  /// response, always answered by the server, is dropped as an unknown
  /// id) — what lets unwatch be issued from inside a watch callback on
  /// the reader thread, which can never wait for its own reply.
  std::uint64_t submit_impl(channel& ch, wire::op kind,
                            const std::string& key, std::uint64_t epoch,
                            std::uint64_t timeout_ms, bool expect_reply);
  /// The stripe a key's requests ride: key hash mod stripes (the empty
  /// key — metrics, admin, disconnect — rides stripe 0).
  [[nodiscard]] channel& route(const std::string& key);
  [[nodiscard]] svc::acquire_result to_acquire_result(
      const std::optional<wire::response>& r) const;
  /// One acquire-family call (routed), timed into latency_ns.
  [[nodiscard]] svc::acquire_result acquire_call(wire::op kind,
                                                 const std::string& key,
                                                 std::uint64_t timeout_ms);
  void reader_main(channel& ch);
  /// Mark the whole client dead (one stripe down = all down) and wake
  /// every waiter.
  void fail();

  std::vector<std::unique_ptr<channel>> channels_;
  /// Failover targets (multi-endpoint constructor only; empty keeps
  /// the legacy fixed-target behavior). The channel structs are
  /// *reused* across a failover — only fds and reader threads are
  /// replaced — so route() stays safe without a lock.
  std::vector<std::pair<std::string, std::uint16_t>> endpoints_;
  /// Index into endpoints_ currently connected; close_mutex_ guards it.
  std::size_t endpoint_index_ = 0;
  /// Bumped after every successful reopen; lets a caller that observed
  /// a redirect detect that another thread already failed over.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> open_{false};
  /// First cause of transport death; CAS'd from none exactly once
  /// (close() claims local_close before shutting sockets down, so the
  /// reader threads' fail() can't misreport a user close as a sever).
  std::atomic<close_reason> reason_{close_reason::none};

  /// Serializes close() against itself; close_done_ makes it one-shot.
  std::mutex close_mutex_;
  bool close_done_ = false;

  std::atomic<std::uint64_t> next_id_{1};

  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  std::unordered_map<std::uint64_t, slot> pending_;

  /// Local watches and their callbacks; its notifier starts with the
  /// first watch(), so a client that never subscribes runs no thread
  /// for the ability to. Lock order: watch_mutex_ before the hub's
  /// mutex (add); remove() may wait on a delivery, so it never runs
  /// under watch_mutex_.
  svc::watch_hub hub_;
  /// Guards key_subs_: one wire subscription per key.
  std::mutex watch_mutex_;
  std::unordered_map<std::string, key_subscription> key_subs_;
};

}  // namespace elect::net
