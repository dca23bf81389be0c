// elect::repl::node — one member of a replicated election cluster: the
// thread-and-socket runner around repl::core.
//
// The core (core.hpp) makes every protocol decision; the node only
// waits and talks, under one mutex that serialises every core call:
//   * a timer thread ticks the core every core::tick_ms (replicate and
//     compact on a primary, the election deadline elsewhere) and renders
//     what committed outside the lock — on a follower too, whose
//     watchers and journal see what it applied;
//   * one sender thread and one blocking peer_channel per other member
//     deliver whatever the core hands that peer — vote requests
//     included, so a candidate asks every peer at once and a member that
//     accepts connections but never answers stalls only its own channel,
//     for one peer_io_timeout_ms, never the election;
//   * handle_peer() serves peer ops on the net::server reactor that
//     read them: it holds the node mutex briefly (a granted vote also
//     writes the vote file) and never waits on another member;
//   * wait_committed() is the commit gate the service calls before it
//     acks a mutation: it samples the log's last index (the mutation
//     is in the log already), wakes the senders through the core, then
//     blocks on a condition variable until the commit index reaches it;
//   * the durable vote is a small file under state_dir, written through
//     the core's vote writer and read back at construction.
// Lock order: the node mutex comes before any registry shard lock, and
// nothing takes it while holding one.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.hpp"
#include "repl/config.hpp"
#include "repl/core.hpp"
#include "repl/peer.hpp"
#include "svc/metrics.hpp"
#include "svc/service.hpp"

namespace elect::repl {

class node {
 public:
  /// The service must outlive the node. The node opens its cursor on
  /// the registry's log, takes over its commit index, and holds the
  /// registry as a replica — every member boots as a
  /// follower, and only a promotion lets it originate mutations (lease
  /// expiry included). With a state_dir,
  /// a vote file that exists but cannot be read or parsed aborts
  /// construction (a member that forgot its vote could vote twice).
  node(cluster_config config, svc::service& service);
  ~node();

  node(const node&) = delete;
  node& operator=(const node&) = delete;

  /// Install the commit gate on the service and launch the timer and
  /// per-peer sender threads.
  void start();

  /// Stop all threads. Idempotent; called by the destructor.
  void stop();

  [[nodiscard]] int id() const noexcept { return core_.config().self; }
  [[nodiscard]] const cluster_config& config() const noexcept {
    return core_.config();
  }

  /// Is this node the primary right now? (Advisory — may be deposed a
  /// moment later; the commit gate is what makes acting on a stale
  /// answer safe.)
  [[nodiscard]] bool is_primary() const;

  /// Best-known primary "host:port" for not_primary redirects; empty
  /// while no leader is known (mid-election).
  [[nodiscard]] std::string primary_endpoint() const;

  /// Serve one peer op (peer_vote / peer_append / peer_snapshot).
  /// Called on the net::server reactor that read the request, so it
  /// must never wait on an outside event; any malformed body gets
  /// `bad_request`.
  [[nodiscard]] net::wire::response handle_peer(const net::wire::request& r);

  /// The commit-before-ack gate (service::set_commit_gate target):
  /// block until the log's last index — sampled now, right after the
  /// caller's mutation appended to it — is quorum-committed in the
  /// current term. `key` is unused: one index orders every key. False
  /// on timeout, step-down, a term change, or stop — the service
  /// answers the client `connection_lost`.
  [[nodiscard]] bool wait_committed(const std::string& key);

  /// Cluster status as a JSON object (admin_cluster_status body, and
  /// the service report's "repl" section).
  [[nodiscard]] std::string status_json() const;

  /// Prometheus rendering of role/term/commit/lag/counters.
  [[nodiscard]] std::string prom_text() const;

  // Test/bench introspection.
  [[nodiscard]] std::uint64_t current_term() const;
  [[nodiscard]] std::uint64_t commit_index() const;
  [[nodiscard]] node_counters counters() const;

 private:
  void timer_main();
  void sender_main(std::size_t k);
  /// Milliseconds since construction: the clock the core runs on.
  [[nodiscard]] std::uint64_t now_ms() const;
  /// Wake whoever an event's effects concern. Requires mu_.
  void signal(effects fx);

  svc::service& service_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  /// Signalled on commit advance, step-down, and stop — the commit
  /// gate's wait condition.
  std::condition_variable commit_cv_;
  /// Pokes the peer senders (something to send, or stop).
  std::condition_variable work_cv_;
  core core_;
  bool stop_ = false;
  svc::latency_histogram commit_latency_;

  /// One channel and one sender thread per core peer slot.
  std::vector<std::unique_ptr<peer_channel>> channels_;
  std::vector<std::thread> senders_;
  std::thread timer_;
};

}  // namespace elect::repl
