// elect::repl::core — every protocol decision of one cluster member, as
// a state machine with no threads, locks, sockets, files or clock.
//
// What is core: role, term, the one vote per term and the best-known
// leader; the log's compaction point (the adopted base snapshot and a
// pending one) and the needs-install flag; per-peer replication
// progress; the election and heartbeat deadlines; the counters and the
// seeded election-timeout RNG. The log itself is the registry's
// (cmd::command_log): the core ships, truncates, commits and compacts it
// in place, and calls into svc::service (apply, snapshots, fencing, the
// replica switch) exactly as a member must.
//
// What is left to the runner that hosts it: everything that waits or
// talks. Each event hands the core the current time in milliseconds
// (whatever clock the runner keeps) and the core answers with what to
// do:
//   * tick(now)             — timer: replicate and compact on a primary,
//                             start an election once the deadline passed;
//   * handle_peer(r, now)   — a peer's request, answered in place;
//   * next_message(k, now)  — what to send peer slot k right now (a vote
//                             request, an append, a heartbeat, a snapshot,
//                             or nothing); the runner delivers it and
//                             hands the reply — or the call's failure —
//                             back through on_reply();
//   * replicate()           — the commit gate's nudge after a live
//                             mutation appended to the log.
// Events return `effects`: whether the peer senders should look for work
// and whether commit waiters should re-check. The durable vote goes
// through one injected writer, so the server writes a file and
// a simulator keeps the record in memory across simulated restarts.
//
// repl::node drives a core with a timer thread and one thread + socket
// per peer (so a vote request is one more message on each peer's own
// thread: a candidate asks everyone at once, and a member that never
// answers costs one peer call, not the election); tests/test_repl_sim
// drives cores on one thread in virtual time under a seeded adversary.
// The core is not thread-safe: the runner serialises every call.
//
// The protocol. The paper's primitive is a one-shot test-and-set; the
// service stack multiplexes it per key; the core runs the same shape
// once more at *cluster* scope to pick which machine may answer
// clients. A term is a cluster-wide epoch; becoming primary for a term
// is winning a one-shot test-and-set among the members (each member
// votes at most once per term, recorded durably so a restart cannot
// double-vote — a vote the writer cannot record is refused), with
// randomized retry timeouts playing the role the paper gives random
// choices: splitting contenders until exactly one survives. The
// log-up-to-date check on votes is the extra guard replication needs —
// a winner must already hold every committed entry.
//
// Data path: the primary's svc::service applies client ops to its
// registry immediately (the live path decides), and each executed
// command lands in the registry's log under the primary's term as it
// executes — that log is what the core ships, so nothing is copied.
// Followers append received entries without executing them, and
// execute them from the log only once committed — the uncommitted
// suffix is log only, so a conflict truncation never has to claw state
// back out of a registry. An entry is committed when a quorum holds it;
// the core then moves the log's one commit index, which is what the
// service's observer feed reads up to, on the primary and the followers
// alike. repl::node's commit gate holds every client ack until the
// log's index after the mutation is committed, so a primary cut off
// from its quorum confirms nothing: its clients see `connection_lost`
// and demote; the promotion-time fence (registry::fence_all with the
// configured bump) additionally jumps every epoch clear of whatever the
// deposed primary's uncommitted tail may have granted.
//
// Compaction: a snapshot is an exact cut, filed under the index it
// covers. Once the log has grown compact_threshold entries past the
// base, the core cuts one (a follower only at its commit point) and
// adopts it as the new base once it is committed and every reachable
// follower holds it; adopting moves the core's log cursor and the
// registry's history cursor there, so the prefix leaves the log. The
// base is also what ships to a follower that needs an install (a cut is
// taken for it when the base cannot serve, and ships once committed),
// and what a member rewinds to when it must re-execute its log.
//
// Failover: a member that wins an election *keeps* its whole log — the
// up-to-date check on votes means the winner's log already contains
// every entry any quorum may have committed. It executes the inherited
// suffix ahead of commit, appends a barrier entry at the new term (whose
// quorum replication commits the whole prefix — the current-term commit
// guard makes counting replicas safe), switches its registry from
// replica to primary at the new term (only a primary originates
// mutations: grants, releases, renewals, lease expiry, reclaims), fences
// it, and starts replicating. A deposed primary switches its registry
// back to replica — under every shard lock, so each live mutation in
// flight lands in the log under the old term before the switch or is
// refused after it — so log and registry stay in lockstep across the
// demotion; only an actual apply divergence (a seq that does not extend
// its shard) marks a member needs-install, which bars it from candidacy
// until the primary's snapshot install rebases it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.hpp"
#include "repl/config.hpp"
#include "svc/registry.hpp"

namespace elect::svc {
class service;
}  // namespace elect::svc

namespace elect::repl {

enum class role : std::uint8_t { follower, candidate, primary };

[[nodiscard]] std::string_view to_string(role r);

/// Monotonic event counters, readable via status_json()/prom_text().
struct node_counters {
  std::uint64_t elections_started = 0;
  std::uint64_t terms_won = 0;
  std::uint64_t step_downs = 0;
  std::uint64_t appends_sent = 0;
  std::uint64_t append_failures = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t entries_replicated = 0;
  std::uint64_t snapshots_sent = 0;
  std::uint64_t snapshots_installed = 0;
  std::uint64_t compactions = 0;
  std::uint64_t commit_timeouts = 0;
};

/// The durable half of the one-shot-per-term vote.
struct vote_record {
  std::uint64_t term = 0;
  int voted_for = -1;
};

/// Makes a vote record durable; false when it could not. A vote the
/// writer refused is never granted.
using vote_writer = std::function<bool(const vote_record&)>;

/// What an event asks of the runner beyond its return value.
struct effects {
  /// A peer may have something to send now (a vote round began, the log
  /// grew, this member was promoted): wake the peer senders.
  bool send = false;
  /// The commit index moved or this member left the primary role: wake
  /// commit waiters.
  bool commit = false;
};

// The peer-op envelopes, defined with their codec in core.cpp.
struct vote_request_body;
struct append_request_body;
struct snapshot_request_body;

/// One message for a peer, plus what the core needs to fold its reply.
struct outbound {
  net::wire::op kind = net::wire::op::peer_append;
  std::string body;
  /// The sender's term when the message was built.
  std::uint64_t term = 0;
  /// Append: prev_index; snapshot: the index it installs.
  std::uint64_t index = 0;
  /// Append: entries carried (0 = heartbeat).
  std::uint64_t count = 0;
};

/// Replication state for one other member.
struct peer_progress {
  int member = -1;
  std::uint64_t next_index = 1;
  std::uint64_t match_index = 0;
  /// The follower asked for a snapshot (divergence or seq gap).
  bool force_snapshot = false;
  /// The last call got an answer (compaction spares what it lacks).
  bool reachable = false;
  /// The term whose vote request went to this peer.
  std::uint64_t vote_term = 0;
  /// No heartbeat — and after a failure no call at all — before this.
  std::uint64_t due_ms = 0;
};

class core {
 public:
  /// Timer period a runner ticks at (replication cadence on a primary,
  /// election-deadline resolution elsewhere).
  static constexpr std::uint64_t tick_ms = 10;

  /// The service must outlive the core. Opens the core's cursor on the
  /// registry's log, takes over its commit index, files the registry's
  /// current state as the first base, and holds the registry as a
  /// replica: every member boots as a follower with `vote` as its
  /// durable vote state.
  core(cluster_config config, svc::service& service, vote_record vote,
       vote_writer writer, std::uint64_t now_ms);
  ~core();

  core(const core&) = delete;
  core& operator=(const core&) = delete;

  effects tick(std::uint64_t now_ms);
  /// Serve one peer op into `out`; a malformed body gets bad_request.
  effects handle_peer(const net::wire::request& r, std::uint64_t now_ms,
                      net::wire::response& out);
  /// The message for peer slot `k` (0 .. members-2, self skipped), or
  /// empty when it has nothing due. The caller must deliver it and call
  /// on_reply() before asking for slot `k` again.
  [[nodiscard]] std::optional<outbound> next_message(std::size_t k,
                                                     std::uint64_t now_ms);
  /// Fold peer slot `k`'s reply to `sent` (empty: the call failed).
  effects on_reply(std::size_t k, const outbound& sent,
                   const std::optional<net::wire::response>& reply,
                   std::uint64_t now_ms);
  /// When slot `k` may next have something due without another event.
  [[nodiscard]] std::uint64_t next_wake(std::size_t k,
                                        std::uint64_t now_ms) const;
  /// The live path appended to the log: wake the senders that have
  /// entries to ship and commit what a quorum holds (a single member
  /// commits right here). No-op off the primary.
  effects replicate();

  [[nodiscard]] const cluster_config& config() const { return config_; }
  [[nodiscard]] role current_role() const noexcept { return role_; }
  [[nodiscard]] bool is_primary() const { return role_ == role::primary; }
  [[nodiscard]] std::uint64_t term() const noexcept { return term_; }
  [[nodiscard]] int leader() const noexcept { return leader_; }
  /// The registry's command log, which this core replicates.
  [[nodiscard]] const cmd::command_log& log() const noexcept { return log_; }
  [[nodiscard]] std::uint64_t commit_index() const {
    return log_.commit_index();
  }
  [[nodiscard]] std::uint64_t applied_index() const {
    return log_.applied().first;
  }
  /// The index the adopted base snapshot covers (the compaction point).
  [[nodiscard]] std::uint64_t base_index() const noexcept {
    return base_.index;
  }
  [[nodiscard]] bool needs_install() const noexcept { return needs_install_; }
  const std::vector<peer_progress>& peers() const { return peers_; }
  node_counters& counters() noexcept { return counters_; }
  const node_counters& counters() const noexcept { return counters_; }

 private:
  effects start_election(std::uint64_t now_ms);
  effects become_primary();
  effects step_down(std::uint64_t new_term, std::uint64_t now_ms);
  bool advance_commit();
  void maybe_compact();
  /// Execute log entries up to `bound` into the registry; a seq that
  /// does not extend its shard sets needs_install_.
  void apply_through(std::uint64_t bound);
  /// Rewind a diverged registry to the base and re-execute the log to
  /// the commit index; false (needs_install_ set) when it does not
  /// replay.
  bool rebuild();
  void reset_election_deadline(std::uint64_t now_ms);
  std::optional<outbound> build_snapshot(peer_progress& p,
                                         std::uint64_t now_ms);
  effects handle_vote(const vote_request_body& q, std::uint64_t now_ms,
                      std::string& reply);
  effects handle_append(const append_request_body& q, std::uint64_t now_ms,
                        std::string& reply);
  effects handle_snapshot(const snapshot_request_body& q,
                          std::uint64_t now_ms, std::string& reply);

  cluster_config config_;
  svc::instance_registry& registry_;
  cmd::command_log& log_;
  vote_writer write_vote_;

  role role_ = role::follower;
  std::uint64_t term_ = 0;
  int voted_for_ = -1;
  /// Votes granted to this candidate in term_ (its own included).
  int votes_ = 0;
  /// Best-known leader (member index), -1 while unknown.
  int leader_ = -1;
  /// This core's cursor on the log: it sits at base_.index, so nothing
  /// after the base leaves the log.
  std::uint64_t cursor_ = 0;
  /// The adopted base: committed state, an exact cut at base_.index.
  svc::log_snapshot base_;
  /// A cut waiting to be committed (and, on a primary, held by every
  /// reachable follower) before it becomes the base.
  std::optional<svc::log_snapshot> pending_;
  /// Set on a member whose registry diverged from its log: appends are
  /// refused with need_snapshot until the primary's snapshot install
  /// rebases the registry.
  bool needs_install_ = false;
  std::uint64_t election_deadline_ms_ = 0;
  std::mt19937_64 rng_;
  node_counters counters_;
  std::vector<peer_progress> peers_;
};

}  // namespace elect::repl
