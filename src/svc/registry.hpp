// Instance registry: maps string election keys onto leader_elect
// instances.
//
// The service multiplexes many logical elections (one per key) over one
// node pool. Each key is owned by a shard (lock-striped: hash(key) mod
// shard_count); the shard lazily creates per-key state the first time the
// key is touched and hands out the key's *current* (election_id, epoch)
// pair. Releasing leadership bumps the epoch and allocates a fresh
// election_id, so the next acquirers contend in a brand-new Figure-6
// instance — repeated test-and-set built from one-shot instances.
//
// Ownership is lease-based: claim_win stamps a deadline (now + TTL),
// renew() pushes it out, and sweep_expired() force-releases holders whose
// deadline has passed by bumping the epoch. The epoch doubles as a
// fencing token — a crashed-and-resurrected holder ("zombie") presenting
// its old epoch to release()/renew() is rejected with `stale_epoch`
// instead of corrupting the new holder's state.
//
// The epoch is also what keeps the service's two granting paths apart.
// An epoch can be granted EITHER by the contention-adaptive fast path
// (begin_adaptive_attempt: a CAS that skips the distributed protocol
// entirely) OR by a distributed election (arm_protocol then claim_win);
// the per-key mode recorded under the shard lock makes the two mutually
// exclusive per epoch, so they can never both grant the same epoch:
//
//   * the fast-path CAS succeeds only while the epoch is current,
//     unheld, and not armed for a protocol;
//   * arm_protocol succeeds only while the epoch is current and unheld,
//     and permanently (for that epoch) disables the fast path;
//   * claim_win grants the epoch to the first protocol survivor and
//     refuses everyone after (and any zombie of a stale epoch).
//
// Every state *mutation* — both grant paths, releases, renewals, the
// sweeper, disconnect reclaim, admin force-release — funnels through one
// deterministic executor: the call path decides (who wins, what
// expires), builds a cmd::command describing the decision, and
// execute_locked runs it. The same executor serves apply() / replay(),
// so a recorded command stream folded into a fresh registry
// reconstructs the same epochs, holders, modes, and (logical) lease
// deadlines — see snapshot()/restore() and src/cmd/. Non-mutating
// observations (attempt counters, arm_protocol's mode latch) stay
// outside the stream; snapshots exclude them.
//
// The command log (cmd::command_log, src/cmd/log.hpp) is the one record
// of what the registry executed: one term-stamped log with one global
// index. The live path appends each executed command to it, under the
// key's shard lock, while any cursor is open — the service's observer
// feed (watch events and journal records), the history behind
// record_commands, and on a cluster member repl::core's compaction
// point; with none open it records nothing. On a cluster member the
// replication layer ships, truncates and compacts the same log in place
// and executes a follower's committed entries from it (apply_entry);
// observers read through its commit index. A snapshot taken under every
// shard lock and then the log's lock is an exact cut: it covers the log
// exactly through the index it is filed under (snapshot_cut).
//
// The clock. Commands are stamped with `at_ms`, milliseconds on the
// registry's logical clock, and a lease deadline is a point on that
// clock; its steady-clock time (what the sweeper and callers see) is
// derived from the clock's origin whenever it is read. A standalone
// registry counts from its construction. apply() moves the clock to
// the command's at_ms and a snapshot install or restore moves it to the
// snapshot's newest watermark, so a replica runs on the replicated
// stream's clock, not its own start time: an inherited lease expires
// late by at most the apply delay and never early, and a promoted
// member stamps on from where the stream was.
//
// The replica rule. Only a primary originates mutations. While
// set_replica(true) holds (repl::core: from construction, from a step
// down until the next promotion), every live-path mutator — both grant
// paths, release, reclaim, renew, force_release, release_all /
// reclaim_all, the sweep and fence_all — changes nothing: grants lose
// (fast_claim_outcome::replica, claim_win empty), lease ops answer
// `connection_lost` (what a failed commit gate answers), bulk enders
// end nothing. apply(), replay() and install_snapshot() still run.
//
// Each begin_attempt() is counted per epoch; the count (plus the final
// count of the previous epoch) is the contention estimate the adaptive
// strategy steers by.
//
// Election ids are drawn from a global 64-bit atomic counter starting
// high above the ids examples and tests hand-pick, so registry-managed
// instances never collide with manually created ones on the same pool.
// The replicated-variable namespace (var_id.instance) is 32-bit; rather
// than silently wrapping and aliasing long-decided instances' variables,
// allocation fails fast (ELECT_CHECK) when the counter reaches
// instance_id_limit — 64K ids *before* the uint32 space ends, so the
// abort happens well clear of any aliasing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cmd/command.hpp"
#include "cmd/log.hpp"
#include "cmd/snapshot.hpp"
#include "election/vars.hpp"

namespace elect::svc {

/// The (instance, epoch) pair a key currently resolves to.
struct instance_entry {
  election::election_id instance{0};
  std::uint64_t epoch = 0;
};

/// What one acquire attempt sees when it registers (begin_attempt).
struct attempt_info {
  instance_entry entry;
  /// Attempts registered in the entry's epoch so far, including this
  /// one (1 means "I am the only acquirer observed this epoch").
  std::uint64_t attempts_this_epoch = 0;
  /// Final attempt count of the key's previous epoch (0 for epoch 0).
  /// Together with attempts_this_epoch this is the contention estimate:
  /// a key is *uncontended* when both are <= 1.
  std::uint64_t last_epoch_attempts = 0;
};

/// One leader transition on a key, as seen by the registry. The watch
/// layer (svc/watch.hpp, api::client::watch) is built on these; each is
/// a rendering of the command (cmd::command_kind) that caused it.
enum class transition : std::uint8_t {
  /// An epoch was granted — by either grant path (protocol win or
  /// adaptive fast claim). `epoch` is the granted epoch, `session` the
  /// new leader.
  elected = 0,
  /// The holder gave the key up voluntarily (fenced/unfenced release,
  /// release_all — including the network edge's disconnect-on-close
  /// reclaim, which is how a remote crash surfaces). `epoch` is the
  /// epoch that ended, `session` its last holder.
  released = 1,
  /// The sweeper force-released an expired lease (a crashed or wedged
  /// holder timed out). Same field meaning as `released`.
  expired = 2,
  /// An operator ended the epoch (admin force-release): the "kick the
  /// stuck leader" lever, distinguishable from an expiry.
  force_released = 3,
};

[[nodiscard]] std::string_view to_string(transition t);

/// Outcome of a fenced lease operation (release / renew).
enum class lease_status {
  ok,
  /// The presented epoch is no longer the key's current epoch: the lease
  /// expired (or was released) and the key moved on. The caller is a
  /// zombie; its operation had no effect.
  stale_epoch,
  /// The epoch is current but the caller is not the recorded holder
  /// (nobody is, or someone else won). No effect.
  not_leader,
  /// The transport to the service died underneath the call — the
  /// connection was severed (peer crash, network fault), NOT closed by
  /// this process — or the member stopped being primary (a failed
  /// commit gate; a replica registry refusing a live mutation). It is
  /// distinguishable from both a real fence (stale_epoch) and a
  /// user-initiated close() (which keeps the crash-semantics mapping
  /// to stale_epoch). The holder must stop acting as leader
  /// either way; it may still hold the lease on the cluster until the
  /// TTL or the disconnect reclaim fences it.
  connection_lost,
};

/// Outcome of the single-acquirer CAS fast path (try_fast_claim).
enum class fast_claim_outcome {
  /// The epoch is granted to the caller; no election ran.
  claimed,
  /// Somebody already holds the epoch (fast claim or protocol win):
  /// the caller lost this epoch.
  held,
  /// A distributed election is armed for this epoch; the caller must
  /// fall back to the protocol path.
  armed,
  /// The epoch moved on between the attempt and the claim: lost.
  stale,
  /// The registry is shut down: the service stopped, no grant. The
  /// caller reports the acquire as rejected (the fast path must not
  /// hand out leases on a stopped service).
  shutdown,
  /// The registry is a replica (set_replica): it grants nothing.
  replica,
};

struct fast_claim_result {
  fast_claim_outcome outcome = fast_claim_outcome::stale;
  /// Lease deadline; meaningful only when outcome == claimed.
  std::chrono::steady_clock::time_point deadline{};
};

/// Admin snapshot of one key's state (list_keys / inspect). Consistent
/// per key — taken under the key's shard lock — but keys may move on
/// between snapshot and use.
struct key_inspection {
  std::string key;
  instance_entry entry;
  /// Holding session, -1 when unheld.
  int leader = -1;
  /// time_point::max() = non-expiring lease (or unheld).
  std::chrono::steady_clock::time_point lease_deadline =
      std::chrono::steady_clock::time_point::max();
  /// Grant mode as text: "open", "fast_claimed", or "protocol_armed".
  std::string_view mode;
  std::uint64_t attempts_this_epoch = 0;
  std::uint64_t last_epoch_attempts = 0;
};

/// One fused adaptive acquire entry (begin_adaptive_attempt): the
/// attempt registration plus, when the contention estimate was clear,
/// the fast-path outcome — all decided under one shard lock.
struct adaptive_attempt {
  attempt_info attempt;
  /// False when the contention estimate said "contended" and no fast
  /// claim was attempted: the caller goes down the protocol path.
  bool fast_attempted = false;
  fast_claim_result fast;
};

/// A registry snapshot and the log position it is an exact cut at: it
/// covers entries [1, index] and nothing after; `term` is the term of
/// entry `index`.
struct log_snapshot {
  std::vector<std::uint8_t> bytes;
  std::uint64_t index = 0;
  std::uint64_t term = 0;
};

class instance_registry {
 public:
  using clock = std::chrono::steady_clock;

  /// Last allocatable instance id: 64K short of the 32-bit var_id
  /// namespace, so exhaustion aborts well before any aliasing.
  static constexpr std::uint64_t instance_id_limit = 0xFFFF0000ull;

  /// `first_instance` is the id given to the first key; subsequent
  /// instances count up from there.
  explicit instance_registry(int shard_count,
                             std::uint64_t first_instance = 1u << 20);

  instance_registry(const instance_registry&) = delete;
  instance_registry& operator=(const instance_registry&) = delete;

  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(shards_.size());
  }

  /// Which shard owns `key`. Stable for the registry's lifetime.
  [[nodiscard]] int shard_of(const std::string& key) const;

  /// Current (instance, epoch) for `key`; lazily creates epoch 0.
  [[nodiscard]] instance_entry current(const std::string& key);

  /// Register one acquire attempt: like current(), but also bumps the
  /// epoch's attempt counter and returns the contention estimate.
  [[nodiscard]] attempt_info begin_attempt(const std::string& key);

  /// Current (instance, epoch) for `key` without creating state; empty
  /// when the key has never been acquired.
  [[nodiscard]] std::optional<instance_entry> peek(const std::string& key);

  /// The adaptive entry point, fused so the uncontended hot path takes
  /// the shard lock exactly once: register the attempt and — iff no
  /// contention is observed (this is the epoch's first attempt and the
  /// previous epoch saw at most one acquirer) — grant the epoch to
  /// `session` by CAS, with no election. The CAS is refused when the
  /// epoch is armed for a protocol (caller falls back to the
  /// distributed path), already held, or the registry is shut down; see
  /// fast_claim_outcome. Fusing also makes `stale` unreachable here:
  /// the epoch read and the claim happen under one lock.
  [[nodiscard]] adaptive_attempt begin_adaptive_attempt(
      const std::string& key, int session, clock::duration ttl);

  /// Gate for running a distributed election on (key, epoch): returns
  /// true and disables the fast path for the epoch when the epoch is
  /// current and unheld (idempotent across concurrent acquirers — they
  /// are meant to contend in the same instance). Returns false when the
  /// epoch was already granted or moved on: the caller loses without
  /// touching the network.
  [[nodiscard]] bool arm_protocol(const std::string& key, std::uint64_t epoch);

  /// Grant `epoch` to `session` — the protocol path's decider. Returns
  /// the lease deadline for the first claimer while the epoch is still
  /// current; empty for every later claimer (another survivor won) and
  /// for stale epochs. `ttl` == zero() means the lease never expires.
  /// For self-deciding protocols (full leader_elect) a refusal is a
  /// test-and-set safety violation — the caller CHECKs.
  [[nodiscard]] std::optional<clock::time_point> claim_win(
      const std::string& key, std::uint64_t epoch, int session,
      clock::duration ttl);

  /// Session currently holding `key` (-1 if none / not yet elected).
  [[nodiscard]] int leader_of(const std::string& key);

  /// Lease deadline of `key`'s current holder (time_point::max() for a
  /// non-expiring lease; empty when nobody holds the key).
  [[nodiscard]] std::optional<clock::time_point> lease_deadline_of(
      const std::string& key);

  /// Fenced release: only the recorded winner of exactly `epoch` — which
  /// must still be the current epoch — releases. On `ok` the epoch is
  /// bumped, a fresh election instance is allocated, and parked waiters
  /// wake. A zombie presenting a stale epoch gets `stale_epoch` and
  /// changes nothing.
  lease_status release(const std::string& key, int session,
                       std::uint64_t epoch);

  /// Unfenced convenience release: releases whatever epoch `session`
  /// currently holds on `key` (`not_leader` when it holds nothing). Used
  /// by single-threaded holders that didn't keep the acquire epoch; a
  /// session racing its own expiry should use the fenced overload.
  lease_status release(const std::string& key, int session);

  /// Fenced release on behalf of a dead connection — same verdicts and
  /// fencing as release(), but recorded as `disconnect_reclaimed` so the
  /// stream (and the journal rendering it) can tell a crash reclaim from
  /// a voluntary release. Used by the network edge for late wins on
  /// closed connections.
  lease_status reclaim(const std::string& key, int session,
                       std::uint64_t epoch);

  /// Fenced renewal: extend the holder's lease to now + ttl. Same fencing
  /// as release(); `stale_epoch` tells a holder it lost the key.
  lease_status renew(const std::string& key, int session, std::uint64_t epoch,
                     clock::duration ttl);

  /// Release every key currently held by `session` (graceful
  /// disconnect). `on_released` (if set) is called with the shard index
  /// once per released key, under no lock. Returns the number of keys
  /// released.
  std::size_t release_all(int session,
                          const std::function<void(int)>& on_released = {});

  /// reclaim() in bulk: end every lease `session` still holds because
  /// its connection died (the network edge's crash reclaim — how a
  /// remote crash is observed faster than the lease TTL). Identical
  /// state effect to release_all; recorded as `disconnect_reclaimed`.
  std::size_t reclaim_all(int session,
                          const std::function<void(int)>& on_reclaimed = {});

  /// Every key `session` currently holds, in unspecified order. A
  /// snapshot — by the time the caller looks, leases may have expired.
  /// Introspection for the network edge (per-connection accounting) and
  /// tests; not a hot path.
  [[nodiscard]] std::vector<std::string> keys_held_by(int session) const;

  /// Admin: snapshot every registered key (shard by shard; not a
  /// cross-shard atomic view). Not a hot path.
  [[nodiscard]] std::vector<key_inspection> list_keys() const;

  /// Admin: list_keys() one key at a time, in the same order, until
  /// `visit` returns false — nothing past that key is copied. `visit`
  /// runs under the key's shard lock, so it must be brief and must not
  /// call back into the registry.
  void visit_keys(
      const std::function<bool(const key_inspection&)>& visit) const;

  /// Admin: snapshot one key; empty when the key was never acquired.
  [[nodiscard]] std::optional<key_inspection> inspect(
      const std::string& key) const;

  /// Admin: unconditionally end `key`'s current epoch regardless of
  /// holder — the operator's "kick the stuck leader" lever. Emits a
  /// `force_released` command (its own journal/watch kind, not an
  /// expiry). `not_leader` when the key is unknown or unheld (nothing
  /// to do).
  lease_status force_release(const std::string& key);

  /// Force-release every holder whose lease deadline is <= now: bump the
  /// epoch, allocate a fresh instance, wake parked waiters. `on_expired`
  /// (if set) is called with the shard index once per expired key, under
  /// no lock and before the waiters wake. Returns the number of leases
  /// expired.
  std::size_t sweep_expired(clock::time_point now,
                            const std::function<void(int)>& on_expired = {});

  /// Park an acquirer that lost `epoch` of `key` until the next move of
  /// the key's epoch, which wakes every waiter on the key. `wake` runs
  /// once, after the mover released the shard lock but possibly under
  /// its own locks (repl::node's mutex on a step-down): it must only
  /// hand off. Returns the waiter id, or 0 — nothing parked, `wake`
  /// never runs, retry now — when the epoch already moved past `epoch`
  /// or the registry is shut down. A never-acquired key counts as epoch
  /// 0: parking on it creates no key state and uses up no instance id.
  [[nodiscard]] std::uint64_t park(const std::string& key,
                                   std::uint64_t epoch,
                                   std::function<void()> wake);

  /// Take a parked waiter back: true when its wake will never run;
  /// false when the wake was already handed out (or the id is unknown).
  bool unpark(std::uint64_t id);

  /// Hand every parked waiter its wake (a primary stepping down: its
  /// parked acquirers must go and find the new one).
  void wake_all();

  /// Waiters parked right now (introspection; not a hot path).
  [[nodiscard]] std::size_t parked_count() const;

  /// Wake every parked waiter and refuse later parks (park() returns 0).
  /// Called by the service's stop() so blocked acquirers retry into a
  /// rejected acquire instead of sleeping forever.
  void shutdown();

  /// Keys registered in one shard / in total (for distribution checks).
  [[nodiscard]] std::size_t keys_in_shard(int shard) const;
  [[nodiscard]] std::size_t key_count() const;

  /// Instance ids still allocatable before the fail-fast guard trips.
  [[nodiscard]] std::uint64_t remaining_instance_ids() const noexcept;

  // --- The command log (src/cmd/log.hpp) --------------------------------

  /// Open the history cursor behind record_commands: every later
  /// mutation stays in the log until a snapshot(trim_log=true) or a
  /// cluster compaction covers it. Call before the registry sees
  /// concurrent traffic (the service does at construction when
  /// configured); idempotent.
  void enable_command_log();

  /// Is the history cursor open?
  [[nodiscard]] bool command_log_enabled() const noexcept {
    return history_.load(std::memory_order_relaxed) != 0;
  }

  [[nodiscard]] cmd::command_log& log() noexcept { return log_; }
  [[nodiscard]] const cmd::command_log& log() const noexcept { return log_; }

  /// The history cursor's id (0 while record_commands is off).
  [[nodiscard]] std::uint64_t history_cursor() const noexcept {
    return history_.load(std::memory_order_relaxed);
  }

  /// Seq of the last command executed in `shard` (live or replayed).
  [[nodiscard]] std::uint64_t shard_last_seq(int shard) const;

  /// Command-log accounting (recorded lifetime vs retained in memory).
  [[nodiscard]] cmd::log_stats log_stats() const { return log_.stats(); }

  /// Execute one recorded command against this registry — the replay
  /// half of the funnel. Validates before executing: the key must map
  /// to `c.shard` (a mismatch means a different shard count), `c.seq`
  /// must extend the shard's watermark without a gap, and the command's
  /// epoch/holder must match the state it claims to mutate. Returns an
  /// error string (state untouched) on any mismatch; commands are never
  /// re-appended to the replaying registry's own log (the watermark
  /// advances to `c.seq` instead, so a later snapshot matches the
  /// recorder's) — a replica's stream is the one it replays.
  [[nodiscard]] std::optional<std::string> apply(const cmd::command& c);

  /// apply() for the log's own entry `index` (a follower executing what
  /// committed): on success the log's applied index moves to `index`
  /// under the same shard lock, so a snapshot never sees one without
  /// the other. A barrier applies as a no-op; an entry the log no
  /// longer holds is an error.
  [[nodiscard]] std::optional<std::string> apply_entry(std::uint64_t index);

  /// Fold a command stream into this registry: apply() in order,
  /// stopping at the first error. Replaying a full stream into a fresh
  /// registry (or a post-snapshot suffix into a restore()d one)
  /// reconstructs the recorder's replayable state exactly — snapshot()
  /// on both sides yields byte-identical bytes.
  [[nodiscard]] std::optional<std::string> replay(
      const std::vector<cmd::command>& log);

  /// Serialize the replayable state (see src/cmd/snapshot.hpp for the
  /// format and the normalizations that make two equivalent registries
  /// encode byte-identically) as one cut: under every shard lock (in
  /// index order) and then the log's lock, so it covers the log exactly
  /// through its applied index. Key state is copied under the locks and
  /// sorted and encoded after they are released. With `trim_log` the
  /// history cursor moves to the cut — the snapshot is the compaction of
  /// everything before it — so those entries leave the log once every
  /// other cursor has passed them too.
  [[nodiscard]] log_snapshot snapshot_cut(bool trim_log = false);
  [[nodiscard]] std::vector<std::uint8_t> snapshot(bool trim_log = false) {
    return snapshot_cut(trim_log).bytes;
  }

  /// Load a snapshot into this (required: empty) registry. The clock
  /// moves to the snapshot's newest watermark (see the file comment),
  /// so a lease with 3 s left at that point expires ~3 s after the
  /// restore. With
  /// `fence_restored`, every restored key's epoch is then bumped (one
  /// `epoch_bumped` command each): pre-snapshot leaseholders answer
  /// `stale_epoch` from their first fenced op, instead of being
  /// resurrected into leases they may have lost.
  ///
  /// `fence_bump` is how far past the restored epoch the fence jumps
  /// (>= 1). A snapshot is a *prefix* of the truth: epochs granted after
  /// the last dump and before the crash are invisible here, so a bump
  /// of 1 can re-grant an epoch some pre-crash client already won —
  /// two leaders holding the same (key, epoch) fencing token. A large
  /// jump (elect_server defaults to 2^20) clears every epoch the crash
  /// gap could plausibly have granted; the chaos checker's
  /// unique-holder rule is what verifies the assumption. Returns an
  /// error (nothing changed) on a malformed snapshot, a shard-count
  /// mismatch or a non-empty registry.
  [[nodiscard]] std::optional<std::string> restore(
      const std::vector<std::uint8_t>& bytes, bool fence_restored,
      std::uint64_t fence_bump = 1);

  /// Replace every key's state with `cut` without fencing — a cluster
  /// member adopting committed state. By default the log restarts at the
  /// cut (rebase: no entries; applied, committed and every cursor at
  /// cut.index): a follower installing its primary's snapshot. With
  /// `keep_log` the log is left as it is and only its applied index
  /// moves back to the cut: a member rewinding to its own compacted base
  /// to re-execute its committed entries. Every parked waiter is woken
  /// and retries against the installed state. Same errors as restore();
  /// on error nothing changes.
  [[nodiscard]] std::optional<std::string> install_snapshot(
      const log_snapshot& cut, bool keep_log = false);

  /// Switch the replica rule (see the file comment) on or off. Takes
  /// every shard lock, so no live mutation straddles the switch; turning
  /// it off (a promotion) also sets the term live appends carry.
  void set_replica(bool replica, std::uint64_t term = 0);
  [[nodiscard]] bool replica() const noexcept {
    return replica_.load(std::memory_order_relaxed);
  }

  /// Failover fencing (elect::repl): called by a node the moment it
  /// becomes primary, with the cluster's --fence-bump margin. Every
  /// known *unheld* key's epoch jumps by `bump` immediately (one
  /// `epoch_bumped` command each, replicated like any mutation), so
  /// epochs the deposed primary may have granted past the commit point
  /// can never be re-granted. A *held* key keeps its holder and epoch —
  /// a quorum-committed lease survives failover and its holder's fenced
  /// ops keep answering ok — but the bump is recorded as pending and
  /// lands when that epoch ends, so the key's next grant jumps clear
  /// too. Pending bumps are leader-local soft state (not part of the
  /// replayable stream until they fire); a primary that fails before a
  /// pending bump lands is covered by its successor's own fence_all().
  /// Returns the number of keys fenced (immediately or pending).
  std::size_t fence_all(std::uint64_t bump);

 private:
  /// How the current epoch has been (or may be) granted.
  enum class grant_mode : std::uint8_t {
    /// Nobody holds the epoch and no election is armed: both paths open.
    open,
    /// The fast path granted the epoch; no protocol may ever run for it.
    fast_claimed,
    /// A distributed election is (or was) running; fast path disabled.
    protocol_armed,
  };

  struct key_state {
    instance_entry entry;
    int leader = -1;
    /// The lease deadline on the logical clock; cmd::lease_forever when
    /// non-expiring (or unheld). What snapshots record — wall-clock
    /// independent, reconstructable from the command stream.
    std::uint64_t logical_deadline_ms = cmd::lease_forever;
    grant_mode mode = grant_mode::open;
    /// Contention estimate inputs (see attempt_info).
    std::uint64_t attempts_this_epoch = 0;
    std::uint64_t last_epoch_attempts = 0;
    /// Deferred failover fence (fence_all on a held key): added to the
    /// epoch when it next ends, then cleared. Leader-local soft state —
    /// never snapshotted or replayed; it shapes the commands a primary
    /// *emits*, not how commands apply.
    std::uint64_t pending_fence = 0;
  };

  using wake_list = std::vector<std::function<void()>>;

  struct shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, key_state> keys;
    /// Parked acquirers (id, wake) per key, apart from `keys` so parking
    /// on a never-acquired key creates no key state. Ids are
    /// n * shard_count + shard index: an id names its shard.
    std::unordered_map<std::string,
                       std::vector<std::pair<std::uint64_t,
                                             std::function<void()>>>>
        waiters;
    std::uint64_t next_waiter = 1;
    /// Seq and logical time of the last command executed here, live or
    /// replayed (the snapshot's per-shard watermark).
    std::uint64_t last_seq = 0;
    std::uint64_t last_at_ms = 0;
    std::int32_t index = 0;
  };

  shard& shard_for(const std::string& key);
  key_state& state_locked(shard& s, const std::string& key);
  /// Move `key`'s parked waiters' wakes into `out` (shard lock held);
  /// the caller runs them after unlocking. One branch on an empty map
  /// when nobody is parked in the shard.
  static void take_waiters_locked(shard& s, const std::string& key,
                                  wake_list& out);
  /// Allocate a fresh instance id; aborts at instance_id_limit (see
  /// file comment) instead of wrapping the 32-bit var_id namespace.
  [[nodiscard]] election::election_id allocate_instance();
  /// The logical clock commands are stamped with: milliseconds since
  /// its origin (steady-based: immune to wall-clock jumps).
  [[nodiscard]] std::uint64_t logical_now_ms() const;
  [[nodiscard]] clock::time_point origin() const;
  /// Move the clock so that it reads `at_ms` now (the stream's clock).
  void move_clock_to(std::uint64_t at_ms);
  /// The steady-clock time of a logical deadline (max() for forever).
  [[nodiscard]] clock::time_point steady_deadline(
      std::uint64_t logical_deadline_ms) const;
  /// One key's admin snapshot (caller holds its shard lock).
  [[nodiscard]] key_inspection inspection_locked(
      const std::string& key, const key_state& state) const;
  /// Bump `key` to a fresh (instance, epoch) with no holder. Caller holds
  /// the shard lock and must wake the key's waiters after unlocking.
  void bump_epoch_locked(key_state& state);
  /// Stamp the lease deadline from a grant/renewal command.
  void set_lease_locked(key_state& state, const cmd::command& c);
  /// THE mutation funnel: execute `c` against `state` — deterministic
  /// given the command — and advance the shard's logical clock. Shared
  /// by the live path (emit_locked) and replay (apply). Caller holds
  /// the shard lock and wakes waiters after unlocking.
  void execute_locked(shard& s, key_state& state, const cmd::command& c);
  /// The live path: execute `c`, then — while a cursor is open — append
  /// it (with `key`) to the log, which gives it the shard's next seq.
  void emit_locked(shard& s, key_state& state, const std::string& key,
                   cmd::command c);
  /// apply() and apply_entry(): validate `c`, execute it, and when
  /// `index` is nonzero mark that log entry applied.
  [[nodiscard]] std::optional<std::string> apply_at(const cmd::command& c,
                                                    std::uint64_t index);
  /// Every shard lock, taken in index order (nothing else holds two).
  [[nodiscard]] std::vector<std::unique_lock<std::mutex>> lock_all() const;
  /// Decode `bytes` and check they fit this registry (shard count, every
  /// key in its shard).
  [[nodiscard]] std::optional<std::string> decode_checked(
      const std::vector<std::uint8_t>& bytes, cmd::snapshot_data& out) const;
  /// Load one decoded shard into `s` (shard lock held).
  void load_locked(shard& s, const cmd::snapshot_shard& in);
  /// Shared body of the single-key epoch-enders: end `key`'s current
  /// epoch with a `kind` command unless `refuse(state)` (under the shard
  /// lock; nullptr for a never-acquired key) returns a refusal.
  template <typename Refuse>
  lease_status end_epoch(const std::string& key, cmd::command_kind kind,
                         Refuse refuse);
  /// end_epoch for the fenced enders: release() and reclaim() differ
  /// only in the command kind they record.
  lease_status end_epoch_fenced(const std::string& key, int session,
                                std::uint64_t epoch, cmd::command_kind kind);
  /// If `state` carries a pending failover fence, emit the deferred
  /// epoch_bumped now (the epoch just ended — the next grant must jump
  /// clear of the deposed primary's uncommitted tail). Caller holds the
  /// shard lock.
  void fence_after_end_locked(shard& s, key_state& state,
                              const std::string& key, std::uint64_t at_ms);
  /// Scan every shard and bump every key matching `predicate` (checked
  /// under the shard lock); per shard, `on_bumped(shard_index)` runs
  /// once per bumped key, under no lock, before the bumped keys' waiters
  /// are woken.
  /// Each bump emits a `kind` command for the ended epoch.
  /// Shared engine of release_all / reclaim_all (match: held by one
  /// session) and sweep_expired (match: lease deadline passed).
  std::size_t bump_matching(const std::function<bool(const key_state&)>& predicate,
                            const std::function<void(int)>& on_bumped,
                            cmd::command_kind kind);

  std::vector<std::unique_ptr<shard>> shards_;
  std::atomic<std::uint64_t> next_instance_;
  std::atomic<bool> shutdown_{false};
  cmd::command_log log_;
  /// The history cursor's id (0 = record_commands off).
  std::atomic<std::uint64_t> history_{0};
  /// See set_replica(); written under every shard lock.
  std::atomic<bool> replica_{false};
  /// Origin of the logical clock (steady time_since_epoch ticks).
  std::atomic<clock::rep> origin_;
};

}  // namespace elect::svc
