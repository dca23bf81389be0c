// elect::svc — a sharded multi-instance election service.
//
// The paper's leader_elect (Figure 6) is a one-shot test-and-set. This
// service turns it into a long-running facility: many logical elections
// (one per string key) multiplexed over one fixed pool of engine::nodes.
//
//   * Every pool node runs a *driver* — a long-lived protocol coroutine
//     that pulls acquire jobs from a per-node queue and runs one
//     leader_elect instance per job. The nodes share one FIFO transport
//     and own no threads: whichever thread submits a job runs the pool
//     to quiescence under the pool mutex (flat combining), admitting
//     queued jobs, delivering messages and stepping nodes until nothing
//     is left. Jobs that arrive during a run join it and contend in the
//     real protocol; a job is done when its submit returns.
//   * The instance registry (registry.hpp) shards keys across lock
//     stripes and lazily maps each key to its current (election_id,
//     epoch). release() bumps the epoch, giving repeated-TAS semantics.
//   * Which election scheme decides an epoch is a pluggable *strategy*
//     (election/strategy.hpp): the paper's full Figure-6 protocol, the
//     cheaper sifter_pill / doorway_only rungs of the algorithm ladder,
//     or `adaptive` — a contention-steered policy that grants
//     uncontended epochs through an epoch-fenced CAS in the registry
//     (no distributed protocol at all) and falls back to the full
//     protocol the moment contention is observed. The service carries a
//     default strategy plus per-key overrides in service_config; the
//     registry's grant-mode fencing guarantees the fast path and the
//     protocol path can never both grant one epoch.
//   * Ownership is a *lease*: winning an acquire grants the key until
//     `lease_ttl` elapses; the holder extends it with renew(). A sweeper
//     thread force-releases expired leases by bumping the epoch, so a
//     crashed client cannot wedge a key — blocked acquirers wake into a
//     fresh election. The epoch is the fencing token: a zombie's late
//     release()/renew() with its old epoch returns `stale_epoch` and has
//     no effect on the new holder.
//   * Client sessions are bound round-robin to pool nodes. acquire jobs
//     from different sessions on different nodes contend in the real
//     protocol; a second job on a node that already participated in an
//     instance loses locally (test-and-set is one invocation per
//     processor per instance).
//   * Quorum replication spans the whole pool: every node serves
//     propagate/collect for every instance, so elections run the
//     paper's communicate calls unchanged. Delivery order is FIFO and
//     node RNGs derive from the seed, so a single-threaded call sequence
//     replays the same message trace (report().pool_trace_hash).
//
// Threading contract: session calls (try_acquire / acquire / release /
// renew) block the *calling* OS thread, which may also run other
// sessions' elections while it holds the pool mutex. Lock order: the
// pool mutex, then a node queue lock or a registry shard lock; the
// commit gate and parking run after the pool mutex is released. stop()
// is safe to call while clients are mid-call: in-flight acquires finish
// or come back with `rejected` set, and blocked acquirers are woken —
// nothing aborts and nothing hangs.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "election/strategy.hpp"
#include "engine/metrics.hpp"
#include "engine/node.hpp"
#include "engine/task.hpp"
#include "obs/journal.hpp"
#include "svc/metrics.hpp"
#include "svc/registry.hpp"
#include "svc/watch.hpp"

namespace elect::svc {

struct service_config {
  /// Node pool size. Nodes are coroutines on one transport, not
  /// threads: a pool of 64 costs memory, not OS threads.
  int nodes = 8;
  /// Registry shard count (lock stripes + metrics partitions).
  int shards = 4;
  std::uint64_t seed = 1;
  /// Per-election round safety valve (see leader_elect_params).
  std::int64_t max_rounds = 1'000'000;
  /// Lease granted to a winning acquire, in milliseconds. 0 means leases
  /// never expire (PR-1 behaviour: the winner must release explicitly).
  std::uint64_t lease_ttl_ms = 0;
  /// How often the sweeper scans for expired leases. 0 derives
  /// max(1, lease_ttl_ms / 4). Ignored when lease_ttl_ms == 0 (no
  /// sweeper thread is started).
  std::uint64_t sweep_interval_ms = 0;
  /// Per-node participated-map size that triggers a stale-entry eviction
  /// pass (see service::worker::participated).
  std::size_t participated_prune_threshold = 1024;
  /// Election strategy used for keys without an override. `full` is the
  /// paper's Figure-6 protocol (strongest guarantees); see
  /// election/strategy.hpp for the ladder and `adaptive`.
  election::strategy_kind default_strategy = election::strategy_kind::full;
  /// Per-key strategy overrides (exact key match beats the default).
  std::unordered_map<std::string, election::strategy_kind> key_strategies;
  /// Traced requests slower than this auto-capture a span dump naming
  /// the stalled phase (obs::maybe_capture_slow). 0 disables. Note the
  /// tracer threshold is process-global; the last service constructed
  /// with a nonzero value wins.
  std::uint64_t slow_request_threshold_ms = 0;
  /// Journal typed events (elected / released / expired / stale_fence /
  /// watch_drop, plus the server's disconnect_reclaim) to a bounded
  /// in-memory ring readable via journal()->tail().
  bool journal_events = false;
  /// Optional JSONL sink for the journal (append-only file); requires
  /// journal_events.
  std::string journal_path;
  /// In-memory journal ring capacity (and the sink's backlog bound).
  std::size_t journal_capacity = 4096;
  /// Keep every registry mutation in the command log (src/cmd/log.hpp)
  /// until a snapshot(trim_log=true) or a cluster compaction covers it:
  /// the replayable history behind registry().snapshot() and the
  /// admin_commands pages (it opens the registry's history cursor). Off
  /// by default — recording copies each command (key string included)
  /// into the log, which the adaptive fast path otherwise never pays
  /// for while nobody reads the log.
  bool record_commands = false;
  /// First session id this service hands out. Cluster members set a
  /// disjoint per-node base (repl: self << 24) so a lease replicated
  /// from another member's log can never collide with a live local
  /// session — a renew/release of a failed-over lease must fence
  /// (stale/not_leader), not accidentally match a stranger.
  int session_id_base = 0;

  /// Check the configuration without constructing a service: empty on
  /// success, otherwise a description of the first problem found. The
  /// service constructor runs this and aborts with the message — callers
  /// that would rather report than crash (the elect_server binary, test
  /// harnesses) validate first.
  [[nodiscard]] std::optional<std::string> validate() const;
};

/// Outcome of one acquire attempt (one leader_elect invocation).
struct acquire_result {
  bool won = false;
  /// The service refused the call because stop() ran first or
  /// concurrently. No election happened; won is false.
  bool rejected = false;
  /// try_acquire_for only: the timeout elapsed before the key's epoch
  /// moved; the last attempt's loss is reported alongside.
  bool timed_out = false;
  /// Set only by net::client, alongside rejected: the connection to the
  /// remote service was severed underneath the call (peer crash,
  /// network fault) rather than closed by this process. The local
  /// service never sets it. See lease_status::connection_lost.
  bool connection_lost = false;
  /// The epoch was granted through the adaptive CAS fast path — no
  /// distributed election ran for this attempt.
  bool fast_path = false;
  /// The epoch of the instance contended. Losers park on it (registry
  /// park) until the holder releases or expires; winners pass it back
  /// to renew()/release() as the fencing token.
  std::uint64_t epoch = 0;
  election::election_id instance{0};
  std::uint64_t latency_ns = 0;
  /// Winner only: when the lease lapses unless renewed
  /// (time_point::max() when lease_ttl_ms == 0).
  std::chrono::steady_clock::time_point lease_deadline{};
};

/// now + `timeout`, saturating at time_point::max() (wait forever)
/// instead of overflowing; a timeout <= 0 is due now. The one deadline
/// computation behind every bounded acquire — the local session's and
/// the network server's.
[[nodiscard]] std::chrono::steady_clock::time_point deadline_after(
    std::chrono::milliseconds timeout);

class service {
 public:
  explicit service(service_config config);
  ~service();

  service(const service&) = delete;
  service& operator=(const service&) = delete;

  /// A client handle bound to one pool node. Cheap to copy; all calls
  /// block the calling thread until the service answers.
  class session {
   public:
    /// One-shot test-and-set on `key`'s current instance: returns won or
    /// lost. Exactly one concurrent acquirer per (key, epoch) wins.
    acquire_result try_acquire(const std::string& key);

    /// Blocking acquire: contend, and on loss sleep until the holder
    /// releases (or its lease expires), then contend in the fresh
    /// instance. Returns the winning attempt's result — or, if the
    /// service stops while we wait, a result with `rejected` set.
    acquire_result acquire(const std::string& key);

    /// Bounded blocking acquire: like acquire(), but give up once
    /// `timeout` has elapsed — the result then has `timed_out` set (and
    /// `won` false). The timeout bounds the sleeps between attempts; an
    /// attempt already in flight when it expires still completes (and
    /// its win is returned). milliseconds::max() never times out.
    /// stop() wakes timed waiters immediately with `rejected`, same as
    /// acquire().
    acquire_result try_acquire_for(const std::string& key,
                                   std::chrono::milliseconds timeout);

    /// Give up leadership of `key` if this session currently holds it.
    /// Returns the fencing verdict; a session that lost the key to lease
    /// expiry gets `not_leader`/`stale_epoch` back instead of aborting.
    lease_status release(const std::string& key);

    /// Fenced release: only succeeds while `epoch` (from the winning
    /// acquire_result) is still current. Use this form when the same
    /// session may have re-acquired the key after an expiry.
    lease_status release(const std::string& key, std::uint64_t epoch);

    /// Extend the lease on `key` by the configured TTL. `stale_epoch`
    /// means the lease already expired and the key moved on — the caller
    /// must stop acting as leader.
    lease_status renew(const std::string& key, std::uint64_t epoch);

    /// Gracefully drop every key this session holds (client going away
    /// politely, as opposed to crashing and waiting out the TTL).
    /// Returns the number of keys released.
    std::size_t disconnect();

    /// Fenced release on behalf of this session's dead connection (the
    /// network edge reclaiming a late win on a closed socket). Same
    /// verdicts as release(key, epoch); recorded/journaled as a
    /// disconnect reclaim rather than a voluntary release.
    lease_status reclaim(const std::string& key, std::uint64_t epoch);

    /// disconnect(), but for a connection that died rather than said
    /// goodbye: every held lease ends as a disconnect reclaim. Returns
    /// the number of keys reclaimed.
    std::size_t reclaim_all();

    /// Snapshot of the keys this session currently holds. Introspection
    /// for embedders (the network front-end accounts per-connection
    /// leases with it); leases may expire between snapshot and use.
    [[nodiscard]] std::vector<std::string> held_keys() const;

    [[nodiscard]] int id() const noexcept { return id_; }
    [[nodiscard]] process_id node() const noexcept { return pid_; }

   private:
    friend class service;
    session(service& owner, int id, process_id pid)
        : owner_(&owner), id_(id), pid_(pid) {}

    service* owner_;
    int id_;
    process_id pid_;
  };

  /// Open a session, bound round-robin to a pool node. Aborts if the
  /// service already stopped — embedders racing shutdown (the network
  /// front-end accepting one last connection) use try_connect().
  [[nodiscard]] session connect();

  /// Like connect(), but returns empty instead of aborting once stop()
  /// has run or is running.
  [[nodiscard]] std::optional<session> try_connect();

  /// Has stop() run (or started)? Advisory — a false answer may be
  /// stale by the time the caller acts on it.
  [[nodiscard]] bool stopped() const noexcept {
    return stopped_.load(std::memory_order_relaxed);
  }

  /// Stop the lease sweeper, wake blocked acquirers (they come back
  /// `rejected`) and turn later acquires away; an acquire already queued
  /// still finishes on its own thread. Called by the destructor;
  /// idempotent and safe to race with client calls.
  void stop();

  [[nodiscard]] instance_registry& registry() noexcept { return registry_; }
  [[nodiscard]] const service_config& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::chrono::milliseconds lease_ttl() const noexcept {
    return std::chrono::milliseconds(config_.lease_ttl_ms);
  }

  /// Run one expiry sweep now (what the sweeper thread does on its
  /// interval). Exposed for tests and for embedders that drive their own
  /// clock. Returns the number of leases expired.
  std::size_t sweep_now();

  /// Admin force-release with accounting: ends `key`'s current epoch
  /// regardless of holder (registry force_release) and counts the kick
  /// in the forced_releases metric. The network front-end routes the
  /// admin_force_release wire op through here.
  lease_status force_release(const std::string& key);

  /// Subscribe to `key`'s leader transitions (elected / released /
  /// expired / force_released). Returns the subscription id, 0 once the
  /// service stopped.
  /// Delivery semantics per svc/watch.hpp: asynchronous on the hub's
  /// notifier thread, per-key seq order, no cross-key ordering; only
  /// committed transitions are delivered, from those that commit after
  /// the subscription on (in cluster mode a grant shows once a quorum
  /// holds it, never one its acquirer was refused, and a follower's
  /// watchers see what it applied); a transition is observable within
  /// the lease TTL + sweep interval of the holder misbehaving (expiry is
  /// what bounds a silent crash).
  [[nodiscard]] std::uint64_t watch(const std::string& key,
                                    watch_hub::callback fn);

  /// Cancel a subscription; after return the callback never runs again.
  void unwatch(std::uint64_t id);

  /// Render every committed command the observer feed has not rendered
  /// yet into watch events and journal records. The service calls it
  /// after each of its own mutations; the replication layer calls it
  /// after commits move without a client waiting on them (expiries, a
  /// promotion's fence, a follower's applied entries), and an embedder
  /// after mutating the registry directly (a restore's fence). A no-op
  /// while nobody watches and the journal is off.
  void publish_committed();

  /// Snapshot of service + pool metrics (per-shard counters, latency
  /// quantiles, messages per acquire, communicate-call complexity).
  [[nodiscard]] service_report report() const;

  /// The structured event journal, or nullptr when
  /// config.journal_events is off. The journal is a rendering of the
  /// registry's committed command stream (one record per non-renewal
  /// command); the pointer stays valid for the service's lifetime.
  [[nodiscard]] obs::journal* journal() noexcept { return journal_.get(); }

  /// Install the replication commit gate (cluster mode). After every
  /// locally applied single-key mutation (an acquire's grant, release,
  /// renew, reclaim, force-release) the gate is called with the key the
  /// op touched and must return true once the mutation is
  /// quorum-committed. A false return converts the op's ack into
  /// `connection_lost`: a primary that lost its quorum must not confirm
  /// grants *or renewals* — that refusal is what demotes a zombie's
  /// clients before a fenced successor can double-grant. The multi-key
  /// enders (disconnect, reclaim_all) do not wait on it: their leases
  /// ended here whatever the gate says, and a later ack on any of those
  /// keys waits for its own, later entry. Install before serving
  /// traffic; swapping the gate is not synchronized against in-flight
  /// calls.
  ///
  /// A cluster member that is not primary holds its registry as a
  /// replica (instance_registry::set_replica): every live mutation —
  /// the sweeper's expiry included — changes nothing there, and a
  /// refused op gets the failed gate's answer, `connection_lost`.
  void set_commit_gate(std::function<bool(const std::string&)> gate) {
    commit_gate_ = std::move(gate);
  }

 private:
  /// One queued acquire. The submitting thread owns the struct (on its
  /// stack); a pool run fills `result` and sets `done`, both under
  /// pool_mutex_.
  struct job {
    std::string key;
    int session_id = -1;
    /// Which election scheme decides this attempt (resolved at submit).
    election::strategy_kind kind = election::strategy_kind::full;
    /// The (instance, epoch) the attempt registered against on the
    /// client thread; the driver contends exactly this epoch (and loses
    /// cheaply if the key moved on by the time the job is served).
    instance_entry entry;
    /// The submitting client's trace id (0 = untraced); the driver
    /// records its phases against it.
    std::uint64_t trace = 0;
    std::chrono::steady_clock::time_point submitted;

    bool done = false;
    acquire_result result;
  };

  /// The pool's network: every send joins one FIFO that run_pool()
  /// delivers in order.
  struct fifo_transport final : engine::transport {
    std::deque<engine::message> queue;
    void send(engine::message m) override { queue.push_back(std::move(m)); }
  };

  /// One pool node with its job queue and parked driver. `queue` is
  /// guarded by `mutex` (submitters push without the pool mutex); every
  /// other member is touched only under pool_mutex_.
  struct worker {
    worker(process_id pid, int n, engine::transport& out, rng_stream rng,
           engine::metrics& metrics)
        : node(pid, n, out, rng, metrics) {}

    engine::node node;
    std::mutex mutex;
    std::deque<job*> queue;
    std::coroutine_handle<> parked;
    job* current = nullptr;
    /// Last instance this node invoked leader_elect on, per key (TAS is
    /// one invocation per processor per instance). Keyed by election key
    /// rather than instance id so the map is bounded by the keyspace, not
    /// by the ever-growing epoch count: once a key's epoch bumps, its old
    /// instance can never be handed out again, so only the latest matters.
    /// When it outgrows config.participated_prune_threshold the driver
    /// evicts entries whose instance no longer matches the registry
    /// (those can never be consulted again), so churn through many
    /// short-lived keys does not grow node memory forever.
    std::unordered_map<std::string, std::uint32_t> participated;
    /// Size at which the next prune pass fires. Starts at the config
    /// threshold and is re-armed after every pass to twice the surviving
    /// size, so a map full of *live* entries (which a pass cannot evict)
    /// is not re-scanned on every acquire — the scan cost stays
    /// amortized against actual growth.
    std::size_t participated_prune_at = 0;
  };

  /// Awaitable the driver parks on after every job; run_pool() admits
  /// the next queued job into a parked driver.
  struct next_job {
    worker& w;
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) noexcept {
      w.parked = handle;
    }
    job* await_resume() const {
      ELECT_CHECK(w.current != nullptr);
      return std::exchange(w.current, nullptr);
    }
  };

  engine::task<std::int64_t> driver(worker& w);
  /// Strategy deciding `key`'s epochs (per-key override or default).
  [[nodiscard]] election::strategy_kind strategy_for(
      const std::string& key) const;
  /// The protocol object behind `kind` (adaptive resolves to full).
  [[nodiscard]] election::strategy& protocol_for(
      election::strategy_kind kind) const;
  /// Queue `j` on pid's driver and run the pool until `j` is done.
  void submit(process_id pid, job& j);
  /// Run the pool to quiescence: admit queued jobs into parked drivers,
  /// deliver every queued message in FIFO order and step every node that
  /// can step, until no message or admissible job is left. Caller holds
  /// pool_mutex_.
  void run_pool();
  /// At a quiescent point, erase retired instances' variables from every
  /// node's store once they could make up a fair share of it.
  void forget_retired_instances();
  acquire_result run_acquire(int session_id, process_id pid,
                             const std::string& key);
  /// Record the metric (and journal a stale_fence) for a fenced
  /// release/renew outcome and pass the status through.
  lease_status count_lease_op(const std::string& key, lease_status status,
                              bool renewal, std::uint64_t epoch);
  /// Run the commit gate (when installed) over a freshly decided
  /// acquire: a won attempt whose grant never commits is revoked (a
  /// fenced reclaim of exactly that session and epoch) and reported as
  /// `connection_lost`, not a win.
  [[nodiscard]] acquire_result gate_acquire(acquire_result result,
                                            const std::string& key,
                                            int session_id);
  /// Same for single-key lease ops: an `ok` that never commits becomes
  /// `connection_lost`. An op that `ends_epoch` (release, reclaim,
  /// force-release) yields once first, so the grant a woken acquirer
  /// wins can join the same append.
  [[nodiscard]] lease_status gate_lease_op(const std::string& key,
                                           lease_status status,
                                           bool ends_epoch);
  void prune_participated(worker& w);
  void sweeper_main();
  /// Render one command the feed read into the watch hub and (when
  /// enabled) the journal — the downstream layers are views of the
  /// command stream, not parallel bookkeeping.
  void render_command(const cmd::command& c);
  /// Count feed readers in or out (a watch subscription, the journal):
  /// the feed's cursor is open exactly while there is one.
  void count_feed_readers(int delta);

  service_config config_;
  /// Views of the registry's committed command stream, filled by
  /// publish_committed(); the registry holds no reference to either, so
  /// no member order is load-bearing.
  watch_hub hub_;
  std::unique_ptr<obs::journal> journal_;
  instance_registry registry_;
  service_metrics metrics_;
  /// One shared protocol object per strategy kind (stateless; elect()
  /// runs inside pool runs).
  std::array<std::unique_ptr<election::strategy>,
             election::strategy_kind_count>
      strategies_;

  /// The election pool. pool_mutex_ guards fifo_ through retired_, the
  /// workers' nodes, drivers and participated maps, and every job's
  /// done/result.
  mutable std::mutex pool_mutex_;
  fifo_transport fifo_;
  engine::metrics pool_metrics_;
  std::vector<std::unique_ptr<worker>> workers_;
  /// Messages delivered, and the delivery trace (from, to, token, body
  /// kind) mixed into one hash.
  std::uint64_t deliveries_ = 0;
  std::uint64_t trace_hash_ = 0;
  /// Instances no job can contend again whose variables the pool's
  /// stores still hold (see forget_retired_instances).
  std::vector<std::uint32_t> retired_;

  std::mutex connect_mutex_;
  int next_session_ = 0;
  std::atomic<bool> stopped_{false};

  /// Replication commit gate (cluster mode); empty in single-node use,
  /// where every mutation is trivially durable the moment it applies.
  std::function<bool(const std::string&)> commit_gate_;

  /// The observer feed: a cursor on the registry's log, read through
  /// its commit index. `feed_mutex_` serializes reading and rendering,
  /// so each key's events come out in log order; `feed_open_` is the lock-free
  /// "anyone listening?" check publish_committed starts with.
  std::mutex feed_mutex_;
  std::uint64_t feed_ = 0;
  int feed_readers_ = 0;
  std::vector<cmd::command> feed_batch_;
  std::atomic<bool> feed_open_{false};

  std::thread sweeper_;
  std::mutex sweeper_mutex_;
  std::condition_variable sweeper_cv_;
  bool sweeper_stop_ = false;
};

}  // namespace elect::svc
