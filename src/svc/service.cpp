#include "svc/service.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"

namespace elect::svc {

namespace {

std::chrono::milliseconds sweep_interval(const service_config& config) {
  if (config.sweep_interval_ms != 0) {
    return std::chrono::milliseconds(config.sweep_interval_ms);
  }
  return std::chrono::milliseconds(std::max<std::uint64_t>(
      1, config.lease_ttl_ms / 4));
}

std::uint64_t to_trace_ns(std::chrono::steady_clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

/// Park on (key, epoch) and block until the epoch moves (true) or
/// `deadline` passes first (false).
bool park_until(instance_registry& registry, const std::string& key,
                std::uint64_t epoch,
                std::chrono::steady_clock::time_point deadline) {
  struct {
    std::mutex mutex;
    std::condition_variable cv;
    bool woken = false;
  } done;
  const std::uint64_t id = registry.park(key, epoch, [&done] {
    // Under the lock: once `woken` shows, the waiter may destroy `done`.
    const std::lock_guard<std::mutex> lock(done.mutex);
    done.woken = true;
    done.cv.notify_all();
  });
  if (id == 0) return true;  // moved already (or shut down): retry now
  const auto woken = [&done] { return done.woken; };
  std::unique_lock<std::mutex> lock(done.mutex);
  // No wait_until(max()): libstdc++ turns a steady deadline into a
  // relative wait, which overflows on max().
  if (deadline != std::chrono::steady_clock::time_point::max() &&
      !done.cv.wait_until(lock, deadline, woken)) {
    lock.unlock();
    if (registry.unpark(id)) return false;
    // Too late: the wake is on its way and must land before `done` dies.
    lock.lock();
  }
  done.cv.wait(lock, woken);
  return true;
}

}  // namespace

std::chrono::steady_clock::time_point deadline_after(
    std::chrono::milliseconds timeout) {
  using clock = std::chrono::steady_clock;
  const clock::time_point now = clock::now();
  // Compared in milliseconds: converting a huge timeout to the clock's
  // nanoseconds would itself overflow.
  const auto room = std::chrono::duration_cast<std::chrono::milliseconds>(
      clock::time_point::max() - now);
  if (timeout >= room) return clock::time_point::max();
  return now + std::max(timeout, std::chrono::milliseconds::zero());
}

std::optional<std::string> service_config::validate() const {
  if (nodes <= 0) {
    return "service_config.nodes must be >= 1 (got " +
           std::to_string(nodes) + ")";
  }
  if (shards <= 0) {
    return "service_config.shards must be >= 1 (got " +
           std::to_string(shards) + ")";
  }
  if (max_rounds <= 0) {
    return "service_config.max_rounds must be >= 1 (got " +
           std::to_string(max_rounds) + ")";
  }
  if (participated_prune_threshold == 0) {
    return "service_config.participated_prune_threshold must be >= 1";
  }
  if (session_id_base < 0) {
    return "service_config.session_id_base must be >= 0 (got " +
           std::to_string(session_id_base) + ")";
  }
  if (sweep_interval_ms != 0 && lease_ttl_ms == 0) {
    return "service_config.sweep_interval_ms=" +
           std::to_string(sweep_interval_ms) +
           " without lease_ttl_ms: there are no leases to sweep — set "
           "lease_ttl_ms or drop the sweep interval";
  }
  if (!journal_path.empty() && !journal_events) {
    return "service_config.journal_path=\"" + journal_path +
           "\" without journal_events: nothing would be written — enable "
           "journal_events or drop the path";
  }
  if (journal_events && journal_capacity == 0) {
    return "service_config.journal_capacity must be >= 1 when "
           "journal_events is set";
  }
  const auto known_kind = [](election::strategy_kind kind) {
    const auto value = static_cast<int>(kind);
    return value >= 0 && value < election::strategy_kind_count;
  };
  if (!known_kind(default_strategy)) {
    return "service_config.default_strategy is not a known strategy_kind "
           "(raw value " + std::to_string(static_cast<int>(default_strategy)) +
           ")";
  }
  for (const auto& [key, kind] : key_strategies) {
    if (key.empty()) {
      return "service_config.key_strategies contains an empty key";
    }
    if (!known_kind(kind)) {
      return "service_config.key_strategies[\"" + key +
             "\"] is not a known strategy_kind (raw value " +
             std::to_string(static_cast<int>(kind)) + ")";
    }
  }
  return std::nullopt;
}

service::service(service_config config)
    : config_(std::move(config)),
      registry_(config_.shards >= 1 ? config_.shards : 1),
      metrics_(config_.shards >= 1 ? config_.shards : 1),
      pool_metrics_(config_.nodes >= 1 ? config_.nodes : 1) {
  // Validate before anything observable starts; the clamped member
  // initializers above only keep the subobject constructors from
  // aborting with a less descriptive message first.
  const auto config_error = config_.validate();
  ELECT_CHECK_MSG(!config_error.has_value(), config_error.value_or(""));
  if (config_.slow_request_threshold_ms != 0) {
    obs::set_slow_threshold(
        std::chrono::milliseconds(config_.slow_request_threshold_ms));
  }
  if (config_.journal_events) {
    journal_ = std::make_unique<obs::journal>(config_.journal_capacity,
                                              config_.journal_path);
    // The journal renders every committed transition, so it reads the
    // feed for the service's whole life, watched or not.
    count_feed_readers(+1);
    hub_.set_drop_hook([this](const std::string& key) {
      journal_->append(obs::event_kind::watch_drop, key, 0, -1, "overflow");
    });
  }
  if (config_.record_commands) registry_.enable_command_log();
  next_session_ = config_.session_id_base;
  for (int k = 0; k < election::strategy_kind_count; ++k) {
    strategies_[static_cast<std::size_t>(k)] =
        election::make_strategy(static_cast<election::strategy_kind>(k));
  }
  workers_.reserve(static_cast<std::size_t>(config_.nodes));
  for (process_id pid = 0; pid < config_.nodes; ++pid) {
    workers_.push_back(std::make_unique<worker>(
        pid, config_.nodes, fifo_,
        rng_stream(config_.seed, {0x6c7aULL, static_cast<std::uint64_t>(pid)}),
        pool_metrics_));
    worker& w = *workers_.back();
    w.node.attach_protocol(driver(w));
    w.node.computation_step();  // the driver parks on its empty queue
  }
  if (config_.lease_ttl_ms != 0) {
    sweeper_ = std::thread([this] { sweeper_main(); });
  }
}

service::~service() { stop(); }

service::session service::connect() {
  auto opened = try_connect();
  ELECT_CHECK_MSG(opened.has_value(), "connect() after stop()");
  return *opened;
}

std::optional<service::session> service::try_connect() {
  const std::lock_guard<std::mutex> lock(connect_mutex_);
  if (stopped_.load()) return std::nullopt;
  const int id = next_session_++;
  return session(*this, id, static_cast<process_id>(id % config_.nodes));
}

void service::stop() {
  if (stopped_.exchange(true)) return;
  if (sweeper_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(sweeper_mutex_);
      sweeper_stop_ = true;
    }
    sweeper_cv_.notify_all();
    sweeper_.join();
  }
  // Wake parked acquirers: they retry the acquire and get a rejected
  // result instead of sleeping on an epoch bump that will never come.
  // Acquires already queued finish on their own threads.
  registry_.shutdown();
  hub_.stop();
  // After the hub: nothing publishes transitions anymore, so the journal
  // can drain its sink and join the flusher.
  if (journal_) journal_->stop();
}

std::uint64_t service::watch(const std::string& key, watch_hub::callback fn) {
  // Render what already committed first: a new watch sees transitions
  // that commit after it subscribed, not the feed's backlog (on a newly
  // promoted primary, the suffix it inherited).
  publish_committed();
  const std::uint64_t id = hub_.add(key, std::move(fn));
  if (id != 0) count_feed_readers(+1);
  return id;
}

void service::unwatch(std::uint64_t id) {
  if (hub_.remove(id)) count_feed_readers(-1);
}

// ---------------------------------------------------------------------
// The observer feed: one cursor on the registry's log, read through the
// commit index, rendered into watch events and journal records.

void service::count_feed_readers(int delta) {
  const std::lock_guard<std::mutex> lock(feed_mutex_);
  feed_readers_ += delta;
  if (feed_readers_ != 0 && feed_ == 0) feed_ = registry_.log().open_cursor();
  if (feed_readers_ == 0 && feed_ != 0) {
    registry_.log().close_cursor(std::exchange(feed_, 0));
  }
  feed_open_.store(feed_ != 0, std::memory_order_relaxed);
}

void service::publish_committed() {
  if (!feed_open_.load(std::memory_order_relaxed)) return;
  const std::lock_guard<std::mutex> lock(feed_mutex_);
  if (feed_ == 0) return;
  registry_.log().read_cursor(feed_, feed_batch_);
  for (const cmd::command& c : feed_batch_) render_command(c);
  feed_batch_.clear();
}

// ---------------------------------------------------------------------
// Lease sweeper: force-release expired holders on a fixed interval.

std::size_t service::sweep_now() {
  const std::size_t expired = registry_.sweep_expired(
      std::chrono::steady_clock::now(),
      [this](int shard) { metrics_.record_expiration(shard); });
  if (expired != 0) publish_committed();
  return expired;
}

lease_status service::force_release(const std::string& key) {
  const lease_status status = registry_.force_release(key);
  if (status == lease_status::ok) {
    metrics_.record_forced_release(registry_.shard_of(key));
  }
  return gate_lease_op(key, status, /*ends_epoch=*/true);
}

void service::render_command(const cmd::command& c) {
  // One source of truth: watch events and journal records are both
  // renderings of the committed command stream, never parallel
  // bookkeeping.
  switch (c.kind) {
    case cmd::command_kind::acquire_granted:
      hub_.publish(c.key, c.epoch, transition::elected, c.session);
      if (journal_) {
        journal_->append(obs::event_kind::elected, c.key, c.epoch, c.session,
                         "");
      }
      break;
    case cmd::command_kind::released:
      hub_.publish(c.key, c.epoch, transition::released, c.session);
      if (journal_) {
        journal_->append(obs::event_kind::released, c.key, c.epoch,
                         c.session, "");
      }
      break;
    case cmd::command_kind::expired:
      hub_.publish(c.key, c.epoch, transition::expired, c.session);
      if (journal_) {
        journal_->append(obs::event_kind::expired, c.key, c.epoch, c.session,
                         "");
      }
      break;
    case cmd::command_kind::force_released:
      hub_.publish(c.key, c.epoch, transition::force_released, c.session);
      if (journal_) {
        journal_->append(obs::event_kind::force_released, c.key, c.epoch,
                         c.session, "admin");
      }
      break;
    case cmd::command_kind::disconnect_reclaimed:
      // Watchers see a release — the lease ended; *why* it ended is
      // journal detail, where the crash/politeness distinction lives.
      hub_.publish(c.key, c.epoch, transition::released, c.session);
      if (journal_) {
        journal_->append(obs::event_kind::disconnect_reclaim, c.key, c.epoch,
                         c.session, "connection closed");
      }
      break;
    case cmd::command_kind::epoch_bumped:
      // Restore-time fencing: no holder changed hands, so watchers see
      // nothing; the journal records the fence.
      if (journal_) {
        journal_->append(obs::event_kind::epoch_bumped, c.key, c.epoch, -1,
                         "restore");
      }
      break;
    case cmd::command_kind::renewed:
      // A renewal moves no leadership: nothing to render.
      break;
  }
}

void service::sweeper_main() {
  const auto interval = sweep_interval(config_);
  std::unique_lock<std::mutex> lock(sweeper_mutex_);
  while (!sweeper_stop_) {
    sweeper_cv_.wait_for(lock, interval, [this] { return sweeper_stop_; });
    if (sweeper_stop_) return;
    // On a cluster follower the replica registry expires nothing:
    // expiry is the primary's decision, replicated as a command.
    lock.unlock();
    sweep_now();
    lock.lock();
  }
}

// ---------------------------------------------------------------------
// Commit gating: in cluster mode no mutation is acked before a quorum
// has it. The gate itself lives in the repl layer; the service only
// converts a failed wait into the sever verdict, then renders whatever
// committed.

acquire_result service::gate_acquire(acquire_result result,
                                     const std::string& key, int session_id) {
  if (!result.won) {
    // A replica grants nothing: its losers hear what a failed gate
    // says, so they go find the primary instead of waiting here.
    if (registry_.replica()) {
      result.rejected = true;
      result.connection_lost = true;
    }
    return result;
  }
  if (commit_gate_ && !commit_gate_(key)) {
    // The grant applied locally but never reached a quorum: this
    // primary may not confirm it, so nobody believes they hold it.
    // Revoke exactly this (session, epoch) instead of leaving it live
    // until TTL, disconnect or failover; ungated, it replicates like
    // any command — and observers see neither until both commit.
    (void)registry_.reclaim(key, session_id, result.epoch);
    result.won = false;
    result.fast_path = false;
    result.rejected = true;
    result.connection_lost = true;
  }
  publish_committed();
  return result;
}

lease_status service::gate_lease_op(const std::string& key,
                                    lease_status status, bool ends_epoch) {
  if (status != lease_status::ok) return status;
  if (commit_gate_ && ends_epoch) {
    // Ending the epoch woke any acquirers parked on the key. Give way
    // once before the gate ships the log (group commit at no delay):
    // where the woken retry shares this CPU, it appends its grant first
    // and one append round commits both. Left to the scheduler, the
    // release often ships alone and the grant waits a second round.
    // With nothing else runnable here the yield returns at once.
    std::this_thread::yield();
  }
  const bool committed = !commit_gate_ || commit_gate_(key);
  publish_committed();
  return committed ? status : lease_status::connection_lost;
}

// ---------------------------------------------------------------------
// The pool: a client thread queues its job, then runs every node on the
// FIFO transport until nothing is left — its own job and any others
// queued meanwhile (flat combining).

void service::submit(process_id pid, job& j) {
  worker& w = *workers_[static_cast<std::size_t>(pid)];
  {
    const std::lock_guard<std::mutex> lock(w.mutex);
    w.queue.push_back(&j);
  }
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  // A run that held the mutex while we queued may have served us already.
  if (!j.done) run_pool();
  ELECT_CHECK(j.done);
}

void service::run_pool() {
  for (;;) {
    bool admitted = false;
    for (const auto& w : workers_) {
      if (!w->parked) continue;
      {
        const std::lock_guard<std::mutex> lock(w->mutex);
        if (w->queue.empty()) continue;
        w->current = w->queue.front();
        w->queue.pop_front();
      }
      admitted = true;
      std::exchange(w->parked, nullptr).resume();
    }
    if (!admitted && fifo_.queue.empty()) break;
    // A wave: everything sent so far arrives, then every addressee takes
    // one computation step (serving requests, absorbing replies, resuming
    // a protocol whose quorum completed). Replies join the next wave.
    while (!fifo_.queue.empty()) {
      engine::message m = std::move(fifo_.queue.front());
      fifo_.queue.pop_front();
      std::uint64_t mix = trace_hash_ ^ m.token ^
                          (static_cast<std::uint64_t>(m.from) << 48) ^
                          (static_cast<std::uint64_t>(m.to) << 32) ^
                          (static_cast<std::uint64_t>(m.body.index()) << 24);
      trace_hash_ = splitmix64_next(mix);
      ++deliveries_;
      workers_[static_cast<std::size_t>(m.to)]->node.deliver(std::move(m));
    }
    for (const auto& w : workers_) {
      if (w->node.can_step()) w->node.computation_step();
    }
  }
  forget_retired_instances();
}

void service::forget_retired_instances() {
  // Quiescent: no message is in flight and every admitted job is done,
  // so no protocol step can re-create a retired instance's variables.
  // Erasing costs a scan of each store; waiting until the retired
  // instances could hold an eighth of it keeps that scan paid for by
  // what it erases, with one key or with thousands.
  const engine::store& sample = workers_.front()->node.local_store();
  if (retired_.empty() || retired_.size() * 8 < sample.variable_count()) {
    return;
  }
  std::sort(retired_.begin(), retired_.end());
  const auto retired = [this](const engine::var_id& id) {
    return std::binary_search(retired_.begin(), retired_.end(), id.instance);
  };
  for (const auto& w : workers_) w->node.local_store().erase_if(retired);
  retired_.clear();
}

// ---------------------------------------------------------------------
// The driver: one long-lived protocol coroutine per pool node.

void service::prune_participated(worker& w) {
  if (w.participated_prune_at == 0) {
    w.participated_prune_at = config_.participated_prune_threshold;
  }
  if (w.participated.size() < w.participated_prune_at) return;
  for (auto it = w.participated.begin(); it != w.participated.end();) {
    // An entry is only consulted while its instance is the key's current
    // one; after any epoch bump (release, expiry, disconnect) the stored
    // instance can never be handed out again, so the entry is dead
    // weight. Entries still matching the current instance must stay —
    // dropping one would let a second invocation of a live instance
    // through.
    const auto current = registry_.peek(it->first);
    if (!current.has_value() || current->instance.value != it->second) {
      retired_.push_back(it->second);
      it = w.participated.erase(it);
    } else {
      ++it;
    }
  }
  // Re-arm relative to what survived: entries a pass cannot evict are
  // live instances, and re-scanning them on every acquire would make the
  // pass O(live keys) per operation. Doubling keeps total prune work
  // linear in the number of insertions.
  w.participated_prune_at = std::max(config_.participated_prune_threshold,
                                     2 * w.participated.size());
}

election::strategy_kind service::strategy_for(const std::string& key) const {
  const auto it = config_.key_strategies.find(key);
  return it != config_.key_strategies.end() ? it->second
                                            : config_.default_strategy;
}

election::strategy& service::protocol_for(
    election::strategy_kind kind) const {
  return *strategies_[static_cast<std::size_t>(kind)];
}

engine::task<std::int64_t> service::driver(worker& w) {
  for (;;) {
    job* j = co_await next_job{w};
    const instance_entry entry = j->entry;
    acquire_result result;
    result.epoch = entry.epoch;
    result.instance = entry.instance;
    // Spans are recorded against the job's trace id explicitly (not via
    // a thread-local scope): a pool run executes every queued job, on
    // whichever client thread happens to hold the pool mutex.
    if (j->trace != 0) {
      obs::record_for(j->trace, obs::phase::queue_wait,
                      to_trace_ns(j->submitted), obs::now_ns());
    }

    // Gate the distributed path on the registry's grant mode: if the
    // epoch was already granted (fast-claimed while this job queued, or
    // decided by an earlier protocol winner) or moved on entirely, this
    // attempt loses without touching the network. Arming also pins the
    // adaptive fast path off this epoch, so the two grant paths stay
    // mutually exclusive.
    if (!registry_.arm_protocol(j->key, entry.epoch)) {
      metrics_.record_short_circuit_loss();
    } else {
      // TAS is one invocation per processor per instance: if this node
      // already contended in (key, epoch) — a second session bound to the
      // same node — the instance is decided or being decided by the
      // earlier invocation, so this one loses without touching the
      // network.
      const auto [it, fresh_key] =
          w.participated.try_emplace(j->key, entry.instance.value);
      if (fresh_key || it->second != entry.instance.value) {
        // The node's previous instance of this key is decided and over.
        if (!fresh_key) retired_.push_back(it->second);
        it->second = entry.instance.value;
        election::strategy_context ctx;
        ctx.instance = entry.instance;
        ctx.max_rounds = config_.max_rounds;
        // The claim arbiter behind sifter_pill / doorway_only survivors
        // (and the full protocol's winner report): an epoch-fenced CAS
        // in the registry. Runs inside the pool run, synchronously.
        bool replica_refused = false;
        ctx.claim = [this, j, &result, &replica_refused] {
          const std::uint64_t t0 = j->trace != 0 ? obs::now_ns() : 0;
          const auto deadline = registry_.claim_win(
              j->key, result.epoch, j->session_id, lease_ttl());
          if (j->trace != 0) {
            obs::record_for(j->trace, obs::phase::lease_grant, t0,
                            obs::now_ns());
          }
          if (!deadline.has_value()) {
            // A replica registry grants nothing. That is no second
            // winner, so the protocol hears the claim held; the attempt
            // still loses below.
            replica_refused = registry_.replica();
            return replica_refused;
          }
          result.lease_deadline = *deadline;
          return true;
        };
        const std::uint64_t elect_start =
            j->trace != 0 ? obs::now_ns() : 0;
        const election::tas_result outcome =
            co_await protocol_for(j->kind).elect(w.node, std::move(ctx));
        if (j->trace != 0) {
          obs::record_for(j->trace, obs::phase::election, elect_start,
                          obs::now_ns());
        }
        result.won =
            outcome == election::tas_result::win && !replica_refused;
      }
    }
    prune_participated(w);
    result.latency_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - j->submitted)
            .count());
    metrics_.record_acquire(registry_.shard_of(j->key), j->kind, result.won,
                            result.latency_ns);

    j->result = result;
    j->done = true;
  }
}

acquire_result service::run_acquire(int session_id, process_id pid,
                                    const std::string& key) {
  // Shared early-out for the two ways stop() turns an acquire away.
  const auto reject = [this] {
    metrics_.record_rejected_acquire();
    acquire_result rejected;
    rejected.rejected = true;
    return rejected;
  };

  job j;
  j.key = key;
  j.session_id = session_id;
  j.kind = strategy_for(key);
  j.trace = obs::current();
  j.submitted = std::chrono::steady_clock::now();
  // Turn the acquire away before it registers an attempt. One racing
  // stop() past this point still runs its election.
  if (stopped_.load(std::memory_order_relaxed)) return reject();
  // Register the attempt (this is the contention estimate's input) and
  // pin the (instance, epoch) the attempt contends. For `adaptive` the
  // registration is fused with the fast path, on the *client* thread:
  // when no contention is observed — this attempt is the epoch's first
  // and the previous epoch saw at most one acquirer — the epoch is
  // taken with a fenced CAS under the same shard lock and the node pool
  // is skipped entirely. On conflict the epoch is simply lost (epoch
  // fencing makes a double grant impossible); only an armed protocol
  // sends us down the distributed path ourselves.
  if (j.kind == election::strategy_kind::adaptive) {
    const std::uint64_t fast_start = j.trace != 0 ? obs::now_ns() : 0;
    const adaptive_attempt attempt =
        registry_.begin_adaptive_attempt(key, session_id, lease_ttl());
    if (j.trace != 0) {
      obs::record_for(j.trace, obs::phase::fast_path, fast_start,
                      obs::now_ns());
    }
    j.entry = attempt.attempt.entry;
    if (attempt.fast_attempted) {
      const fast_claim_result& fast = attempt.fast;
      if (fast.outcome == fast_claim_outcome::shutdown) return reject();
      if (fast.outcome == fast_claim_outcome::replica) {
        return gate_acquire(acquire_result{}, key, session_id);
      }
      if (fast.outcome != fast_claim_outcome::armed) {
        acquire_result result;
        result.epoch = j.entry.epoch;
        result.instance = j.entry.instance;
        result.won = fast.outcome == fast_claim_outcome::claimed;
        result.fast_path = result.won;
        result.lease_deadline = fast.deadline;
        result.latency_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - j.submitted)
                .count());
        if (result.won) {
          metrics_.record_fast_path_hit();
        } else {
          metrics_.record_fast_path_conflict();
        }
        metrics_.record_acquire(registry_.shard_of(key), j.kind, result.won,
                                result.latency_ns);
        return gate_acquire(std::move(result), key, session_id);
      }
      metrics_.record_fast_path_fallback();
    }
  } else {
    j.entry = registry_.begin_attempt(key).entry;
  }

  submit(pid, j);
  return gate_acquire(std::move(j.result), key, session_id);
}

// ---------------------------------------------------------------------
// Session API.

acquire_result service::session::try_acquire(const std::string& key) {
  return owner_->run_acquire(id_, pid_, key);
}

acquire_result service::session::acquire(const std::string& key) {
  return try_acquire_for(key, std::chrono::milliseconds::max());
}

acquire_result service::session::try_acquire_for(
    const std::string& key, std::chrono::milliseconds timeout) {
  const auto deadline = deadline_after(timeout);
  for (;;) {
    acquire_result result = try_acquire(key);
    if (result.won || result.rejected) return result;
    // Bound only the sleep: an attempt in flight when the deadline hits
    // still runs to completion above. A shutdown wakes the park too (or
    // refuses it) — the retry then comes back rejected, so a stopped
    // service never strands a waiter.
    const obs::scoped_span span(obs::phase::epoch_wait);
    if (!park_until(owner_->registry_, key, result.epoch, deadline)) {
      result.timed_out = true;
      return result;
    }
  }
}

lease_status service::count_lease_op(const std::string& key,
                                     lease_status status, bool renewal,
                                     std::uint64_t epoch) {
  const int shard = registry_.shard_of(key);
  if (status == lease_status::connection_lost) return status;  // replica
  if (status != lease_status::ok) {
    metrics_.record_stale_fence(shard);
    if (journal_) {
      journal_->append(obs::event_kind::stale_fence, key, epoch, -1,
                       renewal ? "renew" : "release");
    }
  } else if (renewal) {
    metrics_.record_renewal(shard);
  } else {
    metrics_.record_release(shard);
  }
  return status;
}

lease_status service::session::release(const std::string& key) {
  const obs::scoped_span span(obs::phase::lease_op);
  return owner_->gate_lease_op(
      key,
      owner_->count_lease_op(key, owner_->registry_.release(key, id_),
                             /*renewal=*/false, 0),
      /*ends_epoch=*/true);
}

lease_status service::session::release(const std::string& key,
                                       std::uint64_t epoch) {
  const obs::scoped_span span(obs::phase::lease_op);
  return owner_->gate_lease_op(
      key,
      owner_->count_lease_op(key, owner_->registry_.release(key, id_, epoch),
                             /*renewal=*/false, epoch),
      /*ends_epoch=*/true);
}

lease_status service::session::renew(const std::string& key,
                                     std::uint64_t epoch) {
  const obs::scoped_span span(obs::phase::lease_op);
  return owner_->gate_lease_op(
      key, owner_->count_lease_op(
               key,
               owner_->registry_.renew(key, id_, epoch, owner_->lease_ttl()),
               /*renewal=*/true, epoch),
      /*ends_epoch=*/false);
}

std::size_t service::session::disconnect() {
  const std::size_t released = owner_->registry_.release_all(
      id_, [this](int shard) { owner_->metrics_.record_release(shard); });
  owner_->publish_committed();
  return released;
}

lease_status service::session::reclaim(const std::string& key,
                                       std::uint64_t epoch) {
  const obs::scoped_span span(obs::phase::lease_op);
  return owner_->gate_lease_op(
      key,
      owner_->count_lease_op(key, owner_->registry_.reclaim(key, id_, epoch),
                             /*renewal=*/false, epoch),
      /*ends_epoch=*/true);
}

std::size_t service::session::reclaim_all() {
  const std::size_t reclaimed = owner_->registry_.reclaim_all(
      id_, [this](int shard) { owner_->metrics_.record_release(shard); });
  owner_->publish_committed();
  return reclaimed;
}

std::vector<std::string> service::session::held_keys() const {
  return owner_->registry_.keys_held_by(id_);
}

// ---------------------------------------------------------------------
// Reporting.

service_report service::report() const {
  service_report report = metrics_.snapshot();
  for (int s = 0; s < registry_.shard_count(); ++s) {
    report.shards[static_cast<std::size_t>(s)].keys =
        registry_.keys_in_shard(s);
  }
  {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    for (const auto& w : workers_) {
      report.participated_entries += w->participated.size();
      report.pool_variables += w->node.local_store().variable_count();
    }
    // Every message sent is delivered before a run ends, so outside a
    // run the two counts agree.
    report.total_messages = deliveries_;
    report.mailbox_pushes = deliveries_;
    report.pool_trace_hash = trace_hash_;
    report.mean_communicate_calls = pool_metrics_.mean_communicate_calls();
    report.max_communicate_calls = pool_metrics_.max_communicate_calls();
  }
  report.messages_per_acquire =
      report.acquires == 0
          ? 0.0
          : static_cast<double>(report.total_messages) /
                static_cast<double>(report.acquires);
  report.watch = hub_.report();
  if (journal_) report.journal = journal_->report();
  return report;
}

}  // namespace elect::svc
