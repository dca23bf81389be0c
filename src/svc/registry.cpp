#include "svc/registry.hpp"

#include <algorithm>
#include <functional>
#include <tuple>

#include "cmd/snapshot.hpp"
#include "common/check.hpp"

namespace elect::svc {

namespace {

/// A grant's TTL on the command stream's logical clock: zero means
/// "never expires" (cmd::lease_forever); sub-millisecond TTLs round up
/// so they cannot collapse to an already-expired lease.
std::uint64_t lease_ms_for(instance_registry::clock::duration ttl) {
  if (ttl == instance_registry::clock::duration::zero()) {
    return cmd::lease_forever;
  }
  const auto ms = std::chrono::ceil<std::chrono::milliseconds>(ttl).count();
  return ms <= 0 ? 1 : static_cast<std::uint64_t>(ms);
}

}  // namespace

std::string_view to_string(transition t) {
  switch (t) {
    case transition::elected: return "elected";
    case transition::released: return "released";
    case transition::expired: return "expired";
    case transition::force_released: return "force_released";
  }
  return "unknown";
}

void instance_registry::enable_command_log() {
  if (history_.load() == 0) history_.store(log_.open_cursor());
}

instance_registry::instance_registry(int shard_count,
                                     std::uint64_t first_instance)
    : next_instance_(first_instance),
      origin_(clock::now().time_since_epoch().count()) {
  ELECT_CHECK(shard_count >= 1);
  ELECT_CHECK_MSG(first_instance < instance_id_limit,
                  "first_instance starts past the election-id guard");
  shards_.reserve(static_cast<std::size_t>(shard_count));
  for (int i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<shard>());
    shards_.back()->index = i;
  }
}

int instance_registry::shard_of(const std::string& key) const {
  return static_cast<int>(std::hash<std::string>{}(key) % shards_.size());
}

instance_registry::shard& instance_registry::shard_for(
    const std::string& key) {
  return *shards_[static_cast<std::size_t>(shard_of(key))];
}

instance_registry::clock::time_point instance_registry::origin() const {
  return clock::time_point(
      clock::duration(origin_.load(std::memory_order_relaxed)));
}

std::uint64_t instance_registry::logical_now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(clock::now() -
                                                            origin())
          .count());
}

void instance_registry::move_clock_to(std::uint64_t at_ms) {
  const auto origin = clock::now() - std::chrono::milliseconds(at_ms);
  origin_.store(origin.time_since_epoch().count(), std::memory_order_relaxed);
}

instance_registry::clock::time_point instance_registry::steady_deadline(
    std::uint64_t logical_deadline_ms) const {
  if (logical_deadline_ms == cmd::lease_forever) {
    return clock::time_point::max();
  }
  return origin() + std::chrono::milliseconds(logical_deadline_ms);
}

election::election_id instance_registry::allocate_instance() {
  const std::uint64_t id = next_instance_.fetch_add(1);
  // Fail fast with headroom: aborting here, 64K ids short of the uint32
  // var_id namespace, is a clean "restart the service" signal; wrapping
  // would silently alias long-decided instances' replicated variables.
  ELECT_CHECK_MSG(id < instance_id_limit,
                  "election-id space exhausted (~4e9 instances served) — "
                  "var_id.instance would alias; restart the service");
  return election::election_id{static_cast<std::uint32_t>(id)};
}

std::uint64_t instance_registry::remaining_instance_ids() const noexcept {
  const std::uint64_t next = next_instance_.load(std::memory_order_relaxed);
  return next >= instance_id_limit ? 0 : instance_id_limit - next;
}

instance_registry::key_state& instance_registry::state_locked(
    shard& s, const std::string& key) {
  auto [it, inserted] = s.keys.try_emplace(key);
  if (inserted) {
    it->second.entry.instance = allocate_instance();
    it->second.entry.epoch = 0;
  }
  return it->second;
}

void instance_registry::bump_epoch_locked(key_state& state) {
  state.leader = -1;
  state.logical_deadline_ms = cmd::lease_forever;
  state.entry.epoch++;
  state.entry.instance = allocate_instance();
  state.mode = grant_mode::open;
  state.last_epoch_attempts = state.attempts_this_epoch;
  state.attempts_this_epoch = 0;
}

void instance_registry::set_lease_locked(key_state& state,
                                         const cmd::command& c) {
  // The >= guard keeps a pathological near-forever TTL from wrapping the
  // logical deadline back into the past.
  state.logical_deadline_ms =
      c.lease_ms == cmd::lease_forever ||
              c.lease_ms >= cmd::lease_forever - c.at_ms
          ? cmd::lease_forever
          : c.at_ms + c.lease_ms;
}

void instance_registry::execute_locked(shard& s, key_state& state,
                                       const cmd::command& c) {
  // The executor half of the funnel: everything below is a pure function
  // of (state, command) — no clock reads, no id ordering — which is what
  // replay determinism rests on. Decisions were made by the caller.
  switch (c.kind) {
    case cmd::command_kind::acquire_granted:
      state.leader = c.session;
      state.mode = c.mode == cmd::grant_mode_fast_claimed
                       ? grant_mode::fast_claimed
                       : grant_mode::protocol_armed;
      set_lease_locked(state, c);
      break;
    case cmd::command_kind::renewed:
      set_lease_locked(state, c);
      break;
    case cmd::command_kind::released:
    case cmd::command_kind::expired:
    case cmd::command_kind::force_released:
    case cmd::command_kind::disconnect_reclaimed:
      bump_epoch_locked(state);
      break;
    case cmd::command_kind::epoch_bumped:
      // A bump ends every epoch <= c.epoch, not just the current one:
      // restore-time fencing records c.epoch = restored + (bump - 1) so
      // the key lands at c.epoch + 1, clear of anything a crash gap
      // could have granted. The ordinary emit sites use c.epoch ==
      // current, which makes this the same +1 it always was.
      state.entry.epoch = c.epoch;
      bump_epoch_locked(state);
      break;
  }
  s.last_at_ms = c.at_ms;
}

void instance_registry::emit_locked(shard& s, key_state& state,
                                    const std::string& key, cmd::command c) {
  execute_locked(s, state, c);
  // Nobody reading: no seq, no key copy, no log entry — the adaptive
  // fast path keeps its zero-allocation cost.
  if (!log_.recording()) return;
  c.shard = s.index;
  c.key = key;
  log_.append_live(std::move(c), s.last_seq);
}

std::vector<std::unique_lock<std::mutex>> instance_registry::lock_all() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard_ptr : shards_) locks.emplace_back(shard_ptr->mutex);
  return locks;
}

instance_entry instance_registry::current(const std::string& key) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  return state_locked(s, key).entry;
}

attempt_info instance_registry::begin_attempt(const std::string& key) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  key_state& state = state_locked(s, key);
  state.attempts_this_epoch++;
  return attempt_info{state.entry, state.attempts_this_epoch,
                      state.last_epoch_attempts};
}

std::optional<instance_entry> instance_registry::peek(const std::string& key) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.keys.find(key);
  if (it == s.keys.end()) return std::nullopt;
  return it->second.entry;
}

adaptive_attempt instance_registry::begin_adaptive_attempt(
    const std::string& key, int session, clock::duration ttl) {
  shard& s = shard_for(key);
  adaptive_attempt result;
  const std::lock_guard<std::mutex> lock(s.mutex);
  key_state& state = state_locked(s, key);
  state.attempts_this_epoch++;

  result.attempt = attempt_info{state.entry, state.attempts_this_epoch,
                                state.last_epoch_attempts};
  // Contention observed (a rival already attempted this epoch, or the
  // previous epoch was contended): no CAS, the caller runs the protocol.
  if (state.attempts_this_epoch != 1 || state.last_epoch_attempts > 1) {
    return result;
  }
  result.fast_attempted = true;
  // The protocol path's stop() gate lives in service::submit(); the fast
  // path never submits, so it must refuse here. shutdown() stores the
  // flag before briefly taking every shard mutex, so once it has
  // returned, any later fast claim (which holds this shard's mutex)
  // observes the flag — a completed stop() can never be followed by a
  // fast-path grant.
  if (shutdown_.load(std::memory_order_relaxed)) {
    result.fast = {fast_claim_outcome::shutdown, {}};
    return result;
  }
  if (replica_.load(std::memory_order_relaxed)) {
    result.fast = {fast_claim_outcome::replica, {}};
    return result;
  }
  if (state.mode == grant_mode::protocol_armed) {
    // An election is (or was) running for this epoch: the fast path must
    // stay off it — the protocol's winner owns the grant.
    result.fast = {fast_claim_outcome::armed, {}};
    return result;
  }
  if (state.leader != -1) {
    result.fast = {fast_claim_outcome::held, {}};
    return result;
  }
  // Decision made — the CAS wins. Emit the grant as a command and let
  // the funnel execute it.
  emit_locked(s, state, key,
              {.kind = cmd::command_kind::acquire_granted, .session = session,
               .epoch = state.entry.epoch, .mode = cmd::grant_mode_fast_claimed,
               .at_ms = logical_now_ms(), .lease_ms = lease_ms_for(ttl)});
  result.fast = {fast_claim_outcome::claimed,
                 steady_deadline(state.logical_deadline_ms)};
  return result;
}

bool instance_registry::arm_protocol(const std::string& key,
                                     std::uint64_t epoch) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.keys.find(key);
  if (it == s.keys.end() || it->second.entry.epoch != epoch) return false;
  key_state& state = it->second;
  // A granted epoch — fast-claimed, or already decided by a protocol
  // winner — turns arriving acquirers away: they lose without running
  // the protocol (the short-circuit the metrics count). Concurrent
  // participants of a still-undecided election all arm the same epoch
  // (idempotent) and contend in one instance.
  //
  // Arming is an observation latch, not a command: it grants nothing.
  // If nobody ever claims the armed epoch, replay (which sees no
  // command) leaves the key open — snapshots normalize an unheld key's
  // mode to open for exactly this reason.
  if (state.leader != -1) return false;
  state.mode = grant_mode::protocol_armed;
  return true;
}

std::optional<instance_registry::clock::time_point>
instance_registry::claim_win(const std::string& key, std::uint64_t epoch,
                             int session, clock::duration ttl) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.keys.find(key);
  if (it == s.keys.end() || it->second.entry.epoch != epoch) {
    return std::nullopt;
  }
  key_state& state = it->second;
  ELECT_CHECK_MSG(state.mode != grant_mode::fast_claimed,
                  "protocol claim on a fast-claimed epoch — the fencing "
                  "that keeps the two grant paths apart is broken");
  if (state.leader != -1 || replica_.load(std::memory_order_relaxed)) {
    return std::nullopt;
  }
  emit_locked(s, state, key,
              {.kind = cmd::command_kind::acquire_granted, .session = session,
               .epoch = epoch, .mode = cmd::grant_mode_protocol,
               .at_ms = logical_now_ms(), .lease_ms = lease_ms_for(ttl)});
  return steady_deadline(state.logical_deadline_ms);
}

int instance_registry::leader_of(const std::string& key) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  return state_locked(s, key).leader;
}

std::optional<instance_registry::clock::time_point>
instance_registry::lease_deadline_of(const std::string& key) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.keys.find(key);
  if (it == s.keys.end() || it->second.leader == -1) return std::nullopt;
  return steady_deadline(it->second.logical_deadline_ms);
}

void instance_registry::fence_after_end_locked(shard& s, key_state& state,
                                               const std::string& key,
                                               std::uint64_t at_ms) {
  if (state.pending_fence == 0) return;
  // The ended epoch's bump just ran: the key sits at E+1 unheld. The
  // deposed primary's uncommitted tail could have journaled grants a
  // few epochs past E; jumping to E+pending_fence+1 clears them the
  // same way restore-time fencing clears a crash gap.
  const std::uint64_t through = state.entry.epoch + (state.pending_fence - 1);
  state.pending_fence = 0;
  emit_locked(s, state, key,
              {.kind = cmd::command_kind::epoch_bumped, .session = -1,
               .epoch = through, .at_ms = at_ms});
}

template <typename Refuse>
lease_status instance_registry::end_epoch(const std::string& key,
                                          cmd::command_kind kind,
                                          Refuse refuse) {
  shard& s = shard_for(key);
  wake_list wakes;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (replica_.load(std::memory_order_relaxed)) {
      return lease_status::connection_lost;
    }
    const auto it = s.keys.find(key);
    const lease_status verdict =
        refuse(it == s.keys.end() ? nullptr : &it->second);
    if (verdict != lease_status::ok) return verdict;
    key_state& state = it->second;
    const std::uint64_t at = logical_now_ms();
    emit_locked(s, state, key,
                {.kind = kind, .session = state.leader,
                 .epoch = state.entry.epoch, .at_ms = at});
    fence_after_end_locked(s, state, key, at);
    take_waiters_locked(s, key, wakes);
  }
  for (auto& wake : wakes) wake();
  return lease_status::ok;
}

lease_status instance_registry::end_epoch_fenced(const std::string& key,
                                                 int session,
                                                 std::uint64_t epoch,
                                                 cmd::command_kind kind) {
  return end_epoch(key, kind, [&](const key_state* state) {
    // A never-acquired key sits at epoch 0 implicitly: presenting
    // epoch 0 is *current* but holds nothing (not_leader), anything
    // higher is genuinely stale. Keeps the fenced verdicts meaning
    // one thing on every path: stale_epoch <=> the epoch moved on.
    if (state == nullptr) {
      return epoch == 0 ? lease_status::not_leader : lease_status::stale_epoch;
    }
    if (state->entry.epoch != epoch) return lease_status::stale_epoch;
    if (state->leader != session) return lease_status::not_leader;
    return lease_status::ok;
  });
}

lease_status instance_registry::release(const std::string& key, int session,
                                        std::uint64_t epoch) {
  return end_epoch_fenced(key, session, epoch, cmd::command_kind::released);
}

lease_status instance_registry::reclaim(const std::string& key, int session,
                                        std::uint64_t epoch) {
  return end_epoch_fenced(key, session, epoch,
                          cmd::command_kind::disconnect_reclaimed);
}

lease_status instance_registry::release(const std::string& key, int session) {
  return end_epoch(key, cmd::command_kind::released,
                   [session](const key_state* state) {
                     return state != nullptr && state->leader == session
                                ? lease_status::ok
                                : lease_status::not_leader;
                   });
}

lease_status instance_registry::renew(const std::string& key, int session,
                                      std::uint64_t epoch,
                                      clock::duration ttl) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (replica_.load(std::memory_order_relaxed)) {
    return lease_status::connection_lost;
  }
  const auto it = s.keys.find(key);
  if (it == s.keys.end()) {
    // Same implicit-epoch-0 rule as the fenced release above.
    return epoch == 0 ? lease_status::not_leader : lease_status::stale_epoch;
  }
  if (it->second.entry.epoch != epoch) return lease_status::stale_epoch;
  if (it->second.leader != session) return lease_status::not_leader;
  emit_locked(s, it->second, key,
              {.kind = cmd::command_kind::renewed, .session = session,
               .epoch = epoch, .at_ms = logical_now_ms(),
               .lease_ms = lease_ms_for(ttl)});
  return lease_status::ok;
}

std::size_t instance_registry::bump_matching(
    const std::function<bool(const key_state&)>& predicate,
    const std::function<void(int)>& on_bumped, cmd::command_kind kind) {
  std::size_t bumped = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard& s = *shards_[i];
    wake_list wakes;  // the bumped keys' waiters
    std::size_t bumped_here = 0;
    {
      const std::lock_guard<std::mutex> lock(s.mutex);
      if (replica_.load(std::memory_order_relaxed)) return bumped;
      const std::uint64_t at = logical_now_ms();
      for (auto& [key, state] : s.keys) {
        if (!predicate(state)) continue;
        emit_locked(s, state, key,
                    {.kind = kind, .session = state.leader,
                     .epoch = state.entry.epoch, .at_ms = at});
        fence_after_end_locked(s, state, key, at);
        take_waiters_locked(s, key, wakes);
        ++bumped_here;
      }
    }
    if (bumped_here == 0) continue;
    bumped += bumped_here;
    // Count before waking: a woken waiter can win the next epoch and
    // read the metrics before this thread gets scheduled again.
    if (on_bumped) {
      for (std::size_t k = 0; k < bumped_here; ++k) {
        on_bumped(static_cast<int>(i));
      }
    }
    for (auto& wake : wakes) wake();
  }
  return bumped;
}

std::size_t instance_registry::release_all(
    int session, const std::function<void(int)>& on_released) {
  // A graceful disconnect is a voluntary release from the watch layer's
  // point of view; the network edge's *crash* reclaim goes through
  // reclaim_all instead so the stream can tell the two apart.
  return bump_matching(
      [session](const key_state& state) { return state.leader == session; },
      on_released, cmd::command_kind::released);
}

std::size_t instance_registry::reclaim_all(
    int session, const std::function<void(int)>& on_reclaimed) {
  return bump_matching(
      [session](const key_state& state) { return state.leader == session; },
      on_reclaimed, cmd::command_kind::disconnect_reclaimed);
}

namespace {

std::string_view grant_mode_name(int raw) {
  switch (raw) {
    case 0: return "open";
    case 1: return "fast_claimed";
    case 2: return "protocol_armed";
  }
  return "unknown";
}

}  // namespace

key_inspection instance_registry::inspection_locked(
    const std::string& key, const key_state& state) const {
  key_inspection info;
  info.key = key;
  info.entry = state.entry;
  info.leader = state.leader;
  info.lease_deadline = steady_deadline(state.logical_deadline_ms);
  info.mode = grant_mode_name(static_cast<int>(state.mode));
  info.attempts_this_epoch = state.attempts_this_epoch;
  info.last_epoch_attempts = state.last_epoch_attempts;
  return info;
}

std::vector<key_inspection> instance_registry::list_keys() const {
  std::vector<key_inspection> out;
  visit_keys([&out](const key_inspection& info) {
    out.push_back(info);
    return true;
  });
  return out;
}

void instance_registry::visit_keys(
    const std::function<bool(const key_inspection&)>& visit) const {
  for (const auto& shard_ptr : shards_) {
    const std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    for (const auto& [key, state] : shard_ptr->keys) {
      if (!visit(inspection_locked(key, state))) return;
    }
  }
}

std::optional<key_inspection> instance_registry::inspect(
    const std::string& key) const {
  const shard& s =
      *shards_[static_cast<std::size_t>(shard_of(key))];
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.keys.find(key);
  if (it == s.keys.end()) return std::nullopt;
  return inspection_locked(key, it->second);
}

lease_status instance_registry::force_release(const std::string& key) {
  return end_epoch(key, cmd::command_kind::force_released,
                   [](const key_state* state) {
                     return state != nullptr && state->leader != -1
                                ? lease_status::ok
                                : lease_status::not_leader;
                   });
}

std::vector<std::string> instance_registry::keys_held_by(int session) const {
  std::vector<std::string> held;
  for (const auto& shard_ptr : shards_) {
    const std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    for (const auto& [key, state] : shard_ptr->keys) {
      if (state.leader == session) held.push_back(key);
    }
  }
  return held;
}

std::size_t instance_registry::sweep_expired(
    clock::time_point now, const std::function<void(int)>& on_expired) {
  return bump_matching(
      [this, now](const key_state& state) {
        return state.leader != -1 &&
               steady_deadline(state.logical_deadline_ms) <= now;
      },
      on_expired, cmd::command_kind::expired);
}

std::uint64_t instance_registry::shard_last_seq(int shard_index) const {
  ELECT_CHECK(shard_index >= 0 &&
              shard_index < static_cast<int>(shards_.size()));
  const shard& s = *shards_[static_cast<std::size_t>(shard_index)];
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.last_seq;
}

std::optional<std::string> instance_registry::apply(const cmd::command& c) {
  return apply_at(c, 0);
}

std::optional<std::string> instance_registry::apply_entry(std::uint64_t index) {
  const std::optional<cmd::log_entry> e = log_.entry(index);
  if (!e.has_value()) {
    return "log entry " + std::to_string(index) + " is not held";
  }
  if (cmd::is_barrier(e->change)) {
    log_.mark_applied(index);
    return std::nullopt;
  }
  return apply_at(e->change, index);
}

std::optional<std::string> instance_registry::apply_at(const cmd::command& c,
                                                       std::uint64_t index) {
  const int shard_index = shard_of(c.key);
  if (c.shard >= 0 && c.shard != shard_index) {
    return "command seq " + std::to_string(c.seq) + " was recorded for shard " +
           std::to_string(c.shard) + " but key '" + c.key +
           "' maps to shard " + std::to_string(shard_index) +
           " here — replaying into a registry with a different shard count?";
  }
  shard& s = *shards_[static_cast<std::size_t>(shard_index)];
  wake_list wakes;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (c.seq != 0 && s.last_seq != 0 && c.seq != s.last_seq + 1) {
      return "sequence gap in shard " + std::to_string(shard_index) +
             ": expected seq " + std::to_string(s.last_seq + 1) + ", got " +
             std::to_string(c.seq);
    }
    key_state& state = state_locked(s, c.key);
    const auto epoch_mismatch = [&]() -> std::string {
      return std::string(cmd::to_string(c.kind)) + " for '" + c.key +
             "' claims epoch " + std::to_string(c.epoch) +
             " but the key is at epoch " +
             std::to_string(state.entry.epoch) +
             " — corrupt or mis-ordered stream";
    };
    switch (c.kind) {
      case cmd::command_kind::acquire_granted:
        if (state.entry.epoch != c.epoch) return epoch_mismatch();
        if (state.leader != -1) {
          return "acquire_granted for '" + c.key + "' epoch " +
                 std::to_string(c.epoch) +
                 " but the epoch is already held by session " +
                 std::to_string(state.leader);
        }
        break;
      case cmd::command_kind::renewed:
      case cmd::command_kind::released:
      case cmd::command_kind::expired:
      case cmd::command_kind::force_released:
      case cmd::command_kind::disconnect_reclaimed:
        if (state.entry.epoch != c.epoch) return epoch_mismatch();
        if (state.leader != c.session) {
          return std::string(cmd::to_string(c.kind)) + " for '" +
                 c.key + "' names holder " +
                 std::to_string(c.session) + " but the holder is " +
                 std::to_string(state.leader);
        }
        break;
      case cmd::command_kind::epoch_bumped:
        // Forward jumps are legal (restore fencing records the highest
        // epoch the bump ends, which may exceed the current one); only
        // a bump that would move the epoch backwards is corruption.
        if (c.epoch < state.entry.epoch) return epoch_mismatch();
        break;
    }
    // The stream's clock becomes this registry's: a lease inherited
    // through replication expires on the granting member's schedule
    // (late by the apply delay, never early), and a promoted member
    // stamps on from where the stream was.
    move_clock_to(c.at_ms);
    execute_locked(s, state, c);
    // Replayed commands keep their recorded seq; advancing the watermark
    // (instead of re-appending) is what makes a post-replay snapshot
    // byte-identical to the recorder's.
    if (c.seq != 0) s.last_seq = c.seq;
    if (index != 0) log_.mark_applied(index);
    // Every kind but a grant or a renewal ends the epoch.
    if (c.kind != cmd::command_kind::acquire_granted &&
        c.kind != cmd::command_kind::renewed) {
      take_waiters_locked(s, c.key, wakes);
    }
  }
  for (auto& wake : wakes) wake();
  return std::nullopt;
}

std::optional<std::string> instance_registry::replay(
    const std::vector<cmd::command>& log) {
  for (const cmd::command& c : log) {
    if (auto error = apply(c)) return error;
  }
  return std::nullopt;
}

log_snapshot instance_registry::snapshot_cut(bool trim_log) {
  cmd::snapshot_data data;
  data.shards.resize(shards_.size());
  log_snapshot cut;
  {
    const auto locks = lock_all();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const shard& s = *shards_[i];
      cmd::snapshot_shard& out = data.shards[i];
      out.last_seq = s.last_seq;
      out.last_at_ms = s.last_at_ms;
      out.keys.reserve(s.keys.size());
      for (const auto& [key, state] : s.keys) {
        // Epoch 0, unheld == the implicit default for a key nobody ever
        // touched: indistinguishable from absent, so not state.
        if (state.entry.epoch == 0 && state.leader == -1) continue;
        // Unheld modes normalize to open: an armed-but-never-claimed
        // election emitted no command, so replay cannot know about it.
        const bool held = state.leader != -1;
        out.keys.push_back(
            {.key = key,
             .epoch = state.entry.epoch,
             .leader = state.leader,
             .mode = held ? static_cast<std::uint8_t>(state.mode)
                          : cmd::grant_mode_open,
             .lease_rel_ms =
                 !held || state.logical_deadline_ms == cmd::lease_forever
                     ? cmd::lease_rel_none
                     : static_cast<std::int64_t>(state.logical_deadline_ms) -
                           static_cast<std::int64_t>(s.last_at_ms)});
      }
    }
    // Under every shard lock no live mutation is half done, and a
    // follower's apply marks its entry under the shard lock it executes
    // under: the state is exactly the log through its applied index.
    std::tie(cut.index, cut.term) = log_.applied();
  }
  if (trim_log && command_log_enabled()) {
    log_.advance_cursor(history_cursor(), cut.index);
  }
  for (cmd::snapshot_shard& out : data.shards) {
    std::sort(out.keys.begin(), out.keys.end(),
              [](const cmd::snapshot_key& a, const cmd::snapshot_key& b) {
                return a.key < b.key;
              });
  }
  cut.bytes = cmd::encode_snapshot(data);
  return cut;
}

namespace {

/// The snapshot's newest watermark: the stream's clock at the cut.
std::uint64_t newest_at_ms(const cmd::snapshot_data& data) {
  std::uint64_t logical = 0;
  for (const cmd::snapshot_shard& in : data.shards) {
    logical = std::max(logical, in.last_at_ms);
  }
  return logical;
}

}  // namespace

std::optional<std::string> instance_registry::decode_checked(
    const std::vector<std::uint8_t>& bytes, cmd::snapshot_data& out) const {
  auto decoded = cmd::decode_snapshot(bytes);
  if (!decoded.data.has_value()) return decoded.error;
  out = std::move(*decoded.data);
  if (out.shards.size() != shards_.size()) {
    return "snapshot has " + std::to_string(out.shards.size()) +
           " shards but this registry has " + std::to_string(shards_.size());
  }
  for (std::size_t i = 0; i < out.shards.size(); ++i) {
    for (const cmd::snapshot_key& k : out.shards[i].keys) {
      if (shard_of(k.key) != static_cast<int>(i)) {
        return "snapshot key '" + k.key + "' does not map to shard " +
               std::to_string(i) + " — corrupt snapshot or hash mismatch";
      }
    }
  }
  return std::nullopt;
}

void instance_registry::load_locked(shard& s, const cmd::snapshot_shard& in) {
  s.last_seq = in.last_seq;
  s.last_at_ms = in.last_at_ms;
  for (const cmd::snapshot_key& k : in.keys) {
    key_state& state = state_locked(s, k.key);
    state.entry.epoch = k.epoch;
    state.leader = k.leader;
    state.mode = static_cast<grant_mode>(k.mode);
    if (k.leader == -1 || k.lease_rel_ms == cmd::lease_rel_none) {
      state.logical_deadline_ms = cmd::lease_forever;
    } else {
      // The deadline on the stream's clock (possibly already past: due
      // and unswept at snapshot time — the first sweep here expires it).
      const std::int64_t deadline =
          static_cast<std::int64_t>(in.last_at_ms) + k.lease_rel_ms;
      state.logical_deadline_ms =
          deadline < 0 ? 0 : static_cast<std::uint64_t>(deadline);
    }
  }
}

std::optional<std::string> instance_registry::restore(
    const std::vector<std::uint8_t>& bytes, bool fence_restored,
    std::uint64_t fence_bump) {
  if (fence_restored && fence_bump == 0) {
    return "fence_bump must be >= 1 when fencing restored epochs";
  }
  cmd::snapshot_data data;
  if (auto error = decode_checked(bytes, data)) return error;
  if (key_count() != 0) {
    return "restore requires an empty registry";
  }
  // The snapshot's newest watermark is the stream's clock: moving this
  // registry's clock there re-anchors every remaining TTL to it (a lease
  // with 3 s left when its shard last moved expires at most 3 s after
  // the restore, never earlier than on the recorder).
  const std::uint64_t logical = newest_at_ms(data);
  move_clock_to(logical);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard& s = *shards_[i];
    const std::lock_guard<std::mutex> lock(s.mutex);
    load_locked(s, data.shards[i]);
    if (!fence_restored) continue;
    for (const cmd::snapshot_key& k : data.shards[i].keys) {
      // Bump every restored key: a pre-snapshot leaseholder may have
      // lost its lease in the gap the snapshot cannot see, so it must
      // not be resurrected — its first fenced op answers stale_epoch
      // and it re-acquires like everyone else. The bump ends epochs up
      // to restored + (fence_bump - 1), jumping clear of grants the
      // crash gap may have issued past the snapshot.
      key_state& state = s.keys.at(k.key);
      emit_locked(s, state, k.key,
                  {.kind = cmd::command_kind::epoch_bumped, .session = -1,
                   .epoch = state.entry.epoch + (fence_bump - 1),
                   .at_ms = logical});
    }
  }
  if (fence_restored) {
    // Restore requires an empty registry, so every waiter is on a key
    // this fence just moved or on one nobody ever acquired.
    wake_all();
  }
  return std::nullopt;
}

std::optional<std::string> instance_registry::install_snapshot(
    const log_snapshot& cut, bool keep_log) {
  // The snapshot replaces local state wholesale: a diverged follower
  // (applied entries its new primary never committed) or a lagging one
  // (its primary compacted the suffix it was missing) converges by
  // adoption, not by reconciliation.
  cmd::snapshot_data data;
  if (auto error = decode_checked(cut.bytes, data)) return error;
  {
    const auto locks = lock_all();
    move_clock_to(newest_at_ms(data));
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->keys.clear();
      load_locked(*shards_[i], data.shards[i]);
    }
    if (keep_log) {
      log_.mark_applied(cut.index);
    } else {
      log_.rebase(cut.index, cut.term);
    }
  }
  // Every waiter retries against the installed state.
  wake_all();
  return std::nullopt;
}

std::size_t instance_registry::fence_all(std::uint64_t bump) {
  ELECT_CHECK_MSG(bump >= 1, "fence_all: bump must be >= 1");
  std::size_t fenced = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard& s = *shards_[i];
    wake_list wakes;
    std::size_t fenced_here = 0;
    {
      const std::lock_guard<std::mutex> lock(s.mutex);
      if (replica_.load(std::memory_order_relaxed)) return fenced;
      const std::uint64_t at = logical_now_ms();
      for (auto& [key, state] : s.keys) {
        if (state.leader != -1) {
          // A committed lease survives the failover under its epoch —
          // the holder's fenced ops keep answering ok. The bump lands
          // when this epoch ends (fence_after_end_locked), so the next
          // grant still jumps clear of the deposed primary's tail.
          state.pending_fence = std::max(state.pending_fence, bump);
          ++fenced_here;
          continue;
        }
        // Unheld (epoch 0 included — first grants are epoch 0): jump
        // now. Ends epochs <= current + (bump - 1), same arithmetic as
        // restore-time fencing.
        emit_locked(s, state, key,
                    {.kind = cmd::command_kind::epoch_bumped, .session = -1,
                     .epoch = state.entry.epoch + (bump - 1), .at_ms = at});
        take_waiters_locked(s, key, wakes);
        ++fenced_here;
      }
    }
    for (auto& wake : wakes) wake();
    fenced += fenced_here;
  }
  return fenced;
}

void instance_registry::take_waiters_locked(shard& s, const std::string& key,
                                            wake_list& out) {
  if (s.waiters.empty()) return;
  const auto it = s.waiters.find(key);
  if (it == s.waiters.end()) return;
  for (auto& parked : it->second) out.push_back(std::move(parked.second));
  s.waiters.erase(it);
}

std::uint64_t instance_registry::park(const std::string& key,
                                      std::uint64_t epoch,
                                      std::function<void()> wake) {
  const auto shard_index = static_cast<std::size_t>(shard_of(key));
  shard& s = *shards_[shard_index];
  const std::lock_guard<std::mutex> lock(s.mutex);
  // shutdown() sets the flag before emptying each shard under its lock.
  if (shutdown_.load(std::memory_order_relaxed)) return 0;
  const auto it = s.keys.find(key);  // not state_locked: no key creation
  if (it != s.keys.end() && it->second.entry.epoch > epoch) return 0;
  const std::uint64_t id = s.next_waiter++ * shards_.size() + shard_index;
  s.waiters[key].emplace_back(id, std::move(wake));
  return id;
}

bool instance_registry::unpark(std::uint64_t id) {
  shard& s = *shards_[static_cast<std::size_t>(id % shards_.size())];
  // Destroyed after the unlock: the wake's captures may own anything.
  std::function<void()> dropped;
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (auto it = s.waiters.begin(); it != s.waiters.end(); ++it) {
    auto& parked = it->second;
    for (auto w = parked.begin(); w != parked.end(); ++w) {
      if (w->first != id) continue;
      dropped = std::move(w->second);
      parked.erase(w);
      if (parked.empty()) s.waiters.erase(it);
      return true;
    }
  }
  return false;
}

void instance_registry::wake_all() {
  for (auto& shard_ptr : shards_) {
    wake_list wakes;
    {
      const std::lock_guard<std::mutex> lock(shard_ptr->mutex);
      for (auto& [key, parked] : shard_ptr->waiters) {
        for (auto& w : parked) wakes.push_back(std::move(w.second));
      }
      shard_ptr->waiters.clear();
    }
    for (auto& wake : wakes) wake();
  }
}

std::size_t instance_registry::parked_count() const {
  std::size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    const std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    for (const auto& [key, parked] : shard_ptr->waiters) total += parked.size();
  }
  return total;
}

void instance_registry::set_replica(bool replica, std::uint64_t term) {
  // Every shard lock at once: a live mutation decides, executes and
  // appends under its shard's lock, so each one lands wholly before the
  // switch (at the old term) or sees it.
  const auto locks = lock_all();
  replica_.store(replica, std::memory_order_relaxed);
  if (!replica) log_.set_term(term);
}

void instance_registry::shutdown() {
  shutdown_.store(true, std::memory_order_relaxed);
  wake_all();
}

std::size_t instance_registry::keys_in_shard(int shard_index) const {
  ELECT_CHECK(shard_index >= 0 &&
              shard_index < static_cast<int>(shards_.size()));
  const shard& s = *shards_[static_cast<std::size_t>(shard_index)];
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.keys.size();
}

std::size_t instance_registry::key_count() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    total += keys_in_shard(static_cast<int>(i));
  }
  return total;
}

}  // namespace elect::svc
