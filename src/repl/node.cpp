#include "repl/node.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/check.hpp"

namespace elect::repl {

namespace {

using net::wire::op;
using net::wire::status;

// --- Peer-op envelopes --------------------------------------------------
//
// All envelopes ride the opaque `body` of a v4 wire request/response.
// Encoding mirrors the command codec: little-endian, bounds-checked,
// trailing bytes rejected.

struct vote_request_body {
  std::uint64_t term = 0;
  std::int32_t candidate = -1;
  std::uint64_t last_log_index = 0;
  std::uint64_t last_log_term = 0;
};

struct vote_response_body {
  std::uint64_t term = 0;
  bool granted = false;
};

struct append_request_body {
  std::uint64_t term = 0;
  std::int32_t leader = -1;
  std::uint64_t prev_index = 0;
  std::uint64_t prev_term = 0;
  std::uint64_t leader_commit = 0;
  std::vector<cmd::log_entry> entries;
};

struct append_response_body {
  std::uint64_t term = 0;
  bool success = false;
  /// On success: highest index now matching the primary's log. On
  /// refusal: the follower's commit index — a safe restart hint (the
  /// committed prefix always matches).
  std::uint64_t match_hint = 0;
  /// The follower cannot converge by appends (diverged registry or a
  /// seq gap); the primary must send a snapshot install.
  bool need_snapshot = false;
};

struct snapshot_request_body {
  std::uint64_t term = 0;
  std::int32_t leader = -1;
  std::uint64_t last_index = 0;
  std::uint64_t last_term = 0;
  std::string bytes;
};

struct snapshot_response_body {
  std::uint64_t term = 0;
  bool ok = false;
};

std::string encode(const vote_request_body& v) {
  cmd::byte_writer out;
  out.u64(v.term);
  out.i32(v.candidate);
  out.u64(v.last_log_index);
  out.u64(v.last_log_term);
  return out.take();
}

bool decode(std::string_view body, vote_request_body& v) {
  cmd::byte_reader in(body);
  return in.u64(v.term) && in.i32(v.candidate) && in.u64(v.last_log_index) &&
         in.u64(v.last_log_term) && in.exhausted();
}

std::string encode(const vote_response_body& v) {
  cmd::byte_writer out;
  out.u64(v.term);
  out.u8(v.granted ? 1 : 0);
  return out.take();
}

bool decode(std::string_view body, vote_response_body& v) {
  cmd::byte_reader in(body);
  std::uint8_t granted = 0;
  if (!in.u64(v.term) || !in.u8(granted) || !in.exhausted()) return false;
  v.granted = granted != 0;
  return true;
}

std::string encode(const append_request_body& a) {
  cmd::byte_writer out;
  out.u64(a.term);
  out.i32(a.leader);
  out.u64(a.prev_index);
  out.u64(a.prev_term);
  out.u64(a.leader_commit);
  out.u32(static_cast<std::uint32_t>(a.entries.size()));
  for (const cmd::log_entry& e : a.entries) {
    out.u64(e.term);
    cmd::encode_command(out, e.change);
  }
  return out.take();
}

bool decode(std::string_view body, append_request_body& a) {
  cmd::byte_reader in(body);
  std::uint32_t count = 0;
  if (!in.u64(a.term) || !in.i32(a.leader) || !in.u64(a.prev_index) ||
      !in.u64(a.prev_term) || !in.u64(a.leader_commit) || !in.u32(count) ||
      count > (1u << 16)) {
    return false;
  }
  a.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    cmd::log_entry e;
    if (!in.u64(e.term) ||
        !cmd::decode_command(in, e.change, net::wire::max_key_bytes)) {
      return false;
    }
    a.entries.push_back(std::move(e));
  }
  return in.exhausted();
}

std::string encode(const append_response_body& a) {
  cmd::byte_writer out;
  out.u64(a.term);
  out.u8(a.success ? 1 : 0);
  out.u64(a.match_hint);
  out.u8(a.need_snapshot ? 1 : 0);
  return out.take();
}

bool decode(std::string_view body, append_response_body& a) {
  cmd::byte_reader in(body);
  std::uint8_t success = 0;
  std::uint8_t need_snapshot = 0;
  if (!in.u64(a.term) || !in.u8(success) || !in.u64(a.match_hint) ||
      !in.u8(need_snapshot) || !in.exhausted()) {
    return false;
  }
  a.success = success != 0;
  a.need_snapshot = need_snapshot != 0;
  return true;
}

std::string encode(const snapshot_request_body& s) {
  cmd::byte_writer out;
  out.u64(s.term);
  out.i32(s.leader);
  out.u64(s.last_index);
  out.u64(s.last_term);
  out.str(s.bytes);
  return out.take();
}

bool decode(std::string_view body, snapshot_request_body& s) {
  cmd::byte_reader in(body);
  return in.u64(s.term) && in.i32(s.leader) && in.u64(s.last_index) &&
         in.u64(s.last_term) && in.str(s.bytes, net::wire::max_frame_bytes) &&
         in.exhausted();
}

std::string encode(const snapshot_response_body& s) {
  cmd::byte_writer out;
  out.u64(s.term);
  out.u8(s.ok ? 1 : 0);
  return out.take();
}

bool decode(std::string_view body, snapshot_response_body& s) {
  cmd::byte_reader in(body);
  std::uint8_t ok = 0;
  if (!in.u64(s.term) || !in.u8(ok) || !in.exhausted()) return false;
  s.ok = ok != 0;
  return true;
}

/// Per-append batch bounds: cap entries and bytes well under the 1 MiB
/// frame limit so the envelope always fits.
constexpr std::size_t max_batch_entries = 256;
constexpr std::size_t max_batch_bytes = 128 * 1024;

/// Room the snapshot envelope needs inside one frame besides the bytes.
constexpr std::size_t snapshot_envelope_slack = 512;

std::uint64_t to_ns(std::chrono::steady_clock::duration d) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

}  // namespace

std::string_view to_string(role r) {
  switch (r) {
    case role::follower: return "follower";
    case role::candidate: return "candidate";
    case role::primary: return "primary";
  }
  return "unknown";
}

node::node(cluster_config config, svc::service& service)
    : config_(std::move(config)),
      service_(service),
      rng_(config_.seed ^
           (0x9E3779B97F4A7C15ull *
            static_cast<std::uint64_t>(config_.self + 1))) {
  const auto config_error = config_.validate();
  ELECT_CHECK_MSG(!config_error.has_value(), config_error.value_or(""));
  // The drain cursor makes the registry record; from here on only a
  // quorum commit (or an installed snapshot) lets observers read on.
  drain_ = service_.registry().open_cursor();
  service_.registry().commit_manually();
  load_vote_state();
  // Every member boots as a follower: no local lease expiry until this
  // node wins a term.
  service_.set_sweeper_suspended(true);
}

node::~node() {
  stop();
  service_.registry().close_cursor(drain_);
}

void node::start() {
  service_.set_commit_gate(
      [this](const std::string& key) { return wait_committed(key); });
  for (int m = 0; m < static_cast<int>(config_.members.size()); ++m) {
    if (m == config_.self) continue;
    workers_.push_back(std::make_unique<peer_worker>(
        m, config_.members[static_cast<std::size_t>(m)],
        config_.peer_io_timeout_ms));
    vote_channels_.push_back(std::make_unique<peer_channel>(
        config_.members[static_cast<std::size_t>(m)],
        config_.peer_io_timeout_ms));
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    reset_election_deadline_locked();
  }
  ticker_ = std::thread([this] { ticker_main(); });
  for (auto& w : workers_) {
    peer_worker* wp = w.get();
    w->thread = std::thread([this, wp] { worker_main(*wp); });
  }
}

void node::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  tick_cv_.notify_all();
  work_cv_.notify_all();
  commit_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

bool node::is_primary() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return role_ == role::primary;
}

std::string node::primary_endpoint() const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (leader_ < 0 || leader_ >= static_cast<int>(config_.members.size())) {
    return {};
  }
  return config_.members[static_cast<std::size_t>(leader_)].to_string();
}

std::uint64_t node::current_term() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return term_;
}

std::uint64_t node::commit_index() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return commit_index_;
}

node_counters node::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

// --- Vote persistence ---------------------------------------------------
//
// The one-shot-per-term vote must survive a restart, or a rebooted
// member could hand the same term to two candidates. Tiny text file,
// tmp + rename, fsync'd — the same durability idiom as the server's
// snapshot files.

void node::load_vote_state() {
  if (config_.state_dir.empty()) return;
  const std::string path =
      config_.state_dir + "/repl_vote_" + std::to_string(config_.self);
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return;
  unsigned long long term = 0;
  int voted = -1;
  if (std::fscanf(f, "v1 %llu %d", &term, &voted) == 2) {
    term_ = term;
    voted_for_ = voted;
  }
  std::fclose(f);
}

void node::persist_vote_locked() {
  if (config_.state_dir.empty()) return;
  const std::string path =
      config_.state_dir + "/repl_vote_" + std::to_string(config_.self);
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "v1 %llu %d\n",
               static_cast<unsigned long long>(term_), voted_for_);
  std::fflush(f);
  ::fsync(fileno(f));
  std::fclose(f);
  (void)std::rename(tmp.c_str(), path.c_str());
}

// --- Role transitions ---------------------------------------------------

void node::reset_election_deadline_locked() {
  std::uniform_int_distribution<std::uint64_t> pick(
      config_.election_timeout_min_ms, config_.election_timeout_max_ms);
  election_deadline_ = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(pick(rng_));
}

void node::step_down_locked(std::uint64_t new_term) {
  const bool was_primary = role_ == role::primary;
  if (was_primary) {
    // Ship any live-applied commands the ticker had not drained yet,
    // while term_ is still the term they were executed under. This
    // keeps log == registry at last_index across the demotion, so
    // applied_index_ stays truthful: a later append that would
    // truncate below it is a real divergence (needs_install_), and a
    // later re-promotion can keep the suffix without re-applying it.
    drain_locked();
  }
  if (new_term > term_) {
    term_ = new_term;
    voted_for_ = -1;
    leader_ = -1;
    persist_vote_locked();
  }
  if (role_ != role::follower) ++counters_.step_downs;
  role_ = role::follower;
  if (was_primary) {
    // Followers never expire leases locally — expiry is a mutation and
    // only the primary may originate mutations into the log.
    service_.set_sweeper_suspended(true);
    // Parked acquirers re-check too: a follower's epochs will not move
    // for them, so they must go answer not_primary. The wakes only
    // hand off (they run under mu_ here).
    service_.registry().wake_all();
  }
  reset_election_deadline_locked();
  // Gate waiters must bail: a deposed primary cannot ack anything.
  commit_cv_.notify_all();
}

void node::become_primary_locked(std::unique_lock<std::mutex>& lock) {
  role_ = role::primary;
  leader_ = config_.self;
  ++counters_.terms_won;
  // Keep the inherited suffix. Winning the vote's up-to-date check
  // means this log already holds every entry the dead primary could
  // have acked: a committed entry lives on a majority, and we out-ran
  // a majority to win. Entries past our own commit point may or may
  // not have committed — apply them to the registry exactly as the
  // live path would have (the seq filter skips anything a deposed
  // primary already executed), and let the new-term barrier below
  // commit them by replication. An unacked grant in the suffix
  // belongs to a session that died with the old primary, so the TTL
  // plus the fence jump retire it; an acked one is preserved — never
  // silently re-granted from epoch 0.
  apply_through_locked(log_.last_index(), /*committed=*/false);
  ELECT_CHECK_MSG(!needs_install_,
                  "promotion: registry diverged from this node's own log");
  // Barrier entry: asserts the new term at the log head, so this log
  // wins up-to-date comparisons against any deposed primary's stale
  // suffix, and gives heartbeats something to commit immediately —
  // and with it the whole inherited suffix (the current-term guard in
  // advance_commit_locked is what makes committing it safe).
  cmd::log_entry barrier;
  barrier.term = term_;
  barrier.change.shard = -1;
  log_.append(std::move(barrier));
  for (auto& w : workers_) {
    w->next_index = log_.last_index();
    w->match_index = 0;
    w->force_snapshot = false;
  }

  // Fence and resume expiry outside the lock: fence_all takes every
  // shard lock and wakes parked acquirers, and neither needs mu_. The
  // drain cursor ships the fence's epoch_bumped commands next; the
  // suffix applied above was replayed, not logged, so it never
  // re-ships.
  lock.unlock();
  service_.set_sweeper_suspended(false);
  (void)service_.registry().fence_all(config_.fence_bump);
  lock.lock();
  if (role_ == role::primary) {
    drain_locked();
    advance_commit_locked();
  }
  work_cv_.notify_all();
}

// --- The drain: registry command log -> replicated log ------------------

void node::drain_locked() {
  std::vector<cmd::command> fresh;
  service_.registry().read_cursor(drain_, -1, /*committed_only=*/false, fresh);
  if (fresh.empty()) return;
  for (cmd::command& c : fresh) {
    cmd::log_entry e;
    e.term = term_;
    e.change = std::move(c);
    log_.append(std::move(e));
  }
  // Drained commands were already executed by the live registry; the
  // log has just caught up to it.
  applied_index_ = log_.last_index();
  work_cv_.notify_all();
}

void node::advance_commit_locked() {
  if (role_ != role::primary) return;
  std::vector<std::uint64_t> matches;
  matches.reserve(workers_.size() + 1);
  matches.push_back(log_.last_index());
  for (const auto& w : workers_) matches.push_back(w->match_index);
  std::sort(matches.begin(), matches.end(), std::greater<>());
  const std::uint64_t candidate =
      matches[static_cast<std::size_t>(config_.quorum() - 1)];
  if (candidate <= commit_index_) return;
  // Only entries of the current term commit by counting (the classic
  // Raft guard). This is what makes keeping the inherited suffix at
  // promotion safe: old-term entries never commit on their own — they
  // commit as the prefix of the first current-term entry (the
  // promotion barrier) that reaches a quorum.
  if (log_.term_at(candidate) != term_) return;
  for (std::uint64_t i = commit_index_ + 1; i <= candidate; ++i) {
    if (i < log_.first_index()) continue;  // compacted: long committed
    const cmd::command& c = log_.at(i).change;
    if (c.shard >= 0) service_.registry().commit_through(c.shard, c.seq);
  }
  commit_index_ = candidate;
  // The primary's registry is already ahead of the log (live path);
  // committed entries are never re-applied here.
  applied_index_ = std::max(applied_index_, commit_index_);
  commit_cv_.notify_all();
}

void node::maybe_compact_locked() {
  if (log_.size() < config_.compact_threshold) return;
  // Once everything applied is committed, the registry state IS the
  // log at commit_index_ and its snapshot is the compacted prefix: on
  // the primary when the log is quiescent, on a follower (which applies
  // only committed entries) whenever it has caught up. A deposed
  // primary holding entries it applied live but never committed waits.
  // trim_log moves the registry's history past them; the drain cursor
  // keeps anything not yet shipped.
  if (needs_install_ || applied_index_ != commit_index_) return;
  // A primary keeps what a reachable follower still lacks: compacting
  // it away would cost that follower a snapshot install for trailing by
  // one append. The snapshot may then run ahead of the index it
  // replaces; the entries in between re-apply as no-ops (the seq filter
  // in apply_through_locked).
  std::uint64_t through = commit_index_;
  if (role_ == role::primary) {
    for (const auto& w : workers_) {
      if (w->reachable) through = std::min(through, w->match_index);
    }
  }
  if (through <= log_.snapshot_last_index()) return;
  auto bytes = service_.registry().snapshot(/*trim_log=*/true);
  log_.compact_to(through, log_.term_at(through), std::move(bytes));
  ++counters_.compactions;
}

// --- Commit gate --------------------------------------------------------

bool node::wait_committed(const std::string& key) {
  const auto start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_ || role_ != role::primary) return false;
  drain_locked();
  advance_commit_locked();  // single-member clusters commit right here
  // The mutated shard's watermark (every shard's for an empty key) must
  // reach the registry's commit watermark.
  svc::instance_registry& registry = service_.registry();
  const int only = key.empty() ? -1 : registry.shard_of(key);
  std::vector<std::pair<int, std::uint64_t>> targets;
  for (int s = 0; s < registry.shard_count(); ++s) {
    if (only < 0 || s == only) {
      targets.emplace_back(s, registry.shard_last_seq(s));
    }
  }
  const auto reached = [&] {
    for (const auto& [s, seq] : targets) {
      if (registry.committed_seq(s) < seq) return false;
    }
    return true;
  };
  work_cv_.notify_all();  // ship the batch now, not at the next heartbeat
  const auto deadline =
      start + std::chrono::milliseconds(config_.commit_wait_ms);
  (void)commit_cv_.wait_until(lock, deadline, [&] {
    return stop_ || role_ != role::primary || reached();
  });
  const bool ok = !stop_ && role_ == role::primary && reached();
  if (!ok) ++counters_.commit_timeouts;
  commit_latency_.add(to_ns(std::chrono::steady_clock::now() - start));
  return ok;
}

// --- Ticker: drain, heartbeat pacing, election timeouts -----------------

void node::ticker_main() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    tick_cv_.wait_for(lock, std::chrono::milliseconds(10),
                      [this] { return stop_; });
    if (stop_) return;
    if (role_ == role::primary) {
      // Drain on a timer too, so mutations with no client waiting on
      // them (expiry sweeps, watch-visible transitions) replicate
      // promptly.
      drain_locked();
      advance_commit_locked();
      maybe_compact_locked();
    } else if (std::chrono::steady_clock::now() >= election_deadline_) {
      if (needs_install_) {
        // A diverged registry must not stand for election: if it won,
        // it would serve state the cluster discarded. Whoever deposed
        // this node had a quorum at a term >= our stale suffix, so
        // some healthy peer can always win instead and reinstall us.
        reset_election_deadline_locked();
        continue;
      }
      lock.unlock();
      run_election();
      lock.lock();
    } else {
      maybe_compact_locked();
    }
    // Render what committed with no client waiting on it (expiries,
    // the promotion fence) — outside mu_: rendering takes the watch
    // hub's and the journal's locks.
    lock.unlock();
    service_.publish_committed();
    lock.lock();
  }
}

void node::run_election() {
  std::uint64_t term = 0;
  vote_request_body ask;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || role_ == role::primary || needs_install_) return;
    // The cluster-scope test-and-set attempt: burn a fresh term, vote
    // for self (one-shot, persisted), solicit the rest.
    role_ = role::candidate;
    ++term_;
    voted_for_ = config_.self;
    leader_ = -1;
    persist_vote_locked();
    reset_election_deadline_locked();
    ++counters_.elections_started;
    term = term_;
    ask.term = term;
    ask.candidate = config_.self;
    ask.last_log_index = log_.last_index();
    ask.last_log_term = log_.last_term();
  }
  int votes = 1;  // own vote
  const auto won = [&] {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_ || term_ != term || role_ != role::candidate) return;
    become_primary_locked(lock);
  };
  if (votes >= config_.quorum()) {
    won();
    return;
  }
  for (auto& channel : vote_channels_) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stop_ || term_ != term || role_ != role::candidate) return;
    }
    const auto resp = channel->call(op::peer_vote, encode(ask));
    if (!resp.has_value() || resp->result != status::ok) continue;
    vote_response_body granted;
    if (!decode(resp->body, granted)) continue;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (granted.term > term_) {
        step_down_locked(granted.term);
        return;
      }
      if (stop_ || term_ != term || role_ != role::candidate) return;
    }
    if (granted.granted) ++votes;
    if (votes >= config_.quorum()) {
      won();
      return;
    }
  }
  // Lost or split: the (randomized) election deadline already re-armed;
  // the ticker retries after it passes.
}

// --- Peer replication workers -------------------------------------------

void node::worker_main(peer_worker& w) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (role_ != role::primary) {
      work_cv_.wait_for(lock,
                        std::chrono::milliseconds(config_.heartbeat_ms * 4));
      continue;
    }
    const bool behind =
        w.force_snapshot || w.next_index <= log_.last_index();
    if (!behind) {
      // Caught up: idle until poked (fresh entries, a gate waiter) or
      // the heartbeat interval passes — an empty append is the
      // heartbeat.
      work_cv_.wait_for(lock, std::chrono::milliseconds(config_.heartbeat_ms));
      if (stop_) return;
      if (role_ != role::primary) continue;
    }
    const std::uint64_t sent_failures = counters_.append_failures;
    replicate_once(w, lock);
    if (counters_.append_failures != sent_failures) {
      // The peer is unreachable; pace the retries at heartbeat cadence
      // instead of spinning on instant connection refusals.
      work_cv_.wait_for(lock, std::chrono::milliseconds(config_.heartbeat_ms));
    }
  }
}

void node::replicate_once(peer_worker& w,
                          std::unique_lock<std::mutex>& lock) {
  const std::uint64_t term = term_;
  op kind = op::peer_append;
  std::string body;
  std::uint64_t sent_prev = 0;
  std::size_t sent_count = 0;
  std::uint64_t snapshot_index = 0;
  bool heartbeat = false;

  if (w.force_snapshot || w.next_index < log_.first_index()) {
    snapshot_request_body snap;
    snap.term = term;
    snap.leader = config_.self;
    if (!log_.snapshot_bytes().empty() &&
        log_.snapshot_last_index() + 1 >= w.next_index) {
      // The compacted prefix covers the gap; entries follow it.
      snap.last_index = log_.snapshot_last_index();
      snap.last_term = log_.snapshot_last_term();
      snap.bytes.assign(log_.snapshot_bytes().begin(),
                        log_.snapshot_bytes().end());
    } else {
      // Fresh snapshot at the log head: after a drain the registry
      // state IS the log at last_index (any mutation racing the
      // snapshot lands in later entries the follower's seq filter
      // makes idempotent).
      drain_locked();
      auto bytes = service_.registry().snapshot(/*trim_log=*/false);
      snap.last_index = log_.last_index();
      snap.last_term = log_.last_term();
      snap.bytes.assign(bytes.begin(), bytes.end());
    }
    if (snap.bytes.size() + snapshot_envelope_slack >
        net::wire::max_frame_bytes) {
      // Cannot ship this state in one frame; count it as a failed
      // append so the worker backs off rather than spinning.
      ++counters_.append_failures;
      return;
    }
    snapshot_index = snap.last_index;
    body = encode(snap);
    kind = op::peer_snapshot;
  } else {
    append_request_body req;
    req.term = term;
    req.leader = config_.self;
    req.prev_index = w.next_index - 1;
    req.prev_term = log_.term_at(req.prev_index);
    req.leader_commit = commit_index_;
    std::size_t batch_bytes = 0;
    for (std::uint64_t i = w.next_index;
         i <= log_.last_index() && req.entries.size() < max_batch_entries &&
         batch_bytes < max_batch_bytes;
         ++i) {
      const cmd::log_entry& e = log_.at(i);
      batch_bytes += e.change.key.size() + 64;
      req.entries.push_back(e);
    }
    sent_prev = req.prev_index;
    sent_count = req.entries.size();
    heartbeat = sent_count == 0;
    body = encode(req);
  }

  lock.unlock();
  const auto resp = w.channel.call(kind, std::move(body));
  lock.lock();

  if (kind == op::peer_snapshot) {
    ++counters_.snapshots_sent;
  } else if (heartbeat) {
    ++counters_.heartbeats_sent;
  } else {
    ++counters_.appends_sent;
  }
  w.reachable = resp.has_value() && resp->result == status::ok;
  if (!w.reachable) {
    ++counters_.append_failures;
    return;
  }
  if (stop_ || term_ != term || role_ != role::primary) return;

  if (kind == op::peer_snapshot) {
    snapshot_response_body r;
    if (!decode(resp->body, r)) return;
    if (r.term > term_) {
      step_down_locked(r.term);
      return;
    }
    if (r.ok) {
      w.force_snapshot = false;
      w.match_index = std::max(w.match_index, snapshot_index);
      w.next_index = snapshot_index + 1;
      advance_commit_locked();
    }
    return;
  }

  append_response_body r;
  if (!decode(resp->body, r)) return;
  if (r.term > term_) {
    step_down_locked(r.term);
    return;
  }
  if (r.need_snapshot) w.force_snapshot = true;
  if (r.success) {
    w.match_index = std::max(w.match_index, sent_prev + sent_count);
    w.next_index = w.match_index + 1;
    counters_.entries_replicated += sent_count;
    advance_commit_locked();
  } else if (!r.need_snapshot) {
    // Backtrack toward the follower's committed prefix (the hint); the
    // committed prefix always matches, so hint + 1 is a safe restart.
    const std::uint64_t fallback = w.next_index > 1 ? w.next_index - 1 : 1;
    w.next_index = std::max<std::uint64_t>(
        1, std::min(fallback, r.match_hint + 1));
  }
}

// --- Peer-op service (the follower/voter side) --------------------------

net::wire::response node::answer(const net::wire::request& r,
                                 net::wire::status s,
                                 std::string body) const {
  net::wire::response out;
  out.id = r.id;
  out.kind = r.kind;
  out.result = s;
  out.body = std::move(body);
  return out;
}

net::wire::response node::handle_peer(const net::wire::request& r) {
  switch (r.kind) {
    case op::peer_vote: return handle_vote(r);
    case op::peer_append: return handle_append(r);
    case op::peer_snapshot: return handle_snapshot(r);
    default: return answer(r, status::bad_request);
  }
}

net::wire::response node::handle_vote(const net::wire::request& r) {
  vote_request_body q;
  if (!decode(r.body, q)) return answer(r, status::bad_request);
  const std::lock_guard<std::mutex> lock(mu_);
  if (q.term > term_) step_down_locked(q.term);
  vote_response_body out;
  out.term = term_;
  if (q.term == term_ &&
      (voted_for_ == -1 || voted_for_ == q.candidate)) {
    // The log-up-to-date check: a winner must already hold every
    // committed entry, or replication could roll back acked grants.
    const bool up_to_date =
        q.last_log_term > log_.last_term() ||
        (q.last_log_term == log_.last_term() &&
         q.last_log_index >= log_.last_index());
    if (up_to_date) {
      out.granted = true;
      voted_for_ = q.candidate;
      persist_vote_locked();
      reset_election_deadline_locked();
    }
  }
  return answer(r, status::ok, encode(out));
}

net::wire::response node::handle_append(const net::wire::request& r) {
  append_request_body q;
  if (!decode(r.body, q)) return answer(r, status::bad_request);
  const std::lock_guard<std::mutex> lock(mu_);
  append_response_body out;
  if (q.term < term_) {
    out.term = term_;
    return answer(r, status::ok, encode(out));
  }
  if (q.term > term_) step_down_locked(q.term);
  if (role_ == role::primary) {
    // Two primaries in one term is impossible (one vote per member per
    // term); refuse defensively rather than corrupt state.
    out.term = term_;
    return answer(r, status::ok, encode(out));
  }
  role_ = role::follower;
  leader_ = q.leader;
  reset_election_deadline_locked();
  out.term = term_;

  if (needs_install_) {
    out.match_hint = commit_index_;
    out.need_snapshot = true;
    return answer(r, status::ok, encode(out));
  }
  // A prev_index inside the compacted prefix matches by construction:
  // that prefix is committed, and every later primary holds it.
  if (q.prev_index > log_.last_index() ||
      (q.prev_index >= log_.snapshot_last_index() &&
       log_.term_at(q.prev_index) != q.prev_term)) {
    // Log mismatch: hint the committed prefix (always shared) so the
    // primary backtracks in one step instead of one index at a time.
    out.match_hint = commit_index_;
    return answer(r, status::ok, encode(out));
  }
  for (std::size_t k = 0; k < q.entries.size(); ++k) {
    const std::uint64_t idx = q.prev_index + 1 + k;
    if (idx < log_.first_index()) continue;  // compacted: committed
    if (idx <= log_.last_index()) {
      if (log_.term_at(idx) == q.entries[k].term) continue;  // already have
      if (idx <= applied_index_) {
        // Conflict below the apply watermark: this registry executed
        // entries the cluster discarded (we were installed a dead
        // primary's overreaching snapshot). Appends cannot fix it.
        needs_install_ = true;
        out.match_hint = commit_index_;
        out.need_snapshot = true;
        return answer(r, status::ok, encode(out));
      }
      log_.truncate_from(idx);  // a deposed primary's tail: discard
    }
    log_.append(q.entries[k]);
  }
  if (q.leader_commit > commit_index_) {
    commit_index_ = std::min(q.leader_commit, log_.last_index());
    apply_through_locked(commit_index_, /*committed=*/true);
  }
  out.success = true;
  out.match_hint = q.prev_index + q.entries.size();
  out.need_snapshot = needs_install_;  // apply may have hit a seq gap
  return answer(r, status::ok, encode(out));
}

void node::apply_through_locked(std::uint64_t bound, bool committed) {
  while (applied_index_ < bound && !needs_install_) {
    const std::uint64_t idx = applied_index_ + 1;
    if (idx < log_.first_index()) {
      applied_index_ = log_.first_index() - 1;
      continue;
    }
    const cmd::command& c = log_.at(idx).change;
    if (c.shard >= 0) {
      // Seq filter: after a snapshot install the next appends can
      // overlap state the snapshot already contains — identical
      // commands, safe to skip. A seq *gap* is different: replay
      // validation rejects it, and only a fresh install can heal.
      if (c.seq > service_.registry().shard_last_seq(c.shard)) {
        const auto err = service_.registry().apply(c);
        if (err.has_value()) {
          needs_install_ = true;
          return;
        }
      }
      if (committed) service_.registry().commit_through(c.shard, c.seq);
    }
    applied_index_ = idx;
  }
}

net::wire::response node::handle_snapshot(const net::wire::request& r) {
  snapshot_request_body q;
  if (!decode(r.body, q)) return answer(r, status::bad_request);
  const std::lock_guard<std::mutex> lock(mu_);
  snapshot_response_body out;
  if (q.term < term_) {
    out.term = term_;
    return answer(r, status::ok, encode(out));
  }
  if (q.term > term_) step_down_locked(q.term);
  role_ = role::follower;
  leader_ = q.leader;
  reset_election_deadline_locked();
  out.term = term_;

  std::vector<std::uint8_t> bytes(q.bytes.begin(), q.bytes.end());
  const auto err = service_.registry().install_snapshot(bytes);
  if (err.has_value()) {
    // Shard-count mismatch or corruption: refusing leaves the primary
    // retrying, which is the observable we want for a misconfigured
    // member.
    return answer(r, status::ok, encode(out));
  }
  log_.reset_to(q.last_index, q.last_term, std::move(bytes));
  commit_index_ = q.last_index;
  applied_index_ = q.last_index;
  needs_install_ = false;
  ++counters_.snapshots_installed;
  out.ok = true;
  return answer(r, status::ok, encode(out));
}

// --- Reporting ----------------------------------------------------------

std::string node::status_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{";
  out << "\"role\":\"" << to_string(role_) << "\",";
  out << "\"id\":" << config_.self << ",";
  out << "\"term\":" << term_ << ",";
  out << "\"leader_id\":" << leader_ << ",";
  out << "\"leader\":\""
      << (leader_ >= 0 && leader_ < static_cast<int>(config_.members.size())
              ? config_.members[static_cast<std::size_t>(leader_)].to_string()
              : std::string())
      << "\",";
  out << "\"self\":\""
      << config_.members[static_cast<std::size_t>(config_.self)].to_string()
      << "\",";
  out << "\"quorum\":" << config_.quorum() << ",";
  out << "\"commit_index\":" << commit_index_ << ",";
  out << "\"applied_index\":" << applied_index_ << ",";
  out << "\"last_index\":" << log_.last_index() << ",";
  out << "\"last_term\":" << log_.last_term() << ",";
  out << "\"log_entries\":" << log_.size() << ",";
  out << "\"snapshot_index\":" << log_.snapshot_last_index() << ",";
  out << "\"needs_install\":" << (needs_install_ ? "true" : "false") << ",";
  out << "\"members\":[";
  for (std::size_t m = 0; m < config_.members.size(); ++m) {
    if (m > 0) out << ",";
    out << "\"" << config_.members[m].to_string() << "\"";
  }
  out << "],";
  out << "\"peers\":[";
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    if (k > 0) out << ",";
    out << "{\"member\":" << workers_[k]->member
        << ",\"match_index\":" << workers_[k]->match_index
        << ",\"next_index\":" << workers_[k]->next_index << ",\"lag\":"
        << (log_.last_index() > workers_[k]->match_index
                ? log_.last_index() - workers_[k]->match_index
                : 0)
        << "}";
  }
  out << "],";
  out << "\"commit_latency\":{\"count\":" << commit_latency_.count()
      << ",\"p50_ms\":" << commit_latency_.quantile(0.50) / 1e6
      << ",\"p99_ms\":" << commit_latency_.quantile(0.99) / 1e6 << "},";
  out << "\"counters\":{"
      << "\"elections_started\":" << counters_.elections_started
      << ",\"terms_won\":" << counters_.terms_won
      << ",\"step_downs\":" << counters_.step_downs
      << ",\"appends_sent\":" << counters_.appends_sent
      << ",\"append_failures\":" << counters_.append_failures
      << ",\"heartbeats_sent\":" << counters_.heartbeats_sent
      << ",\"entries_replicated\":" << counters_.entries_replicated
      << ",\"snapshots_sent\":" << counters_.snapshots_sent
      << ",\"snapshots_installed\":" << counters_.snapshots_installed
      << ",\"compactions\":" << counters_.compactions
      << ",\"commit_timeouts\":" << counters_.commit_timeouts << "}";
  out << "}";
  return out.str();
}

std::string node::prom_text() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "# TYPE elect_repl_is_primary gauge\n"
      << "elect_repl_is_primary " << (role_ == role::primary ? 1 : 0) << "\n";
  out << "# TYPE elect_repl_term gauge\n"
      << "elect_repl_term " << term_ << "\n";
  out << "# TYPE elect_repl_commit_index gauge\n"
      << "elect_repl_commit_index " << commit_index_ << "\n";
  out << "# TYPE elect_repl_last_index gauge\n"
      << "elect_repl_last_index " << log_.last_index() << "\n";
  out << "# TYPE elect_repl_log_entries gauge\n"
      << "elect_repl_log_entries " << log_.size() << "\n";
  out << "# TYPE elect_repl_replication_lag gauge\n";
  for (const auto& w : workers_) {
    const std::uint64_t lag = log_.last_index() > w->match_index
                                  ? log_.last_index() - w->match_index
                                  : 0;
    out << "elect_repl_replication_lag{peer=\"" << w->member << "\"} " << lag
        << "\n";
  }
  out << "# TYPE elect_repl_elections_started_total counter\n"
      << "elect_repl_elections_started_total " << counters_.elections_started
      << "\n";
  out << "# TYPE elect_repl_terms_won_total counter\n"
      << "elect_repl_terms_won_total " << counters_.terms_won << "\n";
  out << "# TYPE elect_repl_step_downs_total counter\n"
      << "elect_repl_step_downs_total " << counters_.step_downs << "\n";
  out << "# TYPE elect_repl_appends_sent_total counter\n"
      << "elect_repl_appends_sent_total " << counters_.appends_sent << "\n";
  out << "# TYPE elect_repl_append_failures_total counter\n"
      << "elect_repl_append_failures_total " << counters_.append_failures
      << "\n";
  out << "# TYPE elect_repl_heartbeats_sent_total counter\n"
      << "elect_repl_heartbeats_sent_total " << counters_.heartbeats_sent
      << "\n";
  out << "# TYPE elect_repl_entries_replicated_total counter\n"
      << "elect_repl_entries_replicated_total "
      << counters_.entries_replicated << "\n";
  out << "# TYPE elect_repl_snapshots_sent_total counter\n"
      << "elect_repl_snapshots_sent_total " << counters_.snapshots_sent
      << "\n";
  out << "# TYPE elect_repl_snapshots_installed_total counter\n"
      << "elect_repl_snapshots_installed_total "
      << counters_.snapshots_installed << "\n";
  out << "# TYPE elect_repl_commit_timeouts_total counter\n"
      << "elect_repl_commit_timeouts_total " << counters_.commit_timeouts
      << "\n";
  out << "# TYPE elect_repl_commit_latency_seconds summary\n"
      << "elect_repl_commit_latency_seconds_count " << commit_latency_.count()
      << "\n"
      << "elect_repl_commit_latency_seconds_sum "
      << static_cast<double>(commit_latency_.sum_ns()) / 1e9 << "\n";
  return out.str();
}

}  // namespace elect::repl
