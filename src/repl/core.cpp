#include "repl/core.hpp"

#include <algorithm>
#include <utility>

#include "cmd/snapshot.hpp"
#include "common/check.hpp"
#include "svc/service.hpp"

namespace elect::repl {

using net::wire::op;
using net::wire::status;

// --- Peer-op envelopes --------------------------------------------------
//
// All envelopes ride the opaque `body` of a v4 wire request/response.
// Each envelope lists its fields once, in wire order (fields()), and
// that one list drives both encode() and decode(), so the two cannot
// drift. Encoding mirrors the command codec: little-endian,
// bounds-checked, trailing bytes rejected.

struct vote_request_body {
  std::uint64_t term = 0;
  std::int32_t candidate = -1;
  std::uint64_t last_log_index = 0;
  std::uint64_t last_log_term = 0;
  bool fields(auto& f) {
    return f(term) && f(candidate) && f(last_log_index) && f(last_log_term);
  }
};

struct append_request_body {
  std::uint64_t term = 0;
  std::int32_t leader = -1;
  std::uint64_t prev_index = 0;
  std::uint64_t prev_term = 0;
  std::uint64_t leader_commit = 0;
  std::vector<cmd::log_entry> entries{};
  bool fields(auto& f) {
    return f(term) && f(leader) && f(prev_index) && f(prev_term) &&
           f(leader_commit) && f(entries);
  }
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
  bool fields(auto& f) {
    return f(term) && f(success) && f(match_hint) && f(need_snapshot);
  }
};

struct snapshot_request_body {
  std::uint64_t term = 0;
  std::int32_t leader = -1;
  std::uint64_t last_index = 0;
  std::uint64_t last_term = 0;
  std::string bytes{};
  bool fields(auto& f) {
    return f(term) && f(leader) && f(last_index) && f(last_term) && f(bytes);
  }
};

/// The answer to a vote (granted?) or a snapshot install (installed?).
struct verdict_body {
  std::uint64_t term = 0;
  bool ok = false;
  bool fields(auto& f) { return f(term) && f(ok); }
};

namespace {

struct field_writer {
  cmd::byte_writer out;
  // Writes cannot fail; returning true keeps one fields() list for both.
  bool operator()(std::uint64_t v) { out.u64(v); return true; }
  bool operator()(std::int32_t v) { out.i32(v); return true; }
  bool operator()(bool v) { out.u8(v ? 1 : 0); return true; }
  bool operator()(const std::string& v) { out.str(v); return true; }
  bool operator()(const std::vector<cmd::log_entry>& entries) {
    out.u32(static_cast<std::uint32_t>(entries.size()));
    for (const cmd::log_entry& e : entries) {
      out.u64(e.term);
      cmd::encode_command(out, e.change);
    }
    return true;
  }
};

struct field_reader {
  cmd::byte_reader in;
  bool operator()(std::uint64_t& v) { return in.u64(v); }
  bool operator()(std::int32_t& v) { return in.i32(v); }
  bool operator()(bool& v) {
    std::uint8_t byte = 0;
    if (!in.u8(byte)) return false;
    v = byte != 0;
    return true;
  }
  bool operator()(std::string& v) {
    return in.str(v, net::wire::max_frame_bytes);
  }
  bool operator()(std::vector<cmd::log_entry>& entries) {
    std::uint32_t count = 0;
    if (!in.u32(count) || count > (1u << 16)) return false;
    entries.resize(count);
    for (cmd::log_entry& e : entries) {
      if (!in.u64(e.term) ||
          !cmd::decode_command(in, e.change, net::wire::max_key_bytes)) {
        return false;
      }
    }
    return true;
  }
};

template <typename Body>
std::string encode(Body& body) {
  field_writer w;
  (void)body.fields(w);
  return w.out.take();
}

template <typename Body>
bool decode(std::string_view bytes, Body& body) {
  field_reader r{cmd::byte_reader(bytes)};
  return body.fields(r) && r.in.exhausted();
}

/// Per-append batch bounds: cap entries and bytes well under the 1 MiB
/// frame limit so the envelope always fits.
constexpr std::size_t max_batch_entries = 256;
constexpr std::size_t max_batch_bytes = 128 * 1024;

/// Room the snapshot envelope needs inside one frame besides the bytes.
constexpr std::size_t snapshot_envelope_slack = 512;

}  // namespace

std::string_view to_string(role r) {
  switch (r) {
    case role::follower: return "follower";
    case role::candidate: return "candidate";
    case role::primary: return "primary";
  }
  return "unknown";
}

core::core(cluster_config config, svc::service& service, vote_record vote,
           vote_writer writer, std::uint64_t now_ms)
    : config_(std::move(config)),
      service_(service),
      write_vote_(std::move(writer)),
      term_(vote.term),
      voted_for_(vote.voted_for),
      rng_(config_.seed ^
           (0x9E3779B97F4A7C15ull *
            static_cast<std::uint64_t>(config_.self + 1))) {
  const auto config_error = config_.validate();
  ELECT_CHECK_MSG(!config_error.has_value(), config_error.value_or(""));
  for (int m = 0; m < static_cast<int>(config_.members.size()); ++m) {
    if (m != config_.self) peers_.push_back(peer_progress{.member = m});
  }
  // The drain cursor makes the registry record; from here on only a
  // quorum commit (or an installed snapshot) lets observers read on.
  drain_ = service_.registry().open_cursor();
  service_.registry().commit_manually();
  // Every member boots as a follower: its registry originates no
  // mutation (no grant, no release, no lease expiry) until it wins a
  // term.
  service_.registry().set_replica(true);
  reset_election_deadline(now_ms);
}

core::~core() { service_.registry().close_cursor(drain_); }

// --- Role transitions ---------------------------------------------------

void core::reset_election_deadline(std::uint64_t now_ms) {
  std::uniform_int_distribution<std::uint64_t> pick(
      config_.election_timeout_min_ms, config_.election_timeout_max_ms);
  election_deadline_ms_ = now_ms + pick(rng_);
}

effects core::step_down(std::uint64_t new_term, std::uint64_t now_ms) {
  const bool was_primary = role_ == role::primary;
  if (was_primary) {
    // Only a primary originates mutations. The switch takes every shard
    // lock, so each live mutation in flight lands before it — and is
    // drained below — or is refused after it: nothing a client, the
    // sweeper or a disconnect reclaim does from here on can run the
    // registry ahead of the log.
    service_.registry().set_replica(true);
    // Ship any live-applied commands not drained yet, while term_ is
    // still the term they were executed under. This keeps log ==
    // registry at last_index across the demotion, so applied_index_
    // stays truthful: a later append that would truncate below it is a
    // real divergence (the registry is rebuilt), and a later
    // re-promotion can keep the suffix without re-applying it.
    (void)drain_log();
  }
  if (new_term > term_) {
    term_ = new_term;
    voted_for_ = -1;
    leader_ = -1;
    // Not voting in the new term needs no record: a lost write leaves an
    // older, equally binding one.
    (void)write_vote_({term_, -1});
  }
  if (role_ != role::follower) ++counters_.step_downs;
  role_ = role::follower;
  if (was_primary) {
    // Parked acquirers re-check too: a follower's epochs will not move
    // for them, so they must go answer not_primary. The wakes only
    // hand off.
    service_.registry().wake_all();
  }
  reset_election_deadline(now_ms);
  // Gate waiters must bail: a deposed primary cannot ack anything.
  return {.commit = true};
}

effects core::start_election(std::uint64_t now_ms) {
  // The cluster-scope test-and-set attempt: burn a fresh term, vote for
  // self (one-shot, recorded), solicit the rest.
  ++term_;
  voted_for_ = -1;
  leader_ = -1;
  role_ = role::follower;
  reset_election_deadline(now_ms);
  if (!write_vote_({term_, config_.self})) {
    // A vote for self that would not survive a restart must not be
    // counted: the restarted member could hand this term to a rival.
    return {};
  }
  role_ = role::candidate;
  voted_for_ = config_.self;
  votes_ = 1;
  ++counters_.elections_started;
  if (votes_ >= config_.quorum()) return become_primary();
  return {.send = true};
}

effects core::become_primary() {
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
  apply_through(log_.last_index(), /*committed=*/false);
  ELECT_CHECK_MSG(!needs_install_,
                  "promotion: registry diverged from this member's own log");
  // Barrier entry: asserts the new term at the log head, so this log
  // wins up-to-date comparisons against any deposed primary's stale
  // suffix, and gives heartbeats something to commit immediately —
  // and with it the whole inherited suffix (the current-term guard in
  // advance_commit is what makes committing it safe).
  cmd::log_entry barrier;
  barrier.term = term_;
  barrier.change.shard = -1;
  log_.append(std::move(barrier));
  for (peer_progress& p : peers_) {
    p.next_index = log_.last_index();
    p.match_index = 0;
    p.force_snapshot = false;
    p.due_ms = 0;
  }
  // Originate again, then fence. fence_all takes every shard lock and
  // hands parked acquirers their wakes; the drain ships its
  // epoch_bumped commands next. The suffix applied above was replayed,
  // not logged, so it never re-ships.
  service_.registry().set_replica(false);
  (void)service_.registry().fence_all(config_.fence_bump);
  (void)drain_log();
  return {.send = true, .commit = advance_commit()};
}

// --- The drain: registry command log -> replicated log ------------------

bool core::drain_log() {
  std::vector<cmd::command> fresh;
  service_.registry().read_cursor(drain_, -1, /*committed_only=*/false, fresh);
  if (fresh.empty()) return false;
  for (cmd::command& c : fresh) {
    cmd::log_entry e;
    e.term = term_;
    e.change = std::move(c);
    log_.append(std::move(e));
  }
  // Drained commands were already executed by the live registry; the
  // log has just caught up to it.
  applied_index_ = log_.last_index();
  return true;
}

bool core::advance_commit() {
  if (role_ != role::primary) return false;
  std::vector<std::uint64_t> matches;
  matches.reserve(peers_.size() + 1);
  matches.push_back(log_.last_index());
  for (const peer_progress& p : peers_) matches.push_back(p.match_index);
  std::sort(matches.begin(), matches.end(), std::greater<>());
  const std::uint64_t candidate =
      matches[static_cast<std::size_t>(config_.quorum() - 1)];
  if (candidate <= commit_index_) return false;
  // Only entries of the current term commit by counting (the classic
  // Raft guard). This is what makes keeping the inherited suffix at
  // promotion safe: old-term entries never commit on their own — they
  // commit as the prefix of the first current-term entry (the
  // promotion barrier) that reaches a quorum.
  if (log_.term_at(candidate) != term_) return false;
  for (std::uint64_t i = commit_index_ + 1; i <= candidate; ++i) {
    if (i < log_.first_index()) continue;  // compacted: long committed
    const cmd::command& c = log_.at(i).change;
    if (c.shard >= 0) service_.registry().commit_through(c.shard, c.seq);
  }
  commit_index_ = candidate;
  // The primary's registry is already ahead of the log (live path);
  // committed entries are never re-applied here.
  applied_index_ = std::max(applied_index_, commit_index_);
  return true;
}

effects core::drain() {
  if (role_ != role::primary) return {};
  const bool drained = drain_log();
  // Single-member clusters commit right here.
  return {.send = drained, .commit = advance_commit()};
}

void core::maybe_compact() {
  if (log_.size() < config_.compact_threshold) return;
  // Once everything applied is committed, the registry state IS the
  // log at commit_index_ and its snapshot is the compacted prefix: on
  // the primary when the log is quiescent, on a follower (which applies
  // only committed entries) whenever it has caught up. A deposed primary
  // holding entries it applied live but never committed waits.
  // trim_log moves the registry's history past them; the drain cursor
  // keeps anything not yet shipped.
  if (needs_install_ || applied_index_ != commit_index_) return;
  // A primary keeps what a reachable follower still lacks: compacting
  // it away would cost that follower a snapshot install for trailing by
  // one append. The snapshot may then run ahead of the index it
  // replaces; the entries in between re-apply as no-ops (the seq filter
  // in apply_through).
  std::uint64_t through = commit_index_;
  if (role_ == role::primary) {
    for (const peer_progress& p : peers_) {
      if (p.reachable) through = std::min(through, p.match_index);
    }
  }
  if (through <= log_.snapshot_last_index()) return;
  auto bytes = service_.registry().snapshot(/*trim_log=*/true);
  log_.compact_to(through, log_.term_at(through), std::move(bytes));
  ++counters_.compactions;
}

effects core::tick(std::uint64_t now_ms) {
  if (role_ == role::primary) {
    // Drain on a timer too, so mutations with no client waiting on them
    // (expiry sweeps, watch-visible transitions) replicate promptly.
    const effects fx = drain();
    maybe_compact();
    return fx;
  }
  if (now_ms < election_deadline_ms_) {
    maybe_compact();
    return {};
  }
  if (needs_install_) {
    // A diverged registry must not stand for election: if it won, it
    // would serve state the cluster discarded. Whoever deposed this
    // member had a quorum at a term >= our stale suffix, so some healthy
    // peer can always win instead and reinstall us.
    reset_election_deadline(now_ms);
    return {};
  }
  return start_election(now_ms);
}

// --- The sending side: votes, appends, snapshots ------------------------

std::optional<outbound> core::next_message(std::size_t k,
                                           std::uint64_t now_ms) {
  peer_progress& p = peers_[k];
  if (role_ == role::candidate && p.vote_term != term_) {
    p.vote_term = term_;
    vote_request_body ask{.term = term_,
                          .candidate = config_.self,
                          .last_log_index = log_.last_index(),
                          .last_log_term = log_.last_term()};
    return outbound{.kind = op::peer_vote, .body = encode(ask), .term = term_};
  }
  if (role_ != role::primary) return std::nullopt;
  const bool behind = p.force_snapshot || p.next_index <= log_.last_index();
  // Caught up: the next empty append (the heartbeat) waits for its due
  // time; after a failure so does everything else, so a dead peer costs
  // one call per heartbeat instead of a spin on refused connections.
  if (now_ms < p.due_ms && (!behind || !p.reachable)) return std::nullopt;
  if (p.force_snapshot || p.next_index < log_.first_index()) {
    // One install attempt per heartbeat: a refused one is not retried
    // in a loop.
    if (now_ms < p.due_ms) return std::nullopt;
    return build_snapshot(p, now_ms);
  }
  append_request_body req{.term = term_,
                          .leader = config_.self,
                          .prev_index = p.next_index - 1,
                          .prev_term = log_.term_at(p.next_index - 1),
                          .leader_commit = commit_index_};
  std::size_t batch_bytes = 0;
  for (std::uint64_t i = p.next_index;
       i <= log_.last_index() && req.entries.size() < max_batch_entries &&
       batch_bytes < max_batch_bytes;
       ++i) {
    const cmd::log_entry& e = log_.at(i);
    batch_bytes += e.change.key.size() + 64;
    req.entries.push_back(e);
  }
  return outbound{.kind = op::peer_append,
                  .body = encode(req),
                  .term = term_,
                  .index = req.prev_index,
                  .count = req.entries.size()};
}

std::optional<outbound> core::build_snapshot(peer_progress& p,
                                             std::uint64_t now_ms) {
  // The follower takes the snapshot's index as committed, so only
  // committed state ships.
  snapshot_request_body snap{.term = term_, .leader = config_.self};
  if (!log_.snapshot_bytes().empty() &&
      log_.snapshot_last_index() + 1 >= p.next_index) {
    // The compacted prefix covers the gap; entries follow it.
    snap.last_index = log_.snapshot_last_index();
    snap.last_term = log_.snapshot_last_term();
    snap.bytes.assign(log_.snapshot_bytes().begin(),
                      log_.snapshot_bytes().end());
  } else {
    // Fresh snapshot at the log head: after a drain the registry state
    // IS the log at last_index (any mutation racing the snapshot lands
    // in later entries the follower's seq filter makes idempotent). It
    // waits until that head is committed.
    (void)drain_log();
    if (commit_index_ != log_.last_index()) {
      p.due_ms = now_ms + config_.heartbeat_ms;
      return std::nullopt;
    }
    const auto bytes = service_.registry().snapshot(/*trim_log=*/false);
    snap.last_index = log_.last_index();
    snap.last_term = log_.last_term();
    snap.bytes.assign(bytes.begin(), bytes.end());
  }
  if (snap.bytes.size() + snapshot_envelope_slack >
      net::wire::max_frame_bytes) {
    // Cannot ship this state in one frame; count it as a failed append
    // and retry at heartbeat pace rather than spinning.
    ++counters_.append_failures;
    p.reachable = false;
    p.due_ms = now_ms + config_.heartbeat_ms;
    return std::nullopt;
  }
  return outbound{.kind = op::peer_snapshot,
                  .body = encode(snap),
                  .term = term_,
                  .index = snap.last_index};
}

std::uint64_t core::next_wake(std::size_t k, std::uint64_t now_ms) const {
  if (role_ != role::primary) return now_ms + config_.heartbeat_ms * 4;
  return std::max(peers_[k].due_ms, now_ms + 1);
}

effects core::on_reply(std::size_t k, const outbound& sent,
                       const std::optional<net::wire::response>& reply,
                       std::uint64_t now_ms) {
  peer_progress& p = peers_[k];
  const bool vote = sent.kind == op::peer_vote;
  if (!vote) {
    if (sent.kind == op::peer_snapshot) ++counters_.snapshots_sent;
    else if (sent.count == 0) ++counters_.heartbeats_sent;
    else ++counters_.appends_sent;
    p.due_ms = now_ms + config_.heartbeat_ms;
  }
  p.reachable = reply.has_value() && reply->result == status::ok;
  if (!p.reachable) {
    if (!vote) ++counters_.append_failures;
    return {};
  }
  // A replication reply from an earlier term or role is stale news.
  if (!vote && (sent.term != term_ || role_ != role::primary)) return {};
  if (sent.kind == op::peer_append) {
    append_response_body r;
    if (!decode(reply->body, r)) return {};
    if (r.term > term_) return step_down(r.term, now_ms);
    if (r.need_snapshot) p.force_snapshot = true;
    if (r.success) {
      p.match_index = std::max(p.match_index, sent.index + sent.count);
      p.next_index = p.match_index + 1;
      counters_.entries_replicated += sent.count;
      return {.commit = advance_commit()};
    }
    if (!r.need_snapshot) {
      // Backtrack toward the follower's committed prefix (the hint); the
      // committed prefix always matches, so hint + 1 is a safe restart.
      const std::uint64_t fallback = p.next_index > 1 ? p.next_index - 1 : 1;
      p.next_index = std::max<std::uint64_t>(
          1, std::min(fallback, r.match_hint + 1));
    }
    return {};
  }
  verdict_body r;
  if (!decode(reply->body, r)) return {};
  if (r.term > term_) return step_down(r.term, now_ms);
  if (!r.ok || sent.term != term_) return {};
  if (vote) {
    if (role_ != role::candidate || ++votes_ < config_.quorum()) return {};
    return become_primary();
  }
  p.force_snapshot = false;
  p.match_index = std::max(p.match_index, sent.index);
  p.next_index = sent.index + 1;
  return {.commit = advance_commit()};
}

// --- Peer-op service (the follower/voter side) --------------------------

effects core::handle_peer(const net::wire::request& r, std::uint64_t now_ms,
                          net::wire::response& out) {
  out.id = r.id;
  out.kind = r.kind;
  out.result = status::ok;
  out.body.clear();
  effects fx;
  vote_request_body vote;
  append_request_body append;
  snapshot_request_body snapshot;
  if (r.kind == op::peer_vote && decode(r.body, vote)) {
    fx = handle_vote(vote, now_ms, out.body);
  } else if (r.kind == op::peer_append && decode(r.body, append)) {
    fx = handle_append(append, now_ms, out.body);
  } else if (r.kind == op::peer_snapshot && decode(r.body, snapshot)) {
    fx = handle_snapshot(snapshot, now_ms, out.body);
  } else {
    out.result = status::bad_request;
  }
  return fx;
}

effects core::handle_vote(const vote_request_body& q, std::uint64_t now_ms,
                          std::string& reply) {
  effects fx;
  if (q.term > term_) fx = step_down(q.term, now_ms);
  verdict_body v{.term = term_};
  // The log-up-to-date check: a winner must already hold every
  // committed entry, or replication could roll back acked grants.
  const bool up_to_date =
      q.last_log_term > log_.last_term() ||
      (q.last_log_term == log_.last_term() &&
       q.last_log_index >= log_.last_index());
  if (q.term == term_ && up_to_date &&
      (voted_for_ == q.candidate ||
       (voted_for_ == -1 && write_vote_({term_, q.candidate})))) {
    v.ok = true;
    voted_for_ = q.candidate;
    reset_election_deadline(now_ms);
  }
  reply = encode(v);
  return fx;
}

effects core::handle_append(const append_request_body& q,
                            std::uint64_t now_ms, std::string& reply) {
  append_response_body a{.term = term_};
  // Two primaries in one term is impossible (one vote per member per
  // term); a primary refuses its own term defensively rather than
  // corrupt state.
  if (q.term < term_ || (q.term == term_ && role_ == role::primary)) {
    reply = encode(a);
    return {};
  }
  effects fx;
  if (q.term > term_) fx = step_down(q.term, now_ms);
  role_ = role::follower;
  leader_ = q.leader;
  reset_election_deadline(now_ms);
  a.term = term_;
  a.match_hint = commit_index_;
  if (needs_install_) {
    a.need_snapshot = true;
    reply = encode(a);
    return fx;
  }
  // A prev_index inside the compacted prefix matches by construction:
  // that prefix is committed, and every later primary holds it.
  if (q.prev_index > log_.last_index() ||
      (q.prev_index >= log_.snapshot_last_index() &&
       log_.term_at(q.prev_index) != q.prev_term)) {
    // Log mismatch: hint the committed prefix (always shared) so the
    // primary backtracks in one step instead of one index at a time.
    reply = encode(a);
    return fx;
  }
  for (std::size_t k = 0; k < q.entries.size(); ++k) {
    const std::uint64_t idx = q.prev_index + 1 + k;
    if (idx < log_.first_index()) continue;  // compacted: committed
    if (idx <= log_.last_index()) {
      if (log_.term_at(idx) == q.entries[k].term) continue;  // already have
      // Conflict below the apply watermark: this registry executed
      // entries the cluster discarded (a deposed primary's live-applied
      // tail). Rebuild it from this member's committed state first; a
      // conflict at or below the commit point cannot be healed here.
      if (idx <= applied_index_ && (!rebuild() || idx <= applied_index_)) {
        needs_install_ = true;
        a.need_snapshot = true;
        reply = encode(a);
        return fx;
      }
      log_.truncate_from(idx);  // a deposed primary's tail: discard
    }
    log_.append(q.entries[k]);
  }
  // Commit only what this append proved to match the primary's log: a
  // stale suffix past the batch (a deposed primary's tail that no
  // conflict has truncated yet) may sit below leader_commit.
  const std::uint64_t proven = q.prev_index + q.entries.size();
  if (std::min(q.leader_commit, proven) > commit_index_) {
    commit_index_ = std::min(q.leader_commit, proven);
    apply_through(commit_index_, /*committed=*/true);
    fx.commit = true;
  }
  a.success = true;
  a.match_hint = q.prev_index + q.entries.size();
  a.need_snapshot = needs_install_;  // apply may have hit a seq gap
  reply = encode(a);
  return fx;
}

void core::apply_through(std::uint64_t bound, bool committed) {
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

bool core::rebuild() {
  // This member's committed state: its compacted prefix (compaction and
  // installs only ever hold committed state), or the empty registry
  // when the log still starts at index 1; then its log to the commit
  // index.
  std::vector<std::uint8_t> base = log_.snapshot_bytes();
  if (base.empty()) {
    base = cmd::encode_snapshot(
        cmd::snapshot_data{.shards = std::vector<cmd::snapshot_shard>(
                               static_cast<std::size_t>(
                                   service_.registry().shard_count()))});
  }
  if (service_.registry().install_snapshot(base).has_value()) return false;
  applied_index_ = log_.snapshot_last_index();
  needs_install_ = false;
  apply_through(commit_index_, /*committed=*/true);
  return !needs_install_;
}

effects core::handle_snapshot(const snapshot_request_body& q,
                              std::uint64_t now_ms, std::string& reply) {
  verdict_body v{.term = term_};
  if (q.term < term_ || (q.term == term_ && role_ == role::primary)) {
    reply = encode(v);
    return {};
  }
  effects fx;
  if (q.term > term_) fx = step_down(q.term, now_ms);
  role_ = role::follower;
  leader_ = q.leader;
  reset_election_deadline(now_ms);
  v.term = term_;
  if (q.last_index < commit_index_) {
    // Older than what this member already committed (a late request):
    // installing it would drop committed entries from the log, and with
    // them this member's part in every quorum that holds them. A healthy
    // member already has it; a diverged one waits for a fresher one.
    v.ok = !needs_install_;
    reply = encode(v);
    return fx;
  }
  std::vector<std::uint8_t> bytes(q.bytes.begin(), q.bytes.end());
  // Shard-count mismatch or corruption: refusing leaves the primary
  // retrying, which is the observable we want for a misconfigured
  // member.
  if (!service_.registry().install_snapshot(bytes).has_value()) {
    log_.reset_to(q.last_index, q.last_term, std::move(bytes));
    commit_index_ = q.last_index;
    applied_index_ = q.last_index;
    needs_install_ = false;
    ++counters_.snapshots_installed;
    v.ok = true;
    fx.commit = true;
  }
  reply = encode(v);
  return fx;
}

}  // namespace elect::repl
