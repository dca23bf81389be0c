#include "repl/core.hpp"

#include <algorithm>
#include <utility>

#include "common/bytes.hpp"
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
// drift. Encoding is common/bytes.hpp's: little-endian, bounds-checked,
// trailing bytes rejected.

/// A run of encoded log entries (cmd::encode_entry): what an append
/// carries, encoded in place from the sender's log. The receiver
/// validates the whole run when the body decodes, then decodes each
/// entry again as it appends it to its own log.
struct entry_batch {
  std::uint32_t count = 0;
  std::string bytes{};
};

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
  entry_batch entries{};
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
  byte_writer<std::string> out;
  // Writes cannot fail; returning true keeps one fields() list for both.
  bool operator()(std::uint64_t v) { out.u64(v); return true; }
  bool operator()(std::int32_t v) { out.i32(v); return true; }
  bool operator()(bool v) { out.u8(v ? 1 : 0); return true; }
  bool operator()(const std::string& v) { out.str(v); return true; }
  bool operator()(const entry_batch& b) {
    out.u32(b.count);
    out.bytes(b.bytes);
    return true;
  }
};

/// A batch count beyond this is a malformed body, not a real append: an
/// append carries at most max_batch_entries, and a hostile length
/// prefix must not drive the decode.
constexpr std::uint32_t max_wire_entries = 1u << 16;

struct field_reader {
  byte_reader in;
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
  bool operator()(entry_batch& b) {
    if (!in.u32(b.count) || b.count > max_wire_entries) return false;
    // Validate every entry now, so a malformed body changes nothing;
    // the receiver decodes the kept bytes again as it appends.
    const std::uint8_t* start = in.position();
    cmd::log_entry scratch;
    for (std::uint32_t k = 0; k < b.count; ++k) {
      if (!cmd::decode_entry(in, scratch, net::wire::max_key_bytes)) {
        return false;
      }
    }
    b.bytes.assign(reinterpret_cast<const char*>(start),
                   static_cast<std::size_t>(in.position() - start));
    return true;
  }
};

template <typename Body>
std::string encode(Body& body) {
  std::string bytes;
  field_writer w{byte_writer(bytes)};
  (void)body.fields(w);
  return bytes;
}

template <typename Body>
bool decode(std::string_view bytes, Body& body) {
  field_reader r{byte_reader(bytes)};
  return body.fields(r) && r.in.exhausted();
}

/// Per-append batch bounds: cap entries and bytes well under the 1 MiB
/// frame limit so the envelope always fits.
constexpr std::size_t max_batch_entries = 256;
static_assert(max_batch_entries <= max_wire_entries);
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
      registry_(service.registry()),
      log_(registry_.log()),
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
  // From here on only a quorum commit (or an installed snapshot) lets
  // observers read on; the core's cursor makes the registry record, and
  // the state right now is the first base.
  log_.commit_manually();
  cursor_ = log_.open_cursor();
  base_ = registry_.snapshot_cut();
  // Every member boots as a follower: its registry originates no
  // mutation (no grant, no release, no lease expiry) until it wins a
  // term.
  registry_.set_replica(true);
  reset_election_deadline(now_ms);
}

core::~core() { log_.close_cursor(cursor_); }

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
    // lock, so each live mutation in flight lands in the log before it —
    // under the term it executed in — or is refused after it: nothing a
    // client, the sweeper or a disconnect reclaim does from here on can
    // run the registry ahead of the log.
    registry_.set_replica(true);
    // A pending cut may cover entries that never commit.
    pending_.reset();
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
    registry_.wake_all();
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
  // not have committed — execute them exactly as the live path would
  // have, and let the new-term barrier below commit them by
  // replication. An unacked grant in the suffix belongs to a session
  // that died with the old primary, so the TTL plus the fence jump
  // retire it; an acked one is preserved — never silently re-granted
  // from epoch 0.
  apply_through(log_.last_index());
  ELECT_CHECK_MSG(!needs_install_,
                  "promotion: registry diverged from this member's own log");
  // Barrier entry: asserts the new term at the log head, so this log
  // wins up-to-date comparisons against any deposed primary's stale
  // suffix, and gives heartbeats something to commit immediately —
  // and with it the whole inherited suffix (the current-term guard in
  // advance_commit is what makes committing it safe).
  log_.append({.term = term_, .change = {}});
  log_.mark_applied(log_.last_index());
  for (peer_progress& p : peers_) {
    p.next_index = log_.last_index();
    p.match_index = 0;
    p.force_snapshot = false;
    p.due_ms = 0;
  }
  // Originate again, at this term, then fence. fence_all takes every
  // shard lock and hands parked acquirers their wakes; its
  // epoch_bumped commands land in the log like any live mutation.
  registry_.set_replica(false, term_);
  (void)registry_.fence_all(config_.fence_bump);
  return {.send = true, .commit = advance_commit()};
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
  if (candidate <= log_.commit_index()) return false;
  // Only entries of the current term commit by counting (the classic
  // Raft guard). This is what makes keeping the inherited suffix at
  // promotion safe: old-term entries never commit on their own — they
  // commit as the prefix of the first current-term entry (the
  // promotion barrier) that reaches a quorum.
  if (log_.term_at(candidate) != term_) return false;
  log_.commit_to(candidate);
  return true;
}

effects core::replicate() {
  if (role_ != role::primary) return {};
  const std::uint64_t last = log_.last_index();
  const bool behind =
      std::any_of(peers_.begin(), peers_.end(),
                  [last](const peer_progress& p) { return p.next_index <= last; });
  // Single-member clusters commit right here.
  return {.send = behind, .commit = advance_commit()};
}

void core::maybe_compact() {
  if (needs_install_) return;
  if (!pending_.has_value()) {
    // A follower executes only committed entries, so it cuts only at
    // its commit point; a deposed primary holding entries it executed
    // live but never committed waits.
    const std::uint64_t applied = applied_index();
    if (applied < base_.index + config_.compact_threshold) return;
    if (role_ != role::primary && applied != log_.commit_index()) return;
    pending_ = registry_.snapshot_cut();
  }
  if (pending_->index > log_.commit_index()) return;
  // A primary keeps what a reachable follower still lacks: compacting
  // it away would cost that follower a snapshot install for trailing by
  // one append.
  if (role_ == role::primary) {
    for (const peer_progress& p : peers_) {
      if (p.reachable && p.match_index < pending_->index) return;
    }
  }
  base_ = std::move(*pending_);
  pending_.reset();
  log_.advance_cursor(cursor_, base_.index);
  if (registry_.command_log_enabled()) {
    log_.advance_cursor(registry_.history_cursor(), base_.index);
  }
  ++counters_.compactions;
}

effects core::tick(std::uint64_t now_ms) {
  if (role_ == role::primary) {
    // Replicate on a timer too, so mutations with no client waiting on
    // them (expiry sweeps, a disconnect's reclaims) ship promptly.
    const effects fx = replicate();
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
  if (p.force_snapshot || p.next_index <= base_.index) {
    // One install attempt per heartbeat: a refused one is not retried
    // in a loop.
    if (now_ms < p.due_ms) return std::nullopt;
    return build_snapshot(p, now_ms);
  }
  append_request_body req{.term = term_,
                          .leader = config_.self,
                          .prev_index = p.next_index - 1,
                          .prev_term = log_.term_at(p.next_index - 1),
                          .leader_commit = log_.commit_index()};
  req.entries.count = log_.encode(p.next_index, max_batch_entries,
                                  max_batch_bytes, req.entries.bytes);
  return outbound{.kind = op::peer_append,
                  .body = encode(req),
                  .term = term_,
                  .index = req.prev_index,
                  .count = req.entries.count};
}

std::optional<outbound> core::build_snapshot(peer_progress& p,
                                             std::uint64_t now_ms) {
  // The follower takes the snapshot's index as committed, so only
  // committed state ships, and entries must be able to follow it: the
  // base, or a pending cut once it commits. With neither, cut one now
  // (unless one is still on its way to commit) and ship it once it
  // commits.
  const std::uint64_t commit = log_.commit_index();
  const auto covers = [&p](const svc::log_snapshot& s) {
    return s.index + 1 >= p.next_index;
  };
  const bool pending_ready =
      pending_.has_value() && pending_->index <= commit;
  const svc::log_snapshot* snap = nullptr;
  if (covers(base_)) {
    snap = &base_;
  } else if (pending_ready && covers(*pending_)) {
    snap = &*pending_;
  } else {
    if (!pending_.has_value() || pending_ready) {
      pending_ = registry_.snapshot_cut();
    }
    p.due_ms = now_ms + config_.heartbeat_ms;
    return std::nullopt;
  }
  if (snap->bytes.size() + snapshot_envelope_slack >
      net::wire::max_frame_bytes) {
    // Cannot ship this state in one frame; count it as a failed append
    // and retry at heartbeat pace rather than spinning.
    ++counters_.append_failures;
    p.reachable = false;
    p.due_ms = now_ms + config_.heartbeat_ms;
    return std::nullopt;
  }
  snapshot_request_body body{.term = term_,
                             .leader = config_.self,
                             .last_index = snap->index,
                             .last_term = snap->term,
                             .bytes = std::string(snap->bytes.begin(),
                                                  snap->bytes.end())};
  return outbound{.kind = op::peer_snapshot,
                  .body = encode(body),
                  .term = term_,
                  .index = snap->index};
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
  const std::uint64_t last_term = log_.last_term();
  const bool up_to_date =
      q.last_log_term > last_term ||
      (q.last_log_term == last_term &&
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
  a.match_hint = log_.commit_index();
  if (needs_install_) {
    a.need_snapshot = true;
    reply = encode(a);
    return fx;
  }
  // A prev_index inside the compacted prefix matches by construction:
  // that prefix is committed, and every later primary holds it.
  if (q.prev_index > log_.last_index() ||
      (q.prev_index >= base_.index &&
       log_.term_at(q.prev_index) != q.prev_term)) {
    // Log mismatch: hint the committed prefix (always shared) so the
    // primary backtracks in one step instead of one index at a time.
    reply = encode(a);
    return fx;
  }
  byte_reader in(q.entries.bytes);
  for (std::uint32_t k = 0; k < q.entries.count; ++k) {
    cmd::log_entry e;
    (void)cmd::decode_entry(in, e, net::wire::max_key_bytes);  // validated
    const std::uint64_t idx = q.prev_index + 1 + k;
    if (idx <= base_.index) continue;  // compacted: committed
    if (idx <= log_.last_index()) {
      if (log_.term_at(idx) == e.term) continue;  // already have
      // Conflict below the applied index: this registry executed
      // entries the cluster discarded (a deposed primary's live-applied
      // tail). Rebuild it from this member's committed state first; a
      // conflict at or below the commit point cannot be healed here.
      if (idx <= applied_index() &&
          (!rebuild() || idx <= applied_index())) {
        needs_install_ = true;
        a.need_snapshot = true;
        reply = encode(a);
        return fx;
      }
      log_.truncate_from(idx);  // a deposed primary's tail: discard
    }
    log_.append(std::move(e));
  }
  // Commit only what this append proved to match the primary's log: a
  // stale suffix past the batch (a deposed primary's tail that no
  // conflict has truncated yet) may sit below leader_commit.
  const std::uint64_t proven = q.prev_index + q.entries.count;
  const std::uint64_t commit = std::min(q.leader_commit, proven);
  if (commit > log_.commit_index()) {
    apply_through(commit);
    log_.commit_to(commit);
    fx.commit = true;
  }
  a.success = true;
  a.match_hint = proven;
  a.need_snapshot = needs_install_;  // apply may have hit a seq gap
  reply = encode(a);
  return fx;
}

void core::apply_through(std::uint64_t bound) {
  for (std::uint64_t next = applied_index() + 1;
       next <= bound && !needs_install_; ++next) {
    if (registry_.apply_entry(next).has_value()) needs_install_ = true;
  }
}

bool core::rebuild() {
  // This member's committed state: its base (compaction and installs
  // only ever hold committed state), then its log to the commit index.
  if (registry_.install_snapshot(base_, /*keep_log=*/true).has_value()) {
    return false;
  }
  needs_install_ = false;
  apply_through(log_.commit_index());
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
  if (q.last_index < log_.commit_index()) {
    // Older than what this member already committed (a late request):
    // installing it would drop committed entries from the log, and with
    // them this member's part in every quorum that holds them. A healthy
    // member already has it; a diverged one waits for a fresher one.
    v.ok = !needs_install_;
    reply = encode(v);
    return fx;
  }
  svc::log_snapshot cut{
      .bytes = std::vector<std::uint8_t>(q.bytes.begin(), q.bytes.end()),
      .index = q.last_index,
      .term = q.last_term};
  // Shard-count mismatch or corruption: refusing leaves the primary
  // retrying, which is the observable we want for a misconfigured
  // member. The install rebases the log: every cursor — this core's,
  // the feed's, the history — resumes past the installed index.
  if (!registry_.install_snapshot(cut).has_value()) {
    base_ = std::move(cut);
    needs_install_ = false;
    ++counters_.snapshots_installed;
    v.ok = true;
    fx.commit = true;
  }
  reply = encode(v);
  return fx;
}

}  // namespace elect::repl
