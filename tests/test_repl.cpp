// elect::repl tests: cluster config parsing/validation and quorum
// thresholds, the command log the cluster replicates, the new wire
// statuses (not_primary / connection_lost)
// and peer ops, the follower side of replication driven directly
// through handle_peer (append/commit/apply, conflicting-tail
// truncation, replay-rejection forcing a snapshot request, snapshot
// install healing a seq gap, one-shot votes with the log-up-to-date
// check, malformed bodies refused, a vote that cannot be recorded
// refused, an unreadable vote file stopping construction), and full
// in-process clusters over loopback: single-primary election,
// redirect-following clients, epoch-fenced failover with a held lease,
// a late follower catching up via snapshot + suffix, an unconfirmable
// grant being revoked (and never reaching a watcher or the journal), a
// follower's watchers seeing what committed through the primary, a
// primary without a quorum stopping at once, a step-down answering a
// parked acquire not_primary, compaction racing live commands without
// dropping one, followers compacting their own logs and still winning
// a failover, and an unresponsive member unable to stall elections. The seeded single-threaded simulation of the
// same protocol lives in test_repl_sim.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "cmd/command.hpp"
#include "cmd/log.hpp"
#include "common/bytes.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "repl/config.hpp"
#include "repl/node.hpp"
#include "svc/service.hpp"

namespace elect {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------
// Cluster configuration.

TEST(ReplConfig, ParseEndpointAcceptsHostPortRejectsMalformed) {
  const auto good = repl::parse_endpoint("10.0.0.7:7400");
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->host, "10.0.0.7");
  EXPECT_EQ(good->port, 7400);
  EXPECT_EQ(good->to_string(), "10.0.0.7:7400");

  EXPECT_FALSE(repl::parse_endpoint("no-colon").has_value());
  EXPECT_FALSE(repl::parse_endpoint(":7400").has_value());
  EXPECT_FALSE(repl::parse_endpoint("host:").has_value());
  EXPECT_FALSE(repl::parse_endpoint("host:0").has_value());
  EXPECT_FALSE(repl::parse_endpoint("host:65536").has_value());
  EXPECT_FALSE(repl::parse_endpoint("host:7x0").has_value());
}

TEST(ReplConfig, ParseEndpointsSplitsListAndRejectsFirstBadElement) {
  const auto list = repl::parse_endpoints("a:1,b:2,c:3");
  ASSERT_TRUE(list.has_value());
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[1].to_string(), "b:2");

  EXPECT_FALSE(repl::parse_endpoints("a:1,broken,c:3").has_value());
  const auto empty = repl::parse_endpoints("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(ReplConfig, ValidateCatchesEachMisconfiguration) {
  repl::cluster_config good;
  good.members = {{"a", 1}, {"b", 2}, {"c", 3}};
  good.self = 1;
  EXPECT_FALSE(good.validate().has_value());
  EXPECT_EQ(good.quorum(), 2);

  repl::cluster_config c = good;
  c.members.clear();
  EXPECT_TRUE(c.validate().has_value());

  c = good;
  c.self = 3;
  EXPECT_TRUE(c.validate().has_value());

  c = good;
  c.fence_bump = 0;
  EXPECT_TRUE(c.validate().has_value());

  c = good;
  c.election_timeout_min_ms = c.heartbeat_ms * 2;  // must strictly exceed
  EXPECT_TRUE(c.validate().has_value());

  c = good;
  c.election_timeout_max_ms = c.election_timeout_min_ms - 1;
  EXPECT_TRUE(c.validate().has_value());

  // --cluster A,A,B: A would count its own vote and ack twice, so the
  // "three members" would really be two.
  c = good;
  c.members = {{"a", 1}, {"a", 1}, {"b", 2}};
  EXPECT_TRUE(c.validate().has_value());
}

// A quorum is a strict majority: for n = 1..7 members it is 1, 2, 2, 3,
// 3, 4, 4, and any two quorums share a member (2q > n), which is what
// makes one vote per member per term elect at most one primary.
TEST(ReplConfig, QuorumIsAMajorityAndAnyTwoQuorumsIntersect) {
  const int expected[] = {1, 2, 2, 3, 3, 4, 4};
  for (int n = 1; n <= 7; ++n) {
    repl::cluster_config c;
    for (int m = 0; m < n; ++m) {
      c.members.push_back({"10.0.0.1", static_cast<std::uint16_t>(7400 + m)});
    }
    ASSERT_FALSE(c.validate().has_value()) << n;
    const int q = c.quorum();
    EXPECT_EQ(q, expected[n - 1]) << n << " members";
    EXPECT_GT(2 * q, n) << n << " members: two quorums could be disjoint";
    EXPECT_LE(q, n) << n << " members: a quorum larger than the cluster";
  }
}

// ---------------------------------------------------------------------
// The command log the cluster replicates (cmd::command_log).

cmd::log_entry entry_at_term(std::uint64_t term) {
  cmd::log_entry e;
  e.term = term;
  return e;
}

TEST(ReplLog, AppendTruncateAndTermQueries) {
  cmd::command_log log;
  EXPECT_EQ(log.last_index(), 0u);
  EXPECT_EQ(log.first_index(), 1u);

  log.append(entry_at_term(1));
  log.append(entry_at_term(1));
  log.append(entry_at_term(2));
  EXPECT_EQ(log.last_index(), 3u);
  EXPECT_EQ(log.term_at(2), 1u);
  EXPECT_EQ(log.term_at(3), 2u);
  EXPECT_EQ(log.last_term(), 2u);
  EXPECT_EQ(log.term_at(4), 0u);  // past the end

  std::string batch;
  EXPECT_EQ(log.encode(2, 256, 1 << 20, batch), 2u);
  byte_reader in(batch);
  cmd::log_entry e;
  ASSERT_TRUE(cmd::decode_entry(in, e, 1024));
  EXPECT_EQ(e.term, 1u);
  ASSERT_TRUE(cmd::decode_entry(in, e, 1024));
  EXPECT_EQ(e.term, 2u);
  EXPECT_TRUE(in.exhausted());

  log.truncate_from(3);
  EXPECT_EQ(log.last_index(), 2u);
  EXPECT_EQ(log.last_term(), 1u);
  log.truncate_from(10);  // no-op past the end
  EXPECT_EQ(log.last_index(), 2u);
}

TEST(ReplLog, CursorsCompactThePrefixAndRebaseRestarts) {
  cmd::command_log log;
  log.commit_manually();
  const std::uint64_t cursor = log.open_cursor();
  for (int i = 0; i < 4; ++i) log.append(entry_at_term(1));

  // The prefix leaves once every cursor has passed it; the boundary
  // keeps its term.
  log.advance_cursor(cursor, 2);
  EXPECT_EQ(log.first_index(), 3u);
  EXPECT_EQ(log.last_index(), 4u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.term_at(2), 1u);
  EXPECT_EQ(log.term_at(1), 0u);  // below it is gone
  EXPECT_FALSE(log.entry(2).has_value());
  EXPECT_TRUE(log.entry(3).has_value());

  log.truncate_from(1);  // at-or-below the boundary: only entries drop
  EXPECT_EQ(log.last_index(), 2u);
  EXPECT_EQ(log.size(), 0u);

  log.rebase(10, 4);
  EXPECT_EQ(log.last_index(), 10u);
  EXPECT_EQ(log.last_term(), 4u);
  EXPECT_EQ(log.commit_index(), 10u);
  EXPECT_EQ(log.applied().first, 10u);
  EXPECT_EQ(log.size(), 0u);
  log.close_cursor(cursor);
}

// ---------------------------------------------------------------------
// Wire: the cluster-era statuses and peer ops survive the codec.

TEST(ReplWire, ConnectionLostStatusRoundTrips) {
  net::wire::response r;
  r.id = 11;
  r.kind = net::wire::op::try_acquire;
  r.result = net::wire::status::connection_lost;
  const auto frame = net::wire::encode_response(r);
  const std::vector<std::uint8_t> body(frame.begin() + 4, frame.end());
  const auto decoded = net::wire::decode_response(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->result, net::wire::status::connection_lost);
}

TEST(ReplWire, NotPrimaryRedirectCarriesTheEndpointHint) {
  net::wire::response r;
  r.id = 12;
  r.kind = net::wire::op::renew;
  r.result = net::wire::status::not_primary;
  r.body = "10.1.2.3:7410";
  const auto frame = net::wire::encode_response(r);
  const std::vector<std::uint8_t> body(frame.begin() + 4, frame.end());
  const auto decoded = net::wire::decode_response(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->result, net::wire::status::not_primary);
  EXPECT_EQ(decoded->body, "10.1.2.3:7410");
}

TEST(ReplWire, PeerOpsRoundTripWithOpaqueBodies) {
  for (const auto kind : {net::wire::op::peer_vote, net::wire::op::peer_append,
                          net::wire::op::peer_snapshot}) {
    net::wire::request r;
    r.id = 99;
    r.kind = kind;
    r.body = std::string("\x01\x02\x03\xFF", 4);
    const auto frame = net::wire::encode_request(r);
    const std::vector<std::uint8_t> body(frame.begin() + 4, frame.end());
    const auto decoded = net::wire::decode_request(body);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->kind, kind);
    EXPECT_EQ(decoded->body, r.body);
  }
}

// ---------------------------------------------------------------------
// The follower side of replication, driven directly through
// handle_peer. The peer envelopes are file-local to node.cpp, so the
// tests mirror the codec (a drift here is a wire break worth failing
// on). Election timeouts are set far past the test runtime and the
// node is never start()ed: it stays a pure follower.

struct vote_req {
  std::uint64_t term = 0;
  std::int32_t candidate = -1;
  std::uint64_t last_log_index = 0;
  std::uint64_t last_log_term = 0;
};

struct append_req {
  std::uint64_t term = 0;
  std::int32_t leader = -1;
  std::uint64_t prev_index = 0;
  std::uint64_t prev_term = 0;
  std::uint64_t leader_commit = 0;
  std::vector<cmd::log_entry> entries;
};

using body_writer = byte_writer<std::string>;

struct snap_req {
  std::uint64_t term = 0;
  std::int32_t leader = -1;
  std::uint64_t last_index = 0;
  std::uint64_t last_term = 0;
  std::string bytes;
};

std::string encode_body(const vote_req& v) {
  std::string body;
  body_writer out(body);
  out.u64(v.term);
  out.i32(v.candidate);
  out.u64(v.last_log_index);
  out.u64(v.last_log_term);
  return body;
}

std::string encode_body(const append_req& a) {
  std::string body;
  body_writer out(body);
  out.u64(a.term);
  out.i32(a.leader);
  out.u64(a.prev_index);
  out.u64(a.prev_term);
  out.u64(a.leader_commit);
  out.u32(static_cast<std::uint32_t>(a.entries.size()));
  for (const cmd::log_entry& e : a.entries) cmd::encode_entry(out, e);
  return body;
}

std::string encode_body(const snap_req& s) {
  std::string body;
  body_writer out(body);
  out.u64(s.term);
  out.i32(s.leader);
  out.u64(s.last_index);
  out.u64(s.last_term);
  out.str(s.bytes);
  return body;
}

struct vote_resp {
  std::uint64_t term = 0;
  bool granted = false;
};

struct append_resp {
  std::uint64_t term = 0;
  bool success = false;
  std::uint64_t match_hint = 0;
  bool need_snapshot = false;
};

struct snap_resp {
  std::uint64_t term = 0;
  bool ok = false;
};

vote_resp decode_vote(const std::string& body) {
  byte_reader in(body);
  vote_resp v;
  std::uint8_t granted = 0;
  EXPECT_TRUE(in.u64(v.term) && in.u8(granted) && in.exhausted());
  v.granted = granted != 0;
  return v;
}

append_resp decode_append(const std::string& body) {
  byte_reader in(body);
  append_resp a;
  std::uint8_t success = 0;
  std::uint8_t need = 0;
  EXPECT_TRUE(in.u64(a.term) && in.u8(success) && in.u64(a.match_hint) &&
              in.u8(need) && in.exhausted());
  a.success = success != 0;
  a.need_snapshot = need != 0;
  return a;
}

snap_resp decode_snap(const std::string& body) {
  byte_reader in(body);
  snap_resp s;
  std::uint8_t ok = 0;
  EXPECT_TRUE(in.u64(s.term) && in.u8(ok) && in.exhausted());
  s.ok = ok != 0;
  return s;
}

template <typename Body>
net::wire::request peer_request(net::wire::op kind, const Body& body) {
  net::wire::request r;
  r.id = 1;
  r.kind = kind;
  r.body = encode_body(body);
  return r;
}

struct follower_harness {
  follower_harness()
      : service({.nodes = 4, .shards = 2, .record_commands = true}),
        node(make_config(), service) {}

  static repl::cluster_config make_config() {
    repl::cluster_config c;
    // Nobody listens on these; the node is never started, so it never
    // dials out and never times out into a candidacy.
    c.members = {{"127.0.0.1", 1}, {"127.0.0.1", 2}, {"127.0.0.1", 3}};
    c.self = 0;
    c.election_timeout_min_ms = 3'600'000;
    c.election_timeout_max_ms = 7'200'000;
    return c;
  }

  cmd::command grant(const std::string& key, std::uint64_t seq, int session,
                     std::uint64_t epoch) {
    cmd::command c;
    c.seq = seq;
    c.shard = service.registry().shard_of(key);
    c.kind = cmd::command_kind::acquire_granted;
    c.key = key;
    c.session = session;
    c.epoch = epoch;
    c.mode = cmd::grant_mode_protocol;
    c.at_ms = 10 * seq;
    return c;
  }

  cmd::command release(const std::string& key, std::uint64_t seq, int session,
                       std::uint64_t epoch) {
    cmd::command c;
    c.seq = seq;
    c.shard = service.registry().shard_of(key);
    c.kind = cmd::command_kind::released;
    c.key = key;
    c.session = session;
    c.epoch = epoch;
    c.at_ms = 10 * seq;
    return c;
  }

  static cmd::log_entry at_term(std::uint64_t term, cmd::command c) {
    cmd::log_entry e;
    e.term = term;
    e.change = std::move(c);
    return e;
  }

  svc::service service;
  repl::node node;
};

TEST(ReplNode, FollowerAppendsThenAppliesOnlyOnceCommitted) {
  follower_harness h;

  append_req first;
  first.term = 1;
  first.leader = 1;
  first.entries.push_back(
      follower_harness::at_term(1, h.grant("locks/a", 1, 7, 0)));
  auto resp = h.node.handle_peer(
      peer_request(net::wire::op::peer_append, first));
  ASSERT_EQ(resp.result, net::wire::status::ok);
  auto a = decode_append(resp.body);
  EXPECT_TRUE(a.success);
  EXPECT_EQ(a.match_hint, 1u);
  // Uncommitted: the entry lives in the log only, not the registry.
  EXPECT_EQ(h.node.commit_index(), 0u);
  EXPECT_FALSE(h.service.registry().inspect("locks/a").has_value());

  append_req heartbeat;
  heartbeat.term = 1;
  heartbeat.leader = 1;
  heartbeat.prev_index = 1;
  heartbeat.prev_term = 1;
  heartbeat.leader_commit = 1;
  resp = h.node.handle_peer(
      peer_request(net::wire::op::peer_append, heartbeat));
  a = decode_append(resp.body);
  EXPECT_TRUE(a.success);
  EXPECT_EQ(h.node.commit_index(), 1u);
  const auto state = h.service.registry().inspect("locks/a");
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->leader, 7);
  EXPECT_EQ(state->entry.epoch, 0u);
}

TEST(ReplNode, ConflictingUncommittedTailIsTruncatedByTheNewTerm) {
  follower_harness h;

  // Term 1 ships two entries but only commits the first; the second is
  // a dead primary's unacked tail.
  append_req old_primary;
  old_primary.term = 1;
  old_primary.leader = 1;
  old_primary.leader_commit = 1;
  old_primary.entries.push_back(
      follower_harness::at_term(1, h.grant("locks/b", 1, 7, 0)));
  old_primary.entries.push_back(
      follower_harness::at_term(1, h.release("locks/b", 2, 7, 0)));
  auto a = decode_append(
      h.node.handle_peer(peer_request(net::wire::op::peer_append, old_primary))
          .body);
  ASSERT_TRUE(a.success);
  ASSERT_EQ(h.node.commit_index(), 1u);

  // The new term's history disagrees at index 2: the follower must
  // truncate its tail and accept the replacement.
  append_req new_primary;
  new_primary.term = 2;
  new_primary.leader = 2;
  new_primary.prev_index = 1;
  new_primary.prev_term = 1;
  new_primary.leader_commit = 2;
  new_primary.entries.push_back(
      follower_harness::at_term(2, h.release("locks/b", 2, 7, 0)));
  a = decode_append(
      h.node.handle_peer(peer_request(net::wire::op::peer_append, new_primary))
          .body);
  EXPECT_TRUE(a.success);
  EXPECT_FALSE(a.need_snapshot);
  EXPECT_EQ(a.match_hint, 2u);
  EXPECT_EQ(h.node.commit_index(), 2u);
  EXPECT_EQ(h.node.current_term(), 2u);
  // The release applied: the epoch ended and the key reopened.
  const auto state = h.service.registry().inspect("locks/b");
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->leader, -1);
}

TEST(ReplNode, SeqGapRejectsReplayAndSnapshotInstallHeals) {
  follower_harness h;

  append_req first;
  first.term = 1;
  first.leader = 1;
  first.leader_commit = 1;
  first.entries.push_back(
      follower_harness::at_term(1, h.grant("locks/c", 1, 7, 0)));
  ASSERT_TRUE(decode_append(h.node
                                .handle_peer(peer_request(
                                    net::wire::op::peer_append, first))
                                .body)
                  .success);

  // seq 3 after seq 1 is a replay gap: the registry refuses, and the
  // follower must demand a snapshot rather than diverge silently.
  append_req gap;
  gap.term = 1;
  gap.leader = 1;
  gap.prev_index = 1;
  gap.prev_term = 1;
  gap.leader_commit = 2;
  gap.entries.push_back(
      follower_harness::at_term(1, h.release("locks/c", 3, 7, 0)));
  auto a = decode_append(
      h.node.handle_peer(peer_request(net::wire::op::peer_append, gap)).body);
  EXPECT_TRUE(a.need_snapshot);

  // Every later append keeps answering need_snapshot until an install.
  append_req heartbeat;
  heartbeat.term = 1;
  heartbeat.leader = 1;
  heartbeat.prev_index = 2;
  heartbeat.prev_term = 1;
  a = decode_append(
      h.node.handle_peer(peer_request(net::wire::op::peer_append, heartbeat))
          .body);
  EXPECT_TRUE(a.need_snapshot);
  EXPECT_FALSE(a.success);

  // Build the primary's true state (grant, release, regrant) in a
  // scratch registry with the same shape and install it.
  svc::service scratch({.nodes = 4, .shards = 2});
  ASSERT_FALSE(scratch.registry().apply(h.grant("locks/c", 1, 7, 0)));
  ASSERT_FALSE(scratch.registry().apply(h.release("locks/c", 2, 7, 0)));
  ASSERT_FALSE(scratch.registry().apply(h.grant("locks/c", 3, 8, 1)));
  const auto bytes = scratch.registry().snapshot();

  snap_req install;
  install.term = 1;
  install.leader = 1;
  install.last_index = 3;
  install.last_term = 1;
  install.bytes.assign(bytes.begin(), bytes.end());
  const auto s = decode_snap(
      h.node.handle_peer(peer_request(net::wire::op::peer_snapshot, install))
          .body);
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(h.node.commit_index(), 3u);
  EXPECT_EQ(h.node.counters().snapshots_installed, 1u);

  const auto healed = h.service.registry().inspect("locks/c");
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->leader, 8);
  EXPECT_EQ(healed->entry.epoch, 1u);

  // The suffix resumes past the snapshot: appends work again.
  append_req suffix;
  suffix.term = 1;
  suffix.leader = 1;
  suffix.prev_index = 3;
  suffix.prev_term = 1;
  suffix.leader_commit = 4;
  suffix.entries.push_back(
      follower_harness::at_term(1, h.release("locks/c", 4, 8, 1)));
  a = decode_append(
      h.node.handle_peer(peer_request(net::wire::op::peer_append, suffix))
          .body);
  EXPECT_TRUE(a.success);
  EXPECT_FALSE(a.need_snapshot);
  EXPECT_EQ(h.node.commit_index(), 4u);
}

TEST(ReplNode, VotesAreOneShotPerTermAndCheckLogFreshness) {
  follower_harness h;

  // Give the follower two entries at term 1 so freshness has teeth.
  append_req seed;
  seed.term = 1;
  seed.leader = 1;
  seed.leader_commit = 1;
  seed.entries.push_back(
      follower_harness::at_term(1, h.grant("locks/d", 1, 7, 0)));
  seed.entries.push_back(
      follower_harness::at_term(1, h.release("locks/d", 2, 7, 0)));
  ASSERT_TRUE(decode_append(h.node
                                .handle_peer(peer_request(
                                    net::wire::op::peer_append, seed))
                                .body)
                  .success);

  vote_req fresh{.term = 2, .candidate = 1, .last_log_index = 2,
                 .last_log_term = 1};
  auto v = decode_vote(
      h.node.handle_peer(peer_request(net::wire::op::peer_vote, fresh)).body);
  EXPECT_TRUE(v.granted);
  EXPECT_EQ(v.term, 2u);

  // Same term, different candidate: the vote is spent.
  vote_req rival{.term = 2, .candidate = 2, .last_log_index = 9,
                 .last_log_term = 1};
  v = decode_vote(
      h.node.handle_peer(peer_request(net::wire::op::peer_vote, rival)).body);
  EXPECT_FALSE(v.granted);

  // Higher term but a stale log: refused — a winner missing committed
  // entries could roll back acked grants.
  vote_req stale{.term = 3, .candidate = 2, .last_log_index = 1,
                 .last_log_term = 1};
  v = decode_vote(
      h.node.handle_peer(peer_request(net::wire::op::peer_vote, stale)).body);
  EXPECT_FALSE(v.granted);
  EXPECT_EQ(v.term, 3u);

  // The higher term reset the one-shot: a fresh candidate gets it.
  vote_req retry{.term = 3, .candidate = 1, .last_log_index = 2,
                 .last_log_term = 1};
  v = decode_vote(
      h.node.handle_peer(peer_request(net::wire::op::peer_vote, retry)).body);
  EXPECT_TRUE(v.granted);
}

/// A member's replicated-log length, from its status JSON.
std::uint64_t log_entries_of(const repl::node& n) {
  const std::string status = n.status_json();
  const std::string field = "\"log_entries\":";
  const auto at = status.find(field);
  EXPECT_NE(at, std::string::npos) << status;
  return at == std::string::npos
             ? 0
             : std::stoull(status.substr(at + field.size()));
}

// handle_peer decodes bytes straight off the network: every truncation
// of a valid body, every body with a trailing byte, and an append that
// declares more entries than any frame may carry are refused as
// bad_request and leave the member's state exactly as it was.
TEST(ReplNode, MalformedPeerBodiesAreRefused) {
  follower_harness h;
  append_req seed;
  seed.term = 1;
  seed.leader = 1;
  seed.leader_commit = 1;
  seed.entries.push_back(
      follower_harness::at_term(1, h.grant("locks/m", 1, 7, 0)));
  ASSERT_TRUE(decode_append(h.node
                                .handle_peer(peer_request(
                                    net::wire::op::peer_append, seed))
                                .body)
                  .success);
  const std::uint64_t term = h.node.current_term();
  const std::uint64_t commit = h.node.commit_index();
  const std::uint64_t entries = log_entries_of(h.node);

  const vote_req vote{.term = 5, .candidate = 1, .last_log_index = 9,
                      .last_log_term = 4};
  append_req append;
  append.term = 5;
  append.leader = 1;
  append.prev_index = 1;
  append.prev_term = 1;
  append.leader_commit = 3;
  append.entries.push_back(
      follower_harness::at_term(5, h.release("locks/m", 2, 7, 0)));
  append.entries.push_back(
      follower_harness::at_term(5, h.grant("locks/m", 3, 8, 1)));
  snap_req snap;
  snap.term = 5;
  snap.leader = 1;
  snap.last_index = 3;
  snap.last_term = 5;
  const auto bytes = h.service.registry().snapshot();
  snap.bytes.assign(bytes.begin(), bytes.end());

  std::vector<std::pair<net::wire::op, std::string>> bad;
  for (const auto& [kind, body] :
       {std::pair{net::wire::op::peer_vote, encode_body(vote)},
        std::pair{net::wire::op::peer_append, encode_body(append)},
        std::pair{net::wire::op::peer_snapshot, encode_body(snap)}}) {
    for (std::size_t n = 0; n < body.size(); ++n) {
      bad.emplace_back(kind, body.substr(0, n));
    }
    bad.emplace_back(kind, body + std::string(1, '\0'));
  }
  std::string oversized;
  body_writer out(oversized);
  out.u64(5);
  out.i32(1);
  out.u64(1);
  out.u64(1);
  out.u64(3);
  out.u32((1u << 16) + 1);
  bad.emplace_back(net::wire::op::peer_append, oversized);

  for (const auto& [kind, body] : bad) {
    net::wire::request r;
    r.id = 3;
    r.kind = kind;
    r.body = body;
    EXPECT_EQ(h.node.handle_peer(r).result, net::wire::status::bad_request)
        << net::wire::to_string(kind) << " body of " << body.size()
        << " bytes";
  }
  EXPECT_EQ(h.node.current_term(), term);
  EXPECT_EQ(h.node.commit_index(), commit);
  EXPECT_EQ(log_entries_of(h.node), entries);
}

/// A temporary directory removed at scope exit.
struct temp_dir {
  temp_dir() {
    std::string pattern = testing::TempDir() + "repl_vote_XXXXXX";
    path = ::mkdtemp(pattern.data()) != nullptr ? pattern : std::string();
    EXPECT_FALSE(path.empty());
  }
  ~temp_dir() { std::filesystem::remove_all(path); }
  std::string path;
};

// A vote the member cannot make durable is refused: granted but lost in
// a restart, it would let the member hand the same term to a second
// candidate. Replacing the state directory with a regular file makes
// every write fail (ENOTDIR), whatever the process's privileges.
TEST(ReplNode, UnrecordableVoteIsRefused) {
  temp_dir dir;
  const std::string state = dir.path + "/state";
  ASSERT_EQ(::mkdir(state.c_str(), 0700), 0);
  svc::service service({.nodes = 4, .shards = 2});
  repl::cluster_config c = follower_harness::make_config();
  c.state_dir = state;
  repl::node member(c, service);  // no vote file yet: a fresh member

  ASSERT_EQ(::rmdir(state.c_str()), 0);
  { std::ofstream blocker(state); }
  const vote_req ask{.term = 1, .candidate = 1, .last_log_index = 0,
                     .last_log_term = 0};
  auto v = decode_vote(
      member.handle_peer(peer_request(net::wire::op::peer_vote, ask)).body);
  EXPECT_FALSE(v.granted);
  EXPECT_EQ(v.term, 1u);

  // Once the record can be written, the same vote is granted — and it
  // is on disk before the answer leaves.
  ASSERT_EQ(::unlink(state.c_str()), 0);
  ASSERT_EQ(::mkdir(state.c_str(), 0700), 0);
  v = decode_vote(
      member.handle_peer(peer_request(net::wire::op::peer_vote, ask)).body);
  EXPECT_TRUE(v.granted);
  std::ifstream record(state + "/repl_vote_0");
  std::string line;
  std::getline(record, line);
  EXPECT_EQ(line, "v1 1 1");
}

// A vote file that exists but does not parse is not "never voted": a
// member that forgot its vote could vote twice in one term, so
// construction stops and names the file.
TEST(ReplNodeDeathTest, GarbageVoteFileAbortsConstruction) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  temp_dir dir;
  { std::ofstream(dir.path + "/repl_vote_0") << "garbage\n"; }
  svc::service service({.nodes = 4, .shards = 2});
  repl::cluster_config c = follower_harness::make_config();
  c.state_dir = dir.path;
  EXPECT_DEATH({ repl::node member(c, service); }, "repl_vote_0");
}

// ---------------------------------------------------------------------
// Full in-process clusters over loopback.

/// Reserve an ephemeral port: bind, read it back, close. The tiny
/// reuse race is acceptable for tests.
std::uint16_t reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// An n-member cluster in one process: each member is a service + repl
/// node + net server, wired exactly as elect_server does it. Members
/// can be started late (snapshot catch-up) and stopped (failover).
struct cluster_harness {
  explicit cluster_harness(int n, std::uint64_t lease_ttl_ms = 0,
                           std::uint64_t fence_bump = 1000,
                           std::uint64_t compact_threshold = 8192) {
    for (int i = 0; i < n; ++i) {
      ports.push_back(reserve_port());
    }
    base.fence_bump = fence_bump;
    base.compact_threshold = compact_threshold;
    base.heartbeat_ms = 25;
    base.commit_wait_ms = 3000;
    base.seed = 42;
    for (int i = 0; i < n; ++i) {
      base.members.push_back({"127.0.0.1", ports[static_cast<std::size_t>(i)]});
    }
    services.resize(static_cast<std::size_t>(n));
    nodes.resize(static_cast<std::size_t>(n));
    servers.resize(static_cast<std::size_t>(n));
    ttl = lease_ttl_ms;
  }

  ~cluster_harness() {
    for (auto& s : servers) {
      if (s) s->stop();
    }
    for (auto& m : nodes) {
      if (m) m->stop();
    }
  }

  /// Member 0 gets a short election timeout so it reliably wins the
  /// first term; the rest hang back but stay viable for failover.
  void start_member(int i) {
    const auto idx = static_cast<std::size_t>(i);
    svc::service_config sc{.nodes = 4, .shards = 2};
    sc.lease_ttl_ms = ttl;
    sc.record_commands = true;
    sc.journal_events = journal;
    sc.session_id_base = i << 24;
    services[idx] = std::make_unique<svc::service>(std::move(sc));

    repl::cluster_config cc = base;
    cc.self = i;
    cc.election_timeout_min_ms = i == 0 ? 100 : 400;
    cc.election_timeout_max_ms = i == 0 ? 150 : 700;
    nodes[idx] = std::make_unique<repl::node>(cc, *services[idx]);
    nodes[idx]->start();

    net::server_config nc;
    nc.bind_address = "127.0.0.1";
    nc.port = ports[idx];
    nc.reactors = reactors;
    repl::node* node = nodes[idx].get();
    nc.cluster.is_primary = [node] { return node->is_primary(); };
    nc.cluster.primary_hint = [node] { return node->primary_endpoint(); };
    nc.cluster.peer = [node](const net::wire::request& r) {
      return node->handle_peer(r);
    };
    nc.cluster.status_json = [node] { return node->status_json(); };
    nc.cluster.prom_text = [node] { return node->prom_text(); };
    servers[idx] = std::make_unique<net::server>(*services[idx], nc);
    ASSERT_TRUE(servers[idx]->listening());
  }

  void start_all() {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      start_member(static_cast<int>(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  void stop_member(int i) {
    const auto idx = static_cast<std::size_t>(i);
    servers[idx]->stop();
    nodes[idx]->stop();
    stopped.insert(i);
  }

  /// Index of the current primary among live members, -1 if none. A
  /// stopped node's in-memory role is stale (it believes whatever it
  /// believed when its threads died), so it is excluded.
  [[nodiscard]] int primary() const {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (stopped.count(static_cast<int>(i)) != 0) continue;
      if (nodes[i] && nodes[i]->is_primary()) return static_cast<int>(i);
    }
    return -1;
  }

  [[nodiscard]] int wait_for_primary(std::chrono::milliseconds limit) const {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
      const int p = primary();
      if (p >= 0) return p;
      std::this_thread::sleep_for(10ms);
    }
    return -1;
  }

  [[nodiscard]] std::string endpoints_csv() const {
    std::string out;
    for (const auto& m : base.members) {
      if (!out.empty()) out += ",";
      out += m.to_string();
    }
    return out;
  }

  /// A member's replicated-log length, from its status JSON.
  [[nodiscard]] std::uint64_t log_entries(int i) const {
    const std::string status =
        nodes[static_cast<std::size_t>(i)]->status_json();
    const std::string field = "\"log_entries\":";
    const auto at = status.find(field);
    EXPECT_NE(at, std::string::npos) << status;
    return at == std::string::npos
               ? 0
               : std::stoull(status.substr(at + field.size()));
  }

  std::vector<std::uint16_t> ports;
  repl::cluster_config base;
  std::uint64_t ttl = 0;
  /// Members journal their events (set before start_all).
  bool journal = false;
  /// Each member server's reactor count (0: the server's default).
  int reactors = 0;
  std::set<int> stopped;
  std::vector<std::unique_ptr<svc::service>> services;
  std::vector<std::unique_ptr<repl::node>> nodes;
  std::vector<std::unique_ptr<net::server>> servers;
};

TEST(ReplCluster, ElectsOnePrimaryAndServesAcquiresThroughAnyEndpoint) {
  cluster_harness cluster(3);
  cluster.start_all();
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);
  EXPECT_NE(cluster.nodes[static_cast<std::size_t>(p)]
                ->status_json()
                .find("\"role\":\"primary\""),
            std::string::npos);

  // Exactly one primary among the members.
  int primaries = 0;
  for (const auto& n : cluster.nodes) {
    if (n->is_primary()) ++primaries;
  }
  EXPECT_EQ(primaries, 1);

  api::client client(cluster.endpoints_csv());
  ASSERT_TRUE(client.connected());
  auto got = client.try_acquire("locks/one");
  ASSERT_TRUE(got.won());
  EXPECT_EQ(got.epoch, 0u);
  EXPECT_EQ(got.lease.release(), api::lease_status::ok);
}

TEST(ReplCluster, FollowerFirstEndpointListStillLandsOnThePrimary) {
  cluster_harness cluster(3);
  cluster.start_all();
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);

  // Order the endpoint list so a follower comes first: the client must
  // chase the not_primary redirect to win.
  std::string csv;
  for (int off = 1; off <= 3; ++off) {
    const auto& m =
        cluster.base.members[static_cast<std::size_t>((p + off) % 3)];
    if (!csv.empty()) csv += ",";
    csv += m.to_string();
  }
  api::client client(csv);
  ASSERT_TRUE(client.connected());
  auto got = client.try_acquire("locks/redirected");
  ASSERT_TRUE(got.won());
  got.lease.abandon();
}

TEST(ReplCluster, FailoverFencesAHeldLeaseNeverSilentlyRegrantsIt) {
  cluster_harness cluster(3, /*lease_ttl_ms=*/800, /*fence_bump=*/1000);
  cluster.start_all();
  const int old_primary = cluster.wait_for_primary(10s);
  ASSERT_GE(old_primary, 0);

  api::client holder(cluster.endpoints_csv());
  ASSERT_TRUE(holder.connected());
  auto got = holder.try_acquire("locks/failover");
  ASSERT_TRUE(got.won());
  const std::uint64_t old_epoch = got.epoch;

  cluster.stop_member(old_primary);

  // A new primary must emerge from the survivors.
  const auto deadline = std::chrono::steady_clock::now() + 15s;
  int new_primary = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    new_primary = cluster.primary();
    if (new_primary >= 0 && new_primary != old_primary) break;
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_GE(new_primary, 0);
  ASSERT_NE(new_primary, old_primary);

  // The survivor fenced at promotion: a fresh contender must either be
  // refused (while the replica lease runs out) or win an epoch past
  // the fence bump. Seeing the old epoch again would be the silent
  // double grant the whole design exists to prevent.
  api::client contender(cluster.endpoints_csv());
  std::optional<std::uint64_t> won_epoch;
  while (std::chrono::steady_clock::now() < deadline) {
    auto attempt = contender.try_acquire("locks/failover");
    if (attempt.won()) {
      won_epoch = attempt.epoch;
      attempt.lease.abandon();
      break;
    }
    std::this_thread::sleep_for(50ms);
  }
  ASSERT_TRUE(won_epoch.has_value());
  EXPECT_GT(*won_epoch, old_epoch);
  EXPECT_GE(*won_epoch, cluster.base.fence_bump);

  // The deposed holder's auto-renew hits the fence and marks the lease
  // lost (it cannot keep believing in a dead primary's grant).
  const auto lost_deadline = std::chrono::steady_clock::now() + 10s;
  while (!got.lease.lost() &&
         std::chrono::steady_clock::now() < lost_deadline) {
    std::this_thread::sleep_for(50ms);
  }
  EXPECT_TRUE(got.lease.lost());
}

TEST(ReplCluster, LateFollowerCatchesUpViaSnapshotThenSuffix) {
  // Tiny compaction threshold: the primary compacts its log early, so
  // the late member cannot converge by appends alone.
  cluster_harness cluster(3, /*lease_ttl_ms=*/0, /*fence_bump=*/1000,
                          /*compact_threshold=*/4);
  cluster.start_member(0);
  cluster.start_member(1);
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);

  api::client client(cluster.endpoints_csv());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 6; ++i) {
    auto got = client.try_acquire("locks/compacted-" + std::to_string(i));
    ASSERT_TRUE(got.won());
    ASSERT_EQ(got.lease.release(), api::lease_status::ok);
  }

  // Wait until the primary has actually compacted, so the late member
  // exercises the snapshot path rather than a long append replay.
  const auto deadline = std::chrono::steady_clock::now() + 15s;
  auto* primary_node = cluster.nodes[static_cast<std::size_t>(p)].get();
  while (primary_node->counters().compactions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_GE(primary_node->counters().compactions, 1u);

  cluster.start_member(2);
  auto* late = cluster.nodes[2].get();
  while ((late->counters().snapshots_installed == 0 ||
          late->commit_index() < primary_node->commit_index()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_GE(late->counters().snapshots_installed, 1u);
  EXPECT_GE(primary_node->counters().snapshots_sent, 1u);
  EXPECT_EQ(late->commit_index(), primary_node->commit_index());

  // Byte-comparable replicas: the late member's registry agrees with
  // the primary's on every replayed key.
  for (int i = 0; i < 6; ++i) {
    const std::string key = "locks/compacted-" + std::to_string(i);
    const auto on_primary =
        cluster.services[static_cast<std::size_t>(p)]->registry().inspect(key);
    const auto on_late = cluster.services[2]->registry().inspect(key);
    ASSERT_TRUE(on_primary.has_value());
    ASSERT_TRUE(on_late.has_value());
    EXPECT_EQ(on_late->entry.epoch, on_primary->entry.epoch);
    EXPECT_EQ(on_late->leader, on_primary->leader);
  }
}

// A grant the commit gate cannot confirm is revoked, not left live: the
// caller hears connection_lost, so nobody believes it holds the lease,
// and nothing else would end it before the TTL, a disconnect or a
// failover.
TEST(ReplCluster, UnconfirmedGrantIsRevokedNotLeftHeld) {
  cluster_harness cluster(3);
  cluster.base.commit_wait_ms = 300;
  cluster.start_all();
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);
  for (int i = 0; i < 3; ++i) {
    if (i != p) cluster.stop_member(i);
  }
  svc::service& service = *cluster.services[static_cast<std::size_t>(p)];
  auto session = service.connect();
  const auto result = session.try_acquire("locks/unconfirmed");
  EXPECT_FALSE(result.won);
  EXPECT_TRUE(result.rejected);
  EXPECT_TRUE(result.connection_lost);
  EXPECT_EQ(service.registry().leader_of("locks/unconfirmed"), -1);
}

// A closed connection's reclaim is its implicit disconnect, and on a
// primary that lost its quorum it must not hold the reactor: it ends
// the leases locally and waits on no commit gate, so a bystander sharing
// the (only) reactor is still answered at once.
TEST(ReplCluster, GatedDisconnectReclaimDoesNotStallTheReactor) {
  cluster_harness cluster(3);
  cluster.reactors = 1;
  cluster.start_all();
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);
  const auto idx = static_cast<std::size_t>(p);
  net::client holder("127.0.0.1", cluster.ports[idx]);
  net::client bystander("127.0.0.1", cluster.ports[idx]);
  ASSERT_TRUE(holder.connected());
  ASSERT_TRUE(bystander.connected());
  ASSERT_TRUE(holder.try_acquire("locks/reclaimed").won);
  ASSERT_FALSE(bystander.metrics_json().empty());

  for (int i = 0; i < 3; ++i) {
    if (i != p) cluster.stop_member(i);
  }
  holder.close();
  // The reclaim applies locally.
  svc::instance_registry& registry = cluster.services[idx]->registry();
  const auto reclaimed_by = std::chrono::steady_clock::now() + 10s;
  while (registry.leader_of("locks/reclaimed") != -1) {
    ASSERT_LT(std::chrono::steady_clock::now(), reclaimed_by);
    std::this_thread::sleep_for(2ms);
  }
  const auto before = std::chrono::steady_clock::now();
  EXPECT_FALSE(bystander.metrics_json().empty());
  EXPECT_LT(std::chrono::steady_clock::now() - before, 1s)
      << "the reactor waited on the reclaim's commit gate";
}

// Stopping a primary that lost its quorum does not wait on the commit
// gate: each closed connection's reclaim ends its leases locally and
// waits for nothing, so stop() returns at once even with more holders
// than executors.
TEST(ReplCluster, StoppingAPrimaryWithoutAQuorumDoesNotWaitOnTheGate) {
  cluster_harness cluster(3);
  cluster.start_all();
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);
  const auto idx = static_cast<std::size_t>(p);
  std::vector<std::unique_ptr<net::client>> holders;
  for (int i = 0; i < 8; ++i) {
    holders.push_back(
        std::make_unique<net::client>("127.0.0.1", cluster.ports[idx]));
    ASSERT_TRUE(holders.back()->connected());
    ASSERT_TRUE(holders.back()->try_acquire("locks/held-" + std::to_string(i)).won);
  }
  for (int i = 0; i < 3; ++i) {
    if (i != p) cluster.stop_member(i);
  }
  const auto before = std::chrono::steady_clock::now();
  cluster.servers[idx]->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - before, 1s)
      << "stop() waited on the reclaims' commit gate";
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(cluster.services[idx]->registry().leader_of(
                  "locks/held-" + std::to_string(i)),
              -1)
        << i;
  }
}

// A follower holds the same command log as its primary and executes it
// as it commits, so a watch on a follower sees a grant made through the
// primary once it committed — and the follower's journal records it.
TEST(ReplCluster, FollowerWatchersSeeGrantsCommittedThroughThePrimary) {
  cluster_harness cluster(3);
  cluster.journal = true;
  cluster.start_all();
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);
  const int f = (p + 1) % 3;
  svc::service& follower = *cluster.services[static_cast<std::size_t>(f)];
  std::mutex mutex;
  std::vector<svc::watch_event> seen;
  const std::uint64_t watch =
      follower.watch("locks/watched", [&](const svc::watch_event& e) {
        const std::lock_guard<std::mutex> lock(mutex);
        seen.push_back(e);
      });
  ASSERT_NE(watch, 0u);

  api::client client(cluster.endpoints_csv());
  ASSERT_TRUE(client.connected());
  auto got = client.try_acquire("locks/watched");
  ASSERT_TRUE(got.won());
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!seen.empty()) break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the follower's watcher saw nothing";
    std::this_thread::sleep_for(5ms);
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(seen[0].kind, svc::transition::elected);
    EXPECT_EQ(seen[0].epoch, got.epoch);
  }
  bool journaled = false;
  for (const obs::event_record& r : follower.journal()->tail(64)) {
    journaled = journaled || (r.key == "locks/watched" &&
                              r.kind == obs::event_kind::elected);
  }
  EXPECT_TRUE(journaled);
  follower.unwatch(watch);
  EXPECT_EQ(got.lease.release(), api::lease_status::ok);
}

// A primary that steps down with an acquire parked on it answers that
// acquire not_primary (the step-down wakes every parked acquirer into
// the primary check) instead of leaving it waiting on a follower's
// epochs; the client then wins on the new primary.
TEST(ReplCluster, StepDownAnswersAParkedAcquireNotPrimary) {
  cluster_harness cluster(3, /*lease_ttl_ms=*/2000);
  cluster.start_all();
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);
  const auto idx = static_cast<std::size_t>(p);
  svc::service& old_primary = *cluster.services[idx];
  auto holder = old_primary.connect();
  ASSERT_TRUE(holder.try_acquire("locks/stepdown").won);

  // A single-endpoint client surfaces the redirect instead of following
  // it.
  net::client direct("127.0.0.1", cluster.ports[idx]);
  ASSERT_TRUE(direct.connected());
  const std::uint64_t id =
      direct.submit(net::wire::op::acquire, "locks/stepdown");
  ASSERT_NE(id, 0u);
  const auto parked_by = std::chrono::steady_clock::now() + 10s;
  while (old_primary.registry().parked_count() != 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), parked_by);
    std::this_thread::sleep_for(2ms);
  }

  // A vote request from a higher term deposes the primary; its empty
  // log keeps the vote itself from being granted.
  const vote_req higher{.term = cluster.nodes[idx]->current_term() + 1,
                        .candidate = (p + 1) % 3,
                        .last_log_index = 0,
                        .last_log_term = 0};
  (void)cluster.nodes[idx]->handle_peer(
      peer_request(net::wire::op::peer_vote, higher));
  const auto answer = direct.take(id);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->result, net::wire::status::not_primary);
  EXPECT_EQ(old_primary.registry().parked_count(), 0u);

  // Following redirects, the client wins wherever the primary is now,
  // once the abandoned holder's lease runs out.
  net::client follower(cluster.endpoints_csv());
  ASSERT_TRUE(follower.connected());
  const auto won = follower.try_acquire_for("locks/stepdown", 15'000ms);
  EXPECT_TRUE(won.won);
}

// Observers see only committed commands: a grant the commit gate
// cannot confirm — and the reclaim that revokes it — reaches neither a
// watcher nor the journal, so nobody sees a leader its acquirer was
// refused.
TEST(ReplCluster, UnconfirmedGrantNeverReachesWatchersOrTheJournal) {
  cluster_harness cluster(3);
  cluster.base.commit_wait_ms = 300;
  cluster.journal = true;
  cluster.start_all();
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);
  for (int i = 0; i < 3; ++i) {
    if (i != p) cluster.stop_member(i);
  }
  svc::service& service = *cluster.services[static_cast<std::size_t>(p)];
  const std::string key = "locks/phantom";
  std::mutex mutex;
  std::vector<svc::watch_event> seen;
  const std::uint64_t watch =
      service.watch(key, [&](const svc::watch_event& e) {
        const std::lock_guard<std::mutex> lock(mutex);
        seen.push_back(e);
      });
  ASSERT_NE(watch, 0u);

  auto session = service.connect();
  const auto result = session.try_acquire(key);
  ASSERT_TRUE(result.connection_lost);
  std::this_thread::sleep_for(500ms);
  {
    const std::lock_guard<std::mutex> lock(mutex);
    for (const svc::watch_event& e : seen) {
      ADD_FAILURE() << "watcher saw " << svc::to_string(e.kind) << " epoch "
                    << e.epoch << " session " << e.session;
    }
  }
  ASSERT_NE(service.journal(), nullptr);
  for (const obs::event_record& r : service.journal()->tail(4096)) {
    EXPECT_NE(r.key, key) << "journal recorded " << obs::to_string(r.kind);
  }
  service.unwatch(watch);
}

// A compaction must never drop an entry a follower still needs: with
// compaction every 64 entries racing a client that mutates the primary
// back to back, every op is confirmed in time and no follower ever needs
// a snapshot to heal a seq gap.
TEST(ReplCluster, CompactionNeverDropsAnUnshippedCommand) {
  cluster_harness cluster(3, /*lease_ttl_ms=*/0, /*fence_bump=*/1000,
                          /*compact_threshold=*/64);
  cluster.start_all();
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);
  const auto idx = static_cast<std::size_t>(p);
  auto session = cluster.services[idx]->connect();

  int connection_lost = 0;
  int pairs = 0;
  const auto until = std::chrono::steady_clock::now() + 4s;
  for (int i = 0; std::chrono::steady_clock::now() < until; ++i) {
    const std::string key = "race/" + std::to_string(i % 64);
    const auto got = session.try_acquire(key);
    if (got.connection_lost) ++connection_lost;
    if (!got.won) continue;
    if (session.release(key, got.epoch) ==
        svc::lease_status::connection_lost) {
      ++connection_lost;
    }
    ++pairs;
  }
  EXPECT_GT(pairs, 64);
  EXPECT_EQ(connection_lost, 0);
  const repl::node_counters primary = cluster.nodes[idx]->counters();
  EXPECT_GE(primary.compactions, 1u);
  EXPECT_EQ(primary.commit_timeouts, 0u);
  for (int i = 0; i < 3; ++i) {
    if (i == p) continue;
    EXPECT_EQ(cluster.nodes[static_cast<std::size_t>(i)]
                  ->counters()
                  .snapshots_installed,
              0u)
        << "member " << i;
  }
}

// Followers compact too — through their applied index, where the
// registry is exactly the log — so their logs stay bounded, and a
// compacted follower still wins a failover and serves.
TEST(ReplCluster, FollowersCompactAndACompactedFollowerWinsFailover) {
  constexpr std::uint64_t threshold = 64;
  cluster_harness cluster(3, /*lease_ttl_ms=*/0, /*fence_bump=*/1000,
                          threshold);
  cluster.start_all();
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);
  auto session = cluster.services[static_cast<std::size_t>(p)]->connect();
  for (int i = 0; i < 400; ++i) {
    const std::string key = "compact/" + std::to_string(i % 16);
    const auto got = session.try_acquire(key);
    ASSERT_TRUE(got.won) << key;
    ASSERT_EQ(session.release(key, got.epoch), svc::lease_status::ok);
  }
  ASSERT_TRUE(session.try_acquire("compact/held").won);

  const std::uint64_t committed =
      cluster.nodes[static_cast<std::size_t>(p)]->commit_index();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  for (int i = 0; i < 3; ++i) {
    if (i == p) continue;
    auto* follower = cluster.nodes[static_cast<std::size_t>(i)].get();
    while (follower->commit_index() < committed &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(10ms);
    }
    EXPECT_GE(follower->counters().compactions, 1u) << "member " << i;
    EXPECT_LT(cluster.log_entries(i), 2 * threshold) << "member " << i;
  }

  cluster.stop_member(p);
  int next = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    next = cluster.primary();
    if (next >= 0 && next != p) break;
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_GE(next, 0);
  ASSERT_NE(next, p);
  EXPECT_GE(cluster.nodes[static_cast<std::size_t>(next)]
                ->counters()
                .compactions,
            1u);
  svc::instance_registry& registry =
      cluster.services[static_cast<std::size_t>(next)]->registry();
  EXPECT_NE(registry.leader_of("compact/held"), -1);
  api::client client(cluster.endpoints_csv());
  ASSERT_TRUE(client.connected());
  auto got = client.try_acquire("compact/after-failover");
  ASSERT_TRUE(got.won());
  EXPECT_EQ(got.lease.release(), api::lease_status::ok);
}

// A member that accepts connections but never answers (a stopped or
// wedged process) costs a candidate one peer call, not the election:
// vote requests go to every peer at once, so the two live members elect
// a primary long before the 3 s peer timeout, whichever seat the
// unresponsive member holds.
TEST(ReplCluster, AnUnresponsiveMemberDoesNotStallElections) {
  for (const int hung : {1, 0}) {
    SCOPED_TRACE("unresponsive member " + std::to_string(hung));
    cluster_harness cluster(3);
    cluster.base.peer_io_timeout_ms = 3000;
    // The kernel completes connections into the backlog, and the bytes
    // sent land in its buffers; nobody ever reads them.
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    const int one = 1;
    (void)::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cluster.ports[static_cast<std::size_t>(hung)]);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    ASSERT_EQ(::listen(listener, 16), 0);
    for (int i = 0; i < 3; ++i) {
      if (i != hung) cluster.start_member(i);
    }
    const auto started = std::chrono::steady_clock::now();
    const int p = cluster.wait_for_primary(2s);
    EXPECT_GE(p, 0);
    EXPECT_NE(p, hung);
    std::cout << "[ info ] unresponsive member " << hung
              << ": primary after "
              << std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - started)
                     .count()
              << " ms\n";
    // Closing the listener resets the queued connections, so no sender
    // waits out its peer timeout at teardown.
    ::close(listener);
  }
}

}  // namespace
}  // namespace elect
