// Command-log and snapshot tests: the golden determinism contract
// (record a churn, replay the log into a fresh registry, get
// byte-identical snapshots; a snapshot cut mid-churn plus the log after
// its index does too), the log's cursors (a trim keeps what an open
// cursor has not read, committed reads stop at the commit index and skip
// the promotion barrier, a registry nobody reads records nothing),
// wall-clock-independent lease restore,
// restore-time fencing, live-vs-replay parity across the strategy ×
// backend matrix, and adversarial streams/snapshots (truncation, seq
// gaps, corrupt headers) failing with clean errors.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "cmd/command.hpp"
#include "cmd/log.hpp"
#include "cmd/snapshot.hpp"
#include "net/server.hpp"
#include "svc/registry.hpp"
#include "svc/service.hpp"

namespace elect {
namespace {

using namespace std::chrono_literals;
using clock_type = svc::instance_registry::clock;

/// Acquire `key` for `session` the way the service would: adaptive fast
/// claim when uncontended, protocol arm + claim otherwise. Returns the
/// held epoch, or empty when the attempt lost.
std::optional<std::uint64_t> acquire_via_registry(svc::instance_registry& reg,
                                                  const std::string& key,
                                                  int session,
                                                  clock_type::duration ttl) {
  const svc::adaptive_attempt at = reg.begin_adaptive_attempt(key, session, ttl);
  const std::uint64_t epoch = at.attempt.entry.epoch;
  if (at.fast_attempted &&
      at.fast.outcome == svc::fast_claim_outcome::claimed) {
    return epoch;
  }
  if (reg.arm_protocol(key, epoch) &&
      reg.claim_win(key, epoch, session, ttl).has_value()) {
    return epoch;
  }
  return std::nullopt;
}

/// Every retained committed command after log index `after`, in log
/// order: what replay() takes.
std::vector<cmd::command> retained_commands(const svc::instance_registry& reg,
                                            std::uint64_t after = 0) {
  std::vector<cmd::command> out;
  for (auto& [index, c] : reg.log().read(after, SIZE_MAX)) {
    out.push_back(std::move(c));
  }
  return out;
}

/// The registry churn: `threads` sessions acquire five keys in turn,
/// renewing every third win and releasing each; `meanwhile` runs on the
/// calling thread while they do.
void churn(svc::instance_registry& reg, int threads, int iterations,
           const std::function<void()>& meanwhile = {}) {
  const std::vector<std::string> keys = {"locks/a", "locks/b", "locks/c",
                                         "locks/d", "locks/e"};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < iterations; ++i) {
        const std::string& key =
            keys[static_cast<std::size_t>(t + i) % keys.size()];
        const auto held = acquire_via_registry(reg, key, t, 60s);
        if (!held.has_value()) continue;
        if (i % 3 == 0) (void)reg.renew(key, t, *held, 60s);
        (void)reg.release(key, t, *held);
      }
    });
  }
  if (meanwhile) meanwhile();
  for (auto& w : workers) w.join();
}

// ---------------------------------------------------------------------
// Golden determinism: live churn -> log -> replay -> identical bytes.

TEST(CmdGolden, ConcurrentRegistryChurnReplaysByteIdentical) {
  constexpr int shard_count = 4;
  constexpr int threads = 6;
  constexpr int iterations = 40;
  svc::instance_registry reg(shard_count);
  reg.enable_command_log();
  ASSERT_TRUE(reg.command_log_enabled());
  churn(reg, threads, iterations);

  // Exercise the remaining command kinds: an admin force-release, an
  // expiry sweep, and a disconnect reclaim all land in the same stream.
  ASSERT_TRUE(acquire_via_registry(reg, "admin/stuck", 97, 60s).has_value());
  EXPECT_EQ(reg.force_release("admin/stuck"), svc::lease_status::ok);
  ASSERT_TRUE(acquire_via_registry(reg, "sweep/fast", 98, 1ms).has_value());
  EXPECT_EQ(reg.sweep_expired(clock_type::now() + 10s), 1u);
  ASSERT_TRUE(acquire_via_registry(reg, "net/dead", 99, 60s).has_value());
  EXPECT_EQ(reg.reclaim_all(99), 1u);
  // And one lease left held, so the snapshot carries a live deadline.
  ASSERT_TRUE(acquire_via_registry(reg, "held/final", 96, 60s).has_value());

  const std::vector<cmd::command> log = retained_commands(reg);
  const cmd::log_stats stats = reg.log_stats();
  EXPECT_TRUE(stats.recording);
  EXPECT_EQ(stats.recorded, log.size());
  EXPECT_EQ(stats.retained, log.size());
  EXPECT_GT(log.size(), 0u);

  svc::instance_registry fresh(shard_count);
  const auto error = fresh.replay(log);
  ASSERT_FALSE(error.has_value()) << *error;
  EXPECT_EQ(reg.snapshot(), fresh.snapshot());
}

TEST(CmdGolden, ServiceChurnReplaysByteIdentical) {
  constexpr int shard_count = 3;
  svc::service_config config;
  config.nodes = 4;
  config.shards = shard_count;
  config.seed = 21;
  config.record_commands = true;
  svc::service service(std::move(config));

  constexpr int sessions = 4;
  const std::vector<std::string> keys = {"svc/x", "svc/y", "svc/z"};
  std::vector<svc::service::session> handles;
  for (int i = 0; i < sessions; ++i) handles.push_back(service.connect());
  std::vector<std::thread> clients;
  for (int i = 0; i < sessions; ++i) {
    clients.emplace_back([&, i] {
      auto& session = handles[static_cast<std::size_t>(i)];
      for (int round = 0; round < 15; ++round) {
        const std::string& key =
            keys[static_cast<std::size_t>(i + round) % keys.size()];
        const svc::acquire_result r = session.try_acquire(key);
        if (r.won) (void)session.release(key, r.epoch);
      }
    });
  }
  for (auto& t : clients) t.join();

  const std::vector<cmd::command> log =
      retained_commands(service.registry());
  EXPECT_GT(log.size(), 0u);
  svc::instance_registry fresh(shard_count);
  const auto error = fresh.replay(log);
  ASSERT_FALSE(error.has_value()) << *error;
  EXPECT_EQ(service.registry().snapshot(), fresh.snapshot());
}

// A snapshot is an exact cut: taken while six threads churn, the cut
// restored and the log entries after its index replayed give the live
// registry's bytes — nothing the cut holds replays twice, nothing it
// lacks is missing from the log.
TEST(CmdGolden, ExactCutPlusLaterEntriesReplaysByteIdenticalUnderChurn) {
  constexpr int shard_count = 4;
  svc::instance_registry reg(shard_count);
  reg.enable_command_log();
  std::vector<svc::log_snapshot> cuts;
  churn(reg, 6, 200, [&] {
    for (int i = 0; i < 20; ++i) {
      cuts.push_back(reg.snapshot_cut());
      std::this_thread::sleep_for(1ms);
    }
  });
  const std::vector<std::uint8_t> live = reg.snapshot();
  ASSERT_GT(reg.log().last_index(), cuts.front().index);
  for (const svc::log_snapshot& cut : cuts) {
    svc::instance_registry fresh(shard_count);
    ASSERT_FALSE(fresh.restore(cut.bytes, /*fence_restored=*/false).has_value());
    const auto error = fresh.replay(retained_commands(reg, cut.index));
    ASSERT_FALSE(error.has_value()) << "cut at " << cut.index << ": " << *error;
    EXPECT_EQ(fresh.snapshot(), live) << "cut at " << cut.index;
  }
}

TEST(CmdGolden, TrimmedLogIsCompactedNotLost) {
  svc::instance_registry reg(2);
  reg.enable_command_log();
  ASSERT_TRUE(acquire_via_registry(reg, "trim/a", 1, 0s).has_value());
  const svc::log_snapshot cut = reg.snapshot_cut(/*trim_log=*/true);
  EXPECT_EQ(cut.index, 1u);
  EXPECT_EQ(reg.log_stats().retained, 0u);
  EXPECT_EQ(reg.log_stats().recorded, 1u);

  // Later commands extend a restore()d registry: the cut plus the log
  // after its index reconstructs exactly the state the recorder reaches.
  const auto epoch_b = acquire_via_registry(reg, "trim/b", 2, 0s);
  ASSERT_TRUE(epoch_b.has_value());
  const std::vector<cmd::command> suffix = retained_commands(reg);
  EXPECT_EQ(suffix.size(), 1u);
  EXPECT_EQ(reg.log().first_index(), cut.index + 1);

  svc::instance_registry fresh(2);
  ASSERT_FALSE(fresh.restore(cut.bytes, /*fence_restored=*/false).has_value());
  const auto error = fresh.replay(suffix);
  ASSERT_FALSE(error.has_value()) << *error;
  EXPECT_EQ(fresh.snapshot(), reg.snapshot());
}

// ---------------------------------------------------------------------
// Cursors: one log, every reader at its own index.

TEST(CmdCursor, TrimKeepsWhatAnOpenCursorHasNotRead) {
  svc::instance_registry reg(1);
  reg.enable_command_log();
  cmd::command_log& log = reg.log();
  const std::uint64_t feed = log.open_cursor();
  ASSERT_TRUE(acquire_via_registry(reg, "k", 1, 0s).has_value());
  std::vector<cmd::command> read;
  log.read_cursor(feed, read);
  ASSERT_EQ(read.size(), 1u);
  ASSERT_EQ(reg.release("k", 1), svc::lease_status::ok);

  // The snapshot moves the history past both commands; the release is
  // still unread by the other cursor, so it stays.
  EXPECT_EQ(reg.snapshot_cut(/*trim_log=*/true).index, 2u);
  EXPECT_EQ(reg.log_stats().retained, 1u);
  EXPECT_EQ(log.first_index(), 2u);
  read.clear();
  log.read_cursor(feed, read);
  ASSERT_EQ(read.size(), 1u);
  EXPECT_EQ(read[0].seq, 2u);
  EXPECT_EQ(read[0].kind, cmd::command_kind::released);
  EXPECT_EQ(reg.log_stats().retained, 0u);

  // A cursor reads each command once.
  read.clear();
  log.read_cursor(feed, read);
  EXPECT_TRUE(read.empty());
  log.close_cursor(feed);
}

TEST(CmdCursor, CommittedReadsStopAtTheCommitIndexAndSkipBarriers) {
  svc::instance_registry reg(1);
  cmd::command_log& log = reg.log();
  log.commit_manually();
  const std::uint64_t feed = log.open_cursor();
  const auto epoch = acquire_via_registry(reg, "k", 1, 0s);
  ASSERT_TRUE(epoch.has_value());
  ASSERT_EQ(reg.release("k", 1, *epoch), svc::lease_status::ok);
  ASSERT_EQ(log.last_index(), 2u);

  std::vector<cmd::command> read;
  log.read_cursor(feed, read);
  EXPECT_TRUE(read.empty());
  EXPECT_TRUE(log.read(0, SIZE_MAX).empty());
  log.commit_to(1);
  log.read_cursor(feed, read);
  ASSERT_EQ(read.size(), 1u);
  EXPECT_EQ(read[0].kind, cmd::command_kind::acquire_granted);
  log.commit_to(2);
  log.read_cursor(feed, read);
  ASSERT_EQ(read.size(), 2u);
  EXPECT_EQ(read[1].kind, cmd::command_kind::released);

  // A promotion barrier takes an index but is no command: every reader
  // skips it.
  log.append({.term = 1, .change = {}});
  log.commit_to(3);
  EXPECT_TRUE(log.read(2, SIZE_MAX).empty());
  log.read_cursor(feed, read);
  EXPECT_EQ(read.size(), 2u);

  log.close_cursor(feed);
  EXPECT_FALSE(reg.log_stats().recording);
  EXPECT_EQ(reg.log_stats().retained, 0u);
}

TEST(CmdCursor, NobodyReadingRecordsNothingAndAClosedWatchRetainsNothing) {
  svc::service_config config;
  config.nodes = 4;
  config.lease_ttl_ms = 60'000;
  svc::service service(std::move(config));
  auto session = service.connect();
  const auto churn = [&] {
    for (int i = 0; i < 20; ++i) {
      const std::string key = "cursor/" + std::to_string(i % 4);
      const auto got = session.try_acquire(key);
      ASSERT_TRUE(got.won) << key;
      ASSERT_EQ(session.renew(key, got.epoch), svc::lease_status::ok);
      ASSERT_EQ(session.release(key, got.epoch), svc::lease_status::ok);
    }
  };
  // No watcher, no journal, no recording: no command payload is built.
  churn();
  EXPECT_FALSE(service.registry().log_stats().recording);
  EXPECT_EQ(service.registry().log_stats().recorded, 0u);

  std::atomic<int> events{0};
  const std::uint64_t watch = service.watch(
      "cursor/0", [&](const svc::watch_event&) { events.fetch_add(1); });
  ASSERT_NE(watch, 0u);
  churn();
  EXPECT_TRUE(service.registry().log_stats().recording);
  EXPECT_GT(service.registry().log_stats().recorded, 0u);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (events.load() < 10 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(events.load(), 10);  // 5 grants + 5 releases of cursor/0

  service.unwatch(watch);
  EXPECT_FALSE(service.registry().log_stats().recording);
  EXPECT_EQ(service.registry().log_stats().retained, 0u);
}

// ---------------------------------------------------------------------
// Satellite: lease deadlines survive snapshot/restore as remaining TTL
// on the restoring process's clock — not instantly expired, not
// resurrected as immortal.

TEST(CmdLease, RestoredLeaseKeepsItsRemainingTtl) {
  svc::instance_registry reg(1);
  reg.enable_command_log();
  ASSERT_TRUE(acquire_via_registry(reg, "job", 7, 2000ms).has_value());
  std::this_thread::sleep_for(600ms);
  // Snapshots encode lease deadlines relative to the shard's command
  // watermark (the logical timestamp of the last command) — that is
  // what makes live and replayed registries byte-identical. Advance the
  // watermark past the 600 ms of burned lease with one more command, as
  // any live shard sees continuously.
  ASSERT_TRUE(acquire_via_registry(reg, "clock/tick", 8, 0s).has_value());
  const std::vector<std::uint8_t> snap = reg.snapshot();

  svc::instance_registry fresh(1);
  const auto restore_start = clock_type::now();
  ASSERT_FALSE(fresh.restore(snap, /*fence_restored=*/false).has_value());

  // Not instantly expired: the remaining TTL (~1.4 s) is re-anchored to
  // the restoring registry's clock, so an immediate sweep finds nothing.
  EXPECT_EQ(fresh.sweep_expired(clock_type::now()), 0u);
  EXPECT_EQ(fresh.leader_of("job"), 7);
  const auto deadline = fresh.lease_deadline_of("job");
  ASSERT_TRUE(deadline.has_value());
  ASSERT_NE(*deadline, clock_type::time_point::max())
      << "restored lease must not become immortal";
  const auto remaining = *deadline - restore_start;
  EXPECT_GT(remaining, 200ms);
  // Strictly less than the full TTL: the 600 ms that elapsed before the
  // snapshot must stay burned, not be refunded by the restore.
  EXPECT_LT(remaining, 1700ms);

  // Not immortal either: the sweeper ends it once the remainder lapses.
  bool expired = false;
  for (int i = 0; i < 100 && !expired; ++i) {
    expired = fresh.sweep_expired(clock_type::now()) == 1;
    if (!expired) std::this_thread::sleep_for(50ms);
  }
  EXPECT_TRUE(expired) << "restored lease never expired";
}

TEST(CmdLease, FencedRestoreRejectsPreRestartEpochs) {
  svc::instance_registry reg(2);
  const auto old_epoch = acquire_via_registry(reg, "job", 3, 0s);
  ASSERT_TRUE(old_epoch.has_value());
  const std::vector<std::uint8_t> snap = reg.snapshot();

  svc::instance_registry fresh(2);
  ASSERT_FALSE(fresh.restore(snap, /*fence_restored=*/true).has_value());
  // The pre-restart holder presents its restored epoch: fenced.
  EXPECT_EQ(fresh.release("job", 3, *old_epoch),
            svc::lease_status::stale_epoch);
  EXPECT_EQ(fresh.leader_of("job"), -1);
  // And anyone can then win the bumped epoch.
  const auto new_epoch = acquire_via_registry(fresh, "job", 4, 0s);
  ASSERT_TRUE(new_epoch.has_value());
  EXPECT_GT(*new_epoch, *old_epoch);
}

// A replica's lease clock is the replicated stream's, not its own start
// time: applying a grant gives the replica a deadline no earlier than
// the granter's and later by at most the apply delay, whichever of the
// two registries was built first.
void check_applied_deadline(bool granter_first) {
  std::unique_ptr<svc::instance_registry> granter;
  std::unique_ptr<svc::instance_registry> replica;
  (granter_first ? granter : replica) =
      std::make_unique<svc::instance_registry>(1);
  std::this_thread::sleep_for(300ms);
  (granter_first ? replica : granter) =
      std::make_unique<svc::instance_registry>(1);
  granter->enable_command_log();

  const auto grant_start = clock_type::now();
  ASSERT_TRUE(acquire_via_registry(*granter, "clock/lease", 7, 2000ms));
  std::this_thread::sleep_for(50ms);  // the replication delay
  const auto commands = retained_commands(*granter);
  ASSERT_EQ(commands.size(), 1u);
  ASSERT_FALSE(replica->apply(commands[0]).has_value());
  const auto apply_delay = clock_type::now() - grant_start;

  const auto granted = granter->lease_deadline_of("clock/lease");
  const auto applied = replica->lease_deadline_of("clock/lease");
  ASSERT_TRUE(granted.has_value());
  ASSERT_TRUE(applied.has_value());
  EXPECT_GE(*applied, *granted) << "the replica would expire the lease early";
  EXPECT_LE(*applied - *granted, apply_delay + 5ms)
      << "the replica would keep the lease past its TTL";
  // Never early: a sweep just before the granter's deadline ends nothing.
  EXPECT_EQ(replica->sweep_expired(*granted - 1ms), 0u);
  EXPECT_EQ(replica->leader_of("clock/lease"), 7);
}

TEST(CmdLease, AppliedLeaseRunsOnTheStreamClockGranterBuiltFirst) {
  check_applied_deadline(/*granter_first=*/true);
}

TEST(CmdLease, AppliedLeaseRunsOnTheStreamClockReplicaBuiltFirst) {
  check_applied_deadline(/*granter_first=*/false);
}

// ---------------------------------------------------------------------
// Parity: the strategy × backend matrix, live vs record-then-replay.

TEST(CmdParity, StrategyBackendMatrixLiveMatchesReplay) {
  constexpr int shard_count = 2;
  const election::strategy_kind strategies[] = {
      election::strategy_kind::full, election::strategy_kind::sifter_pill,
      election::strategy_kind::doorway_only,
      election::strategy_kind::adaptive};
  for (const auto strategy : strategies) {
    for (const bool remote : {false, true}) {
      SCOPED_TRACE(std::string(election::to_string(strategy)) +
                   (remote ? "/remote" : "/local"));
      svc::service_config config;
      config.nodes = 4;
      config.shards = shard_count;
      config.seed = 99;
      config.default_strategy = strategy;
      config.record_commands = true;
      svc::service service(std::move(config));
      std::optional<net::server> server;
      if (remote) {
        server.emplace(service, net::server_config{});
        ASSERT_TRUE(server->listening());
      }

      {
        constexpr int contenders = 3;
        const std::vector<std::string> keys = {"m/p", "m/q"};
        std::vector<std::unique_ptr<api::client>> clients;
        for (int i = 0; i < contenders; ++i) {
          clients.push_back(
              remote ? std::make_unique<api::client>("127.0.0.1",
                                                     server->port())
                     : std::make_unique<api::client>(service));
          ASSERT_TRUE(clients.back()->connected());
        }
        std::vector<std::thread> threads;
        for (int i = 0; i < contenders; ++i) {
          threads.emplace_back([&, i] {
            auto& client = *clients[static_cast<std::size_t>(i)];
            for (int round = 0; round < 8; ++round) {
              const std::string& key =
                  keys[static_cast<std::size_t>(i + round) % keys.size()];
              api::acquired result = client.try_acquire(key);
              // The RAII lease releases (synchronously, over the wire
              // for the remote flavor) at end of iteration.
            }
          });
        }
        for (auto& t : threads) t.join();
        // Clients leave scope holding nothing, so teardown emits no
        // further commands and the collect below races nothing.
      }

      const std::vector<cmd::command> log =
          retained_commands(service.registry());
      EXPECT_GT(log.size(), 0u);
      svc::instance_registry replayed(shard_count);
      const auto error = replayed.replay(log);
      ASSERT_FALSE(error.has_value()) << *error;
      EXPECT_EQ(service.registry().snapshot(), replayed.snapshot());

      for (const svc::key_inspection& live :
           service.registry().list_keys()) {
        const auto twin = replayed.inspect(live.key);
        if (!twin.has_value()) {
          // Touched-but-never-granted keys are implicit state: no
          // command ever named them, so replay correctly knows nothing.
          EXPECT_EQ(live.entry.epoch, 0u) << live.key;
          EXPECT_EQ(live.leader, -1) << live.key;
          continue;
        }
        EXPECT_EQ(twin->entry.epoch, live.entry.epoch) << live.key;
        EXPECT_EQ(twin->leader, live.leader) << live.key;
        if (live.leader != -1) EXPECT_EQ(twin->mode, live.mode) << live.key;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Adversarial: malformed streams and snapshots fail closed.

std::vector<cmd::command> small_log() {
  svc::instance_registry reg(1);
  reg.enable_command_log();
  const auto e0 = acquire_via_registry(reg, "k", 1, 0s);
  EXPECT_TRUE(e0.has_value());
  EXPECT_EQ(reg.release("k", 1, *e0), svc::lease_status::ok);
  const auto e1 = acquire_via_registry(reg, "k", 2, 0s);
  EXPECT_TRUE(e1.has_value());
  return retained_commands(reg);
}

TEST(CmdAdversarial, SequenceGapIsRejected) {
  std::vector<cmd::command> log = small_log();
  ASSERT_EQ(log.size(), 3u);
  log.erase(log.begin() + 1);  // drop the release between the acquires
  svc::instance_registry fresh(1);
  const auto error = fresh.replay(log);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("sequence gap"), std::string::npos) << *error;
}

TEST(CmdAdversarial, EpochMismatchIsRejected) {
  std::vector<cmd::command> log = small_log();
  log[1].epoch += 7;
  svc::instance_registry fresh(1);
  const auto error = fresh.replay(log);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("claims epoch"), std::string::npos) << *error;
}

TEST(CmdAdversarial, WrongHolderIsRejected) {
  std::vector<cmd::command> log = small_log();
  log[1].session = 42;  // the release names a holder who never won
  svc::instance_registry fresh(1);
  const auto error = fresh.replay(log);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("names holder"), std::string::npos) << *error;
}

TEST(CmdAdversarial, ShardMismatchIsRejected) {
  std::vector<cmd::command> log = small_log();
  log[0].shard += 1;  // recorded for a shard this registry doesn't have
  svc::instance_registry fresh(1);
  const auto error = fresh.replay(log);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("maps to shard"), std::string::npos) << *error;
}

class CmdSnapshotAdversarial : public ::testing::Test {
 protected:
  void SetUp() override {
    svc::instance_registry reg(2);
    ASSERT_TRUE(acquire_via_registry(reg, "snap/a", 1, 60s).has_value());
    ASSERT_TRUE(acquire_via_registry(reg, "snap/b", 2, 0s).has_value());
    bytes_ = reg.snapshot();
    ASSERT_GT(bytes_.size(), 10u);
  }

  /// Restore `mutated` into a fresh 2-shard registry; the error string
  /// ("" when it unexpectedly succeeded).
  static std::string restore_error(const std::vector<std::uint8_t>& mutated) {
    svc::instance_registry fresh(2);
    return fresh.restore(mutated, /*fence_restored=*/false).value_or("");
  }

  std::vector<std::uint8_t> bytes_;
};

TEST_F(CmdSnapshotAdversarial, IntactSnapshotRestores) {
  EXPECT_EQ(restore_error(bytes_), "");
}

TEST_F(CmdSnapshotAdversarial, CorruptMagicIsRejected) {
  std::vector<std::uint8_t> bad = bytes_;
  bad[0] ^= 0xFF;
  EXPECT_NE(restore_error(bad).find("magic"), std::string::npos);
}

TEST_F(CmdSnapshotAdversarial, UnknownVersionIsRejected) {
  std::vector<std::uint8_t> bad = bytes_;
  bad[4] ^= 0xFF;  // the u16 version field follows the u32 magic
  EXPECT_NE(restore_error(bad).find("version"), std::string::npos);
}

TEST_F(CmdSnapshotAdversarial, EveryTruncationFailsCleanly) {
  // No truncated prefix may crash, hang, or restore: chop at every
  // length and demand a clean error each time.
  for (std::size_t len = 0; len < bytes_.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes_.begin(),
                                        bytes_.begin() +
                                            static_cast<std::ptrdiff_t>(len));
    EXPECT_NE(restore_error(cut), "") << "length " << len;
  }
}

TEST_F(CmdSnapshotAdversarial, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> bad = bytes_;
  bad.push_back(0);
  EXPECT_NE(restore_error(bad).find("trailing"), std::string::npos);
}

TEST_F(CmdSnapshotAdversarial, ShardCountMismatchIsRejected) {
  svc::instance_registry three(3);
  const auto error = three.restore(bytes_, /*fence_restored=*/false);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("shards"), std::string::npos) << *error;
}

TEST_F(CmdSnapshotAdversarial, NonEmptyTargetIsRejected) {
  svc::instance_registry busy(2);
  ASSERT_TRUE(acquire_via_registry(busy, "already/here", 5, 0s).has_value());
  const auto error = busy.restore(bytes_, /*fence_restored=*/false);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("empty"), std::string::npos) << *error;
}

}  // namespace
}  // namespace elect
