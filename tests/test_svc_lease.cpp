// Lease-based ownership tests: crash-tolerant failover via TTL expiry,
// epoch fencing of zombie release/renew, renewals keeping a lease alive,
// graceful disconnect, the stop()-vs-acquire race (rejected results, no
// abort), parked waiters not creating registry state, and the
// participated-map eviction pass.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "svc/registry.hpp"
#include "svc/service.hpp"

namespace elect {
namespace {

using namespace std::chrono_literals;

// The acceptance scenario: a winner "crashes" (never releases). After the
// TTL the sweeper force-releases, a blocked acquirer takes over, and the
// zombie's stale-epoch release/renew are rejected gracefully — no abort,
// no double leader.
TEST(SvcLease, ExpiryFailsOverAndZombieIsFenced) {
  // TTL is deliberately generous relative to the sweep interval: after
  // the heir wins it must get through a handful of assertions and its
  // own release before the *next* expiry — a tight TTL would flake under
  // TSan/CI slowdowns.
  svc::service service(svc::service_config{.nodes = 4,
                                           .shards = 2,
                                           .seed = 7,
                                           .lease_ttl_ms = 400,
                                           .sweep_interval_ms = 20});
  auto zombie = service.connect();
  auto heir = service.connect();

  const auto won = zombie.try_acquire("crashy");
  ASSERT_TRUE(won.won);
  ASSERT_EQ(won.epoch, 0u);
  ASSERT_LT(won.lease_deadline, std::chrono::steady_clock::time_point::max());

  // The heir blocks in acquire(); only lease expiry can unblock it
  // because the zombie never calls release().
  svc::acquire_result heir_result;
  std::thread blocked([&] { heir_result = heir.acquire("crashy"); });
  blocked.join();

  EXPECT_TRUE(heir_result.won);
  EXPECT_GE(heir_result.epoch, 1u);
  EXPECT_EQ(service.registry().leader_of("crashy"), heir.id());

  // The zombie wakes up and tries to act on its long-expired lease.
  EXPECT_EQ(zombie.release("crashy", won.epoch),
            svc::lease_status::stale_epoch);
  EXPECT_EQ(zombie.renew("crashy", won.epoch), svc::lease_status::stale_epoch);
  // The unfenced release is also rejected: the zombie is not the holder.
  EXPECT_EQ(zombie.release("crashy"), svc::lease_status::not_leader);
  // Fencing left the heir untouched.
  EXPECT_EQ(service.registry().leader_of("crashy"), heir.id());

  const auto report = service.report();
  EXPECT_GE(report.expirations, 1u);
  EXPECT_GE(report.stale_fences, 3u);
  EXPECT_EQ(heir.release("crashy", heir_result.epoch), svc::lease_status::ok);
}

TEST(SvcLease, RenewKeepsLeaseAliveAcrossManyTtls) {
  // The background sweeper is parked on a huge interval; sweeps are
  // driven manually right after each renew, so the test stays
  // deterministic even when CI (or TSan) stalls this thread: only a
  // >250ms stall inside the two-line renew->sweep gap could flake it.
  svc::service service(svc::service_config{.nodes = 2,
                                           .shards = 2,
                                           .seed = 3,
                                           .lease_ttl_ms = 250,
                                           .sweep_interval_ms = 60'000});
  auto holder = service.connect();
  auto rival = service.connect();

  const auto won = holder.try_acquire("steady");
  ASSERT_TRUE(won.won);

  // Hold across many renew/sweep cycles; a renewed lease never expires.
  for (int i = 0; i < 16; ++i) {
    std::this_thread::sleep_for(10ms);
    ASSERT_EQ(holder.renew("steady", won.epoch), svc::lease_status::ok)
        << "renewal " << i;
    EXPECT_EQ(service.sweep_now(), 0u) << "renewal " << i;
    EXPECT_EQ(service.registry().leader_of("steady"), holder.id());
  }
  // A rival contending mid-hold loses: the instance is decided.
  EXPECT_FALSE(rival.try_acquire("steady").won);

  const auto report = service.report();
  EXPECT_EQ(report.expirations, 0u);
  EXPECT_GE(report.renewals, 16u);
  EXPECT_EQ(holder.release("steady"), svc::lease_status::ok);
}

// The fenced-release overload protects a session from its own past: if
// the same session re-acquires after an expiry, a release quoting the old
// epoch must not drop the new lease.
TEST(SvcLease, StaleEpochFromSameSessionCannotReleaseNewLease) {
  // Background sweeper parked on a huge interval; expiry is driven
  // manually via sweep_now() so the second lease cannot be expired out
  // from under the final assertions by a slow/loaded machine.
  svc::service service(svc::service_config{.nodes = 2,
                                           .shards = 2,
                                           .seed = 9,
                                           .lease_ttl_ms = 40,
                                           .sweep_interval_ms = 60'000});
  auto session = service.connect();

  const auto first = session.try_acquire("phoenix");
  ASSERT_TRUE(first.won);
  // Let the lease lapse, then sweep it explicitly.
  std::this_thread::sleep_for(60ms);
  ASSERT_EQ(service.sweep_now(), 1u);
  ASSERT_EQ(service.registry().leader_of("phoenix"), -1);

  const auto second = session.acquire("phoenix");
  ASSERT_TRUE(second.won);
  ASSERT_GT(second.epoch, first.epoch);

  EXPECT_EQ(session.release("phoenix", first.epoch),
            svc::lease_status::stale_epoch);
  EXPECT_EQ(service.registry().leader_of("phoenix"), session.id());
  EXPECT_EQ(session.release("phoenix", second.epoch), svc::lease_status::ok);
}

TEST(SvcLease, DisconnectReleasesEverythingHeld) {
  svc::service service(svc::service_config{.nodes = 4, .shards = 4});
  auto leaver = service.connect();
  auto other = service.connect();

  ASSERT_TRUE(leaver.try_acquire("d/0").won);
  ASSERT_TRUE(leaver.try_acquire("d/1").won);
  ASSERT_TRUE(other.try_acquire("d/2").won);

  EXPECT_EQ(leaver.disconnect(), 2u);
  EXPECT_EQ(service.registry().leader_of("d/0"), -1);
  EXPECT_EQ(service.registry().leader_of("d/1"), -1);
  // Someone else's lease is untouched.
  EXPECT_EQ(service.registry().leader_of("d/2"), other.id());
  // The keys are immediately electable again.
  EXPECT_TRUE(other.try_acquire("d/0").won);
}

TEST(SvcLease, LeaseDeadlineVisibleAndInfiniteWithoutTtl) {
  svc::service service(svc::service_config{.nodes = 2, .shards = 2});
  auto session = service.connect();
  EXPECT_FALSE(
      service.registry().lease_deadline_of("forever").has_value());
  const auto won = session.try_acquire("forever");
  ASSERT_TRUE(won.won);
  // lease_ttl_ms == 0: the lease never expires and sweeps are no-ops.
  EXPECT_EQ(won.lease_deadline, std::chrono::steady_clock::time_point::max());
  const auto deadline = service.registry().lease_deadline_of("forever");
  ASSERT_TRUE(deadline.has_value());
  EXPECT_EQ(*deadline, std::chrono::steady_clock::time_point::max());
  EXPECT_EQ(service.sweep_now(), 0u);
  EXPECT_EQ(service.registry().leader_of("forever"), session.id());
}

// ---------------------------------------------------------------------
// Satellite: try_acquire_for — bounded blocking acquires.

TEST(SvcTimedAcquire, TimesOutWhileHeldThenSucceedsAfterRelease) {
  svc::service service(svc::service_config{.nodes = 2, .shards = 2, .seed = 6});
  auto holder = service.connect();
  auto waiter = service.connect();
  const auto held = holder.try_acquire("bounded");
  ASSERT_TRUE(held.won);

  // The key is held and never released within the timeout: the waiter
  // must come back with timed_out instead of blocking forever (the old
  // choice was try-once or wait-forever).
  const auto deadline_miss = waiter.try_acquire_for("bounded", 50ms);
  EXPECT_FALSE(deadline_miss.won);
  EXPECT_TRUE(deadline_miss.timed_out);
  EXPECT_FALSE(deadline_miss.rejected);
  EXPECT_EQ(service.registry().leader_of("bounded"), holder.id());

  // After a release the same call wins well within its bound.
  ASSERT_EQ(holder.release("bounded", held.epoch), svc::lease_status::ok);
  const auto won = waiter.try_acquire_for("bounded", 10'000ms);
  EXPECT_TRUE(won.won);
  EXPECT_FALSE(won.timed_out);
}

TEST(SvcTimedAcquire, WakesWhenHolderReleasesMidWait) {
  svc::service service(svc::service_config{.nodes = 2, .shards = 2, .seed = 8});
  auto holder = service.connect();
  auto waiter = service.connect();
  const auto held = holder.try_acquire("midwait");
  ASSERT_TRUE(held.won);

  svc::acquire_result result;
  std::atomic<bool> entered{false};
  std::thread blocked([&] {
    entered.store(true);
    result = waiter.try_acquire_for("midwait", 60'000ms);
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(20ms);
  ASSERT_EQ(holder.release("midwait", held.epoch), svc::lease_status::ok);
  blocked.join();
  EXPECT_TRUE(result.won);
  EXPECT_FALSE(result.timed_out);
}

TEST(SvcTimedAcquire, StopWakesTimedWaiterAsRejected) {
  svc::service service(svc::service_config{.nodes = 2, .shards = 2, .seed = 12});
  auto holder = service.connect();
  auto waiter = service.connect();
  ASSERT_TRUE(holder.try_acquire("stopped").won);

  // A timed waiter parked on a long timeout must be woken by stop() and
  // come back rejected immediately — not sleep out its full bound.
  svc::acquire_result result;
  std::atomic<bool> entered{false};
  std::thread blocked([&] {
    entered.store(true);
    result = waiter.try_acquire_for("stopped", 60'000ms);
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(20ms);  // let it park on the epoch
  const auto before = std::chrono::steady_clock::now();
  service.stop();
  blocked.join();
  EXPECT_LT(std::chrono::steady_clock::now() - before, 10s);
  EXPECT_TRUE(result.rejected);
  EXPECT_FALSE(result.won);
  EXPECT_FALSE(result.timed_out);
}

// milliseconds::max() means "no bound": the deadline saturates instead
// of overflowing into the past and timing out at once.
TEST(SvcTimedAcquire, MaxTimeoutWaitsLikeAcquire) {
  svc::service service(svc::service_config{.nodes = 2, .shards = 2});
  auto holder = service.connect();
  auto waiter = service.connect();
  const auto held = holder.try_acquire("forever");
  ASSERT_TRUE(held.won);

  std::atomic<bool> done{false};
  svc::acquire_result result;
  std::thread blocked([&] {
    result =
        waiter.try_acquire_for("forever", std::chrono::milliseconds::max());
    done.store(true);
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(done.load()) << "a max() timeout gave up while the key was held";
  ASSERT_EQ(holder.release("forever", held.epoch), svc::lease_status::ok);
  blocked.join();
  EXPECT_TRUE(result.won);
  EXPECT_FALSE(result.timed_out);
}

TEST(SvcTimedAcquire, ZeroTimeoutIsASingleAttempt) {
  svc::service service(svc::service_config{.nodes = 2, .shards = 2});
  auto holder = service.connect();
  auto waiter = service.connect();
  ASSERT_TRUE(holder.try_acquire("oneshot").won);
  const auto result = waiter.try_acquire_for("oneshot", 0ms);
  EXPECT_FALSE(result.won);
  EXPECT_TRUE(result.timed_out);
}

// ---------------------------------------------------------------------
// Satellite: stop() racing acquires must reject, not abort or hang.

TEST(SvcStop, ConcurrentStopRejectsAcquiresGracefully) {
  svc::service service(svc::service_config{.nodes = 4, .shards = 4, .seed = 2});
  constexpr int client_count = 8;
  std::vector<svc::service::session> sessions;
  for (int c = 0; c < client_count; ++c) sessions.push_back(service.connect());

  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < client_count; ++c) {
    clients.emplace_back([&, c] {
      auto& session = sessions[static_cast<std::size_t>(c)];
      while (!go.load()) std::this_thread::yield();
      // Loop until the stop() below turns us away — the rejected result
      // is the only exit, so a hang or abort here is the regression.
      for (int op = 0;; ++op) {
        const std::string key = "s/" + std::to_string(op % 16);
        const auto result = session.try_acquire(key);
        if (result.rejected) {
          rejected.fetch_add(1);
          // Stopped for good: every later call must also be rejected.
          EXPECT_TRUE(session.try_acquire("after-stop").rejected);
          return;
        }
        served.fetch_add(1);
        if (result.won) session.release(key);
      }
    });
  }
  go.store(true);
  // Let the clients get going, then yank the service out from under them.
  std::this_thread::sleep_for(5ms);
  service.stop();
  for (auto& t : clients) t.join();

  EXPECT_GT(rejected.load(), 0u);
  const auto report = service.report();
  EXPECT_EQ(report.acquires, served.load());
  EXPECT_GE(report.rejected_acquires, rejected.load());
}

TEST(SvcStop, BlockedAcquireWakesRejectedOnStop) {
  svc::service service(svc::service_config{.nodes = 2, .shards = 2, .seed = 4});
  auto holder = service.connect();
  auto waiter = service.connect();
  ASSERT_TRUE(holder.try_acquire("held").won);

  svc::acquire_result blocked_result;
  std::atomic<bool> entered{false};
  std::thread blocked([&] {
    entered.store(true);
    blocked_result = waiter.acquire("held");  // loses, sleeps on the epoch
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(20ms);  // give it time to park
  service.stop();
  blocked.join();

  EXPECT_TRUE(blocked_result.rejected);
  EXPECT_FALSE(blocked_result.won);
}

// ---------------------------------------------------------------------
// Satellite: parked waiters must not create key state.

TEST(SvcRegistry, WaiterOnUnknownKeyCreatesNoState) {
  svc::service service(svc::service_config{.nodes = 2, .shards = 2});
  auto session = service.connect();
  auto& registry = service.registry();
  ASSERT_EQ(registry.key_count(), 0u);
  EXPECT_FALSE(registry.peek("ghost").has_value());
  const std::uint64_t ids_before = registry.remaining_instance_ids();

  std::atomic<int> woke{0};
  const std::uint64_t id =
      registry.park("ghost", 0, [&] { woke.fetch_add(1); });
  ASSERT_NE(id, 0u);
  // The waiter parked on a never-acquired key: no state, no instance id
  // used up, and it is still parked (nothing moved the implicit epoch 0).
  EXPECT_EQ(registry.key_count(), 0u);
  EXPECT_EQ(registry.remaining_instance_ids(), ids_before);
  EXPECT_EQ(registry.parked_count(), 1u);
  EXPECT_EQ(woke.load(), 0);

  // First real acquire creates the key at epoch 0 (no wake: a grant
  // moves no epoch); the release bumps to epoch 1 and must wake the
  // waiter even though it parked pre-creation — on the releasing thread,
  // before release() returns.
  ASSERT_TRUE(session.try_acquire("ghost").won);
  EXPECT_EQ(woke.load(), 0);
  EXPECT_EQ(session.release("ghost"), svc::lease_status::ok);
  EXPECT_EQ(woke.load(), 1);
  EXPECT_EQ(registry.parked_count(), 0u);
  EXPECT_EQ(registry.key_count(), 1u);
  // The wake was handed out: taking the waiter back now finds nothing.
  EXPECT_FALSE(registry.unpark(id));
}

TEST(SvcRegistry, ParkRefusesAMovedEpochAndUnparkTakesTheWaiterBack) {
  svc::service service(svc::service_config{.nodes = 2, .shards = 2});
  auto session = service.connect();
  auto& registry = service.registry();
  const auto held = session.try_acquire("moved");
  ASSERT_TRUE(held.won);
  ASSERT_EQ(session.release("moved", held.epoch), svc::lease_status::ok);

  // Epoch 0 already ended: parking on it would sleep through a move
  // that already happened, so it is refused — the caller retries now.
  int woke = 0;
  EXPECT_EQ(registry.park("moved", held.epoch, [&] { ++woke; }), 0u);

  // Parked on the current epoch, then taken back: the wake never runs,
  // even when the epoch moves afterwards.
  const std::uint64_t id =
      registry.park("moved", held.epoch + 1, [&] { ++woke; });
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(registry.unpark(id));
  EXPECT_FALSE(registry.unpark(id));
  const auto again = session.try_acquire("moved");
  ASSERT_TRUE(again.won);
  ASSERT_EQ(session.release("moved", again.epoch), svc::lease_status::ok);
  EXPECT_EQ(woke, 0);
  EXPECT_EQ(registry.parked_count(), 0u);
}

// visit_keys walks the keys in list_keys() order and copies nothing past
// the key its visitor stops at: the admin listing's bound on how long it
// holds each shard lock.
TEST(SvcRegistry, VisitKeysStopsWhereTheVisitorSays) {
  svc::service service(svc::service_config{.nodes = 2, .shards = 4});
  auto session = service.connect();
  auto& registry = service.registry();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(session.try_acquire("visit/" + std::to_string(i)).won);
  }
  const auto all = registry.list_keys();
  ASSERT_EQ(all.size(), 200u);

  for (const std::size_t limit : {std::size_t{1}, std::size_t{10},
                                  std::size_t{199}}) {
    std::vector<std::string> seen;
    registry.visit_keys([&](const svc::key_inspection& k) {
      seen.push_back(k.key);
      return seen.size() < limit;
    });
    ASSERT_EQ(seen.size(), limit);
    for (std::size_t i = 0; i < limit; ++i) EXPECT_EQ(seen[i], all[i].key);
  }
  std::size_t visited = 0;
  registry.visit_keys([&](const svc::key_inspection& k) {
    EXPECT_EQ(k.key, all[visited].key);
    EXPECT_EQ(k.leader, session.id());
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, all.size());
}

// ---------------------------------------------------------------------
// Satellite: the per-worker participated map must not grow linearly with
// key churn forever.

TEST(SvcService, ParticipatedMapBoundedUnderKeyChurn) {
  constexpr std::size_t threshold = 64;
  svc::service service(svc::service_config{
      .nodes = 2, .shards = 4, .participated_prune_threshold = threshold});
  auto session = service.connect();

  // Churn through many more distinct keys than the threshold; each is
  // acquired once, released, and never touched again — exactly the
  // workload that used to leak one entry per key per node forever.
  constexpr int churned_keys = 1000;
  for (int k = 0; k < churned_keys; ++k) {
    const std::string key = "churn/" + std::to_string(k);
    ASSERT_TRUE(session.try_acquire(key).won);
    session.release(key);
  }

  const auto report = service.report();
  // Released keys' instances no longer match the registry, so the prune
  // pass evicts them: the map stays around the threshold instead of
  // holding all churned keys.
  EXPECT_LE(report.participated_entries, threshold + 1)
      << "participated map grew linearly with churned keys";
  EXPECT_EQ(report.wins, static_cast<std::uint64_t>(churned_keys));
  // The pool's node stores forget the instances the prune retires, so
  // they track the participated map too (a solo election leaves 3
  // variables per node).
  EXPECT_GT(report.pool_variables, 0u);
  EXPECT_LE(report.pool_variables, 2 * 3 * 2 * (threshold + 1))
      << "node stores kept every churned key's election";
}

// One key, many epochs: every release retires the key's instance, and
// the stores must not keep one election's variables per epoch.
TEST(SvcService, PoolStoresForgetDecidedEpochs) {
  constexpr int nodes = 4;
  svc::service service(svc::service_config{.nodes = nodes, .shards = 2});
  auto session = service.connect();
  constexpr std::uint64_t epochs = 10'000;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    const auto held = session.try_acquire("one");
    ASSERT_TRUE(held.won);
    ASSERT_EQ(held.epoch, e);
    ASSERT_EQ(session.release("one", held.epoch), svc::lease_status::ok);
  }
  const auto report = service.report();
  EXPECT_EQ(report.wins, epochs);
  EXPECT_GT(report.pool_variables, 0u);
  EXPECT_LE(report.pool_variables, 64u * nodes)
      << "node stores grew with the epoch count";
}

// A key whose instance is still live must survive the prune pass (its
// entry is what blocks a second invocation of a live instance).
TEST(SvcService, PruneKeepsLiveInstanceEntries) {
  constexpr std::size_t threshold = 8;
  constexpr int sessions = 4;
  svc::service service(svc::service_config{
      .nodes = 1, .shards = 2, .participated_prune_threshold = threshold});
  std::vector<svc::service::session> handles;
  for (int i = 0; i < sessions; ++i) handles.push_back(service.connect());

  // Session 0 holds "pinned" (instance stays current → entry must stay).
  ASSERT_TRUE(handles[0].try_acquire("pinned").won);
  // Churn well past the threshold to force prune passes.
  for (int k = 0; k < 64; ++k) {
    const std::string key = "c/" + std::to_string(k);
    ASSERT_TRUE(handles[1].try_acquire(key).won);
    handles[1].release(key);
  }
  // All sessions share the single node: every later acquire of "pinned"
  // must still lose locally via the participated entry, not re-invoke
  // the decided instance.
  for (int i = 1; i < sessions; ++i) {
    EXPECT_FALSE(handles[static_cast<std::size_t>(i)].try_acquire("pinned").won);
  }
  EXPECT_EQ(service.registry().leader_of("pinned"), handles[0].id());
}

}  // namespace
}  // namespace elect
