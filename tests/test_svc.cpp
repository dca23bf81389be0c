// Election-service tests: unique leadership per key under concurrent
// acquirers (every observed interleaving), re-election after release,
// shard distribution sanity, a pool that costs no threads, seeded
// replay, and the mt runtime's batching mailbox/transport path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "election/leader_elect.hpp"
#include "mt/cluster.hpp"
#include "svc/service.hpp"

namespace elect {
namespace {

TEST(SvcService, SoloAcquireWins) {
  svc::service service(svc::service_config{.nodes = 4, .shards = 2});
  auto session = service.connect();
  const auto result = session.try_acquire("alpha");
  EXPECT_TRUE(result.won);
  EXPECT_EQ(result.epoch, 0u);
  EXPECT_EQ(service.registry().leader_of("alpha"), session.id());

  const auto report = service.report();
  EXPECT_EQ(report.acquires, 1u);
  EXPECT_EQ(report.wins, 1u);
  EXPECT_GT(report.total_messages, 0u);
}

TEST(SvcService, UniqueLeaderPerKeyUnderConcurrentAcquirers) {
  // More sessions than keys; every session races on every key from its
  // own OS thread. Exactly one session may win each (key, epoch 0).
  constexpr int sessions = 6;
  const std::vector<std::string> keys = {"k/0", "k/1", "k/2"};
  svc::service service(
      svc::service_config{.nodes = sessions, .shards = 4, .seed = 17});

  std::vector<svc::service::session> handles;
  for (int i = 0; i < sessions; ++i) handles.push_back(service.connect());

  // vector<char>, not vector<bool>: the clients write distinct elements
  // concurrently, and vector<bool>'s bit-packing would make that a race.
  std::vector<std::vector<char>> won(
      keys.size(), std::vector<char>(sessions, 0));
  std::vector<std::thread> clients;
  clients.reserve(sessions);
  for (int i = 0; i < sessions; ++i) {
    clients.emplace_back([&, i] {
      for (std::size_t k = 0; k < keys.size(); ++k) {
        won[k][static_cast<std::size_t>(i)] =
            handles[static_cast<std::size_t>(i)].try_acquire(keys[k]).won;
      }
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t k = 0; k < keys.size(); ++k) {
    int winners = 0;
    for (int i = 0; i < sessions; ++i) {
      winners += won[k][static_cast<std::size_t>(i)] ? 1 : 0;
    }
    EXPECT_EQ(winners, 1) << "key " << keys[k];
    EXPECT_EQ(service.registry().leader_of(keys[k]) == -1, false);
  }
  const auto report = service.report();
  EXPECT_EQ(report.acquires,
            static_cast<std::uint64_t>(sessions) * keys.size());
  EXPECT_EQ(report.wins, keys.size());
}

TEST(SvcService, MoreSessionsThanNodesStillOneLeader) {
  // Sessions sharing a pool node serialize on its driver; the second
  // invocation on a node that already contended an instance must lose.
  constexpr int sessions = 6;
  svc::service service(
      svc::service_config{.nodes = 2, .shards = 2, .seed = 5});
  std::vector<svc::service::session> handles;
  for (int i = 0; i < sessions; ++i) handles.push_back(service.connect());

  std::atomic<int> winners{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < sessions; ++i) {
    clients.emplace_back([&, i] {
      if (handles[static_cast<std::size_t>(i)].try_acquire("hot").won) {
        winners.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(winners.load(), 1);
}

TEST(SvcService, ReelectionAfterRelease) {
  // A single session acquires and releases the same key repeatedly; each
  // release bumps the epoch and the solo acquirer must win the fresh
  // instance every time.
  svc::service service(svc::service_config{.nodes = 4, .shards = 2});
  auto session = service.connect();
  for (std::uint64_t epoch = 0; epoch < 5; ++epoch) {
    const auto result = session.try_acquire("cycle");
    ASSERT_TRUE(result.won) << "epoch " << epoch;
    ASSERT_EQ(result.epoch, epoch);
    session.release("cycle");
    EXPECT_EQ(service.registry().leader_of("cycle"), -1);
  }
  const auto report = service.report();
  EXPECT_EQ(report.wins, 5u);
  EXPECT_EQ(report.releases, 5u);
}

TEST(SvcService, BlockingAcquireHandsLeadershipAround) {
  // The distributed-lock pattern: every session blocks in acquire() until
  // it holds the key, runs a critical section, releases. Mutual exclusion
  // and eventual hand-off to every session must hold.
  constexpr int sessions = 4;
  svc::service service(
      svc::service_config{.nodes = sessions, .shards = 2, .seed = 23});
  std::vector<svc::service::session> handles;
  for (int i = 0; i < sessions; ++i) handles.push_back(service.connect());

  std::atomic<int> inside{0};
  std::atomic<int> entries{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < sessions; ++i) {
    clients.emplace_back([&, i] {
      auto& session = handles[static_cast<std::size_t>(i)];
      const auto result = session.acquire("mutex");
      EXPECT_TRUE(result.won);
      const int concurrent = inside.fetch_add(1) + 1;
      EXPECT_EQ(concurrent, 1) << "two holders at once";
      entries.fetch_add(1);
      inside.fetch_sub(1);
      session.release("mutex");
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(entries.load(), sessions);
  EXPECT_EQ(service.report().releases,
            static_cast<std::uint64_t>(sessions));
}

TEST(SvcService, ShardDistributionSanity) {
  constexpr int shard_count = 8;
  constexpr int key_count = 64;
  svc::service service(
      svc::service_config{.nodes = 4, .shards = shard_count});
  auto session = service.connect();
  for (int k = 0; k < key_count; ++k) {
    ASSERT_TRUE(session.try_acquire("key/" + std::to_string(k)).won);
  }

  auto& registry = service.registry();
  EXPECT_EQ(registry.key_count(), static_cast<std::size_t>(key_count));
  std::size_t sum = 0;
  std::size_t max_in_one = 0;
  int used = 0;
  for (int s = 0; s < shard_count; ++s) {
    const std::size_t in_shard = registry.keys_in_shard(s);
    sum += in_shard;
    max_in_one = std::max(max_in_one, in_shard);
    used += in_shard > 0 ? 1 : 0;
  }
  EXPECT_EQ(sum, static_cast<std::size_t>(key_count));
  // No degenerate hashing: nobody owns everything, several shards in use.
  EXPECT_LT(max_in_one, static_cast<std::size_t>(key_count / 2));
  EXPECT_GE(used, shard_count / 2);
  // shard_of is stable and in range.
  for (int k = 0; k < key_count; ++k) {
    const std::string key = "key/" + std::to_string(k);
    const int shard = registry.shard_of(key);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, shard_count);
    EXPECT_EQ(shard, registry.shard_of(key));
  }
}

TEST(SvcService, ReportExposesPoolAndLatencyMetrics) {
  svc::service service(svc::service_config{.nodes = 4, .shards = 4});
  auto session = service.connect();
  for (int k = 0; k < 8; ++k) {
    session.try_acquire("m/" + std::to_string(k));
  }
  const auto report = service.report();
  EXPECT_EQ(report.acquires, 8u);
  EXPECT_GT(report.messages_per_acquire, 0.0);
  EXPECT_GT(report.mean_communicate_calls, 0.0);
  EXPECT_GE(report.max_communicate_calls,
            static_cast<std::uint64_t>(report.mean_communicate_calls));
  EXPECT_GE(report.acquire_p99_ms, report.acquire_p50_ms);
  EXPECT_GT(report.acquire_p50_ms, 0.0);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"acquires\":8"), std::string::npos);
  EXPECT_NE(json.find("\"shards\":["), std::string::npos);
}

std::size_t thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(begin(tasks), end(tasks)));
}

TEST(SvcService, PoolCostsNoThreads) {
  const std::size_t before = thread_count();
  {
    svc::service service(svc::service_config{.nodes = 64, .shards = 2});
    EXPECT_EQ(thread_count(), before) << "the pool started threads";
  }
  svc::service service(svc::service_config{
      .nodes = 64, .shards = 2, .seed = 3, .lease_ttl_ms = 60'000});
  EXPECT_EQ(thread_count(), before + 1) << "more threads than the sweeper";

  // Eight sessions hand one key around: every epoch has one holder.
  constexpr int sessions = 8;
  constexpr int rounds = 25;
  std::vector<svc::service::session> handles;
  for (int i = 0; i < sessions; ++i) handles.push_back(service.connect());
  std::atomic<int> inside{0};
  std::mutex won_mutex;
  std::vector<std::uint64_t> won;
  std::vector<std::thread> clients;
  for (auto& session : handles) {
    clients.emplace_back([&] {
      for (int r = 0; r < rounds; ++r) {
        const auto result = session.acquire("hot");
        ASSERT_TRUE(result.won);
        EXPECT_EQ(inside.fetch_add(1), 0) << "two holders at once";
        {
          const std::lock_guard<std::mutex> lock(won_mutex);
          won.push_back(result.epoch);
        }
        inside.fetch_sub(1);
        ASSERT_EQ(session.release("hot", result.epoch), svc::lease_status::ok);
      }
    });
  }
  for (auto& t : clients) t.join();
  std::vector<std::uint64_t> every_epoch(sessions * rounds);
  std::iota(every_epoch.begin(), every_epoch.end(), 0);
  std::sort(won.begin(), won.end());
  EXPECT_EQ(won, every_epoch);
}

// Jobs queued on one node while another thread runs the pool: every
// one is served, including those behind a job that lost without sending
// a message.
TEST(SvcService, SessionsSharingANodeAreAllServed) {
  constexpr int sessions = 8;
  constexpr int rounds = 1000;
  svc::service service(
      svc::service_config{.nodes = 2, .shards = 2, .seed = 9});
  std::vector<svc::service::session> handles;
  for (int i = 0; i < sessions; ++i) handles.push_back(service.connect());
  std::atomic<int> inside{0};
  std::atomic<std::uint64_t> wins{0};
  std::vector<std::thread> clients;
  for (auto& session : handles) {
    clients.emplace_back([&] {
      for (int r = 0; r < rounds; ++r) {
        const auto result = session.try_acquire("shared");
        if (!result.won) continue;
        EXPECT_EQ(inside.fetch_add(1), 0) << "two holders at once";
        inside.fetch_sub(1);
        wins.fetch_add(1);
        EXPECT_EQ(session.release("shared", result.epoch),
                  svc::lease_status::ok);
      }
    });
  }
  for (auto& t : clients) t.join();
  const auto report = service.report();
  EXPECT_EQ(report.acquires, std::uint64_t{sessions} * rounds);
  EXPECT_EQ(report.wins, wins.load());
  EXPECT_EQ(service.registry().peek("shared")->epoch, wins.load());
}

TEST(SvcService, SeededScriptReplaysTheSameElections) {
  constexpr int sessions = 4;
  constexpr int keys = 8;
  struct replay {
    std::vector<std::uint64_t> calls;  // (outcome, epoch) per call
    std::uint64_t trace_hash = 0;
    std::uint64_t messages = 0;
  };
  const auto run = [] {
    svc::service service(
        svc::service_config{.nodes = 4, .shards = 2, .seed = 77});
    std::vector<svc::service::session> handles;
    for (int i = 0; i < sessions; ++i) handles.push_back(service.connect());
    // held[s][k]: the epoch session s holds key k at, + 1 (0 = not held).
    std::vector<std::vector<std::uint64_t>> held(
        sessions, std::vector<std::uint64_t>(keys, 0));
    rng_stream script(2024);
    replay out;
    for (int step = 0; step < 400; ++step) {
      const auto s = static_cast<std::size_t>(script.below(sessions));
      const auto k = static_cast<std::size_t>(script.below(keys));
      const std::string key = "replay/" + std::to_string(k);
      if (held[s][k] != 0) {
        const auto status = handles[s].release(key, held[s][k] - 1);
        out.calls.push_back(static_cast<std::uint64_t>(status));
        held[s][k] = 0;
        continue;
      }
      const auto result = handles[s].try_acquire(key);
      out.calls.push_back(result.won ? 1 : 0);
      out.calls.push_back(result.epoch);
      if (result.won) held[s][k] = result.epoch + 1;
    }
    const auto report = service.report();
    out.trace_hash = report.pool_trace_hash;
    out.messages = report.total_messages;
    return out;
  };
  const replay first = run();
  const replay second = run();
  EXPECT_NE(first.trace_hash, 0u);
  EXPECT_GT(first.messages, 0u);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_EQ(first.messages, second.messages);
  EXPECT_EQ(first.calls, second.calls);
}

// ---------------------------------------------------------------------
// Batching mailbox / transport.

TEST(MtMailbox, PushBatchDeliversEverythingOnce) {
  mt::mailbox box;
  std::vector<engine::message> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(engine::message{
        0, 1, static_cast<std::uint64_t>(i), engine::ack_reply{}});
  }
  box.push_batch(batch);
  EXPECT_TRUE(batch.empty());

  std::deque<engine::message> out;
  ASSERT_TRUE(box.drain_blocking(out));
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].token,
              static_cast<std::uint64_t>(i));
  }
}

TEST(MtMailbox, BatchCoalescingStress) {
  // Several producers hammer one mailbox with push_batch while the
  // consumer drains; every message must arrive exactly once, in
  // per-producer order.
  constexpr int producers = 4;
  constexpr int per_producer = 500;
  mt::mailbox box;
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&box, p] {
      std::vector<engine::message> batch;
      for (int i = 0; i < per_producer; ++i) {
        batch.push_back(engine::message{
            p, 0, static_cast<std::uint64_t>(i), engine::ack_reply{}});
        if (batch.size() == 7) box.push_batch(batch);
      }
      box.push_batch(batch);
    });
  }

  std::vector<std::uint64_t> next_token(producers, 0);
  std::uint64_t received = 0;
  std::deque<engine::message> out;
  while (received < producers * per_producer) {
    out.clear();
    ASSERT_TRUE(box.drain_blocking(out));
    for (const engine::message& m : out) {
      const auto p = static_cast<std::size_t>(m.from);
      ASSERT_EQ(m.token, next_token[p]) << "per-producer order broken";
      next_token[p]++;
      received++;
    }
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(received, static_cast<std::uint64_t>(producers) * per_producer);
}

TEST(MtCluster, BatchedTransportElectsOneLeaderWithFewerPushes) {
  constexpr int n = 8;
  constexpr std::int64_t win_value =
      static_cast<std::int64_t>(election::tas_result::win);
  std::uint64_t batched_pushes = 0;
  std::uint64_t batched_messages = 0;
  for (const bool batching : {true, false}) {
    mt::cluster cluster(n, /*seed=*/31,
                        mt::cluster_options{.batch_transport = batching});
    for (process_id pid = 0; pid < n; ++pid) {
      cluster.attach(pid, [](engine::node& node) {
        return engine::erase_result(election::leader_elect(node));
      });
    }
    cluster.start();
    cluster.wait();
    int winners = 0;
    for (process_id pid = 0; pid < n; ++pid) {
      winners += cluster.result_of(pid) == win_value ? 1 : 0;
    }
    EXPECT_EQ(winners, 1) << "batching=" << batching;
    if (batching) {
      batched_pushes = cluster.total_mailbox_pushes();
      batched_messages = cluster.total_messages();
      // Coalescing must actually coalesce: strictly fewer lock
      // acquisitions than messages (each broadcast alone offers n
      // same-destination opportunities).
      EXPECT_LT(batched_pushes, batched_messages);
    } else {
      EXPECT_EQ(cluster.total_mailbox_pushes(), cluster.total_messages());
    }
  }
  EXPECT_GT(batched_messages, 0u);
}

// ---------------------------------------------------------------------
// service_config::validate(): every rejectable field produces a
// descriptive error instead of a deep abort, and the error names the
// offending field.

TEST(SvcConfigValidate, DefaultAndTypicalConfigsAreValid) {
  EXPECT_FALSE(svc::service_config{}.validate().has_value());
  svc::service_config tuned{.nodes = 16,
                            .shards = 8,
                            .lease_ttl_ms = 5000,
                            .sweep_interval_ms = 1000};
  tuned.key_strategies["hot/key"] = election::strategy_kind::full;
  EXPECT_FALSE(tuned.validate().has_value());
}

TEST(SvcConfigValidate, RejectsNonPositiveNodes) {
  for (const int nodes : {0, -1, -100}) {
    svc::service_config config{.nodes = nodes};
    const auto error = config.validate();
    ASSERT_TRUE(error.has_value()) << "nodes=" << nodes;
    EXPECT_NE(error->find("nodes"), std::string::npos) << *error;
  }
}

TEST(SvcConfigValidate, RejectsNonPositiveShards) {
  for (const int shards : {0, -3}) {
    svc::service_config config{.shards = shards};
    const auto error = config.validate();
    ASSERT_TRUE(error.has_value()) << "shards=" << shards;
    EXPECT_NE(error->find("shards"), std::string::npos) << *error;
  }
}

TEST(SvcConfigValidate, RejectsNonPositiveMaxRounds) {
  svc::service_config config;
  config.max_rounds = 0;
  const auto error = config.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("max_rounds"), std::string::npos) << *error;
}

TEST(SvcConfigValidate, RejectsZeroPruneThreshold) {
  svc::service_config config;
  config.participated_prune_threshold = 0;
  const auto error = config.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("participated_prune_threshold"), std::string::npos)
      << *error;
}

TEST(SvcConfigValidate, RejectsSweepIntervalWithoutLeaseTtl) {
  svc::service_config config;
  config.sweep_interval_ms = 250;  // but lease_ttl_ms stays 0
  const auto error = config.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("sweep_interval_ms"), std::string::npos) << *error;
  EXPECT_NE(error->find("lease_ttl_ms"), std::string::npos) << *error;
  // Either field alone (or together) is fine.
  config.lease_ttl_ms = 1000;
  EXPECT_FALSE(config.validate().has_value());
  config.sweep_interval_ms = 0;
  EXPECT_FALSE(config.validate().has_value());
}

TEST(SvcConfigValidate, RejectsUnknownDefaultStrategy) {
  svc::service_config config;
  config.default_strategy = static_cast<election::strategy_kind>(250);
  const auto error = config.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("default_strategy"), std::string::npos) << *error;
}

TEST(SvcConfigValidate, RejectsUnknownOrEmptyKeyStrategyEntries) {
  svc::service_config config;
  config.key_strategies["orders/hot"] =
      static_cast<election::strategy_kind>(17);
  const auto error = config.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("orders/hot"), std::string::npos) << *error;
  EXPECT_NE(error->find("strategy_kind"), std::string::npos) << *error;

  svc::service_config empty_key;
  empty_key.key_strategies[""] = election::strategy_kind::full;
  const auto empty_error = empty_key.validate();
  ASSERT_TRUE(empty_error.has_value());
  EXPECT_NE(empty_error->find("empty key"), std::string::npos)
      << *empty_error;
}

TEST(SvcConfigValidate, ConstructorAcceptsEveryValidatedConfig) {
  // The constructor's contract: validate() passing implies construction
  // does not abort. Spot-check the edge values validate() admits.
  svc::service_config config{.nodes = 1, .shards = 1};
  config.participated_prune_threshold = 1;
  ASSERT_FALSE(config.validate().has_value());
  svc::service service(std::move(config));
  auto session = service.connect();
  EXPECT_TRUE(session.try_acquire("edge").won);
}

}  // namespace
}  // namespace elect
