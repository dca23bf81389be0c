// elect::obs tests: trace minting/scoping/collection, slow-request
// capture naming the stalled phase, trace-id propagation through both
// api::client backends (local and remote) and across a parked remote
// acquire, event-journal ordering (both
// standalone and fed by a live service), and the watch hub's overflow
// contract — dropped events are counted, survivors deliver exactly
// once, and a wedged subscriber never blocks the publisher.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"
#include "svc/watch.hpp"

namespace elect {
namespace {

using namespace std::chrono_literals;

/// The tracer's slow-capture state is process-global; every test that
/// arms it must disarm on the way out or it leaks into later tests.
struct slow_capture_guard {
  explicit slow_capture_guard(std::chrono::nanoseconds threshold) {
    obs::set_slow_log(false);
    obs::set_slow_threshold(threshold);
  }
  ~slow_capture_guard() {
    obs::set_slow_threshold(std::chrono::nanoseconds(0));
    obs::set_slow_log(true);
  }
};

bool any_dump_contains(const std::string& label, const std::string& needle) {
  for (const std::string& dump : obs::slow_dumps()) {
    if (dump.find(label) != std::string::npos &&
        dump.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(Trace, MintedIdsAreUniqueAndNonZero) {
  const std::uint64_t a = obs::mint();
  const std::uint64_t b = obs::mint();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(Trace, ScopeSetsRestoresAndNests) {
  const std::uint64_t outer = obs::mint();
  const std::uint64_t inner = obs::mint();
  EXPECT_EQ(obs::current(), 0u);
  {
    const obs::trace_scope a(outer);
    EXPECT_EQ(obs::current(), outer);
    {
      const obs::trace_scope b(inner);
      EXPECT_EQ(obs::current(), inner);
    }
    EXPECT_EQ(obs::current(), outer);
  }
  EXPECT_EQ(obs::current(), 0u);
}

TEST(Trace, CollectReturnsSpansSortedByStart) {
  const std::uint64_t id = obs::mint();
  // The synthetic spans lie wholly in the past, so the scoped span below
  // starts after both of them however fast this runs.
  const std::uint64_t t0 = obs::now_ns() - 10'000;
  // Recorded out of start order on purpose.
  obs::record_for(id, obs::phase::election, t0 + 2000, t0 + 5000);
  obs::record_for(id, obs::phase::queue_wait, t0, t0 + 2000);
  {
    const obs::trace_scope scope(id);
    const obs::scoped_span span(obs::phase::lease_op);
  }
  const std::vector<obs::span> spans = obs::collect(id);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].stage, obs::phase::queue_wait);
  EXPECT_EQ(spans[1].stage, obs::phase::election);
  EXPECT_EQ(spans[2].stage, obs::phase::lease_op);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
  }
  EXPECT_EQ(spans[0].duration_ns(), 2000u);
}

TEST(Trace, ScopedSpanIsInertWithoutACurrentTrace) {
  const obs::trace_counters before = obs::counters();
  {
    const obs::scoped_span span(obs::phase::fast_path);
  }
  EXPECT_EQ(obs::counters().spans, before.spans);
}

TEST(Trace, SlowCaptureNamesTheStalledPhase) {
  const slow_capture_guard guard(std::chrono::nanoseconds(1));
  const std::uint64_t id = obs::mint();
  const std::uint64_t t0 = obs::now_ns();
  // election is the longest non-wrapper phase: 4ms of the 5ms total.
  obs::record_for(id, obs::phase::api_call, t0, t0 + 5'000'000);
  obs::record_for(id, obs::phase::queue_wait, t0, t0 + 1'000'000);
  obs::record_for(id, obs::phase::election, t0 + 1'000'000, t0 + 5'000'000);
  ASSERT_TRUE(obs::maybe_capture_slow(id, std::chrono::nanoseconds(5'000'000),
                                      "stall-test"));
  EXPECT_GE(obs::counters().slow_captured, 1u);
  EXPECT_TRUE(
      any_dump_contains("stall-test", "slowest phase election"));
}

TEST(Trace, BelowThresholdOrUntracedNeverCaptures) {
  const slow_capture_guard guard(std::chrono::milliseconds(100));
  EXPECT_FALSE(obs::maybe_capture_slow(obs::mint(),
                                       std::chrono::milliseconds(1), "fast"));
  EXPECT_FALSE(
      obs::maybe_capture_slow(0, std::chrono::seconds(10), "untraced"));
}

// Trace propagation, local backend: the api_call span minted in
// api::client and the service-layer spans land in one trace, proven
// through the slow dump (which collects by trace id).
TEST(TracePropagation, LocalBackendJoinsServiceSpans) {
  const slow_capture_guard guard(std::chrono::nanoseconds(1));
  svc::service service(svc::service_config{.nodes = 2, .shards = 1});
  api::client client(service);
  auto won = client.try_acquire("obs/local");
  ASSERT_EQ(won.status, api::acquire_status::won);
  EXPECT_EQ(won.lease.release(), svc::lease_status::ok);

  // The acquire dump spans client and service layers.
  EXPECT_TRUE(any_dump_contains("try_acquire obs/local", "api_call"));
  // The release ran under its own minted trace, through the registry.
  EXPECT_TRUE(any_dump_contains("release obs/local", "lease_op"));
}

// Trace propagation, remote backend: the id minted client-side crosses
// the wire (v3 trace_id field) and the server's serve span is recorded
// under that same id — provable here because both ends share one
// process and thus one tracer: collect(client's id) must eventually
// contain the server-side serve span.
TEST(TracePropagation, RemoteBackendCarriesTheIdAcrossTheWire) {
  const slow_capture_guard guard(std::chrono::nanoseconds(1));
  svc::service service(svc::service_config{.nodes = 2, .shards = 1});
  net::server_config config;
  config.port = 0;  // ephemeral
  net::server server(service, config);
  ASSERT_TRUE(server.listening());
  {
    api::client client("127.0.0.1", server.port());
    ASSERT_TRUE(client.connected());
    auto won = client.try_acquire("obs/remote");
    ASSERT_EQ(won.status, api::acquire_status::won);
    EXPECT_EQ(won.lease.release(), svc::lease_status::ok);
  }

  // The client's round trip is one trace: wire_rtt recorded client-side.
  ASSERT_TRUE(any_dump_contains("try_acquire obs/remote", "wire_rtt"));

  // Recover the trace id from the captured dump ("trace <id> (...)"),
  // then wait for the server's serve span to land under it (the server
  // records it just after the response frame is on the wire).
  std::uint64_t id = 0;
  for (const std::string& dump : obs::slow_dumps()) {
    if (dump.find("(try_acquire obs/remote)") == std::string::npos) continue;
    const std::size_t at = dump.find("trace ");
    if (at != std::string::npos) {
      id = std::strtoull(dump.c_str() + at + 6, nullptr, 10);
    }
  }
  ASSERT_NE(id, 0u);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  bool serve_seen = false;
  while (!serve_seen && std::chrono::steady_clock::now() < deadline) {
    for (const obs::span& sp : obs::collect(id)) {
      if (sp.stage == obs::phase::serve) serve_seen = true;
    }
    if (!serve_seen) std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(serve_seen)
      << "server never recorded a serve span under the client's trace id";
}

// A traced remote acquire that parks is ONE serve span, from its first
// attempt to the response across every park and retry, with an
// epoch_wait span inside it for the time it sat parked.
TEST(TracePropagation, ParkedRemoteAcquireIsOneServeSpanWithAnEpochWait) {
  svc::service service(svc::service_config{.nodes = 2, .shards = 1});
  net::server server(service, net::server_config{});
  ASSERT_TRUE(server.listening());
  auto holder = service.connect();
  const auto held = holder.try_acquire("obs/parked");
  ASSERT_TRUE(held.won);
  net::client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected());

  std::thread releaser([&] {
    while (service.registry().parked_count() == 0) {
      std::this_thread::sleep_for(1ms);
    }
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(holder.release("obs/parked", held.epoch),
              svc::lease_status::ok);
  });
  const std::uint64_t id = obs::mint();
  svc::acquire_result won;
  {
    const obs::trace_scope scope(id);
    won = client.acquire("obs/parked");
  }
  releaser.join();
  ASSERT_TRUE(won.won);

  // The serve span is recorded just after the response is queued.
  std::vector<obs::span> serves;
  std::vector<obs::span> waits;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (serves.empty() && std::chrono::steady_clock::now() < deadline) {
    serves.clear();
    waits.clear();
    for (const obs::span& sp : obs::collect(id)) {
      if (sp.stage == obs::phase::serve) serves.push_back(sp);
      if (sp.stage == obs::phase::epoch_wait) waits.push_back(sp);
    }
    if (serves.empty()) std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(serves.size(), 1u);
  ASSERT_GE(waits.size(), 1u);
  for (const obs::span& wait : waits) {
    EXPECT_GE(wait.start_ns, serves[0].start_ns);
    EXPECT_LE(wait.end_ns, serves[0].end_ns);
  }
  EXPECT_GE(serves[0].duration_ns(), 20'000'000u);
}

TEST(Journal, SeqIsStrictlyIncreasingAndTailIsOldestFirst) {
  obs::journal journal(8);
  journal.append(obs::event_kind::elected, "j/a", 1, 7, "");
  journal.append(obs::event_kind::released, "j/a", 1, 7, "");
  journal.append(obs::event_kind::elected, "j/a", 2, 9, "");
  const auto tail = journal.tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq + 1, tail[1].seq);
  EXPECT_EQ(tail[1].seq, 3u);
  EXPECT_EQ(tail[1].kind, obs::event_kind::elected);
  EXPECT_EQ(tail[1].epoch, 2u);
  EXPECT_EQ(tail[1].holder, 9);
  EXPECT_EQ(journal.report().appended, 3u);
}

TEST(Journal, RingEvictsOldestAndCountsIt) {
  obs::journal journal(2);
  for (int i = 0; i < 5; ++i) {
    journal.append(obs::event_kind::elected, "j/evict", i, -1, "");
  }
  const auto tail = journal.tail(10);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 4u);
  EXPECT_EQ(tail[1].seq, 5u);
  EXPECT_EQ(journal.report().evicted, 3u);
}

TEST(Journal, JsonlSinkWritesOneObjectPerLine) {
  const std::string path = testing::TempDir() + "obs_journal_test.jsonl";
  std::remove(path.c_str());
  {
    obs::journal journal(16, path);
    journal.append(obs::event_kind::elected, "j/disk", 1, 3, "");
    journal.append(obs::event_kind::expired, "j/disk", 1, 3, "ttl");
    journal.stop();
    EXPECT_EQ(journal.report().flushed, 2u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"kind\":\"elected\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"expired\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"cause\":\"ttl\""), std::string::npos);
  std::remove(path.c_str());
}

// The journal fed by a real service: elected -> released in order, a
// fenced renewal recorded as stale_fence, all attributed to the key.
TEST(Journal, ServiceFeedsTypedRecordsInTransitionOrder) {
  svc::service_config config{.nodes = 2, .shards = 1};
  config.journal_events = true;
  config.journal_capacity = 64;
  svc::service service(std::move(config));
  ASSERT_NE(service.journal(), nullptr);

  auto session = service.connect();
  const auto won = session.try_acquire("obs/journal");
  ASSERT_TRUE(won.won);
  EXPECT_EQ(session.renew("obs/journal", won.epoch + 1),
            svc::lease_status::stale_epoch);
  EXPECT_EQ(session.release("obs/journal", won.epoch),
            svc::lease_status::ok);

  const auto tail = service.journal()->tail(16);
  std::vector<obs::event_kind> kinds;
  for (const auto& record : tail) {
    if (record.key == "obs/journal") kinds.push_back(record.kind);
  }
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], obs::event_kind::elected);
  EXPECT_EQ(kinds[1], obs::event_kind::stale_fence);
  EXPECT_EQ(kinds[2], obs::event_kind::released);
  const auto report = service.report();
  EXPECT_GE(report.journal.appended, 3u);
}

// Satellite: the watch hub's overflow contract. A subscriber wedged in
// its callback must not block publishers; events past the queue bound
// are dropped and counted; everything that stayed queued is delivered
// exactly once, in order.
TEST(WatchHub, OverflowDropsAreCountedAndSurvivorsDeliverExactlyOnce) {
  svc::watch_hub hub;

  std::mutex mutex;
  std::condition_variable cv;
  bool release_callback = false;
  std::atomic<bool> wedged{false};
  std::vector<std::uint64_t> seen;

  const std::uint64_t id =
      hub.add("obs/overflow", [&](const svc::watch_event& e) {
        {
          std::unique_lock<std::mutex> lock(mutex);
          seen.push_back(e.epoch);
          if (seen.size() == 1) {
            // Wedge the notifier on the first delivery so everything
            // else piles into the queue.
            wedged.store(true);
            cv.notify_all();
            cv.wait(lock, [&] { return release_callback; });
          }
        }
      });
  ASSERT_NE(id, 0u);

  hub.publish("obs/overflow", 0, svc::transition::elected, 1);
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return wedged.load(); });
  }
  // Notifier is wedged inside epoch 0's callback. Fill the queue past
  // its bound; the overflow must return here (non-blocking publisher)
  // and count drops.
  const std::size_t extra = 100;
  const std::size_t total = svc::watch_hub::max_queued_events + extra;
  for (std::size_t i = 1; i <= total; ++i) {
    hub.publish("obs/overflow", i, svc::transition::elected, 1);
  }
  const svc::watch_report mid = hub.report();
  EXPECT_GE(mid.dropped, extra);
  EXPECT_EQ(mid.published + mid.dropped, total + 1);

  {
    const std::lock_guard<std::mutex> lock(mutex);
    release_callback = true;
  }
  cv.notify_all();

  // Every queued (non-dropped) event drains, exactly once, in order.
  const std::uint64_t expected = mid.published;
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (hub.report().delivered < expected &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(hub.report().delivered, expected);
  {
    const std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(expected));
    for (std::size_t i = 1; i < seen.size(); ++i) {
      EXPECT_LT(seen[i - 1], seen[i]) << "duplicate or reordered delivery";
    }
  }
  hub.remove(id);
  hub.stop();
}

// A callback may cancel a *different* subscription: the cancelled one
// is skipped for the rest of the event being delivered (and every later
// one), and the remove from the notifier thread does not wait on the
// delivery it is part of.
TEST(WatchHub, CallbackCancellingAnotherSubscriptionStopsIt) {
  svc::watch_hub hub;
  std::mutex mutex;
  std::condition_variable cv;
  int first_calls = 0;
  int second_calls = 0;
  std::uint64_t second = 0;
  std::optional<std::string> removed_key;

  // Subscribed first, so it is delivered first within an event.
  const std::uint64_t first =
      hub.add("obs/cancel", [&](const svc::watch_event&) {
        std::optional<std::string> key;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          ++first_calls;
          if (first_calls != 1) {
            cv.notify_all();
            return;
          }
        }
        key = hub.remove(second);
        const std::lock_guard<std::mutex> lock(mutex);
        removed_key = key;
        cv.notify_all();
      });
  second = hub.add("obs/cancel", [&](const svc::watch_event&) {
    const std::lock_guard<std::mutex> lock(mutex);
    ++second_calls;
  });
  ASSERT_NE(first, 0u);
  ASSERT_NE(second, 0u);

  hub.publish("obs/cancel", 1, svc::transition::elected, 7);
  hub.publish("obs/cancel", 1, svc::transition::released, 7);
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return first_calls >= 2; }));
    ASSERT_TRUE(removed_key.has_value());
    EXPECT_EQ(*removed_key, "obs/cancel");
    EXPECT_EQ(second_calls, 0)
        << "a subscription cancelled mid-event must not run for it";
  }
  // Joining the notifier makes the delivery count final.
  hub.stop();
  EXPECT_EQ(hub.report().active, 1u);
  EXPECT_EQ(hub.report().delivered, 2u);
  EXPECT_FALSE(hub.remove(second).has_value());
  EXPECT_EQ(hub.remove(first), std::optional<std::string>("obs/cancel"));
}

}  // namespace
}  // namespace elect
