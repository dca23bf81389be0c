// elect::svc::watch_hub — leader-change subscriptions over the
// registry's committed command stream.
//
// The service's observer feed reads the registry's command log through
// a cursor, up to the commit watermark, and publishes one event per
// leader transition (elected / released / expired / force_released);
// the hub fans each event out to every callback subscribed to that key.
// Delivery is asynchronous: the feed (run by whichever thread moved the
// watermark — a client thread after its commit gate, the sweeper, the
// replication timer) only enqueues under the hub mutex and moves on,
// and a dedicated notifier thread (started by the first subscription)
// runs the callbacks — so a slow watcher can never stall an election, a
// release, or the sweeper.
//
// The hub is the only subscription table on the watch path. On the
// server, each wire watch is one subscription whose callback encodes
// the event into that connection's output ring (net::server); on the
// client, the reader publishes every pushed event into a hub the
// net::client owns, and its notifier runs the user's callbacks.
//
// Guarantees (the ones api::client::watch documents to users):
//   * every transition on a watched key that happens after add()
//     returns is delivered exactly once per subscription, in the order
//     it was published — the key's command seq order, as the feed reads
//     the log in order under one lock — unless the event queue overflows
//     (max_queued_events), in which case events are counted as dropped
//     rather than blocking the publisher;
//   * there is NO ordering guarantee across different keys;
//   * after remove() returns, the callback will never run again: remove
//     blocks while the event being delivered to that subscription is in
//     flight. Called from a callback (the notifier thread) it does not
//     wait; the removed subscription is skipped for the rest of the
//     event, so a callback may cancel its own subscription or any other.
//
// Callbacks run on the notifier thread. They may call back into the
// service (acquire/release take only the pool mutex and shard locks,
// which the notifier does not hold), but a callback that blocks
// indefinitely blocks all watch delivery — treat it like a signal
// handler: record and return.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "svc/registry.hpp"

namespace elect::svc {

/// One leader transition, as delivered to watchers. For `elected`,
/// `epoch` is the granted epoch and `session` the new leader; for
/// `released`/`expired`, the epoch that ended and its last holder.
struct watch_event {
  std::string key;
  std::uint64_t epoch = 0;
  transition kind = transition::elected;
  int session = -1;
};

/// Point-in-time hub counters (reported under "watch" in the service
/// report JSON).
struct watch_report {
  /// Live subscriptions.
  std::uint64_t active = 0;
  /// Events enqueued for at least one subscriber.
  std::uint64_t published = 0;
  /// Callback invocations completed (one event to N watchers counts N).
  std::uint64_t delivered = 0;
  /// Events discarded because the queue was at max_queued_events.
  std::uint64_t dropped = 0;
};

class watch_hub {
 public:
  using callback = std::function<void(const watch_event&)>;

  /// Queue bound: transitions published while callbacks lag. Past it the
  /// hub drops (and counts) rather than blocking publishers or growing
  /// without bound behind a wedged callback.
  static constexpr std::size_t max_queued_events = 1u << 16;

  watch_hub() = default;
  ~watch_hub();

  watch_hub(const watch_hub&) = delete;
  watch_hub& operator=(const watch_hub&) = delete;

  /// Subscribe `fn` to `key`'s transitions. Returns the subscription id
  /// (never 0). Events published before add() returns may or may not be
  /// seen; everything after is.
  [[nodiscard]] std::uint64_t add(std::string key, callback fn);

  /// Unsubscribe. Blocks until no delivery to this subscription is in
  /// flight, so the callback never runs after remove() returns (from a
  /// callback it does not wait, and the subscription is skipped for the
  /// rest of the event). Returns the subscription's key; nothing — and
  /// does nothing — for an unknown id.
  std::optional<std::string> remove(std::uint64_t id);

  /// Called (outside the hub mutex) with the key of each event dropped
  /// to the queue bound — the journal's watch_drop feed. Set before any
  /// publisher can run (service construction); not synchronized against
  /// concurrent publish.
  void set_drop_hook(std::function<void(const std::string&)> fn);

  /// Publish one transition (the observer feed's target). A key nobody
  /// watches costs one map probe under the mutex.
  void publish(const std::string& key, std::uint64_t epoch, transition kind,
               int session);

  /// Stop the notifier thread. Queued-but-undelivered events are
  /// dropped (counted); add/publish after stop() are no-ops. Idempotent.
  void stop();

  [[nodiscard]] watch_report report() const;

 private:
  /// The callback is held behind a shared_ptr so the notifier's
  /// per-event snapshot copies one refcount per target instead of a
  /// deep std::function (which may own captured state — at fanout scale
  /// those copies were the hub's hottest allocation).
  struct subscription {
    explicit subscription(callback f) : fn(std::move(f)) {}
    const callback fn;
    /// Set by remove(); the notifier skips a removed subscription for
    /// the rest of the event it is delivering.
    std::atomic<bool> removed{false};
  };
  struct watcher {
    std::string key;
    std::shared_ptr<subscription> sub;
  };

  void notifier_main();

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;      // wakes the notifier
  std::condition_variable delivered_cv_;  // wakes remove() waiters
  std::unordered_map<std::uint64_t, watcher> watchers_;
  /// key -> subscription ids, the publish-side filter.
  std::unordered_map<std::string, std::vector<std::uint64_t>> by_key_;
  std::deque<watch_event> queue_;
  /// Subscriptions the notifier is invoking right now (outside the
  /// mutex); remove() waits until its id leaves this set.
  std::vector<std::uint64_t> delivering_;
  std::uint64_t next_id_ = 1;
  bool stopped_ = false;
  std::function<void(const std::string&)> drop_hook_;

  std::thread notifier_;
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace elect::svc
