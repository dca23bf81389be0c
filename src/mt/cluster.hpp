// Multithreaded runtime: the same protocol coroutines on real threads.
//
// One OS thread per processor runs an event loop over a concurrent
// mailbox; the transport pushes messages straight into the target's
// mailbox. Scheduling is whatever the OS does — this is the "std::atomic
// on a multicore laptop" deployment of the algorithms, used by the
// examples, the stress tests and the wall-clock benchmark (E8).
//
// Unlike the simulator there is no adversary and no determinism; safety
// properties (unique winner, unique names) must hold under every OS
// schedule, which is exactly what the stress tests assert.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "engine/message.hpp"
#include "engine/metrics.hpp"
#include "engine/node.hpp"
#include "engine/task.hpp"

namespace elect::mt {

class cluster;

/// Per-processor concurrent mailbox (mutex + condition variable; single
/// consumer — the owning thread).
class mailbox {
 public:
  void push(engine::message m) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(m));
    }
    ready_.notify_one();
  }

  /// Append a whole same-destination batch under one lock acquisition
  /// with a single wakeup (the coalescing transport's fast path). The
  /// batch is consumed (left empty, capacity retained).
  void push_batch(std::vector<engine::message>& batch) {
    if (batch.empty()) return;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (engine::message& m : batch) queue_.push_back(std::move(m));
    }
    ready_.notify_one();
    batch.clear();
  }

  /// Drain everything currently queued by swapping the whole deque out
  /// under one lock; blocks until a message arrives or stop() is called.
  /// Returns false on stop-and-empty.
  bool drain_blocking(std::deque<engine::message>& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return stopped_ || !queue_.empty(); });
    if (queue_.empty()) return false;
    out.swap(queue_);
    return true;
  }

  /// Non-blocking drain.
  bool drain(std::deque<engine::message>& out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    out.swap(queue_);
    return true;
  }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopped_ = true;
    }
    ready_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<engine::message> queue_;
  bool stopped_ = false;
};

struct cluster_options {
  /// Coalesce same-destination messages produced by one computation step
  /// into a single mailbox push (one lock + one wakeup per destination
  /// instead of per message). Delivery order per (sender, destination)
  /// pair is preserved; the model tolerates any cross-pair reordering.
  bool batch_transport = true;
};

/// A set of n processors on n threads. Usage:
///   cluster c(n, seed);
///   c.attach(pid, [](engine::node& node) { return protocol(node); });
///   c.start(); c.wait();           // blocks until all protocols return
///   c.result_of(pid);
class cluster {
 public:
  using protocol_factory =
      std::function<engine::task<std::int64_t>(engine::node&)>;

  cluster(int n, std::uint64_t seed)
      : cluster(n, seed, cluster_options{}) {}
  cluster(int n, std::uint64_t seed, cluster_options options);
  ~cluster();

  cluster(const cluster&) = delete;
  cluster& operator=(const cluster&) = delete;

  [[nodiscard]] int n() const noexcept { return n_; }

  /// Register a protocol for processor pid. Call before start().
  void attach(process_id pid, protocol_factory factory);

  /// Launch all threads.
  void start();

  /// Block until every attached protocol has returned, then shut the
  /// cluster down (all threads join).
  void wait();

  [[nodiscard]] std::int64_t result_of(process_id pid) const;
  [[nodiscard]] const engine::debug_probe& probe(process_id pid) const;

  /// Total messages pushed through the transport.
  [[nodiscard]] std::uint64_t total_messages() const noexcept;

  /// Mailbox pushes performed by the transport. With batching enabled
  /// this is <= total_messages(); the ratio is the coalescing factor.
  [[nodiscard]] std::uint64_t total_mailbox_pushes() const noexcept;

  /// Complexity counters for the whole pool (communicate calls etc.).
  [[nodiscard]] const engine::metrics& runtime_metrics() const noexcept {
    return metrics_;
  }

 private:
  class transport_impl;
  void thread_main(process_id pid);

  int n_;
  std::uint64_t seed_;
  cluster_options options_;
  engine::metrics metrics_;
  std::unique_ptr<transport_impl> transport_;
  std::vector<std::unique_ptr<mailbox>> mailboxes_;
  std::vector<std::unique_ptr<engine::node>> nodes_;
  std::vector<protocol_factory> factories_;
  std::vector<std::thread> threads_;
  std::vector<std::int64_t> results_;
  std::vector<bool> attached_;

  std::mutex done_mutex_;
  std::condition_variable all_done_;
  int pending_protocols_ = 0;
  bool started_ = false;
};

}  // namespace elect::mt
