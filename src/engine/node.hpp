// A processor: replicated-variable store + communicate engine + protocol
// coroutine.
//
// Each of the n processors is a `node`. A node has two faces:
//
//  * the *runtime-facing* face, used by a runtime (deterministic simulator
//    or multithreaded cluster): deliver(message) puts a message in the
//    mailbox (the model's delivery step); computation_step() makes the
//    processor receive everything delivered since its last step, serve
//    propagate/collect requests, and advance its protocol coroutine
//    (the model's computation step);
//
//  * the *protocol-facing* face, used by protocol coroutines running on
//    the node: stage_*() local writes, `co_await propagate(...)` /
//    `co_await collect(...)` communicate calls (each blocks until ACKs
//    from a quorum of floor(n/2)+1 processors arrive), a deterministic
//    per-node RNG stream, and a debug probe that publishes protocol state
//    (e.g. coin flips) for the strong adaptive adversary to inspect.
//
// Per the model (§2), every non-faulty processor serves requests forever,
// whether or not it participates in any protocol and even after its own
// protocol returns.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "engine/ids.hpp"
#include "engine/message.hpp"
#include "engine/metrics.hpp"
#include "engine/store.hpp"
#include "engine/task.hpp"
#include "engine/values.hpp"

namespace elect::engine {

/// Outbound message sink implemented by each runtime.
class transport {
 public:
  virtual ~transport() = default;
  /// Hand a message to the network. The runtime decides when (and, for
  /// crashed senders, whether) it is delivered.
  virtual void send(message m) = 0;
};

/// Protocol state published for the strong adaptive adversary (which, per
/// the model, can inspect all local state including coin flips) and for
/// experiment instrumentation. -1 means "unset".
struct debug_probe {
  std::int64_t coin = -1;       ///< most recent coin flip (0/1)
  std::int64_t round = -1;      ///< current election round r
  std::int64_t phase = -1;      ///< protocol-specific phase marker
  std::int64_t status = -1;     ///< pp_status of the current phase, as int
  std::int64_t list_size = -1;  ///< |ℓ| in HeterogeneousPoisonPill
  std::int64_t contending_for = -1;  ///< renaming: name being contended
  std::int64_t iterations = -1;      ///< renaming: completed loop iterations
};

/// One replier's answer to a collect: who replied and their snapshot.
struct view_entry {
  process_id replier = no_process;
  var_value snapshot;
};

class node;

/// Awaitable returned by node::propagate(). Completes when a quorum of
/// ACKs has been received.
class propagate_awaitable {
 public:
  explicit propagate_awaitable(node& self) : self_(&self) {}
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle);
  void await_resume();

 private:
  node* self_;
};

/// Awaitable returned by node::collect(). Completes when a quorum of
/// snapshot replies has been received; yields all views received by then.
class collect_awaitable {
 public:
  explicit collect_awaitable(node& self) : self_(&self) {}
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle);
  [[nodiscard]] std::vector<view_entry> await_resume();

 private:
  node* self_;
};

class node {
 public:
  node(process_id id, int n, transport& out, rng_stream rng, metrics& m);

  node(const node&) = delete;
  node& operator=(const node&) = delete;

  // ------------------------------------------------------------------
  // Protocol-facing interface.

  [[nodiscard]] process_id id() const noexcept { return id_; }
  [[nodiscard]] int n() const noexcept { return store_.n(); }
  [[nodiscard]] int quorum() const noexcept { return quorum_size(n()); }
  [[nodiscard]] rng_stream& rng() noexcept { return rng_; }
  [[nodiscard]] debug_probe& probe() noexcept { return probe_; }
  [[nodiscard]] const debug_probe& probe() const noexcept { return probe_; }
  [[nodiscard]] const store& local_store() const noexcept { return store_; }
  /// Runtime-facing: lets a runtime at quiescence erase variables no
  /// message can touch again (store::erase_if).
  [[nodiscard]] store& local_store() noexcept { return store_; }

  /// Write this node's own cell of an owned_array variable locally and
  /// return the delta to propagate.
  template <typename T>
  var_delta stage_own_cell(const var_id& id, T value) {
    cell_delta<T> delta{id_, owned_cell<T>{store_.bump_seq(id),
                                           std::move(value)}};
    var_delta wrapped = std::move(delta);
    store_.merge(id, wrapped);
    return wrapped;
  }

  /// Set a monotone flag (e.g. the door) locally; returns the delta.
  var_delta stage_flag(const var_id& id) {
    var_delta delta = flag_delta{};
    store_.merge(id, delta);
    return delta;
  }

  /// Set monotone bitmap indices (e.g. Contended[spot]); returns the delta.
  var_delta stage_flags(const var_id& id, std::vector<std::uint32_t> indices) {
    var_delta delta = flags_delta{std::move(indices)};
    store_.merge(id, delta);
    return delta;
  }

  /// Merge an ABD register tag locally; returns the delta.
  var_delta stage_register(const var_id& id,
                           tagged_register<std::int64_t> reg) {
    var_delta delta = reg;
    store_.merge(id, delta);
    return delta;
  }

  /// communicate(propagate, ·): broadcast the delta to all n processors and
  /// await floor(n/2)+1 ACKs. (Figure 1 line 3/7 and friends.)
  [[nodiscard]] propagate_awaitable propagate(const var_id& id,
                                              var_delta delta);

  /// communicate(collect, ·): request views of the variable from all n
  /// processors and await floor(n/2)+1 snapshot replies. (Figure 1 line 8.)
  [[nodiscard]] collect_awaitable collect(const var_id& id);

  // ------------------------------------------------------------------
  // Runtime-facing interface.

  /// Delivery step: append a message to the mailbox. It takes effect at
  /// this node's next computation step.
  void deliver(message m) { mailbox_.push_back(std::move(m)); }

  /// True if a computation step would make progress: there is unprocessed
  /// mail, or an attached protocol is ready to start.
  [[nodiscard]] bool can_step() const noexcept {
    return !mailbox_.empty() || (root_.valid() && !started_ && !held_);
  }

  /// While held, the node serves requests but does not *invoke* its own
  /// protocol. Protocol invocation times are part of the adversarial
  /// schedule (a held participant is one that "has not yet called" the
  /// operation); adversaries use this to stagger or delay participants.
  void set_held(bool held) noexcept { held_ = held; }
  [[nodiscard]] bool held() const noexcept { return held_; }

  [[nodiscard]] std::size_t mailbox_size() const noexcept {
    return mailbox_.size();
  }

  /// Computation step: receive all delivered messages (serving propagate /
  /// collect requests and absorbing replies), then start or resume the
  /// protocol coroutine if it is runnable.
  void computation_step();

  /// Attach the protocol this node will execute. At most one per node.
  void attach_protocol(task<std::int64_t> protocol);

  [[nodiscard]] bool protocol_attached() const noexcept {
    return root_.valid();
  }
  [[nodiscard]] bool protocol_started() const noexcept { return started_; }
  [[nodiscard]] bool protocol_done() const noexcept { return root_.done(); }
  [[nodiscard]] std::int64_t protocol_result() const { return root_.result(); }

  /// True while the protocol is suspended inside a communicate call.
  [[nodiscard]] bool waiting_for_quorum() const noexcept {
    return op_.active;
  }

 private:
  friend class propagate_awaitable;
  friend class collect_awaitable;

  struct pending_op {
    bool active = false;
    bool is_collect = false;
    std::uint64_t token = 0;
    int needed = 0;
    int reply_count = 0;
    std::vector<bool> replied;  ///< dedupe replies per peer
    std::vector<view_entry> views;
  };

  void begin_op(bool is_collect);
  void broadcast(const var_id& id, const var_delta* delta);
  void handle(const message& m);
  void set_waiting(std::coroutine_handle<> handle) {
    ELECT_CHECK(!waiting_);
    waiting_ = handle;
  }

  process_id id_;
  transport& out_;
  rng_stream rng_;
  metrics& metrics_;
  store store_;
  debug_probe probe_;
  std::deque<message> mailbox_;
  pending_op op_;
  std::uint64_t next_token_ = 1;
  std::coroutine_handle<> waiting_;
  task<std::int64_t> root_;
  bool started_ = false;
  bool held_ = false;
};

/// Adapt a typed protocol task into the node's int64 root-task slot.
template <typename E>
task<std::int64_t> erase_result(task<E> inner) {
  E value = co_await inner;
  co_return static_cast<std::int64_t>(value);
}

}  // namespace elect::engine
