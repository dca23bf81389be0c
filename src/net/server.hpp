// elect::net::server — the TCP front-end of the election service.
//
// The edge is N per-core reactors, not one epoll loop. Each reactor
// owns an epoll fd, an eventfd wakeup, a timer wheel (slow-consumer
// budgets and try_acquire_for deadlines), its own accept socket
// (SO_REUSEPORT sharded accept — the
// kernel spreads incoming connections across the listeners), and a
// private connection table. A connection is pinned to the reactor that
// accepted it for its whole lifetime, so per-connection read state
// needs no cross-reactor locking. Where SO_REUSEPORT is unavailable
// (or disabled via server_config::reuseport), reactor 0 keeps a single
// listener and deals accepted sockets round-robin to its peers through
// their adopt queues.
//
// Reads: a readable socket is drained in bounded bites and *all*
// complete frames are decoded before any is served (request batching:
// one syscall burst, many requests). Each request is then served on
// the reactor that read it, unless it may wait on another thread: one
// rule (on_pool) sends those to a small side pool of executors. They
// are the ops the commit gate can hold on a cluster member (the acquire
// family, release, renew) and the admin ops, which scan the registry or
// write a file. A disconnect — the op, or a closed connection's reclaim
// — waits on no gate, so it runs on its reactor.
// Everything else — every client op of a standalone server, the peer
// ops, watches, metrics — runs inline: a registry CAS needs no thread
// hop. The blocking ops (acquire, try_acquire_for) never block a thread
// on a held key: an attempt that loses parks the request on the key's
// epoch in the registry (registry::park); the epoch's next move posts
// it back to its connection's reactor, which retries it under the same
// rule. A parked request costs a waiter entry, no thread.
// try_acquire_for deadlines fire from the owning reactor's timer
// wheel; connection close and stop() take parked requests back out of
// the registry.
//
// Writes: every encoded frame lands in the connection's output ring (a
// deque of encoded frames) and the owning reactor flushes the ring
// with writev — one syscall coalesces every frame that is ready, EAGAIN
// arms EPOLLOUT, and a consumer that makes no progress for
// event_write_budget_ms is declared dead by the reactor's timer wheel.
// A batch served inline (a read pass, an inbox drain) flushes each
// connection it answered once, at its end. Completions on other threads
// reach the reactor through its inbox plus an eventfd kick, so all
// epoll_ctl and all socket writes happen on the owning reactor thread.
//
// Watches: each wire watch is one svc::watch_hub subscription, held by
// its connection. The hub's notifier runs its callback, which encodes
// the event frame and appends it to that connection's output ring like
// any response. N connections watching one key cost N subscriptions and
// N encodes per event.
//
// Every connection is backed by ONE svc::service session, so the
// service-side crash story carries over the wire unchanged: when the
// socket dies (EOF, reset, or server stop) the server applies
// session::disconnect(), force-releasing everything the remote client
// held. A half-open peer (no FIN ever arrives) falls back to the lease
// TTL + sweeper, same as a wedged local client.
//
// Backpressure is per connection: at `max_inflight_per_connection`
// outstanding requests (decoded and not yet answered) a read pass ends,
// so one flooding connection cannot starve the others on its reactor;
// while that many are still outstanding after the pass the reactor
// stops *reading* the socket (drops EPOLLIN) until completions drain
// below half the cap. Parked acquires do not count (up to
// `max_watches_per_connection` of them), so a release can always be
// read past acquires parked behind it on the same connection. The
// output ring is bounded too (`max_outbox_bytes`): a consumer that
// never drains loses the connection rather than growing the ring
// without bound.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/wire.hpp"
#include "svc/service.hpp"

namespace elect::net {

/// Hooks a replicated-cluster node (elect::repl) installs on its
/// server. All five are set together or not at all; `peer` present is
/// what puts the server in cluster mode. The server stays ignorant of
/// replication — it only (a) redirects mutating client ops away from
/// non-primaries with `not_primary` (body = `primary_hint()`), (b)
/// forwards the peer ops (peer_vote / peer_append / peer_snapshot) to
/// `peer`, (c) answers admin_cluster_status from `status_json` on
/// every member (deliberately NOT gated by enable_admin: finding the
/// primary must not require operator rights), and (d) splices
/// `status_json` / `prom_text` into /report and /metrics.
struct cluster_hooks {
  std::function<bool()> is_primary;
  std::function<std::string()> primary_hint;
  std::function<wire::response(const wire::request&)> peer;
  std::function<std::string()> status_json;
  std::function<std::string()> prom_text;

  [[nodiscard]] bool enabled() const noexcept {
    return static_cast<bool>(peer);
  }
};

struct server_config {
  /// Address to bind. Loopback by default: this PR's scope is the wire
  /// protocol and the loopback workload; multi-host comes later.
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with server::port().
  std::uint16_t port = 0;
  /// Side-pool threads, for the requests that may wait on another
  /// thread: on a cluster member every op the commit gate can hold, on
  /// any server the admin ops but admin_cluster_status. Every other
  /// request runs on its reactor.
  int executors = 4;
  /// Outstanding requests per connection before the server stops
  /// reading that socket. Parked acquires are not counted.
  int max_inflight_per_connection = 64;
  /// Accepted connections beyond this are closed immediately.
  int max_connections = 1024;
  /// Watch subscriptions one connection may hold; past the cap a watch
  /// op answers `busy` (resource exhaustion, not a protocol violation).
  /// A parked acquire is a one-shot subscription to its key's next
  /// epoch: up to this many per connection are parked outside the
  /// read budget, and beyond it they count toward
  /// max_inflight_per_connection again.
  int max_watches_per_connection = 1024;
  /// How long a connection's output ring may sit unflushable (socket
  /// full, no progress) before the reactor declares the consumer dead.
  /// Bounds how long undelivered responses and events can pin memory.
  std::uint64_t event_write_budget_ms = 1000;
  /// Serve HTTP (/metrics Prometheus text, /report JSON, /healthz) on a
  /// second listen socket, multiplexed onto reactor 0.
  bool http_enabled = false;
  /// HTTP port; 0 binds ephemeral (read back with server::http_port()).
  std::uint16_t http_port = 0;
  /// Allow the wire admin ops (admin_list / admin_inspect /
  /// admin_force_release / admin_snapshot). Off by default:
  /// force-release is an operator lever, not a client right — `denied`
  /// when off.
  bool enable_admin = false;
  /// Where admin_snapshot persists the registry snapshot. Empty keeps
  /// the op in-memory only (it still answers with command-log stats).
  std::string snapshot_path;
  /// Reactor (event loop) count. 0 = auto: the ELECT_REACTORS
  /// environment variable if set, else std::thread::hardware_concurrency
  /// clamped to [1, 16]. Explicit values are clamped to [1, 64].
  int reactors = 0;
  /// Shard the accept path with one SO_REUSEPORT listener per reactor.
  /// false forces the single-listener fallback (reactor 0 accepts and
  /// deals connections round-robin) — deterministic spread, what the
  /// multi-reactor tests use.
  bool reuseport = true;
  /// Bound on one connection's queued-but-unflushed output bytes.
  /// Past it the connection is closed as a dead consumer.
  std::size_t max_outbox_bytes = 8u << 20;
  /// Replicated-cluster hooks; default-empty = standalone server.
  cluster_hooks cluster;
};

/// Point-in-time counters for the network edge.
struct net_report {
  /// Per-reactor slice of the edge: connection placement, wakeups, and
  /// the writev coalescing that reactor achieved. frames_flushed /
  /// writev_calls is the realized coalesce ratio; requests /
  /// drain_batches the realized read-batching factor.
  struct reactor_stat {
    int index = 0;
    std::uint64_t connections = 0;
    std::uint64_t accepted = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t writev_calls = 0;
    std::uint64_t frames_flushed = 0;
    std::uint64_t drain_batches = 0;
    std::uint64_t requests = 0;
  };

  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t connections_refused = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t requests = 0;
  /// Read-drain passes that dispatched at least one request; requests /
  /// batches is the realized batching factor.
  std::uint64_t dispatch_batches = 0;
  std::uint64_t backpressure_pauses = 0;
  /// Watch ops refused at the per-connection watch cap.
  std::uint64_t busy_rejections = 0;
  std::uint64_t protocol_errors = 0;
  /// Leases force-released because their connection closed (the
  /// disconnect-on-close hook), plus wins reclaimed after their
  /// connection died mid-election.
  std::uint64_t disconnect_reclaims = 0;
  /// Watch subscriptions accepted over the wire (lifetime total).
  std::uint64_t watch_subscriptions = 0;
  /// Event frames pushed to clients (counted when flushed to the
  /// socket, not when queued).
  std::uint64_t events_pushed = 0;
  /// Event frames not pushed: connection already closed, output ring
  /// overflowed, or the consumer died with events still queued.
  std::uint64_t events_dropped = 0;
  /// Reactor configuration and aggregates across the per-reactor rows.
  std::uint64_t reactors = 0;
  /// True when every reactor accepts on its own SO_REUSEPORT listener;
  /// false in the single-listener round-robin fallback.
  bool reuseport = false;
  std::uint64_t writev_calls = 0;
  std::uint64_t frames_flushed = 0;
  std::uint64_t reactor_wakeups = 0;
  std::vector<reactor_stat> per_reactor;

  [[nodiscard]] std::string to_json() const;
};

class server {
 public:
  /// Binds, listens, and starts the reactors + side pool. The service
  /// must outlive the server. Check listening() — construction does not
  /// abort on bind failure (the port may be taken).
  server(svc::service& service, server_config config);
  ~server();

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  [[nodiscard]] bool listening() const noexcept { return listening_; }
  /// The bound port (resolves config.port == 0 to the ephemeral pick).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Resolved reactor count (config.reactors == 0 auto-detects).
  [[nodiscard]] int reactor_count() const noexcept {
    return static_cast<int>(reactors_.size());
  }
  /// True when the accept path is SO_REUSEPORT-sharded (one listener
  /// per reactor); false on the single-listener round-robin fallback.
  [[nodiscard]] bool reuseport_sharded() const noexcept {
    return reuseport_active_;
  }
  /// Is the HTTP listener up? (Requires config.http_enabled and a
  /// successful bind.)
  [[nodiscard]] bool http_listening() const noexcept {
    return http_listen_fd_ >= 0;
  }
  /// The bound HTTP port (resolves config.http_port == 0).
  [[nodiscard]] std::uint16_t http_port() const noexcept {
    return http_port_;
  }

  /// Close the listeners and every connection (their sessions are
  /// disconnected, releasing held leases), drain the executors, and
  /// join every thread. Idempotent. Does NOT stop the service.
  void stop();

  [[nodiscard]] net_report report() const;
  /// The combined report served to the metrics wire op:
  /// service_report::to_json() with the "net" section filled in.
  [[nodiscard]] std::string report_json() const;

 private:
  struct reactor;
  struct acquire_op;

  /// One encoded frame queued for a connection.
  struct out_frame {
    std::vector<std::uint8_t> bytes;
    bool is_event = false;
  };

  struct connection {
    connection(int fd_in, std::uint64_t id_in, reactor& owner_in)
        : fd(fd_in), id(id_in), owner(owner_in) {}
    ~connection();

    const int fd;
    const std::uint64_t id;
    /// The reactor this connection is pinned to — fixed at accept.
    reactor& owner;
    /// Set once the hello handshake passed; requests before it (or an
    /// invalid hello) are protocol errors.
    std::optional<svc::service::session> session;
    wire::frame_reader reader;

    /// Output ring: any thread appends encoded frames under out_mutex;
    /// only the owning reactor pops (writev flush). flush_queued
    /// dedupes wakeups — the appender that turns it on posts the
    /// connection to the reactor, everyone after piggybacks.
    std::mutex out_mutex;
    std::deque<out_frame> outbox;
    std::size_t outbox_bytes = 0;
    /// Bytes of outbox.front() already written (partial writev).
    std::size_t out_offset = 0;
    bool flush_queued = false;

    // Reactor-thread-only flush state.
    bool want_writable = false;   // EPOLLOUT armed
    bool stall_armed = false;     // timer-wheel entry live
    std::chrono::steady_clock::time_point stall_since{};

    /// Outstanding requests (decoded, not yet answered), and how many of
    /// them are parked acquires; the difference drives backpressure (see
    /// budgeted()).
    std::atomic<int> in_flight{0};
    std::atomic<int> parked{0};
    /// Parked acquires by registry waiter id, so teardown can take them
    /// back. park_mutex also orders a park or a watch against the op's
    /// deadline timer and against teardown (which sets `closed` under
    /// it and takes both lists).
    std::mutex park_mutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<acquire_op>>
        parked_ops;
    /// Hub subscription ids of this connection's wire watches (guarded
    /// by park_mutex).
    std::vector<std::uint64_t> watch_ids;
    /// Guards paused/resume_queued and orders pause/resume against
    /// in_flight so a completion draining to zero can never race the
    /// reactor into a permanently paused socket.
    std::mutex pause_mutex;
    bool paused = false;
    /// A resume is already sitting in the owner's inbox.
    bool resume_queued = false;

    std::atomic<bool> closed{false};
  };
  using connection_ptr = std::shared_ptr<connection>;

  /// An acquire-family request (try_acquire, acquire, try_acquire_for)
  /// from its first dispatch to its response. Each attempt runs under
  /// the dispatch rule; between attempts a blocking op is parked in the
  /// registry on the epoch it lost, and the epoch's next move posts it
  /// back to its connection's reactor.
  struct acquire_op {
    connection_ptr conn;
    wire::request req;
    /// try_acquire_for's deadline; time_point::max() for acquire.
    std::chrono::steady_clock::time_point deadline;
    /// Traced requests: the serve span's start (first attempt).
    std::uint64_t serve_start_ns = 0;
    // Guarded by conn->park_mutex.
    /// Registry waiter id while parked; 0 once an attempt holds it.
    std::uint64_t park_id = 0;
    /// The epoch the last attempt lost (a timed_out answer's epoch).
    std::uint64_t lost_epoch = 0;
    /// Traced requests: when the op last parked (epoch_wait span start).
    std::uint64_t parked_ns = 0;
  };
  using acquire_ptr = std::shared_ptr<acquire_op>;

  /// One timer-wheel entry: an output-stall budget (fd) or a
  /// try_acquire_for deadline (op; fd < 0).
  struct timer {
    int fd = -1;
    std::weak_ptr<acquire_op> op;
  };

  /// A reactor's cross-thread inbox, drained on eventfd wakeup. Shared
  /// with parked acquires' wake callbacks: a wake handed out just before
  /// teardown took its op back can run after stop(), and finds the inbox
  /// closed instead of a dead server. stop() closes it (under `mutex`,
  /// where every post writes the eventfd) before closing the eventfd.
  struct inbox {
    std::mutex mutex;
    std::vector<connection_ptr> flushes;
    std::vector<connection_ptr> resumes;
    /// Parked acquires whose epoch moved: their next attempt.
    std::vector<acquire_ptr> wakes;
    std::vector<int> adopts;
    /// One kick per drain, however many posts.
    bool kicked = false;
    bool closed = false;
    int wake_fd = -1;

    /// Run `add` (appending to one of the vectors) unless closed, and
    /// kick the eventfd if no kick is pending.
    template <typename Add>
    void post(Add add);
    /// Write the eventfd.
    void kick() const;
  };

  /// One per-core event loop: epoll + eventfd + (maybe) its own
  /// listener + timer wheel + private connection table + inbox for
  /// cross-thread work. Everything epoll_ctl happens on this thread.
  struct reactor {
    int index = 0;
    int epoll_fd = -1;
    /// This reactor's SO_REUSEPORT listener; -1 on every reactor but 0
    /// in the single-listener fallback.
    int listen_fd = -1;
    std::shared_ptr<inbox> mail = std::make_shared<inbox>();
    std::thread thread;

    /// Reactor-thread-only.
    std::unordered_map<int, connection_ptr> connections;
    /// Timer wheel (coarse): output-stall budgets and the deadlines of
    /// this reactor's try_acquire_for requests.
    std::multimap<std::chrono::steady_clock::time_point, timer> timers;
    std::size_t timers_sweep_at = 64;
    /// While a batch is served inline, post_flush only records the
    /// connection here; the batch flushes each one once at its end.
    bool batching = false;
    std::vector<connection_ptr> batch_flushes;

    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> active{0};
    std::atomic<std::uint64_t> wakeups{0};
    std::atomic<std::uint64_t> writev_calls{0};
    std::atomic<std::uint64_t> frames_flushed{0};
    std::atomic<std::uint64_t> drain_batches{0};
    std::atomic<std::uint64_t> requests{0};
  };

  struct pending {
    connection_ptr conn;
    wire::request req;
    /// Set for the acquire family, whose request lives in the op (req
    /// is then empty).
    acquire_ptr acquire;
  };

  /// The side pool's queue.
  struct work_queue {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<pending> items;
    bool closed = false;
  };

  void reactor_main(reactor& r);
  void executor_main();
  /// Accept everything ready on r's listener. In fallback mode only
  /// reactor 0 has one; it adopts locally or deals to a peer's inbox.
  void accept_ready(reactor& r);
  /// Register a freshly accepted socket with reactor r (its thread).
  void adopt_connection(reactor& r, int fd);
  /// Drain one readable socket and serve everything parsed.
  void read_ready(reactor& r, const connection_ptr& conn);
  /// The dispatch rule: true when `kind` may wait on another thread
  /// (the commit gate on a cluster member; an admin scan or file write)
  /// and so runs on the side pool, false when it runs on its reactor.
  /// Selected on cluster mode, not on the role, which can change
  /// between decode and serve.
  [[nodiscard]] bool on_pool(wire::op kind) const;
  /// Serve a batch on reactor r under the dispatch rule: queue the pool
  /// part, serve the rest inline, then flush each connection the batch
  /// answered once.
  void serve_batch(reactor& r, std::vector<pending>& batch);
  /// Drain r's inbox: adopts, resumes, woken acquires (a batch), flushes.
  void process_inbox(reactor& r);
  /// writev the connection's output ring until drained or EAGAIN
  /// (reactor thread only).
  void flush_connection(reactor& r, const connection_ptr& conn);
  /// Fire every due timer: close connections whose output stall outlived
  /// its budget, answer parked try_acquire_for ops timed out.
  void fire_timers(reactor& r);
  /// epoll timeout until the next timer (-1 = forever).
  [[nodiscard]] int next_timer_ms(reactor& r) const;
  /// Recompute and apply the connection's epoll interest mask from
  /// (paused, want_writable). Reactor thread only.
  void rearm(reactor& r, const connection_ptr& conn);
  /// Pop the frames a writev of `wrote` bytes completed off the ring
  /// (out_mutex held). Returns {frames, events} fully written.
  static std::pair<std::uint64_t, std::uint64_t> pop_written(
      connection& conn, std::size_t wrote);
  /// Append one encoded frame to the connection's output ring. Returns
  /// false if the frame was dropped (closed / ring overflow — overflow
  /// also starts the close). Sets need_post when the caller must
  /// schedule a flush with the owning reactor.
  bool enqueue_frame(const connection_ptr& conn,
                     std::vector<std::uint8_t> bytes, bool is_event,
                     bool& need_post);
  /// Hand the connection to its owner for a flush (inline when already
  /// on that reactor's thread).
  void post_flush(reactor& r, const connection_ptr& conn);
  void post_resume(reactor& r, const connection_ptr& conn);
  void handle_resume(reactor& r, const connection_ptr& conn);
  /// Put a try_acquire_for's deadline on r's wheel (reactor thread).
  static void arm_deadline(reactor& r, const acquire_ptr& op);
  /// Append to the side pool's queue (dropped once closed).
  void push_work(std::vector<pending>& items);
  /// Serve one request (its reactor or the side pool).
  void serve(const pending& p);
  /// One attempt of an acquire-family op: answer it, or park it on the
  /// epoch it lost.
  void serve_acquire(const acquire_ptr& op);
  /// The op's final answer (`r` null: nobody to answer — the connection
  /// closed): traced spans, the frame, the in-flight slot.
  void finish(const acquire_ptr& op, const wire::response* r);
  /// Build the response for a decided acquire attempt.
  [[nodiscard]] static wire::response acquire_response(
      const wire::request& req, const svc::acquire_result& result);
  /// Encode one response frame into the connection's output ring.
  void send_response(const connection_ptr& conn, const wire::response& r);
  /// One wire watch's hub callback (notifier thread): encode the event
  /// into the connection's ring and post the flush.
  void push_event(const connection_ptr& conn, const svc::watch_event& e);
  /// Register / cancel wire watches.
  void serve_watch(const pending& p, wire::response& r);
  void serve_unwatch(const pending& p, wire::response& r);
  /// The admin ops (side pool); gated by config.enable_admin.
  void serve_admin(const pending& p, wire::response& r);
  // HTTP side-channel (reactor 0 only): accept, buffer one request,
  // answer, close.
  void http_accept_ready(reactor& r);
  void http_read_ready(reactor& r, int fd);
  void http_close(reactor& r, int fd);
  void http_respond(int fd, const std::string& buffered);
  void complete(const connection_ptr& conn);
  /// Post a resume if the connection is paused and its budget drained.
  void maybe_resume(const connection_ptr& conn);
  void maybe_pause(reactor& r, const connection_ptr& conn);
  /// Requests holding a slot of the connection's read budget: every
  /// outstanding request but its parked acquires (at most
  /// max_watches_per_connection of those are discounted).
  [[nodiscard]] int budgeted(const connection& conn) const;
  /// Initiate teardown from any thread: shutdown() the socket so the
  /// owning reactor sees it and runs finish_connection exactly once.
  void start_close(const connection_ptr& conn);
  /// Reactor-thread-only: take parked acquires and watches back
  /// (parked ones answered `rejected` on stop), final opportunistic
  /// flush (a bad_request refusal must still reach the peer),
  /// unregister, cancel the watches' hub subscriptions, reclaim the
  /// session's leases under the dispatch rule (the disconnect-on-close
  /// hook), drop from the map.
  void finish_connection(reactor& r, const connection_ptr& conn);
  void handle_handshake(const connection_ptr& conn,
                        const wire::request& req);
  void protocol_error(const connection_ptr& conn, std::uint64_t request_id);

  svc::service& service_;
  const server_config config_;

  bool listening_ = false;
  bool reuseport_active_ = false;
  std::uint16_t port_ = 0;
  int http_listen_fd_ = -1;
  std::uint16_t http_port_ = 0;
  /// Reactor-0-thread-only: accepted HTTP connections and their
  /// buffered request bytes (serve-one-request-then-close).
  std::unordered_map<int, std::string> http_conns_;

  std::vector<std::unique_ptr<reactor>> reactors_;
  /// Round-robin cursor for the single-listener fallback. Starts at 1
  /// so the first accepted connection lands off reactor 0 — spreading
  /// begins immediately.
  std::size_t next_adopter_ = 1;

  work_queue queue_;
  std::vector<std::thread> executors_;
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> next_connection_id_{1};

  struct counters {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_refused{0};
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> frames_out{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> dispatch_batches{0};
    std::atomic<std::uint64_t> backpressure_pauses{0};
    std::atomic<std::uint64_t> busy_rejections{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> disconnect_reclaims{0};
    std::atomic<std::uint64_t> watch_subscriptions{0};
    std::atomic<std::uint64_t> events_pushed{0};
    std::atomic<std::uint64_t> events_dropped{0};
  };
  counters counters_;
  std::atomic<std::uint64_t> connections_active_{0};
};

}  // namespace elect::net
