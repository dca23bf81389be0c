#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/file.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"

namespace elect::net {

namespace {

using namespace std::chrono_literals;

/// Which reactor's loop is THIS thread? Lets posts targeted at the
/// reactor we are already running on execute inline instead of taking
/// the inbox + eventfd detour (the common case for handshake replies
/// and protocol errors, which are produced on the read path itself).
thread_local const void* current_reactor_tls = nullptr;

/// Milliseconds of lease left, for the wire (clamped at zero; the
/// sentinel for "never expires" is wire::lease_forever).
std::uint64_t lease_remaining_ms(
    std::chrono::steady_clock::time_point deadline) {
  if (deadline == std::chrono::steady_clock::time_point::max()) {
    return wire::lease_forever;
  }
  const auto left = deadline - std::chrono::steady_clock::now();
  if (left <= std::chrono::steady_clock::duration::zero()) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(left).count());
}

/// writev without SIGPIPE: a peer that reset its end must cost the
/// server an EPIPE on that connection, not the process.
ssize_t send_iov(int fd, iovec* iov, int iov_count) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = static_cast<std::size_t>(iov_count);
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

/// Write the whole buffer to a non-blocking socket, parking on POLLOUT
/// when the send buffer is full. Only the HTTP side-channel still uses
/// this (a scrape response is one small buffered write); wire frames go
/// through the per-connection output rings and writev.
bool write_all(int fd, const std::uint8_t* data, std::size_t n,
               const std::atomic<bool>& stopping,
               const std::chrono::steady_clock::time_point* deadline =
                   nullptr) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t wrote = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (wrote > 0) {
      sent += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      (void)::poll(&pfd, 1, 100);
      if (stopping.load(std::memory_order_relaxed)) return false;
      if (deadline != nullptr &&
          std::chrono::steady_clock::now() >= *deadline) {
        return false;
      }
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Record a traced request's `serve` span, ending now, then run the
/// slow-request check (which dumps the ring, span included).
void record_serve(std::uint64_t trace, wire::op kind, std::uint64_t start) {
  const std::uint64_t end = obs::now_ns();
  obs::record_for(trace, obs::phase::serve, start, end);
  std::string label = "serve ";
  label += wire::to_string(kind);
  (void)obs::maybe_capture_slow(trace, std::chrono::nanoseconds(end - start),
                                label);
}

/// serve()'s span, destructor-driven so every early return is covered.
class serve_trace {
 public:
  serve_trace(std::uint64_t trace, wire::op kind) noexcept
      : trace_(trace), kind_(kind),
        start_(trace != 0 ? obs::now_ns() : 0) {}

  serve_trace(const serve_trace&) = delete;
  serve_trace& operator=(const serve_trace&) = delete;

  ~serve_trace() {
    if (trace_ != 0) record_serve(trace_, kind_, start_);
  }

 private:
  std::uint64_t trace_;
  wire::op kind_;
  std::uint64_t start_;
};

void json_escape_into(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// One key_inspection as the JSON object the admin ops return.
/// lease_remaining_ms is null for a non-expiring (or absent) lease.
std::string inspection_json(const svc::key_inspection& k) {
  std::string out;
  out += "{\"key\":\"";
  json_escape_into(out, k.key);
  out += "\",\"epoch\":";
  out += std::to_string(k.entry.epoch);
  out += ",\"leader\":";
  out += std::to_string(k.leader);
  out += ",\"mode\":\"";
  out.append(k.mode.data(), k.mode.size());
  out += "\",\"lease_remaining_ms\":";
  const std::uint64_t left = lease_remaining_ms(k.lease_deadline);
  if (k.leader < 0 || left == wire::lease_forever) {
    out += "null";
  } else {
    out += std::to_string(left);
  }
  out += ",\"attempts_this_epoch\":";
  out += std::to_string(k.attempts_this_epoch);
  out += ",\"last_epoch_attempts\":";
  out += std::to_string(k.last_epoch_attempts);
  out += '}';
  return out;
}

/// The network front-end's own Prometheus series, appended after the
/// service-level series obs::render_prometheus produces.
void render_net_prometheus(std::string& out, const net_report& r) {
  obs::prom_gauge(out, "elect_net_connections_active",
                  "Open client connections.", r.connections_active);
  obs::prom_counter(out, "elect_net_connections_accepted_total",
                    "Connections accepted.", r.connections_accepted);
  obs::prom_counter(out, "elect_net_connections_refused_total",
                    "Connections refused at the cap.", r.connections_refused);
  obs::prom_counter(out, "elect_net_requests_total", "Wire requests decoded.",
                    r.requests);
  obs::prom_counter(out, "elect_net_frames_in_total", "Frames received.",
                    r.frames_in);
  obs::prom_counter(out, "elect_net_frames_out_total", "Frames sent.",
                    r.frames_out);
  obs::prom_counter(out, "elect_net_bytes_in_total", "Bytes received.",
                    r.bytes_in);
  obs::prom_counter(out, "elect_net_bytes_out_total", "Bytes sent.",
                    r.bytes_out);
  obs::prom_counter(out, "elect_net_busy_rejections_total",
                    "Watch ops answered busy at the per-connection watch cap.",
                    r.busy_rejections);
  obs::prom_counter(out, "elect_net_protocol_errors_total",
                    "Connections killed for protocol violations.",
                    r.protocol_errors);
  obs::prom_counter(out, "elect_net_disconnect_reclaims_total",
                    "Leases reclaimed because their connection died.",
                    r.disconnect_reclaims);
  obs::prom_counter(out, "elect_net_events_pushed_total",
                    "Watch event frames delivered.", r.events_pushed);
  obs::prom_counter(out, "elect_net_events_dropped_total",
                    "Watch event frames dropped (dead or wedged consumer).",
                    r.events_dropped);
  obs::prom_gauge(out, "elect_net_reactors", "Configured reactor count.",
                  r.reactors);
  obs::prom_counter(out, "elect_net_writev_total",
                    "writev flush calls across all reactors.",
                    r.writev_calls);
  obs::prom_counter(out, "elect_net_frames_flushed_total",
                    "Frames flushed via writev across all reactors.",
                    r.frames_flushed);
  obs::prom_counter(out, "elect_net_wakeups_total",
                    "Cross-thread eventfd wakeups across all reactors.",
                    r.reactor_wakeups);

  // Per-reactor slices. The labels are the operational interface for
  // spotting a hot or idle reactor; frames_flushed / writev is the
  // coalesce ratio, per reactor.
  obs::prom_type_line(out, "elect_net_reactor_connections",
                      "Open connections pinned to each reactor.", "gauge");
  for (const auto& s : r.per_reactor) {
    obs::prom_labeled(out, "elect_net_reactor_connections", "reactor",
                      std::to_string(s.index), s.connections);
  }
  obs::prom_type_line(out, "elect_net_reactor_accepted_total",
                      "Connections accepted (or adopted) per reactor.",
                      "counter");
  for (const auto& s : r.per_reactor) {
    obs::prom_labeled(out, "elect_net_reactor_accepted_total", "reactor",
                      std::to_string(s.index), s.accepted);
  }
  obs::prom_type_line(out, "elect_net_reactor_wakeups_total",
                      "Eventfd wakeups per reactor.", "counter");
  for (const auto& s : r.per_reactor) {
    obs::prom_labeled(out, "elect_net_reactor_wakeups_total", "reactor",
                      std::to_string(s.index), s.wakeups);
  }
  obs::prom_type_line(out, "elect_net_reactor_writev_total",
                      "writev flush calls per reactor.", "counter");
  for (const auto& s : r.per_reactor) {
    obs::prom_labeled(out, "elect_net_reactor_writev_total", "reactor",
                      std::to_string(s.index), s.writev_calls);
  }
  obs::prom_type_line(out, "elect_net_reactor_frames_flushed_total",
                      "Frames flushed per reactor.", "counter");
  for (const auto& s : r.per_reactor) {
    obs::prom_labeled(out, "elect_net_reactor_frames_flushed_total",
                      "reactor", std::to_string(s.index), s.frames_flushed);
  }
  obs::prom_type_line(out, "elect_net_reactor_drain_batches_total",
                      "Flush passes that wrote at least one frame, per "
                      "reactor.",
                      "counter");
  for (const auto& s : r.per_reactor) {
    obs::prom_labeled(out, "elect_net_reactor_drain_batches_total",
                      "reactor", std::to_string(s.index), s.drain_batches);
  }
  obs::prom_type_line(out, "elect_net_reactor_requests_total",
                      "Requests decoded per reactor.", "counter");
  for (const auto& s : r.per_reactor) {
    obs::prom_labeled(out, "elect_net_reactor_requests_total", "reactor",
                      std::to_string(s.index), s.requests);
  }
}

/// Resolve the reactor count: explicit config wins, then the
/// ELECT_REACTORS environment variable (what CI uses to force 4 under
/// the sanitizers), then hardware concurrency clamped to a sane fleet.
int resolve_reactor_count(int configured) {
  if (configured > 0) return std::clamp(configured, 1, 64);
  if (const char* env = std::getenv("ELECT_REACTORS")) {
    const int n = std::atoi(env);
    if (n > 0) return std::clamp(n, 1, 64);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw == 0 ? 1 : hw), 1, 16);
}

/// One bound, listening, non-blocking socket. With `reuseport`, failure
/// to set SO_REUSEPORT is a failure (the caller falls back to the
/// single-listener path rather than binding a non-sharded socket into a
/// sharded group).
int make_listener(const std::string& address, std::uint16_t port,
                  bool reuseport, std::uint16_t* bound_port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
    ::close(fd);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 256) != 0) {
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
        0) {
      *bound_port = ntohs(bound.sin_port);
    }
  }
  return fd;
}

}  // namespace

std::string net_report::to_json() const {
  std::ostringstream out;
  out << "{\"connections_accepted\":" << connections_accepted
      << ",\"connections_active\":" << connections_active
      << ",\"connections_refused\":" << connections_refused
      << ",\"frames_in\":" << frames_in << ",\"frames_out\":" << frames_out
      << ",\"bytes_in\":" << bytes_in << ",\"bytes_out\":" << bytes_out
      << ",\"requests\":" << requests
      << ",\"dispatch_batches\":" << dispatch_batches
      << ",\"backpressure_pauses\":" << backpressure_pauses
      << ",\"busy_rejections\":" << busy_rejections
      << ",\"protocol_errors\":" << protocol_errors
      << ",\"disconnect_reclaims\":" << disconnect_reclaims
      << ",\"watch_subscriptions\":" << watch_subscriptions
      << ",\"events_pushed\":" << events_pushed
      << ",\"events_dropped\":" << events_dropped
      << ",\"reactors\":" << reactors
      << ",\"reuseport\":" << (reuseport ? "true" : "false")
      << ",\"writev_calls\":" << writev_calls
      << ",\"frames_flushed\":" << frames_flushed
      << ",\"reactor_wakeups\":" << reactor_wakeups << ",\"per_reactor\":[";
  for (std::size_t i = 0; i < per_reactor.size(); ++i) {
    const reactor_stat& s = per_reactor[i];
    if (i != 0) out << ',';
    out << "{\"index\":" << s.index << ",\"connections\":" << s.connections
        << ",\"accepted\":" << s.accepted << ",\"wakeups\":" << s.wakeups
        << ",\"writev_calls\":" << s.writev_calls
        << ",\"frames_flushed\":" << s.frames_flushed
        << ",\"drain_batches\":" << s.drain_batches
        << ",\"requests\":" << s.requests << "}";
  }
  out << "]}";
  return out.str();
}

server::connection::~connection() {
  if (fd >= 0) ::close(fd);
}

server::server(svc::service& service, server_config config)
    : service_(service), config_(std::move(config)) {
  ELECT_CHECK(config_.executors >= 1);
  ELECT_CHECK(config_.max_inflight_per_connection >= 1);

  const int n = resolve_reactor_count(config_.reactors);
  reactors_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto r = std::make_unique<reactor>();
    r->index = i;
    reactors_.push_back(std::move(r));
  }

  const auto fail = [this] {
    for (auto& re : reactors_) {
      if (re->epoll_fd >= 0) ::close(re->epoll_fd);
      if (re->mail->wake_fd >= 0) ::close(re->mail->wake_fd);
      if (re->listen_fd >= 0) ::close(re->listen_fd);
      re->epoll_fd = re->mail->wake_fd = re->listen_fd = -1;
    }
    if (http_listen_fd_ >= 0) {
      ::close(http_listen_fd_);
      http_listen_fd_ = -1;
    }
  };

  // The accept path: one SO_REUSEPORT listener per reactor when we can
  // (the kernel spreads incoming connections across the group), a
  // single listener on reactor 0 dealing round-robin when we can't.
  bool sharded = config_.reuseport && n > 1;
  if (sharded) {
    std::uint16_t bound = 0;
    const int first =
        make_listener(config_.bind_address, config_.port, true, &bound);
    if (first < 0) {
      sharded = false;
    } else {
      reactors_[0]->listen_fd = first;
      port_ = bound;
      for (int i = 1; i < n && sharded; ++i) {
        const int fd = make_listener(config_.bind_address, port_, true,
                                     nullptr);
        if (fd < 0) {
          sharded = false;
        } else {
          reactors_[i]->listen_fd = fd;
        }
      }
      if (!sharded) {
        // A partial group is worse than no group: close everything and
        // fall back to the single-listener path below.
        for (auto& re : reactors_) {
          if (re->listen_fd >= 0) ::close(re->listen_fd);
          re->listen_fd = -1;
        }
        port_ = 0;
      }
    }
  }
  if (!sharded) {
    const int fd =
        make_listener(config_.bind_address, config_.port, false, &port_);
    if (fd < 0) return;  // listening_ stays false: bind failed
    reactors_[0]->listen_fd = fd;
  }
  reuseport_active_ = sharded;

  for (auto& re : reactors_) {
    re->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    re->mail->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (re->epoll_fd < 0 || re->mail->wake_fd < 0) {
      fail();
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = re->mail->wake_fd;
    if (::epoll_ctl(re->epoll_fd, EPOLL_CTL_ADD, re->mail->wake_fd, &ev) !=
        0) {
      fail();
      return;
    }
    if (re->listen_fd >= 0) {
      ev.data.fd = re->listen_fd;
      if (::epoll_ctl(re->epoll_fd, EPOLL_CTL_ADD, re->listen_fd, &ev) != 0) {
        fail();
        return;
      }
    }
  }

  if (config_.http_enabled) {
    // The HTTP side-channel rides reactor 0 — a scrape is a few hundred
    // bytes each way, not worth a listener per reactor. Failure to bind
    // degrades to "no HTTP" (http_listening() false) rather than taking
    // the wire listeners down with it.
    const int one = 1;
    http_listen_fd_ =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (http_listen_fd_ >= 0) {
      (void)::setsockopt(http_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof one);
      sockaddr_in haddr{};
      haddr.sin_family = AF_INET;
      haddr.sin_port = htons(config_.http_port);
      if (::inet_pton(AF_INET, config_.bind_address.c_str(),
                      &haddr.sin_addr) != 1 ||
          ::bind(http_listen_fd_, reinterpret_cast<const sockaddr*>(&haddr),
                 sizeof haddr) != 0 ||
          ::listen(http_listen_fd_, 64) != 0) {
        ::close(http_listen_fd_);
        http_listen_fd_ = -1;
      } else {
        sockaddr_in hbound{};
        socklen_t hbound_len = sizeof hbound;
        if (::getsockname(http_listen_fd_,
                          reinterpret_cast<sockaddr*>(&hbound),
                          &hbound_len) == 0) {
          http_port_ = ntohs(hbound.sin_port);
        }
        epoll_event hev{};
        hev.events = EPOLLIN;
        hev.data.fd = http_listen_fd_;
        if (::epoll_ctl(reactors_[0]->epoll_fd, EPOLL_CTL_ADD,
                        http_listen_fd_, &hev) != 0) {
          ::close(http_listen_fd_);
          http_listen_fd_ = -1;
          http_port_ = 0;
        }
      }
    }
  }

  listening_ = true;
  for (auto& re : reactors_) {
    reactor* rp = re.get();
    re->thread = std::thread([this, rp] { reactor_main(*rp); });
  }
  executors_.reserve(static_cast<std::size_t>(config_.executors));
  for (int i = 0; i < config_.executors; ++i) {
    executors_.emplace_back([this] { executor_main(); });
  }
}

server::~server() { stop(); }

void server::stop() {
  if (stopping_.exchange(true)) return;
  // Reactor teardown finishes every connection: parked acquires are
  // taken back (answered `rejected`), queued work finds it closed, and
  // each session's leases are reclaimed on the spot; the executors
  // drain what was queued before they exit.
  for (auto& re : reactors_) {
    if (re->thread.joinable()) {
      re->mail->kick();
      re->thread.join();
    }
  }
  {
    const std::lock_guard<std::mutex> lock(queue_.mutex);
    queue_.closed = true;
  }
  queue_.cv.notify_all();
  for (auto& t : executors_) {
    if (t.joinable()) t.join();
  }
  for (auto& re : reactors_) {
    inbox& mail = *re->mail;
    {
      // Closed before its eventfd: a late wake drops its op here.
      const std::lock_guard<std::mutex> lock(mail.mutex);
      mail.closed = true;
      for (const int fd : mail.adopts) ::close(fd);
      mail.adopts.clear();
      mail.flushes.clear();
      mail.resumes.clear();
      mail.wakes.clear();
      if (mail.wake_fd >= 0) ::close(mail.wake_fd);
      mail.wake_fd = -1;
    }
    if (re->epoll_fd >= 0) ::close(re->epoll_fd);
    if (re->listen_fd >= 0) ::close(re->listen_fd);
    re->epoll_fd = re->listen_fd = -1;
  }
  if (http_listen_fd_ >= 0) {
    ::close(http_listen_fd_);
    http_listen_fd_ = -1;
  }
}

// ---------------------------------------------------------------------
// The reactor loop: accept, drain-and-dispatch, flush, teardown.

void server::reactor_main(reactor& r) {
  current_reactor_tls = &r;
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int ready = ::epoll_wait(r.epoll_fd, events, 64, next_timer_ms(r));
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t mask = events[i].events;
      if (fd == r.mail->wake_fd) {
        std::uint64_t drained = 0;
        (void)!::read(fd, &drained, sizeof drained);
        r.wakeups.fetch_add(1, std::memory_order_relaxed);
        process_inbox(r);
        continue;
      }
      if (fd == r.listen_fd) {
        accept_ready(r);
        continue;
      }
      if (r.index == 0 && fd == http_listen_fd_) {
        http_accept_ready(r);
        continue;
      }
      const auto it = r.connections.find(fd);
      if (it != r.connections.end()) {
        // Copy: the handlers may finish the connection and erase it.
        const connection_ptr conn = it->second;
        if ((mask & EPOLLOUT) != 0) flush_connection(r, conn);
        if ((mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0 &&
            r.connections.count(fd) != 0) {
          read_ready(r, conn);
        }
        continue;
      }
      if (r.index == 0 && http_conns_.count(fd) != 0) http_read_ready(r, fd);
    }
    fire_timers(r);
  }
  // Teardown: finish every connection (disconnect-on-close included)
  // while the map still owns them. Whatever is left in the inbox
  // (sockets dealt to us, wakes of ops whose answers teardown drops)
  // stop() discards when it closes the inbox.
  std::vector<connection_ptr> remaining;
  remaining.reserve(r.connections.size());
  for (const auto& [fd, conn] : r.connections) remaining.push_back(conn);
  for (const auto& conn : remaining) finish_connection(r, conn);
  if (r.index == 0) {
    for (const auto& [fd, buffered] : http_conns_) ::close(fd);
    http_conns_.clear();
  }
}

void server::process_inbox(reactor& r) {
  std::vector<int> adopts;
  std::vector<connection_ptr> resumes;
  std::vector<acquire_ptr> wakes;
  std::vector<connection_ptr> flushes;
  {
    const std::lock_guard<std::mutex> lock(r.mail->mutex);
    adopts.swap(r.mail->adopts);
    resumes.swap(r.mail->resumes);
    wakes.swap(r.mail->wakes);
    flushes.swap(r.mail->flushes);
    r.mail->kicked = false;
  }
  for (const int fd : adopts) adopt_connection(r, fd);
  for (const auto& conn : resumes) handle_resume(r, conn);
  if (!wakes.empty()) {
    // Woken acquires retry under the dispatch rule. Served before the
    // posted flushes, so an answer to a connection already waiting for
    // one rides that flush.
    std::vector<pending> batch;
    batch.reserve(wakes.size());
    for (auto& op : wakes) {
      batch.push_back(pending{op->conn, {}, std::move(op)});
    }
    serve_batch(r, batch);
  }
  for (const auto& conn : flushes) flush_connection(r, conn);
}

template <typename Add>
void server::inbox::post(Add add) {
  const std::lock_guard<std::mutex> lock(mutex);
  if (closed) return;
  add();
  if (!kicked) {
    kicked = true;
    kick();  // under the lock: stop() closes the eventfd under it too
  }
}

void server::inbox::kick() const {
  const std::uint64_t one = 1;
  (void)!::write(wake_fd, &one, sizeof one);
}

void server::accept_ready(reactor& r) {
  for (;;) {
    const int fd =
        ::accept4(r.listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient accept error: wait for the next event
    }
    if (stopping_.load(std::memory_order_relaxed) ||
        connections_active_.load(std::memory_order_relaxed) >=
            static_cast<std::uint64_t>(config_.max_connections)) {
      counters_.connections_refused.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (reuseport_active_ || reactors_.size() == 1) {
      adopt_connection(r, fd);
      continue;
    }
    // Single-listener fallback: reactor 0 owns the only listener and
    // deals accepted sockets round-robin across the fleet. next_adopter_
    // starts at 1, so spreading begins with the very first connection.
    reactor& target = *reactors_[next_adopter_++ % reactors_.size()];
    if (&target == &r) {
      adopt_connection(r, fd);
      continue;
    }
    // The target's inbox closes only after every reactor, this one
    // included, has exited: the post cannot be dropped.
    target.mail->post([&] { target.mail->adopts.push_back(fd); });
  }
}

void server::adopt_connection(reactor& r, int fd) {
  if (stopping_.load(std::memory_order_relaxed)) {
    ::close(fd);
    return;
  }
  auto conn = std::make_shared<connection>(
      fd, next_connection_id_.fetch_add(1, std::memory_order_relaxed), r);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.fd = fd;
  if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return;  // conn destructor closes the fd
  }
  r.connections.emplace(fd, std::move(conn));
  r.accepted.fetch_add(1, std::memory_order_relaxed);
  r.active.fetch_add(1, std::memory_order_relaxed);
  counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  connections_active_.fetch_add(1, std::memory_order_relaxed);
}

void server::read_ready(reactor& r, const connection_ptr& conn) {
  // Drain the socket in bounded bites, decoding after each recv; a
  // decoded request holds a slot of the in-flight cap until it is
  // answered. Draining straight to EAGAIN before ever consulting the
  // cap would let a client that pre-filled the kernel buffer blow
  // arbitrarily far past max_inflight_per_connection, and would let one
  // flooding connection hold its reactor; this way the overshoot is
  // bounded by the frames of one 64 KiB read, and the rest stays in the
  // kernel buffer (level-triggered EPOLLIN re-fires on the next pass,
  // or once a pause lifts).
  std::uint8_t buffer[64 * 1024];
  bool dead = conn->closed.load(std::memory_order_relaxed);
  bool drained = dead;
  std::vector<pending> batch;
  while (!dead) {
    const ssize_t got = ::recv(conn->fd, buffer, sizeof buffer, 0);
    if (got > 0) {
      counters_.bytes_in.fetch_add(static_cast<std::uint64_t>(got),
                                   std::memory_order_relaxed);
      if (!conn->reader.feed(buffer, static_cast<std::size_t>(got))) {
        protocol_error(conn, 0);
        dead = true;
      }
    } else if (got == 0) {
      dead = true;  // orderly EOF — the disconnect-on-close trigger
      drained = true;
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      drained = true;
    } else {
      dead = true;  // reset / error — same as a crash
      drained = true;
    }

    // Decode everything this bite completed. Dead connections still
    // parse: requests already received alongside an EOF are served (the
    // client pipelined then closed; its last responses are moot, but a
    // won lease must be reclaimed — finish_connection below, or
    // serve_acquire for a win on the side pool).
    while (auto frame = conn->reader.next()) {
      counters_.frames_in.fetch_add(1, std::memory_order_relaxed);
      auto req = wire::decode_request(*frame);
      if (!req) {
        protocol_error(conn, 0);
        dead = true;
        drained = true;
        break;
      }
      if (!conn->session) {
        handle_handshake(conn, *req);
        if (!conn->session) {
          dead = true;
          drained = true;
          break;
        }
        continue;
      }
      if (req->kind == wire::op::hello) {
        protocol_error(conn, req->id);
        dead = true;
        drained = true;
        break;
      }
      counters_.requests.fetch_add(1, std::memory_order_relaxed);
      r.requests.fetch_add(1, std::memory_order_relaxed);
      conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
      if (req->kind == wire::op::try_acquire ||
          req->kind == wire::op::acquire ||
          req->kind == wire::op::try_acquire_for) {
        auto op = std::make_shared<acquire_op>();
        op->conn = conn;
        op->deadline = std::chrono::steady_clock::time_point::max();
        if (req->kind == wire::op::try_acquire_for) {
          // Untrusted: clamp into milliseconds' range before the clock.
          op->deadline = svc::deadline_after(std::chrono::milliseconds(
              static_cast<std::int64_t>(std::min<std::uint64_t>(
                  req->timeout_ms, std::chrono::milliseconds::max().count()))));
          arm_deadline(r, op);
        }
        op->req = std::move(*req);
        batch.push_back(pending{conn, {}, std::move(op)});
      } else {
        batch.push_back(pending{conn, std::move(*req), nullptr});
      }
    }
    if (drained) break;
    // At the cap: stop reading. Serving the batch frees the slots of
    // what it answers; maybe_pause below parks the socket if it is
    // still at the cap.
    if (budgeted(*conn) >= config_.max_inflight_per_connection) break;
  }

  if (!batch.empty()) {
    counters_.dispatch_batches.fetch_add(1, std::memory_order_relaxed);
    serve_batch(r, batch);
  }

  if (dead) {
    finish_connection(r, conn);
  } else {
    maybe_pause(r, conn);
  }
}

void server::handle_handshake(const connection_ptr& conn,
                              const wire::request& req) {
  if (!wire::hello_version_ok(req)) {
    protocol_error(conn, req.id);
    return;  // session stays unset; the caller closes the connection
  }
  auto session = service_.try_connect();
  if (!session.has_value()) {
    // The service stopped under us: answer once so the client fails
    // with "rejected" instead of a bare connection reset.
    wire::response refused = wire::make_hello_response(0);
    refused.id = req.id;
    refused.result = wire::status::rejected;
    send_response(conn, refused);
    return;
  }
  conn->session.emplace(*session);
  wire::response hello =
      wire::make_hello_response(static_cast<std::uint64_t>(session->id()));
  hello.id = req.id;
  send_response(conn, hello);
}

void server::protocol_error(const connection_ptr& conn,
                            std::uint64_t request_id) {
  counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  wire::response r;
  r.id = request_id;
  r.result = wire::status::bad_request;
  // Best effort: the frame lands in the output ring and the final flush
  // in finish_connection pushes it at the raw socket before close.
  send_response(conn, r);
}

// ---------------------------------------------------------------------
// Request execution.

bool server::on_pool(wire::op kind) const {
  switch (kind) {
    case wire::op::try_acquire:
    case wire::op::acquire:
    case wire::op::try_acquire_for:
    case wire::op::release:
    case wire::op::release_fenced:
    case wire::op::renew:
      // The commit gate may block for up to commit_wait_ms; a
      // follower's redirect is cheap wherever it runs.
      return config_.cluster.enabled();
    case wire::op::admin_list:
    case wire::op::admin_inspect:
    case wire::op::admin_force_release:
    case wire::op::admin_snapshot:
    case wire::op::admin_commands:
      return true;  // registry scans, a file write and fsync, the gate
    default:
      return false;
  }
}

void server::serve_batch(reactor& r, std::vector<pending>& batch) {
  std::vector<pending> pooled;
  r.batching = true;
  for (auto& p : batch) {
    if (on_pool(p.acquire ? p.acquire->req.kind : p.req.kind)) {
      pooled.push_back(std::move(p));
    } else {
      serve(p);
    }
  }
  r.batching = false;
  if (!pooled.empty()) push_work(pooled);
  // Nothing below records a flush: batching is off.
  for (const auto& conn : r.batch_flushes) flush_connection(r, conn);
  r.batch_flushes.clear();
}

void server::push_work(std::vector<pending>& items) {
  {
    const std::lock_guard<std::mutex> lock(queue_.mutex);
    if (queue_.closed) return;
    for (auto& p : items) queue_.items.push_back(std::move(p));
  }
  if (items.size() > 1) {
    queue_.cv.notify_all();
  } else {
    queue_.cv.notify_one();
  }
}

void server::executor_main() {
  for (;;) {
    pending p;
    {
      std::unique_lock<std::mutex> lock(queue_.mutex);
      queue_.cv.wait(lock,
                     [this] { return queue_.closed || !queue_.items.empty(); });
      if (queue_.items.empty()) return;  // closed and drained
      p = std::move(queue_.items.front());
      queue_.items.pop_front();
    }
    serve(p);
  }
}

wire::response server::acquire_response(const wire::request& req,
                                        const svc::acquire_result& result) {
  wire::response r;
  r.id = req.id;
  r.kind = req.kind;
  r.epoch = result.epoch;
  if (result.rejected) {
    // A cluster primary that lost its quorum fails the commit gate:
    // the grant was applied locally but never confirmed — the client
    // must treat it as a dead connection, not a clean loss.
    r.result = result.connection_lost ? wire::status::connection_lost
                                      : wire::status::rejected;
  } else if (result.won) {
    r.result = wire::status::ok;
    r.flags |= wire::flag_won;
    if (result.fast_path) r.flags |= wire::flag_fast_path;
    r.lease_remaining_ms = lease_remaining_ms(result.lease_deadline);
  } else if (result.timed_out) {
    r.result = wire::status::timed_out;
  } else {
    r.result = wire::status::lost;
  }
  return r;
}

void server::serve(const pending& p) {
  if (p.acquire) {
    serve_acquire(p.acquire);
    return;
  }
  svc::service::session& session = *p.conn->session;
  const wire::request& req = p.req;
  // The v3 frame carried the client's trace id: serve under it so the
  // service-layer spans (fast path, queue wait, election, lease ops)
  // land in the same trace the client minted.
  const obs::trace_scope trace(req.trace_id);
  const serve_trace timing(req.trace_id, req.kind);
  wire::response r;
  r.id = req.id;
  r.kind = req.kind;
  if (config_.cluster.enabled()) {
    switch (req.kind) {
      case wire::op::peer_vote:
      case wire::op::peer_append:
      case wire::op::peer_snapshot:
        // Replication traffic: straight to the repl node, no session
        // semantics involved.
        send_response(p.conn, config_.cluster.peer(req));
        complete(p.conn);
        return;
      case wire::op::release:
      case wire::op::release_fenced:
      case wire::op::renew:
      case wire::op::admin_force_release:
      case wire::op::watch:
        // Mutations only run where the replicated log is written.
        // (disconnect is deliberately absent: a follower session holds
        // nothing, so serving it locally is correct — and the implicit
        // disconnect on socket close has no one to redirect anyway.)
        // Watches follow the primary too: a follower renders the same
        // committed log but behind it — one catching up replays history
        // — so a watch that moved there would see transitions go back.
        if (!config_.cluster.is_primary()) {
          r.result = wire::status::not_primary;
          r.body = config_.cluster.primary_hint();
          send_response(p.conn, r);
          complete(p.conn);
          return;
        }
        break;
      default:
        break;
    }
  }
  switch (req.kind) {
    case wire::op::release:
      r.result = wire::from_lease_status(session.release(req.key));
      break;
    case wire::op::release_fenced:
      r.result =
          wire::from_lease_status(session.release(req.key, req.epoch));
      break;
    case wire::op::renew:
      r.result = wire::from_lease_status(session.renew(req.key, req.epoch));
      if (r.result == wire::status::ok) {
        // A successful renew re-arms the full TTL; telling the client
        // the refreshed budget is what lets a remote auto-renewing
        // lease (api::lease) schedule its next heartbeat without a
        // second round-trip.
        const std::uint64_t ttl_ms = service_.config().lease_ttl_ms;
        r.lease_remaining_ms = ttl_ms == 0 ? wire::lease_forever : ttl_ms;
      }
      break;
    case wire::op::watch:
      serve_watch(p, r);
      break;
    case wire::op::unwatch:
      serve_unwatch(p, r);
      break;
    case wire::op::disconnect:
      r.epoch = session.disconnect();
      r.result = wire::status::ok;
      break;
    case wire::op::metrics:
      r.body = report_json();
      r.result = wire::status::ok;
      // A body the frame cap cannot carry would poison the client's
      // deframer and kill the whole connection; fail just this call.
      if (r.body.size() > wire::max_frame_bytes - 64) {
        r.body.clear();
        r.result = wire::status::bad_request;
      }
      break;
    case wire::op::admin_cluster_status:
      // Answered by every member, primary or not, and NOT gated by
      // enable_admin: a client or operator locating the primary must
      // not need force-release rights to ask who leads.
      r.body = config_.cluster.status_json
                   ? config_.cluster.status_json()
                   : std::string("{\"role\":\"standalone\"}");
      r.result = wire::status::ok;
      break;
    case wire::op::admin_list:
    case wire::op::admin_inspect:
    case wire::op::admin_force_release:
    case wire::op::admin_snapshot:
    case wire::op::admin_commands:
      serve_admin(p, r);
      break;
    default:
      r.result = wire::status::bad_request;
      break;
  }
  send_response(p.conn, r);
  complete(p.conn);
}

// ---------------------------------------------------------------------
// Wire watches: one hub subscription each, held by its connection.
// service_.watch takes the service's watch locks (hub, feed) but never
// waits on a delivery, so it may run under park_mutex; service_.unwatch
// can wait for an in-flight delivery, whose callback takes this
// connection's out_mutex and a reactor's inbox lock, so it never runs
// under a server lock.

void server::serve_watch(const pending& p, wire::response& r) {
  const connection_ptr& conn = p.conn;
  std::uint64_t id = 0;
  {
    // Under park_mutex, where teardown sets `closed` and takes the
    // watch ids: either teardown takes this id back, or we see closed
    // and refuse — a watch never outlives its connection.
    const std::lock_guard<std::mutex> lock(conn->park_mutex);
    if (conn->closed.load(std::memory_order_relaxed)) {
      r.result = wire::status::rejected;
      return;
    }
    if (conn->watch_ids.size() >=
        static_cast<std::size_t>(config_.max_watches_per_connection)) {
      counters_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
      r.result = wire::status::busy;
      return;
    }
    id = service_.watch(p.req.key, [this, conn](const svc::watch_event& e) {
      push_event(conn, e);
    });
    if (id == 0) {  // the service stopped
      r.result = wire::status::rejected;
      return;
    }
    conn->watch_ids.push_back(id);
  }
  counters_.watch_subscriptions.fetch_add(1, std::memory_order_relaxed);
  r.result = wire::status::ok;
  r.epoch = id;  // the handle the client passes back to unwatch
}

void server::serve_unwatch(const pending& p, wire::response& r) {
  const std::uint64_t id = p.req.epoch;
  bool owned = false;
  {
    // Only ids this connection holds are cancelled — an unknown or
    // foreign id is a harmless no-op, not a protocol violation.
    const std::lock_guard<std::mutex> lock(p.conn->park_mutex);
    owned = std::erase(p.conn->watch_ids, id) != 0;
  }
  if (owned) service_.unwatch(id);
  r.result = wire::status::ok;
}

void server::push_event(const connection_ptr& conn,
                        const svc::watch_event& e) {
  if (stopping_.load(std::memory_order_relaxed)) return;
  bool need_post = false;
  if (!enqueue_frame(conn, wire::encode_response(wire::make_event(e)),
                     /*is_event=*/true, need_post)) {
    counters_.events_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (need_post) post_flush(conn->owner, conn);
}

void server::serve_admin(const pending& p, wire::response& r) {
  if (!config_.enable_admin) {
    r.result = wire::status::denied;
    return;
  }
  svc::instance_registry& registry = service_.registry();
  switch (p.req.kind) {
    case wire::op::admin_list: {
      std::string body = "[";
      registry.visit_keys([&body](const svc::key_inspection& k) {
        if (body.size() > 1) body += ',';
        body += inspection_json(k);
        // A pathological key population could outgrow a frame; stop at
        // whole objects rather than poisoning the client's deframer, and
        // before the registry copies keys nobody will see.
        return body.size() <= wire::max_frame_bytes / 2;
      });
      body += ']';
      r.body = std::move(body);
      r.result = wire::status::ok;
      break;
    }
    case wire::op::admin_inspect: {
      const auto k = registry.inspect(p.req.key);
      if (!k.has_value()) {
        r.result = wire::status::not_leader;  // never acquired
        break;
      }
      r.body = inspection_json(*k);
      r.epoch = k->entry.epoch;
      r.result = wire::status::ok;
      break;
    }
    case wire::op::admin_force_release:
      // Through the service, not the registry: the forced-release
      // counter and the journal's "admin" cause live there.
      r.result = wire::from_lease_status(service_.force_release(p.req.key));
      break;
    case wire::op::admin_snapshot: {
      const std::vector<std::uint8_t> snap =
          service_.registry().snapshot(/*trim_log=*/false);
      bool written = false;
      bool write_failed = false;
      if (!config_.snapshot_path.empty()) {
        // Durably: a crash or power loss never leaves a torn file
        // where a restore expects a whole one.
        written = replace_file_durably(config_.snapshot_path, snap);
        write_failed = !written;
      }
      const cmd::log_stats stats = service_.registry().log_stats();
      std::string body = "{\"recording\":";
      body += stats.recording ? "true" : "false";
      body += ",\"recorded\":";
      body += std::to_string(stats.recorded);
      body += ",\"retained\":";
      body += std::to_string(stats.retained);
      body += ",\"bytes\":";
      body += std::to_string(snap.size());
      body += ",\"path\":\"";
      json_escape_into(body, config_.snapshot_path);
      body += "\",\"written\":";
      body += written ? "true" : "false";
      body += "}";
      r.body = std::move(body);
      // A snapshot the operator asked to persist but could not be
      // written is a failure, not a success with a footnote.
      r.result =
          write_failed ? wire::status::rejected : wire::status::ok;
      break;
    }
    case wire::op::admin_commands: {
      // Page through the retained, committed command log from a position
      // the client holds: the request's epoch is the log index to resume
      // after, and the response's epoch is the index the next page
      // resumes after. Indices never move, so commands appended between
      // pages shift nothing: none repeats and none is skipped. An empty
      // page ends the pass.
      if (!registry.command_log_enabled()) {
        r.result = wire::status::rejected;
        break;
      }
      constexpr std::size_t chunk = 256;
      std::uint64_t after = p.req.epoch;
      std::string body = "{\"total\":" +
                         std::to_string(registry.log_stats().retained) +
                         ",\"commands\":[";
      const std::size_t empty = body.size();
      for (bool full = false; !full;) {
        const auto page = registry.log().read(after, chunk);
        for (const auto& [index, c] : page) {
          const std::string one = (body.size() == empty ? "" : ",") +
                                  cmd::to_json(c);
          full = body.size() + one.size() > wire::max_frame_bytes / 2;
          if (full) break;
          body += one;
          after = index;
        }
        if (page.size() < chunk) break;  // read out
      }
      body += "]}";
      r.body = std::move(body);
      r.epoch = after;
      r.result = wire::status::ok;
      break;
    }
    default:
      r.result = wire::status::bad_request;
      break;
  }
}

// ---------------------------------------------------------------------
// Blocking acquires: one attempt per dispatch, parked in between.

void server::serve_acquire(const acquire_ptr& op) {
  connection& conn = *op->conn;
  const wire::request& req = op->req;
  const obs::trace_scope trace(req.trace_id);
  {
    const std::lock_guard<std::mutex> lock(conn.park_mutex);
    // Woken: the registry already dropped the waiter entry.
    if (op->park_id != 0) conn.parked_ops.erase(std::exchange(op->park_id, 0));
    if (req.trace_id != 0) {
      const std::uint64_t now = obs::now_ns();
      if (op->serve_start_ns == 0) op->serve_start_ns = now;
      if (op->parked_ns != 0) {
        obs::record_for(req.trace_id, obs::phase::epoch_wait,
                        std::exchange(op->parked_ns, 0), now);
      }
    }
  }
  for (;;) {
    if (config_.cluster.enabled() && !config_.cluster.is_primary()) {
      // Deposed (a step-down wakes every parked op into this check).
      wire::response redirect = acquire_response(req, {});
      redirect.result = wire::status::not_primary;
      redirect.body = config_.cluster.primary_hint();
      finish(op, &redirect);
      return;
    }
    svc::acquire_result result = conn.session->try_acquire(req.key);
    if (result.won && conn.closed.load(std::memory_order_relaxed)) {
      // The client died while the attempt ran, or before its wake was
      // served: disconnect-on-close already set `closed`, so nobody is
      // behind this win — hand it straight back instead of orphaning
      // the key. `closed` is set before the reclaim scan runs, and the
      // shard mutex orders the win against that scan, so a win the scan
      // could not see always observes closed here.
      (void)conn.session->reclaim(req.key, result.epoch);
      counters_.disconnect_reclaims.fetch_add(1, std::memory_order_relaxed);
      finish(op, nullptr);
      return;
    }
    if (!result.won && !result.rejected && req.kind != wire::op::try_acquire) {
      std::unique_lock<std::mutex> lock(conn.park_mutex);
      result.timed_out = std::chrono::steady_clock::now() >= op->deadline;
      // Teardown sets `closed` under this lock once it took the parked
      // ops back: nothing may park after it (the answer below is lost).
      if (!result.timed_out && !conn.closed.load(std::memory_order_relaxed)) {
        // The wake only posts the op to its reactor (it may run under
        // repl::node's mutex), into an inbox that outlives the server;
        // the reactor retries it under the dispatch rule.
        conn.parked.fetch_add(1, std::memory_order_acq_rel);
        op->park_id = service_.registry().park(
            req.key, result.epoch, [mail = conn.owner.mail, op] {
              op->conn->parked.fetch_sub(1, std::memory_order_acq_rel);
              mail->post([&] { mail->wakes.push_back(op); });
            });
        if (op->park_id == 0) {  // the epoch moved meanwhile: retry
          conn.parked.fetch_sub(1, std::memory_order_acq_rel);
          continue;
        }
        op->lost_epoch = result.epoch;
        if (req.trace_id != 0) op->parked_ns = obs::now_ns();
        conn.parked_ops.emplace(op->park_id, op);
        lock.unlock();
        maybe_resume(op->conn);  // a parked op holds no read budget
        return;
      }
    }
    const wire::response r = acquire_response(req, result);
    finish(op, &r);
    return;
  }
}

void server::finish(const acquire_ptr& op, const wire::response* r) {
  const std::uint64_t trace = op->req.trace_id;
  if (trace != 0 && op->parked_ns != 0) {  // answered while parked
    obs::record_for(trace, obs::phase::epoch_wait, op->parked_ns,
                    obs::now_ns());
  }
  if (r != nullptr) {
    send_response(op->conn, *r);
    if (trace != 0) record_serve(trace, op->req.kind, op->serve_start_ns);
  }
  complete(op->conn);
}

// ---------------------------------------------------------------------
// Response path: output rings, writev flushes, backpressure, teardown.

bool server::enqueue_frame(const connection_ptr& conn,
                           std::vector<std::uint8_t> bytes, bool is_event,
                           bool& need_post) {
  need_post = false;
  const std::size_t size = bytes.size();
  bool overflow = false;
  {
    const std::lock_guard<std::mutex> lock(conn->out_mutex);
    if (conn->closed.load(std::memory_order_relaxed)) return false;
    if (conn->outbox_bytes + size > config_.max_outbox_bytes) {
      overflow = true;
    } else {
      conn->outbox.push_back(out_frame{std::move(bytes), is_event});
      conn->outbox_bytes += size;
      if (!conn->flush_queued) {
        conn->flush_queued = true;
        need_post = true;
      }
    }
  }
  if (overflow) {
    // A ring at the cap means the consumer stopped draining long ago;
    // cut the connection rather than buffer without bound.
    start_close(conn);
    return false;
  }
  return true;
}

void server::send_response(const connection_ptr& conn,
                           const wire::response& r) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  bool need_post = false;
  if (enqueue_frame(conn, wire::encode_response(r), /*is_event=*/false,
                    need_post) &&
      need_post) {
    post_flush(conn->owner, conn);
  }
}

void server::post_flush(reactor& r, const connection_ptr& conn) {
  if (current_reactor_tls == &r) {
    if (r.batching) {
      r.batch_flushes.push_back(conn);  // flushed once, at the batch's end
    } else {
      flush_connection(r, conn);
    }
    return;
  }
  r.mail->post([&] { r.mail->flushes.push_back(conn); });
}

void server::post_resume(reactor& r, const connection_ptr& conn) {
  if (current_reactor_tls == &r) {
    handle_resume(r, conn);
    return;
  }
  r.mail->post([&] { r.mail->resumes.push_back(conn); });
}

void server::arm_deadline(reactor& r, const acquire_ptr& op) {
  // Entries of ops that finished early linger until their deadline;
  // sweep them whenever the wheel has doubled since the last sweep.
  if (r.timers.size() >= r.timers_sweep_at) {
    std::erase_if(r.timers, [](const auto& entry) {
      return entry.second.fd < 0 && entry.second.op.expired();
    });
    r.timers_sweep_at = std::max<std::size_t>(64, 2 * r.timers.size());
  }
  r.timers.emplace(op->deadline, timer{-1, op});
}

std::pair<std::uint64_t, std::uint64_t> server::pop_written(
    connection& conn, std::size_t wrote) {
  conn.outbox_bytes -= wrote;
  std::uint64_t frames = 0;
  std::uint64_t events = 0;
  while (wrote > 0 && !conn.outbox.empty()) {
    out_frame& front = conn.outbox.front();
    const std::size_t left = front.bytes.size() - conn.out_offset;
    if (wrote >= left) {
      wrote -= left;
      conn.out_offset = 0;
      ++frames;
      if (front.is_event) ++events;
      conn.outbox.pop_front();
    } else {
      conn.out_offset += wrote;
      wrote = 0;
    }
  }
  return {frames, events};
}

void server::flush_connection(reactor& r, const connection_ptr& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  const auto budget = std::chrono::milliseconds(
      std::max<std::uint64_t>(1, config_.event_write_budget_ms));
  std::uint64_t flushed = 0;
  for (;;) {
    iovec iov[64];
    int iov_count = 0;
    {
      const std::lock_guard<std::mutex> lock(conn->out_mutex);
      std::size_t offset = conn->out_offset;
      for (const out_frame& f : conn->outbox) {
        if (iov_count == 64) break;
        iov[iov_count].iov_base =
            const_cast<std::uint8_t*>(f.bytes.data() + offset);
        iov[iov_count].iov_len = f.bytes.size() - offset;
        offset = 0;
        ++iov_count;
      }
      // Drained under the same hold that observed empty: an appender
      // racing in after this will see flush_queued false and post.
      if (iov_count == 0) conn->flush_queued = false;
    }
    if (iov_count == 0) {
      if (conn->want_writable) {
        conn->want_writable = false;
        rearm(r, conn);
      }
      conn->stall_armed = false;
      break;
    }
    const ssize_t wrote = send_iov(conn->fd, iov, iov_count);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->want_writable) {
          conn->want_writable = true;
          rearm(r, conn);
        }
        if (!conn->stall_armed) {
          // Start the no-progress clock; fire_timers kills the
          // connection if a full budget passes without a byte moving.
          conn->stall_armed = true;
          conn->stall_since = std::chrono::steady_clock::now();
          r.timers.emplace(conn->stall_since + budget, timer{conn->fd, {}});
        }
        // flush_queued stays set: EPOLLOUT resumes this drain, and
        // appenders need not post meanwhile.
        if (flushed > 0) r.drain_batches.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      finish_connection(r, conn);
      return;
    }
    r.writev_calls.fetch_add(1, std::memory_order_relaxed);
    counters_.bytes_out.fetch_add(static_cast<std::uint64_t>(wrote),
                                  std::memory_order_relaxed);
    conn->stall_armed = false;  // progress resets the stall budget
    std::uint64_t frames = 0;
    std::uint64_t events = 0;
    {
      const std::lock_guard<std::mutex> lock(conn->out_mutex);
      std::tie(frames, events) =
          pop_written(*conn, static_cast<std::size_t>(wrote));
    }
    if (frames > 0) {
      counters_.frames_out.fetch_add(frames, std::memory_order_relaxed);
      r.frames_flushed.fetch_add(frames, std::memory_order_relaxed);
      flushed += frames;
    }
    if (events > 0) {
      counters_.events_pushed.fetch_add(events, std::memory_order_relaxed);
    }
  }
  if (flushed > 0) r.drain_batches.fetch_add(1, std::memory_order_relaxed);
}

void server::fire_timers(reactor& r) {
  if (r.timers.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  const auto budget = std::chrono::milliseconds(
      std::max<std::uint64_t>(1, config_.event_write_budget_ms));
  while (!r.timers.empty() && r.timers.begin()->first <= now) {
    const timer due = std::move(r.timers.begin()->second);
    r.timers.erase(r.timers.begin());
    if (due.fd < 0) {
      // A try_acquire_for's deadline: answer it timed_out if it is still
      // parked; otherwise the attempt holding it (or about to, once its
      // wake lands) checks the deadline before parking again.
      const acquire_ptr op = due.op.lock();
      if (op == nullptr) continue;
      {
        const std::lock_guard<std::mutex> lock(op->conn->park_mutex);
        if (op->park_id == 0 || !service_.registry().unpark(op->park_id)) {
          continue;
        }
        op->conn->parked_ops.erase(std::exchange(op->park_id, 0));
      }
      op->conn->parked.fetch_sub(1, std::memory_order_acq_rel);
      svc::acquire_result timed_out;
      timed_out.epoch = op->lost_epoch;
      timed_out.timed_out = true;
      const wire::response answer = acquire_response(op->req, timed_out);
      finish(op, &answer);
      continue;
    }
    const auto it = r.connections.find(due.fd);
    if (it == r.connections.end()) continue;  // already finished
    const connection_ptr conn = it->second;
    // An entry is current only if its deadline matches the live arm
    // time; progress disarms, a re-arm inserts a fresh entry. Stale
    // entries are skipped, not rescheduled.
    if (!conn->stall_armed) continue;
    if (conn->stall_since + budget > now) continue;
    // No progress for a full budget: a dead consumer. Its queued
    // frames count as dropped in finish_connection.
    finish_connection(r, conn);
  }
}

int server::next_timer_ms(reactor& r) const {
  if (r.timers.empty()) return -1;
  const auto now = std::chrono::steady_clock::now();
  const auto first = r.timers.begin()->first;
  if (first <= now) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(first - now)
          .count() +
      1;
  return static_cast<int>(std::min<long long>(ms, 60'000));
}

void server::rearm(reactor& r, const connection_ptr& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  std::uint32_t mask = EPOLLRDHUP;
  {
    const std::lock_guard<std::mutex> lock(conn->pause_mutex);
    if (!conn->paused) mask |= EPOLLIN;
  }
  if (conn->want_writable) mask |= EPOLLOUT;
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = conn->fd;
  (void)::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

int server::budgeted(const connection& conn) const {
  return conn.in_flight.load(std::memory_order_acquire) -
         std::min(conn.parked.load(std::memory_order_acquire),
                  config_.max_watches_per_connection);
}

void server::complete(const connection_ptr& conn) {
  conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  maybe_resume(conn);
}

void server::maybe_resume(const connection_ptr& conn) {
  bool resume = false;
  {
    const std::lock_guard<std::mutex> lock(conn->pause_mutex);
    if (conn->paused && !conn->resume_queued &&
        !conn->closed.load(std::memory_order_relaxed) &&
        budgeted(*conn) <= config_.max_inflight_per_connection / 2) {
      conn->resume_queued = true;
      resume = true;
    }
  }
  if (resume) post_resume(conn->owner, conn);
}

void server::maybe_pause(reactor& r, const connection_ptr& conn) {
  bool paused_now = false;
  {
    const std::lock_guard<std::mutex> lock(conn->pause_mutex);
    if (conn->paused || conn->closed.load(std::memory_order_relaxed)) return;
    if (budgeted(*conn) < config_.max_inflight_per_connection) return;
    conn->paused = true;
    paused_now = true;
  }
  if (paused_now) {
    counters_.backpressure_pauses.fetch_add(1, std::memory_order_relaxed);
    rearm(r, conn);
  }
}

void server::handle_resume(reactor& r, const connection_ptr& conn) {
  bool resumed = false;
  {
    const std::lock_guard<std::mutex> lock(conn->pause_mutex);
    conn->resume_queued = false;
    if (!conn->paused || conn->closed.load(std::memory_order_relaxed)) return;
    if (budgeted(*conn) > config_.max_inflight_per_connection / 2) {
      // Filled back up since the post; a later complete() re-posts.
      return;
    }
    conn->paused = false;
    resumed = true;
  }
  if (resumed) rearm(r, conn);
}

void server::start_close(const connection_ptr& conn) {
  if (conn->closed.exchange(true)) return;
  // The local shutdown makes epoll report the fd (EPOLLHUP fires even
  // for a paused connection), so the owning reactor runs
  // finish_connection.
  ::shutdown(conn->fd, SHUT_RDWR);
}

void server::finish_connection(reactor& r, const connection_ptr& conn) {
  if (r.connections.erase(conn->fd) == 0) return;  // already finished
  bool was_closed = false;
  std::vector<std::uint64_t> watches;
  {
    // Take parked acquires back, answered `rejected` on stop (a dead peer
    // needs none), and the watches; `closed` is set under the same lock,
    // so nothing parks or watches after.
    const std::lock_guard<std::mutex> lock(conn->park_mutex);
    for (const auto& [id, op] : conn->parked_ops) {
      // Failed: its wake posted it back, and the retry finds `closed`.
      if (!service_.registry().unpark(id)) continue;
      op->park_id = 0;
      conn->parked.fetch_sub(1, std::memory_order_acq_rel);
      svc::acquire_result rejected;
      rejected.rejected = true;
      const wire::response answer = acquire_response(op->req, rejected);
      finish(op, stopping_.load(std::memory_order_relaxed) ? &answer : nullptr);
    }
    conn->parked_ops.clear();
    watches.swap(conn->watch_ids);
    was_closed = conn->closed.exchange(true);
  }
  if (!was_closed) {
    // Final opportunistic flush: a one-shot refusal (bad hello, oversize
    // frame) must still reach the peer, and responses a clean
    // disconnect raced past deserve a best effort. writev while bytes
    // move; EAGAIN or error abandons the rest.
    const std::lock_guard<std::mutex> lock(conn->out_mutex);
    while (!conn->outbox.empty()) {
      iovec iov[64];
      int iov_count = 0;
      std::size_t offset = conn->out_offset;
      for (const out_frame& f : conn->outbox) {
        if (iov_count == 64) break;
        iov[iov_count].iov_base =
            const_cast<std::uint8_t*>(f.bytes.data() + offset);
        iov[iov_count].iov_len = f.bytes.size() - offset;
        offset = 0;
        ++iov_count;
      }
      const ssize_t wrote = send_iov(conn->fd, iov, iov_count);
      if (wrote <= 0) {
        if (wrote < 0 && errno == EINTR) continue;
        break;
      }
      r.writev_calls.fetch_add(1, std::memory_order_relaxed);
      counters_.bytes_out.fetch_add(static_cast<std::uint64_t>(wrote),
                                    std::memory_order_relaxed);
      const auto popped = pop_written(*conn, static_cast<std::size_t>(wrote));
      if (popped.first > 0) {
        counters_.frames_out.fetch_add(popped.first,
                                       std::memory_order_relaxed);
        r.frames_flushed.fetch_add(popped.first, std::memory_order_relaxed);
      }
      if (popped.second > 0) {
        counters_.events_pushed.fetch_add(popped.second,
                                          std::memory_order_relaxed);
      }
    }
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  (void)::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  conn->stall_armed = false;
  {
    // Whatever could not be flushed is gone; count the lost events.
    const std::lock_guard<std::mutex> lock(conn->out_mutex);
    std::uint64_t dropped = 0;
    for (const out_frame& f : conn->outbox) {
      if (f.is_event) ++dropped;
    }
    conn->outbox.clear();
    conn->outbox_bytes = 0;
    conn->out_offset = 0;
    if (dropped > 0) {
      counters_.events_dropped.fetch_add(dropped, std::memory_order_relaxed);
    }
  }
  // Outside every lock: a removal waits out an in-flight delivery.
  for (const std::uint64_t id : watches) service_.unwatch(id);
  if (conn->session.has_value()) {
    // The disconnect-on-close hook: whatever the remote client held is
    // reclaimed NOW — its rivals re-elect immediately instead of
    // waiting out the lease TTL. Like a disconnect op it waits on no
    // commit gate, so it runs right here. Each reclaimed key's
    // disconnect_reclaimed command carries its real epoch, so the
    // journal names every key with no pre-scan of held keys. A win that
    // lands after the scan is handed back by serve_acquire.
    counters_.disconnect_reclaims.fetch_add(conn->session->reclaim_all(),
                                            std::memory_order_relaxed);
  }
  r.active.fetch_sub(1, std::memory_order_relaxed);
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// The HTTP side-channel (reactor 0 only). Deliberately minimal:
// GET-only, one request per connection, answer and close. A scrape is
// small and rare; anything fancier (keep-alive, chunking, pipelining)
// buys nothing here and costs reactor-0 attention.

void server::http_accept_ready(reactor& r) {
  for (;;) {
    const int fd = ::accept4(http_listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load(std::memory_order_relaxed) ||
        http_conns_.size() >= 64) {
      ::close(fd);
      continue;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    http_conns_.emplace(fd, std::string());
  }
}

void server::http_read_ready(reactor& r, int fd) {
  const auto it = http_conns_.find(fd);
  if (it == http_conns_.end()) return;
  std::string& buffered = it->second;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
    if (got > 0) {
      buffered.append(buf, static_cast<std::size_t>(got));
      if (buffered.size() > 8192) {  // no sane GET is this big
        http_close(r, fd);
        return;
      }
      continue;
    }
    if (got == 0) {
      http_close(r, fd);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    http_close(r, fd);
    return;
  }
  // Headers complete? (We ignore them — the request line is the API.)
  if (buffered.find("\r\n\r\n") == std::string::npos &&
      buffered.find("\n\n") == std::string::npos) {
    return;  // wait for the rest
  }
  http_respond(fd, buffered);
  http_close(r, fd);
}

void server::http_respond(int fd, const std::string& buffered) {
  // Parse "METHOD SP path ..." off the request line.
  const std::size_t line_end = buffered.find_first_of("\r\n");
  const std::string line = buffered.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  std::string method =
      sp1 == std::string::npos ? std::string() : line.substr(0, sp1);
  std::string path = sp2 == std::string::npos
                         ? std::string()
                         : line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  const char* status = "200 OK";
  const char* content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
  if (method != "GET") {
    status = "405 Method Not Allowed";
    content_type = "text/plain; charset=utf-8";
    body = "method not allowed\n";
  } else if (path == "/metrics") {
    body = obs::render_prometheus(service_.report());
    render_net_prometheus(body, report());
    if (config_.cluster.prom_text) body += config_.cluster.prom_text();
  } else if (path == "/report") {
    content_type = "application/json";
    body = report_json();
  } else if (path == "/healthz") {
    content_type = "text/plain; charset=utf-8";
    body = "ok\n";
  } else {
    status = "404 Not Found";
    content_type = "text/plain; charset=utf-8";
    body = "not found\n";
  }

  std::string response = "HTTP/1.0 ";
  response += status;
  response += "\r\nContent-Type: ";
  response += content_type;
  response += "\r\nContent-Length: ";
  response += std::to_string(body.size());
  response += "\r\nConnection: close\r\n\r\n";
  response += body;
  // Bounded write on the reactor thread: a scrape response is a few
  // KiB, but a wedged scraper must not park the reactor indefinitely.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  (void)write_all(fd, reinterpret_cast<const std::uint8_t*>(response.data()),
                  response.size(), stopping_, &deadline);
}

void server::http_close(reactor& r, int fd) {
  (void)::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  http_conns_.erase(fd);
}

// ---------------------------------------------------------------------
// Reporting.

net_report server::report() const {
  net_report r;
  r.connections_accepted =
      counters_.connections_accepted.load(std::memory_order_relaxed);
  r.connections_active =
      connections_active_.load(std::memory_order_relaxed);
  r.connections_refused =
      counters_.connections_refused.load(std::memory_order_relaxed);
  r.frames_in = counters_.frames_in.load(std::memory_order_relaxed);
  r.frames_out = counters_.frames_out.load(std::memory_order_relaxed);
  r.bytes_in = counters_.bytes_in.load(std::memory_order_relaxed);
  r.bytes_out = counters_.bytes_out.load(std::memory_order_relaxed);
  r.requests = counters_.requests.load(std::memory_order_relaxed);
  r.dispatch_batches =
      counters_.dispatch_batches.load(std::memory_order_relaxed);
  r.backpressure_pauses =
      counters_.backpressure_pauses.load(std::memory_order_relaxed);
  r.busy_rejections =
      counters_.busy_rejections.load(std::memory_order_relaxed);
  r.protocol_errors =
      counters_.protocol_errors.load(std::memory_order_relaxed);
  r.disconnect_reclaims =
      counters_.disconnect_reclaims.load(std::memory_order_relaxed);
  r.watch_subscriptions =
      counters_.watch_subscriptions.load(std::memory_order_relaxed);
  r.events_pushed = counters_.events_pushed.load(std::memory_order_relaxed);
  r.events_dropped =
      counters_.events_dropped.load(std::memory_order_relaxed);
  r.reactors = reactors_.size();
  r.reuseport = reuseport_active_;
  r.per_reactor.reserve(reactors_.size());
  for (const auto& re : reactors_) {
    net_report::reactor_stat s;
    s.index = re->index;
    s.connections = re->active.load(std::memory_order_relaxed);
    s.accepted = re->accepted.load(std::memory_order_relaxed);
    s.wakeups = re->wakeups.load(std::memory_order_relaxed);
    s.writev_calls = re->writev_calls.load(std::memory_order_relaxed);
    s.frames_flushed = re->frames_flushed.load(std::memory_order_relaxed);
    s.drain_batches = re->drain_batches.load(std::memory_order_relaxed);
    s.requests = re->requests.load(std::memory_order_relaxed);
    r.writev_calls += s.writev_calls;
    r.frames_flushed += s.frames_flushed;
    r.reactor_wakeups += s.wakeups;
    r.per_reactor.push_back(s);
  }
  return r;
}

std::string server::report_json() const {
  svc::service_report combined = service_.report();
  combined.net_json = report().to_json();
  if (config_.cluster.status_json) {
    combined.repl_json = config_.cluster.status_json();
  }
  return combined.to_json();
}

}  // namespace elect::net
