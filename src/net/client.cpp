#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace elect::net {

namespace {

bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t wrote = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (wrote > 0) {
      sent += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    return false;  // blocking socket: anything else is a dead peer
  }
  return true;
}

std::chrono::steady_clock::time_point deadline_from_remaining(
    std::uint64_t remaining_ms) {
  if (remaining_ms == wire::lease_forever) {
    return std::chrono::steady_clock::time_point::max();
  }
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(remaining_ms);
}

}  // namespace

namespace {

/// Connect + synchronous hello handshake for one stripe. Returns the
/// connected fd (session id through `session_id`), or -1.
int connect_channel(const std::string& host, std::uint16_t port,
                    std::uint64_t hello_id, std::uint64_t* session_id) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  // Handshake synchronously, before any reader thread exists: one hello
  // frame out, one response frame back on the still-quiet socket.
  wire::request hello = wire::make_hello_request();
  hello.id = hello_id;
  const auto frame = wire::encode_request(hello);
  if (!write_all(fd, frame.data(), frame.size())) {
    ::close(fd);
    return -1;
  }
  wire::frame_reader reader;
  std::optional<wire::response> answer;
  std::uint8_t buffer[4096];
  while (!answer.has_value()) {
    const ssize_t got = ::recv(fd, buffer, sizeof buffer, 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      break;
    }
    if (!reader.feed(buffer, static_cast<std::size_t>(got))) break;
    if (auto body = reader.next()) answer = wire::decode_response(*body);
  }
  if (!answer.has_value() || answer->kind != wire::op::hello ||
      answer->result != wire::status::ok) {
    ::close(fd);
    return -1;
  }
  *session_id = answer->epoch;
  return fd;
}

}  // namespace

std::string_view to_string(close_reason r) {
  switch (r) {
    case close_reason::none: return "none";
    case close_reason::local_close: return "local_close";
    case close_reason::severed: return "severed";
  }
  return "unknown";
}

client::client(const std::string& host, std::uint16_t port)
    : client(host, port, 1) {}

client::client(const std::string& host, std::uint16_t port, int stripes) {
  (void)open_channels(host, port, stripes);
}

namespace {

/// "host:port" with a digit-only port in [1, 65535]; nullopt otherwise.
std::optional<std::pair<std::string, std::uint16_t>> parse_host_port(
    const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= text.size()) {
    return std::nullopt;
  }
  std::uint32_t port = 0;
  for (std::size_t i = colon + 1; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return std::nullopt;
    port = port * 10 + static_cast<std::uint32_t>(text[i] - '0');
    if (port > 65535) return std::nullopt;
  }
  if (port == 0) return std::nullopt;
  return std::make_pair(text.substr(0, colon),
                        static_cast<std::uint16_t>(port));
}

}  // namespace

client::client(const std::string& endpoints) {
  std::size_t begin = 0;
  while (begin <= endpoints.size()) {
    std::size_t end = endpoints.find(',', begin);
    if (end == std::string::npos) end = endpoints.size();
    if (end > begin) {
      if (auto parsed = parse_host_port(endpoints.substr(begin, end - begin));
          parsed.has_value()) {
        endpoints_.push_back(std::move(*parsed));
      }
    }
    begin = end + 1;
  }
  if (endpoints_.empty()) {
    reason_.store(close_reason::severed, std::memory_order_release);
    return;
  }
  if (endpoints_.size() == 1) {
    // A single endpoint keeps the exact fixed-target behavior: no
    // redirect-following, same failure mapping as (host, port).
    const auto target = endpoints_[0];
    endpoints_.clear();
    (void)open_channels(target.first, target.second, 1);
    return;
  }
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (open_channels(endpoints_[i].first, endpoints_[i].second, 1)) {
      endpoint_index_ = i;
      return;
    }
    // open_channels left `severed` behind; clear it so the next
    // candidate starts from a clean slate.
    reason_.store(close_reason::none, std::memory_order_release);
  }
  reason_.store(close_reason::severed, std::memory_order_release);
}

bool client::open_channels(const std::string& host, std::uint16_t port,
                           int stripes) {
  const int n = std::clamp(stripes, 1, 64);
  channels_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto ch = std::make_unique<channel>();
    ch->fd = connect_channel(host, port, next_id_.fetch_add(1),
                             &ch->session_id);
    if (ch->fd < 0) {
      // One stripe failing fails the client: close the ones that made
      // it (no reader threads exist yet, so plain close is safe). A
      // failed connect is a sever — the user never got a connection to
      // close.
      for (auto& done : channels_) {
        ::close(done->fd);
        done->fd = -1;
      }
      channels_.clear();
      reason_.store(close_reason::severed, std::memory_order_release);
      return false;
    }
    channels_.push_back(std::move(ch));
  }
  open_.store(true, std::memory_order_release);
  for (auto& ch : channels_) {
    channel* chp = ch.get();
    ch->reader = std::thread([this, chp] { reader_main(*chp); });
  }
  return true;
}

bool client::reopen_locked(const std::string& host, std::uint16_t port) {
  // Tear down like close(), but resurrectably: sockets and readers go,
  // the channel structs (and every outstanding route() reference) stay.
  for (auto& ch : channels_) {
    if (ch->fd >= 0) ::shutdown(ch->fd, SHUT_RDWR);
  }
  fail();
  for (auto& ch : channels_) {
    if (ch->reader.joinable()) ch->reader.join();
  }
  for (auto& ch : channels_) {
    const std::lock_guard<std::mutex> lock(ch->write_mutex);
    if (ch->fd >= 0) ::close(ch->fd);
    ch->fd = -1;
  }
  {
    const std::lock_guard<std::mutex> lock(pending_mutex_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      it = it->second.done ? std::next(it) : pending_.erase(it);
    }
  }
  pending_cv_.notify_all();

  // Reconnect every channel to the new target. The old readers are
  // joined, so assigning fresh fds and threads into the same structs
  // races nothing.
  for (auto& ch : channels_) {
    ch->fd = connect_channel(host, port, next_id_.fetch_add(1),
                             &ch->session_id);
    if (ch->fd < 0) {
      for (auto& done : channels_) {
        if (done->fd >= 0) ::close(done->fd);
        done->fd = -1;
      }
      return false;
    }
  }
  reason_.store(close_reason::none, std::memory_order_release);
  open_.store(true, std::memory_order_release);
  for (auto& ch : channels_) {
    channel* chp = ch.get();
    ch->reader = std::thread([this, chp] { reader_main(*chp); });
  }
  generation_.fetch_add(1, std::memory_order_release);
  return true;
}

bool client::failover(std::uint64_t seen_generation, const std::string& hint) {
  if (endpoints_.empty()) return false;
  bool reconnected = false;
  {
    const std::lock_guard<std::mutex> close_lock(close_mutex_);
    if (close_done_) return false;
    if (generation_.load(std::memory_order_acquire) != seen_generation) {
      // Someone already failed over since the caller's redirect; just
      // retry against whatever they connected to.
      return open_.load(std::memory_order_acquire);
    }
    // Hint first (the deposed member usually knows its successor), then
    // the rest of the ring starting after the current member.
    if (const auto hinted = parse_host_port(hint); hinted.has_value()) {
      if (reopen_locked(hinted->first, hinted->second)) {
        for (std::size_t i = 0; i < endpoints_.size(); ++i) {
          if (endpoints_[i] == *hinted) endpoint_index_ = i;
        }
        reconnected = true;
      }
    }
    for (std::size_t step = 1;
         !reconnected && step <= endpoints_.size(); ++step) {
      const std::size_t i = (endpoint_index_ + step) % endpoints_.size();
      if (reopen_locked(endpoints_[i].first, endpoints_[i].second)) {
        endpoint_index_ = i;
        reconnected = true;
      }
    }
  }
  if (reconnected) resubscribe_watches();
  return reconnected;
}

void client::resubscribe_watches() {
  std::vector<std::string> keys;
  {
    const std::lock_guard<std::mutex> lock(watch_mutex_);
    for (auto& [key, ks] : key_subs_) {
      // A subscribe in flight is retried on the new connection by the
      // watch() that issued it.
      if (ks.subscribing) continue;
      ks.server_id = 0;
      ks.subscribing = true;
      keys.push_back(key);
    }
  }
  for (const std::string& key : keys) {
    const auto r = call(wire::op::watch, key, 0, 0);
    const std::lock_guard<std::mutex> lock(watch_mutex_);
    const auto it = key_subs_.find(key);
    if (it == key_subs_.end()) continue;  // last watcher left meanwhile
    it->second.subscribing = false;
    if (r.has_value() && r->result == wire::status::ok) {
      it->second.server_id = r->epoch;
    }
  }
}

std::optional<wire::response> client::call_routed(wire::op kind,
                                                  const std::string& key,
                                                  std::uint64_t epoch,
                                                  std::uint64_t timeout_ms) {
  if (endpoints_.empty()) return call(kind, key, epoch, timeout_ms);
  // Budget: enough rounds to ride out one full election (randomized
  // timeout + votes) with every member probed a few times.
  const int max_attempts = static_cast<int>(endpoints_.size()) * 4 + 4;
  auto backoff = std::chrono::milliseconds(25);
  for (int attempt = 0;; ++attempt) {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    auto r = call(kind, key, epoch, timeout_ms);
    const bool redirected =
        r.has_value() && r->result == wire::status::not_primary;
    const bool severed =
        !r.has_value() && reason() == close_reason::severed;
    if ((!redirected && !severed) || attempt >= max_attempts) return r;
    std::this_thread::sleep_for(backoff);
    if (backoff < std::chrono::milliseconds(400)) backoff *= 2;
    // Even a failed failover round is worth looping past: the next
    // attempt may find a member back up mid-election.
    (void)failover(gen, redirected ? r->body : std::string());
  }
}

client::~client() { close(); }

std::uint64_t client::session_id() const noexcept {
  return channels_.empty() ? 0 : channels_[0]->session_id;
}

client::channel& client::route(const std::string& key) {
  if (channels_.size() == 1 || key.empty()) return *channels_[0];
  return *channels_[std::hash<std::string>{}(key) % channels_.size()];
}

void client::close() {
  // One-shot and self-serializing: concurrent close() calls (or close
  // racing the destructor) park here instead of double-closing fds.
  const std::lock_guard<std::mutex> close_lock(close_mutex_);
  if (close_done_) return;
  close_done_ = true;
  // Claim the cause before any socket is touched: once the shutdown
  // lands, the reader threads break out and call fail(), whose CAS must
  // find local_close already set. A client that was severed earlier
  // keeps `severed` — the first cause wins.
  close_reason expected = close_reason::none;
  (void)reason_.compare_exchange_strong(expected, close_reason::local_close,
                                        std::memory_order_acq_rel);
  // shutdown() unblocks each reader (recv returns 0); the fds are
  // closed only after the readers joined so they cannot be recycled
  // under a racing recv.
  for (auto& ch : channels_) {
    if (ch->fd >= 0) ::shutdown(ch->fd, SHUT_RDWR);
  }
  fail();
  for (auto& ch : channels_) {
    if (ch->reader.joinable()) ch->reader.join();
  }
  hub_.stop();
  for (auto& ch : channels_) {
    // Under the write lock: a submit racing this close either writes
    // before us (onto a shut-down socket — a clean failure) or observes
    // fd < 0 and fails without touching a recycled descriptor.
    const std::lock_guard<std::mutex> lock(ch->write_mutex);
    if (ch->fd >= 0) ::close(ch->fd);
    ch->fd = -1;
  }
  // Drop routing slots nobody answered and nobody will: waiters were
  // woken by fail() and report connection loss; un-taken slots must not
  // outlive the close that orphaned them.
  {
    const std::lock_guard<std::mutex> lock(pending_mutex_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      it = it->second.done ? std::next(it) : pending_.erase(it);
    }
  }
  pending_cv_.notify_all();
}

void client::fail() {
  // Anything reaching fail() without close() having claimed the reason
  // first is a sever: peer EOF, protocol poison, a failed send.
  close_reason expected = close_reason::none;
  (void)reason_.compare_exchange_strong(expected, close_reason::severed,
                                        std::memory_order_acq_rel);
  open_.store(false, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(pending_mutex_);
    // Slots stay in the map, not-done: take() wakes, sees the
    // connection closed, and reports the loss.
  }
  pending_cv_.notify_all();
}

void client::reader_main(channel& ch) {
  wire::frame_reader reader;
  std::uint8_t buffer[64 * 1024];
  for (;;) {
    const ssize_t got = ::recv(ch.fd, buffer, sizeof buffer, 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      break;  // EOF / error / local close()
    }
    if (!reader.feed(buffer, static_cast<std::size_t>(got))) break;
    while (auto body = reader.next()) {
      auto response = wire::decode_response(*body);
      if (!response.has_value()) {
        fail();
        return;
      }
      if (response->kind == wire::op::event) {
        // Unsolicited push frame: not a reply. Publish it to the hub,
        // whose notifier runs the callbacks — never this thread, which
        // must stay free to route the replies a callback may wait on.
        // A malformed push is dropped, not fatal; a key nobody watches
        // any more costs the hub one probe.
        if (const auto e = wire::parse_event(*response); e.has_value()) {
          hub_.publish(e->key, e->epoch, e->kind, e->session);
        }
        continue;
      }
      const std::uint64_t id = response->id;
      {
        const std::lock_guard<std::mutex> lock(pending_mutex_);
        const auto it = pending_.find(id);
        // Unknown ids are tolerated: a response can race a waiter that
        // gave up (connection-loss path) and already erased its slot.
        if (it != pending_.end()) {
          it->second.response = std::move(*response);
          it->second.done = true;
        }
      }
      pending_cv_.notify_all();
    }
  }
  fail();
}

std::uint64_t client::submit(wire::op kind, const std::string& key,
                             std::uint64_t epoch, std::uint64_t timeout_ms) {
  if (channels_.empty()) return 0;
  return submit_impl(route(key), kind, key, epoch, timeout_ms,
                     /*expect_reply=*/true);
}

std::uint64_t client::submit_impl(channel& ch, wire::op kind,
                                  const std::string& key, std::uint64_t epoch,
                                  std::uint64_t timeout_ms,
                                  bool expect_reply) {
  if (!open_.load(std::memory_order_acquire)) return 0;
  // An oversized key would be rejected server-side by killing the whole
  // connection (protocol violation); refuse it here instead, as one
  // failed call.
  if (key.size() > wire::max_key_bytes) return 0;
  wire::request r;
  r.id = next_id_.fetch_add(1);
  r.kind = kind;
  r.key = key;
  r.epoch = epoch;
  r.timeout_ms = timeout_ms;
  // Carry the caller's trace across the wire (v3): the server serves
  // the request under the same id, so its spans join this trace.
  r.trace_id = obs::current();
  // Register the slot before the frame can possibly be answered.
  if (expect_reply) {
    const std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_.emplace(r.id, slot{});
  }
  const auto frame = wire::encode_request(r);
  const std::lock_guard<std::mutex> lock(ch.write_mutex);
  if (ch.fd < 0 || !write_all(ch.fd, frame.data(), frame.size())) {
    fail();
    // Leave the slot: take() reports the loss uniformly.
  }
  return r.id;
}

std::optional<wire::response> client::take(std::uint64_t id) {
  if (id == 0) return std::nullopt;
  std::unique_lock<std::mutex> lock(pending_mutex_);
  pending_cv_.wait(lock, [&] {
    const auto it = pending_.find(id);
    // A vanished slot means close() swept it: report the loss. (Waking
    // on !open_ alone would miss a slot erased after the wake.)
    if (it == pending_.end()) return true;
    return it->second.done || !open_.load(std::memory_order_acquire);
  });
  const auto it = pending_.find(id);
  if (it == pending_.end() || !it->second.done) {
    if (it != pending_.end()) pending_.erase(it);
    return std::nullopt;  // connection died first
  }
  wire::response r = std::move(it->second.response);
  pending_.erase(it);
  return r;
}

std::optional<wire::response> client::call(wire::op kind,
                                           const std::string& key,
                                           std::uint64_t epoch,
                                           std::uint64_t timeout_ms) {
  const obs::scoped_span span(obs::phase::wire_rtt);
  return take(submit(kind, key, epoch, timeout_ms));
}

// ---------------------------------------------------------------------
// Session API mirror.

svc::acquire_result client::to_acquire_result(
    const std::optional<wire::response>& r) const {
  svc::acquire_result result;
  if (!r.has_value()) {
    result.rejected = true;  // transport loss: the service is gone to us
    // A sever (vs our own close()) is flagged so the caller knows the
    // server may still count it as holder until TTL/reclaim fences it.
    result.connection_lost = reason() == close_reason::severed;
    return result;
  }
  result.epoch = r->epoch;
  result.won = r->won();
  result.fast_path = r->fast_path();
  result.rejected = r->result == wire::status::rejected;
  result.timed_out = r->result == wire::status::timed_out;
  if (result.won) {
    result.lease_deadline = deadline_from_remaining(r->lease_remaining_ms);
  }
  return result;
}

svc::acquire_result client::acquire_call(wire::op kind,
                                         const std::string& key,
                                         std::uint64_t timeout_ms) {
  const auto start = std::chrono::steady_clock::now();
  auto result = to_acquire_result(call_routed(kind, key, 0, timeout_ms));
  result.latency_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return result;
}

svc::acquire_result client::try_acquire(const std::string& key) {
  return acquire_call(wire::op::try_acquire, key, 0);
}

svc::acquire_result client::acquire(const std::string& key) {
  return acquire_call(wire::op::acquire, key, 0);
}

svc::acquire_result client::try_acquire_for(const std::string& key,
                                            std::chrono::milliseconds timeout) {
  // The server parks the request and keeps the deadline (saturating, like
  // a local timeout), so the wire carries just the timeout.
  return acquire_call(
      wire::op::try_acquire_for, key,
      static_cast<std::uint64_t>(
          std::max(timeout, std::chrono::milliseconds::zero()).count()));
}

namespace {

/// The lease-status verdict for a call that got no response: our own
/// close() keeps the original crash-semantics mapping (stale_epoch —
/// the server reclaims on disconnect, PR 4); a sever is reported as
/// connection_lost so the caller can tell a fenced epoch from a dead
/// wire.
svc::lease_status lost_status(close_reason r) {
  return r == close_reason::local_close ? svc::lease_status::stale_epoch
                                        : svc::lease_status::connection_lost;
}

}  // namespace

svc::lease_status client::release(const std::string& key) {
  const auto r = call_routed(wire::op::release, key, 0, 0);
  if (!r.has_value()) return lost_status(reason());
  return wire::to_lease_status(r->result);
}

svc::lease_status client::release(const std::string& key,
                                  std::uint64_t epoch) {
  const auto r = call_routed(wire::op::release_fenced, key, epoch, 0);
  if (!r.has_value()) return lost_status(reason());
  return wire::to_lease_status(r->result);
}

svc::lease_status client::renew(const std::string& key, std::uint64_t epoch) {
  return renew(key, epoch, nullptr);
}

svc::lease_status client::renew(
    const std::string& key, std::uint64_t epoch,
    std::chrono::steady_clock::time_point* refreshed_deadline) {
  const auto r = call_routed(wire::op::renew, key, epoch, 0);
  if (!r.has_value()) return lost_status(reason());
  if (r->result == wire::status::ok && refreshed_deadline != nullptr) {
    *refreshed_deadline = deadline_from_remaining(r->lease_remaining_ms);
  }
  return wire::to_lease_status(r->result);
}

std::uint64_t client::watch(const std::string& key,
                            std::function<void(const svc::watch_event&)> fn) {
  if (!open_.load(std::memory_order_acquire)) return 0;
  // Register locally *before* the wire op: the server starts pushing the
  // moment it subscribes, and an event overtaking the ack must find the
  // callback. One key = one server-side subscription however many local
  // callbacks watch it; later watch() calls piggyback on the in-flight
  // (or established) subscription instead of issuing a second wire op —
  // which would otherwise double every delivery.
  std::uint64_t id = 0;
  bool need_subscribe = false;
  {
    const std::lock_guard<std::mutex> lock(watch_mutex_);
    id = hub_.add(key, std::move(fn));
    if (id == 0) return 0;  // closed
    key_subscription& ks = key_subs_[key];
    ks.refs++;
    if (ks.server_id == 0 && !ks.subscribing) {
      ks.subscribing = true;
      need_subscribe = true;
    }
  }
  if (!need_subscribe) return id;

  // Routed: a follower answers not_primary, and a multi-endpoint client
  // follows it to the primary, where watches are served.
  const auto r = call_routed(wire::op::watch, key, 0, 0);
  const bool subscribed = r.has_value() && r->result == wire::status::ok;
  std::uint64_t orphan_server_id = 0;
  {
    const std::lock_guard<std::mutex> lock(watch_mutex_);
    const auto ks = key_subs_.find(key);
    if (ks != key_subs_.end()) {
      ks->second.subscribing = false;
      if (!subscribed) {
        // Piggybacked refs (concurrent watch() calls that trusted this
        // subscribe) are stranded without a server subscription; a
        // refused/failed subscribe means the transport or service is
        // going away, so they fail with the connection.
        if (--ks->second.refs == 0) key_subs_.erase(ks);
      } else if (ks->second.refs == 0) {
        // Everyone unwatched while the subscribe was in flight; we are
        // the last owner of the server-side handle.
        orphan_server_id = r->epoch;
        key_subs_.erase(ks);
      } else {
        ks->second.server_id = r->epoch;
      }
    }
  }
  if (!subscribed) {
    (void)hub_.remove(id);
    return 0;
  }
  if (orphan_server_id != 0) {
    // The unwatch must ride the stripe that owns the subscription: the
    // server only honors an unwatch from the connection that watched.
    (void)submit_impl(route(key), wire::op::unwatch, "", orphan_server_id, 0,
                      /*expect_reply=*/false);
  }
  return id;
}

void client::unwatch(std::uint64_t id) {
  // The hub gives the after-return guarantee (and skips the watch for
  // the rest of an event when a callback cancels it).
  const auto key = hub_.remove(id);
  if (!key.has_value()) return;
  std::uint64_t server_id = 0;
  {
    const std::lock_guard<std::mutex> lock(watch_mutex_);
    const auto ks = key_subs_.find(*key);
    // The server-side subscription dies with its last local ref. If a
    // subscribe is still in flight, watch() observes refs == 0 at ack
    // time and cancels it there instead.
    if (ks != key_subs_.end() && --ks->second.refs == 0 &&
        !ks->second.subscribing) {
      server_id = ks->second.server_id;
      key_subs_.erase(ks);
    }
  }
  // Fire-and-forget (expect_reply=false): semantically the unwatch
  // needs no answer, and it keeps the op issuable from inside a watch
  // callback without waiting on any reply. Routed by the watch's key so
  // it lands on the stripe whose connection owns the subscription.
  if (server_id != 0) {
    (void)submit_impl(route(*key), wire::op::unwatch, "", server_id, 0,
                      /*expect_reply=*/false);
  }
}

std::size_t client::disconnect() {
  // Every stripe is its own server session holding its own keys:
  // disconnect them all, pipelined (submit all, then take all).
  std::vector<std::uint64_t> ids;
  ids.reserve(channels_.size());
  for (auto& ch : channels_) {
    ids.push_back(submit_impl(*ch, wire::op::disconnect, "", 0, 0,
                              /*expect_reply=*/true));
  }
  std::size_t released = 0;
  for (const std::uint64_t id : ids) {
    const auto r = take(id);
    if (r.has_value() && r->result == wire::status::ok) {
      released += static_cast<std::size_t>(r->epoch);
    }
  }
  return released;
}

std::string client::metrics_json() {
  const auto r = call(wire::op::metrics, "", 0, 0);
  if (!r.has_value() || r->result != wire::status::ok) return "";
  return r->body;
}

std::optional<wire::response> client::admin(wire::op kind,
                                            const std::string& key,
                                            std::uint64_t epoch) {
  if (kind != wire::op::admin_list && kind != wire::op::admin_inspect &&
      kind != wire::op::admin_force_release &&
      kind != wire::op::admin_snapshot &&
      kind != wire::op::admin_commands &&
      kind != wire::op::admin_cluster_status) {
    return std::nullopt;
  }
  return call(kind, key, epoch, 0);
}

}  // namespace elect::net
