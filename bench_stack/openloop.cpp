// The open-loop engine: a paced sender and a timestamping receiver on
// raw net::wire connections. See engines.hpp.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <optional>
#include <thread>

#include "engines.hpp"
#include "net/wire.hpp"

namespace bstack {

namespace wire = elect::net::wire;

namespace {

bool send_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Blocking read of one response frame (set-up only, before load).
std::optional<wire::response> read_response(int fd, wire::frame_reader& in) {
  for (;;) {
    if (auto frame = in.next()) return wire::decode_response(*frame);
    std::uint8_t buf[4096];
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return std::nullopt;
    if (!in.feed(buf, static_cast<std::size_t>(r))) return std::nullopt;
  }
}

chaos::outcome acquire_outcome(wire::status s) {
  switch (s) {
    case wire::status::ok: return chaos::outcome::ok;
    case wire::status::lost: return chaos::outcome::lost;
    case wire::status::timed_out: return chaos::outcome::timed_out;
    case wire::status::connection_lost: return chaos::outcome::connection_lost;
    default: return chaos::outcome::rejected;
  }
}

chaos::outcome lease_outcome(wire::status s) {
  switch (s) {
    case wire::status::ok: return chaos::outcome::ok;
    case wire::status::stale_epoch: return chaos::outcome::stale_epoch;
    case wire::status::not_leader: return chaos::outcome::not_leader;
    case wire::status::connection_lost: return chaos::outcome::connection_lost;
    default: return chaos::outcome::rejected;
  }
}

constexpr std::uint8_t no_status = 0xff;

/// One scheduled op's timeline, written by the sender (sent) and the
/// receiver (the rest); read after both are done.
struct slot {
  std::int64_t intended = 0;
  std::int64_t sent = -1;
  std::int64_t recv = -1;
  std::uint64_t epoch = 0;
  std::uint8_t status = no_status;
};

struct event_due {
  std::int64_t at = 0;
  std::uint32_t plan = 0;
  std::uint8_t step = 0;  // 0 try_acquire, 1-2 renew, 3 release
};

}  // namespace

int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  wire::request hello = wire::make_hello_request();
  hello.id = 1;
  const auto frame = wire::encode_request(hello);
  wire::frame_reader in;
  std::optional<wire::response> r;
  if (send_all(fd, frame.data(), frame.size())) r = read_response(fd, in);
  if (!r || r->result != wire::status::ok) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool watch_raw(int fd, const std::vector<std::string>& keys) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    wire::request r;
    r.id = 2 + i;
    r.kind = wire::op::watch;
    r.key = keys[i];
    const auto frame = wire::encode_request(r);
    out.insert(out.end(), frame.begin(), frame.end());
  }
  if (!send_all(fd, out.data(), out.size())) return false;
  wire::frame_reader in;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto r = read_response(fd, in);
    if (!r || r->result != wire::status::ok) return false;
  }
  return true;
}

plan_input make_plans(const zipf& z, std::uint64_t seed, std::size_t count,
                      input_hash& h) {
  plan_input in;
  in.keys.reserve(count);
  in.unit_at.reserve(count);
  uniform u(seed);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += u.exp1();
    const std::uint32_t key = z.key_of_rank(z.rank(u()));
    in.keys.push_back(key);
    in.unit_at.push_back(t);
    h.add(static_cast<std::uint64_t>(key));
    h.add(t);
  }
  return in;
}

openloop::openloop(std::vector<int> fds, int watch_fd, char prefix,
                   std::vector<bool> watched)
    : fds_(std::move(fds)),
      watch_fd_(watch_fd),
      prefix_(prefix),
      watched_(std::move(watched)),
      readers_(fds_.size() + 1) {}

openloop::~openloop() {
  for (int fd : fds_) ::close(fd);
  if (watch_fd_ >= 0) ::close(watch_fd_);
}

openloop_outcome openloop::run(const plan_input& in,
                               const openloop_params& p) {
  openloop_outcome out;
  const double scale = 1e9 / p.rate;
  std::size_t plans = 0;
  while (plans < in.unit_at.size() &&
         in.unit_at[plans] * scale < static_cast<double>(p.duration_ns)) {
    ++plans;
  }

  std::vector<event_due> due;
  due.reserve(plans * 4);
  std::vector<slot> slots(plans * 4);
  for (std::size_t i = 0; i < plans; ++i) {
    const auto at = static_cast<std::int64_t>(in.unit_at[i] * scale);
    const auto plan = static_cast<std::uint32_t>(i);
    due.push_back({at, plan, 0});
    slots[i * 4].intended = at;
    for (std::uint8_t s = 1; s <= 3; ++s) {
      due.push_back({at + p.follow_ns[s - 1], plan, s});
      slots[i * 4 + s].intended = at + p.follow_ns[s - 1];
    }
  }
  std::stable_sort(due.begin(), due.end(),
                   [](const event_due& a, const event_due& b) {
                     return a.at < b.at;
                   });

  // Per op: 0 undecided, 1 answered ok (a won acquire), 2 any other
  // answer, or dropped unsent. The receiver writes the slot before
  // publishing its answer here.
  std::unique_ptr<std::atomic<std::uint8_t>[]> answer(
      new std::atomic<std::uint8_t>[plans * 4]);
  for (std::size_t i = 0; i < plans * 4; ++i) answer[i].store(0);
  std::vector<std::uint64_t> granted_epoch(plans, 0);
  std::atomic<std::int64_t> sent_count{0};
  std::atomic<std::int64_t> recv_count{0};
  std::atomic<std::uint64_t> event_count{0};
  std::atomic<bool> stop{false};
  std::vector<seen_event> events;
  const std::uint64_t id_base = next_id_;
  next_id_ += plans * 4 + 16;
  const int worker_base = next_worker_;
  next_worker_ += static_cast<int>(plans);

  const std::size_t conns = fds_.size();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t sender_cpu0 = thread_cpu_ns();
  std::atomic<std::int64_t> receiver_cpu{0};
  std::thread receiver([&] {
    std::vector<pollfd> pfds;
    for (int fd : fds_) pfds.push_back({fd, POLLIN, 0});
    if (watch_fd_ >= 0) pfds.push_back({watch_fd_, POLLIN, 0});
    std::vector<std::uint8_t> buf(1 << 16);
    while (!stop.load(std::memory_order_relaxed)) {
      if (::poll(pfds.data(), pfds.size(), 2) <= 0) continue;
      for (std::size_t c = 0; c < pfds.size(); ++c) {
        if (pfds[c].fd < 0 || (pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
          continue;
        }
        const ssize_t r = ::recv(pfds[c].fd, buf.data(), buf.size(), MSG_DONTWAIT);
        if (r < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        if (r <= 0) {
          pfds[c].fd = -1;
          continue;
        }
        const std::int64_t t = now_ns();
        if (!readers_[c].feed(buf.data(), static_cast<std::size_t>(r))) {
          pfds[c].fd = -1;
          continue;
        }
        while (auto frame = readers_[c].next()) {
          const auto resp = wire::decode_response(*frame);
          if (!resp) continue;
          if (resp->kind == wire::op::event) {
            if (const auto e = wire::parse_event(*resp)) {
              events.push_back({e->key, e->epoch, e->kind, e->session, t});
              event_count.fetch_add(1, std::memory_order_relaxed);
            }
            continue;
          }
          if (resp->id <= id_base || resp->id > id_base + plans * 4) continue;
          const std::size_t s = resp->id - id_base - 1;
          slot& sl = slots[s];
          sl.recv = t;
          sl.status = static_cast<std::uint8_t>(resp->result);
          sl.epoch = resp->epoch;
          if (s % 4 == 0) granted_epoch[s / 4] = resp->epoch;
          answer[s].store(resp->result == wire::status::ok ? 1 : 2,
                          std::memory_order_release);
          recv_count.fetch_add(1, std::memory_order_release);
        }
      }
    }
    receiver_cpu.store(thread_cpu_ns());
  });

  fine_timer_slack();
  std::vector<std::vector<std::uint8_t>> outbuf(conns);
  std::vector<std::vector<std::size_t>> staged(conns);
  std::vector<event_due> deferred;
  std::vector<bool> acquire_staged(plans, false);
  const auto conn_of = [&](std::uint32_t plan) {
    return static_cast<std::size_t>(in.keys[plan] % conns);
  };
  const auto stage = [&](const event_due& e) {
    const std::size_t s = static_cast<std::size_t>(e.plan) * 4 + e.step;
    wire::request r;
    r.id = id_base + s + 1;
    r.key = key_name(prefix_, in.keys[e.plan]);
    if (e.step == 0) {
      r.kind = wire::op::try_acquire;
      acquire_staged[e.plan] = true;
    } else {
      r.kind = e.step == 3 ? wire::op::release_fenced : wire::op::renew;
      r.epoch = granted_epoch[e.plan];
    }
    const auto frame = wire::encode_request(r);
    const std::size_t c = conn_of(e.plan);
    outbuf[c].insert(outbuf[c].end(), frame.begin(), frame.end());
    staged[c].push_back(s);
  };
  const auto flush = [&] {
    for (std::size_t c = 0; c < conns; ++c) {
      if (staged[c].empty()) continue;
      const std::int64_t t = now_ns();
      for (std::size_t s : staged[c]) slots[s].sent = t;
      sent_count.fetch_add(static_cast<std::int64_t>(staged[c].size()),
                           std::memory_order_relaxed);
      out.ops_sent += staged[c].size();
      (void)send_all(fds_[c], outbuf[c].data(), outbuf[c].size());
      outbuf[c].clear();
      staged[c].clear();
    }
  };
  // A lease's ops run one at a time, as its holder would issue them: a
  // follow-up goes out once the op before it answered ok, and is
  // dropped when that op lost or failed. True once decided.
  const auto follow_up = [&](const event_due& e) {
    const std::size_t s = static_cast<std::size_t>(e.plan) * 4 + e.step;
    const std::uint8_t prev = answer[s - 1].load(std::memory_order_acquire);
    if (prev == 1) stage(e);
    // A dropped op is decided too, so the ones after it drop in turn.
    if (prev == 2) answer[s].store(2, std::memory_order_relaxed);
    return prev != 0;
  };

  const std::int64_t start = now_ns() + 2'000'000;
  const std::int64_t last_due = due.empty() ? 0 : due.back().at;
  const std::int64_t give_up = start + last_due + p.drain_ns;
  std::size_t next = 0;
  while (next < due.size() || !deferred.empty()) {
    const std::int64_t now = now_ns();
    if (!deferred.empty()) {
      std::size_t kept = 0;
      for (const event_due& e : deferred) {
        if (!follow_up(e)) deferred[kept++] = e;
      }
      deferred.resize(kept);
    }
    while (next < due.size() && start + due[next].at <= now) {
      const event_due& e = due[next++];
      if (e.step == 0) {
        if (p.abort_late_ns > 0 && now - (start + e.at) > p.abort_late_ns) {
          out.aborted = true;
        }
        if (!out.aborted) stage(e);
        continue;
      }
      if (!acquire_staged[e.plan]) continue;  // skipped by an abort
      if (!follow_up(e)) deferred.push_back(e);
    }
    flush();
    if (now > give_up) break;
    std::int64_t wake = next < due.size() ? start + due[next].at : now + 50'000;
    if (!deferred.empty()) wake = std::min(wake, now_ns() + 50'000);
    sleep_until_ns(wake);
  }
  flush();
  const std::int64_t sent_all_at = now_ns();

  // Drain replies, then the watch events they caused.
  const std::int64_t drain_until = sent_all_at + p.drain_ns;
  while (recv_count.load(std::memory_order_acquire) <
             sent_count.load(std::memory_order_relaxed) &&
         now_ns() < drain_until) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const bool drained = recv_count.load(std::memory_order_acquire) ==
                       sent_count.load(std::memory_order_relaxed);
  if (watch_fd_ >= 0) {
    std::uint64_t expected = 0;
    if (drained) {
      for (std::size_t i = 0; i < plans; ++i) {
        if (!watched_[in.keys[i]]) continue;
        expected += slots[i * 4].status == 0 ? 1 : 0;
        expected += slots[i * 4 + 3].status == 0 ? 1 : 0;
      }
    }
    const std::int64_t until = now_ns() + (drained ? 2'000'000'000 : 200'000'000);
    while (event_count.load(std::memory_order_relaxed) < expected &&
           now_ns() < until) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // A short grace period so a duplicate delivery would be seen too.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::int64_t sender_cpu = thread_cpu_ns() - sender_cpu0;
  stop.store(true);
  receiver.join();
  out.cpu_ns = process_cpu_ns() - cpu0;
  out.gen_cpu_ns = sender_cpu + receiver_cpu.load();
  out.seconds = static_cast<double>(p.duration_ns) / 1e9;
  out.start_ns = start;
  out.events = std::move(events);

  // Fold the timelines into samples and checker records.
  const std::int64_t quarter = p.duration_ns / 4;
  const auto us = [](std::int64_t ns) { return static_cast<double>(ns) / 1e3; };
  for (std::size_t i = 0; i < plans; ++i) {
    const std::string key = key_name(prefix_, in.keys[i]);
    const int worker = worker_base + static_cast<int>(i);
    const bool watched = watched_[in.keys[i]];
    for (std::size_t s = 0; s < 4; ++s) {
      const slot& sl = slots[i * 4 + s];
      if (sl.sent < 0) continue;
      out.attempted++;
      out.late_us.push_back(us(sl.sent - start - sl.intended));
      const auto st = static_cast<wire::status>(sl.status);
      chaos::record r;
      r.start_us = to_us(sl.sent);
      r.end_us = to_us(sl.recv >= 0 ? sl.recv : sent_all_at);
      r.worker = worker;
      r.key = key;
      if (s == 0) {
        r.op = chaos::op_kind::acquire;
        r.epoch = sl.epoch;
        r.result = sl.recv < 0 ? chaos::outcome::connection_lost
                               : acquire_outcome(st);
        const bool answered = sl.recv >= 0 && (st == wire::status::ok ||
                                               st == wire::status::lost);
        if (!answered) {
          out.failed++;
        } else {
          const double lat = us(sl.recv - start - sl.intended);
          out.acquire_us.push_back(lat);
          if (sl.intended < quarter) out.acquire_head_us.push_back(lat);
          if (sl.intended >= p.duration_ns - quarter) {
            out.acquire_tail_us.push_back(lat);
          }
        }
        if (st == wire::status::ok && sl.recv >= 0) {
          out.grants++;
          out.grant_ns.push_back(sl.recv);
          if (watched) {
            out.causes[{key, sl.epoch, static_cast<std::uint8_t>(
                                           svc::transition::elected)}] =
                sl.sent;
          }
        }
      } else {
        r.op = s == 3 ? chaos::op_kind::release : chaos::op_kind::renew;
        r.epoch = granted_epoch[i];
        r.result = sl.recv < 0 ? chaos::outcome::connection_lost
                               : lease_outcome(st);
        const bool answered =
            sl.recv >= 0 &&
            (st == wire::status::ok || st == wire::status::stale_epoch ||
             st == wire::status::not_leader);
        if (!answered) {
          out.failed++;
        } else {
          out.lease_op_us.push_back(us(sl.recv - start - sl.intended));
        }
        if (s == 3 && st == wire::status::ok && sl.recv >= 0 && watched) {
          out.causes[{key, granted_epoch[i],
                      static_cast<std::uint8_t>(svc::transition::released)}] =
              sl.sent;
        }
      }
      out.records.push_back(std::move(r));
    }
  }
  for (const seen_event& e : out.events) {
    chaos::record r;
    r.start_us = r.end_us = to_us(e.at_ns);
    r.worker = 60;
    r.op = chaos::op_kind::watch_event;
    r.key = e.key;
    r.epoch = e.epoch;
    r.transition = static_cast<std::uint8_t>(e.kind);
    r.session = e.session;
    out.records.push_back(std::move(r));
  }
  return out;
}

}  // namespace bstack
