// The handoff engine (api::client threads on one key) and the
// primary-kill outage probe. See engines.hpp.
#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>

#include "api/client.hpp"
#include "engines.hpp"
#include "net/client.hpp"

namespace bstack {

namespace {

chaos::outcome lease_outcome(svc::lease_status s) {
  switch (s) {
    case svc::lease_status::ok: return chaos::outcome::ok;
    case svc::lease_status::stale_epoch: return chaos::outcome::stale_epoch;
    case svc::lease_status::not_leader: return chaos::outcome::not_leader;
    case svc::lease_status::connection_lost:
      return chaos::outcome::connection_lost;
  }
  return chaos::outcome::rejected;
}

chaos::outcome acquire_outcome(const svc::acquire_result& a) {
  if (a.won) return chaos::outcome::ok;
  if (a.connection_lost) return chaos::outcome::connection_lost;
  if (a.rejected) return chaos::outcome::rejected;
  if (a.timed_out) return chaos::outcome::timed_out;
  return chaos::outcome::lost;
}

}  // namespace

struct handoff::impl {
  std::string key;
  int worker_base = 0;
  std::vector<std::unique_ptr<api::client>> clients;
  api::subscription watch;
  std::mutex events_mutex;
  std::vector<seen_event> events;
};

handoff::handoff(const std::string& endpoint, int threads, std::string key,
                 bool watch, int worker_base)
    : impl_(std::make_unique<impl>()) {
  impl_->key = std::move(key);
  impl_->worker_base = worker_base;
  for (int t = 0; t < threads; ++t) {
    impl_->clients.push_back(std::make_unique<api::client>(endpoint));
  }
  if (watch && connected()) {
    impl* self = impl_.get();
    impl_->watch = impl_->clients[0]->watch(
        impl_->key, [self](const svc::watch_event& e) {
          const std::int64_t t = now_ns();
          const std::lock_guard<std::mutex> lock(self->events_mutex);
          self->events.push_back({e.key, e.epoch, e.kind, e.session, t});
        });
  }
}

handoff::~handoff() {
  impl_->watch.cancel();
  impl_->clients.clear();
}

bool handoff::connected() const {
  for (const auto& c : impl_->clients) {
    if (!c->connected()) return false;
  }
  return !impl_->clients.empty();
}

handoff_outcome handoff::run(const handoff_params& p) {
  struct grant {
    std::uint64_t epoch;
    std::int64_t at;
  };
  // Samples carry their time so the merged series is in time order
  // (the chunked tail percentile reads consecutive samples).
  using timed = std::pair<std::int64_t, double>;
  struct per_thread {
    std::vector<timed> acquire_us, release_us;
    std::vector<double> late_us, head, tail;
    std::vector<grant> grants, releases;
    std::vector<chaos::record> records;
    std::uint64_t attempted = 0, failed = 0;
  };
  const auto threads = impl_->clients.size();
  std::vector<per_thread> parts(threads);
  {
    const std::lock_guard<std::mutex> lock(impl_->events_mutex);
    impl_->events.clear();
  }
  const std::int64_t start = now_ns() + 1'000'000;
  const std::int64_t end = start + p.duration_ns;
  const std::int64_t quarter = p.duration_ns / 4;
  const double per_thread_rate =
      p.rate > 0 ? p.rate / static_cast<double>(threads) : 0.0;
  std::atomic<std::uint64_t> granted{0};
  double rss_at_mark = 0.0;  // written by the thread making the mark grant
  const std::int64_t cpu0 = process_cpu_ns();

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      fine_timer_slack();
      per_thread& me = parts[t];
      api::client& client = *impl_->clients[t];
      const int worker = impl_->worker_base + static_cast<int>(t);
      sleep_until_ns(start);
      double unit = 0.0;
      std::size_t j = 0;
      for (;;) {
        std::int64_t intended = now_ns();
        if (per_thread_rate > 0) {
          const auto& gaps = (*p.unit_gaps)[t];
          unit += gaps[j % gaps.size()];
          ++j;
          intended = start + static_cast<std::int64_t>(unit / per_thread_rate * 1e9);
          // Past the knee the schedule falls behind; the step still ends
          // on time.
          if (intended >= end || now_ns() >= end) break;
          sleep_until_ns(intended);
        } else if (intended >= end) {
          break;
        }
        const std::int64_t t0 = now_ns();
        api::acquired a = client.acquire(impl_->key);
        const std::int64_t t1 = now_ns();
        me.attempted++;
        chaos::record ra;
        ra.start_us = to_us(t0);
        ra.end_us = to_us(t1);
        ra.worker = worker;
        ra.op = chaos::op_kind::acquire;
        ra.key = impl_->key;
        ra.epoch = a.epoch;
        if (!a.won()) {
          me.failed++;
          ra.result = a.status == api::acquire_status::timed_out
                          ? chaos::outcome::timed_out
                          : chaos::outcome::rejected;
          me.records.push_back(std::move(ra));
          if (a.status == api::acquire_status::rejected) break;
          continue;
        }
        ra.result = chaos::outcome::ok;
        me.records.push_back(std::move(ra));
        const double lat = static_cast<double>(t1 - intended) / 1e3;
        me.acquire_us.emplace_back(t1, lat);
        if (intended - start < quarter) me.head.push_back(lat);
        if (intended >= end - quarter) me.tail.push_back(lat);
        if (per_thread_rate > 0) {
          me.late_us.push_back(static_cast<double>(t0 - intended) / 1e3);
        }
        me.grants.push_back({a.epoch, t1});
        if (granted.fetch_add(1) + 1 == p.rss_mark_grants) {
          rss_at_mark = peak_rss_mib();
        }
        sleep_until_ns(t1 + p.hold_ns);
        const std::int64_t t2 = now_ns();
        const svc::lease_status st = a.lease.release();
        const std::int64_t t3 = now_ns();
        me.attempted++;
        if (st != svc::lease_status::ok) me.failed++;
        me.release_us.emplace_back(t3, static_cast<double>(t3 - t2) / 1e3);
        me.releases.push_back({a.epoch, t2});
        chaos::record rr;
        rr.start_us = to_us(t2);
        rr.end_us = to_us(t3);
        rr.worker = worker;
        rr.op = chaos::op_kind::release;
        rr.result = lease_outcome(st);
        rr.key = impl_->key;
        rr.epoch = a.epoch;
        me.records.push_back(std::move(rr));
      }
    });
  }
  for (auto& w : workers) w.join();
  const std::int64_t cpu_ns = process_cpu_ns() - cpu0;
  // Let the watcher see the last transitions (and any duplicate).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  handoff_outcome out;
  out.seconds = static_cast<double>(p.duration_ns) / 1e9;
  out.start_ns = start;
  out.cpu_ns = cpu_ns;
  out.rss_mib_at_mark = rss_at_mark;
  std::unordered_map<std::uint64_t, std::int64_t> grant_at;
  std::vector<grant> releases;
  std::vector<timed> acquire_us, release_us;
  for (per_thread& me : parts) {
    out.attempted += me.attempted;
    out.failed += me.failed;
    out.grants += me.grants.size();
    for (const grant& g : me.grants) out.grant_ns.push_back(g.at);
    acquire_us.insert(acquire_us.end(), me.acquire_us.begin(),
                      me.acquire_us.end());
    release_us.insert(release_us.end(), me.release_us.begin(),
                      me.release_us.end());
    out.late_us.insert(out.late_us.end(), me.late_us.begin(), me.late_us.end());
    out.acquire_head_us.insert(out.acquire_head_us.end(), me.head.begin(),
                               me.head.end());
    out.acquire_tail_us.insert(out.acquire_tail_us.end(), me.tail.begin(),
                               me.tail.end());
    for (const grant& g : me.grants) grant_at[g.epoch] = g.at;
    releases.insert(releases.end(), me.releases.begin(), me.releases.end());
    for (auto& r : me.records) out.records.push_back(std::move(r));
  }
  const auto in_time_order = [](std::vector<timed>& v) {
    std::sort(v.begin(), v.end());
    std::vector<double> out_v;
    out_v.reserve(v.size());
    for (const timed& t : v) out_v.push_back(t.second);
    return out_v;
  };
  out.acquire_us = in_time_order(acquire_us);
  out.release_us = in_time_order(release_us);
  std::sort(releases.begin(), releases.end(),
            [](const grant& a, const grant& b) { return a.at < b.at; });
  for (const grant& r : releases) {
    out.causes[{impl_->key, r.epoch,
                static_cast<std::uint8_t>(svc::transition::released)}] = r.at;
    // A handoff is only defined while others queue on the key.
    if (p.rate > 0) continue;
    const auto next = grant_at.find(r.epoch + 1);
    if (next != grant_at.end() && next->second > r.at) {
      out.handoff_us.push_back(static_cast<double>(next->second - r.at) / 1e3);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(impl_->events_mutex);
    out.events = impl_->events;
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

// ---------------------------------------------------------------------

outage_outcome run_kills(cluster_stack& cluster, int kills) {
  constexpr std::int64_t settle_ns = 100'000'000;  // probing between kills
  constexpr std::int64_t probe_every_ns = 2'000'000;
  outage_outcome out;
  const std::uint64_t elections_before = cluster.elections_started();
  net::client client(cluster.endpoints_csv());
  std::uint64_t probe_index = 0;
  // One probe op: try_acquire a fresh key, release it when won. True
  // once the service answered.
  const auto probe = [&](std::int64_t* answered_at) {
    const std::string key = key_name('o', static_cast<std::uint32_t>(probe_index++));
    const std::int64_t t0 = now_ns();
    const svc::acquire_result a = client.try_acquire(key);
    const std::int64_t t1 = now_ns();
    chaos::record ra;
    ra.start_us = to_us(t0);
    ra.end_us = to_us(t1);
    ra.worker = 40;
    ra.op = chaos::op_kind::acquire;
    ra.result = acquire_outcome(a);
    ra.key = key;
    ra.epoch = a.epoch;
    out.records.push_back(std::move(ra));
    const bool answered = !a.rejected && !a.timed_out && !a.connection_lost;
    if (!answered) return false;
    if (answered_at != nullptr) *answered_at = t1;
    if (a.won) {
      const std::int64_t t2 = now_ns();
      const svc::lease_status st = client.release(key, a.epoch);
      chaos::record rr;
      rr.start_us = to_us(t2);
      rr.end_us = to_us(now_ns());
      rr.worker = 40;
      rr.op = chaos::op_kind::release;
      rr.result = lease_outcome(st);
      rr.key = key;
      rr.epoch = a.epoch;
      out.records.push_back(std::move(rr));
    }
    return true;
  };

  for (int k = 0; k < kills; ++k) {
    const std::int64_t settle_end = now_ns() + settle_ns;
    for (std::int64_t tick = now_ns(); tick < settle_end;
         tick += probe_every_ns) {
      (void)probe(nullptr);
      sleep_until_ns(tick + probe_every_ns);
    }
    std::atomic<std::int64_t> primary_at{-1};
    std::atomic<bool> stop_poll{false};
    const int victim = cluster.primary();
    const std::int64_t stopped_at = now_ns();
    cluster.stop_member(victim);
    std::thread poller([&] {
      while (!stop_poll.load() && now_ns() - stopped_at < 10'000'000'000) {
        if (cluster.primary() >= 0) {
          primary_at.store(now_ns());
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
    std::int64_t answered_at = -1;
    while (now_ns() - stopped_at < 10'000'000'000) {
      if (probe(&answered_at)) break;
    }
    stop_poll.store(true);
    poller.join();
    if (answered_at >= 0) {
      out.gap_ms.push_back(static_cast<double>(answered_at - stopped_at) / 1e6);
    }
    if (primary_at.load() >= 0) {
      out.to_primary_ms.push_back(
          static_cast<double>(primary_at.load() - stopped_at) / 1e6);
    }
    cluster.start_member(victim);
    (void)cluster.wait_caught_up(std::chrono::seconds(3));
  }
  out.elections_per_failover =
      kills == 0 ? 0.0
                 : static_cast<double>(cluster.elections_started() -
                                       elections_before) /
                       kills;
  for (int i = 0; i < cluster.size(); ++i) {
    const repl::node_counters c = cluster.node(i).counters();
    out.commit_timeouts += static_cast<double>(c.commit_timeouts);
    out.append_failures += static_cast<double>(c.append_failures);
  }
  return out;
}

}  // namespace bstack
