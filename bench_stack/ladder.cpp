// The traced run's layer ladder: the workload's generated ops replayed
// one at a time down the public entry points, each rung adding one
// layer. A layer's price is its rung's mean op time minus the rung
// below it.
//
//   registry  svc::instance_registry (begin_adaptive_attempt/renew/release)
//   session   svc::service::session (adaptive)
//   api       api::client over the local backend
//   net       net::client over loopback to a net::server
//   obs       the net rung with every op under obs::trace_scope(mint())
//   cluster   net::client to the primary of a 3-member repl cluster,
//             with the benchmark's commit-gate and peer-hook spans on;
//             optionally ends with primary kills under the outage probe.
// Plus a handoff replay on 4 in-process sessions (svc only).
#include <algorithm>
#include <thread>

#include "api/client.hpp"
#include "engines.hpp"
#include "ladder.hpp"
#include "net/client.hpp"
#include "obs/trace.hpp"

namespace bstack {

namespace {

using namespace std::chrono_literals;

/// Median op times (ns) of one rung: all ops, and acquires + releases
/// only (the api rung has no renew). Medians, because a sequential
/// replay on a shared host sees stalls that would swamp a mean.
struct rung_time {
  double all_ns = 0.0;
  double acq_rel_ns = 0.0;
  std::size_t ops = 0;
};

/// Replay `ops` through one rung. `acquire` returns {won, epoch};
/// `renew` is only called when the workload renews.
template <class Acquire, class Renew, class Release>
rung_time replay(const ladder_ops& ops, std::size_t limit, Acquire acquire,
                 Renew renew, Release release) {
  std::vector<double> all, acq_rel;
  const std::size_t count = std::min(limit, ops.keys.size());
  const auto timed = [&](auto&& fn, bool acq_or_rel) {
    const std::int64_t t0 = now_ns();
    auto r = fn();
    const auto ns = static_cast<double>(now_ns() - t0);
    all.push_back(ns);
    if (acq_or_rel) acq_rel.push_back(ns);
    return r;
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& key = ops.keys[i];
    const int conn = ops.conn[i];
    const auto [won, epoch] = timed([&] { return acquire(conn, key); }, true);
    if (!won) continue;
    for (int r = 0; ops.renews && r < 2; ++r) {
      if (!timed([&] { return renew(conn, key, epoch); }, false)) break;
    }
    (void)timed(
        [&] {
          release(conn, key, epoch);
          return true;
        },
        true);
  }
  return {quantile(all, 0.5), quantile(acq_rel, 0.5), all.size()};
}

std::pair<bool, std::uint64_t> won_epoch(const svc::acquire_result& a) {
  return {a.won, a.epoch};
}

/// The net rung body, shared by the plain, traced-op and cluster rungs.
rung_time replay_net(const ladder_ops& ops, std::size_t limit,
                     std::uint16_t port, int conns, bool trace_ops) {
  std::vector<std::unique_ptr<net::client>> clients;
  for (int c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<net::client>("127.0.0.1", port));
  }
  const auto traced = [trace_ops](auto&& fn) {
    if (!trace_ops) return fn();
    const obs::trace_scope scope(obs::mint());
    return fn();
  };
  return replay(
      ops, limit,
      [&](int c, const std::string& key) {
        return traced([&] {
          return won_epoch(clients[static_cast<std::size_t>(c)]->try_acquire(key));
        });
      },
      [&](int c, const std::string& key, std::uint64_t epoch) {
        return traced([&] {
          return clients[static_cast<std::size_t>(c)]->renew(key, epoch) ==
                 svc::lease_status::ok;
        });
      },
      [&](int c, const std::string& key, std::uint64_t epoch) {
        (void)traced([&] {
          return clients[static_cast<std::size_t>(c)]->release(key, epoch);
        });
      });
}

}  // namespace

ladder_result run_ladder(const ladder_ops& ops, const pinned_config& single,
                         const pinned_config& cluster_cfg, hook_spans& spans,
                         bool with_kill) {
  ladder_result out;
  const int conns = ops.conns;
  const auto ttl = std::chrono::milliseconds(single.lease_ttl_ms);

  // registry
  rung_time reg;
  {
    svc::instance_registry registry(single.shards);
    reg = replay(
        ops, 20000,
        [&](int c, const std::string& key) {
          const svc::adaptive_attempt a =
              registry.begin_adaptive_attempt(key, c, ttl);
          const bool won = a.fast_attempted &&
                           a.fast.outcome == svc::fast_claim_outcome::claimed;
          return std::pair<bool, std::uint64_t>{won, a.attempt.entry.epoch};
        },
        [&](int c, const std::string& key, std::uint64_t epoch) {
          return registry.renew(key, c, epoch, ttl) == svc::lease_status::ok;
        },
        [&](int c, const std::string& key, std::uint64_t epoch) {
          (void)registry.release(key, c, epoch);
        });
  }

  // session, api (local) and the 4-session handoff replay share a service.
  rung_time ses, api_rung;
  {
    svc::service service(single.service());
    std::vector<svc::service::session> sessions;
    for (int c = 0; c < conns; ++c) sessions.push_back(service.connect());
    ses = replay(
        ops, 20000,
        [&](int c, const std::string& key) {
          return won_epoch(sessions[static_cast<std::size_t>(c)].try_acquire(key));
        },
        [&](int c, const std::string& key, std::uint64_t epoch) {
          return sessions[static_cast<std::size_t>(c)].renew(key, epoch) ==
                 svc::lease_status::ok;
        },
        [&](int c, const std::string& key, std::uint64_t epoch) {
          (void)sessions[static_cast<std::size_t>(c)].release(key, epoch);
        });

    std::vector<std::unique_ptr<api::client>> clients;
    for (int c = 0; c < conns; ++c) {
      clients.push_back(std::make_unique<api::client>(service));
    }
    std::vector<api::lease> held(static_cast<std::size_t>(conns));
    ladder_ops api_ops = ops;
    api_ops.renews = false;  // api::lease renews itself; no renew call
    api_rung = replay(
        api_ops, 20000,
        [&](int c, const std::string& key) {
          api::acquired a = clients[static_cast<std::size_t>(c)]->try_acquire(key);
          const bool won = a.won();
          held[static_cast<std::size_t>(c)] = std::move(a.lease);
          return std::pair<bool, std::uint64_t>{won, a.epoch};
        },
        [](int, const std::string&, std::uint64_t) { return true; },
        [&](int c, const std::string&, std::uint64_t) {
          (void)held[static_cast<std::size_t>(c)].release();
        });
    clients.clear();

    // hot_key_handoff replayed on 4 sessions: blocking acquire, 200 us
    // hold, release; the handoff is release start -> next grant.
    std::mutex mu;
    std::vector<std::pair<std::uint64_t, std::int64_t>> grants, releases;
    std::vector<std::thread> threads;
    const std::int64_t until = now_ns() + 400'000'000;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        fine_timer_slack();
        svc::service::session s = service.connect();
        while (now_ns() < until) {
          const svc::acquire_result a = s.acquire("handoff");
          const std::int64_t t1 = now_ns();
          if (!a.won) break;
          sleep_until_ns(t1 + 200'000);
          const std::int64_t t2 = now_ns();
          (void)s.release("handoff", a.epoch);
          const std::lock_guard<std::mutex> lock(mu);
          grants.emplace_back(a.epoch, t1);
          releases.emplace_back(a.epoch, t2);
        }
      });
    }
    for (auto& t : threads) t.join();
    std::unordered_map<std::uint64_t, std::int64_t> grant_at(grants.begin(),
                                                             grants.end());
    std::vector<double> handoffs;
    for (const auto& [epoch, at] : releases) {
      const auto it = grant_at.find(epoch + 1);
      if (it != grant_at.end() && it->second > at) {
        handoffs.push_back(static_cast<double>(it->second - at) / 1e3);
      }
    }
    out.session_handoff_us = quantile(handoffs, 0.5);
  }

  // net and obs (traced ops) over loopback.
  rung_time net_rung, obs_rung;
  {
    single_stack stack(single);
    net_rung = replay_net(ops, 3000, stack.port(), conns, false);
    obs_rung = replay_net(ops, 3000, stack.port(), conns, true);
  }

  // cluster, with the benchmark's own hook spans on.
  rung_time cl;
  {
    cluster_stack cluster(cluster_cfg, &spans);
    const int p = cluster.wait_for_primary(5s);
    if (p >= 0 && cluster.wait_caught_up(3s)) {
      spans.on.store(true);
      cl = replay_net(ops, 1000, cluster.port(p), conns, false);
      spans.on.store(false);
      const auto log = cluster.service(p).registry().log_stats();
      out.cmd_retained = static_cast<double>(log.retained);
      out.cmd_recorded = static_cast<double>(log.recorded);
      const repl::node_counters nc = cluster.node(p).counters();
      out.entries_per_append =
          nc.appends_sent == 0 ? 0.0
                               : static_cast<double>(nc.entries_replicated) /
                                     static_cast<double>(nc.appends_sent);
      out.cluster_ops = static_cast<double>(cl.ops);
      if (with_kill) {
        const outage_outcome kills = run_kills(cluster, 2);
        out.time_to_primary_ms = quantile(kills.to_primary_ms, 0.5);
        out.failover_gap_ms = quantile(kills.gap_ms, 0.5);
        out.elections_per_failover = kills.elections_per_failover;
        out.commit_timeouts = kills.commit_timeouts;
        out.append_failures = kills.append_failures;
      }
    }
  }

  out.registry_ns = reg.all_ns;
  out.session_ns = ses.all_ns - reg.all_ns;
  out.api_ns = api_rung.acq_rel_ns - ses.acq_rel_ns;
  out.net_us = (net_rung.all_ns - ses.all_ns) / 1e3;
  out.trace_op_ns = obs_rung.all_ns - net_rung.all_ns;
  out.repl_us = (cl.all_ns - net_rung.all_ns) / 1e3;
  return out;
}

}  // namespace bstack
