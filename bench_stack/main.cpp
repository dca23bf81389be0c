// bench_stack — the repository benchmark. See BENCHMARK.json at the
// repo root for the contract and bench_stack/README.md for the design.
//
//   bench_stack --workload <lease_churn|hot_key_handoff|replicated_lease>
//               --seed N --seconds S --trace 0|1
//               [--source-hash H]
//
// One process drives one workload against an in-process server (or a
// 3-member cluster). All inputs are generated from --seed before any
// timing. --trace 0 prints the end-to-end metrics; --trace 1 runs the
// traced variant and prints the per-layer metrics. Every acked op and
// watch event goes through the chaos checker; a violating run exits
// non-zero without printing metrics. The last stdout line is the
// result object; a full record is written to BENCH_stack_*.json in the
// working directory.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "bench_util.hpp"
#include "chaos/checker.hpp"
#include "engines.hpp"
#include "ladder.hpp"
#include "obs/trace.hpp"

namespace bstack {
namespace {

using namespace std::chrono_literals;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string source_hash = "unknown";
};

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "bench_stack: %s\n", why.c_str());
  std::exit(2);
}

struct metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one run accumulates: scored op counts, checker records,
/// metrics, and the provenance record.
struct run_state {
  explicit run_state(const std::string& name) : json(name) {}
  record_sink records;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;
  bench::json_emitter json;
  input_hash inputs;
  /// Watchers and their keys, for the exactly-once delivery check.
  std::map<int, std::set<std::string>> watched;
  std::string detail = "{";

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  template <class Outcome>
  void score(const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  void note(const std::string& key, double value) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s\"%s\":%.6g", detail.size() > 1 ? "," : "",
                  key.c_str(), value);
    detail += buf;
  }
};

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }
double p50(const std::vector<double>& v) { return quantile(v, 0.5); }
double p99(const std::vector<double>& v) { return quantile(v, 0.99); }
/// The reported tail: median over 1000-sample chunks of the chunk p99
/// (each chunk has ten samples beyond its p99).
double tail99(const std::vector<double>& v) { return chunked_quantile(v, 0.99); }

/// Setup is timed several times per run and reported as the median;
/// the last rig built is the one measured.
constexpr int setups_per_run = 3;

/// Latency limit for the SLO search: well above the scheduler stalls a
/// shared 4-vCPU VM shows at low load (generator lateness p99 reached
/// ~50 ms), so the knee decides, not noise.
constexpr double slo_limit_us = 100'000.0;

bool step_passes(const std::vector<double>& acquire_us,
                 const std::vector<double>& head,
                 const std::vector<double>& tail, std::uint64_t failed,
                 bool aborted) {
  if (aborted || failed > 0 || acquire_us.size() < 20) return false;
  if (p99(acquire_us) > slo_limit_us) return false;
  // A backlog that grows over the step shows as a tail slower than its
  // head even while p99 is still under the limit.
  return p50(tail) <= 2.0 * p50(head) + 1000.0;
}

/// One SLO step's verdict and the ops per second it issued.
struct step_result {
  bool passed = false;
  double ops = 0.0;
};

/// Geometric bisection for the highest passing rate between `lo` and
/// `hi`. `at_lo` is a verdict already taken at `lo` (not run when
/// given). While `lo` fails it is quartered, up to three times, so the
/// result is always a rate that passed (0 when none did).
template <class Step>
double bisect(double lo, std::optional<step_result> at_lo, double hi, int steps,
              Step step, run_state& st) {
  const auto note = [&](double rate, const step_result& r) {
    st.note("slo_probe_" + std::to_string(static_cast<int>(rate)), r.passed);
    return r;
  };
  const auto probe = [&](double rate) { return note(rate, step(rate)); };
  step_result low = at_lo ? note(lo, *at_lo) : probe(lo);
  for (int down = 0; !low.passed && down < 3; ++down) {
    hi = lo;
    lo /= 4.0;
    low = probe(lo);
  }
  if (!low.passed) return 0.0;
  double best_ops = low.ops;
  const step_result top = probe(hi);
  if (top.passed) return top.ops;
  for (int i = 0; i < steps; ++i) {
    const double mid = std::sqrt(lo * hi);
    const step_result r = probe(mid);
    if (r.passed) {
      lo = mid;
      best_ops = r.ops;
    } else {
      hi = mid;
    }
  }
  return best_ops;
}

/// Median of the setup times, with the rig kept from the last build.
template <class Build>
auto timed_setups(const options& o, Build build, run_state& st) {
  std::vector<double> times;
  const int n = o.trace ? 1 : setups_per_run;
  for (int i = 0;; ++i) {
    const std::int64_t t0 = now_ns();
    auto rig = build(i == n - 1);
    times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (i == n - 1) {
      if (!o.trace) st.put("setup_s", p50(times), "s");
      for (std::size_t k = 0; k < times.size(); ++k) {
        st.note("setup_s_" + std::to_string(k), times[k]);
      }
      return rig;
    }
  }
}

// ---------------------------------------------------------------------
// Per-layer reporting shared by the traced runs.

struct layer_inputs {
  int nodes = 4;
  svc::service_report svc0, svc1;
  net::net_report net0, net1;
  obs::trace_counters obs0, obs1;
  double client_ops = 0.0;
  std::vector<double> hub_lag_us, wire_lag_us;
  double late_p99_us = 0.0;
  double untraced_p50 = 0.0, traced_p50 = 0.0;
  std::vector<double> commit_wait_us, append_serve_us;
  double entries_per_append = 0.0;
  double commit_timeouts = 0.0, append_failures = 0.0;
  double time_to_primary_ms = 0.0, elections_per_failover = 0.0;
  double failover_gap_ms = 0.0;
  double cmd_retained = 0.0, cmd_recorded_per_op = 0.0;
  ladder_result ladder;
};

/// JSON array of span durations, for the record written at exit.
std::string span_array(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.1f", i > 0 ? "," : "", v[i]);
    out += buf;
  }
  return out + "]";
}

void put_layers(run_state& st, const layer_inputs& in) {
  // The spans the run kept in memory, written out with its record.
  st.json.raw("spans",
              "{\"commit_wait_us\":" + span_array(in.commit_wait_us) +
                  ",\"append_serve_us\":" + span_array(in.append_serve_us) +
                  ",\"hub_lag_us\":" + span_array(in.hub_lag_us) +
                  ",\"wire_watch_lag_us\":" + span_array(in.wire_lag_us) + "}");
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const svc::service_report& s0 = in.svc0;
  const svc::service_report& s1 = in.svc1;
  const double acquires = d(s0.acquires, s1.acquires);
  const double wins = d(s0.wins, s1.wins);
  const double hits = d(s0.fast_path.hits, s1.fast_path.hits);
  const double messages = d(s0.total_messages, s1.total_messages);
  const double communicate =
      (s1.mean_communicate_calls - s0.mean_communicate_calls) * in.nodes;
  st.put("svc.registry.op_ns", in.ladder.registry_ns, "ns");
  st.put("svc.session.op_ns", in.ladder.session_ns, "ns");
  st.put("svc.session.handoff_us", in.ladder.session_handoff_us, "us");
  st.put("svc.acquire_mean_us",
         ratio(s1.acquire_latency_sum_us - s0.acquire_latency_sum_us,
               d(s0.acquire_latency_count, s1.acquire_latency_count)),
         "us");
  // Share of grants the CAS fast path made. (fast_path.hit_rate() only
  // counts attempts the contention estimate let through, which hit.)
  st.put("svc.fast_path_hit_rate", ratio(hits, wins), "ratio");
  st.put("svc.short_circuit_frac",
         ratio(d(s0.short_circuit_losses, s1.short_circuit_losses), acquires),
         "ratio");
  st.put("svc.watch.hub_lag_us", p50(in.hub_lag_us), "us");
  st.put("election.msgs_per_grant", ratio(messages, wins), "count");
  st.put("election.communicate_per_grant", ratio(communicate, wins), "count");
  st.put("election.coalesce",
         ratio(messages, d(s0.mailbox_pushes, s1.mailbox_pushes)), "ratio");
  st.put("election.win_frac", ratio(wins, acquires), "ratio");
  st.put("api.op_ns", in.ladder.api_ns, "ns");
  st.put("net.op_us", in.ladder.net_us, "us");
  const net::net_report& n0 = in.net0;
  const net::net_report& n1 = in.net1;
  const double requests = d(n0.requests, n1.requests);
  st.put("net.wakeups_per_request",
         ratio(d(n0.reactor_wakeups, n1.reactor_wakeups), requests), "ratio");
  st.put("net.frames_per_writev",
         ratio(d(n0.frames_flushed, n1.frames_flushed),
               d(n0.writev_calls, n1.writev_calls)),
         "ratio");
  st.put("net.requests_per_batch",
         ratio(requests, d(n0.dispatch_batches, n1.dispatch_batches)), "ratio");
  st.put("net.backpressure_pauses",
         d(n0.backpressure_pauses, n1.backpressure_pauses), "count");
  st.put("net.busy_rejections", d(n0.busy_rejections, n1.busy_rejections),
         "count");
  st.put("net.events_dropped", d(n0.events_dropped, n1.events_dropped), "count");
  st.put("net.watch_push_us", p50(in.wire_lag_us) - p50(in.hub_lag_us), "us");
  st.put("repl.op_us", in.ladder.repl_us, "us");
  st.put("repl.commit_wait_p50_us", p50(in.commit_wait_us), "us");
  st.put("repl.commit_wait_p99_us", p99(in.commit_wait_us), "us");
  st.put("repl.append_serve_us", p50(in.append_serve_us), "us");
  st.put("repl.entries_per_append", in.entries_per_append, "ratio");
  st.put("repl.commit_timeouts", in.commit_timeouts, "count");
  st.put("repl.append_failures", in.append_failures, "count");
  st.put("repl.time_to_primary_ms", in.time_to_primary_ms, "ms");
  st.put("failover_gap_ms", in.failover_gap_ms, "ms");
  st.put("repl.elections_per_failover", in.elections_per_failover, "count");
  st.put("cmd.retained_commands", in.cmd_retained, "count");
  st.put("cmd.recorded_per_op", in.cmd_recorded_per_op, "ratio");
  st.put("obs.trace_op_ns", in.ladder.trace_op_ns, "ns");
  st.put("obs.spans_per_op",
         ratio(static_cast<double>(in.obs1.spans - in.obs0.spans), in.client_ops),
         "ratio");
  st.put("gen.late_p99_us", in.late_p99_us, "us");
  st.put("gen.trace_overhead_frac",
         ratio(in.traced_p50 - in.untraced_p50, in.untraced_p50), "ratio");
}

/// The ladder's cluster-side numbers stand in for workloads that run no
/// cluster of their own.
void take_cluster_layers_from_ladder(layer_inputs& li, hook_spans& spans) {
  li.commit_wait_us = spans.commit_wait_us;
  li.append_serve_us = spans.append_serve_us;
  li.entries_per_append = li.ladder.entries_per_append;
  li.commit_timeouts = li.ladder.commit_timeouts;
  li.append_failures = li.ladder.append_failures;
  li.time_to_primary_ms = li.ladder.time_to_primary_ms;
  li.failover_gap_ms = li.ladder.failover_gap_ms;
  li.elections_per_failover = li.ladder.elections_per_failover;
  li.cmd_retained = li.ladder.cmd_retained;
  li.cmd_recorded_per_op = ratio(li.ladder.cmd_recorded, li.ladder.cluster_ops);
}

ladder_ops ladder_from_plans(const plan_input& in, char prefix, int conns) {
  ladder_ops ops;
  ops.conns = conns;
  for (std::size_t i = 0; i < std::min<std::size_t>(in.keys.size(), 20000); ++i) {
    ops.keys.push_back(key_name(prefix, in.keys[i]));
    ops.conn.push_back(static_cast<int>(in.keys[i] % static_cast<std::uint32_t>(conns)));
  }
  return ops;
}

/// Subscribe the benchmark's own hub watch on `keys` (traced runs).
struct hub_watch {
  hub_watch(svc::service& s, const std::vector<std::string>& keys) : svc(s) {
    for (const auto& k : keys) {
      ids.push_back(svc.watch(k, [this](const svc::watch_event& e) {
        const std::int64_t t = now_ns();
        const std::lock_guard<std::mutex> lock(mutex);
        events.push_back({e.key, e.epoch, e.kind, e.session, t});
      }));
    }
  }
  ~hub_watch() {
    for (auto id : ids) svc.unwatch(id);
  }
  hub_watch(const hub_watch&) = delete;
  hub_watch& operator=(const hub_watch&) = delete;
  svc::service& svc;
  std::vector<std::uint64_t> ids;
  std::mutex mutex;
  std::vector<seen_event> events;
};

// ---------------------------------------------------------------------
// The open-loop workloads: lease_churn (single server, Zipfian over 2^20
// keys, wire watchers) and replicated_lease (3-member cluster, 2^16 keys).
// Keys are registered as the schedule first touches them: registering
// all 2^20 up front took ~6 s per set-up, and every connection close and
// expiry sweep then scanned them all.

struct openloop_shape {
  char prefix;
  std::uint32_t keyspace;
  /// try_acquire arrivals per second in the fixed-rate phase: well
  /// below the knee even when a shared host lends the VM little CPU.
  double fixed_rate;
  double slo_hi;  // upper end of the SLO search
  int slo_steps;
  bool cluster;
};

/// One built stack plus its open-loop engine. Exactly one of
/// single/cluster is set.
struct ol_rig {
  std::unique_ptr<single_stack> single;
  std::unique_ptr<cluster_stack> cluster;
  std::unique_ptr<openloop> load;
  int primary = -1;
  svc::service& service() {
    return single ? single->service() : cluster->service(primary);
  }
  net::server& server() {
    return single ? single->server() : cluster->server(primary);
  }
  std::uint16_t port() const {
    return single ? single->port() : cluster->port(primary);
  }
};

/// The handoff probe: two api::clients pass a key of their own on the
/// workload's stack. Returns the handoff samples.
std::vector<double> handoff_probe(std::uint16_t port, std::int64_t duration_ns,
                                  run_state& st) {
  handoff probe("127.0.0.1:" + std::to_string(port), 2, key_name('h', 0),
                false, 20);
  if (!probe.connected()) die("handoff probe failed to connect");
  handoff_params hp;
  hp.duration_ns = duration_ns;
  handoff_outcome h = probe.run(hp);
  st.score(h);
  st.note("handoff_samples", static_cast<double>(h.handoff_us.size()));
  st.records.add_all(std::move(h.records));
  return std::move(h.handoff_us);
}

void run_openloop_workload(const options& o, const openloop_shape& w,
                           run_state& st) {
  const double secs = o.seconds;
  pinned_config cfg;
  if (w.cluster) {
    cfg.members = 3;
    cfg.executors = 4;
  }
  st.json.raw("config", cfg.to_json());

  // Shares of --seconds. Untraced: the fixed-rate phase, then the
  // handoff probe. Traced: an untraced fixed phase (the latency layers
  // and the SLO search's floor), the SLO search, the same fixed phase
  // traced, and the probe; the ladder and kills come on top.
  const double f_fixed = o.trace ? 0.25 : 0.8;
  const double f_slo = o.trace ? 0.35 : 0.0;
  const double f_probe = o.trace ? 0.15 : 0.2;
  const zipf z(w.keyspace, 0.99);
  const auto fixed_ns = static_cast<std::int64_t>(secs * f_fixed * 1e9);
  const auto step_ns =
      static_cast<std::int64_t>(secs * f_slo / (w.slo_steps + 1) * 1e9);
  const plan_input fixed = make_plans(
      z, o.seed * 16 + 1,
      static_cast<std::size_t>(w.fixed_rate * fixed_ns / 1e9 * 1.3) + 100,
      st.inputs);
  const plan_input slo = make_plans(
      z, o.seed * 16 + 2,
      static_cast<std::size_t>(w.slo_hi * step_ns / 1e9 * 1.3) + 100, st.inputs);
  const plan_input warm = make_plans(z, o.seed * 16 + 3, 400, st.inputs);

  std::vector<bool> watched(w.keyspace, false);
  std::vector<std::string> hot;
  for (std::uint32_t r = 0; r < 64; ++r) {
    const std::uint32_t k = z.key_of_rank(r);
    watched[k] = true;
    hot.push_back(key_name(w.prefix, k));
  }
  st.watched[60] = std::set<std::string>(hot.begin(), hot.end());
  hook_spans spans;

  openloop_params warm_p;
  warm_p.rate = w.fixed_rate;
  warm_p.duration_ns = 100'000'000;
  auto build = [&](bool keep) {
    ol_rig rig;
    if (w.cluster) {
      rig.cluster =
          std::make_unique<cluster_stack>(cfg, o.trace ? &spans : nullptr);
      rig.primary = rig.cluster->wait_for_primary(10s);
      if (rig.primary < 0 || !rig.cluster->wait_caught_up(5s)) {
        die("cluster never elected a healthy primary");
      }
    } else {
      rig.single = std::make_unique<single_stack>(cfg);
      if (!rig.single->ok()) die("server failed to listen");
    }
    std::vector<int> fds;
    for (int c = 0; c < 3; ++c) {
      const int fd = connect_raw(rig.port());
      if (fd < 0) die("load connection failed");
      fds.push_back(fd);
    }
    const int wfd = connect_raw(rig.port());
    if (wfd < 0 || !watch_raw(wfd, hot)) die("watcher connection failed");
    rig.load = std::make_unique<openloop>(std::move(fds), wfd, w.prefix, watched);
    openloop_outcome warmed = rig.load->run(warm, warm_p);
    if (keep) st.records.add_all(std::move(warmed.records));
    return rig;
  };
  ol_rig rig = timed_setups(o, build, st);

  openloop_params fixed_p;
  fixed_p.rate = w.fixed_rate;
  fixed_p.duration_ns = fixed_ns;
  const auto probe_ns = static_cast<std::int64_t>(secs * f_probe * 1e9);

  if (!o.trace) {
    openloop_outcome p1 = rig.load->run(fixed, fixed_p);
    st.score(p1);
    st.put("grants_s", median_rate(p1.grant_ns, p1.start_ns, fixed_ns), "1/s");
    // CPU time the program spent per op: the whole process minus the
    // benchmark's own sender and receiver threads.
    st.put("cpu_us_per_op",
           ratio(static_cast<double>(p1.cpu_ns - p1.gen_cpu_ns) / 1e3,
                 static_cast<double>(p1.ops_sent)),
           "us");
    st.note("ops", static_cast<double>(p1.ops_sent));
    st.note("acquire_p50_us", p50(p1.acquire_us));
    st.note("gen_late_p99_us", p99(p1.late_us));
    // Memory is taken after the fixed phase, before the probe.
    st.put("peak_rss_mb", peak_rss_mib(), "MiB");
    st.records.add_all(std::move(p1.records));
    rig.load.reset();
    st.put("handoff_p50_us", p50(handoff_probe(rig.port(), probe_ns, st)), "us");
    return;
  }

  layer_inputs li;
  li.nodes = cfg.nodes;
  openloop_outcome plain = rig.load->run(fixed, fixed_p);
  li.untraced_p50 = p50(plain.acquire_us);
  st.put("acquire_p50_us", li.untraced_p50, "us");
  st.put("acquire_p99_us", tail99(plain.acquire_us), "us");
  st.put("lease_op_p50_us", p50(plain.lease_op_us), "us");
  st.put("lease_op_p99_us", tail99(plain.lease_op_us), "us");
  const std::vector<double> lags = watch_lags_us(plain.events, plain.causes);
  st.put("watch_lag_p50_us", p50(lags), "us");
  st.put("watch_lag_p99_us", tail99(lags), "us");
  // The fixed phase is the SLO search's floor, judged like any step.
  const step_result floor{step_passes(plain.acquire_us, plain.acquire_head_us,
                                      plain.acquire_tail_us, plain.failed, false),
                          static_cast<double>(plain.ops_sent) / plain.seconds};
  st.score(plain);
  st.records.add_all(std::move(plain.records));

  openloop_params step_p;
  step_p.duration_ns = step_ns;
  step_p.abort_late_ns = static_cast<std::int64_t>(slo_limit_us * 1e3);
  const double slo_ops = bisect(
      w.fixed_rate, floor, w.slo_hi, w.slo_steps,
      [&](double rate) {
        step_p.rate = rate;
        openloop_outcome s = rig.load->run(slo, step_p);
        const step_result r{step_passes(s.acquire_us, s.acquire_head_us,
                                        s.acquire_tail_us, s.failed, s.aborted),
                            static_cast<double>(s.ops_sent) / s.seconds};
        // Not scored: a step past the knee is meant to fail.
        st.records.add_all(std::move(s.records));
        return r;
      },
      st);
  st.put("slo_rate_ops_s", slo_ops, "ops/s");

  {
    hub_watch hub(rig.service(), hot);
    spans.on.store(true);
    li.svc0 = rig.service().report();
    li.net0 = rig.server().report();
    li.obs0 = obs::counters();
    repl::node_counters c0{};
    cmd::log_stats log0{};
    if (w.cluster) {
      c0 = rig.cluster->node(rig.primary).counters();
      log0 = rig.service().registry().log_stats();
    }
    openloop_outcome traced = rig.load->run(fixed, fixed_p);
    li.svc1 = rig.service().report();
    li.net1 = rig.server().report();
    li.obs1 = obs::counters();
    spans.on.store(false);
    li.client_ops = static_cast<double>(traced.ops_sent);
    li.traced_p50 = p50(traced.acquire_us);
    li.late_p99_us = p99(traced.late_us);
    li.wire_lag_us = watch_lags_us(traced.events, traced.causes);
    {
      const std::lock_guard<std::mutex> lock(hub.mutex);
      li.hub_lag_us = watch_lags_us(hub.events, traced.causes);
    }
    if (w.cluster) {
      const repl::node_counters c1 = rig.cluster->node(rig.primary).counters();
      li.entries_per_append = ratio(
          static_cast<double>(c1.entries_replicated - c0.entries_replicated),
          static_cast<double>(c1.appends_sent - c0.appends_sent));
      const auto log = rig.service().registry().log_stats();
      li.cmd_retained = static_cast<double>(log.retained);
      li.cmd_recorded_per_op = ratio(
          static_cast<double>(log.recorded - log0.recorded), li.client_ops);
    }
    st.score(traced);
    st.records.add_all(std::move(traced.records));
  }
  rig.load.reset();
  st.put("handoff_p99_us", tail99(handoff_probe(rig.port(), probe_ns, st)), "us");

  if (w.cluster) {
    // Not scored: ops during a failover are meant to fail.
    outage_outcome out = run_kills(*rig.cluster, 3);
    st.records.add_all(std::move(out.records));
    li.time_to_primary_ms = p50(out.to_primary_ms);
    li.failover_gap_ms = p50(out.gap_ms);
    li.elections_per_failover = out.elections_per_failover;
    li.commit_timeouts = out.commit_timeouts;
    li.append_failures = out.append_failures;
    li.commit_wait_us = spans.commit_wait_us;
    li.append_serve_us = spans.append_serve_us;
  }
  rig.single.reset();
  rig.cluster.reset();
  pinned_config ccfg;
  ccfg.members = 3;
  ccfg.executors = 4;
  hook_spans ladder_spans;
  li.ladder = run_ladder(ladder_from_plans(fixed, w.prefix, 3), cfg, ccfg,
                         ladder_spans, !w.cluster);
  if (!w.cluster) take_cluster_layers_from_ladder(li, ladder_spans);
  put_layers(st, li);
}

// ---------------------------------------------------------------------
// hot_key_handoff: 4 api::clients on one key.

void run_hot_key_handoff(const options& o, run_state& st) {
  const double secs = o.seconds;
  pinned_config cfg;
  st.json.raw("config", cfg.to_json());
  const std::string key = "hot";
  constexpr int threads = 4;
  constexpr int slo_steps = 6;
  // Shares of --seconds. Untraced: one closed loop. Traced: an
  // untraced closed loop (the latency layers), the SLO search, the
  // closed loop traced, and a paced run for generator lateness; the
  // ladder comes on top.
  const double f_closed = o.trace ? 0.25 : 1.0;
  const double f_slo = 0.4;
  const auto closed_ns = static_cast<std::int64_t>(secs * f_closed * 1e9);
  const auto step_ns =
      static_cast<std::int64_t>(secs * f_slo / (slo_steps + 2) * 1e9);

  // Pacing gaps per thread for the SLO search (the search's upper rate
  // sets how many are needed).
  std::vector<std::vector<double>> gaps(threads);
  for (int t = 0; t < threads; ++t) {
    uniform u(o.seed * 16 + 4 + static_cast<std::uint64_t>(t));
    for (int i = 0; i < 4096; ++i) {
      gaps[static_cast<std::size_t>(t)].push_back(u.exp1());
      st.inputs.add(gaps[static_cast<std::size_t>(t)].back());
    }
  }
  st.watched[60] = {key};

  struct rig_t {
    std::unique_ptr<single_stack> stack;
    std::unique_ptr<handoff> load;
  };
  auto build = [&](bool keep) {
    rig_t rig;
    rig.stack = std::make_unique<single_stack>(cfg);
    if (!rig.stack->ok()) die("server failed to listen");
    rig.load = std::make_unique<handoff>(
        "127.0.0.1:" + std::to_string(rig.stack->port()), threads, key, true, 20);
    if (!rig.load->connected()) die("handoff clients failed to connect");
    handoff_params warm;
    warm.duration_ns = 100'000'000;
    handoff_outcome w = rig.load->run(warm);
    if (keep) st.records.add_all(std::move(w.records));
    return rig;
  };
  rig_t rig = timed_setups(o, build, st);
  svc::service& service = rig.stack->service();

  handoff_params closed;
  closed.duration_ns = closed_ns;
  closed.rss_mark_grants = 2000;

  if (!o.trace) {
    handoff_outcome p1 = rig.load->run(closed);
    st.score(p1);
    st.put("grants_s", median_rate(p1.grant_ns, p1.start_ns, closed_ns), "1/s");
    // Every thread here is the program's (the api::client library),
    // bar the benchmark's own loop around each call.
    st.put("cpu_us_per_op",
           ratio(static_cast<double>(p1.cpu_ns) / 1e3,
                 static_cast<double>(p1.attempted)),
           "us");
    st.put("handoff_p50_us", p50(p1.handoff_us), "us");
    st.note("handoff_samples", static_cast<double>(p1.handoff_us.size()));
    st.note("rss_at_grant_mark", p1.rss_mib_at_mark > 0.0);
    st.put("peak_rss_mb",
           p1.rss_mib_at_mark > 0.0 ? p1.rss_mib_at_mark : peak_rss_mib(), "MiB");
    st.records.add_all(std::move(p1.records));
    return;
  }

  layer_inputs li;
  li.nodes = cfg.nodes;
  handoff_outcome plain = rig.load->run(closed);
  li.untraced_p50 = p50(plain.handoff_us);
  st.put("acquire_p50_us", p50(plain.acquire_us), "us");
  st.put("acquire_p99_us", tail99(plain.acquire_us), "us");
  st.put("lease_op_p50_us", p50(plain.release_us), "us");
  st.put("lease_op_p99_us", tail99(plain.release_us), "us");
  st.put("handoff_p99_us", tail99(plain.handoff_us), "us");
  const std::vector<double> lags = watch_lags_us(plain.events, plain.causes);
  st.put("watch_lag_p50_us", p50(lags), "us");
  st.put("watch_lag_p99_us", tail99(lags), "us");
  st.score(plain);
  st.records.add_all(std::move(plain.records));

  // The SLO search: lock requests paced per thread.
  handoff_params step_p;
  step_p.duration_ns = step_ns;
  step_p.unit_gaps = &gaps;
  const double slo_ops = bisect(
      150.0, std::nullopt, 2400.0, slo_steps,
      [&](double rate) {
        step_p.rate = rate;
        handoff_outcome s = rig.load->run(step_p);
        const step_result r{step_passes(s.acquire_us, s.acquire_head_us,
                                        s.acquire_tail_us, s.failed, false),
                            static_cast<double>(s.attempted) / s.seconds};
        // Not scored: a step past the knee is meant to fail.
        st.records.add_all(std::move(s.records));
        return r;
      },
      st);
  st.put("slo_rate_ops_s", slo_ops, "ops/s");

  {
    hub_watch hub(service, {key});
    li.svc0 = service.report();
    li.net0 = rig.stack->server().report();
    li.obs0 = obs::counters();
    handoff_outcome traced = rig.load->run(closed);
    li.svc1 = service.report();
    li.net1 = rig.stack->server().report();
    li.obs1 = obs::counters();
    li.client_ops = static_cast<double>(traced.attempted);
    li.traced_p50 = p50(traced.handoff_us);
    li.wire_lag_us = watch_lags_us(traced.events, traced.causes);
    {
      const std::lock_guard<std::mutex> lock(hub.mutex);
      li.hub_lag_us = watch_lags_us(hub.events, traced.causes);
    }
    st.score(traced);
    st.records.add_all(std::move(traced.records));
  }
  // Generator lateness comes from the paced mode at half capacity.
  handoff_params paced;
  paced.duration_ns = step_ns;
  paced.rate = std::max(50.0, 0.5 * static_cast<double>(
                                        li.svc1.wins - li.svc0.wins) /
                                  (static_cast<double>(closed_ns) / 1e9));
  paced.unit_gaps = &gaps;
  handoff_outcome pace = rig.load->run(paced);
  li.late_p99_us = p99(pace.late_us);
  st.records.add_all(std::move(pace.records));
  rig.load.reset();
  rig.stack.reset();
  pinned_config ccfg;
  ccfg.members = 3;
  ccfg.executors = 4;
  ladder_ops ops;
  ops.conns = threads;
  ops.renews = false;
  for (int i = 0; i < 3000; ++i) {
    ops.keys.push_back(key);
    ops.conn.push_back(i % threads);
  }
  hook_spans ladder_spans;
  li.ladder = run_ladder(ops, cfg, ccfg, ladder_spans, true);
  take_cluster_layers_from_ladder(li, ladder_spans);
  put_layers(st, li);
}

// ---------------------------------------------------------------------
// The correctness gate.

/// Every acked grant and release on a watched key must reach its
/// watcher exactly once, and no transition may arrive twice.
std::vector<std::string> check_delivery(
    const std::vector<chaos::record>& records,
    const std::map<int, std::set<std::string>>& watched) {
  std::vector<std::string> out;
  for (const auto& [watcher, keys] : watched) {
    std::map<std::tuple<std::string, std::uint64_t, std::uint8_t>, int> seen;
    for (const chaos::record& r : records) {
      if (r.op == chaos::op_kind::watch_event && r.worker == watcher) {
        seen[{r.key, r.epoch, r.transition}]++;
      }
    }
    for (const auto& [k, n] : seen) {
      if (n > 1) {
        out.push_back("watch: key '" + std::get<0>(k) + "' epoch " +
                      std::to_string(std::get<1>(k)) + " delivered " +
                      std::to_string(n) + " times");
      }
    }
    for (const chaos::record& r : records) {
      if (r.result != chaos::outcome::ok || r.worker == watcher ||
          keys.count(r.key) == 0) {
        continue;
      }
      std::uint8_t kind = 0;
      if (r.op == chaos::op_kind::acquire) {
        kind = static_cast<std::uint8_t>(svc::transition::elected);
      } else if (r.op == chaos::op_kind::release) {
        kind = static_cast<std::uint8_t>(svc::transition::released);
      } else {
        continue;
      }
      const auto it = seen.find({r.key, r.epoch, kind});
      if (it == seen.end()) {
        out.push_back("watch: key '" + r.key + "' epoch " +
                      std::to_string(r.epoch) + " " +
                      std::string(svc::to_string(static_cast<svc::transition>(kind))) +
                      " never delivered");
      }
    }
  }
  return out;
}

/// The gate must convict a forged history: one granted (key, epoch)
/// from the run, claimed a second time by a worker that never held it.
bool gate_convicts_forgery(const std::vector<chaos::record>& records) {
  const auto g = std::find_if(records.begin(), records.end(),
                              [](const chaos::record& r) {
                                return r.op == chaos::op_kind::acquire &&
                                       r.result == chaos::outcome::ok;
                              });
  if (g == records.end()) return false;
  std::vector<chaos::record> forged;
  for (const chaos::record& r : records) {
    if (r.key == g->key) forged.push_back(r);
  }
  chaos::record dup = *g;
  dup.worker = 99;
  dup.start_us += 1;
  dup.end_us += 1;
  forged.push_back(dup);
  std::stable_sort(forged.begin(), forged.end(),
                   [](const chaos::record& a, const chaos::record& b) {
                     return a.start_us < b.start_us;
                   });
  const chaos::report rep = chaos::check(forged, {});
  return std::any_of(rep.violations.begin(), rep.violations.end(),
                     [](const chaos::violation& v) { return v.rule == "R1"; });
}

/// Confine the whole process — load generator and in-process servers —
/// to one CPU, the last in its affinity mask; returns it (-1 on
/// failure). On a shared VM a wake-up that crosses to an idle vCPU
/// waits for the host to run it, which swung latencies 3-10x between
/// runs; on one CPU every hand-off between threads is a local context
/// switch, and runs repeat. The configured reactors, executors and
/// election pool then time-slice that CPU: the benchmark measures a
/// one-CPU program, not parallel scaling. Called before any thread
/// exists, so every thread inherits the mask.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

/// CPUs the process may run on now.
int cpus_allowed() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (::sched_getaffinity(0, sizeof mask, &mask) != 0) return 0;
  return CPU_COUNT(&mask);
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

int run(int argc, char** argv) {
  const int host_cpus = cpus_allowed();
  const int cpu = pin_to_one_cpu();
  options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seconds") {
      o.seconds = std::max(1, std::atoi(value.c_str()));
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--source-hash") {
      o.source_hash = value;
    } else if (flag != "--seed") {
      die("unknown flag " + flag);
    }
  }
  o.seed = bench::parse_seed(argc, argv, 1);

  run_state st("stack_" + o.workload + "_s" + std::to_string(o.seed) + "_t" +
               (o.trace ? "1" : "0"));
  st.json.meta_field("workload", o.workload);
  st.json.meta_field("seed", static_cast<std::int64_t>(o.seed));
  st.json.meta_field("seconds", static_cast<std::int64_t>(o.seconds));
  st.json.meta_field("trace", o.trace);
  // nproc is what the program ran on; host_nproc what it was offered.
  st.json.meta_field("nproc", static_cast<std::int64_t>(cpus_allowed()));
  st.json.meta_field("host_nproc", static_cast<std::int64_t>(host_cpus));
  st.json.meta_field("cpu", static_cast<std::int64_t>(cpu));
  st.json.meta_field("source_hash", o.source_hash);

  if (o.workload == "lease_churn") {
    run_openloop_workload(
        o, {'k', 1u << 20, 2000.0, 64000.0, 8, false}, st);
  } else if (o.workload == "replicated_lease") {
    run_openloop_workload(
        o, {'r', 1u << 16, 400.0, 16000.0, 7, true}, st);
  } else if (o.workload == "hot_key_handoff") {
    run_hot_key_handoff(o, st);
  } else {
    die("unknown workload '" + o.workload + "'");
  }
  if (!o.trace) {
    st.put("ok_frac",
           st.attempted == 0 ? 0.0
                             : 1.0 - static_cast<double>(st.failed) /
                                         static_cast<double>(st.attempted),
           "ratio");
  }
  st.json.meta_field("schedule_hash", st.inputs.hex());

  // The correctness gate.
  const std::vector<chaos::record> records = st.records.take();
  const chaos::report rep = chaos::check(records, {});
  std::vector<std::string> problems;
  for (const auto& v : rep.violations) problems.push_back(v.rule + " " + v.detail);
  for (auto& p : check_delivery(records, st.watched)) problems.push_back(std::move(p));
  const bool forgery_caught = gate_convicts_forgery(records);
  std::fprintf(stderr, "%s", rep.to_string().c_str());
  if (!forgery_caught) problems.push_back("gate did not convict a forged duplicate grant");
  if (!problems.empty()) {
    for (std::size_t i = 0; i < std::min<std::size_t>(problems.size(), 20); ++i) {
      std::fprintf(stderr, "  VIOLATION %s\n", problems[i].c_str());
    }
    std::fprintf(stderr, "bench_stack: correctness gate failed (%zu problems)\n",
                 problems.size());
    return 3;
  }
  std::fprintf(stderr, "gate: %zu records OK; forged duplicate grant convicted\n",
               records.size());

  std::string metrics = "{";
  for (std::size_t i = 0; i < st.metrics.size(); ++i) {
    const metric& m = st.metrics[i];
    if (i > 0) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  metrics += "}";
  st.json.raw("correct", "true");
  st.json.field("attempted", st.attempted);
  st.json.field("failed", st.failed);
  st.json.field("checked_records", static_cast<std::uint64_t>(records.size()));
  st.json.raw("metrics", metrics);
  st.json.raw("detail", st.detail + "}");
  st.json.write();
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(st.attempted),
              static_cast<unsigned long long>(st.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace bstack

int main(int argc, char** argv) { return bstack::run(argc, argv); }
