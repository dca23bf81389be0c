// bench_stack — the repository benchmark: three seeded workloads driven
// from one process against an in-process server or 3-member cluster.
//
// This header holds what the engines, the workloads and the traced
// layer ladder share: the clock, summary statistics, the seeded input
// generators, the pinned stack configurations (single server and
// replicated cluster), and the record sinks the correctness gate reads.
// Every timing is taken from the benchmark's own side of a public
// entry point; nothing here reaches into the program's internals.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "chaos/history.hpp"
#include "net/server.hpp"
#include "repl/config.hpp"
#include "repl/node.hpp"
#include "svc/service.hpp"
#include "svc/watch.hpp"

namespace bstack {

using namespace elect;

// ---------------------------------------------------------------------
// Time. One steady clock for the whole process; every record, span and
// latency sample is in nanoseconds since the process's first call.

[[nodiscard]] std::int64_t now_ns();
/// Sleep until `t_ns` (now_ns() domain). Returns at once when past.
void sleep_until_ns(std::int64_t t_ns);
/// Ask for fine-grained timer wakeups on the calling thread (the
/// default 50 us slack would dominate a paced generator's lateness).
void fine_timer_slack();

// ---------------------------------------------------------------------
// Statistics.

/// Linear-interpolated quantile of `v` (copied and sorted); 0 if empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Tail percentile robust to a few bad moments: `v` (in time order) is
/// cut into consecutive chunks of `chunk` samples, and the result is the
/// median over chunks of each chunk's `q` quantile. With fewer than two
/// full chunks it is the plain quantile.
[[nodiscard]] double chunked_quantile(const std::vector<double>& v, double q,
                                      std::size_t chunk = 1000);
/// Events per second: the median, over the consecutive whole seconds
/// of [from_ns, from_ns + duration_ns), of each second's count (a stall
/// of the host slows one second, not the figure). Under one second,
/// the count over the duration.
[[nodiscard]] double median_rate(const std::vector<std::int64_t>& at_ns,
                                 std::int64_t from_ns, std::int64_t duration_ns);
/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();
/// CPU time used so far by the whole process / the calling thread, ns.
[[nodiscard]] std::int64_t process_cpu_ns();
[[nodiscard]] std::int64_t thread_cpu_ns();

// ---------------------------------------------------------------------
// Seeded inputs.

/// The key string for index `i` in a workload's keyspace: "<p><7
/// digits>", short enough for the small-string buffer.
[[nodiscard]] std::string key_name(char prefix, std::uint32_t i);

/// Deterministic uniform doubles in [0, 1) from a 64-bit seed (the
/// standard library's distributions are implementation-defined, so the
/// schedule would differ across toolchains).
class uniform {
 public:
  explicit uniform(std::uint64_t seed) : engine_(seed) {}
  double operator()() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  /// Exponential gap with mean 1.
  double exp1();

 private:
  std::mt19937_64 engine_;
};

/// Zipfian ranks over [0, n) with skew theta, by inverse CDF. Ranks
/// are scrambled into key indices by a fixed odd multiplier modulo
/// n (a power of two), so hot keys spread over the shards.
class zipf {
 public:
  zipf(std::uint32_t n, double theta);
  [[nodiscard]] std::uint32_t rank(double u) const;
  [[nodiscard]] std::uint32_t key_of_rank(std::uint32_t rank) const;

 private:
  std::uint32_t n_;
  std::vector<double> cdf_;
};

/// FNV-1a over the generated schedule: two result sets with the same
/// hash ran identical inputs.
class input_hash {
 public:
  void add(std::uint64_t v);
  void add(double v);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------------
// Records for the correctness gate. The checker treats a worker as one
// sequential client, so worker ids are: handoff thread t is 20 + t; the
// outage probe is 40; a watcher is 60; each open-loop lease (an acquire
// and its follow-ups, issued one at a time) is 1000 + its index.

class record_sink {
 public:
  void add_all(std::vector<chaos::record> rs);
  [[nodiscard]] std::vector<chaos::record> take();

 private:
  std::mutex mutex_;
  std::vector<chaos::record> records_;
};

[[nodiscard]] inline std::uint64_t to_us(std::int64_t ns) {
  return ns <= 0 ? 0 : static_cast<std::uint64_t>(ns / 1000);
}

/// A leader transition seen by a watcher (wire or hub), timestamped.
struct seen_event {
  std::string key;
  std::uint64_t epoch = 0;
  svc::transition kind = svc::transition::elected;
  int session = -1;
  std::int64_t at_ns = 0;
};

/// Identity of the op that causes a transition: (key, epoch, kind).
struct cause_key {
  std::string key;
  std::uint64_t epoch = 0;
  std::uint8_t kind = 0;
  bool operator==(const cause_key&) const = default;
};
struct cause_hash {
  std::size_t operator()(const cause_key& k) const noexcept {
    return std::hash<std::string>{}(k.key) ^ (k.epoch * 0x9E3779B97F4A7C15ull) ^
           k.kind;
  }
};
/// Causing op -> its send time.
using cause_map = std::unordered_map<cause_key, std::int64_t, cause_hash>;

/// Watch lags (us) of `events` against their causing ops; events with
/// no known cause are skipped.
[[nodiscard]] std::vector<double> watch_lags_us(
    const std::vector<seen_event>& events, const cause_map& causes);

// ---------------------------------------------------------------------
// Pinned program configuration. Every knob whose default follows the
// host (reactors) or picks a slower protocol (strategy) is written out.

struct pinned_config {
  /// The program's own randomness (election coin flips, election
  /// timeouts) is pinned like any other knob: the workload seed only
  /// generates inputs, so runs on different seeds see the same program.
  std::uint64_t program_seed = 1;
  election::strategy_kind strategy = election::strategy_kind::adaptive;
  int nodes = 4;
  int shards = 4;
  int reactors = 2;
  int executors = 2;
  bool reuseport = false;
  int max_inflight_per_connection = 64;
  std::uint64_t lease_ttl_ms = 10'000;
  std::uint64_t sweep_interval_ms = 1000;
  // Cluster only.
  int members = 1;
  std::uint64_t heartbeat_ms = 25;
  std::uint64_t election_timeout_min_ms = 110;
  std::uint64_t election_timeout_max_ms = 150;
  std::uint64_t commit_wait_ms = 3000;

  [[nodiscard]] svc::service_config service() const;
  [[nodiscard]] net::server_config server(std::uint16_t port) const;
  [[nodiscard]] std::string to_json() const;
};

/// Spans the benchmark records around hooks it installs itself (traced
/// runs only): the commit gate and the follower peer handler.
struct hook_spans {
  std::atomic<bool> on{false};
  std::mutex mutex;
  std::vector<double> commit_wait_us;
  std::vector<double> append_serve_us;
  void add_commit(double us);
  void add_append(double us);
};

/// One svc::service behind one net::server on a loopback port.
class single_stack {
 public:
  explicit single_stack(const pinned_config& cfg);
  ~single_stack();
  single_stack(const single_stack&) = delete;
  single_stack& operator=(const single_stack&) = delete;

  [[nodiscard]] svc::service& service() { return *service_; }
  [[nodiscard]] net::server& server() { return *server_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool ok() const { return server_->listening(); }

 private:
  pinned_config cfg_;
  std::uint16_t port_ = 0;
  std::unique_ptr<svc::service> service_;
  std::unique_ptr<net::server> server_;
};

/// An n-member repl cluster in one process. Members are stopped hard
/// (server, then node) and restarted fresh on their old port.
class cluster_stack {
 public:
  cluster_stack(const pinned_config& cfg, hook_spans* spans);
  ~cluster_stack();
  cluster_stack(const cluster_stack&) = delete;
  cluster_stack& operator=(const cluster_stack&) = delete;

  void stop_member(int i);
  void start_member(int i);
  /// Live primary's index, -1 when none.
  [[nodiscard]] int primary() const;
  [[nodiscard]] int wait_for_primary(std::chrono::milliseconds limit) const;
  /// Wait until every live member's commit index reached the
  /// primary's. False on timeout.
  [[nodiscard]] bool wait_caught_up(std::chrono::milliseconds limit) const;
  [[nodiscard]] std::string endpoints_csv() const;
  [[nodiscard]] std::uint16_t port(int i) const {
    return base_.members[static_cast<std::size_t>(i)].port;
  }
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] bool live(int i) const;
  [[nodiscard]] svc::service& service(int i) {
    return *services_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] repl::node& node(int i) {
    return *nodes_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] net::server& server(int i) {
    return *servers_[static_cast<std::size_t>(i)];
  }
  /// Sum of every member's elections_started (live or not).
  [[nodiscard]] std::uint64_t elections_started() const;

 private:
  pinned_config cfg_;
  hook_spans* spans_;
  repl::cluster_config base_;
  std::vector<bool> live_;
  std::uint64_t retired_elections_ = 0;
  std::vector<std::unique_ptr<svc::service>> services_;
  std::vector<std::unique_ptr<repl::node>> nodes_;
  std::vector<std::unique_ptr<net::server>> servers_;
};

}  // namespace bstack
