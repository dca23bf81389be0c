// The three load engines of bench_stack.
//
//   openloop  — one paced sender thread and one receiver thread speaking
//               the net::wire codec on pipelined connections, so every
//               reply is timestamped when it arrives (net::client::take
//               blocks per id and would add head-of-line delay). Each
//               scheduled try_acquire that wins is renewed twice and
//               released with its epoch, at fixed offsets from its own
//               intended send time. Latency is measured from the
//               intended send time.
//   handoff   — api::client threads passing one key with blocking
//               acquire, a fixed hold and a release; closed loop, or
//               paced per thread from a seeded schedule.
//   outage    — hard-stops the cluster primary while a probe issues
//               ops through an endpoint-list net::client, timing
//               stop -> first successful ack.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace bstack {

// ---------------------------------------------------------------------
// Raw wire connections.

/// Connect to 127.0.0.1:port and complete the hello. Returns the fd,
/// -1 on failure.
[[nodiscard]] int connect_raw(std::uint16_t port);
/// Subscribe `fd` to every key in `keys` (blocking, before any load).
[[nodiscard]] bool watch_raw(int fd, const std::vector<std::string>& keys);

// ---------------------------------------------------------------------
// openloop

/// Pre-generated, rate-free inputs: a key sequence and unit-rate
/// Poisson arrival times. A phase at rate r sends plan i at
/// unit_at[i] / r seconds.
struct plan_input {
  std::vector<std::uint32_t> keys;
  std::vector<double> unit_at;
};

/// Generate `count` plans over `z` from `seed` (hashing them into `h`).
[[nodiscard]] plan_input make_plans(const zipf& z, std::uint64_t seed,
                                    std::size_t count, input_hash& h);

struct openloop_params {
  double rate = 0.0;  // try_acquire arrivals per second
  std::int64_t duration_ns = 0;
  std::int64_t follow_ns[3] = {2'000'000, 4'000'000, 6'000'000};
  /// Stop sending new acquires once the sender runs this far behind
  /// schedule (0 = never): a bisection step past the knee ends early.
  std::int64_t abort_late_ns = 0;
  std::int64_t drain_ns = 5'000'000'000;
};

struct openloop_outcome {
  std::vector<double> acquire_us;  // from intended send
  std::vector<double> lease_op_us;
  std::vector<double> late_us;     // actual minus intended send
  /// acquire_us of the first and last quarter of the schedule.
  std::vector<double> acquire_head_us, acquire_tail_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t grants = 0;
  std::vector<std::int64_t> grant_ns;  // receipt of each grant
  std::int64_t start_ns = 0;           // the schedule's time zero
  std::uint64_t ops_sent = 0;
  double seconds = 0.0;
  /// CPU time over the phase: the whole process, and the generator's
  /// own sender and receiver threads.
  std::int64_t cpu_ns = 0, gen_cpu_ns = 0;
  bool aborted = false;
  std::vector<chaos::record> records;
  /// Acked transitions on watched keys -> send time of the causing op.
  cause_map causes;
  std::vector<seen_event> events;  // wire watch events
};

class openloop {
 public:
  /// Takes ownership of the fds. `watch_fd` may be -1. `watched[k]`
  /// marks key index k as watched (causes are kept only for those).
  openloop(std::vector<int> fds, int watch_fd, char prefix,
           std::vector<bool> watched);
  ~openloop();
  openloop(const openloop&) = delete;
  openloop& operator=(const openloop&) = delete;

  [[nodiscard]] openloop_outcome run(const plan_input& in,
                                     const openloop_params& p);

 private:
  std::vector<int> fds_;
  int watch_fd_;
  char prefix_;
  std::vector<bool> watched_;
  /// Per connection (watcher last); kept across runs so a frame split
  /// over a phase boundary still parses.
  std::vector<net::wire::frame_reader> readers_;
  /// Request ids are unique across runs, so a straggler reply from an
  /// earlier phase can never land in a later phase's slot.
  std::uint64_t next_id_ = 1000;
  /// Checker identity: every lease is its own sequential worker.
  int next_worker_ = 1000;
};

// ---------------------------------------------------------------------
// handoff

struct handoff_params {
  std::int64_t duration_ns = 0;
  std::int64_t hold_ns = 200'000;
  /// 0 = closed loop; otherwise lock requests per second over all
  /// threads, paced per thread by `unit_gaps`.
  double rate = 0.0;
  /// Per-thread unit-rate exponential gaps (paced mode).
  const std::vector<std::vector<double>>* unit_gaps = nullptr;
  /// Read peak RSS once this many grants were made (0 = never): a
  /// closed loop's op count follows the host's speed, so memory is read
  /// at a fixed amount of work.
  std::uint64_t rss_mark_grants = 0;
};

struct handoff_outcome {
  std::vector<double> acquire_us;  // call (or intended time) -> grant
  std::vector<double> release_us;
  std::vector<double> handoff_us;  // release send -> next grant receipt
  std::vector<double> late_us;     // paced mode: start minus intended
  std::vector<double> acquire_head_us, acquire_tail_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t grants = 0;
  std::vector<std::int64_t> grant_ns;  // receipt of each grant
  std::int64_t start_ns = 0;
  double seconds = 0.0;
  std::int64_t cpu_ns = 0;         // whole-process CPU time over the run
  double rss_mib_at_mark = 0.0;    // 0 when the mark was not reached
  std::vector<chaos::record> records;
  cause_map causes;                // release send per (key, epoch)
  std::vector<seen_event> events;  // thread 0's watch on the key
};

class handoff {
 public:
  /// `endpoint` is "host:port"; `threads` api::clients connect now.
  /// With `watch`, client 0 also watches `key`.
  handoff(const std::string& endpoint, int threads, std::string key,
          bool watch, int worker_base);
  ~handoff();
  handoff(const handoff&) = delete;
  handoff& operator=(const handoff&) = delete;

  [[nodiscard]] bool connected() const;
  [[nodiscard]] handoff_outcome run(const handoff_params& p);

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

// ---------------------------------------------------------------------
// outage

/// What `run_kills` measured: per kill, and summed over the members.
struct outage_outcome {
  std::vector<double> gap_ms;           // stop -> first successful ack
  std::vector<double> to_primary_ms;    // stop -> a survivor is primary
  double elections_per_failover = 0.0;  // elections_started / kills
  double commit_timeouts = 0.0;         // every member, whole cluster life
  double append_failures = 0.0;
  std::vector<chaos::record> records;  // the probe's ops, for the gate
};

/// Hard-stop the cluster's primary `kills` times while a probe issues
/// try_acquire/release through an endpoint-list net::client; each
/// victim is restarted and caught up before the next kill.
[[nodiscard]] outage_outcome run_kills(cluster_stack& cluster, int kills);

}  // namespace bstack
