// Aggregated service metrics: per-shard operation counters plus a
// lock-free log-bucketed latency histogram for acquire calls.
//
// Counters are plain atomics bumped on the hot path; quantiles are read
// from the histogram only when a report is taken. The service folds in
// the node pool's engine::metrics (communicate calls) and the transport's
// delivery counters so one report covers the whole stack.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "election/strategy.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "svc/watch.hpp"

namespace elect::svc {

/// Histogram over latencies in nanoseconds; bucket b holds samples in
/// [2^b, 2^(b+1)) (bucket 0 holds [0, 2)); the last bucket additionally
/// absorbs everything at or above 2^(bucket_count-1). Concurrent add(),
/// single-threaded quantile reads.
class latency_histogram {
 public:
  static constexpr int bucket_count = 48;  // up to ~78 hours

  void add(std::uint64_t nanos) noexcept {
    const int bucket =
        nanos == 0 ? 0 : std::min(bucket_count - 1,
                                  static_cast<int>(std::bit_width(nanos)) - 1);
    counts_[static_cast<std::size_t>(bucket)].fetch_add(
        1, std::memory_order_relaxed);
    sum_ns_.fetch_add(nanos, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
    return total;
  }

  /// Sum of all recorded samples, in nanoseconds — with count(), the
  /// `_count`/`_sum` pair a Prometheus histogram exposes directly.
  [[nodiscard]] std::uint64_t sum_ns() const noexcept {
    return sum_ns_.load(std::memory_order_relaxed);
  }

  /// Per-bucket counts (non-cumulative), bucket b covering [2^b, 2^(b+1)).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const {
    std::vector<std::uint64_t> out(bucket_count);
    for (int b = 0; b < bucket_count; ++b) {
      out[static_cast<std::size_t>(b)] =
          counts_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
    }
    return out;
  }

  /// Midpoint reported for samples landing in bucket `b` — the estimate
  /// quantile() returns when the nearest-rank sample falls there. Every
  /// bucket, including the overflow bucket, reports the midpoint of its
  /// nominal [2^b, 2^(b+1)) range, so the tail is consistent with the
  /// body (the overflow midpoint understates true >= 2^47 samples, but
  /// never jumps *below* the previous bucket's estimate the way the old
  /// lower-bound tail did).
  [[nodiscard]] static double bucket_midpoint(int b) noexcept {
    const double low = b == 0 ? 0.0 : static_cast<double>(1ULL << b);
    const double high = static_cast<double>(2ULL << b);
    return (low + high) / 2.0;
  }

  /// Approximate quantile (q in [0,1]): the midpoint of the bucket
  /// holding the nearest-rank sample; 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    ELECT_CHECK(q >= 0.0 && q <= 1.0);
    const std::uint64_t total = count();
    if (total == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total - 1) + 0.5);
    std::uint64_t seen = 0;
    for (int b = 0; b < bucket_count; ++b) {
      seen += counts_[static_cast<std::size_t>(b)].load(
          std::memory_order_relaxed);
      if (seen > rank) return bucket_midpoint(b);
    }
    // Unreachable when counts only grow (seen ends >= total > rank), but
    // keep the fallback consistent with the overflow bucket's midpoint.
    return bucket_midpoint(bucket_count - 1);
  }

 private:
  std::array<std::atomic<std::uint64_t>, bucket_count> counts_{};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Hot-path counters for one registry shard.
struct shard_counters {
  std::atomic<std::uint64_t> acquires{0};
  std::atomic<std::uint64_t> wins{0};
  std::atomic<std::uint64_t> releases{0};
  /// Leases force-released by the expiry sweeper.
  std::atomic<std::uint64_t> expirations{0};
  /// Successful renew() calls.
  std::atomic<std::uint64_t> renewals{0};
  /// release()/renew() calls rejected by epoch/holder fencing (zombies).
  std::atomic<std::uint64_t> stale_fences{0};
  /// Epochs ended by admin force-release (the operator's lever).
  std::atomic<std::uint64_t> forced_releases{0};
};

/// Acquire traffic attributed to one election strategy.
struct strategy_counters {
  std::atomic<std::uint64_t> acquires{0};
  std::atomic<std::uint64_t> wins{0};
};

struct strategy_report {
  std::uint64_t acquires = 0;
  std::uint64_t wins = 0;
};

/// Contention-adaptive fast-path traffic (strategy_kind::adaptive only).
struct fast_path_report {
  /// Epochs granted by the CAS fast path — no election ran.
  std::uint64_t hits = 0;
  /// Fast-path attempts that lost outright (epoch already held/stale).
  std::uint64_t conflicts = 0;
  /// Fast-path attempts that found a protocol armed and fell back to
  /// the full distributed election.
  std::uint64_t fallbacks = 0;

  /// hits / (hits + conflicts + fallbacks); 0 when no attempts.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t attempts = hits + conflicts + fallbacks;
    return attempts == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(attempts);
  }
};

/// Point-in-time snapshot of one shard.
struct shard_report {
  std::uint64_t acquires = 0;
  std::uint64_t wins = 0;
  std::uint64_t releases = 0;
  std::uint64_t expirations = 0;
  std::uint64_t renewals = 0;
  std::uint64_t stale_fences = 0;
  std::uint64_t forced_releases = 0;
  std::size_t keys = 0;
};

/// Point-in-time snapshot of the whole service.
struct service_report {
  std::vector<shard_report> shards;
  std::uint64_t acquires = 0;
  std::uint64_t wins = 0;
  std::uint64_t releases = 0;
  std::uint64_t expirations = 0;
  std::uint64_t renewals = 0;
  std::uint64_t stale_fences = 0;
  /// Epochs ended by admin force-release across all shards.
  std::uint64_t forced_releases = 0;
  /// Acquires turned away by a concurrent/completed stop() (not counted
  /// in `acquires`; they never reached an election).
  std::uint64_t rejected_acquires = 0;
  /// Acquire traffic per strategy, indexed by election::strategy_kind.
  std::array<strategy_report, election::strategy_kind_count> strategies{};
  /// Adaptive CAS fast-path traffic.
  fast_path_report fast_path;
  /// Protocol-path acquires that lost without running the protocol
  /// because the epoch was already granted (arm_protocol refused).
  std::uint64_t short_circuit_losses = 0;
  double acquire_p50_ms = 0.0;
  double acquire_p99_ms = 0.0;
  /// Acquire latency totals (histogram count/sum — what Prometheus
  /// renders as elect_acquire_latency_seconds_count/_sum).
  std::uint64_t acquire_latency_count = 0;
  double acquire_latency_sum_us = 0.0;
  /// Non-cumulative per-bucket counts, bucket b = [2^b, 2^(b+1)) ns.
  std::vector<std::uint64_t> acquire_latency_buckets;
  /// Per-node participated-map entries, summed over the pool (bounded by
  /// live keys x nodes, not by total epochs — see service::worker).
  std::uint64_t participated_entries = 0;
  /// Replicated variables held across the pool's node stores. Decided
  /// instances are forgotten, so this is bounded by live instances, not
  /// by total epochs.
  std::uint64_t pool_variables = 0;
  // Pool-level counters (engine::metrics + transport).
  std::uint64_t total_messages = 0;
  /// Messages delivered to pool nodes. The pool delivers each message
  /// once, so this equals total_messages.
  std::uint64_t mailbox_pushes = 0;
  /// Hash of every delivery's (from, to, token, body kind), in delivery
  /// order: equal seeds and equal call sequences give equal hashes.
  std::uint64_t pool_trace_hash = 0;
  double messages_per_acquire = 0.0;
  double mean_communicate_calls = 0.0;
  std::uint64_t max_communicate_calls = 0;
  /// Watch-hub subscription/delivery counters (svc/watch.hpp).
  watch_report watch;
  /// Tracer counters (obs/trace.hpp).
  obs::trace_counters trace;
  /// Event-journal counters (obs/journal.hpp); zeros when journaling is
  /// disabled.
  obs::journal_report journal;
  /// Optional pre-serialized JSON object from the layer wrapping the
  /// service (the TCP front-end's per-connection/frame counters —
  /// net::server::report()). Emitted verbatim as `"net":{...}` when
  /// non-empty, so one report covers the wire and the elections.
  std::string net_json;
  /// Same contract for the replication layer (elect::repl): the cluster
  /// node's role/term/commit/lag counters, emitted verbatim as
  /// `"repl":{...}` when non-empty.
  std::string repl_json;

  [[nodiscard]] std::string to_json() const;
};

class service_metrics {
 public:
  explicit service_metrics(int shard_count)
      : shards_(static_cast<std::size_t>(shard_count)) {}

  void record_acquire(int shard, election::strategy_kind kind, bool won,
                      std::uint64_t latency_ns) {
    auto& s = shards_[static_cast<std::size_t>(shard)];
    s.acquires.fetch_add(1, std::memory_order_relaxed);
    if (won) s.wins.fetch_add(1, std::memory_order_relaxed);
    auto& by_kind = strategies_[static_cast<std::size_t>(kind)];
    by_kind.acquires.fetch_add(1, std::memory_order_relaxed);
    if (won) by_kind.wins.fetch_add(1, std::memory_order_relaxed);
    acquire_latency_.add(latency_ns);
  }

  void record_fast_path_hit() {
    fast_path_hits_.fetch_add(1, std::memory_order_relaxed);
  }

  void record_fast_path_conflict() {
    fast_path_conflicts_.fetch_add(1, std::memory_order_relaxed);
  }

  void record_fast_path_fallback() {
    fast_path_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }

  void record_short_circuit_loss() {
    short_circuit_losses_.fetch_add(1, std::memory_order_relaxed);
  }

  void record_release(int shard) {
    shards_[static_cast<std::size_t>(shard)].releases.fetch_add(
        1, std::memory_order_relaxed);
  }

  void record_expiration(int shard) {
    shards_[static_cast<std::size_t>(shard)].expirations.fetch_add(
        1, std::memory_order_relaxed);
  }

  void record_renewal(int shard) {
    shards_[static_cast<std::size_t>(shard)].renewals.fetch_add(
        1, std::memory_order_relaxed);
  }

  void record_forced_release(int shard) {
    shards_[static_cast<std::size_t>(shard)].forced_releases.fetch_add(
        1, std::memory_order_relaxed);
  }

  void record_stale_fence(int shard) {
    shards_[static_cast<std::size_t>(shard)].stale_fences.fetch_add(
        1, std::memory_order_relaxed);
  }

  void record_rejected_acquire() {
    rejected_acquires_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] const latency_histogram& acquire_latency() const noexcept {
    return acquire_latency_;
  }

  /// Snapshot the per-shard counters and latency quantiles. The caller
  /// (service::report) fills in the pool-level fields.
  [[nodiscard]] service_report snapshot() const;

 private:
  std::vector<shard_counters> shards_;
  std::array<strategy_counters, election::strategy_kind_count> strategies_{};
  latency_histogram acquire_latency_;
  std::atomic<std::uint64_t> rejected_acquires_{0};
  std::atomic<std::uint64_t> fast_path_hits_{0};
  std::atomic<std::uint64_t> fast_path_conflicts_{0};
  std::atomic<std::uint64_t> fast_path_fallbacks_{0};
  std::atomic<std::uint64_t> short_circuit_losses_{0};
};

}  // namespace elect::svc
