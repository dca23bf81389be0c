// elect::obs::journal — a bounded MPSC journal of typed service events.
//
// Every state change an operator cares about — a leader elected, a
// lease released or expired, a fenced (stale-epoch) lease op, a
// disconnect reclaim, a dropped watch event — is appended here as one
// typed record: sequence number, wall-clock timestamp, kind, key,
// epoch, holder, and a free-form cause. Producers are the service's
// observer feed (the registry's committed command stream), its fence
// counter, and the watch hub's drop hook; they only take the journal
// mutex long enough to push one record.
//
// Two consumers:
//   * the in-memory ring (capacity-bounded, oldest evicted + counted)
//     backs `tail(n)` for the report/admin surfaces;
//   * an optional JSONL sink: a flusher thread drains appended records
//     to an append-only file, one JSON object per line, so a crashed
//     server leaves a replayable event history on disk. Appends never
//     wait on the disk — a wedged filesystem costs pending-queue
//     memory (also bounded), not election latency.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace elect::obs {

/// What happened. Serialized by name in JSONL/JSON; append only.
enum class event_kind : std::uint8_t {
  /// A session won `key`'s election and holds the new epoch.
  elected = 0,
  /// The holder released voluntarily (explicit release or a polite
  /// disconnect).
  released = 1,
  /// The lease TTL lapsed; the sweeper ended the epoch.
  expired = 2,
  /// A lease op carried a fenced (stale) epoch and was rejected.
  stale_fence = 3,
  /// A connection died and the server reclaimed its held keys.
  disconnect_reclaim = 4,
  /// The watch hub's queue overflowed and discarded an event.
  watch_drop = 5,
  /// An operator ended the epoch via admin force-release (distinct from
  /// an expiry: somebody pulled the lever).
  force_released = 6,
  /// The epoch was bumped with no holder involved — restore-time
  /// fencing of pre-restart leaseholders.
  epoch_bumped = 7,
};

[[nodiscard]] std::string_view to_string(event_kind k);

struct event_record {
  /// Journal-assigned, strictly increasing from 1 — gaps never occur
  /// (eviction removes old records, it does not renumber).
  std::uint64_t seq = 0;
  /// Wall clock (system_clock), milliseconds since the Unix epoch.
  std::uint64_t ts_ms = 0;
  event_kind kind = event_kind::elected;
  std::string key;
  std::uint64_t epoch = 0;
  /// Session/holder id the record concerns; -1 when not applicable.
  int holder = -1;
  /// Why ("ttl", "renew", "admin", "disconnect", ...); may be empty.
  std::string cause;

  /// One JSON object, e.g.
  /// {"seq":3,"ts_ms":1754550000123,"kind":"elected","key":"locks/a",
  ///  "epoch":2,"holder":7,"cause":""}
  [[nodiscard]] std::string to_json() const;
};

/// Lifetime journal counters (reported under "journal" in the service
/// report JSON and as elect_journal_* Prometheus series).
struct journal_report {
  std::uint64_t appended = 0;
  /// Records evicted from the in-memory ring (capacity pressure).
  std::uint64_t evicted = 0;
  /// Records written to the JSONL sink.
  std::uint64_t flushed = 0;
  /// Records abandoned because the sink could not be written.
  std::uint64_t flush_errors = 0;
};

class journal {
 public:
  /// `capacity` bounds the in-memory ring; `jsonl_path` (optional)
  /// names an append-only file for the on-disk sink.
  explicit journal(std::size_t capacity, std::string jsonl_path = "");
  ~journal();

  journal(const journal&) = delete;
  journal& operator=(const journal&) = delete;

  void append(event_kind kind, std::string key, std::uint64_t epoch,
              int holder, std::string cause);

  /// The most recent `n` records, oldest first.
  [[nodiscard]] std::vector<event_record> tail(std::size_t n) const;

  [[nodiscard]] journal_report report() const;

  /// Drain the sink and join the flusher. Appends after stop() still
  /// land in the memory ring but no longer reach disk. Idempotent.
  void stop();

 private:
  void flusher_main();

  const std::size_t capacity_;
  const std::string path_;

  mutable std::mutex mutex_;
  std::condition_variable flush_cv_;
  std::deque<event_record> recent_;
  /// Records appended but not yet written to the sink.
  std::deque<event_record> pending_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t evicted_ = 0;
  std::uint64_t flushed_ = 0;
  std::uint64_t flush_errors_ = 0;
  bool stopped_ = false;

  std::thread flusher_;
};

}  // namespace elect::obs
