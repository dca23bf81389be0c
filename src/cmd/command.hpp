// Command layer: every registry state mutation as a replayable record.
//
// The sharded registry (svc/registry.*) has five mutation call paths —
// client acquire/release/renew, the TTL sweeper, net-disconnect
// reclaim, admin force-release, and the adaptive CAS fast path. Each of
// them *decides* (who wins, what expires, who is fenced) and then emits
// one `command` describing the decision; a single deterministic
// executor applies it. That split is what makes the state machine
// replayable: fold the per-shard command stream into a fresh registry
// and you reconstruct the same epochs, holders, and grant modes — the
// prerequisite for replication and for deterministic re-checking of
// the epoch-fencing discipline (a replica that replays the stream can
// bump epochs on failover and zombies still get `stale_epoch`).
//
// Each command also carries its shard's strictly-increasing `seq`: keys
// never migrate between shards, so a shard's seqs are a complete order
// for the keys it owns — what replay validates and what a snapshot's
// per-shard watermark records. The command log (cmd/log.hpp) orders
// every command by one global index on top.
//
// Time in a command is *logical*: `at_ms` is milliseconds since the
// emitting registry's construction (steady-clock based, so wall-clock
// jumps cannot reorder or stretch the stream), and a lease is recorded
// as the TTL granted at `at_ms`, not as an absolute deadline. Replay on
// another machine — or after a restart — reconstructs deadlines as
// `at_ms + lease_ms` in the replaying registry's own timeline.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace elect::cmd {

/// Lease TTL sentinel: the grant never expires (registry TTL zero).
inline constexpr std::uint64_t lease_forever = ~0ull;

/// What happened. Every kind except `acquire_granted` / `renewed` ends
/// the key's current epoch (the executor bumps it); the distinctions
/// exist so downstream renderings — journal, watch, metrics — can tell
/// an operator kick from a TTL expiry from a dead connection.
enum class command_kind : std::uint8_t {
  /// An epoch was granted — by the adaptive CAS fast path or a protocol
  /// win; `mode` records which. `session` is the new leader, `epoch`
  /// the granted epoch, `lease_ms` the TTL handed out.
  acquire_granted = 0,
  /// The holder gave the key up voluntarily (fenced, unfenced, or
  /// release_all). `epoch` is the epoch that ended.
  released = 1,
  /// The holder extended its lease: new deadline `at_ms + lease_ms`.
  /// The only non-epoch-moving mutation.
  renewed = 2,
  /// The sweeper force-released an expired lease.
  expired = 3,
  /// An operator ended the epoch via admin force-release.
  force_released = 4,
  /// The network edge reclaimed the lease of a dead connection.
  disconnect_reclaimed = 5,
  /// The epoch was bumped with no holder involved — restore-time
  /// fencing (`session` is -1). Pre-restart leaseholders of `epoch`
  /// answer `stale_epoch` from then on.
  epoch_bumped = 6,
};

[[nodiscard]] std::string_view to_string(command_kind k);

/// How an `acquire_granted` epoch was granted (mirrors the registry's
/// private grant_mode): 1 = fast_claimed, 2 = protocol_armed. Zero on
/// every other kind.
inline constexpr std::uint8_t grant_mode_open = 0;
inline constexpr std::uint8_t grant_mode_fast_claimed = 1;
inline constexpr std::uint8_t grant_mode_protocol = 2;

struct command {
  /// Per-shard strictly-increasing sequence number, assigned when the
  /// emitting registry appends to its log (0 = never logged).
  std::uint64_t seq = 0;
  /// Owning shard (hash(key) % shard_count in the emitting registry).
  std::int32_t shard = -1;
  command_kind kind = command_kind::acquire_granted;
  std::string key{};
  /// Session the command is about: new leader (acquire_granted), the
  /// holder (released/renewed/expired/force_released/
  /// disconnect_reclaimed), or -1 (epoch_bumped).
  int session = -1;
  /// The epoch granted (acquire_granted/renewed) or ended (the rest).
  std::uint64_t epoch = 0;
  /// Grant mode for acquire_granted (grant_mode_* above); 0 otherwise.
  std::uint8_t mode = grant_mode_open;
  /// Logical timestamp: ms since the emitting registry's construction.
  std::uint64_t at_ms = 0;
  /// TTL granted at `at_ms` (acquire_granted/renewed); lease_forever
  /// when the lease never expires, and on every non-lease kind.
  std::uint64_t lease_ms = lease_forever;
};

/// One line of debug/admin rendering (not the replay format — replay
/// consumes the struct directly).
[[nodiscard]] std::string to_json(const command& c);

/// Command-log accounting, surfaced through the wire admin_snapshot op.
struct log_stats {
  /// Is the registry appending commands at all (is a cursor open)?
  bool recording = false;
  /// Entries ever appended: the log's last index (trimmed included).
  std::uint64_t recorded = 0;
  /// Entries currently retained in memory.
  std::uint64_t retained = 0;
};

}  // namespace elect::cmd
