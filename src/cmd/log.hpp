// The command log: a member's one record of its registry's command
// stream — a dense run of term-stamped entries over a compacted prefix.
//
// Indices are 1-based and never reused; an entry's index is its
// position. An entry is {term, command}: the term is the primary term
// the command was appended under, which is what lets a follower spot a
// deposed primary's uncommitted tail (same index, different term =>
// conflicting history). A command with shard -1 is the promotion
// barrier a fresh primary appends to assert its term; it carries no
// registry mutation and every reader skips it.
//
// Writers:
//   * the registry's live path (append_live), under the mutated key's
//     shard lock, which also gives the command its per-shard seq —
//     only while some cursor is open: with none the log records
//     nothing, and the live path builds no command payload;
//   * a cluster member's repl::core: follower appends, conflict
//     truncation, the promotion barrier, the commit index.
// Readers hold cursors — global-index positions that move forward:
// the service's observer feed (read_cursor: committed entries only),
// the registry's history behind record_commands, and on a cluster
// member the core's compaction point. An entry leaves once every open
// cursor has passed it; with no cursor open the log is empty. read()
// pages from a caller-held position without pinning anything.
//
// Two more positions: the commit index (observers read through it; on
// a standalone registry it follows the last live append, after
// commit_manually() only commit_to() moves it) and the applied index
// (the last entry the registry's state includes: every live append, or
// a follower's apply). A registry snapshot taken under every shard
// lock is an exact cut at the applied index.
//
// Thread-safe, one mutex. Lock order: a registry shard lock may be held
// while taking the log's lock, never the reverse.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cmd/command.hpp"
#include "common/bytes.hpp"

namespace elect::cmd {

struct log_entry {
  std::uint64_t term = 0;
  command change;
};

/// The promotion barrier: an entry with no registry mutation.
[[nodiscard]] inline bool is_barrier(const command& c) { return c.shard < 0; }

/// Append one entry's wire form (u64 term, then every replayable field
/// of the command, seq included) to `out`.
void encode_entry(byte_writer<std::string>& out, const log_entry& e);

/// Decode one entry; false (reader latched failed, or a field out of
/// range) on malformed input.
[[nodiscard]] bool decode_entry(byte_reader& in, log_entry& out,
                                std::uint32_t max_key_bytes);

class command_log {
 public:
  // --- Shape --------------------------------------------------------------

  [[nodiscard]] std::uint64_t last_index() const;
  [[nodiscard]] std::uint64_t last_term() const;
  /// Term of the entry at `index`; the compacted prefix's last term at
  /// the compaction boundary, 0 below it or past the end.
  [[nodiscard]] std::uint64_t term_at(std::uint64_t index) const;
  /// First index still held as an entry (compacted ones are gone).
  [[nodiscard]] std::uint64_t first_index() const;
  /// Entries held in memory.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t commit_index() const;
  /// The applied index and its term: where a snapshot cuts.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> applied() const;
  [[nodiscard]] log_stats stats() const;

  // --- The live path ------------------------------------------------------

  /// Is any cursor open? The live path's lock-free first check.
  [[nodiscard]] bool recording() const noexcept {
    return recording_.load(std::memory_order_relaxed);
  }

  /// While a cursor is open: stamp `c` with seq ++shard_seq (the caller
  /// holds that shard's lock), append it at the current term, and mark
  /// it applied (and, unless committing manually, committed). Else a
  /// no-op.
  void append_live(command c, std::uint64_t& shard_seq);

  /// The term live appends carry from now on (a promotion).
  void set_term(std::uint64_t term);

  // --- Replication --------------------------------------------------------

  /// Append a received entry (or the promotion barrier): neither applied
  /// nor committed yet.
  void append(log_entry e);

  /// Drop every entry at or above `index` (a new primary's history
  /// wins). No cursor stays past the new end.
  void truncate_from(std::uint64_t index);

  /// A copy of the entry at `index`, empty when it is not held.
  [[nodiscard]] std::optional<log_entry> entry(std::uint64_t index) const;

  /// Encode entries from `from` on into `out` — at most `max_entries`,
  /// stopping once `max_bytes` are written — and return how many.
  std::uint32_t encode(std::uint64_t from, std::size_t max_entries,
                       std::size_t max_bytes, std::string& out) const;

  void mark_applied(std::uint64_t index);

  /// Stop the commit index following the live path: from now on only
  /// commit_to() and rebase() move it.
  void commit_manually();
  void commit_to(std::uint64_t index);

  /// Restart the log at a snapshot covering [1, index]: no entries,
  /// applied, committed and every cursor at `index`.
  void rebase(std::uint64_t index, std::uint64_t term);

  // --- Cursors ------------------------------------------------------------

  /// Open a cursor at the commit index: it reads what commits from now
  /// on. Returns its id (never 0).
  [[nodiscard]] std::uint64_t open_cursor();
  /// Close a cursor; whatever only it still held leaves the log.
  void close_cursor(std::uint64_t id);
  /// Append cursor `id`'s unread committed commands to `out` (barriers
  /// skipped), move it past them and drop what every cursor has passed.
  void read_cursor(std::uint64_t id, std::vector<command>& out);
  /// Move cursor `id` forward to `index` (never back).
  void advance_cursor(std::uint64_t id, std::uint64_t index);

  /// Up to `max` committed commands with index > `after`, each with its
  /// index (barriers skipped): a read from a caller-held position that
  /// pins nothing (admin paging, replay tooling). Feed the commands to
  /// instance_registry::replay().
  [[nodiscard]] std::vector<std::pair<std::uint64_t, command>> read(
      std::uint64_t after, std::size_t max) const;

 private:
  [[nodiscard]] std::uint64_t last_locked() const noexcept {
    return base_index_ + entries_.size();
  }
  /// The last index readers may see: committed and held.
  [[nodiscard]] std::uint64_t committed_locked() const noexcept {
    return std::min(commit_, last_locked());
  }
  [[nodiscard]] std::uint64_t term_locked(std::uint64_t index) const noexcept;
  [[nodiscard]] const log_entry& at_locked(std::uint64_t index) const {
    return entries_[static_cast<std::size_t>(index - base_index_ - 1)];
  }
  /// Drop the prefix every open cursor has passed.
  void trim_locked();

  mutable std::mutex mu_;
  std::deque<log_entry> entries_;
  /// The compacted prefix [1, base_index_] and its last term.
  std::uint64_t base_index_ = 0;
  std::uint64_t base_term_ = 0;
  std::uint64_t term_ = 0;
  std::uint64_t commit_ = 0;
  std::uint64_t applied_ = 0;
  bool manual_commit_ = false;
  /// Open cursors as (id, index read through).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cursors_;
  std::uint64_t next_cursor_ = 1;
  std::atomic<bool> recording_{false};
};

}  // namespace elect::cmd
