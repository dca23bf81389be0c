#include "cmd/log.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace elect::cmd {

namespace {

/// Highest valid command_kind raw value (the enum is dense from 0).
constexpr std::uint8_t kind_max =
    static_cast<std::uint8_t>(command_kind::epoch_bumped);

}  // namespace

void encode_entry(byte_writer<std::string>& out, const log_entry& e) {
  const command& c = e.change;
  out.u64(e.term);
  out.u64(c.seq);
  out.i32(c.shard);
  out.u8(static_cast<std::uint8_t>(c.kind));
  out.str(c.key);
  out.i32(c.session);
  out.u64(c.epoch);
  out.u8(c.mode);
  out.u64(c.at_ms);
  out.u64(c.lease_ms);
}

bool decode_entry(byte_reader& in, log_entry& out,
                  std::uint32_t max_key_bytes) {
  command& c = out.change;
  std::uint8_t kind = 0;
  if (!in.u64(out.term) || !in.u64(c.seq) || !in.i32(c.shard) ||
      !in.u8(kind) || !in.str(c.key, max_key_bytes) || !in.i32(c.session) ||
      !in.u64(c.epoch) || !in.u8(c.mode) || !in.u64(c.at_ms) ||
      !in.u64(c.lease_ms)) {
    return false;
  }
  if (kind > kind_max || c.mode > grant_mode_protocol) return false;
  c.kind = static_cast<command_kind>(kind);
  return true;
}

std::uint64_t command_log::term_locked(std::uint64_t index) const noexcept {
  if (index == base_index_) return base_term_;
  if (index < base_index_ || index > last_locked()) return 0;
  return at_locked(index).term;
}

std::uint64_t command_log::last_index() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return last_locked();
}

std::uint64_t command_log::last_term() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return term_locked(last_locked());
}

std::uint64_t command_log::term_at(std::uint64_t index) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return term_locked(index);
}

std::uint64_t command_log::first_index() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return base_index_ + 1;
}

std::size_t command_log::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t command_log::commit_index() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return commit_;
}

std::pair<std::uint64_t, std::uint64_t> command_log::applied() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {applied_, term_locked(applied_)};
}

log_stats command_log::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {.recording = !cursors_.empty(),
          .recorded = last_locked(),
          .retained = entries_.size()};
}

void command_log::append_live(command c, std::uint64_t& shard_seq) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (cursors_.empty()) return;
  c.seq = ++shard_seq;
  entries_.push_back({term_, std::move(c)});
  applied_ = last_locked();
  if (!manual_commit_) commit_ = applied_;
}

void command_log::set_term(std::uint64_t term) {
  const std::lock_guard<std::mutex> lock(mu_);
  term_ = term;
}

void command_log::append(log_entry e) {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(std::move(e));
}

void command_log::truncate_from(std::uint64_t index) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t keep = index <= base_index_ ? 0 : index - base_index_ - 1;
  if (keep < entries_.size()) entries_.resize(static_cast<std::size_t>(keep));
  const std::uint64_t last = last_locked();
  applied_ = std::min(applied_, last);
  for (auto& cursor : cursors_) cursor.second = std::min(cursor.second, last);
}

std::optional<log_entry> command_log::entry(std::uint64_t index) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (index <= base_index_ || index > last_locked()) return std::nullopt;
  return at_locked(index);
}

std::uint32_t command_log::encode(std::uint64_t from, std::size_t max_entries,
                                  std::size_t max_bytes,
                                  std::string& out) const {
  byte_writer writer(out);
  const std::size_t start = out.size();
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint32_t count = 0;
  for (std::uint64_t i = std::max(from, base_index_ + 1);
       i <= last_locked() && count < max_entries &&
       out.size() - start < max_bytes;
       ++i, ++count) {
    encode_entry(writer, at_locked(i));
  }
  return count;
}

void command_log::mark_applied(std::uint64_t index) {
  const std::lock_guard<std::mutex> lock(mu_);
  applied_ = index;
}

void command_log::commit_manually() {
  const std::lock_guard<std::mutex> lock(mu_);
  manual_commit_ = true;
}

void command_log::commit_to(std::uint64_t index) {
  const std::lock_guard<std::mutex> lock(mu_);
  commit_ = std::max(commit_, index);
}

void command_log::rebase(std::uint64_t index, std::uint64_t term) {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  base_index_ = index;
  base_term_ = term;
  applied_ = index;
  commit_ = index;
  for (auto& cursor : cursors_) cursor.second = index;
}

std::uint64_t command_log::open_cursor() {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_cursor_++;
  cursors_.emplace_back(id, commit_);
  recording_.store(true, std::memory_order_relaxed);
  return id;
}

void command_log::close_cursor(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(cursors_, [id](const auto& c) { return c.first == id; });
  recording_.store(!cursors_.empty(), std::memory_order_relaxed);
  trim_locked();
}

void command_log::read_cursor(std::uint64_t id, std::vector<command>& out) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto cursor = std::find_if(cursors_.begin(), cursors_.end(),
                                   [id](const auto& c) { return c.first == id; });
  ELECT_CHECK_MSG(cursor != cursors_.end(), "read_cursor: unknown cursor");
  const std::uint64_t through = committed_locked();
  if (cursor->second >= through) return;
  for (std::uint64_t i = std::max(cursor->second, base_index_) + 1;
       i <= through; ++i) {
    if (!is_barrier(at_locked(i).change)) out.push_back(at_locked(i).change);
  }
  cursor->second = through;
  trim_locked();
}

void command_log::advance_cursor(std::uint64_t id, std::uint64_t index) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& cursor : cursors_) {
    if (cursor.first == id) cursor.second = std::max(cursor.second, index);
  }
  trim_locked();
}

std::vector<std::pair<std::uint64_t, command>> command_log::read(
    std::uint64_t after, std::size_t max) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::uint64_t, command>> out;
  for (std::uint64_t i = std::max(after, base_index_) + 1;
       i <= committed_locked() && out.size() < max; ++i) {
    if (!is_barrier(at_locked(i).change)) out.emplace_back(i, at_locked(i).change);
  }
  return out;
}

void command_log::trim_locked() {
  std::uint64_t passed = last_locked();
  for (const auto& cursor : cursors_) passed = std::min(passed, cursor.second);
  if (passed <= base_index_) return;
  base_term_ = term_locked(passed);
  entries_.erase(entries_.begin(),
                 entries_.begin() + static_cast<std::ptrdiff_t>(passed - base_index_));
  base_index_ = passed;
}

}  // namespace elect::cmd
