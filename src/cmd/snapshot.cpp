#include "cmd/snapshot.hpp"

#include "common/bytes.hpp"

namespace elect::cmd {

std::vector<std::uint8_t> encode_snapshot(const snapshot_data& data) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(16 + data.shards.size() * 24);
  byte_writer out(bytes);
  out.u32(snapshot_magic);
  out.u16(snapshot_version);
  out.u32(static_cast<std::uint32_t>(data.shards.size()));
  for (const snapshot_shard& s : data.shards) {
    out.u64(s.last_seq);
    out.u64(s.last_at_ms);
    out.u32(static_cast<std::uint32_t>(s.keys.size()));
    for (const snapshot_key& k : s.keys) {
      out.str(k.key);
      out.u64(k.epoch);
      out.i32(k.leader);
      out.u8(k.mode);
      out.u64(static_cast<std::uint64_t>(k.lease_rel_ms));
    }
  }
  return bytes;
}

snapshot_decode_result decode_snapshot(const std::vector<std::uint8_t>& bytes) {
  snapshot_decode_result result;
  byte_reader in(bytes);
  std::uint32_t magic = 0;
  if (!in.u32(magic)) {
    result.error = "truncated snapshot: shorter than the header";
    return result;
  }
  if (magic != snapshot_magic) {
    result.error = "bad snapshot magic (not an elect snapshot file)";
    return result;
  }
  std::uint16_t version = 0;
  if (!in.u16(version)) {
    result.error = "truncated snapshot: shorter than the header";
    return result;
  }
  if (version != snapshot_version) {
    result.error = "unsupported snapshot version " + std::to_string(version);
    return result;
  }
  std::uint32_t shard_count = 0;
  // A shard header alone is 24 bytes; reject counts the remaining bytes
  // cannot possibly satisfy before reserving anything.
  if (!in.u32(shard_count) || shard_count > in.left() / 24 + 1) {
    result.error = "truncated snapshot: implausible shard count";
    return result;
  }
  snapshot_data data;
  data.shards.resize(shard_count);
  for (snapshot_shard& s : data.shards) {
    std::uint32_t key_count = 0;
    // Each key record is at least 25 bytes (4 len + 8 epoch + 4 leader
    // + 1 mode + 8 lease), so a count beyond left/25 is a lie.
    if (!in.u64(s.last_seq) || !in.u64(s.last_at_ms) || !in.u32(key_count) ||
        key_count > in.left() / 25 + 1) {
      result.error = "truncated snapshot: implausible key count";
      return result;
    }
    s.keys.resize(key_count);
    for (snapshot_key& k : s.keys) {
      std::uint64_t lease = 0;
      if (!in.str(k.key, UINT32_MAX) || !in.u64(k.epoch) ||
          !in.i32(k.leader) || !in.u8(k.mode) || !in.u64(lease)) {
        result.error = "truncated snapshot: key record cut short";
        return result;
      }
      k.lease_rel_ms = static_cast<std::int64_t>(lease);
      if (k.mode > 2) {
        result.error = "corrupt snapshot: unknown grant mode";
        return result;
      }
    }
  }
  if (in.left() != 0) {
    result.error = "corrupt snapshot: trailing bytes after the last shard";
    return result;
  }
  result.data = std::move(data);
  return result;
}

}  // namespace elect::cmd
