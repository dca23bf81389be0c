#include "net/wire.hpp"

#include "common/bytes.hpp"

namespace elect::net::wire {

namespace {

/// Reserve the 4-byte length slot, append the body, then backfill the
/// length — one buffer, one pass.
void finish_frame(std::vector<std::uint8_t>& frame) {
  const auto body = static_cast<std::uint32_t>(frame.size() - 4);
  for (int i = 0; i < 4; ++i) {
    frame[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(body >> (8 * i));
  }
}

}  // namespace

std::string_view to_string(op kind) {
  switch (kind) {
    case op::hello: return "hello";
    case op::try_acquire: return "try_acquire";
    case op::acquire: return "acquire";
    case op::try_acquire_for: return "try_acquire_for";
    case op::release: return "release";
    case op::release_fenced: return "release_fenced";
    case op::renew: return "renew";
    case op::disconnect: return "disconnect";
    case op::metrics: return "metrics";
    case op::watch: return "watch";
    case op::unwatch: return "unwatch";
    case op::event: return "event";
    case op::admin_list: return "admin_list";
    case op::admin_inspect: return "admin_inspect";
    case op::admin_force_release: return "admin_force_release";
    case op::admin_snapshot: return "admin_snapshot";
    case op::admin_commands: return "admin_commands";
    case op::admin_cluster_status: return "admin_cluster_status";
    case op::peer_vote: return "peer_vote";
    case op::peer_append: return "peer_append";
    case op::peer_snapshot: return "peer_snapshot";
  }
  return "unknown";
}

std::string_view to_string(status s) {
  switch (s) {
    case status::ok: return "ok";
    case status::lost: return "lost";
    case status::timed_out: return "timed_out";
    case status::rejected: return "rejected";
    case status::stale_epoch: return "stale_epoch";
    case status::not_leader: return "not_leader";
    case status::busy: return "busy";
    case status::bad_request: return "bad_request";
    case status::denied: return "denied";
    case status::not_primary: return "not_primary";
    case status::connection_lost: return "connection_lost";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_request(const request& r) {
  std::vector<std::uint8_t> frame(4, 0);  // length backfilled below
  byte_writer out(frame);
  out.u64(r.id);
  out.u8(static_cast<std::uint8_t>(r.kind));
  out.str(r.key);
  out.u64(r.epoch);
  out.u64(r.timeout_ms);
  out.u64(r.trace_id);
  out.str(r.body);
  finish_frame(frame);
  return frame;
}

std::vector<std::uint8_t> encode_response(const response& r) {
  std::vector<std::uint8_t> frame(4, 0);
  byte_writer out(frame);
  out.u64(r.id);
  out.u8(static_cast<std::uint8_t>(r.kind));
  out.u8(static_cast<std::uint8_t>(r.result));
  out.u8(r.flags);
  out.u64(r.epoch);
  out.u64(r.lease_remaining_ms);
  out.str(r.body);
  finish_frame(frame);
  return frame;
}

request make_hello_request() {
  request r;
  r.kind = op::hello;
  r.epoch = (static_cast<std::uint64_t>(protocol_magic) << 16) |
            protocol_version;
  return r;
}

response make_hello_response(std::uint64_t session_id) {
  response r;
  r.kind = op::hello;
  r.result = status::ok;
  r.epoch = session_id;
  return r;
}

bool hello_version_ok(const request& r) {
  return r.kind == op::hello &&
         r.epoch == ((static_cast<std::uint64_t>(protocol_magic) << 16) |
                     protocol_version);
}

response make_event(const svc::watch_event& e) {
  response r;
  r.id = 0;  // push frame: no request id, routed to watch callbacks
  r.kind = op::event;
  r.result = status::ok;
  r.flags = static_cast<std::uint8_t>(e.kind);
  r.epoch = e.epoch;
  r.lease_remaining_ms =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(e.session));
  r.body = e.key;
  return r;
}

std::optional<svc::watch_event> parse_event(const response& r) {
  if (r.kind != op::event || r.id != 0 ||
      r.flags > static_cast<std::uint8_t>(svc::transition::force_released) ||
      r.body.size() > max_key_bytes) {
    return std::nullopt;
  }
  svc::watch_event e;
  e.key = r.body;
  e.epoch = r.epoch;
  e.kind = static_cast<svc::transition>(r.flags);
  e.session = static_cast<int>(
      static_cast<std::int64_t>(r.lease_remaining_ms));
  return e;
}

std::optional<request> decode_request(const std::vector<std::uint8_t>& body) {
  byte_reader in(body);
  request r;
  std::uint8_t kind = 0;
  if (!in.u64(r.id) || !in.u8(kind) || !in.str(r.key, max_key_bytes) ||
      !in.u64(r.epoch) || !in.u64(r.timeout_ms) || !in.u64(r.trace_id) ||
      !in.str(r.body, max_frame_bytes) || !in.exhausted()) {
    return std::nullopt;
  }
  if (kind >= op_count) return std::nullopt;
  r.kind = static_cast<op>(kind);
  return r;
}

std::optional<response> decode_response(
    const std::vector<std::uint8_t>& body) {
  byte_reader in(body);
  response r;
  std::uint8_t kind = 0;
  std::uint8_t result = 0;
  if (!in.u64(r.id) || !in.u8(kind) || !in.u8(result) || !in.u8(r.flags) ||
      !in.u64(r.epoch) || !in.u64(r.lease_remaining_ms) ||
      !in.str(r.body, max_frame_bytes) || !in.exhausted()) {
    return std::nullopt;
  }
  if (kind >= op_count || result > status_max) return std::nullopt;
  r.kind = static_cast<op>(kind);
  r.result = static_cast<status>(result);
  return r;
}

status from_lease_status(svc::lease_status s) {
  switch (s) {
    case svc::lease_status::ok: return status::ok;
    case svc::lease_status::stale_epoch: return status::stale_epoch;
    case svc::lease_status::not_leader: return status::not_leader;
    case svc::lease_status::connection_lost:
      // Since v4 the sever verdict has its own code: a cluster primary
      // that lost its quorum mid-op reports it, and the client-side
      // verdict round-trips instead of masquerading as a fence.
      return status::connection_lost;
  }
  return status::bad_request;
}

svc::lease_status to_lease_status(status s) {
  switch (s) {
    case status::ok: return svc::lease_status::ok;
    case status::not_leader: return svc::lease_status::not_leader;
    case status::connection_lost: return svc::lease_status::connection_lost;
    // not_primary is intercepted by the client's redirect layer before
    // this mapping; a caller that sees it anyway must treat the lease
    // op as not applied on this node.
    case status::not_primary: return svc::lease_status::not_leader;
    default: return svc::lease_status::stale_epoch;
  }
}

bool frame_reader::feed(const std::uint8_t* data, std::size_t n) {
  if (poisoned_) return false;
  buffer_.insert(buffer_.end(), data, data + n);
  for (;;) {
    const std::size_t available = buffer_.size() - consumed_;
    if (available < 4) break;
    std::uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      length |= static_cast<std::uint32_t>(buffer_[consumed_ +
                                                   static_cast<std::size_t>(i)])
                << (8 * i);
    }
    if (length > max_frame_bytes) {
      poisoned_ = true;
      return false;
    }
    if (available < 4 + static_cast<std::size_t>(length)) break;
    const auto* begin = buffer_.data() + consumed_ + 4;
    frames_.emplace_back(begin, begin + length);
    consumed_ += 4 + static_cast<std::size_t>(length);
  }
  // Reclaim the parsed prefix once it dominates the buffer, so a long
  // pipelined burst doesn't memmove per frame.
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return true;
}

std::optional<std::vector<std::uint8_t>> frame_reader::next() {
  if (frames_.empty()) return std::nullopt;
  std::vector<std::uint8_t> frame = std::move(frames_.front());
  frames_.pop_front();
  return frame;
}

}  // namespace elect::net::wire
