// elect::net::wire — the versioned, length-prefixed binary protocol
// between net::client and net::server.
//
// Framing: every message on the socket is one *frame*:
//
//   [u32 length][length bytes of body]
//
// with the length in little-endian and capped at max_frame_bytes (an
// oversized length is a protocol violation and kills the connection —
// it is either corruption or a hostile peer, not backpressure).
//
// The first frame each way is the handshake: the client sends a hello
// request carrying the protocol magic + version in its epoch field, the
// server answers with a hello response whose epoch field is the svc
// session id backing the connection. Version mismatches are rejected
// before any election state is touched.
//
// After the handshake, every request carries a client-chosen 64-bit
// request id. The server may answer requests *out of order* (a metrics
// fetch overtakes a blocking acquire parked on a held key); the id is
// what lets the client route each response to its waiter, which is the
// whole basis of pipelining many in-flight calls over one socket.
//
// Status codes map the service's result types onto the wire explicitly
// (`acquire_result` flags and `lease_status` values), plus the two
// conditions only the network edge can produce: `busy` (the server's
// blocking-op cap is full — retry) and `bad_request` (undecodable
// frame — fatal for the connection).
//
// All integers are little-endian; strings are u32 length + bytes. The
// encoding is byte-exact across platforms — no struct punning.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "svc/registry.hpp"
#include "svc/watch.hpp"

namespace elect::net::wire {

/// "ELN" + version byte, carried in the hello exchange.
inline constexpr std::uint32_t protocol_magic = 0x454C4E00u;
/// v4: requests grow an unconditional `body` string (the peer
/// replication ops carry log-entry batches, votes, and snapshots in
/// it), the status enum gains `not_primary` (cluster redirect, body =
/// the primary's endpoint hint) and `connection_lost` (previously
/// encoded defensively as stale_epoch), and the op range 17.. carries
/// the elect::repl peer channel (peer_vote / peer_append /
/// peer_snapshot) plus admin_cluster_status. The codec rejects
/// trailing bytes, so "optional" fields are expressed as version bumps
/// and the handshake keeps v3 peers out before any frame can misparse.
/// (v3 added the trace id + admin ops; v2 watch/unwatch + events.)
inline constexpr std::uint16_t protocol_version = 4;

/// Hard cap on one frame's body. Requests are tiny (a key plus a few
/// integers); responses are bounded by the metrics JSON. Anything
/// larger is corruption, not load.
inline constexpr std::uint32_t max_frame_bytes = 1u << 20;

/// Keys longer than this are a protocol violation: the server drops
/// the connection on decode, and net::client refuses to submit one.
inline constexpr std::uint32_t max_key_bytes = 4096;

/// Message types. Values are wire format — append only, never renumber.
enum class op : std::uint8_t {
  hello = 0,
  /// One-shot election attempt (session::try_acquire).
  try_acquire = 1,
  /// Blocking acquire; the server parks the request (not the socket)
  /// until the key is won, the service stops, or the connection dies.
  acquire = 2,
  /// Bounded blocking acquire; timeout_ms bounds the server-side wait.
  try_acquire_for = 3,
  /// Unfenced release (session::release(key)).
  release = 4,
  /// Epoch-fenced release (session::release(key, epoch)).
  release_fenced = 5,
  /// Lease renewal (session::renew(key, epoch)).
  renew = 6,
  /// Graceful drop of everything this connection holds. The server also
  /// applies this implicitly when the socket closes — see net::server.
  disconnect = 7,
  /// Fetch the combined net + service metrics report as JSON.
  metrics = 8,
  /// Subscribe to leader transitions on `key`. The ok response carries
  /// the server-side subscription id in `epoch`; matching transitions
  /// then arrive as unsolicited `event` frames on the same connection.
  watch = 9,
  /// Cancel a watch subscription; `epoch` carries the id the watch
  /// response returned. Always answers ok (cancelling an unknown or
  /// foreign id is a no-op).
  unwatch = 10,
  /// Server->client push: one leader transition on a watched key. Not a
  /// response — `id` is 0 (client request ids start at 1), which is how
  /// the client's reader routes it to watch callbacks instead of a
  /// pending call. `body` is the key, `epoch` the transition's epoch,
  /// `flags` the svc::transition value, and `lease_remaining_ms` the
  /// affected svc session id (two's complement; -1 = none).
  event = 11,
  /// Admin: snapshot every registered key as a JSON array in `body`.
  /// Gated by server_config.enable_admin — `denied` when off.
  admin_list = 12,
  /// Admin: snapshot one key as a JSON object in `body`; `not_leader`
  /// when the key was never acquired. Same gate as admin_list.
  admin_inspect = 13,
  /// Admin: unconditionally end `key`'s current epoch (the operator's
  /// "kick the stuck leader" lever); `not_leader` when unheld. Same
  /// gate as admin_list.
  admin_force_release = 14,
  /// Admin: take a command-log snapshot. The server encodes the
  /// registry's binary snapshot, writes it to the configured snapshot
  /// path (when set), and answers with a small JSON object in `body`
  /// describing the command log (recording/recorded/retained/bytes).
  /// Same gate as admin_list.
  admin_snapshot = 15,
  /// Admin: page through the registry's retained, committed command
  /// log (the replayable stream behind snapshots). `epoch` carries the
  /// log index to resume after; 0 starts at the beginning. The response
  /// `body` is a JSON object {"total":N,"commands":[...]} — N commands
  /// retained in all — holding as many commands (cmd::to_json objects,
  /// in log order) as fit one frame, and the response `epoch` is the
  /// index the next page resumes after; an empty page ends the pass. Same gate as
  /// admin_list; `rejected` when the registry keeps no history
  /// (record_commands off).
  admin_commands = 16,
  /// Admin: the cluster's view of itself as a JSON object in `body` —
  /// node id, role, term, commit/last index, per-peer replication lag,
  /// and the current primary's endpoint. Answered by every cluster
  /// node (it is how elect_admin finds the primary); `denied` on a
  /// non-cluster server. Unlike the other admin ops it is NOT gated by
  /// enable_admin — discovering the primary is part of the client
  /// protocol, not an operator surface.
  admin_cluster_status = 17,
  /// Peer channel (elect::repl): request a vote for `epoch` = term.
  /// `body` is a repl-encoded vote request (candidate id, last log
  /// index/term); the response body carries the verdict. `denied` on a
  /// non-cluster server.
  peer_vote = 18,
  /// Peer channel: append log entries. `body` is a repl-encoded batch
  /// (term, leader id, prev index/term, commit index, entries); an
  /// empty batch is the heartbeat. The response body carries (term,
  /// match index, success).
  peer_append = 19,
  /// Peer channel: install a registry snapshot on a lagging follower.
  /// `body` is a repl-encoded header + the binary registry snapshot
  /// (cmd::snapshot format).
  peer_snapshot = 20,
};

inline constexpr int op_count = 21;

[[nodiscard]] std::string_view to_string(op kind);

/// Response status. Values are wire format — append only.
enum class status : std::uint8_t {
  /// Acquire won / release ok / renew ok / metrics served.
  ok = 0,
  /// Acquire attempt lost (somebody else holds the epoch).
  lost = 1,
  /// try_acquire_for: the timeout elapsed before the key came free.
  timed_out = 2,
  /// The service stopped (acquire_result::rejected).
  rejected = 3,
  /// lease_status::stale_epoch — the presented epoch is not current.
  stale_epoch = 4,
  /// lease_status::not_leader — current epoch, but not the holder.
  not_leader = 5,
  /// The server's blocking-op capacity is exhausted; retry after a
  /// backoff. Only acquire/try_acquire_for can see this.
  busy = 6,
  /// Undecodable or ill-formed request. The server answers once (when
  /// it still has a request id to echo) and closes the connection.
  bad_request = 7,
  /// An admin op on a server whose config does not enable the admin
  /// surface. The connection stays up.
  denied = 8,
  /// Cluster redirect: this node is a replica, not the primary —
  /// mutating ops must go to the primary. The response `body` carries
  /// the primary's "host:port" endpoint hint when known (empty while
  /// an election is in flight); net::client's multi-endpoint
  /// constructor follows it transparently.
  not_primary = 9,
  /// The mutation could not be quorum-committed before the ack (the
  /// primary lost its quorum mid-operation), or — client-side — the
  /// transport died underneath the call. Until v4 the client-side
  /// verdict was encoded defensively as stale_epoch; it now round-trips
  /// as itself.
  connection_lost = 10,
};

/// Highest valid status value (decode bound — keep in sync with the
/// enum's last member).
inline constexpr std::uint8_t status_max =
    static_cast<std::uint8_t>(status::connection_lost);

[[nodiscard]] std::string_view to_string(status s);

/// `lease_remaining_ms` value meaning "the lease never expires".
inline constexpr std::uint64_t lease_forever = ~0ull;

/// One client->server message. Unused fields encode as zero.
struct request {
  std::uint64_t id = 0;
  op kind = op::hello;
  std::string key;
  /// release_fenced / renew: the fencing token. hello: magic|version.
  std::uint64_t epoch = 0;
  /// try_acquire_for: wait bound in milliseconds.
  std::uint64_t timeout_ms = 0;
  /// Request trace id (obs::mint), 0 when untraced. The server serves
  /// the request under this id so its spans join the client's trace.
  std::uint64_t trace_id = 0;
  /// Opaque payload (v4): the repl peer ops carry their encoded batch /
  /// vote / snapshot here. Empty for every client-facing op.
  std::string body;
};

/// Response flag bits.
inline constexpr std::uint8_t flag_won = 1u << 0;
inline constexpr std::uint8_t flag_fast_path = 1u << 1;

/// One server->client message. `epoch` is the election epoch for
/// acquire-family ops, the svc session id for hello, and the released
/// count for disconnect.
struct response {
  std::uint64_t id = 0;
  op kind = op::hello;
  status result = status::ok;
  std::uint8_t flags = 0;
  std::uint64_t epoch = 0;
  /// Winner only: milliseconds of lease left when the response was
  /// built (lease_forever when leases are disabled). The client turns
  /// this back into a deadline on its own clock.
  std::uint64_t lease_remaining_ms = 0;
  /// metrics: the JSON report. Empty otherwise.
  std::string body;

  [[nodiscard]] bool won() const noexcept { return (flags & flag_won) != 0; }
  [[nodiscard]] bool fast_path() const noexcept {
    return (flags & flag_fast_path) != 0;
  }
};

// ---------------------------------------------------------------------
// Encoding. encode_* produce a complete frame (length prefix included)
// ready to write to the socket.

[[nodiscard]] std::vector<std::uint8_t> encode_request(const request& r);
[[nodiscard]] std::vector<std::uint8_t> encode_response(const response& r);

/// The hello exchange, expressed through the same request/response
/// shapes so one codec covers everything.
[[nodiscard]] request make_hello_request();
[[nodiscard]] response make_hello_response(std::uint64_t session_id);
/// Does this decoded hello request carry our magic + version?
[[nodiscard]] bool hello_version_ok(const request& r);

/// The watch push frame (op::event), expressed through the response
/// shape so the existing codec and framing carry it. parse_event is the
/// inverse; empty when `r` is not a well-formed event frame.
[[nodiscard]] response make_event(const svc::watch_event& e);
[[nodiscard]] std::optional<svc::watch_event> parse_event(const response& r);

// ---------------------------------------------------------------------
// Decoding. Both take one frame *body* (the length prefix already
// stripped by frame_reader) and return empty on any malformation:
// short buffer, trailing garbage, unknown op/status, oversized key.

[[nodiscard]] std::optional<request> decode_request(
    const std::vector<std::uint8_t>& body);
[[nodiscard]] std::optional<response> decode_response(
    const std::vector<std::uint8_t>& body);

// ---------------------------------------------------------------------
// Status mapping helpers shared by client and server.

[[nodiscard]] status from_lease_status(svc::lease_status s);
[[nodiscard]] svc::lease_status to_lease_status(status s);

// ---------------------------------------------------------------------
// frame_reader: incremental deframer. Feed it whatever the socket
// yields; it splits complete frames off and queues their bodies.

class frame_reader {
 public:
  /// Append `n` raw bytes. Returns false on a protocol violation (a
  /// frame length above max_frame_bytes) — the connection must die;
  /// the reader is poisoned and will never yield another frame.
  [[nodiscard]] bool feed(const std::uint8_t* data, std::size_t n);

  /// Pop the next complete frame body, if one is buffered.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> next();

  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  // parsed prefix of buffer_, reclaimed lazily
  std::deque<std::vector<std::uint8_t>> frames_;
  bool poisoned_ = false;
};

}  // namespace elect::net::wire
