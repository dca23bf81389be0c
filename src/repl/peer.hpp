// One synchronous peer channel: the socket a cluster node uses to talk
// to one other member.
//
// Peer traffic shares the member's normal net::server listener (same
// wire framing, same hello handshake, new op range), so a peer channel
// is just a very small blocking client: one socket, one in-flight call
// at a time, SO_RCVTIMEO/SO_SNDTIMEO-bounded waits, reconnect on the
// next call after any failure. Replication tolerates lost calls — a
// failed append is retried by the next heartbeat, a failed vote just
// isn't granted — so the channel never buffers or retries internally.
//
// Not thread-safe: a node keeps one channel per peer, owned by that
// peer's sender thread, which carries votes, appends and snapshots alike.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/wire.hpp"
#include "repl/config.hpp"

namespace elect::repl {

class peer_channel {
 public:
  peer_channel(endpoint target, std::uint64_t io_timeout_ms)
      : target_(std::move(target)), io_timeout_ms_(io_timeout_ms) {}
  ~peer_channel() { sever(); }

  peer_channel(const peer_channel&) = delete;
  peer_channel& operator=(const peer_channel&) = delete;

  /// Send one peer op and wait (bounded) for its response. Connects —
  /// including the hello version handshake — on demand. Empty on any
  /// transport failure or timeout; the socket is then severed and the
  /// next call reconnects from scratch.
  [[nodiscard]] std::optional<net::wire::response> call(net::wire::op kind,
                                                        std::string body);

 private:
  [[nodiscard]] bool ensure_connected();
  void sever();

  endpoint target_;
  std::uint64_t io_timeout_ms_;
  int fd_ = -1;
  std::uint64_t next_id_ = 1;
};

}  // namespace elect::repl
