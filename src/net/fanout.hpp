// Multi-connection fan-out client: the library's socket client.
//
// FanoutClient holds one pipelined connection per peer (typically a
// net::EventLoopServer) and multiplexes the collect side with poll():
// next() returns the earliest completed reply from ANY connection, while
// replies on each individual connection still come back in request order
// (the server's per-connection contract).  A caller talking to several
// servers — a shard router spraying transfers across a fleet — therefore
// never lets the slowest server stall replies that the others have
// already produced.  One connection under one key is the plain
// persistent-connection client.
//
// Not thread-safe; use one per driving thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "net/message.hpp"

namespace rproxy::net {

class FanoutClient {
 public:
  FanoutClient() = default;
  ~FanoutClient() { close(); }
  FanoutClient(const FanoutClient&) = delete;
  FanoutClient& operator=(const FanoutClient&) = delete;

  /// Opens a pipelined connection to host:port under `key` (replacing any
  /// previous connection with that key).  `key` is the caller's name for
  /// the peer — e.g. the shard principal — and labels completions.
  [[nodiscard]] util::Status connect(const std::string& key,
                                     const std::string& host,
                                     std::uint16_t port);

  /// Queues `request` on `key`'s connection.  The frame is written
  /// immediately (requests are small relative to socket buffers, so the
  /// write does not block in practice) and the reply is collected later
  /// via next().
  [[nodiscard]] util::Status send(const std::string& key,
                                  const Envelope& request);

  struct Completion {
    std::string key;  ///< connection the reply arrived on
    Envelope reply;
  };

  /// Blocks until ANY connection completes a reply and returns it.
  /// `timeout_ms` < 0 waits forever; expiry surfaces as kTimeout and
  /// leaves every request in flight.  Calling with nothing in flight is a
  /// protocol error.  Drains connections fairly (round-robin over
  /// readiness), so one chatty peer cannot starve the rest.  A connection
  /// that hangs up, or sends a frame that is oversized or does not decode,
  /// is closed and its owed replies are dropped; the error names its key.
  [[nodiscard]] util::Result<Completion> next(int timeout_ms = -1);

  /// Replies still owed across all connections.
  [[nodiscard]] std::size_t inflight() const;

  /// Closes and forgets `key`'s connection, dropping any replies it owes.
  void close(const std::string& key);

  void close();

 private:
  struct Connection {
    int fd = -1;
    std::size_t inflight = 0;
    util::Bytes buffer;  ///< bytes read but not yet peeled into frames
  };
  using ConnectionMap = std::map<std::string, Connection>;

  /// Closes and forgets `it`'s connection; returns `code` with `why`
  /// prefixed by the connection's key.
  util::Status fail_(ConnectionMap::iterator it, util::ErrorCode code,
                     const std::string& why);

  ConnectionMap connections_;
  /// Round-robin cursor: the key AFTER which the next scan starts.
  std::string last_served_;
};

}  // namespace rproxy::net
