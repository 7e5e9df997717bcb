#include "net/fanout.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <vector>

namespace rproxy::net {

using util::ErrorCode;

util::Status FanoutClient::connect(const std::string& key,
                                   const std::string& host,
                                   std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return util::fail(ErrorCode::kInternal, "socket() failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::fail(ErrorCode::kInternal, "bad address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return util::fail(ErrorCode::kNotFound, "cannot connect to " + host + ":" +
                                                std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto [it, inserted] = connections_.try_emplace(key);
  if (!inserted && it->second.fd >= 0) ::close(it->second.fd);
  it->second = Connection{};
  it->second.fd = fd;
  return util::Status::ok();
}

util::Status FanoutClient::send(const std::string& key,
                                const Envelope& request) {
  auto it = connections_.find(key);
  if (it == connections_.end()) {
    return util::fail(ErrorCode::kInternal,
                      "no connection under key '" + key + "'");
  }
  const util::Bytes frame = encode_frame(request);
  std::size_t done = 0;
  while (done < frame.size()) {
    const ssize_t put =
        ::send(it->second.fd, frame.data() + done, frame.size() - done,
               MSG_NOSIGNAL);
    if (put >= 0) {
      done += static_cast<std::size_t>(put);
      continue;
    }
    if (errno == EINTR) continue;
    return fail_(it, ErrorCode::kUnavailable, "send failed");
  }
  it->second.inflight += 1;
  return util::Status::ok();
}

util::Result<FanoutClient::Completion> FanoutClient::next(int timeout_ms) {
  if (inflight() == 0) {
    return util::fail(ErrorCode::kProtocolError, "next() with nothing in flight");
  }
  while (true) {
    // Serve buffered frames first, scanning round-robin from just past the
    // last key served so a flood on one connection cannot starve others.
    auto it = connections_.upper_bound(last_served_);
    for (std::size_t n = 0; n < connections_.size(); ++n, ++it) {
      if (it == connections_.end()) it = connections_.begin();
      Connection& conn = it->second;
      if (conn.inflight == 0) continue;
      const PeeledFrame peeled = peel_frame(conn.buffer);
      if (peeled.kind == PeeledFrame::Kind::kNone) continue;
      if (peeled.kind == PeeledFrame::Kind::kOversized) {
        return fail_(it, ErrorCode::kProtocolError,
                     "reply frame exceeds kMaxFrameBytes");
      }
      wire::Decoder dec(peeled.body);
      Envelope reply = decode_envelope(dec);
      if (!dec.finish().is_ok()) {
        return fail_(it, ErrorCode::kProtocolError, "malformed reply frame");
      }
      conn.buffer.erase(conn.buffer.begin(),
                        conn.buffer.begin() +
                            static_cast<std::ptrdiff_t>(peeled.consumed));
      conn.inflight -= 1;
      last_served_ = it->first;
      return Completion{it->first, std::move(reply)};
    }

    // Nothing buffered: poll every connection that still owes a reply.
    std::vector<pollfd> fds;
    std::vector<ConnectionMap::iterator> polled;
    for (auto conn_it = connections_.begin(); conn_it != connections_.end();
         ++conn_it) {
      if (conn_it->second.inflight == 0) continue;
      fds.push_back({conn_it->second.fd, POLLIN, 0});
      polled.push_back(conn_it);
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return util::fail(ErrorCode::kInternal, "poll() failed");
    }
    if (ready == 0) {
      return util::fail(ErrorCode::kTimeout,
                        "no reply on any connection within the timeout");
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& conn = polled[i]->second;
      std::uint8_t chunk[16 * 1024];
      const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (got > 0) {
        conn.buffer.insert(conn.buffer.end(), chunk, chunk + got);
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      // Peer hung up (or hard error) while still owing replies.
      return fail_(polled[i], ErrorCode::kUnavailable,
                   "closed with replies in flight");
    }
  }
}

std::size_t FanoutClient::inflight() const {
  std::size_t total = 0;
  for (const auto& [key, conn] : connections_) total += conn.inflight;
  return total;
}

util::Status FanoutClient::fail_(ConnectionMap::iterator it, ErrorCode code,
                                 const std::string& why) {
  util::Status status =
      util::fail(code, "connection '" + it->first + "': " + why);
  ::close(it->second.fd);
  connections_.erase(it);
  return status;
}

void FanoutClient::close(const std::string& key) {
  auto it = connections_.find(key);
  if (it == connections_.end()) return;
  ::close(it->second.fd);
  connections_.erase(it);
}

void FanoutClient::close() {
  for (auto& [key, conn] : connections_) ::close(conn.fd);
  connections_.clear();
  last_served_.clear();
}

}  // namespace rproxy::net
