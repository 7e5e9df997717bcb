// Request/reply helpers over a real loopback socket for tests and benches,
// built on net::FanoutClient (the library's socket client).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "net/fanout.hpp"

namespace rproxy::testing {

/// Bounds each reply wait so a wedged server fails the test instead of
/// hanging it.
inline constexpr int kSocketTimeoutMs = 30'000;

/// Sends `requests` back to back on `client`'s connection `key`, then
/// collects their replies — which the server returns in request order.
/// `client` must have nothing else in flight.
inline util::Result<std::vector<net::Envelope>> round_trips(
    net::FanoutClient& client, const std::string& key,
    const std::vector<net::Envelope>& requests,
    int timeout_ms = kSocketTimeoutMs) {
  for (const net::Envelope& request : requests) {
    RPROXY_RETURN_IF_ERROR(client.send(key, request));
  }
  std::vector<net::Envelope> replies;
  replies.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    RPROXY_ASSIGN_OR_RETURN(net::FanoutClient::Completion done,
                            client.next(timeout_ms));
    replies.push_back(std::move(done.reply));
  }
  return replies;
}

/// One request/reply round trip on a fresh connection to 127.0.0.1:`port`.
inline util::Result<net::Envelope> socket_rpc(
    std::uint16_t port, const net::Envelope& request,
    int timeout_ms = kSocketTimeoutMs) {
  net::FanoutClient client;
  RPROXY_RETURN_IF_ERROR(client.connect("peer", "127.0.0.1", port));
  RPROXY_ASSIGN_OR_RETURN(std::vector<net::Envelope> replies,
                          round_trips(client, "peer", {request}, timeout_ms));
  return std::move(replies.front());
}

}  // namespace rproxy::testing
