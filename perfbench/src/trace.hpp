// Traced-run machinery: in-memory spans recorded by benchmark-owned
// wrappers around the program's nodes and hooks, and the per-layer
// breakdown computed from them once the run ends.
//
// net::Envelope carries no request id, so a server-side handle span is
// joined to the client round trip that caused it by join_key(): a hash of
// the request payload combined with the reply payload.  Requests that
// carry a possession proof are unique by its nonce; challenge requests are
// empty, but their replies carry a fresh nonce, so the pair is unique
// either way.  Spans nested inside a handle span (the drawee's collect
// leg, the replication barrier, the standby's apply) run on the handling
// thread, so they are joined to their parent by thread and containment.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/simnet.hpp"

namespace perfbench {

using Nanos = std::int64_t;

/// Monotonic time in nanoseconds (steady_clock).
[[nodiscard]] Nanos now_ns();

enum class SpanKind : std::uint8_t {
  kHandle,   ///< a node behind the EventLoopServer handling one request
  kDrawee,   ///< the drawee bank handling a collect-leg request (SimNet)
  kBarrier,  ///< the primary's replication barrier hook
  kStandby,  ///< the standby handling a ship (SimNet)
};

struct Span {
  SpanKind kind = SpanKind::kHandle;
  rproxy::net::MsgType type = rproxy::net::MsgType::kError;
  std::uint32_t thread = 0;
  std::uint64_t key = 0;  ///< join_key(); kHandle spans only
  Nanos start = 0;
  Nanos end = 0;
};

/// Small dense id of the calling thread (stable for the thread's life).
[[nodiscard]] std::uint32_t thread_tag();

[[nodiscard]] std::uint64_t join_key(const rproxy::util::Bytes& request,
                                     const rproxy::util::Bytes& reply);

/// Spans of one run, kept in memory until the run ends.  Recording is off
/// until set_enabled(true), so the same fleet serves the untraced and the
/// traced window of a traced run.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }
  void record(const Span& span);
  [[nodiscard]] std::vector<Span> take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Node decorator recording one span per handled request.
class TracedNode final : public rproxy::net::Node {
 public:
  TracedNode(rproxy::net::Node& inner, SpanLog& log, SpanKind kind)
      : inner_(inner), log_(log), kind_(kind) {}

  rproxy::net::Envelope handle(const rproxy::net::Envelope& request) override;

 private:
  rproxy::net::Node& inner_;
  SpanLog& log_;
  SpanKind kind_;
};

using BarrierFn = std::function<rproxy::util::Status(std::uint64_t)>;

/// Wraps a replication-barrier hook with a kBarrier span.
[[nodiscard]] BarrierFn traced_barrier(BarrierFn inner, SpanLog& log);

/// One request/reply exchange as the client saw it.
struct RttRecord {
  std::uint64_t key = 0;  ///< join_key(); 0 when not traced
  Nanos send = 0;  ///< just before the frame was written
  Nanos recv = 0;  ///< when the generator read the reply
  std::uint32_t req_bytes = 0;
  std::uint32_t reply_bytes = 0;
};

/// One operation as the client saw it.  Latency is done - due.
struct OpRecord {
  Nanos due = 0;   ///< scheduled arrival
  Nanos done = 0;  ///< final reply read
  bool ok = false;
  double prove_us = 0;    ///< client-side core::prove_* inside the op
  double endorse_us = 0;  ///< client-side accounting::endorse_check
  std::uint32_t first_rtt = 0;  ///< index into the window's RttRecords
  std::uint32_t rtt_count = 0;
};

/// Named per-layer values of one traced window, ready to print.
using LayerMetrics = std::map<std::string, double>;

/// Adds `name`.p50 / .p99 / .count of `samples` to `out`.
void add_timing(LayerMetrics& out, const std::string& name,
                const std::vector<double>& samples);

/// Joins client records with server spans and fills the client, net,
/// server/accounting handle, clearing, replication, self-time and
/// unattributed-share metrics.
void analyze_trace(const std::vector<OpRecord>& ops,
                   const std::vector<RttRecord>& rtts,
                   const std::vector<Span>& spans, LayerMetrics& out);

}  // namespace perfbench
