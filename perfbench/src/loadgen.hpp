// Open-loop load generator.
//
// One thread, one process: requests go out over at most `connections`
// pipelined loopback connections (net::FanoutClient) at Poisson arrival
// times drawn from a seeded RNG, whether or not earlier requests have
// been answered.  Each operation is timed from its DUE time, not from
// when it was actually sent, so a stall anywhere — server, transport or
// generator — is charged to every request queued behind it.  How late the
// generator itself sent each operation is reported separately, so a
// saturated generator is never mistaken for a slow server.
//
// A Workload supplies the operations: prepare() builds an operation's
// first request ahead of its due time (client work a real user does
// before deciding to act), on_reply() consumes each reply and either
// finishes the operation or hands back its next request (work that blocks
// the operation, like signing over a fresh challenge).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "net/fanout.hpp"
#include "trace.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// One operation in flight.  The generic slots are the workload's to use.
struct Pending {
  std::uint64_t index = 0;  ///< position in the seeded operation stream
  std::size_t conn = 0;     ///< connection (users are partitioned)
  rproxy::net::Envelope request;  ///< next request to send
  int step = 0;
  bool ok = false;
  std::string error;
  std::uint32_t kind = 0;
  std::uint32_t a = 0, b = 0, c = 0;
  std::uint64_t amount = 0;
  double prove_us = 0;
  double endorse_us = 0;
  // Filled by the generator.
  Nanos due = 0;
  std::vector<RttRecord> rtts;  ///< recorded windows only
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Fills op.request (and op.conn) for operation op.index.  Contents
  /// depend only on the seed and the index.
  virtual void prepare(Pending& op) = 0;
  /// Consumes the reply to op.request.  Returns true when the operation is
  /// finished (op.ok / op.error set); otherwise op.request is the next
  /// request to send on the same connection.
  virtual bool on_reply(Pending& op, const rproxy::net::Envelope& reply) = 0;
};

struct WindowSpec {
  double rate = 0;       ///< offered operations per second
  double seconds = 0;    ///< arrivals are scheduled over this long
  bool record = false;   ///< keep OpRecord/RttRecord (traced windows)
  /// Stop scheduling arrivals once this many operations are in flight
  /// (0 = never): an overloaded ladder rung ends early instead of queueing
  /// thousands of requests.
  std::size_t max_inflight = 0;
};

struct WindowResult {
  std::vector<double> latency_ms;  ///< completed-ok operations
  std::vector<double> late_ms;     ///< send time - due time, per operation
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages
  double inflight_first = 0;  ///< mean in-flight ops, first quarter
  double inflight_last = 0;   ///< mean in-flight ops, last quarter
  double cpu_s = 0;      ///< process user+sys CPU over the window
  double gen_cpu_s = 0;  ///< the generator thread's share of cpu_s
  double wall_s = 0;
  bool stalled = false;  ///< replies lost (transport broke or drain timed out)
  bool overloaded = false;    ///< hit WindowSpec::max_inflight
  std::vector<OpRecord> ops;
  std::vector<RttRecord> rtts;

  /// In-flight count rose across the window (a growing backlog).
  [[nodiscard]] bool backlog_growing() const {
    return inflight_last > 2.0 * inflight_first + 4.0;
  }
};

class Generator {
 public:
  /// Connects `connections` pipelined sockets to 127.0.0.1:`port`.
  /// `sim_clock`, when set, is moved forward with wall time so the servers
  /// see time pass (challenge and replay-cache expiry, proof freshness).
  Generator(Workload& workload, std::uint16_t port, std::size_t connections,
            std::uint64_t seed, rproxy::util::SimClock* sim_clock);

  /// Runs one window at a fixed offered rate and drains it.
  [[nodiscard]] WindowResult run(const WindowSpec& spec);

 private:
  void tick_clock_();
  /// Prepares the next operation of the stream onto ahead_.
  void prepare_one_();
  [[nodiscard]] double next_gap_ns_(double rate);

  Workload& workload_;
  rproxy::net::FanoutClient client_;
  std::vector<std::string> keys_;
  rproxy::util::Rng arrivals_;
  std::uint64_t next_index_ = 0;
  /// Set when a window lost replies; later windows refuse to run.
  bool broken_ = false;
  /// Operations prepared ahead of their due time (kept across windows).
  std::deque<std::unique_ptr<Pending>> ahead_;
  rproxy::util::SimClock* sim_clock_;
  rproxy::util::TimePoint sim_base_ = 0;
  Nanos wall_base_ = 0;
};

/// Process user+sys CPU seconds so far (getrusage).
[[nodiscard]] double process_cpu_s();

/// Peak resident set of the process in MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
