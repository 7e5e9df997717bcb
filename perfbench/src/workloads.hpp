// The benchmark's three workloads, each a complete in-process fleet served
// over loopback TCP by one net::EventLoopServer, plus the client-side
// operation logic the generator drives against it.
//
//   capability_reads  4 FileServers; pk bearer capability chains of depth
//                     1-4 presented in timestamp mode (1 round trip).
//   ledger_mix        1 journaled AccountingServer; challenge + signed
//                     transfer (80%) or query (20%).
//   check_clearing    payees' bank (journaled, on the socket) collecting
//                     from the payors' bank (journaled, semi-synchronously
//                     replicated to a hot standby) over SimNet.
//
// See README.md for why each exists and what each should move.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "trace.hpp"

namespace perfbench {

struct FleetOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// EventLoopServer handler threads (same for every workload).
  std::size_t workers = 3;
  /// Scratch directory for journals (inside the benchmark's checkout).
  std::string tmp_dir;
  /// Operations the run may issue; inputs prepared in set-up (renewal
  /// grants, written checks) are sized from it.
  std::uint64_t max_ops = 0;
  /// Scale factor on the populations (1 = the documented sizes; the
  /// self-test's smoke runs use smaller fleets).
  double scale = 1.0;
};

/// One set-up deployment of a workload.  Construction is the set-up the
/// benchmark times (fleet start, principals and certificates, minting or
/// check writing, account opening, recovery).
class Fleet : public Workload {
 public:
  [[nodiscard]] static std::unique_ptr<Fleet> create(
      const FleetOptions& options);

  [[nodiscard]] static const std::vector<std::string>& names();

  [[nodiscard]] virtual std::uint16_t port() const = 0;
  [[nodiscard]] virtual rproxy::util::SimClock& clock() = 0;

  /// Spans of the benchmark's wrappers (recording off until enabled).
  [[nodiscard]] SpanLog& spans() { return spans_; }

  /// Keep a sample of request inputs for the isolated replays.
  void set_sampling(bool on) { sampling_ = on; }

  /// Snapshots the program's own counters before a traced window.
  virtual void begin_counters() = 0;
  /// Per-layer counter deltas since begin_counters(), per operation.
  virtual void end_counters(std::uint64_t ops, LayerMetrics& out) = 0;

  /// Replays the sampled inputs through the program's public functions
  /// one at a time and adds the isolated timings.
  virtual void isolated(LayerMetrics& out) = 0;

  /// Stops serving and runs the workload's correctness gate.  Returns the
  /// violations (empty = correct).
  [[nodiscard]] virtual std::vector<std::string> quiesce_and_check() = 0;

 protected:
  SpanLog spans_;
  bool sampling_ = false;
};

/// Zipf(s) sampler over ranks 0..n-1 (rank 0 most popular).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t sample(rproxy::util::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Per-operation RNG: contents depend only on (seed, index), never on
/// timing or rate.
[[nodiscard]] rproxy::util::Rng op_rng(std::uint64_t seed,
                                       std::uint64_t index);

}  // namespace perfbench
