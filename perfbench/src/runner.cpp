#include "runner.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>
#include <thread>

#include "loadgen.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string errors;

  void add(const WindowResult& w) {
    attempted += w.attempted;
    failed += w.failed;
    for (const std::string& e : w.errors) {
      if (errors.size() < 400) errors += e + "; ";
    }
  }
};

/// Shares of --seconds: light window, nominal window, ladder.
constexpr double kLightShare = 0.2;
constexpr double kNominalShare = 0.4;
constexpr double kLadderShare = 0.4;
/// Traced runs: untraced nominal window first, then the traced one.
constexpr double kTracedPlainShare = 0.4;
/// The fixed geometric ladder of offered rates: ladder_base * 1.06^k for
/// k = 0..kLadderTop.
constexpr double kLadderStep = 1.06;
constexpr int kLadderTop = 120;
/// In-flight operations at which a ladder rung counts as overloaded.
constexpr std::size_t kRungMaxInflight = 256;

/// Host CPU time stolen by the hypervisor (/proc/stat), for provenance:
/// a run with a large steal share measured a busy host, not the program.
struct StealMeter {
  std::uint64_t steal = 0, total = 0;

  static StealMeter now() {
    StealMeter m;
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    for (int field = 0; field < 8; ++field) {
      std::uint64_t v = 0;
      if (!(stat >> v)) break;
      m.total += v;
      if (field == 7) m.steal = v;
    }
    return m;
  }
  [[nodiscard]] double share_since(const StealMeter& start) const {
    const std::uint64_t dt = total - start.total;
    return dt > 0 ? static_cast<double>(steal - start.steal) /
                        static_cast<double>(dt)
                  : 0.0;
  }
};

double late_p99(const WindowResult& w) { return percentile(w.late_ms, 99); }

bool clean(const WindowResult& w) { return w.failed == 0 && !w.stalled; }

/// Operations the run may issue, for inputs prepared in set-up.
std::uint64_t op_budget(const RunOptions& o) {
  const double light_s =
      o.warmup_seconds + (o.trace ? 0 : kLightShare) * o.seconds;
  const double nominal_s = (o.trace ? 1.0 : kNominalShare) * o.seconds;
  const double ladder_s = o.trace ? 0 : kLadderShare * o.seconds;
  const double ops = o.light_rate * light_s + o.nominal_rate * nominal_s +
                     2.0 * o.nominal_rate * ladder_s;
  return static_cast<std::uint64_t>(ops * 1.2) + 64;
}

/// A fleet plus the generator connected to it.
struct Deployment {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<Generator> gen;
  std::string dir;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { reset(); }

  void reset() {
    gen.reset();
    fleet.reset();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      dir.clear();
    }
  }
};

/// Builds one deployment and connects the generator; returns the
/// set-up seconds.
double set_up(const RunOptions& o, int rep, Deployment& d, std::ostream& log) {
  const Nanos t0 = now_ns();
  d.dir = o.tmp_dir + "/" + o.workload + "-" + std::to_string(::getpid()) +
          "-" + std::to_string(rep);
  FleetOptions fo;
  fo.workload = o.workload;
  fo.seed = o.seed;
  fo.workers = o.workers;
  fo.tmp_dir = d.dir;
  fo.max_ops = op_budget(o);
  fo.scale = o.scale;
  d.fleet = Fleet::create(fo);
  d.gen = std::make_unique<Generator>(*d.fleet, d.fleet->port(),
                                      o.connections, o.seed,
                                      &d.fleet->clock());
  const double secs = static_cast<double>(now_ns() - t0) / 1e9;
  log << "setup[" << rep << "] " << secs << " s\n";
  return secs;
}

/// Runs the light rate for warmup_seconds so caches and lazily built
/// state fill before anything is measured.  Returns true when no
/// operation failed.
bool warm_up(const RunOptions& o, Deployment& d, Tally& tally,
             std::ostream& log) {
  const WindowResult warm =
      d.gen->run({o.light_rate, o.warmup_seconds, false});
  tally.add(warm);
  log << "warm-up ops " << warm.attempted << " failed " << warm.failed
      << "\n";
  return clean(warm);
}

bool rung_passes(const WindowResult& w, const RunOptions& o) {
  return w.failed == 0 && !w.stalled && !w.overloaded &&
         !w.latency_ms.empty() &&
         percentile(w.latency_ms, 99) <= o.slo_ms && !w.backlog_growing() &&
         late_p99(w) <= o.late_bound_ms;
}

/// Highest rung of the fixed geometric ladder meeting the SLO with no
/// failures and no growing backlog.  Starts at the first rung above the
/// nominal rate, gallops four rungs at a time (up while rungs pass, down
/// if the first fails), then bisects the last gap.  A failing rung is run
/// once more before it counts as failed, so one host hiccup does not end
/// the climb (unless it overloaded outright).  Returns the measured
/// offered rate of the best rung (0 if no rung passed within the budget).
double max_rate(const RunOptions& o, Generator& gen, Tally& tally,
                std::ostream& log, int& rungs_used) {
  const auto rate = [&](int k) {
    return o.ladder_base * std::pow(kLadderStep, k);
  };
  int k0 = 0;
  while (k0 < kLadderTop && rate(k0) <= o.nominal_rate) ++k0;
  const int budget = std::max(
      1, static_cast<int>(kLadderShare * o.seconds / o.rung_seconds));
  std::map<int, double> achieved;
  bool overloaded = false;
  const auto attempt = [&](int k) {
    const WindowResult w =
        gen.run({rate(k), o.rung_seconds, false, kRungMaxInflight});
    tally.add(w);
    ++rungs_used;
    const bool pass = rung_passes(w, o);
    overloaded = w.overloaded;
    log << "rung " << k << " offered " << rate(k) << " ops/s: "
        << (pass ? "pass" : "fail") << " p99 "
        << percentile(w.latency_ms, 99) << " ms, late p99 " << late_p99(w)
        << " ms, inflight " << w.inflight_first << "->" << w.inflight_last
        << ", failed " << w.failed << (w.overloaded ? ", overloaded" : "")
        << "\n";
    if (pass) achieved[k] = static_cast<double>(w.attempted) / o.rung_seconds;
    return pass;
  };
  const auto test = [&](int k) {
    // A clear overload needs no second opinion.
    return attempt(k) || (!overloaded && rungs_used < budget && attempt(k));
  };
  int best = -1;
  int failed_at = kLadderTop + 1;
  if (test(k0)) {
    best = k0;
    for (int k = k0 + 4; rungs_used < budget && k <= kLadderTop; k += 4) {
      if (!test(k)) {
        failed_at = k;
        break;
      }
      best = k;
    }
  } else {
    failed_at = k0;
    for (int k = k0 - 4; rungs_used < budget && k >= 0; k -= 4) {
      if (test(k)) {
        best = k;
        break;
      }
      failed_at = k;
    }
  }
  if (best < 0) return 0;
  while (rungs_used < budget && failed_at - best > 1) {
    const int mid = (best + failed_at) / 2;
    if (test(mid)) {
      best = mid;
    } else {
      failed_at = mid;
    }
  }
  return achieved[best];
}

/// Completed ops per second of a window that met the SLO, else 0.
double rate_if_passing(const WindowResult& w, const RunOptions& o) {
  return rung_passes(w, o) && w.wall_s > 0
             ? static_cast<double>(w.attempted) / w.wall_s
             : 0;
}

void run_untraced(const RunOptions& o, RunResult& r, Tally& tally,
                  std::ostream& log) {
  std::vector<double> setups;
  Deployment d;
  for (int rep = 0; rep < std::max(1, o.setup_reps); ++rep) {
    d.reset();
    setups.push_back(set_up(o, rep, d, log));
  }
  const bool warm_ok = warm_up(o, d, tally, log);
  const StealMeter steal0 = StealMeter::now();
  const WindowResult light =
      d.gen->run({o.light_rate, kLightShare * o.seconds, false});
  tally.add(light);
  // After a fixed amount of work at a rate the host keeps up with, so no
  // request queue is counted: the program's logs and replay caches grow
  // with every op, and an overloaded window or ladder rung would add
  // queue memory that measures the host, not the program.
  const double rss_mb = peak_rss_mb();
  const WindowResult nominal =
      d.gen->run({o.nominal_rate, kNominalShare * o.seconds, false});
  tally.add(nominal);
  const double steal = StealMeter::now().share_since(steal0);
  log << "nominal p50 " << percentile(nominal.latency_ms, 50) << " p99 "
      << percentile(nominal.latency_ms, 99) << " ms, light p50 "
      << percentile(light.latency_ms, 50) << " ms, host steal " << steal
      << "\n";
  int rungs = 0;
  double best = max_rate(o, *d.gen, tally, log, rungs);
  // No rung passed within the budget: fall back to the fixed windows.
  if (best <= 0) best = rate_if_passing(nominal, o);
  if (best <= 0) best = rate_if_passing(light, o);
  const std::vector<std::string> violations = d.fleet->quiesce_and_check();
  for (const std::string& v : violations) r.violations += v + "; ";

  r.metrics["setup_s"] = percentile(setups, 50);
  r.metrics["light_p50_ms"] = percentile(light.latency_ms, 50);
  r.metrics["p50_ms"] = percentile(nominal.latency_ms, 50);
  r.metrics["p99_ms"] = percentile(nominal.latency_ms, 99);
  r.metrics["max_rate_ops"] = best;
  // The fleet's CPU: the process minus the generator thread, whose
  // signing shows in client.prove_us / client.endorse_us and whose
  // waiting between arrivals is the load generator's, not the program's.
  const double done = static_cast<double>(nominal.latency_ms.size());
  r.metrics["cpu_us_per_op"] =
      done > 0 ? (nominal.cpu_s - nominal.gen_cpu_s) * 1e6 / done : 0;
  r.detail["gen_cpu_us_per_op"] =
      done > 0 ? nominal.gen_cpu_s * 1e6 / done : 0;
  r.metrics["peak_rss_mb"] = rss_mb;
  r.detail["p99_samples"] = done;
  r.detail["light_samples"] = static_cast<double>(light.latency_ms.size());
  r.detail["ladder_rungs"] = rungs;
  r.detail["host_steal_share"] = steal;
  const double late = std::max(late_p99(light), late_p99(nominal));
  r.detail["gen_late_p99_ms"] = late;
  r.valid = late <= o.late_bound_ms;
  r.correct = violations.empty() && warm_ok && clean(light) && clean(nominal);
}

void run_traced(const RunOptions& o, RunResult& r, Tally& tally,
                std::ostream& log) {
  Deployment d;
  set_up(o, 0, d, log);
  const bool warm_ok = warm_up(o, d, tally, log);
  Fleet& fleet = *d.fleet;
  const StealMeter steal0 = StealMeter::now();
  const WindowResult plain =
      d.gen->run({o.nominal_rate, kTracedPlainShare * o.seconds, false});
  tally.add(plain);

  fleet.spans().set_enabled(true);
  fleet.set_sampling(true);
  fleet.begin_counters();
  const WindowResult traced =
      d.gen->run({o.nominal_rate, (1 - kTracedPlainShare) * o.seconds, true});
  tally.add(traced);
  fleet.spans().set_enabled(false);
  fleet.set_sampling(false);

  LayerMetrics m;
  fleet.end_counters(traced.latency_ms.size(), m);
  analyze_trace(traced.ops, traced.rtts, fleet.spans().take(), m);
  fleet.isolated(m);
  const double p50_plain = percentile(plain.latency_ms, 50);
  const double p50_traced = percentile(traced.latency_ms, 50);
  m["trace.untraced_p50_ms"] = p50_plain;
  m["trace.traced_p50_ms"] = p50_traced;
  m["trace.overhead"] = p50_plain > 0 ? p50_traced / p50_plain : 0;

  const std::vector<std::string> violations = fleet.quiesce_and_check();
  for (const std::string& v : violations) r.violations += v + "; ";
  for (const auto& [name, value] : m) r.metrics[name] = value;
  const double late = std::max(late_p99(plain), late_p99(traced));
  r.detail["gen_late_p99_ms"] = late;
  r.detail["host_steal_share"] = StealMeter::now().share_since(steal0);
  r.valid = late <= o.late_bound_ms && !plain.stalled && !traced.stalled;
  r.correct = violations.empty() && warm_ok && clean(plain) &&
              clean(traced) && m["isolated.errors"] == 0;
}

void write_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) v = 0;
  std::ostringstream s;
  s << std::setprecision(10) << v;
  out << s.str();
}

}  // namespace

bool options_for(const std::string& workload, RunOptions& out) {
  // Rates are about 15-20% (light) and 40-45% (nominal) of max_rate_ops on
  // a quiet 4-vCPU VM; the SLOs sit well above each workload's p99 noise
  // there (README.md, "Running it").
  struct Row {
    const char* name;
    double light_rate, nominal_rate, slo_ms, ladder_base, rung_seconds;
  };
  static constexpr Row kRows[] = {
      {"capability_reads", 700, 1800, 20, 100, 1.0},
      {"ledger_mix", 800, 2000, 50, 100, 1.0},
      {"check_clearing", 40, 110, 100, 10, 1.5},
  };
  for (const Row& row : kRows) {
    if (workload != row.name) continue;
    out = RunOptions{};
    out.workload = workload;
    out.light_rate = row.light_rate;
    out.nominal_rate = row.nominal_rate;
    out.slo_ms = row.slo_ms;
    out.ladder_base = row.ladder_base;
    out.rung_seconds = row.rung_seconds;
    const unsigned nproc = std::thread::hardware_concurrency();
    if (nproc > 0) out.connections = std::min<std::size_t>(4, nproc);
    return true;
  }
  return false;
}

RunResult run_benchmark(const RunOptions& options, std::ostream& log) {
  RunResult r;
  Tally tally;
  if (options.trace) {
    run_traced(options, r, tally, log);
  } else {
    run_untraced(options, r, tally, log);
  }
  r.attempted = tally.attempted;
  r.failed = tally.failed;
  if (!tally.errors.empty()) log << "errors: " << tally.errors << "\n";
  if (!r.violations.empty()) log << "violations: " << r.violations << "\n";
  return r;
}

void print_result(const RunResult& r, std::ostream& out) {
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"valid\": " << (r.valid ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": ";
    write_number(out, value);
    first = false;
  }
  out << "}, \"detail\": {";
  first = true;
  for (const auto& [name, value] : r.detail) {
    out << (first ? "" : ", ") << "\"" << name << "\": ";
    write_number(out, value);
    first = false;
  }
  out << "}}\n";
}

}  // namespace perfbench
