// Tests of the benchmark's own machinery: percentile math, due-time
// accounting in the open-loop generator, the trace join and self-time
// arithmetic, and a smoke run of every workload through its correctness
// gate.  Build and run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <thread>

#include "loadgen.hpp"
#include "net/event_loop.hpp"
#include "runner.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rproxy::net::Envelope;
using rproxy::net::MsgType;

/// Scratch space beside the test binary (inside the build directory).
std::string scratch_dir(const std::string& name) {
  const auto exe = std::filesystem::read_symlink("/proc/self/exe");
  return (exe.parent_path() / "selftest-tmp" / name).string();
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 99.5), 100);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(v, 0), 1);
  EXPECT_EQ(percentile({7}, 99), 7);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(percentile({1, 2}, 50), 1);
  EXPECT_EQ(percentile({1, 2}, 51), 2);
}

TEST(Percentile, SummaryCounts) {
  const Summary s = summarize({4, 1, 3, 2});
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.p50, 2);
  EXPECT_EQ(s.p99, 4);
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(Zipf, SkewsTowardLowRanksAndIsSeeded) {
  const Zipf z(100, 0.9);
  rproxy::util::Rng a(7), b(7);
  std::size_t low = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::size_t x = z.sample(a);
    EXPECT_EQ(x, z.sample(b));
    ASSERT_LT(x, 100u);
    if (x < 10) ++low;
  }
  EXPECT_GT(low, 4000u);  // top 10% of ranks draw most of the traffic
}

/// Echo node that stalls once, on the request numbered `stall_at`.
class StallOnceNode final : public rproxy::net::Node {
 public:
  explicit StallOnceNode(int stall_at) : stall_at_(stall_at) {}
  Envelope handle(const Envelope& request) override {
    if (seen_.fetch_add(1) == stall_at_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
    Envelope reply = request;
    reply.type = MsgType::kAppReply;
    return reply;
  }

 private:
  int stall_at_;
  std::atomic<int> seen_{0};
};

class EchoWorkload final : public Workload {
 public:
  void prepare(Pending& op) override {
    op.request.from = "client";
    op.request.to = "node";
    op.request.type = MsgType::kAppRequest;
    op.request.payload = rproxy::util::to_bytes(std::to_string(op.index));
  }
  bool on_reply(Pending& op, const Envelope& reply) override {
    op.ok = reply.type == MsgType::kAppReply &&
            reply.payload == op.request.payload;
    if (!op.ok) op.error = "wrong reply";
    return true;
  }
};

/// Runs 0.5 s at 1000 ops/s against a one-worker server hosting `node`.
WindowResult drive(rproxy::net::Node& node) {
  rproxy::net::EventLoopServer server(rproxy::net::EventLoopServer::Options{
      .workers = 1, .idle_timeout = 0, .max_pipeline = 1024});
  server.attach("node", node);
  EXPECT_TRUE(server.start().is_ok());
  EchoWorkload workload;
  Generator gen(workload, server.port(), 1, 42, nullptr);
  WindowResult w = gen.run({1000, 0.5, true});
  server.stop();
  return w;
}

TEST(Generator, StallIsChargedToTheRequestsQueuedBehindIt) {
  StallOnceNode quiet(-1);
  const WindowResult base = drive(quiet);
  StallOnceNode stalled(100);
  const WindowResult hit = drive(stalled);
  ASSERT_EQ(base.failed, 0u);
  ASSERT_EQ(hit.failed, 0u);
  ASSERT_GT(hit.latency_ms.size(), 300u);

  // Open loop: arrivals keep coming during the 60 ms stall, so roughly
  // 60 requests queue behind it, and each is timed from its due time.
  const auto slow = [](const WindowResult& w) {
    return std::count_if(w.latency_ms.begin(), w.latency_ms.end(),
                         [](double ms) { return ms > 20; });
  };
  EXPECT_LT(slow(base), 5);
  EXPECT_GE(slow(hit), 25);
  EXPECT_GT(percentile(hit.latency_ms, 95), 20.0);
  // The generator itself was never late: the queue was at the server.
  EXPECT_LT(percentile(hit.late_ms, 50), 1.0);
  // Records of a recorded window cover every op and its round trip.
  EXPECT_EQ(hit.ops.size(), hit.attempted);
  EXPECT_EQ(hit.rtts.size(), hit.attempted);
}

TEST(Generator, SameSeedSameArrivalCount) {
  StallOnceNode a(-1), b(-1);
  EXPECT_EQ(drive(a).attempted, drive(b).attempted);
}

TEST(Trace, JoinsSpansAndSplitsSelfTime) {
  // One op: a challenge round trip, then a deposit whose handle span holds
  // a drawee span, which holds a barrier, which holds a standby apply.
  const rproxy::util::Bytes req = rproxy::util::to_bytes("deposit");
  const rproxy::util::Bytes rep = rproxy::util::to_bytes("ok");
  const rproxy::util::Bytes chal = rproxy::util::to_bytes("");
  const rproxy::util::Bytes nonce = rproxy::util::to_bytes("nonce");
  std::vector<RttRecord> rtts(2);
  rtts[0] = {join_key(chal, nonce), 1'000, 11'000, 10, 20};
  rtts[1] = {join_key(req, rep), 20'000, 120'000, 30, 40};
  std::vector<OpRecord> ops(1);
  ops[0] = {0, 130'000, true, 5.0, 3.0, 0, 2};
  std::vector<Span> spans;
  spans.push_back({SpanKind::kHandle, MsgType::kPresentChallengeRequest, 1,
                   rtts[0].key, 3'000, 8'000});
  spans.push_back({SpanKind::kHandle, MsgType::kCheckDeposit, 2, rtts[1].key,
                   30'000, 100'000});
  spans.push_back({SpanKind::kDrawee, MsgType::kCheckDeposit, 2, 0, 40'000,
                   90'000});
  spans.push_back({SpanKind::kBarrier, MsgType::kError, 2, 0, 50'000,
                   80'000});
  spans.push_back({SpanKind::kStandby, MsgType::kReplShip, 2, 0, 60'000,
                   70'000});
  // A drawee span on another thread must not be attributed to this op.
  spans.push_back({SpanKind::kDrawee, MsgType::kCheckDeposit, 3, 0, 40'000,
                   90'000});
  LayerMetrics m;
  analyze_trace(ops, rtts, spans, m);
  EXPECT_EQ(m["trace.joined_ops"], 1);
  EXPECT_EQ(m["trace.unmatched_rtts"], 0);
  EXPECT_EQ(m["net.rtts_per_op"], 2);
  EXPECT_EQ(m["net.req_bytes_per_op"], 40);
  EXPECT_DOUBLE_EQ(m["accounting.handle_us.deposit.p50"], 70);
  EXPECT_DOUBLE_EQ(m["accounting.clearing_hop_us.p50"], 50);
  EXPECT_DOUBLE_EQ(m["replication.ships_per_op"], 1);
  // Self times: handle 70-50, hop 50-30, barrier 30-10, standby 10.
  EXPECT_DOUBLE_EQ(m["self.handle_us"], 5 + 20);
  EXPECT_DOUBLE_EQ(m["self.clearing_hop_us"], 20);
  EXPECT_DOUBLE_EQ(m["self.barrier_us"], 20);
  EXPECT_DOUBLE_EQ(m["self.standby_apply_us"], 10);
  // Net: (3-1)+(11-8) + (30-20)+(120-100) = 35; client 8.
  EXPECT_DOUBLE_EQ(m["self.net_us"], 35);
  EXPECT_DOUBLE_EQ(m["self.client_us"], 8);
  // e2e 130 us; attributed 8 + 35 + 75 = 118.
  EXPECT_DOUBLE_EQ(m["self.unattributed_us"], 12);
  EXPECT_NEAR(m["trace.unattributed_share"], 12.0 / 130.0, 1e-12);
}

RunOptions smoke(const std::string& workload, bool trace) {
  RunOptions o;
  EXPECT_TRUE(options_for(workload, o));
  o.seed = 3;
  o.seconds = 1.5;
  o.trace = trace;
  o.workers = 2;
  o.connections = 2;
  o.light_rate = workload == "check_clearing" ? 20 : 100;
  o.nominal_rate = 2 * o.light_rate;
  o.slo_ms = 1000;
  o.ladder_base = 10;
  o.rung_seconds = 0.3;
  o.warmup_seconds = 0.2;
  o.setup_reps = 1;
  o.late_bound_ms = 1000;
  o.scale = 0.02;
  o.tmp_dir = scratch_dir(workload);
  return o;
}

class Smoke : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(Smoke, RunsThroughItsCorrectnessGate) {
  const auto& [workload, trace] = GetParam();
  std::ostringstream log;
  const RunResult r = run_benchmark(smoke(workload, trace), log);
  EXPECT_TRUE(r.correct) << log.str();
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.failed, 0u) << log.str();
  if (trace) {
    EXPECT_GT(r.metrics.at("trace.joined_ops"), 0);
    EXPECT_EQ(r.metrics.at("trace.unmatched_rtts"), 0);
    EXPECT_EQ(r.metrics.at("isolated.errors"), 0);
    EXPECT_GT(r.metrics.at("wire.decode_us.count"), 0);
  } else {
    for (const char* m : {"setup_s", "light_p50_ms", "p50_ms", "p99_ms",
                          "max_rate_ops", "cpu_us_per_op", "peak_rss_mb"}) {
      EXPECT_GT(r.metrics.at(m), 0) << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Smoke,
    ::testing::Combine(::testing::Values("capability_reads", "ledger_mix",
                                         "check_clearing"),
                       ::testing::Bool()));

}  // namespace
}  // namespace perfbench
