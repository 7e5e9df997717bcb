#include "loadgen.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <cmath>
#include <thread>

namespace perfbench {

using rproxy::net::Envelope;

namespace {

/// A reply not read this long after the last arrival means the server or
/// the transport wedged; the window is abandoned as stalled.
constexpr Nanos kDrainLimit = 30'000'000'000;
/// Sleep slice while waiting for the next arrival with replies owed: a
/// reply landing during the slice is read at most this late.
constexpr Nanos kSpinSlice = 20'000;
/// Operations prepared ahead of their due time while the generator idles.
constexpr std::size_t kPrepareAhead = 64;

void sleep_ns(Nanos d) {
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

}  // namespace

namespace {
double cpu_s(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}
}  // namespace

double process_cpu_s() { return cpu_s(RUSAGE_SELF); }

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

Generator::Generator(Workload& workload, std::uint16_t port,
                     std::size_t connections, std::uint64_t seed,
                     rproxy::util::SimClock* sim_clock)
    : workload_(workload),
      arrivals_(seed ^ 0xa11a5eedULL),
      sim_clock_(sim_clock) {
  // Sub-millisecond waits must not be rounded up by the default 50 us
  // timer slack of this thread.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  for (std::size_t i = 0; i < connections; ++i) {
    const std::string key = "c" + std::to_string(i);
    const rproxy::util::Status st = client_.connect(key, "127.0.0.1", port);
    if (!st.is_ok()) {
      throw std::runtime_error("connect: " + st.to_string());
    }
    keys_.push_back(key);
  }
  if (sim_clock_ != nullptr) sim_base_ = sim_clock_->now();
  wall_base_ = now_ns();
}

void Generator::tick_clock_() {
  if (sim_clock_ == nullptr) return;
  const rproxy::util::TimePoint t = sim_base_ + (now_ns() - wall_base_) / 1000;
  if (t > sim_clock_->now()) sim_clock_->set(t);
}

void Generator::prepare_one_() {
  auto op = std::make_unique<Pending>();
  op->index = next_index_++;
  tick_clock_();
  workload_.prepare(*op);
  op->conn %= keys_.size();
  ahead_.push_back(std::move(op));
}

double Generator::next_gap_ns_(double rate) {
  // Exponential inter-arrival; 1 - u keeps the log argument in (0, 1].
  const double u = arrivals_.next_double();
  return -std::log(1.0 - u) / rate * 1e9;
}

WindowResult Generator::run(const WindowSpec& spec) {
  WindowResult res;
  if (broken_) {
    // An earlier window lost replies; the connections' FIFOs no longer
    // line up with what the server will send.
    res.stalled = true;
    return res;
  }
  const double cpu0 = process_cpu_s();
  const double gen_cpu0 = cpu_s(RUSAGE_THREAD);
  const Nanos start = now_ns();
  const Nanos end = start + static_cast<Nanos>(spec.seconds * 1e9);

  // Replies come back in request order per connection.
  std::vector<std::deque<std::unique_ptr<Pending>>> fifo(keys_.size());
  std::size_t inflight = 0;
  std::vector<std::pair<Nanos, std::size_t>> inflight_samples;

  const auto note_error = [&](const std::string& why) {
    if (res.errors.size() < 5) res.errors.push_back(why);
  };

  const auto send = [&](std::unique_ptr<Pending> op) -> bool {
    RttRecord r;
    r.req_bytes = static_cast<std::uint32_t>(op->request.wire_size());
    r.send = now_ns();
    const rproxy::util::Status st = client_.send(keys_[op->conn], op->request);
    if (!st.is_ok()) {
      res.failed += 1;
      note_error("send: " + st.to_string());
      return false;
    }
    if (spec.record) op->rtts.push_back(r);
    fifo[op->conn].push_back(std::move(op));
    return true;
  };

  const auto finish = [&](const Pending& op, Nanos t) {
    if (op.ok) {
      res.latency_ms.push_back(static_cast<double>(t - op.due) / 1e6);
    } else {
      res.failed += 1;
      note_error(op.error);
    }
    if (!spec.record) return;
    OpRecord rec;
    rec.due = op.due;
    rec.done = t;
    rec.ok = op.ok;
    rec.prove_us = op.prove_us;
    rec.endorse_us = op.endorse_us;
    rec.first_rtt = static_cast<std::uint32_t>(res.rtts.size());
    rec.rtt_count = static_cast<std::uint32_t>(op.rtts.size());
    res.rtts.insert(res.rtts.end(), op.rtts.begin(), op.rtts.end());
    res.ops.push_back(rec);
  };

  bool broken = false;
  const auto complete = [&](const rproxy::net::FanoutClient::Completion& c) {
    const Nanos t = now_ns();
    const std::size_t conn =
        static_cast<std::size_t>(std::stoul(c.key.substr(1)));
    std::unique_ptr<Pending> op = std::move(fifo[conn].front());
    fifo[conn].pop_front();
    if (spec.record) {
      RttRecord& r = op->rtts.back();
      r.recv = t;
      r.reply_bytes = static_cast<std::uint32_t>(c.reply.wire_size());
      r.key = join_key(op->request.payload, c.reply.payload);
    }
    tick_clock_();
    if (!workload_.on_reply(*op, c.reply)) {
      // The operation's next request goes out on the same connection.
      if (!send(std::move(op))) {
        inflight -= 1;
        broken = true;
      }
      return;
    }
    inflight -= 1;
    finish(*op, now_ns());
  };

  // Reads at most one reply within `timeout_ms`.  True when a reply was
  // handled or the transport broke (either way the loop re-evaluates).
  const auto collect = [&](int timeout_ms) {
    auto got = client_.next(timeout_ms);
    if (got.is_ok()) {
      complete(got.value());
      return true;
    }
    if (got.status().code() == rproxy::util::ErrorCode::kTimeout) return false;
    note_error(got.status().to_string());
    broken = true;
    return true;
  };

  Nanos next_due = start + static_cast<Nanos>(next_gap_ns_(spec.rate));
  while (!broken) {
    tick_clock_();
    const Nanos now = now_ns();
    if (spec.max_inflight > 0 && inflight >= spec.max_inflight) {
      res.overloaded = true;
    }
    const bool arrivals_left = next_due < end && !res.overloaded;
    if (arrivals_left && next_due <= now) {
      if (ahead_.empty()) prepare_one_();
      std::unique_ptr<Pending> op = std::move(ahead_.front());
      ahead_.pop_front();
      op->due = next_due;
      res.attempted += 1;
      res.late_ms.push_back(static_cast<double>(now - next_due) / 1e6);
      if (!send(std::move(op))) {
        broken = true;
        break;
      }
      inflight += 1;
      inflight_samples.emplace_back(now - start, inflight);
      next_due += static_cast<Nanos>(next_gap_ns_(spec.rate));
      continue;
    }
    if (!arrivals_left && inflight == 0) break;
    if (!arrivals_left && now > end + kDrainLimit) {
      broken = true;
      break;
    }
    // Replies already here come first.
    if (inflight > 0 && collect(0)) continue;
    // Idle: prepare upcoming operations before they are due.
    if (arrivals_left && ahead_.size() < kPrepareAhead) {
      prepare_one_();
      continue;
    }
    const Nanos wait = arrivals_left ? next_due - now : kDrainLimit;
    if (inflight == 0) {
      sleep_ns(wait);
    } else if (wait > 1'500'000) {
      // Block for a reply, waking half a millisecond before the next
      // arrival is due (poll() has millisecond resolution).
      (void)collect(static_cast<int>((wait - 500'000) / 1'000'000));
    } else {
      sleep_ns(std::min(wait, kSpinSlice));
    }
  }
  if (broken) {
    // Whatever is still owed will never be matched: count it as failed.
    res.failed += inflight;
    res.stalled = true;
    broken_ = true;
  }

  res.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  res.cpu_s = process_cpu_s() - cpu0;
  res.gen_cpu_s = cpu_s(RUSAGE_THREAD) - gen_cpu0;
  const Nanos span = end - start;
  double first = 0, first_n = 0, last = 0, last_n = 0;
  for (const auto& [t, n] : inflight_samples) {
    if (t < span / 4) {
      first += static_cast<double>(n);
      first_n += 1;
    } else if (t >= span - span / 4) {
      last += static_cast<double>(n);
      last_n += 1;
    }
  }
  res.inflight_first = first_n > 0 ? first / first_n : 0;
  res.inflight_last = last_n > 0 ? last / last_n : 0;
  return res;
}

}  // namespace perfbench
