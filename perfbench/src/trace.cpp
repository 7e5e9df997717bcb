#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <unordered_map>

#include "stats.hpp"

namespace perfbench {

using rproxy::net::Envelope;
using rproxy::net::MsgType;

Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t thread_tag() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tag = next.fetch_add(1);
  return tag;
}

std::uint64_t join_key(const rproxy::util::Bytes& request,
                       const rproxy::util::Bytes& reply) {
  const auto view = [](const rproxy::util::Bytes& b) {
    return std::string_view(reinterpret_cast<const char*>(b.data()),
                            b.size());
  };
  const std::uint64_t a = std::hash<std::string_view>{}(view(request));
  const std::uint64_t b = std::hash<std::string_view>{}(view(reply));
  return a ^ (b * 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

void SpanLog::record(const Span& span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::take() {
  std::lock_guard lock(mutex_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

Envelope TracedNode::handle(const Envelope& request) {
  if (!log_.enabled()) return inner_.handle(request);
  Span span;
  span.kind = kind_;
  span.type = request.type;
  span.thread = thread_tag();
  span.start = now_ns();
  Envelope reply = inner_.handle(request);
  span.end = now_ns();
  if (kind_ == SpanKind::kHandle) {
    span.key = join_key(request.payload, reply.payload);
  }
  log_.record(span);
  return reply;
}

BarrierFn traced_barrier(BarrierFn inner, SpanLog& log) {
  return [inner = std::move(inner), &log](std::uint64_t lsn) {
    if (!log.enabled()) return inner(lsn);
    Span span;
    span.kind = SpanKind::kBarrier;
    span.thread = thread_tag();
    span.start = now_ns();
    rproxy::util::Status status = inner(lsn);
    span.end = now_ns();
    log.record(span);
    return status;
  };
}

void add_timing(LayerMetrics& out, const std::string& name,
                const std::vector<double>& samples) {
  const Summary s = summarize(samples);
  out[name + ".p50"] = s.p50;
  out[name + ".p99"] = s.p99;
  out[name + ".count"] = static_cast<double>(s.count);
}

namespace {

double us(Nanos d) { return static_cast<double>(d) / 1e3; }

std::string handle_metric(MsgType type) {
  switch (type) {
    case MsgType::kAppRequest:
      return "server.handle_us";
    case MsgType::kPresentChallengeRequest:
      return "accounting.handle_us.challenge";
    case MsgType::kTransferRequest:
      return "accounting.handle_us.transfer";
    case MsgType::kAccountQuery:
      return "accounting.handle_us.query";
    case MsgType::kCheckDeposit:
      return "accounting.handle_us.deposit";
    default:
      return "server.handle_us";
  }
}

/// Nested (non-handle) spans of one thread, sorted by start.
using ThreadSpans = std::unordered_map<std::uint32_t, std::vector<Span>>;

/// Spans of `kind` on `thread` lying inside [start, end].
std::vector<const Span*> inside(const ThreadSpans& nested,
                                std::uint32_t thread, SpanKind kind,
                                Nanos start, Nanos end) {
  std::vector<const Span*> out;
  auto it = nested.find(thread);
  if (it == nested.end()) return out;
  const std::vector<Span>& v = it->second;
  auto lo = std::lower_bound(
      v.begin(), v.end(), start,
      [](const Span& s, Nanos t) { return s.start < t; });
  for (; lo != v.end() && lo->start <= end; ++lo) {
    if (lo->kind == kind && lo->end <= end) out.push_back(&*lo);
  }
  return out;
}

Nanos total(const std::vector<const Span*>& spans) {
  Nanos sum = 0;
  for (const Span* s : spans) sum += s->end - s->start;
  return sum;
}

}  // namespace

void analyze_trace(const std::vector<OpRecord>& ops,
                   const std::vector<RttRecord>& rtts,
                   const std::vector<Span>& spans, LayerMetrics& out) {
  std::unordered_map<std::uint64_t, const Span*> handles;
  ThreadSpans nested;
  std::vector<double> barrier_us;
  std::vector<double> standby_us;
  std::size_t ships = 0;
  for (const Span& s : spans) {
    switch (s.kind) {
      case SpanKind::kHandle:
        handles.emplace(s.key, &s);
        break;
      case SpanKind::kBarrier:
        barrier_us.push_back(us(s.end - s.start));
        nested[s.thread].push_back(s);
        break;
      case SpanKind::kStandby:
        standby_us.push_back(us(s.end - s.start));
        if (s.type == MsgType::kReplShip) ++ships;
        nested[s.thread].push_back(s);
        break;
      case SpanKind::kDrawee:
        nested[s.thread].push_back(s);
        break;
    }
  }
  for (auto& [thread, v] : nested) {
    std::sort(v.begin(), v.end(),
              [](const Span& a, const Span& b) { return a.start < b.start; });
  }

  std::map<std::string, std::vector<double>> handle_us;
  std::vector<double> prove_us, endorse_us, inbound_us, outbound_us, hop_us;
  double e2e_sum = 0, client_sum = 0, net_sum = 0, handle_self_sum = 0,
         hop_self_sum = 0, barrier_self_sum = 0, standby_sum = 0;
  double req_bytes = 0, reply_bytes = 0, rtt_count = 0;
  std::size_t joined_ops = 0, unmatched = 0;

  for (const OpRecord& op : ops) {
    if (!op.ok) continue;
    if (op.prove_us > 0) prove_us.push_back(op.prove_us);
    if (op.endorse_us > 0) endorse_us.push_back(op.endorse_us);
    double net = 0, handled = 0, hop_self = 0, barrier_self = 0,
           standby = 0, hop = 0;
    bool all_joined = true;
    for (std::uint32_t i = 0; i < op.rtt_count; ++i) {
      const RttRecord& r = rtts[op.first_rtt + i];
      req_bytes += r.req_bytes;
      reply_bytes += r.reply_bytes;
      rtt_count += 1;
      auto it = handles.find(r.key);
      if (it == handles.end()) {
        all_joined = false;
        ++unmatched;
        continue;
      }
      const Span& h = *it->second;
      const double in = us(h.start - r.send);
      const double outb = us(r.recv - h.end);
      inbound_us.push_back(in);
      outbound_us.push_back(outb);
      net += in + outb;
      const double h_us = us(h.end - h.start);
      handle_us[handle_metric(h.type)].push_back(h_us);
      handled += h_us;

      // Children: drawee spans in the handle, barriers in the drawee
      // spans, standby applies in the barriers.
      const auto drawee =
          inside(nested, h.thread, SpanKind::kDrawee, h.start, h.end);
      const double drawee_us = us(total(drawee));
      hop += drawee_us;
      double barrier_in_drawee = 0;
      for (const Span* d : drawee) {
        const auto barriers =
            inside(nested, h.thread, SpanKind::kBarrier, d->start, d->end);
        const double b_us = us(total(barriers));
        barrier_in_drawee += b_us;
        for (const Span* b : barriers) {
          const double s_us = us(total(
              inside(nested, h.thread, SpanKind::kStandby, b->start, b->end)));
          standby += s_us;
          barrier_self += us(b->end - b->start) - s_us;
        }
      }
      hop_self += drawee_us - barrier_in_drawee;
      handled -= drawee_us;  // handle self time
    }
    if (!all_joined) continue;
    ++joined_ops;
    if (hop > 0) hop_us.push_back(hop);
    const double e2e = us(op.done - op.due);
    const double client = op.prove_us + op.endorse_us;
    e2e_sum += e2e;
    client_sum += client;
    net_sum += net;
    handle_self_sum += handled;
    hop_self_sum += hop_self;
    barrier_self_sum += barrier_self;
    standby_sum += standby;
  }

  add_timing(out, "client.prove_us", prove_us);
  add_timing(out, "client.endorse_us", endorse_us);
  add_timing(out, "net.inbound_us", inbound_us);
  add_timing(out, "net.outbound_us", outbound_us);
  for (const auto& [name, samples] : handle_us) {
    add_timing(out, name, samples);
  }
  add_timing(out, "accounting.clearing_hop_us", hop_us);
  add_timing(out, "replication.barrier_us", barrier_us);
  add_timing(out, "replication.standby_apply_us", standby_us);

  const double n = static_cast<double>(joined_ops);
  const auto per_op = [&](double sum) { return n > 0 ? sum / n : 0.0; };
  out["net.rtts_per_op"] = per_op(rtt_count);
  out["net.req_bytes_per_op"] = per_op(req_bytes);
  out["net.reply_bytes_per_op"] = per_op(reply_bytes);
  out["replication.ships_per_op"] = per_op(static_cast<double>(ships));

  // Self time per op (means, so they add up to the mean end-to-end
  // latency together with the unattributed remainder).
  const double attributed = client_sum + net_sum + handle_self_sum +
                            hop_self_sum + barrier_self_sum + standby_sum;
  out["self.client_us"] = per_op(client_sum);
  out["self.net_us"] = per_op(net_sum);
  out["self.handle_us"] = per_op(handle_self_sum);
  out["self.clearing_hop_us"] = per_op(hop_self_sum);
  out["self.barrier_us"] = per_op(barrier_self_sum);
  out["self.standby_apply_us"] = per_op(standby_sum);
  out["self.unattributed_us"] = per_op(e2e_sum - attributed);
  out["trace.e2e_mean_us"] = per_op(e2e_sum);
  out["trace.unattributed_share"] =
      e2e_sum > 0 ? (e2e_sum - attributed) / e2e_sum : 0.0;
  out["trace.joined_ops"] = n;
  out["trace.unmatched_rtts"] = static_cast<double>(unmatched);
}

}  // namespace perfbench
