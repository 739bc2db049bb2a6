// server: a closed loop with 2 client threads and 2 worker threads. Each
// client owns a request MessageQueue and a reply MessageQueue and keeps one
// request outstanding. Workers Poll::WaitAny over both request queues'
// readable() events and a shutdown Event, run the request's seeded DoWork
// and send the reply; the client waits with RecvFor under a generous
// deadline. Every request crosses MessageQueue, Event/Poll, the Nub or
// waitq, the Parker and the timer wheel.
//
// The fan-in keeps Poll's scan order visible: Poll::ScanAny always scans
// from index 0, so client 0's queue is favoured, and the ratio of the two
// clients' p99 latencies (threads.poll_client_p99_skew) shows it.

#include <algorithm>
#include <random>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/threads/threads.h"
#include "src/workload/work.h"

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr std::size_t kGenPerClient = 4096;
constexpr std::uint64_t kRoundRequests = 1000;  // verdict_s quota per client
constexpr std::size_t kLatencyBlock = 2000;     // requests per percentile block
constexpr std::uint64_t kTraceEvery = 64;       // traced half: 1 request in 64
constexpr auto kReplyDeadline = std::chrono::seconds(2);

struct Request {
  std::uint32_t client;
  std::uint32_t seq;
  std::uint64_t payload;
  std::uint32_t units;
  std::uint64_t span;  // the client's request span, when traced
};

struct Reply {
  std::uint32_t seq;
  std::uint64_t value;
};

// The seeded function every reply must equal.
std::uint64_t Answer(std::uint64_t payload, std::uint32_t units) {
  std::uint64_t z = payload + 0x9e3779b97f4a7c15ULL * (units + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Gen {
  std::uint64_t payload;
  std::uint32_t units;
};

// Mostly short requests with a long tail, in fixed proportions: 90% of
// 100-500 DoWork units, 9.5% of 1000-6000 and 0.5% of 20000-40000.
std::vector<Gen> MakeRequests(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::size_t n_long = kGenPerClient / 200;
  const std::size_t n_mid = kGenPerClient * 95 / 1000;
  std::vector<Gen> g;
  g.reserve(kGenPerClient);
  for (std::size_t i = 0; i < kGenPerClient; ++i) {
    std::uint32_t lo = 100, hi = 500;
    if (i < n_long) {
      lo = 20000, hi = 40000;
    } else if (i < n_long + n_mid) {
      lo = 1000, hi = 6000;
    }
    g.push_back({rng(), static_cast<std::uint32_t>(lo + rng() % (hi - lo + 1))});
  }
  std::shuffle(g.begin(), g.end(), rng);
  return g;
}

struct alignas(64) ClientState {
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> failed{0};
  SampleRing latency_us;              // untraced measured phase only
  std::vector<double> round_s;        // measured phases only
};

struct Shared {
  taos::MessageQueue<Request>* req[kClients];
  taos::MessageQueue<Reply>* rep[kClients];
  taos::Event shutdown{taos::EventReset::kManual};
  std::atomic<int> phase{kWarm};
  ClientState client[kClients];
};

void RecordSpan(const char* name, Layer layer, std::uint64_t parent, std::uint64_t req,
                std::uint64_t start, std::uint64_t end, std::uint64_t id = 0) {
  Tracer& t = Tracer::Get();
  t.Record({name, layer, id != 0 ? id : t.NextId(), parent, req, start, end});
}

void WorkerLoop(Shared& s) {
  taos::Poll poll;
  for (int c = 0; c < kClients; ++c) poll.Add(s.req[c]->readable());
  poll.Add(s.shutdown);
  std::uint64_t sink = 0;
  for (;;) {
    const bool traced = Tracer::Get().on();
    const std::uint64_t t0 = traced ? NowNs() : 0;
    const std::size_t i = poll.WaitAny();
    if (i == kClients) break;
    const std::uint64_t t1 = traced ? NowNs() : 0;
    Request rq;
    if (s.req[i]->TryRecv(&rq) != taos::QueueResult::kOk) continue;  // the other worker won
    const std::uint64_t t2 = traced ? NowNs() : 0;
    sink += taos::workload::DoWork(rq.units);
    const std::uint64_t t3 = traced ? NowNs() : 0;
    s.rep[rq.client]->Send(Reply{rq.seq, Answer(rq.payload, rq.units)});
    if (traced && rq.span != 0) {
      const std::uint64_t t4 = NowNs();
      const std::uint64_t rid = (std::uint64_t{rq.client} << 32) | rq.seq;
      const std::uint64_t serve = Tracer::Get().NextId();
      RecordSpan("poll.waitany", Layer::kThreads, serve, rid, t0, t1);
      RecordSpan("msgq.tryrecv", Layer::kThreads, serve, rid, t1, t2);
      RecordSpan("work", Layer::kWorkload, serve, rid, t2, t3);
      RecordSpan("msgq.send_reply", Layer::kThreads, serve, rid, t3, t4);
      RecordSpan("serve", Layer::kBench, rq.span, rid, t0, t4, serve);
    }
  }
  if (sink == 42) std::printf("\n");  // keeps DoWork's result observable
}

void ClientLoop(Shared& s, int c, const std::vector<Gen>& gen) {
  ClientState& me = s.client[c];
  me.latency_us.Allocate(1 << 20);
  Progress& prog = GlobalProgress();
  std::uint64_t round_start = NowNs(), round_done = 0;
  for (std::uint32_t seq = 1;; ++seq) {
    const int phase = s.phase.load(std::memory_order_relaxed);
    if (phase == kStop) break;
    const Gen& g = gen[seq % gen.size()];
    const std::uint64_t rid = (std::uint64_t{static_cast<std::uint32_t>(c)} << 32) | seq;
    const bool traced = Tracer::Get().on() && seq % kTraceEvery == 0;
    prog.attempted.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t t0 = NowNs();
    const std::uint64_t span = traced ? Tracer::Get().NextId() : 0;
    s.req[c]->Send(Request{static_cast<std::uint32_t>(c), seq, g.payload, g.units, span});
    const std::uint64_t t1 = NowNs();
    bool ok = false;
    for (;;) {
      Reply rp;
      if (s.rep[c]->RecvFor(&rp, kReplyDeadline) != taos::QueueResult::kOk) break;
      if (rp.seq != seq) continue;  // late reply to a request that timed out
      ok = rp.value == Answer(g.payload, g.units);
      break;
    }
    const std::uint64_t t2 = NowNs();
    if (traced) {
      RecordSpan("msgq.send", Layer::kThreads, span, rid, t0, t1);
      RecordSpan("msgq.recvfor", Layer::kThreads, span, rid, t1, t2);
      RecordSpan("request", Layer::kBench, 0, rid, t0, t2, span);
    }
    if (!ok) me.failed.fetch_add(1, std::memory_order_relaxed);
    me.done.fetch_add(1, std::memory_order_relaxed);
    prog.completed.fetch_add(1, std::memory_order_relaxed);
    if (phase == kMeasureA) me.latency_us.Push(static_cast<double>(t2 - t0) / 1e3);
    if (phase == kWarm) {
      round_start = t2, round_done = 0;
    } else if (++round_done == kRoundRequests) {
      me.round_s.push_back(static_cast<double>(t2 - round_start) / 1e9);
      round_start = t2, round_done = 0;
    }
  }
}

std::vector<double> Latencies(const Shared& s) {
  std::vector<double> all;
  for (const auto& c : s.client) {
    const std::vector<double> v = c.latency_us.Values();
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

}  // namespace

void Server(const Args& args, Result* r) {
  taos::MessageQueue<Request> req0(16), req1(16);
  taos::MessageQueue<Reply> rep0(16), rep1(16);
  Shared s;
  s.req[0] = &req0, s.req[1] = &req1, s.rep[0] = &rep0, s.rep[1] = &rep1;
  std::vector<Gen> gen[kClients];
  for (int c = 0; c < kClients; ++c) {
    gen[c] = MakeRequests(args.seed * kClients + static_cast<std::uint64_t>(c));
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) threads.emplace_back([&s] { WorkerLoop(s); });
  const bool measure = StartTimed(args);
  if (!measure) s.phase.store(kStop);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&s, &gen, c] { ClientLoop(s, c, gen[c]); });
  }
  Window a, b;
  if (measure) {
    DriveStages(args, s.phase, [&s] {
      std::uint64_t n = 0;
      for (const auto& c : s.client) n += c.done.load(std::memory_order_relaxed);
      return n;
    }, &a, &b);
  }
  s.phase.store(kStop);
  for (int c = 0; c < kClients; ++c) threads[kWorkers + c].join();
  s.shutdown.Set();
  for (int w = 0; w < kWorkers; ++w) threads[w].join();
  if (!measure) return;
  // Before the analysis below copies the samples.
  if (!args.trace) r->Add("peak_rss_mb", PeakRssMb(), "MB");

  // Every request got exactly its reply: nothing may be left over.
  std::uint64_t failed = 0, done = 0;
  for (int c = 0; c < kClients; ++c) {
    Reply extra;
    failed += s.client[c].failed.load();
    done += s.client[c].done.load();
    while (s.rep[c]->TryRecv(&extra) == taos::QueueResult::kOk) ++failed;
  }
  r->attempted += done;
  r->Fail(failed);

  std::vector<double> lat = Latencies(s);
  if (!args.trace) {
    std::vector<double> rounds;
    for (const auto& c : s.client) rounds.insert(rounds.end(), c.round_s.begin(), c.round_s.end());
    r->Add("ops_per_s", QuietRate(a.rates), "1/s");
    std::vector<double> p50, p99;
    BlockQuantiles(lat, kLatencyBlock, 0.5, &p50);
    BlockQuantiles(lat, kLatencyBlock, 0.99, &p99);
    r->Add("latency_p50_us", QuietTime(p50), "us");
    r->Add("latency_p99_us", QuietTime(p99), "us");
    r->Add("cpu_us_per_op", PerOp(a.cpu_s * 1e6, static_cast<double>(a.ops)), "us");
    r->Add("verdict_s", QuietTime(rounds), "s");
    r->Add("latency_samples", static_cast<double>(lat.size()), "count");
    return;
  }
  const double ops = static_cast<double>(a.ops);
  WakeupMetrics(b.obs, r);
  ObsLayerMetrics(a.obs, a.nub_entries, ops, a.vcsw, r);
  r->Add("latency_samples", static_cast<double>(lat.size()), "count");
  double p99_min = 0, p99_max = 0;
  for (int c = 0; c < kClients; ++c) {
    const std::vector<double> v = s.client[c].latency_us.Values();
    const double p = Quantile(v, 0.99);
    std::printf("client %d: p99 %.2f us over %zu requests\n", c, p, v.size());
    p99_min = c == 0 ? p : std::min(p99_min, p);
    p99_max = c == 0 ? p : std::max(p99_max, p);
  }
  r->Add("threads.poll_client_p99_skew", p99_min > 0 ? p99_max / p99_min : 0, "ratio");
  r->Add("obs.trace_overhead_ratio", QuietRate(a.rates) / QuietRate(b.rates), "ratio");
  const Tracer::SelfTimes st = Tracer::Get().Analyze();
  SelfTimeMetrics(st, static_cast<double>(b.ops) / kTraceEvery, r);
  for (const auto& [name, d] : st.durations_us) {
    const std::string n = name == "msgq.send" ? "threads.msgq_send_us"
                          : name == "msgq.recvfor" ? "threads.msgq_recvfor_us"
                          : name == "poll.waitany" ? "threads.poll_waitany_us"
                                                   : "";
    if (n.empty()) continue;
    r->Add(n + "_p50", Quantile(d, 0.5), "us");
    r->Add(n + "_p99", Quantile(d, 0.99), "us");
  }
  LayerProbes(r);
}

}  // namespace perfbench
